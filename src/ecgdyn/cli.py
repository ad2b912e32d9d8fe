"""Command-line interface and the CSV formats it speaks.

Exit codes: 0 success, 1 usage error, 2 invalid input data,
3 optimization diverged / integration blew up. Machine-readable CSV goes
to stdout only; every diagnostic goes to stderr.

Beat files: header ``time,I,II,III,aVR,aVL,aVF,V1,...,V6``; time in
seconds with 9 decimals, values in millivolts with shortest round-trip
formatting, LF endings, no quoting. Files holding several beats carry a
leading integer ``beat`` column. Record files use the single-beat layout
with a continuous time column. A reader parses a file in one np.loadtxt
pass; files that pass declines go to the line parser, which accepts them
or names the offending line, so error messages keep their line numbers.
"""

from __future__ import annotations

import argparse
import io
import sys
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from .errors import EcgDynError, FitDiverged, IntegrationDiverged
from .fidelity import (LeadSignal, LossWeights, draw_param_samples,
                       loss_components, reference_trajectory)
from .fitting import OptimConfig, estimate_distribution, fit_params, refine_waveform
from .integrate import SamplingGrid, beat_grid
from .leads import (FREE_LEADS, Heartbeat, LEAD_NAMES, check_lead,
                    check_lead_consistency, synthesize_heartbeat)
from .model import eta_to_vector
from .params import (ParamDistribution, ParamTable, check_class_code,
                     read_param_file, require_dist, write_param_file)
from .segmentation import Record, _segmentation

USAGE_ERROR = 1
DATA_ERROR = 2
DIVERGED = 3

_HEADER = "time," + ",".join(LEAD_NAMES)
_MULTI_HEADER = "beat," + _HEADER
#: The row of each header's file; np.loadtxt rejects other column counts.
_ROW_DTYPES = {_HEADER.encode(): np.dtype([("row", float, 13)]),
               _MULTI_HEADER.encode(): np.dtype([("key", int), ("row", float, 13)])}

#: Samples written per write() call: a record's text is built a block at
#: a time, so writing it peaks at a fixed size, while a beat of up to this
#: many samples still goes out in one write.
_WRITE_BLOCK = 4096

#: Line breaks to str.splitlines besides LF, and \x1f, which np.loadtxt
#: strips as whitespace but float() rejects: the line parser takes these.
_DECLINED = b"\r\v\f\x1c\x1d\x1e\x1f"


class _CliParser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


# ---------------------------------------------------------------------------
# CSV io

def _fmt_value(v: float) -> str:
    return str(float(v))


def _write_rows(fh, times, leads: np.ndarray) -> None:
    """Rows of _WRITE_BLOCK samples per write: each time string from the
    iterator times, then the samples by repr. A beat is one block."""
    for start in range(0, leads.shape[1], _WRITE_BLOCK):
        block = leads[:, start:start + _WRITE_BLOCK].tolist()
        # islice stops zip before it takes the next block's first time
        columns = [islice(times, _WRITE_BLOCK), *(map(repr, lead) for lead in block)]
        # the empty last item ends the final row without copying the text
        fh.write("\n".join([*map(",".join, zip(*columns)), ""]))


def write_beats_csv(path, beats: list[Heartbeat]) -> None:
    """Serialize beats; a beat-index column appears only for multi-beat files."""
    multi = len(beats) > 1
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write((_MULTI_HEADER if multi else _HEADER) + "\n")
        for k, beat in enumerate(beats):
            dt, key = beat.grid.dt, f"{k}," if multi else ""
            _write_rows(fh, (f"{key}{l * dt:.9f}" for l in range(beat.grid.L)),
                        beat.leads)


def _beat_arrays(rows: np.ndarray) -> tuple[float, np.ndarray]:
    """Sampling rate and (12, L) leads of one beat's (L, 13) rows."""
    if len(rows) < 2:
        raise ValueError("need at least two samples to infer the rate")
    span = float(rows[-1, 0] - rows[0, 0])
    if span <= 0:
        raise ValueError("time column must be increasing")
    fs = (len(rows) - 1) / span
    snapped = round(fs)
    # written timestamps carry 9 decimals; snap to the integer rate they encode
    if snapped > 0 and abs(fs - snapped) <= 1e-6 * fs:
        fs = float(snapped)
    return fs, np.ascontiguousarray(rows[:, 1:]).T


def _parse_rows(path) -> tuple[np.ndarray, np.ndarray]:
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].strip()
    if header not in (_HEADER, _MULTI_HEADER):
        raise ValueError(f"{path}: unrecognized header {header!r}")
    keyed = int(header == _MULTI_HEADER)
    expected = 13 + keyed
    keys, rows = [], []
    for n, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != expected:
            raise ValueError(f"{path}:{n}: expected {expected} columns")
        try:
            keys.append(int(cells[0]) if keyed else 0)
            rows.append([float(c) for c in cells[keyed:]])
        except ValueError as exc:
            raise ValueError(f"{path}:{n}: {exc}") from None
    return np.array(keys), np.array(rows).reshape(-1, 13)


def _read_table(path) -> tuple[np.ndarray, np.ndarray]:
    """Beat keys and an (n, 13) array of time and leads, one row per sample:
    one np.loadtxt pass for a plain file, the line parser for any other."""
    data = Path(path).read_bytes()
    header = data[:len(_MULTI_HEADER) + 1].partition(b"\n")[0]
    dtype = _ROW_DTYPES.get(header)
    body = len(header) + 1
    if (dtype is not None and data[body:body + 1] not in (b"", b"\n")
            and data.isascii() and not any(c in data for c in _DECLINED)):
        try:
            rows = np.loadtxt(io.BytesIO(data), dtype=dtype, delimiter=",",
                              skiprows=1, comments=None, ndmin=1, encoding="utf-8")
            keyed = "key" in dtype.names
            return rows["key"] if keyed else np.zeros(len(rows), int), rows["row"]
        except ValueError:
            pass
    return _parse_rows(path)


def read_beats_csv(path, label: str | None = None) -> list[Heartbeat]:
    keys, table = _read_table(path)
    split = (_beat_arrays(table[keys == key])
             for key in dict.fromkeys(keys.tolist()))  # first appearance first
    return [Heartbeat(grid=SamplingGrid(fs=fs, L=leads.shape[1]), leads=leads,
                      label=label) for fs, leads in split]


def write_record_csv(path, record: Record) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_HEADER + "\n")
        fs, channels = record.fs, record.channels
        _write_rows(fh, (f"{l / fs:.9f}" for l in range(channels.shape[1])), channels)


def read_record_csv(path, label: str | None = None) -> Record:
    fs, channels = _beat_arrays(_read_table(path)[1])
    return Record(fs=fs, channels=channels, id=Path(path).stem, label=label)


def _load_table(path) -> ParamTable:
    return read_param_file(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_synthesize(args) -> int:
    if args.beats < 1:
        raise ValueError(f"--beats must be >= 1, got {args.beats}")
    table = _load_table(args.params)
    check_class_code(args.klass)
    rhythm = require_dist(table, args.klass, "II").rhythm
    grid = beat_grid(args.fs, rhythm.f)
    beats = []
    for k in range(args.beats):
        entry = draw_param_samples(
            table, args.klass, 1, np.random.SeedSequence((args.seed, k)))[0]
        lead_params = {lead: entry[lead][0] for lead in FREE_LEADS}
        gains = {lead: entry[lead][1] for lead in FREE_LEADS}
        beats.append(synthesize_heartbeat(lead_params, rhythm, grid,
                                          gains=gains, label=args.klass))
    write_beats_csv(args.out, beats)
    print(f"wrote {len(beats)} beat(s) to {args.out}", file=sys.stderr)
    return 0


def _cmd_score(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    table = _load_table(args.params)
    check_class_code(args.klass)
    for lead in LEAD_NAMES:
        require_dist(table, args.klass, lead)
    weights = LossWeights(delta=args.delta)
    beats = read_beats_csv(args.input, label=args.klass)
    print("beat,combined," + ",".join(LEAD_NAMES))
    for k, beat in enumerate(beats):
        l1, l2, per_lead = loss_components(beat, table,
                                           n_samples=args.samples,
                                           seed=args.seed)
        combined = weights.delta * l1 + (1.0 - weights.delta) * l2
        cells = [str(k), _fmt_value(combined)]
        cells += [_fmt_value(per_lead[lead]) for lead in LEAD_NAMES]
        print(",".join(cells))
    return 0


def _cmd_refine(args) -> int:
    table = _load_table(args.params)
    weights = LossWeights(delta=args.delta)
    cfg = OptimConfig(max_iter=args.steps)
    beats = read_beats_csv(args.input, label=args.klass)
    refined = [refine_waveform(b, table, weights, cfg, seed=args.seed,
                               n_samples=args.samples) for b in beats]
    write_beats_csv(args.out, refined)
    print(f"refined {len(refined)} beat(s) to {args.out}", file=sys.stderr)
    return 0


def _cmd_fit(args) -> int:
    table = _load_table(args.init)
    lead = check_lead(args.lead)
    check_class_code(args.klass)
    init = require_dist(table, args.klass, lead)
    cfg = OptimConfig(max_iter=args.max_iter)
    beats = read_beats_csv(args.input)
    signals = [LeadSignal(b.grid, b.lead(lead) / init.gain_mean, lead=lead)
               for b in beats]
    print("beat,lead,iterations,converged,final_distance")
    if len(signals) == 1:
        sig = signals[0]
        ref = reference_trajectory(init.rhythm, sig.grid)
        result = fit_params(sig, init.mean_eta, init.rhythm, ref, cfg)
        dist = ParamDistribution(
            class_code=args.klass, lead=lead,
            mean=tuple(eta_to_vector(result.eta)), std=(0.0,) * 15,
            gain_mean=init.gain_mean, gain_std=0.0, rhythm=init.rhythm)
        print(f"0,{lead},{result.iterations},{int(result.converged)},"
              f"{_fmt_value(result.final_distance)}")
    else:
        fit_results: list = []
        dist = estimate_distribution(signals, args.klass, lead, cfg,
                                     rhythm=init.rhythm, eta0=init.mean_eta,
                                     results=fit_results)
        dist = ParamDistribution(
            class_code=args.klass, lead=lead, mean=dist.mean, std=dist.std,
            gain_mean=init.gain_mean, gain_std=0.0, rhythm=init.rhythm)
        for k, r in enumerate(fit_results):
            print(f"{k},{lead},{r.iterations},{int(r.converged)},"
                  f"{_fmt_value(r.final_distance)}")
    Path(args.out).write_text(write_param_file({(args.klass, lead): dist}),
                              encoding="utf-8")
    print(f"wrote fitted parameters to {args.out}", file=sys.stderr)
    return 0


def _cmd_segment(args) -> int:
    record = read_record_csv(args.input, label=args.klass)
    peaks, beats = _segmentation(record, target_len=args.length)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    print("index,start,end,file")
    for k, beat in enumerate(beats):
        path = out_dir / f"{record.id}_cycle{k:03d}.csv"
        write_beats_csv(path, [beat])
        print(f"{k},{peaks[k]},{peaks[k + 1]},{path}")
    return 0


def _cmd_check(args) -> int:
    beats = read_beats_csv(args.input)
    print("beat,relation,deviation,status")
    all_pass = True
    for k, beat in enumerate(beats):
        report = check_lead_consistency(beat, tol=args.tol)
        for target, dev in report.deviations.items():
            ok = dev <= args.tol
            print(f"{k},{target},{_fmt_value(dev)},{'pass' if ok else 'fail'}")
        all_pass = all_pass and report.passed
    if not all_pass:
        print("lead identities violated", file=sys.stderr)
        return DATA_ERROR
    return 0


def build_parser() -> _CliParser:
    parser = _CliParser(prog="ecgdyn",
                        description="Physiologically constrained 12-lead "
                                    "heartbeat synthesis, scoring and segmentation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("synthesize", help="generate beats from a parameter file")
    p.add_argument("--params", required=True)
    p.add_argument("--class", dest="klass", required=True)
    p.add_argument("--fs", type=float, default=500.0)
    p.add_argument("--beats", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("score", help="combined loss and per-lead distances")
    p.add_argument("--input", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--class", dest="klass", default="NORMAL")
    p.add_argument("--delta", type=float, default=0.6)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("refine", help="minimize the combined loss over a beat")
    p.add_argument("--input", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--class", dest="klass", default="NORMAL")
    p.add_argument("--delta", type=float, default=0.6)
    p.add_argument("--steps", type=int, default=500,
                   help="accepted for compatibility (>= 1); the solve is exact")
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("fit", help="fit wave parameters to an observed lead")
    p.add_argument("--input", required=True)
    p.add_argument("--lead", default="II")
    p.add_argument("--init", required=True)
    p.add_argument("--class", dest="klass", default="NORMAL")
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("segment", help="cut a record into aligned cycles")
    p.add_argument("--input", required=True)
    p.add_argument("--length", type=int, default=512)
    p.add_argument("--class", dest="klass", default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("check", help="verify the limb-lead identities")
    p.add_argument("--input", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_check)
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        return args.func(args)
    except (FitDiverged, IntegrationDiverged) as exc:
        print(f"ecgdyn: {exc}", file=sys.stderr)
        return DIVERGED
    except (EcgDynError, ValueError, OSError) as exc:
        print(f"ecgdyn: {exc}", file=sys.stderr)
        return DATA_ERROR


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
