"""Command-line interface and the CSV formats it speaks.

Exit codes: 0 success, 1 usage error, 2 invalid input data,
3 optimization diverged / integration blew up. Machine-readable CSV goes
to stdout only; every diagnostic goes to stderr.

Beat files: header ``time,I,II,III,aVR,aVL,aVF,V1,...,V6``; time in
seconds with 9 decimals, values in millivolts as ``repr`` writes them
(its shortest round-trip digits, written by Ryu through orjson), LF
endings, no quoting. Files holding several beats carry a leading integer
``beat`` column. Record files use the single-beat layout with a
continuous time column. A reader parses a file in one np.loadtxt
pass; files that pass declines go to the line parser, which accepts them
or names the offending line, so error messages keep their line numbers.
"""

from __future__ import annotations

import argparse
import io
import os
import pickle
import sys
from itertools import islice, repeat
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
from .segmentation import Record, _median, _segmentation

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


def _write_rows(fh, times, leads: np.ndarray, key: tuple = ()) -> None:
    """Rows of _WRITE_BLOCK samples per write: a cell from each iterator in
    key, a time from times, then the samples as repr writes them. A beat
    is one block."""
    import orjson  # loaded by the first write, so readers never pay for it

    for start in range(0, leads.shape[1], _WRITE_BLOCK):
        block = np.ascontiguousarray(leads[:, start:start + _WRITE_BLOCK].T, float)
        # orjson's Ryu digits are repr's, "[[row],[row]]", except where repr
        # takes exponent form: a row holding such a value is written by repr
        rows = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2]
        rows = rows.decode("ascii").split("],[")
        size = np.abs(block)
        plain = ((size >= 1e-4) & (size < 1e16) | (block == 0.0)).all(axis=1)
        for r in np.flatnonzero(~plain).tolist():
            rows[r] = ",".join(map(repr, block[r].tolist()))
        # islice stops zip before it takes the next block's first time
        columns = [*key, islice(times, _WRITE_BLOCK), rows]
        # the empty last item ends the final row without copying the text
        fh.write("\n".join([*map(",".join, zip(*columns)), ""]))


def write_beats_csv(path, beats: list[Heartbeat]) -> None:
    """Serialize one or more beats; a beat column appears only for several."""
    if not beats:
        raise ValueError("no beats to write")
    multi = len(beats) > 1
    times: dict[SamplingGrid, list[str]] = {}  # each grid's column, formatted once
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write((_MULTI_HEADER if multi else _HEADER) + "\n")
        for k, beat in enumerate(beats):
            grid = beat.grid
            if grid not in times:
                dt = grid.dt
                times[grid] = [f"{l * dt:.9f}" for l in range(grid.L)]
            _write_rows(fh, iter(times[grid]), beat.leads,
                        (repeat(str(k)),) if multi else ())


def _beat_arrays(rows: np.ndarray, key=None) -> tuple[float, np.ndarray]:
    """Sampling rate and (12, L) leads of one beat's (L, 13) rows, whose
    time column must increase strictly, each step within half the median
    step of it; an error names the beat key."""
    if len(rows) < 2:
        raise ValueError("need at least two samples to infer the rate")
    t = rows[:, 0]
    where = "" if key is None else f"beat {key}: "
    with np.errstate(over="ignore"):  # a step between huge stamps is inf
        step = np.diff(t)
    rising = step > 0  # False at a NaN stamp too
    if not rising.all():
        l = int(np.argmin(rising)) + 1
        raise ValueError(f"{where}time must increase strictly: "
                         f"sample {l} at {float(t[l])} after {float(t[l - 1])}")
    # half a step of slack also reads stamps written with under 9 decimals
    median = _median(step)
    with np.errstate(invalid="ignore"):  # an inf step less an inf median is NaN
        on_grid = np.abs(step - median) <= 0.5 * median
    if not on_grid.all():
        l = int(np.argmin(on_grid)) + 1
        raise ValueError(f"{where}time is off the uniform grid: "
                         f"sample {l} at {float(t[l])} after {float(t[l - 1])}")
    fs = (len(rows) - 1) / float(t[-1] - t[0])
    snapped = round(fs)
    # written timestamps carry 9 decimals; snap to the integer rate they encode
    if snapped > 0 and abs(fs - snapped) <= 1e-6 * fs:
        fs = float(snapped)
    return fs, np.ascontiguousarray(rows[:, 1:]).T


def _parse_rows(path, data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The line parser over a file's bytes; splitlines() takes CRLF and a
    lone CR as the one break that read_text()'s newline translation makes."""
    lines = [ln for ln in data.decode("utf-8").splitlines() if ln.strip()]
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
    return _parse_rows(path, data)


def read_beats_csv(path, label: str | None = None) -> list[Heartbeat]:
    keys, table = _read_table(path)
    if not len(keys):
        raise ValueError(f"{path}: no beats")
    order = np.argsort(keys, kind="stable")  # each beat's rows stay in file order
    runs = np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)
    split = (_beat_arrays(table[rows], keys[rows[0]])
             for rows in sorted(runs, key=lambda rows: rows[0]))  # first appearance first
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
    rows = ["beat,combined," + ",".join(LEAD_NAMES)]
    for k, beat in enumerate(beats):
        # huge finite samples overflow the sums: an error below, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            l1, l2, per_lead = loss_components(beat, table, args.samples, args.seed)
        scores = [weights.combine(l1, l2), *(per_lead[lead] for lead in LEAD_NAMES)]
        if not np.all(np.isfinite(scores)):
            raise ValueError(f"beat {k}: score is not finite")
        rows.append(",".join([str(k), *map(_fmt_value, scores)]))
    print("\n".join(rows))
    return 0


def _cmd_refine(args) -> int:
    table = _load_table(args.params)
    weights = LossWeights(delta=args.delta)
    OptimConfig(max_iter=args.steps)  # checks --steps, which the exact solve ignores
    beats = read_beats_csv(args.input, label=args.klass)
    # huge finite samples overflow the sums: exit 3 below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        refined = [refine_waveform(b, table, weights, seed=args.seed,
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
    # huge finite samples overflow the sums: exit 3 below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if len(signals) == 1:
            ref = reference_trajectory(init.rhythm, signals[0].grid)
            results = [fit_params(signals[0], init.mean_eta, init.rhythm, ref, cfg)]
            mean, std = tuple(eta_to_vector(results[0].eta)), (0.0,) * 15
        else:
            results = []
            fitted = estimate_distribution(signals, args.klass, lead, cfg,
                                           rhythm=init.rhythm, eta0=init.mean_eta,
                                           results=results)
            mean, std = fitted.mean, fitted.std
    dist = ParamDistribution(class_code=args.klass, lead=lead, mean=mean, std=std,
                             gain_mean=init.gain_mean, gain_std=0.0,
                             rhythm=init.rhythm)
    Path(args.out).write_text(write_param_file({(args.klass, lead): dist}),
                              encoding="utf-8")
    # every fit and the file succeeded: only now does stdout get the table
    print("\n".join(["beat,lead,iterations,converged,final_distance",
                     *(f"{k},{lead},{r.iterations},{int(r.converged)},"
                       f"{_fmt_value(r.final_distance)}"
                       for k, r in enumerate(results))]))
    print(f"wrote fitted parameters to {args.out}", file=sys.stderr)
    return 0


def _write_cycles(paths: list[Path], beats: list[Heartbeat]) -> None:
    """Write beats[k] to paths[k], one beat a file, in order."""
    for path, beat in zip(paths, beats):
        write_beats_csv(path, [beat])


def _fork_join(main, side, name: str) -> None:
    """Run side() in a forked helper while this process runs main(), then
    reap it; or main() then side() here where os.fork is missing or fails.
    main()'s failure wins, then the one the helper sends back pickled, then
    ChildProcessError for a helper that ends without reporting. The helper
    leaves by os._exit: it never returns to the caller."""
    pid = None
    if hasattr(os, "fork"):
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                side()
                code = 0
            except BaseException as exc:  # the parent raises it, as its own
                with open(write_fd, "wb") as pipe:
                    pipe.write(pickle.dumps(exc))
        finally:
            os._exit(code)
    if pid is None:
        main()
        side()
        return
    os.close(write_fd)
    try:
        main()
    finally:
        try:
            with open(read_fd, "rb") as pipe:
                sent = pipe.read()
        finally:
            status = os.waitpid(pid, 0)[1]
    if sent:
        raise pickle.loads(sent)  # written by this program's own helper
    code = os.waitstatus_to_exitcode(status)
    if code:
        raise ChildProcessError(f"{name} exited with {code}")


def _cmd_segment(args) -> int:
    record = read_record_csv(args.input, label=args.klass)
    peaks, beats = _segmentation(record, target_len=args.length)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / f"{record.id}_cycle{k:03d}.csv" for k in range(len(beats))]
    # from two cycles on, one forked helper writes the second half while
    # this process writes the first
    split = (len(beats) + 1) // 2
    if len(beats) > 1:
        _fork_join(lambda: _write_cycles(paths[:split], beats[:split]),
                   lambda: _write_cycles(paths[split:], beats[split:]),
                   "cycle writer")
    else:
        _write_cycles(paths, beats)
    # every file is written: only now does stdout get the table
    print("\n".join(["index,start,end,file",
                     *(f"{k},{peaks[k]},{peaks[k + 1]},{path}"
                       for k, path in enumerate(paths))]))
    return 0


def _cmd_check(args) -> int:
    if not args.tol >= 0.0:
        raise ValueError(f"--tol must be >= 0, got {args.tol}")
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


#: Flags that several subcommands share, with their add_argument keywords.
_INPUT = ("--input", {"required": True})
_PARAMS = ("--params", {"required": True})
_CLASS = ("--class", {"dest": "klass", "default": "NORMAL"})
_DELTA = ("--delta", {"type": float, "default": 0.6})
_SAMPLES = ("--samples", {"type": int, "default": 8})
_SEED = ("--seed", {"type": int, "default": 0})
_OUT = ("--out", {"required": True})

#: Every subcommand by name: help text, handler and flags in --help order.
_COMMANDS = {
    "synthesize": ("generate beats from a parameter file", _cmd_synthesize, (
        _PARAMS, ("--class", {"dest": "klass", "required": True}),
        ("--fs", {"type": float, "default": 500.0}),
        ("--beats", {"type": int, "default": 1}), _SEED, _OUT)),
    "score": ("combined loss and per-lead distances", _cmd_score, (
        _INPUT, _PARAMS, _CLASS, _DELTA, _SAMPLES, _SEED)),
    "refine": ("minimize the combined loss over a beat", _cmd_refine, (
        _INPUT, _PARAMS, _CLASS, _DELTA,
        ("--steps", {"type": int, "default": 500, "help":
                     "accepted for compatibility (>= 1); the solve is exact"}),
        _SAMPLES, _SEED, _OUT)),
    "fit": ("fit wave parameters to an observed lead", _cmd_fit, (
        _INPUT, ("--lead", {"default": "II"}), ("--init", {"required": True}),
        _CLASS, ("--max-iter", {"type": int, "default": 2000}), _OUT)),
    "segment": ("cut a record into aligned cycles", _cmd_segment, (
        _INPUT, ("--length", {"type": int, "default": 512}),
        ("--class", {"dest": "klass", "default": None}),
        ("--out-dir", {"required": True}))),
    "check": ("verify the limb-lead identities", _cmd_check, (
        _INPUT, ("--tol", {"type": float, "default": 1e-9}))),
}


def build_parser(command: str | None = None) -> _CliParser:
    """The ecgdyn parser with every subcommand, or only with ``command``
    when it names one. A subcommand's parser, and so its help, usage and
    error messages, is the same either way."""
    parser = _CliParser(prog="ecgdyn",
                        description="Physiologically constrained 12-lead "
                                    "heartbeat synthesis, scoring and segmentation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name in [command] if command in _COMMANDS else _COMMANDS:
        help_text, func, flags = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def run_cli(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a subcommand call builds only its own subparser; anything else
    # (no arguments, -h, --version, an unknown name) needs them all
    parser = build_parser(argv[0] if argv else None)
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
