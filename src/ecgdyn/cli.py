"""Command-line interface and the CSV formats it speaks.

Exit codes: 0 success, 1 usage error, 2 invalid input data,
3 optimization diverged / integration blew up. Machine-readable CSV goes
to stdout only; every diagnostic goes to stderr.

Beat files: header ``time,I,II,III,aVR,aVL,aVF,V1,...,V6``; time in
seconds with 9 decimals, values in millivolts as ``repr`` writes them
(its shortest round-trip digits, written by Ryu through orjson), LF
endings, no quoting. Files holding several beats carry a leading integer
``beat`` column. Record files use the single-beat layout with a
continuous time column. Readers parse with orjson's number parser; a file
it could read otherwise goes to the line parser, which accepts it or
names the offending line, so error messages keep their line numbers.
"""

from __future__ import annotations

import argparse
import os
import pickle
import re
import sys
from functools import lru_cache
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .errors import EcgDynError, FitDiverged, IntegrationDiverged
from .fidelity import LeadSignal, LossWeights, loss_components, reference_trajectory
from .fitting import OptimConfig, estimate_distribution, fit_params, refine_waveform
from .integrate import SamplingGrid, beat_grid
from .leads import (FREE_LEADS, Heartbeat, LEAD_INDEX, LEAD_NAMES, check_lead,
                    check_lead_consistency, synthesize_heartbeat)
from .model import _unchecked, eta_to_vector
from .params import (ParamDistribution, ParamTable, _draw_packed, _pack,
                     check_class_code, read_param_file, require_dist, write_param_file)
from .segmentation import Record, _median, _segmentation

USAGE_ERROR = 1
DATA_ERROR = 2
DIVERGED = 3

_HEADER = "time," + ",".join(LEAD_NAMES)
_MULTI_HEADER = "beat," + _HEADER
#: Whether each header's file has a beat key column.
_KEYED = {_HEADER.encode(): 0, _MULTI_HEADER.encode(): 1}
#: Bytes per orjson.loads call in a read, rounded up to whole lines.
_READ_BLOCK = 1 << 16

#: Samples written per write() call: a record's text is built a block at
#: a time, so writing it peaks at a fixed size, while a beat of up to this
#: many samples still goes out in one write.
_WRITE_BLOCK = 4096


class _CliParser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


# ---------------------------------------------------------------------------
# CSV io

def _write_rows(fh, times, leads: np.ndarray, key: tuple = ()) -> None:
    """Rows of _WRITE_BLOCK samples per write: a cell from each iterator in
    key, a time from times, then the samples as repr writes them. A beat
    is one block."""
    import orjson  # lazily: importing the CLI (setup_s), --help and --version skip it

    for start in range(0, leads.shape[1], _WRITE_BLOCK):
        block = np.ascontiguousarray(leads[:, start:start + _WRITE_BLOCK].T, float)
        # orjson's Ryu digits are repr's, "[[row],[row]]", except where repr
        # takes exponent form: repr writes those cells of a row anew
        rows = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2]
        rows = rows.decode("ascii").split("],[")
        size = np.abs(block)
        odd = ~((size >= 1e-4) & (size < 1e16) | (block == 0.0))
        for r in np.flatnonzero(odd.any(axis=1)).tolist():
            rows[r] = ",".join([repr(v) if o else cell for cell, v, o in zip(
                rows[r].split(","), block[r].tolist(), odd[r].tolist())])
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
    """Sampling rate and (12, L) leads of one beat's (L, 13) rows. Time must
    increase strictly, in steps within half the median step (which reads
    stamps of under 9 decimals), over a span of finite rate, and lead
    samples must be finite; errors name the key and the first bad sample."""
    if len(rows) < 2:
        raise ValueError("need at least two samples to infer the rate")
    t = rows[:, 0]
    where = "" if key is None else f"beat {key}: "
    # huge stamps step by inf, and inf less an inf median is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        step = np.diff(t)
        median = _median(step)
        on_grid = np.abs(step - median) <= 0.5 * median
    for ok, fault in ((step > 0, "must increase strictly"),  # False at a NaN stamp
                      (on_grid, "is off the uniform grid")):
        if not ok.all():
            l = int(np.argmin(ok)) + 1
            raise ValueError(f"{where}time {fault}: "
                             f"sample {l} at {float(t[l])} after {float(t[l - 1])}")
    # Python floats: a span that overflows gives 0.0, not a warning
    fs = (len(rows) - 1) / (float(t[-1]) - float(t[0]))
    if not 0.0 < fs < np.inf:
        raise ValueError(f"{where}time span from {float(t[0])} to {float(t[-1])} "
                         "gives no finite sampling rate")
    snapped = round(fs)
    # written timestamps carry 9 decimals; snap to the integer rate they encode
    if snapped > 0 and abs(fs - snapped) <= 1e-6 * fs:
        fs = float(snapped)
    finite = np.isfinite(rows[:, 1:])
    if not finite.all():
        l, j = divmod(int(np.argmin(finite)), 12)  # the first in file order
        raise ValueError(f"{where}lead {LEAD_NAMES[j]} sample {l} is not finite "
                         f"({float(rows[l, j + 1])})")
    return fs, np.ascontiguousarray(rows[:, 1:]).T


def _utf8(path, data: bytes) -> str:
    """A file's bytes decoded as UTF-8. A byte that is not fails as other
    read errors do, naming the file and its line as splitlines() counts."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:  # the bytes before exc.start decode
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ValueError(f"{path}:{line}: {exc}") from None


def _parse_rows(path, data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The line parser over a file's bytes; splitlines() takes CRLF and a
    lone CR as the one break that read_text()'s newline translation makes."""
    lines = [ln for ln in _utf8(path, data).splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].strip()
    if (keyed := _KEYED.get(header.encode())) is None:
        raise ValueError(f"{path}: unrecognized header {header!r}")
    keys, rows = [], []
    for n, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 13 + keyed:
            raise ValueError(f"{path}:{n}: expected {13 + keyed} columns")
        try:
            keys.append(int(cells[0]) if keyed else 0)
            rows.append([float(c) for c in cells[keyed:]])
        except ValueError as exc:
            raise ValueError(f"{path}:{n}: {exc}") from None
    return np.array(keys), np.array(rows).reshape(-1, 13)


def _read_table(path) -> tuple[np.ndarray, np.ndarray]:
    """Beat keys and (n, 13) time and leads. orjson parses _READ_BLOCKs of whole
    lines, every row's width is checked, and np.fromiter fills a table sized by
    newlines numpy counts a block at a time; where JSON could read otherwise
    (other headers, bytes or widths, integer -0s, non-int64 keys), the line parser."""
    import orjson  # lazily, as in _write_rows

    data = Path(path).read_bytes()
    header = data[:len(_MULTI_HEADER) + 1].partition(b"\n")[0]
    start, stop = len(header) + 1, len(data) - data.endswith(b"\n")
    try:
        keyed, keys, row = _KEYED[header], [], 0
        view = np.frombuffer(data, np.uint8)[start:stop]
        lines = sum(np.count_nonzero(view[i:i + _READ_BLOCK] == ord("\n"))
                    for i in range(0, len(view), _READ_BLOCK))
        table = np.empty((lines + 1, 13 + keyed))
        while start < stop:
            end = data.find(b"\n", start + _READ_BLOCK, stop)
            block = data[start:stop if end < 0 else end]
            start += len(block) + 1
            text = b"[[" + block.replace(b"\n", b"],[") + b"]]"
            rows = orjson.loads(text)
            # JSON's -0 is +0, and fromiter takes true, null and "1.5" for numbers;
            # past both, rows hold only numbers: len and fromiter raise no TypeError
            if (re.search(rb"-0[,\]]", text) or block.translate(None, b"0123456789.-+eE,\n")
                    or set(map(len, rows)) != {13 + keyed}):
                raise ValueError("not plain rows")
            cells = np.fromiter(chain.from_iterable(rows), float, len(rows) * (13 + keyed))
            table[row:row + len(rows)] = cells.reshape(len(rows), 13 + keyed)
            keys += [r[0] for r in rows] if keyed else []
            row += len(rows)
        keys = np.array(keys) if keyed else np.zeros(row, np.int64)
        if keys.dtype == np.int64:  # not a float, nor an int past int64
            return keys, table[:row, keyed:]  # no rows: a header and blank lines
    except (KeyError, ValueError, OverflowError):  # JSONDecodeError is a ValueError
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
    # _beat_arrays has checked each beat's leads as Heartbeat would
    return [_unchecked(Heartbeat, grid=SamplingGrid(fs=fs, L=leads.shape[1]),
                       leads=leads, label=label) for fs, leads in split]


def write_record_csv(path, record: Record) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_HEADER + "\n")
        fs, channels = record.fs, record.channels
        _write_rows(fh, (f"{l / fs:.9f}" for l in range(channels.shape[1])), channels)


def read_record_csv(path, label: str | None = None) -> Record:
    fs, channels = _beat_arrays(_read_table(path)[1])
    return Record(fs=fs, channels=channels, id=Path(path).stem, label=label)


# ---------------------------------------------------------------------------
# subcommands

def _read_params(path) -> ParamTable:
    """The class table in the parameter file at path. splitlines() in the
    parse breaks lines as read_text()'s newline translation would."""
    return read_param_file(_utf8(path, Path(path).read_bytes()))


def _check_positive(flag: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{flag} must be >= 1, got {value}")


def _cmd_synthesize(args) -> int:
    _check_positive("--beats", args.beats)
    table = _read_params(args.params)
    check_class_code(args.klass)
    rhythm = require_dist(table, args.klass, "II").rhythm
    grid = beat_grid(args.fs, rhythm.f)
    dists = [require_dist(table, args.klass, lead) for lead in LEAD_NAMES]
    # every lead runs at lead II's rhythm; score reads each lead's own
    for lead, dist in zip(LEAD_NAMES, dists):
        if dist.rhythm != rhythm:
            raise ValueError(f"lead {lead} has {dist.rhythm}, lead II {rhythm}: "
                             "synthesize runs every lead at lead II's rhythm")
    packed = _pack(dists)
    free = [LEAD_INDEX[lead] for lead in FREE_LEADS]
    beats = []
    for k in range(args.beats):
        # _draw's 12-lead stream, one generator a beat; the free leads'
        # projected vectors go to synthesis as they are
        params, gains = _draw_packed(packed, 1, np.random.default_rng((args.seed, k)))
        beats.append(synthesize_heartbeat(
            dict(zip(FREE_LEADS, params[0, free])), rhythm, grid,
            gains=dict(zip(FREE_LEADS, gains[0, free].tolist())), label=args.klass))
    write_beats_csv(args.out, beats)
    print(f"wrote {len(beats)} beat(s) to {args.out}", file=sys.stderr)
    return 0


def _scoring_request(args) -> tuple[ParamTable, LossWeights]:
    """Score's and refine's table and weights, checked before any input."""
    _check_positive("--samples", args.samples)
    table = _read_params(args.params)
    check_class_code(args.klass)
    for lead in LEAD_NAMES:
        require_dist(table, args.klass, lead)
    return table, LossWeights(delta=args.delta)


def _cmd_score(args) -> int:
    table, weights = _scoring_request(args)
    beats = read_beats_csv(args.input, label=args.klass)
    rows = ["beat,combined," + ",".join(LEAD_NAMES)]
    for k, beat in enumerate(beats):
        # huge finite samples overflow the sums: an error below, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            l1, l2, per_lead = loss_components(beat, table, args.samples, args.seed)
        scores = [weights.combine(l1, l2), *(per_lead[lead] for lead in LEAD_NAMES)]
        if not np.all(np.isfinite(scores)):
            raise ValueError(f"beat {k}: score is not finite")
        rows.append(",".join([str(k), *(str(float(v)) for v in scores)]))
    print("\n".join(rows))
    return 0


def _cmd_refine(args) -> int:
    table, weights = _scoring_request(args)
    _check_positive("--steps", args.steps)  # which the exact solve ignores
    beats = read_beats_csv(args.input, label=args.klass)
    # huge finite samples overflow the sums: exit 3 below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        refined = [refine_waveform(b, table, weights, seed=args.seed,
                                   n_samples=args.samples) for b in beats]
    write_beats_csv(args.out, refined)
    print(f"refined {len(refined)} beat(s) to {args.out}", file=sys.stderr)
    return 0


def _cmd_fit(args) -> int:
    _check_positive("--max-iter", args.max_iter)
    table = _read_params(args.init)
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
            results = [fit_params(signals[0], init.mean_eta, ref, cfg)]
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
                       f"{float(r.final_distance)}"
                       for k, r in enumerate(results))]))
    print(f"wrote fitted parameters to {args.out}", file=sys.stderr)
    return 0


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
    if args.length < 2:  # the request is checked before the record is read
        raise ValueError("target length must be at least 2")
    record = read_record_csv(args.input, label=args.klass)
    peaks, beats = _segmentation(record, target_len=args.length)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / f"{record.id}_cycle{k:03d}.csv" for k in range(len(beats))]

    def write(cycles: range) -> None:  # cycle k to paths[k], one beat a file
        for k in cycles:
            write_beats_csv(paths[k], [beats[k]])

    # from two cycles on, one forked helper writes the second half while
    # this process writes the first
    split = (len(beats) + 1) // 2
    if len(beats) > 1:
        _fork_join(lambda: write(range(split)),
                   lambda: write(range(split, len(beats))), "cycle writer")
    else:
        write(range(len(beats)))
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
            print(f"{k},{target},{float(dev)},{'pass' if dev <= args.tol else 'fail'}")
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
_SEED = ("--seed", {"type": int, "default": 0})
#: score's and refine's draw flags: the loss is an exact expectation
_SAMPLES = ("--samples", {"type": int, "default": 8, "help":
                          "accepted for compatibility (>= 1); the loss draws nothing"})
_LOSS_SEED = ("--seed", {"type": int, "default": 0, "help":
                         "accepted for compatibility; the loss draws nothing"})
_OUT = ("--out", {"required": True})

#: Every subcommand by name: help text, handler and flags in --help order.
_COMMANDS = {
    "synthesize": ("generate beats from a parameter file", _cmd_synthesize, (
        _PARAMS, ("--class", {"dest": "klass", "required": True}),
        ("--fs", {"type": float, "default": 500.0}),
        ("--beats", {"type": int, "default": 1}), _SEED, _OUT)),
    "score": ("combined loss and per-lead distances", _cmd_score, (
        _INPUT, _PARAMS, _CLASS, _DELTA, _SAMPLES, _LOSS_SEED)),
    "refine": ("minimize the combined loss over a beat", _cmd_refine, (
        _INPUT, _PARAMS, _CLASS, _DELTA,
        ("--steps", {"type": int, "default": 500, "help":
                     "accepted for compatibility (>= 1); the solve is exact"}),
        _SAMPLES, _LOSS_SEED, _OUT)),
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
    """A new ecgdyn parser with every subcommand, or only with ``command``
    when it names one. A subcommand's parser, and so its help, usage and
    error messages, is the same either way. Each call builds anew, so a
    caller may change the parser it gets; ``run_cli`` keeps its own."""
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


@lru_cache(maxsize=len(_COMMANDS) + 1)
def _parser(command: str | None) -> _CliParser:
    """build_parser(command), built on a process's first call for each key:
    a subcommand's name, or None. parse_args changes no parser."""
    return build_parser(command)


def run_cli(argv=None) -> int:
    """Run one ecgdyn command line (``sys.argv[1:]`` by default) and return
    its exit code. The parser is built on a process's first call for each
    subcommand and reused by later ones; one-shot processes build one."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # a subcommand call takes only its own subparser; anything else
    # (no arguments, -h, --version, an unknown name) needs them all
    parser = _parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        return args.func(args)
    except (EcgDynError, ValueError, OSError) as exc:
        print(f"ecgdyn: {exc}", file=sys.stderr)
        diverged = isinstance(exc, (FitDiverged, IntegrationDiverged))
        return DIVERGED if diverged else DATA_ERROR


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
