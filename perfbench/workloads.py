"""The three benchmark workloads: jobs of CLI calls and their output checks.

A job is a fixed sequence of subcommands run in-process through
``ecgdyn.cli.run_cli``, the user-facing path. It holds one or more
operations; an operation is the calls that deliver one checked result,
such as ten scored beats or one fitted beat. Only the calls are timed;
input generation before a job and the checks after it are not. The
checks are the acceptance-criteria gates, never loosened. An operation
fails on a nonzero exit, an exception or a failed check, and stays in the
run.

Jobs come in rounds, and a run always holds whole rounds, so every run
holds the same mix of job kinds. ``nominal_round_s`` sizes a run: a run of
``--seconds`` holds ``round(seconds / nominal_round_s)`` rounds (at least
one). The constants are close to the time of a round as read on the
build host at the seed commit; fit_refine's is set lower so that a run
holds eight jobs. Fits take 300 to 2000 iterations depending on the
sampled beat; over ten seeds that alone spreads the time metrics by
about 11% of their median with six jobs and 5-8% with eight.
"""

from __future__ import annotations

import contextlib
import io
import math
import resource
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ecgdyn import (LEAD_NAMES, Heartbeat, LossWeights, beat_grid,
                    detect_r_peaks, euler_loss_combined, limb_relations)
from ecgdyn import cli
from ecgdyn.fidelity import loss_components

import inputs

#: Prefixes of problems caused by defects ROADMAP already lists: the R-peak
#: detector adds or misplaces peaks on noisy or inverted leads (item 5),
#: and the first-order fit can run out of iterations before it converges
#: (item 3).
DETECTION = "detection: "
FIT_CAP = "fit stopped at the iteration cap: "
KNOWN_DEFECTS = (DETECTION, FIT_CAP)
FIT_MAX_ITER = 2000
IDENTITY_TOL = 1e-9
VALUE_TOL = 1e-9  # output against the harness's own recomputation
ZERO_SCORE_TOL = 1e-12
FIT_REL_TOL = 0.02
FIT_THETA_TOL = 0.02
FIT_DIST_PER_SAMPLE = 1e-6
REFINE_RATIO_TOL = 0.01
PEAK_TOL_SAMPLES = 10  # 20 ms at 500 Hz
CYCLE_LEN = 512


@dataclass
class Op:
    """One checked result of a job: the calls that deliver it, the beats
    it covers, and its check.

    ``check`` receives the (exit code, stdout) of the op's calls and
    returns the problems it found.
    """

    calls: list[list[str]]
    beats: int
    check: Callable[[list[tuple[int, str]]], list[str]]


@dataclass
class Job:
    """One closed-loop request: its operations, run in order."""

    ops: list[Op]
    info: dict = field(default_factory=dict)


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    ref_wall_s: float  # wall_s scaled to the reference host's speed
    ref_cpu_s: float   # cpu_s scaled the same way
    results: list[tuple[int, list[str]]]  # (beats, problems) per op
    info: dict

    @property
    def passed(self) -> bool:
        return not self.problems

    @property
    def problems(self) -> list[str]:
        return [p for _, problems in self.results for p in problems]

    @property
    def failed_ops(self) -> int:
        return sum(bool(problems) for _, problems in self.results)

    @property
    def good_beats(self) -> int:
        """Beats of the operations that passed."""
        return sum(beats for beats, problems in self.results if not problems)

    @property
    def known_defect(self) -> bool:
        """Failed only through defects ROADMAP already lists.

        Such a job counts as failed; every other failure also marks the
        run's outputs as incorrect.
        """
        return bool(self.problems) and all(p.startswith(KNOWN_DEFECTS)
                                           for p in self.problems)


#: Calibration kernel time on the reference host (2-vCPU Xeon VM, Python
#: 3.11, numpy 2.4) when no other tenant slows it.
REF_HOST_S = 0.016


def _kernel() -> None:
    total = 0.0
    for i in range(40000):
        total += (i % 7) * 0.5
    a = np.arange(2000.0)
    for _ in range(200):
        a = np.sqrt(a * a + 1.0)
    ",".join(str(float(x)) for x in a[:1500])


def host_seconds() -> float:
    """Time of a fixed kernel of Python loops, small numpy operations and
    float formatting, the mix the program spends its time in.

    A shared host changes speed by tens of percent, in spells of seconds to
    minutes. Timed right before and after a job, the kernel gives the
    host's speed during the job, and ``REF_HOST_S / host_seconds()`` scales
    the job's times to the reference host. Three runs, median, times three.
    """
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        runs.append(time.perf_counter() - t0)
    return 3 * sorted(runs)[1]


#: Seconds between host-speed readings taken while a CLI call runs.
SAMPLE_PERIOD_S = 0.5


@contextlib.contextmanager
def sampled_host(readings: list[float], spent: list[float]):
    """Read the host's speed every ``SAMPLE_PERIOD_S`` while the block runs.

    Readings at the ends of a call miss speed changes inside a call of
    seconds. A SIGALRM handler, run between the program's bytecodes, times
    one calibration kernel and appends three times its time to
    ``readings`` (the unit of ``host_seconds``). It adds its own wall and
    CPU seconds to ``spent`` so that the caller takes them out of the
    call's times.
    """
    def read(signum, frame):
        t0, cpu0 = time.perf_counter(), time.process_time()
        _kernel()
        wall = time.perf_counter() - t0
        readings.append(3 * wall)
        spent[0] += wall
        spent[1] += time.process_time() - cpu0

    previous = signal.signal(signal.SIGALRM, read)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _cpu_seconds() -> float:
    own = time.process_time()
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own + kids.ru_utime + kids.ru_stime


def call_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_cli(argv)  # looked up per call, so a tracer sees it
    return code, out.getvalue()


def run_job(job: Job, tracer=None, job_id: int = 0) -> Outcome:
    """Time the job's calls, then check each operation's outputs untimed.

    The host calibration runs before the first call, every
    ``SAMPLE_PERIOD_S`` during a call and after every call; a call's times,
    less the time the readings inside it took, are scaled by the median of
    the readings from its start to its end. An operation stops at its first
    nonzero exit or exception; the next operation still runs.
    """
    outputs: list[list[tuple[int, str]]] = []
    crashes: list[list[str]] = []
    times = [0.0, 0.0, 0.0, 0.0]  # wall, cpu, and both scaled
    scope = tracer.job(job_id) if tracer else contextlib.nullcontext()
    host = host_seconds()
    with scope:
        for op in job.ops:
            results: list[tuple[int, str]] = []
            crash: list[str] = []
            try:
                for argv in op.calls:
                    readings, spent = [host], [0.0, 0.0]
                    t0, cpu0 = time.perf_counter(), _cpu_seconds()
                    try:
                        with sampled_host(readings, spent):
                            results.append(call_cli(argv))
                    finally:
                        wall = time.perf_counter() - t0 - spent[0]
                        cpu = _cpu_seconds() - cpu0 - spent[1]
                        host = host_seconds()
                        readings.append(host)
                        scale = REF_HOST_S / statistics.median(readings)
                        for i, value in enumerate((wall, cpu, wall * scale,
                                                   cpu * scale)):
                            times[i] += value
                    if results[-1][0] != 0:
                        break
            except Exception as exc:  # a crash fails the op, not the run
                crash.append(f"{type(exc).__name__}: {exc}")
            outputs.append(results)
            crashes.append(crash)
    checked = []
    for op, results, problems in zip(job.ops, outputs, crashes):
        if not problems:
            problems = [f"{argv[0]} exited {code}"
                        for argv, (code, _) in zip(op.calls, results) if code]
        if not problems:
            try:
                problems = op.check(results)
            except Exception as exc:  # unreadable output fails the check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        checked.append((op.beats, problems))
    return Outcome(*times, results=checked, info=job.info)


# ---------------------------------------------------------------------------
# shared checks

def _load_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def identity_deviation(leads: np.ndarray) -> float:
    """Worst violation of the six limb identities on a 12 x L matrix."""
    idx = {name: i for i, name in enumerate(LEAD_NAMES)}
    worst = 0.0
    for rel in limb_relations():
        rhs = rel.beta * leads[idx[rel.src1]] + rel.gamma * leads[idx[rel.src2]]
        worst = max(worst, float(np.max(np.abs(leads[idx[rel.target]] - rhs))))
    return worst


def _csv_rows(stdout: str, header: str) -> list[list[str]]:
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return [line.split(",") for line in lines[1:]]


def _identity_problem(what: str, leads: np.ndarray) -> list[str]:
    dev = identity_deviation(leads)
    return [] if dev <= IDENTITY_TOL else [f"{what}: limb identity off by {dev:.2e}"]


# ---------------------------------------------------------------------------
# workloads

class SynthScore:
    """Dataset generation: synthesize 10 beats, check them, score them.

    Every fourth job uses a zero-variance copy of the shipped table and
    scores with delta = 1, where every score must vanish (criterion 10).
    """

    name = "synth_score"
    round_jobs = 4
    nominal_round_s = 4.0
    beats_per_job = 10

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.table = inputs.shipped_table()
        self.zero_table = inputs.zero_variance(self.table)
        self.params = workdir / "normal.params"
        self.zero_params = workdir / "zero.params"
        inputs.write_params(self.params, self.table)
        inputs.write_params(self.zero_params, self.zero_table)

    def job(self, j: int) -> Job:
        zero = j % self.round_jobs == self.round_jobs - 1
        beats = self.dir / "beats.csv"
        params = str(self.zero_params if zero else self.params)
        n = self.beats_per_job
        delta = 1.0 if zero else 0.6
        score_seed = inputs.cli_seed(self.seed, j, 2)
        calls = [
            ["synthesize", "--params", params, "--class", inputs.CLASS,
             "--fs", str(inputs.FS), "--beats", str(n),
             "--seed", str(inputs.cli_seed(self.seed, j, 1)), "--out", str(beats)],
            ["check", "--input", str(beats), "--tol", repr(IDENTITY_TOL)],
            ["score", "--input", str(beats), "--params", params,
             "--delta", repr(delta), "--samples", "8", "--seed", str(score_seed)],
        ]

        def check(results):
            problems = []
            data = _load_csv(beats)
            grid = beat_grid(inputs.FS, 1.0)
            if data.shape != (n * grid.L, 14):
                return [f"beats file has shape {data.shape}"]
            verdicts = _csv_rows(results[1][1], "beat,relation,deviation,status")
            if len(verdicts) != 6 * n or any(v[3] != "pass" for v in verdicts):
                problems.append("check did not pass every identity of every beat")
            scores = _csv_rows(results[2][1], "beat,combined," + ",".join(LEAD_NAMES))
            if len(scores) != n:
                return problems + [f"score printed {len(scores)} rows, want {n}"]
            table = self.zero_table if zero else self.table
            for k, row in enumerate(scores):
                rows = data[k * grid.L:(k + 1) * grid.L]
                if not np.all(rows[:, 0] == k):
                    problems.append(f"beat {k}: wrong beat index column")
                problems += _identity_problem(f"beat {k}", rows[:, 2:].T)
                got = [float(v) for v in row[1:]]
                if not all(math.isfinite(v) for v in got):
                    problems.append(f"beat {k}: non-finite score")
                    continue
                if zero and got[0] > ZERO_SCORE_TOL:
                    problems.append(f"beat {k}: zero-variance score "
                                    f"{got[0]:.2e} > {ZERO_SCORE_TOL}")
                # the printed scores must be the library's scores of the
                # beat as written
                beat = Heartbeat(grid=grid, leads=rows[:, 2:].T, label=inputs.CLASS)
                l1, l2, per_lead = loss_components(beat, table, n_samples=8,
                                                   seed=score_seed)
                want = [delta * l1 + (1.0 - delta) * l2] + [per_lead[x] for x in LEAD_NAMES]
                if not all(math.isclose(g, w, rel_tol=VALUE_TOL, abs_tol=1e-15)
                           for g, w in zip(got, want)):
                    problems.append(f"beat {k}: printed scores differ from a rescore")
            return problems

        return Job(ops=[Op(calls=calls, beats=n, check=check)])


class FitRefine:
    """Model-based estimation: fit lead II of one beat, refine another.

    The fit beat is an exact model trajectory at the class gain and the fit
    starts from the class mean (criterion 7). The refine beat carries white
    noise on its free leads (criterion 8).
    """

    name = "fit_refine"
    round_jobs = 1
    nominal_round_s = 2.5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.table = inputs.shipped_table()
        self.params = workdir / "normal.params"
        inputs.write_params(self.params, self.table)

    def job(self, j: int) -> Job:
        fit_in, fit_out = self.dir / "fit.csv", self.dir / "fitted.params"
        ref_in, ref_out = self.dir / "noisy.csv", self.dir / "refined.csv"
        true_eta = inputs.fit_beat(self.table, fit_in, (self.seed, j, 1))
        noisy = inputs.refine_beat(self.table, ref_in, (self.seed, j, 2))
        seed = inputs.cli_seed(self.seed, j, 3)
        fit = ["fit", "--input", str(fit_in), "--lead", "II", "--init",
               str(self.params), "--class", inputs.CLASS,
               "--max-iter", str(FIT_MAX_ITER), "--out", str(fit_out)]
        refine = ["refine", "--input", str(ref_in), "--params", str(self.params),
                  "--class", inputs.CLASS, "--delta", "0.6", "--steps", "500",
                  "--samples", "8", "--seed", str(seed), "--out", str(ref_out)]
        # two operations: a failed fit does not undo the refine
        return Job(ops=[
            Op(calls=[fit], beats=1,
               check=lambda results: self._check_fit(
                   results[0][1], fit_out, true_eta, noisy.grid.L)),
            Op(calls=[refine], beats=1,
               check=lambda results: self._check_refine(noisy, ref_out, seed)),
        ])

    @staticmethod
    def _check_fit(stdout, fitted_path, true_eta, length) -> list[str]:
        problems = []
        (row,) = _csv_rows(stdout, "beat,lead,iterations,converged,final_distance")
        dist = float(row[4])
        if not dist <= FIT_DIST_PER_SAMPLE * length:
            problems.append(f"fit distance {dist:.2e} > {FIT_DIST_PER_SAMPLE * length:.0e}")
        fitted = {}
        for line in Path(fitted_path).read_text(encoding="utf-8").splitlines():
            key, sep, value = line.partition("=")
            if sep:
                fitted[key.strip()] = float(value)
        for i, wave in enumerate("PQRST"):
            got = [fitted[f"{inputs.CLASS}.II.{wave}.{p}_mean"] for p in ("theta", "a", "b")]
            want = true_eta[3 * i:3 * i + 3]
            d_theta = abs((got[0] - want[0] + math.pi) % (2 * math.pi) - math.pi)
            if d_theta > FIT_THETA_TOL:
                problems.append(f"{wave}.theta off by {d_theta:.4f} rad")
            for name, g, w in (("a", got[1], want[1]), ("b", got[2], want[2])):
                if abs(g - w) > FIT_REL_TOL * abs(w):
                    problems.append(f"{wave}.{name} off by {abs(g - w) / abs(w):.4f} relative")
        if int(row[2]) == FIT_MAX_ITER and row[3] == "0":
            problems = [FIT_CAP + p for p in problems]
        return problems

    def _check_refine(self, noisy: Heartbeat, refined_path, seed) -> list[str]:
        data = _load_csv(refined_path)
        if data.shape != (noisy.grid.L, 13):
            return [f"refined file has shape {data.shape}"]
        refined = Heartbeat(grid=noisy.grid, leads=data[:, 1:].T, label=noisy.label)
        problems = _identity_problem("refined beat", refined.leads)
        weights = LossWeights(delta=0.6)
        before = euler_loss_combined(noisy, self.table, weights, n_samples=8, seed=seed)
        after = euler_loss_combined(refined, self.table, weights, n_samples=8, seed=seed)
        if not after <= REFINE_RATIO_TOL * before:
            problems.append(f"refine loss ratio {after / before:.4f} > {REFINE_RATIO_TOL}")
        # one dominant peak per beat: detrended lead II tiled five times must
        # give one detection per copy, all at one phase
        lead2 = refined.lead("II")
        n = lead2.size
        trend = lead2[0] + (lead2[-1] - lead2[0]) * np.arange(n) / (n - 1)
        peaks = detect_r_peaks(np.tile(lead2 - trend, 5), noisy.grid.fs)
        if len(peaks) != 5 or len({int(p) % n for p in peaks}) != 1:
            problems.append(f"refined lead II: {len(peaks)} peaks in 5 tiled copies")
        return problems


class Ingest:
    """Raw-record intake: cut one 60-beat record into 512-sample cycles.

    A run writes one round of records up front and cycles through it. The
    records are 60-beat windows of one chained, rate-jittered recording,
    each with its own noise: six mild, one with strong white noise and one
    with lead II inverted.
    """

    name = "ingest"
    round_jobs = 8
    nominal_round_s = 8.5
    record_beats = 60
    chain_beats = 100

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        chain = inputs.make_chain(inputs.shipped_table(), self.chain_beats, (seed, 0))
        self.records = [self._record(chain, slot) for slot in range(self.round_jobs)]

    def _record(self, chain, slot: int):
        kind = {3: inputs.NOISY, 7: inputs.INVERTED}.get(slot, inputs.MILD)
        first = int(np.random.default_rng((self.seed, slot, 1)).integers(
            0, self.chain_beats - self.record_beats + 1))
        path = self.dir / f"record{slot}.csv"
        channels, truth = inputs.write_record(chain, first, self.record_beats,
                                              kind, path, (self.seed, slot, 2))
        return path, kind, channels, truth

    def job(self, j: int) -> Job:
        record, kind, channels, truth = self.records[j % self.round_jobs]
        out_dir = self.dir / "cycles"
        shutil.rmtree(out_dir, ignore_errors=True)
        info = {"true_beats": len(truth), "matched": 0, "kind": kind}
        calls = [["segment", "--input", str(record), "--length", str(CYCLE_LEN),
                  "--class", inputs.CLASS, "--out-dir", str(out_dir)]]

        def check(results):
            rows = _csv_rows(results[0][1], "index,start,end,file")
            peaks = [int(r[1]) for r in rows] + ([int(rows[-1][2])] if rows else [])
            info["matched"] = sum(
                any(abs(p - t) <= PEAK_TOL_SAMPLES for p in peaks) for t in truth)
            problems = []
            if len(peaks) != len(truth):
                problems.append(f"{DETECTION}{len(peaks)} peaks, want {len(truth)}")
            else:
                worst = max(abs(p - t) for p, t in zip(peaks, truth))
                if worst > PEAK_TOL_SAMPLES:
                    problems.append(f"{DETECTION}peak off by {worst} samples "
                                    f"> {PEAK_TOL_SAMPLES}")
            if len(rows) != len(truth) - 1:
                problems.append(f"{DETECTION}{len(rows)} cycles, want {len(truth) - 1}")
            for index, start, end, path in rows:
                data = _load_csv(path)
                if data.shape != (CYCLE_LEN, 13):
                    problems.append(f"cycle {index}: shape {data.shape}")
                    continue
                problems += _identity_problem(f"cycle {index}", data[:, 1:].T)
                # each cycle is the record slice [start, end) linearly
                # resampled onto CYCLE_LEN points
                span = int(end) - int(start)
                grid = np.linspace(0.0, span - 1.0, CYCLE_LEN)
                want = np.vstack([np.interp(grid, np.arange(span), row)
                                  for row in channels[:, int(start):int(end)]])
                off = float(np.max(np.abs(data[:, 1:].T - want)))
                if off > VALUE_TOL:
                    problems.append(f"cycle {index}: differs from the record by {off:.2e}")
            return problems

        return Job(ops=[Op(calls=calls, beats=self.record_beats, check=check)],
                   info=info)


WORKLOADS = {w.name: w for w in (SynthScore, FitRefine, Ingest)}
