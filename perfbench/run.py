"""ecgdyn benchmark: seeded closed-loop CLI workloads with checked outputs.

    python3 perfbench/run.py --workload synth_score --seed 1 --seconds 20 --trace 0

One client in one process sends its next job only after the last one
finished. With ``--trace 0`` the run measures the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it runs a fixed set of jobs twice, traced
and untraced, and reports the per-layer metrics and the tracing overhead.
``--workload all`` runs every workload in turn. A human-readable report
goes to stderr; the last line of stdout is the JSON result. The program
is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 11

#: Interpreter code timed by setup_s: import the CLI, parse the shipped table.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import ecgdyn.cli
from ecgdyn.params import default_param_path, read_param_file
with open(default_param_path(), encoding="utf-8") as fh:
    read_param_file(fh.read())
print(time.perf_counter() - t0)
"""


def load_program() -> None:
    """Import ecgdyn from this checkout's src/, or exit nonzero."""
    if not (SRC / "ecgdyn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'ecgdyn'}")
    sys.path.insert(0, str(SRC))
    import ecgdyn

    if Path(ecgdyn.__file__).resolve().parent != (SRC / "ecgdyn").resolve():
        sys.exit(f"perfbench: imported ecgdyn from {ecgdyn.__file__}, not {SRC}")


def measure_setup() -> tuple[float, float]:
    """Median seconds a fresh interpreter takes to reach a parsed param
    table: as read, and scaled to the reference host's speed.

    One unrecorded warm-up run fills the bytecode cache first. Each run is
    scaled by the calibration readings just before and after it.
    """
    from workloads import REF_HOST_S, host_seconds

    code = SETUP_CODE.format(src=str(SRC))
    read, scaled = [], []
    host = host_seconds()
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        seconds = float(done.stdout.strip().splitlines()[-1])
        after = host_seconds()
        read.append(seconds)
        scaled.append(seconds * 2.0 * REF_HOST_S / (host + after))
        host = after
    return statistics.median(read[1:]), statistics.median(scaled[1:])


def machine_facts() -> dict:
    import numpy

    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def job_count(workload, seconds: float) -> int:
    """Jobs in a run's list: whole rounds filling ``seconds`` at the
    workload's nominal round time. A function of ``seconds`` alone, so a
    seed's list and everything counted over it repeat exactly."""
    return max(1, round(seconds / workload.nominal_round_s)) * workload.round_jobs


def run_timed(workload, seconds: float):
    """The run's fixed job list, in whole passes until at least a third of
    ``seconds`` is busy on the reference host's clock.

    At the seed commit one pass takes half to all of ``seconds`` on that
    clock; a program several times faster makes more passes of the same
    jobs, so its runs still measure a good share of ``seconds``. The clock
    is the scaled one so that the host's speed cannot change the number
    of passes: a seed attempts and fails the same operations every run.
    """
    from workloads import run_job

    outcomes, busy = [], 0.0
    while not outcomes or busy < seconds / 3.0:
        for j in range(job_count(workload, seconds)):
            # a job writes its inputs when it is made, so make it just
            # before it runs
            outcome = run_job(workload.job(j))
            outcomes.append(outcome)
            busy += outcome.ref_wall_s
    return outcomes


def run_traced(workload, seconds: float):
    """Each job of one fixed list run traced, then again untraced.

    The job count is a function of --seconds alone, so the per-layer
    counts of a seed repeat exactly from run to run. Pairing the two runs
    of a job keeps the overhead estimate clear of drift over the run.
    """
    from spans import Tracer
    from workloads import run_job

    tracer = Tracer()
    traced, plain = [], []
    for j in range(job_count(workload, seconds / 2.0)):
        tracer.install()
        try:
            traced.append(run_job(workload.job(j), tracer, j))
        finally:
            tracer.uninstall()
        plain.append(run_job(workload.job(j)))
    return tracer, traced, plain


def _p50_ms(outcomes, scaled: bool = True) -> float:
    return 1000.0 * statistics.median(
        o.ref_wall_s if scaled else o.wall_s for o in outcomes)


def end_to_end(outcomes, setup, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics; times scaled to the reference host's speed
    unless ``scaled`` is false."""
    wall = sum(o.ref_wall_s if scaled else o.wall_s for o in outcomes)
    cpu = sum(o.ref_cpu_s if scaled else o.cpu_s for o in outcomes)
    good_beats = sum(o.good_beats for o in outcomes)
    ops = sum(len(o.results) for o in outcomes)
    return {
        "setup_s": setup[1] if scaled else setup[0],
        "beats_per_s": good_beats / wall,
        "job_ms_p50": _p50_ms(outcomes, scaled),
        "cpu_ms_per_beat": 1000.0 * cpu / max(good_beats, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_pass_ratio": (ops - sum(o.failed_ops for o in outcomes)) / ops,
    }


def per_layer(tracer, traced, plain) -> dict[str, float]:
    out = tracer.metrics()
    matched = sum(o.info.get("matched", 0) for o in traced)
    truth = sum(o.info.get("true_beats", 0) for o in traced)
    out["segmentation.peak_match_ratio"] = matched / truth if truth else 0.0
    out["trace.jobs"] = len(traced)
    out["trace.overhead_ms"] = _p50_ms(traced) - _p50_ms(plain)
    return out


def run_workload(cls, seed: int, seconds: float, trace: bool, spec: dict):
    """Run one workload; returns (outcomes, metrics, report lines)."""
    work = OUT / f"work-{os.getpid()}-{cls.name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            workload = cls(seed, work)
            tracer, traced, plain = run_traced(workload, seconds)
            tracer.dump(OUT / f"trace_{cls.name}_seed{seed}.jsonl")
            outcomes = traced + plain
            raw = per_layer(tracer, traced, plain)
            as_read = {}
            names = spec["per_layer"]
        else:
            setup = measure_setup()
            workload = cls(seed, work)
            outcomes = run_timed(workload, seconds)
            raw = end_to_end(outcomes, setup)
            as_read = end_to_end(outcomes, setup, scaled=False)
            names = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {m["name"]: {"value": raw.get(m["name"], 0.0), "unit": m["unit"]}
               for m in names}
    lines = [f"[{cls.name}] {'traced' if trace else 'untraced'} run, seed {seed}, "
             f"{len(outcomes)} jobs (n = {len(outcomes)} latency samples)"]
    for m in names:
        read = as_read.get(m["name"])
        lines.append(f"  {m['name']:<48} {metrics[m['name']]['value']:>14.6g} "
                     f"{m['unit']:<8} {m['better']} is better"
                     + ("" if read is None else f"  (as read: {read:.6g})"))
    failed = [o for o in outcomes if not o.passed]
    ops = sum(len(o.results) for o in outcomes)
    failed_ops = sum(o.failed_ops for o in outcomes)
    lines.append(f"  error_rate {failed_ops}/{ops} operations = {failed_ops / ops:.4f}, "
                 f"{len(failed)}/{len(outcomes)} jobs = {len(failed) / len(outcomes):.4f} "
                 f"({sum(o.known_defect for o in failed)} jobs failed only through "
                 f"defects ROADMAP lists)")
    for o in failed[:5]:
        kind = f" ({o.info['kind']} record)" if "kind" in o.info else ""
        lines.append(f"    failed{kind}: {'; '.join(o.problems)[:200]}")
    return outcomes, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    load_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        chosen = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")

    OUT.mkdir(exist_ok=True)
    facts = machine_facts()
    print("machine: " + ", ".join(f"{k} {v}" for k, v in facts.items()), file=sys.stderr)
    outcomes, metrics = [], {}
    for cls in chosen:
        got, got_metrics, lines = run_workload(cls, args.seed, args.seconds,
                                               bool(args.trace), spec)
        print("\n".join(lines), file=sys.stderr)
        outcomes += got
        prefix = "" if len(chosen) == 1 else f"{cls.name}."
        metrics.update({prefix + k: v for k, v in got_metrics.items()})

    result = {
        # an operation failed only through a defect ROADMAP lists counts
        # in failed, not in correct
        "correct": all(o.passed or o.known_defect for o in outcomes),
        "attempted": sum(len(o.results) for o in outcomes),
        "failed": sum(o.failed_ops for o in outcomes),
        "metrics": metrics,
    }
    jobs = [{"wall_s": o.wall_s, "cpu_s": o.cpu_s, "ref_wall_s": o.ref_wall_s,
             "ref_cpu_s": o.ref_cpu_s, "ops": o.results}
            for o in outcomes]
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({"machine": facts, **result, "jobs": jobs}, indent=1),
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
