"""Smoke test of the benchmark itself; exits nonzero on any failure.

    python3 perfbench/smoke.py

Checks that every workload passes its checks at a tiny size, that self
times of a hand-built span tree add up to the root durations, and that a
corrupted output is counted as a failed operation, and only that one.
"""

from __future__ import annotations

import shutil
import sys

import run


def check_self_times(failures: list[str]) -> None:
    from spans import count_under, self_times

    # root 0..10 holds children 1..3 and 4..8; the second holds 5..6
    spans = [("root", 0.0, 10.0, None, 0), ("a", 1.0, 3.0, 0, 0),
             ("b", 4.0, 8.0, 0, 0), ("a", 5.0, 6.0, 2, 0),
             ("root", 20.0, 21.0, None, 1)]
    own = self_times(spans)
    if own != [4.0, 2.0, 3.0, 1.0, 1.0]:
        failures.append(f"self times {own}")
    if sum(own) != sum(end - start for _, start, end, parent, _ in spans
                       if parent is None):
        failures.append("self times do not sum to the root durations")
    if count_under(spans, "a", "b") != 1:
        failures.append("count_under miscounted")


def main() -> int:
    run.load_program()
    import workloads as w

    class TinySynth(w.SynthScore):
        beats_per_job = 2

    class TinyIngest(w.Ingest):
        record_beats = 8
        chain_beats = 10

    failures: list[str] = []
    check_self_times(failures)
    work = run.OUT / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cases = [(TinySynth, 0), (TinySynth, 3), (w.FitRefine, 0), (TinyIngest, 0)]
        for cls, j in cases:
            outcome = w.run_job(cls(7, work).job(j))
            if not outcome.passed:
                failures.append(f"{cls.name} job {j}: {outcome.problems}")

        # the tracer sees the CLI entry and calls made between modules
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            w.run_job(TinySynth(7, work).job(0), tracer, 0)
        finally:
            tracer.uninstall()
        got = tracer.metrics()
        want = {"cli.run_cli.calls": 3, "leads.synthesize_heartbeat.calls": 2,
                "integrate.integrate_euler.calls": 16, "fidelity.loss_components.calls": 2}
        for key, value in want.items():
            if got.get(key) != value:
                failures.append(f"traced {key} = {got.get(key)}, want {value}")
        if not got.get("model.wave_rate_sum.calls"):
            failures.append("traced no wave_rate_sum calls made from fidelity")

        # corrupt one output between the calls and the check
        def corrupted(job, damage):
            op = job.ops[0]
            check = op.check

            def damaged_check(results):
                return check(damage(results))

            op.check = damaged_check
            return w.run_job(job)

        def flip_first_cycle(results):
            path = results[0][1].splitlines()[1].split(",")[3]
            lines = open(path, encoding="utf-8").read().splitlines()
            flipped = [lines[0]] + [
                ",".join([c[0]] + [repr(-float(v)) for v in c[1:]])
                for c in (line.split(",") for line in lines[1:])]
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(flipped) + "\n")
            return results

        def perturb_last_score(results):
            code, out = results[2]
            head, last = out.rstrip("\n").rsplit("\n", 1)
            cells = last.split(",")
            cells[1] = repr(float(cells[1]) * (1.0 + 1e-6))
            return results[:2] + [(code, head + "\n" + ",".join(cells) + "\n")]

        def inflate_fit_distance(results):
            code, out = results[0]
            head, row = out.strip().split("\n")
            cells = row.split(",")
            cells[4] = repr(float(cells[4]) + 1.0)  # the printed distance
            return [(code, head + "\n" + ",".join(cells) + "\n")]

        for cls, damage in ((TinyIngest, flip_first_cycle),
                            (TinySynth, perturb_last_score),
                            (w.FitRefine, inflate_fit_distance)):
            outcome = corrupted(cls(7, work).job(0), damage)
            if outcome.failed_ops != 1:
                failures.append(f"{cls.name}: {damage.__name__} failed "
                                f"{outcome.failed_ops} of {len(outcome.results)} ops")
            else:
                print(f"{cls.name}: {damage.__name__} caught: {outcome.problems[0]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
