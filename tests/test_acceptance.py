"""Acceptance suite: ten property-based criteria, one test each.

Every test prints one ``ACCEPTANCE n (<name>): PASS|FAIL`` line with the
measured quantities and enforces its runtime budget. Run with

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np

from helpers import make_jittered_record
from ecgdyn.cli import run_cli
from ecgdyn.fidelity import (LeadSignal, LossWeights, euler_loss_combined,
                             grad_sim_distance_wrt_eta, grad_sim_distance_wrt_h,
                             reference_trajectory, sim_distance)
from ecgdyn.fitting import OptimConfig, fit_params, refine_waveform
from ecgdyn.integrate import SamplingGrid, State, beat_grid, integrate_euler, integrate_rk4
from ecgdyn.leads import (FREE_LEADS, Heartbeat, LEAD_NAMES,
                          check_lead_consistency, synthesize_heartbeat)
from ecgdyn.model import (DEFAULT_ETA, DEFAULT_RHYTHM, eta_to_vector,
                          vector_to_eta)
from ecgdyn.params import (default_distributions, write_param_file,
                           zero_variance)
from ecgdyn.segmentation import detect_r_peaks, segment_record

GRID = beat_grid(500, 1.0)


def _report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} [{detail}; "
          f"runtime {elapsed:.2f}s < {budget:.0f}s]")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def _random_valid_eta(rng):
    v = eta_to_vector(DEFAULT_ETA).copy()
    for i in range(5):
        v[3 * i] += rng.uniform(-0.05, 0.05)
        v[3 * i + 1] *= 1.0 + rng.uniform(-0.15, 0.15)
        v[3 * i + 2] *= 1.0 + rng.uniform(-0.15, 0.15)
    return vector_to_eta(v)


def test_criterion_1_euler_self_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        eta = _random_valid_eta(rng)
        traj = integrate_euler(eta, DEFAULT_RHYTHM, GRID)
        d = sim_distance(LeadSignal(GRID, traj.z), eta, traj)
        worst = max(worst, d)
    elapsed = time.perf_counter() - start
    _report(1, "euler self-consistency", worst <= 1e-12,
            f"worst distance {worst:.2e} <= 1e-12", elapsed, 1.0)


def test_criterion_2_constant_shift_law():
    start = time.perf_counter()
    traj = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, GRID)
    worst = 0.0
    for c in (0.01, 0.1, 1.0):
        d = sim_distance(LeadSignal(GRID, traj.z + c), DEFAULT_ETA, traj)
        expected = (GRID.L - 1) * c * c
        worst = max(worst, abs(d - expected) / expected)
    elapsed = time.perf_counter() - start
    _report(2, "constant-shift law", worst <= 1e-9,
            f"worst relative deviation {worst:.2e} <= 1e-9", elapsed, 1.0)


def test_criterion_3_gradient_checks():
    # relative error is measured against the finite-difference gradient's
    # max magnitude, the standard scale for vector gradient checks
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    ref = reference_trajectory(DEFAULT_RHYTHM, GRID)
    base = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, GRID).z
    eps = 1e-6
    worst_h = 0.0
    worst_eta = 0.0
    for _ in range(100):
        h = LeadSignal(GRID, base + 0.05 * rng.standard_normal(GRID.L))
        v = eta_to_vector(DEFAULT_ETA) * (1.0 + 0.02 * rng.standard_normal(15))
        eta = vector_to_eta(v)

        ga = grad_sim_distance_wrt_h(h, eta, ref)
        idx = rng.choice(GRID.L, 10, replace=False)
        fd = np.empty(idx.size)
        for j, k in enumerate(idx):
            hp, hm = h.samples.copy(), h.samples.copy()
            hp[k] += eps
            hm[k] -= eps
            fd[j] = (sim_distance(LeadSignal(GRID, hp), eta, ref)
                     - sim_distance(LeadSignal(GRID, hm), eta, ref)) / (2 * eps)
        worst_h = max(worst_h, np.max(np.abs(ga[idx] - fd)) / np.max(np.abs(fd)))

        ga = grad_sim_distance_wrt_eta(h, eta, ref)
        fd = np.empty(15)
        for j in range(15):
            vp, vm = v.copy(), v.copy()
            vp[j] += eps
            vm[j] -= eps
            fd[j] = (sim_distance(h, vector_to_eta(vp), ref)
                     - sim_distance(h, vector_to_eta(vm), ref)) / (2 * eps)
        worst_eta = max(worst_eta, np.max(np.abs(ga - fd)) / np.max(np.abs(fd)))
    elapsed = time.perf_counter() - start
    ok = worst_h <= 1e-5 and worst_eta <= 1e-5
    _report(3, "gradient checks", ok,
            f"waveform {worst_h:.2e}, parameters {worst_eta:.2e}, both <= 1e-5",
            elapsed, 10.0)


def test_criterion_4_einthoven_identities():
    start = time.perf_counter()
    table = default_distributions()
    params = {lead: table[("NORMAL", lead)].mean_eta for lead in FREE_LEADS}
    gains = {lead: table[("NORMAL", lead)].gain_mean for lead in FREE_LEADS}
    beat = synthesize_heartbeat(params, DEFAULT_RHYTHM, GRID, gains=gains)
    derived_ok = check_lead_consistency(beat, tol=1e-9).passed

    rows = []
    for lead in LEAD_NAMES:
        dist = table[("NORMAL", lead)]
        rows.append(dist.gain_mean * integrate_euler(dist.mean_eta,
                                                     dist.rhythm, GRID).z)
    naive = Heartbeat(grid=GRID, leads=np.vstack(rows))
    naive_fails = not check_lead_consistency(naive, tol=1e-3).passed
    elapsed = time.perf_counter() - start
    _report(4, "einthoven identities", derived_ok and naive_fails,
            f"derived beat passes at 1e-9: {derived_ok}; "
            f"independent 12-lead integration fails at 1e-3: {naive_fails}",
            elapsed, 1.0)


def test_criterion_5_limit_cycle_attraction():
    start = time.perf_counter()
    grid = SamplingGrid(fs=5000.0, L=50001)  # ten seconds
    worst = 0.0
    for r0 in (0.5, 1.5):
        traj = integrate_rk4(DEFAULT_ETA, DEFAULT_RHYTHM, grid,
                             State(-r0, 0.0, 0.0))
        r_end = float(np.hypot(traj.x[-1], traj.y[-1]))
        worst = max(worst, abs(r_end - 1.0))
    elapsed = time.perf_counter() - start
    _report(5, "limit-cycle attraction", worst < 1e-3,
            f"worst |r(10s) - 1| = {worst:.2e} < 1e-3", elapsed, 5.0)


def test_criterion_6_integrator_orders():
    start = time.perf_counter()
    ref = integrate_rk4(DEFAULT_ETA, DEFAULT_RHYTHM, SamplingGrid(8000.0, 8001))

    def err(integrator, fs):
        traj = integrator(DEFAULT_ETA, DEFAULT_RHYTHM, SamplingGrid(float(fs), fs + 1))
        return float(np.max(np.abs(traj.z - ref.z[::8000 // fs])))

    euler_ratios = []
    rk4_ratios = []
    for fs in (500, 1000, 2000):
        euler_ratios.append(err(integrate_euler, fs) / err(integrate_euler, 2 * fs))
        rk4_ratios.append(err(integrate_rk4, fs) / err(integrate_rk4, 2 * fs))
    euler_ok = all(1.7 <= r <= 2.3 for r in euler_ratios)
    rk4_ok = all(r >= 12.0 for r in rk4_ratios)
    elapsed = time.perf_counter() - start
    _report(6, "integrator orders", euler_ok and rk4_ok,
            "euler ratios " + "/".join(f"{r:.2f}" for r in euler_ratios)
            + " in [1.7, 2.3]; rk4 ratios "
            + "/".join(f"{r:.1f}" for r in rk4_ratios) + " >= 12",
            elapsed, 10.0)


def test_criterion_7_parameter_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    cfg = OptimConfig(max_iter=2000, tol=1e-14)
    worst_rel = 0.0
    worst_theta = 0.0
    worst_dist = 0.0
    for _ in range(10):
        eta_true = _random_valid_eta(rng)
        v_true = eta_to_vector(eta_true)
        traj = integrate_euler(eta_true, DEFAULT_RHYTHM, GRID)
        h = LeadSignal(GRID, traj.z)
        res = fit_params(h, vector_to_eta(v_true * 1.05), traj, cfg)
        v_fit = eta_to_vector(res.eta)
        for i in range(5):
            worst_theta = max(worst_theta, abs(v_fit[3 * i] - v_true[3 * i]))
            for j in (1, 2):
                worst_rel = max(worst_rel,
                                abs(v_fit[3 * i + j] - v_true[3 * i + j])
                                / abs(v_true[3 * i + j]))
        worst_dist = max(worst_dist, res.final_distance)
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 0.02 and worst_theta <= 0.02 and worst_dist <= 1e-6 * GRID.L
    _report(7, "parameter recovery", ok,
            f"amplitude/width error {worst_rel:.4f} <= 0.02, "
            f"center error {worst_theta:.4f} <= 0.02 rad, "
            f"distance {worst_dist:.2e} <= {1e-6 * GRID.L:.0e}",
            elapsed, 60.0)


def test_criterion_8_refinement_efficacy():
    start = time.perf_counter()
    table = default_distributions()
    rng = np.random.default_rng(108)
    beat0 = Heartbeat(grid=GRID, leads=rng.uniform(-0.1, 0.1, (12, GRID.L)),
                      label="NORMAL")
    weights = LossWeights(delta=0.6)
    initial = euler_loss_combined(beat0, table, weights, n_samples=8, seed=42)
    refined = refine_waveform(beat0, table, weights, seed=42)
    final = euler_loss_combined(refined, table, weights, n_samples=8, seed=42)
    ratio = final / initial

    # one dominant peak per beat: the refined lead II, detrended to remove
    # the baseline-wander ramp and tiled five times, must yield exactly one
    # detection per copy at a common phase
    lead2 = refined.lead("II")
    n = lead2.size
    trend = lead2[0] + (lead2[-1] - lead2[0]) * np.arange(n) / (n - 1)
    tiled = np.tile(lead2 - trend, 5)
    peaks = detect_r_peaks(tiled, GRID.fs)
    one_per_copy = len(peaks) == 5 and len(set(int(p) % n for p in peaks)) == 1

    elapsed = time.perf_counter() - start
    ok = ratio <= 0.01 and one_per_copy
    _report(8, "refinement efficacy", ok,
            f"loss {initial:.1f} -> {final:.2f} (ratio {ratio:.4f} <= 0.01); "
            f"peaks per 5 tiled copies: {len(peaks)} at one phase: {one_per_copy}",
            elapsed, 60.0)


def test_criterion_9_segmentation():
    start = time.perf_counter()
    record, truth = make_jittered_record(fs=500, n_beats=10,
                                         bpm_range=(60.0, 100.0), seed=109)
    peaks = detect_r_peaks(record.channels[1], record.fs)
    count_ok = len(peaks) == 10
    max_err = max(abs(int(p) - t) for p, t in zip(peaks, truth)) if count_ok else -1
    timing_ok = count_ok and max_err <= 10  # 20 ms at 500 Hz
    cycles = segment_record(record, 512)
    cycles_ok = len(cycles) == 9 and all(c.leads.shape == (12, 512) for c in cycles)
    elapsed = time.perf_counter() - start
    _report(9, "segmentation", count_ok and timing_ok and cycles_ok,
            f"10 peaks found: {count_ok}; worst timing error "
            f"{max_err * 2} ms <= 20 ms; 9 cycles of 512: {cycles_ok}",
            elapsed, 5.0)


def test_criterion_10_end_to_end_determinism(tmp_path, capsys):
    start = time.perf_counter()
    zero = tmp_path / "zero.params"
    zero.write_text(write_param_file(zero_variance(default_distributions())),
                    encoding="utf-8")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code = run_cli(["synthesize", "--params", str(zero), "--class",
                        "NORMAL", "--fs", "500", "--beats", "2", "--seed", "7",
                        "--out", str(out)])
        assert code == 0
    identical = a.read_bytes() == b.read_bytes()

    capsys.readouterr()
    code = run_cli(["score", "--input", str(a), "--params", str(zero),
                    "--delta", "1", "--seed", "3"])
    out_lines = capsys.readouterr().out.strip().splitlines()
    scores = [float(line.split(",")[1]) for line in out_lines[1:]]
    score_ok = code == 0 and all(s <= 1e-12 for s in scores)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(10, "end-to-end determinism", identical and score_ok,
                f"byte-identical files: {identical}; zero-variance scores "
                f"{max(scores):.2e} <= 1e-12", elapsed, 5.0)
