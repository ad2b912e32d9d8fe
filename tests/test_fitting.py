"""Parameter fitting, distribution estimation, waveform refinement."""

import numpy as np
import pytest

from ecgdyn.errors import FitDiverged, InsufficientDataError
from ecgdyn.fidelity import (LeadSignal, LossWeights, euler_loss_combined,
                             reference_trajectory, sim_distance)
from ecgdyn.fitting import (OptimConfig, _RefineProblem, estimate_distribution,
                            fit_params, refine_waveform)
from ecgdyn.integrate import beat_grid, integrate_euler
from ecgdyn.leads import FREE_LEADS, Heartbeat, check_lead_consistency, synthesize_heartbeat
from ecgdyn.model import (B_FLOOR, DEFAULT_ETA, DEFAULT_RHYTHM, eta_to_vector,
                          vector_to_eta)
from ecgdyn.params import (ParamDistribution, default_distributions,
                           sample_eta, zero_variance)
from ecgdyn.fidelity import draw_param_samples

GRID = beat_grid(500, 1.0)


@pytest.fixture(scope="module")
def ref():
    return reference_trajectory(DEFAULT_RHYTHM, GRID)


class TestFitParams:
    def test_start_at_optimum_exits_immediately(self, ref):
        traj = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, GRID)
        h = LeadSignal(GRID, traj.z)
        res = fit_params(h, DEFAULT_ETA, DEFAULT_RHYTHM, ref)
        assert res.iterations <= 1
        assert res.converged
        assert res.final_distance <= 1e-12

    def test_recovers_perturbed_parameters(self, ref):
        v_true = eta_to_vector(DEFAULT_ETA)
        traj = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, GRID)
        h = LeadSignal(GRID, traj.z)
        res = fit_params(h, vector_to_eta(v_true * 1.05), DEFAULT_RHYTHM, ref,
                         OptimConfig(max_iter=2000, tol=1e-14))
        v_fit = eta_to_vector(res.eta)
        assert res.final_distance <= 1e-6 * GRID.L
        for i in range(5):
            assert abs(v_fit[3 * i] - v_true[3 * i]) <= 0.02
            assert abs(v_fit[3 * i + 1] - v_true[3 * i + 1]) <= 0.02 * abs(v_true[3 * i + 1])
            assert abs(v_fit[3 * i + 2] - v_true[3 * i + 2]) <= 0.02 * abs(v_true[3 * i + 2])

    def test_noise_fit_reduces_distance(self, ref):
        rng = np.random.default_rng(50)
        h = LeadSignal(GRID, 0.1 * rng.standard_normal(GRID.L))
        start = sim_distance(h, DEFAULT_ETA, DEFAULT_RHYTHM, ref)
        res = fit_params(h, DEFAULT_ETA, DEFAULT_RHYTHM, ref,
                         OptimConfig(max_iter=300))
        assert res.final_distance < start
        assert res.final_distance == pytest.approx(
            sim_distance(h, res.eta, DEFAULT_RHYTHM, ref), rel=1e-12)

    def test_width_floor_projection(self, ref):
        v0 = eta_to_vector(DEFAULT_ETA)
        v0[2::3] = B_FLOOR  # start every width on the floor
        traj = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, GRID)
        h = LeadSignal(GRID, traj.z)
        res = fit_params(h, vector_to_eta(v0), DEFAULT_RHYTHM, ref,
                         OptimConfig(max_iter=50))
        assert all(w.b >= B_FLOOR for w in res.eta.waves)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_loss_raises(self, ref):
        h = LeadSignal(GRID, np.full(GRID.L, 1e160))
        with pytest.raises(FitDiverged):
            fit_params(h, DEFAULT_ETA, DEFAULT_RHYTHM, ref)

    def test_iterations_within_budget(self, ref):
        rng = np.random.default_rng(51)
        h = LeadSignal(GRID, 0.05 * rng.standard_normal(GRID.L))
        cfg = OptimConfig(max_iter=7)
        res = fit_params(h, DEFAULT_ETA, DEFAULT_RHYTHM, ref, cfg)
        assert res.iterations <= cfg.max_iter


class TestEstimateDistribution:
    def test_identical_beats_zero_spread(self, ref):
        traj = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, GRID)
        beats = [LeadSignal(GRID, traj.z.copy()) for _ in range(3)]
        dist = estimate_distribution(beats, "NORMAL", "II",
                                     rhythm=DEFAULT_RHYTHM)
        assert all(s == 0.0 for s in dist.std)
        single = fit_params(beats[0], DEFAULT_ETA, DEFAULT_RHYTHM, ref).eta
        assert np.allclose(dist.mean, eta_to_vector(single), rtol=0, atol=0)

    def test_recovers_generator_means(self):
        base = default_distributions()[("NORMAL", "II")]
        spread = ParamDistribution(
            class_code="NORMAL", lead="II", mean=base.mean,
            std=tuple(0.03 * abs(m) for m in base.mean),
            gain_mean=1.0, gain_std=0.0, rhythm=DEFAULT_RHYTHM)
        beats, draws = [], []
        for seed in range(12):
            eta, _ = sample_eta(spread, seed=(77, seed))
            draws.append(eta_to_vector(eta))
            traj = integrate_euler(eta, DEFAULT_RHYTHM, GRID)
            beats.append(LeadSignal(GRID, traj.z))
        est = estimate_distribution(beats, "NORMAL", "II", rhythm=DEFAULT_RHYTHM)
        draw_mean = np.vstack(draws).mean(axis=0)
        for got, empirical, true in zip(est.mean, draw_mean, base.mean):
            # the fitter recovers the actual draws almost exactly ...
            assert abs(got - empirical) <= 0.005 * max(abs(empirical), 0.1)
            # ... and with a dozen beats the estimate sits near the truth
            if true != 0.0:
                assert abs(got - true) <= 0.02 * abs(true) + 1e-9
            else:
                assert abs(got) <= 0.02

    def test_too_few_beats_rejected(self):
        with pytest.raises(InsufficientDataError):
            estimate_distribution([], "NORMAL", "II")
        traj = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, GRID)
        with pytest.raises(InsufficientDataError):
            estimate_distribution([LeadSignal(GRID, traj.z)], "NORMAL", "II")


def _noise_beat(seed=3):
    rng = np.random.default_rng(seed)
    return Heartbeat(grid=GRID, leads=rng.uniform(-0.1, 0.1, (12, GRID.L)),
                     label="NORMAL")


class TestRefineWaveform:
    def test_fixed_point_returns_input_unchanged(self):
        table = zero_variance(default_distributions())
        entry = draw_param_samples(table, "NORMAL", 1, 0)[0]
        beat = synthesize_heartbeat(
            {lead: entry[lead][0] for lead in FREE_LEADS}, DEFAULT_RHYTHM, GRID,
            gains={lead: entry[lead][1] for lead in FREE_LEADS}, label="NORMAL")
        out = refine_waveform(beat, table, LossWeights(1.0),
                              OptimConfig(max_iter=50), seed=4)
        assert out is beat

    def test_noise_refinement_improves_and_stays_consistent(self):
        table = default_distributions()
        beat0 = _noise_beat()
        hist = []
        out = refine_waveform(beat0, table, LossWeights(0.6),
                              OptimConfig(max_iter=200), seed=11, history=hist)
        assert all(b <= a for a, b in zip(hist, hist[1:]))
        assert hist[-1] < 0.05 * hist[0]
        assert check_lead_consistency(out, tol=1e-9).passed
        before = euler_loss_combined(beat0, table, LossWeights(0.6), seed=11)
        after = euler_loss_combined(out, table, LossWeights(0.6), seed=11)
        assert after < 0.05 * before

    def test_delta_extremes_monotone_but_different(self):
        table = default_distributions()
        beat0 = _noise_beat(seed=6)
        cfg = OptimConfig(max_iter=60)
        h0, h1 = [], []
        out0 = refine_waveform(beat0, table, LossWeights(0.0), cfg, seed=2,
                               history=h0)
        out1 = refine_waveform(beat0, table, LossWeights(1.0), cfg, seed=2,
                               history=h1)
        assert all(b <= a for a, b in zip(h0, h0[1:]))
        assert all(b <= a for a, b in zip(h1, h1[1:]))
        assert not np.array_equal(out0.leads, out1.leads)

    def test_seeded_determinism(self):
        table = default_distributions()
        beat0 = _noise_beat(seed=12)
        cfg = OptimConfig(max_iter=40)
        a = refine_waveform(beat0, table, LossWeights(0.6), cfg, seed=5)
        b = refine_waveform(beat0, table, LossWeights(0.6), cfg, seed=5)
        assert np.array_equal(a.leads, b.leads)

    @pytest.mark.parametrize("delta", [0.0, 0.6, 1.0])
    def test_gradient_matches_central_differences(self, delta):
        # the loss is quadratic in the free rows, so central differences
        # are exact up to rounding along any direction
        beat = _noise_beat(seed=21)
        problem = _RefineProblem(beat, default_distributions(),
                                 LossWeights(delta), n_samples=2, seed=3)
        u = np.vstack([beat.lead(lead) for lead in FREE_LEADS])
        g = problem.grad(u)
        rng = np.random.default_rng(22)
        directions = [rng.standard_normal(u.shape) for _ in range(4)]
        for j, k in ((0, 0), (1, 250), (0, GRID.L - 1), (5, 17)):
            unit = np.zeros(u.shape)
            unit[j, k] = 1.0
            directions.append(unit)
        h = 1e-4
        for v in directions:
            fd = (problem.loss(u + h * v) - problem.loss(u - h * v)) / (2.0 * h)
            assert float(np.sum(g * v)) == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_label_preserved(self):
        table = default_distributions()
        out = refine_waveform(_noise_beat(seed=13), table, LossWeights(0.6),
                              OptimConfig(max_iter=10), seed=1)
        assert out.label == "NORMAL"


class TestOptimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimConfig(max_iter=0)
        with pytest.raises(ValueError):
            OptimConfig(step=0.0)
        with pytest.raises(ValueError):
            OptimConfig(backtrack=1.0)
        with pytest.raises(ValueError):
            OptimConfig(tol=0.0)
