"""Parameter fitting, distribution estimation, waveform refinement."""

import math

import numpy as np
import pytest

import naive_reference as oracle
from helpers import MIXED_RHYTHMS, with_rhythms
from ecgdyn import fidelity, fitting
from ecgdyn.errors import ConfigurationError, FitDiverged, InsufficientDataError
from ecgdyn.fidelity import (LeadSignal, LossWeights, euler_loss_combined,
                             reference_trajectory, sim_distance)
from ecgdyn.fitting import (OptimConfig, estimate_distribution, fit_params,
                            refine_waveform)
from ecgdyn.integrate import SamplingGrid, beat_grid, integrate_euler
from ecgdyn.leads import (FREE_LEADS, Heartbeat, assemble_leads, check_lead_consistency,
                          synthesize_heartbeat)
from ecgdyn.model import (B_FLOOR, DEFAULT_ETA, DEFAULT_RHYTHM, RhythmParams,
                          eta_to_vector, vector_to_eta, wrap_angle)
from ecgdyn.params import (ParamDistribution, default_distributions,
                           sample_eta, zero_variance)
from ecgdyn.fidelity import draw_param_samples

GRID = beat_grid(500, 1.0)


@pytest.fixture(scope="module")
def ref():
    return reference_trajectory(DEFAULT_RHYTHM, GRID)


def _assert_recovered(res, v_true, length):
    """Criterion 7's gates: centers within 0.02 rad, amplitudes and widths
    within 2 %, distance at most 1e-6 per sample."""
    v_fit = eta_to_vector(res.eta)
    assert res.final_distance <= 1e-6 * length
    for i in range(5):
        assert abs(wrap_angle(v_fit[3 * i] - v_true[3 * i])) <= 0.02
        for j in (3 * i + 1, 3 * i + 2):
            assert abs(v_fit[j] - v_true[j]) <= 0.02 * abs(v_true[j])


def _basin_cases():
    """(true vector, start vector, fs) pairs around the default beat."""
    v = eta_to_vector(DEFAULT_ETA)
    cases = []
    for s in (0.7, 1.3):
        v0 = v.copy()
        v0[1::3] *= s
        v0[2::3] *= s
        cases.append(pytest.param(v, v0, 500, id=f"ab-x{s}"))
    rng = np.random.default_rng(0)
    for k in range(20):
        v0 = v.copy()
        v0[1::3] *= 1.0 + rng.uniform(-0.3, 0.3, 5)
        v0[2::3] *= 1.0 + rng.uniform(-0.3, 0.3, 5)
        v0[0::3] += rng.uniform(-0.1, 0.1, 5)
        cases.append(pytest.param(v, v0, 500, id=f"draw{k}"))
    # a width of 3*B_FLOOR is a quarter of the 500 Hz phase step, where the
    # samples no longer pin it down; at 2000 Hz the step equals the width
    narrow = v.copy()
    narrow[2::3] = 3.0 * B_FLOOR
    for s in (0.7, 1.3):
        v0 = narrow.copy()
        v0[1::3] *= s
        v0[2::3] *= s
        cases.append(pytest.param(narrow, v0, 2000, id=f"narrow-x{s}"))
    seam_t = v.copy()
    seam_t[12] = math.pi - 0.05
    v0 = seam_t.copy()
    v0[12] = wrap_angle(seam_t[12] + 0.1)  # starts at -pi + 0.05
    cases.append(pytest.param(seam_t, v0, 500, id="T-seam"))
    seam_p = v.copy()
    seam_p[0] = -math.pi + 0.05
    v0 = seam_p.copy()
    v0[0] = wrap_angle(seam_p[0] - 0.1)  # starts at pi - 0.05
    cases.append(pytest.param(seam_p, v0, 500, id="P-seam"))
    return cases


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
        assert res.iterations <= 20
        assert res.final_distance <= 1e-6 * GRID.L
        for i in range(5):
            assert abs(v_fit[3 * i] - v_true[3 * i]) <= 0.02
            assert abs(v_fit[3 * i + 1] - v_true[3 * i + 1]) <= 0.02 * abs(v_true[3 * i + 1])
            assert abs(v_fit[3 * i + 2] - v_true[3 * i + 2]) <= 0.02 * abs(v_true[3 * i + 2])

    def test_stall_returns_last_iterate(self, ref):
        # with tol out of reach, a noisy beat leaves only when no damped
        # step lowers the loss, lambda past _LM_LAMBDA_MAX
        traj = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, GRID)
        h = LeadSignal(GRID, traj.z + 1e-3 * np.random.default_rng(0).standard_normal(GRID.L))
        cfg = OptimConfig(max_iter=200, tol=1e-300)
        res = fit_params(h, DEFAULT_ETA, DEFAULT_RHYTHM, ref, cfg)
        assert res.iterations < cfg.max_iter
        assert res.final_distance == sim_distance(h, res.eta, DEFAULT_RHYTHM, ref)
        assert res.converged is True

    @pytest.mark.parametrize("v_true, v0, fs", _basin_cases())
    def test_converges_from_basin(self, v_true, v0, fs):
        grid = beat_grid(fs, 1.0)
        traj = integrate_euler(vector_to_eta(v_true), DEFAULT_RHYTHM, grid)
        res = fit_params(LeadSignal(grid, traj.z), vector_to_eta(v0),
                         DEFAULT_RHYTHM, reference_trajectory(DEFAULT_RHYTHM, grid),
                         OptimConfig(max_iter=50))
        assert res.converged
        _assert_recovered(res, v_true, grid.L)

    def test_recovers_sampled_class_beat(self):
        # lead II of perfbench's fit_refine seed 2 job 5, which first-order
        # descent from the class mean left at distance 0.83 after 2000
        # iterations
        dist = default_distributions()[("NORMAL", "II")]
        eta, _ = sample_eta(dist, (2, 5, 1, 1))
        grid = beat_grid(500, dist.rhythm.f)
        traj = integrate_euler(eta, dist.rhythm, grid)
        res = fit_params(LeadSignal(grid, traj.z), dist.mean_eta, dist.rhythm,
                         reference_trajectory(dist.rhythm, grid),
                         OptimConfig(max_iter=2000))
        assert res.converged
        _assert_recovered(res, eta_to_vector(eta), grid.L)

    def test_one_wave_evaluation_per_trial(self, ref, monkeypatch):
        # every residual the fit forms takes W and its Jacobian from one
        # _wave_terms call, and W is never evaluated on its own
        calls, residuals = [], []
        wave_terms, residual = fidelity._wave_terms, fidelity._residuals

        def counted_terms(phase, eta, jac=False):
            calls.append(jac)
            return wave_terms(phase, eta, jac)

        def counted_residuals(*args):
            residuals.append(1)
            return residual(*args)

        monkeypatch.setattr(fidelity, "_wave_terms", counted_terms)
        monkeypatch.setattr(fidelity, "_residuals", counted_residuals)
        monkeypatch.setattr(fidelity, "wave_rate_sum", None)
        traj = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, GRID)
        res = fit_params(LeadSignal(GRID, traj.z),
                         vector_to_eta(eta_to_vector(DEFAULT_ETA) * 1.05),
                         DEFAULT_RHYTHM, ref)
        assert res.converged and res.iterations >= 1
        assert all(calls) and len(calls) == len(residuals)
        assert len(calls) >= res.iterations + 1

    def test_grid_mismatch_rejected(self, ref):
        other = beat_grid(400, 1.0)
        with pytest.raises(ValueError, match="does not match"):
            fit_params(LeadSignal(other, np.zeros(other.L)), DEFAULT_ETA,
                       DEFAULT_RHYTHM, ref)

    def test_noise_fit_reduces_distance(self, ref):
        rng = np.random.default_rng(50)
        h = LeadSignal(GRID, 0.1 * rng.standard_normal(GRID.L))
        start = sim_distance(h, DEFAULT_ETA, DEFAULT_RHYTHM, ref)
        res = fit_params(h, DEFAULT_ETA, DEFAULT_RHYTHM, ref,
                         OptimConfig(max_iter=300))
        assert res.final_distance < start
        assert res.final_distance == pytest.approx(
            sim_distance(h, res.eta, DEFAULT_RHYTHM, ref), rel=1e-12)

    def test_noise_fit_terminates_at_damping_floor(self, ref, monkeypatch):
        # a subnormal starting lambda stands in for a long run of accepted
        # steps; were lambda let underflow to 0, the first rejected trial
        # would repeat forever. Each accept shrinks lambda tenfold and each
        # reject grows it tenfold until it passes the stall bound, so
        # rejects exceed accepts by at most the decades in between.
        monkeypatch.setattr(fitting, "_LM_LAMBDA0", 5e-324)
        cfg = OptimConfig(max_iter=2000)
        budget = 1 + 2 * cfg.max_iter + 2 + math.ceil(
            math.log10(fitting._LM_LAMBDA_MAX) - math.log10(fitting._LM_LAMBDA0))
        calls = []
        wave_terms = fidelity._wave_terms

        def counted_terms(phase, eta, jac=False):
            calls.append(1)
            assert len(calls) <= budget, "damping loop did not terminate"
            return wave_terms(phase, eta, jac)

        monkeypatch.setattr(fidelity, "_wave_terms", counted_terms)
        rng = np.random.default_rng(51)
        h = LeadSignal(GRID, 0.01 * rng.standard_normal(GRID.L))
        res = fit_params(h, DEFAULT_ETA, DEFAULT_RHYTHM, ref, cfg)
        assert res.iterations <= cfg.max_iter
        assert math.isfinite(res.final_distance)

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

    def test_non_finite_trial_raises(self, ref, monkeypatch):
        # every residual after the starting one is NaN: the first trial
        # fails, where a rejected trial would only grow the damping
        calls, residual = [], fitting._lead_residual

        def poisoned(*args, **kwargs):
            r, jac = residual(*args, **kwargs)
            calls.append(1)
            return (r if len(calls) == 1 else np.full_like(r, np.nan)), jac

        monkeypatch.setattr(fitting, "_lead_residual", poisoned)
        h = LeadSignal(GRID, 0.01 * np.random.default_rng(52).standard_normal(GRID.L))
        with pytest.raises(FitDiverged, match="non-finite loss at iteration 1"):
            fit_params(h, DEFAULT_ETA, DEFAULT_RHYTHM, ref)
        assert len(calls) == 2

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

    def test_own_rate_without_rhythm(self):
        # with no rhythm given, each beat is fit at one revolution per beat
        # of its own grid, here 1.25 Hz, with the default wander
        grid = beat_grid(500, 1.25)
        own = RhythmParams(f=grid.fs / grid.L, A=DEFAULT_RHYTHM.A,
                           f2=DEFAULT_RHYTHM.f2)
        v = eta_to_vector(DEFAULT_ETA)
        draws = [v * s for s in (0.98, 1.0, 1.02)]
        beats = [LeadSignal(grid, integrate_euler(vector_to_eta(d), own, grid).z)
                 for d in draws]
        results = []
        dist = estimate_distribution(beats, "NORMAL", "II", eta0=DEFAULT_ETA,
                                     results=results)
        assert dist.rhythm == own != DEFAULT_RHYTHM
        assert all(r.converged and r.final_distance <= 1e-6 * grid.L
                   for r in results)
        assert np.allclose(dist.mean, np.mean(draws, axis=0), rtol=1e-3, atol=1e-3)

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
        out = refine_waveform(beat, table, LossWeights(1.0), seed=4)
        assert out is beat

    def test_noise_refinement_improves_and_stays_consistent(self):
        table = default_distributions()
        beat0 = _noise_beat()
        hist = []
        out = refine_waveform(beat0, table, LossWeights(0.6), seed=11, history=hist)
        assert all(b <= a for a, b in zip(hist, hist[1:]))
        assert hist[-1] < 0.05 * hist[0]
        assert check_lead_consistency(out, tol=1e-9).passed
        before = euler_loss_combined(beat0, table, LossWeights(0.6), seed=11)
        after = euler_loss_combined(out, table, LossWeights(0.6), seed=11)
        assert after < 0.05 * before

    def test_delta_extremes_monotone_but_different(self):
        table = default_distributions()
        beat0 = _noise_beat(seed=6)
        h0, h1 = [], []
        out0 = refine_waveform(beat0, table, LossWeights(0.0), seed=2, history=h0)
        out1 = refine_waveform(beat0, table, LossWeights(1.0), seed=2, history=h1)
        assert all(b <= a for a, b in zip(h0, h0[1:]))
        assert all(b <= a for a, b in zip(h1, h1[1:]))
        assert not np.array_equal(out0.leads, out1.leads)

    def test_seeded_determinism(self):
        table = default_distributions()
        beat0 = _noise_beat(seed=12)
        a = refine_waveform(beat0, table, LossWeights(0.6), seed=5)
        b = refine_waveform(beat0, table, LossWeights(0.6), seed=5)
        assert np.array_equal(a.leads, b.leads)

    @pytest.mark.parametrize("delta", [0.0, 0.6, 1.0])
    def test_solution_is_stationary(self, delta):
        # the loss is quadratic in the free rows, so central differences are
        # exact directional derivatives up to rounding; at the minimum they
        # vanish along every direction. Refine's loss is the score of the
        # free rows' assembled leads, bit for bit
        beat = _noise_beat(seed=21)
        table, weights = default_distributions(), LossWeights(delta)
        out = refine_waveform(beat, table, weights, n_samples=2, seed=3)
        u0, u = (np.vstack([b.lead(lead) for lead in FREE_LEADS])
                 for b in (beat, out))
        rng = np.random.default_rng(22)
        directions = [rng.standard_normal(u.shape) for _ in range(4)]
        for j, k in ((0, 0), (1, 250), (0, GRID.L - 1), (5, 17), (7, 499)):
            unit = np.zeros(u.shape)
            unit[j, k] = 1.0
            directions.append(unit)
        h = 1e-4

        def loss(x):
            return euler_loss_combined(
                Heartbeat(grid=GRID, leads=assemble_leads(x), label="NORMAL"),
                table, weights, n_samples=2, seed=3)

        def slopes(x):
            return np.array([(loss(x + h * v) - loss(x - h * v)) / (2.0 * h)
                             for v in directions])

        assert np.max(np.abs(slopes(u))) <= 1e-9 * np.max(np.abs(slopes(u0)))

    @pytest.mark.parametrize("delta, chains", [(0.0, 0), (0.6, 6), (1.0, 8)])
    def test_chains_only_leads_the_pair_solve_keeps(self, delta, chains,
                                                    monkeypatch):
        # where the limb identities couple I and II, the pair solve sets
        # both rows, so chaining them first is wasted
        calls, chain = [], fitting._nearest_chain

        def counting(*args):
            calls.append(1)
            return chain(*args)

        args = (_noise_beat(seed=21), default_distributions(), LossWeights(delta))
        want = refine_waveform(*args, n_samples=2, seed=3)
        monkeypatch.setattr(fitting, "_nearest_chain", counting)
        got = refine_waveform(*args, n_samples=2, seed=3)
        assert np.array_equal(got.leads, want.leads)
        assert len(calls) == chains

    @pytest.mark.parametrize("delta", [0.0, 0.6, 1.0])
    def test_matches_dense_least_squares(self, delta):
        # the normal equations square the conditioning of the difference
        # quotient, so the O(L) solve agrees with the dense minimum-norm
        # solution to about 1e-9 relative, not to machine precision
        grid = SamplingGrid(500.0, 60)
        rng = np.random.default_rng(31)
        beat = Heartbeat(grid=grid, leads=rng.uniform(-0.1, 0.1, (12, grid.L)),
                         label="NORMAL")
        table = default_distributions()
        out = refine_waveform(beat, table, LossWeights(delta), seed=3,
                              n_samples=2)
        u0 = np.vstack([beat.lead(lead) for lead in FREE_LEADS])
        terms = oracle.refine_terms(
            [table["NORMAL", lead] for lead in oracle.LEADS], grid.fs, grid.L,
            2, 3, delta)
        dense = oracle.refine_lstsq(terms, u0, grid.dt)
        got = np.vstack([out.lead(lead) for lead in FREE_LEADS])
        assert np.max(np.abs(got - dense)) <= 1e-7 * np.max(np.abs(dense))

    def test_minimum_change_where_not_unique(self):
        # at delta = 1 every free lead is scored by its own dynamics alone,
        # which leave h + s*(1 - dt)**l free; the solve moves each lead
        # orthogonally to that null vector
        beat0 = _noise_beat(seed=25)
        out = refine_waveform(beat0, default_distributions(), LossWeights(1.0),
                              seed=6)
        n = (1.0 - GRID.dt) ** np.arange(GRID.L)
        for lead in FREE_LEADS:
            change = out.lead(lead) - beat0.lead(lead)
            assert abs(change @ n) <= 1e-12 * np.linalg.norm(change) * np.linalg.norm(n)

    def test_unscored_precordials_unchanged(self):
        # at delta = 0 only the limb identities carry weight
        beat0 = _noise_beat(seed=26)
        out = refine_waveform(beat0, default_distributions(), LossWeights(0.0),
                              seed=6)
        assert not np.array_equal(out.lead("I"), beat0.lead("I"))
        for lead in FREE_LEADS[2:]:
            assert np.array_equal(out.lead(lead), beat0.lead(lead))

    @pytest.mark.parametrize("delta", [0.0, 0.6, 1.0])
    def test_loss_matches_combined_score(self, delta):
        # refine and score read one Monte-Carlo term set through one
        # completed square, so on beats that satisfy the limb identities,
        # the input and the refined output, refine's history is their score
        # bit for bit; refine's own block holds the free leads alone, so
        # the identities' targets III, aVR, aVL and aVF are rows its shared
        # pass adds, on the leads' own rhythms or on mixed ones, and with
        # draws that vary or that all equal the mean
        shipped = default_distributions()
        for table in (shipped, with_rhythms(shipped, MIXED_RHYTHMS),
                      zero_variance(shipped)):
            for seed in range(23, 38):
                u = np.vstack([_noise_beat(seed=seed + 100).lead(lead)
                               for lead in FREE_LEADS])
                beat = Heartbeat(grid=GRID, leads=assemble_leads(u), label="NORMAL")
                history = []
                out = refine_waveform(beat, table, LossWeights(delta), n_samples=3,
                                      seed=4, history=history)
                assert history == [
                    euler_loss_combined(b, table, LossWeights(delta), n_samples=3,
                                        seed=4) for b in (beat, out)]

    def test_unlabeled_beat_rejected(self):
        beat = Heartbeat(grid=GRID, leads=_noise_beat().leads)
        with pytest.raises(ConfigurationError, match="no class label"):
            refine_waveform(beat, default_distributions())

    def test_label_preserved(self):
        table = default_distributions()
        out = refine_waveform(_noise_beat(seed=13), table, LossWeights(0.6), seed=1)
        assert out.label == "NORMAL"


class TestOptimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimConfig(max_iter=0)
        with pytest.raises(ValueError):
            OptimConfig(tol=0.0)
