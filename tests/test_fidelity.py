"""Consistency distances, combined loss, analytic gradients."""

from dataclasses import replace

import numpy as np
import pytest

import naive_reference as oracle
from helpers import MIXED_RHYTHMS, with_rhythms
from ecgdyn import fidelity, integrate, model
from ecgdyn.errors import ConfigurationError
from ecgdyn.fidelity import (LeadSignal, LossWeights, euler_loss_combined,
                             grad_sim_distance_wrt_eta, grad_sim_distance_wrt_h,
                             loss_components, reference_trajectory, sim_distance,
                             sim_distance_interlead)
from ecgdyn.cli import read_beats_csv, run_cli, write_beats_csv
from ecgdyn.integrate import DEFAULT_INIT, beat_grid, integrate_euler
from ecgdyn.leads import (FREE_LEADS, LEAD_NAMES, Heartbeat, LeadRelation,
                          limb_relations, synthesize_heartbeat)
from ecgdyn.model import (B_FLOOR, DEFAULT_ETA, DEFAULT_RHYTHM, State,
                          eta_to_vector, vector_to_eta)
from ecgdyn.params import (default_distributions, sample_eta, write_param_file,
                           zero_variance)
from ecgdyn.fidelity import draw_param_samples
from ecgdyn.fitting import refine_waveform

GRID = beat_grid(500, 1.0)

# independent direct-summation value for an all-zero waveform under the
# default parameters (computed by tests/naive_reference.py, frozen here)
ZEROS_DISTANCE = 101.4489774971078


def count_calls(monkeypatch, module, name):
    """Replace module.name with a wrapper; returns the list of its calls."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _noise_beat(seed=21):
    rng = np.random.default_rng(seed)
    return Heartbeat(grid=GRID, leads=rng.uniform(-0.1, 0.1, (12, GRID.L)),
                     label="NORMAL")


@pytest.fixture(scope="module")
def ref():
    return integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, GRID)


@pytest.fixture(scope="module")
def zero_table():
    return zero_variance(default_distributions())


class TestSimDistance:
    def test_exact_euler_beat_scores_zero(self, ref):
        h = LeadSignal(GRID, ref.z)
        assert sim_distance(h, DEFAULT_ETA, DEFAULT_RHYTHM, ref) <= 1e-18

    def test_constant_shift_law(self, ref):
        L = GRID.L
        for c in (0.01, 0.1, 1.0):
            h = LeadSignal(GRID, ref.z + c)
            d = sim_distance(h, DEFAULT_ETA, DEFAULT_RHYTHM, ref)
            expected = (L - 1) * c * c
            assert abs(d - expected) <= 1e-9 * expected

    def test_zeros_matches_frozen_oracle_value(self, ref):
        h = LeadSignal(GRID, np.zeros(GRID.L))
        d = sim_distance(h, DEFAULT_ETA, DEFAULT_RHYTHM, ref)
        assert d == pytest.approx(ZEROS_DISTANCE, rel=1e-12)

    def test_random_waveform_matches_live_oracle(self, ref):
        rng = np.random.default_rng(8)
        h = rng.uniform(-0.2, 0.2, GRID.L)
        d = sim_distance(LeadSignal(GRID, h), DEFAULT_ETA, DEFAULT_RHYTHM, ref)
        expected = oracle.sim_distance(h.tolist(), ref.x.tolist(),
                                       ref.y.tolist(), 500)
        assert d == pytest.approx(expected, rel=1e-12)

    def test_nonnegative(self, ref):
        rng = np.random.default_rng(9)
        for _ in range(10):
            h = LeadSignal(GRID, rng.standard_normal(GRID.L))
            assert sim_distance(h, DEFAULT_ETA, DEFAULT_RHYTHM, ref) >= 0.0

    def test_lead_metadata_irrelevant(self, ref):
        rng = np.random.default_rng(10)
        samples = rng.standard_normal(GRID.L)
        a = sim_distance(LeadSignal(GRID, samples, lead="II"),
                         DEFAULT_ETA, DEFAULT_RHYTHM, ref)
        b = sim_distance(LeadSignal(GRID, samples, lead="V3"),
                         DEFAULT_ETA, DEFAULT_RHYTHM, ref)
        assert a == b

    def test_grid_mismatch_rejected(self, ref):
        other = beat_grid(250, 1.0)
        h = LeadSignal(other, np.zeros(other.L))
        with pytest.raises(ValueError, match="grid"):
            sim_distance(h, DEFAULT_ETA, DEFAULT_RHYTHM, ref)
        with pytest.raises(ValueError, match="length 250"):
            LeadSignal(other, np.zeros(GRID.L))
        with pytest.raises(ValueError, match="finite"):
            LeadSignal(other, np.full(other.L, np.inf))


class TestInterlead:
    def test_degenerate_relation_equals_single(self, ref):
        rng = np.random.default_rng(11)
        h = LeadSignal(GRID, rng.uniform(-0.1, 0.1, GRID.L), lead="I")
        rel = LeadRelation("I", "II", 1.0, "III", 0.0)
        d_pair = sim_distance_interlead(h, DEFAULT_ETA, DEFAULT_ETA, rel,
                                        DEFAULT_RHYTHM, ref)
        d_single = sim_distance(h, DEFAULT_ETA, DEFAULT_RHYTHM, ref)
        assert d_pair == d_single

    def test_affine_collapse(self, ref):
        rng = np.random.default_rng(12)
        h = LeadSignal(GRID, rng.uniform(-0.1, 0.1, GRID.L), lead="aVF")
        rel = LeadRelation("aVF", "II", 0.25, "III", 0.75)
        d_pair = sim_distance_interlead(h, DEFAULT_ETA, DEFAULT_ETA, rel,
                                        DEFAULT_RHYTHM, ref)
        d_single = sim_distance(h, DEFAULT_ETA, DEFAULT_RHYTHM, ref)
        assert d_pair == pytest.approx(d_single, rel=1e-12)

    def test_lead_mismatch_rejected(self, ref):
        h = LeadSignal(GRID, np.zeros(GRID.L), lead="V1")
        rel = limb_relations()[0]
        with pytest.raises(ValueError, match="target"):
            sim_distance_interlead(h, DEFAULT_ETA, DEFAULT_ETA, rel,
                                   DEFAULT_RHYTHM, ref)

    def test_synthesized_lead_iii_matches_pair_oracle(self, ref, zero_table):
        entry = draw_param_samples(zero_table, "NORMAL", 1, 0)[0]
        beat = synthesize_heartbeat(
            {lead: entry[lead][0] for lead in FREE_LEADS}, DEFAULT_RHYTHM, GRID,
            gains={lead: entry[lead][1] for lead in FREE_LEADS}, label="NORMAL")
        gain = zero_table[("NORMAL", "III")].gain_mean
        h = LeadSignal(GRID, beat.lead("III") / gain, lead="III")
        rel = next(r for r in limb_relations() if r.target == "III")
        eta1, eta2 = entry[rel.src1][0], entry[rel.src2][0]
        d = sim_distance_interlead(h, eta1, eta2, rel, DEFAULT_RHYTHM, ref)

        def as_tuple(eta):
            v = eta_to_vector(eta)
            return (tuple(v[0::3]), tuple(v[1::3]), tuple(v[2::3]))

        expected = oracle.sim_distance_pair(
            (beat.lead("III") / gain).tolist(), ref.x.tolist(), ref.y.tolist(),
            500, rel.beta, rel.gamma, as_tuple(eta1), as_tuple(eta2))
        assert d == pytest.approx(expected, rel=1e-9)


class TestCombinedLoss:
    def test_delta_endpoints(self, zero_table):
        beat = _noise_beat()
        l1, l2, _ = loss_components(beat, zero_table, n_samples=4, seed=5)
        assert euler_loss_combined(beat, zero_table, LossWeights(1.0),
                                   n_samples=4, seed=5) == l1
        assert euler_loss_combined(beat, zero_table, LossWeights(0.0),
                                   n_samples=4, seed=5) == l2

    def test_synthesized_beat_l1_vanishes(self, zero_table):
        entry = draw_param_samples(zero_table, "NORMAL", 1, 3)[0]
        beat = synthesize_heartbeat(
            {lead: entry[lead][0] for lead in FREE_LEADS}, DEFAULT_RHYTHM, GRID,
            gains={lead: entry[lead][1] for lead in FREE_LEADS}, label="NORMAL")
        l1, l2, per_lead = loss_components(beat, zero_table, n_samples=4, seed=7)
        assert l1 <= 1e-15
        for lead in FREE_LEADS:
            assert per_lead[lead] <= 1e-15
        combined = euler_loss_combined(beat, zero_table, LossWeights(0.6),
                                       n_samples=4, seed=7)
        assert combined == pytest.approx(0.4 * l2, rel=1e-12)
        assert l2 > 0.0

    # in "mixed" I, III and aVR have rhythms of their own, so a limb
    # identity must rate its sources on the target's rhythm, not their own
    @pytest.mark.parametrize("rhythms", [{}, MIXED_RHYTHMS],
                             ids=["shared", "mixed"])
    def test_l2_matches_pair_oracle(self, zero_table, rhythms):
        table = with_rhythms(zero_table, rhythms)
        entry = draw_param_samples(table, "NORMAL", 1, 3)[0]
        beat = synthesize_heartbeat(
            {lead: entry[lead][0] for lead in FREE_LEADS}, DEFAULT_RHYTHM, GRID,
            gains={lead: entry[lead][1] for lead in FREE_LEADS}, label="NORMAL")
        _, l2, _ = loss_components(beat, table, n_samples=2, seed=7)

        def as_tuple(eta):
            v = eta_to_vector(eta)
            return (tuple(v[0::3]), tuple(v[1::3]), tuple(v[2::3]))

        total = 0.0
        for rel in limb_relations():
            dist = table[("NORMAL", rel.target)]
            rhythm = dist.rhythm
            ref = integrate_euler(DEFAULT_ETA, rhythm, GRID)
            h = (beat.lead(rel.target) / dist.gain_mean).tolist()
            total += oracle.sim_distance_pair(
                h, ref.x.tolist(), ref.y.tolist(), 500, rel.beta, rel.gamma,
                as_tuple(entry[rel.src1][0]), as_tuple(entry[rel.src2][0]),
                wander=rhythm.A, f2=rhythm.f2)
        assert l2 == pytest.approx(total / 6.0, rel=1e-9)

    def test_each_drift_evaluated_once_per_draw(self, monkeypatch):
        # the shipped table shares one rhythm: one call evaluates the drift
        # of all 12 leads in every draw, which the limb identities reuse
        fidelity._build_mc_terms.cache_clear()
        calls = count_calls(monkeypatch, fidelity, "wave_rate_sum")
        loss_components(_noise_beat(), default_distributions(),
                        n_samples=3, seed=1)
        assert [np.shape(eta) for _, eta in calls] == [(3, 12, 15)]
        # the other beats of a file share its grid, table, draws and seed:
        # they reuse the first beat's terms
        for seed in (22, 23, 24):
            loss_components(_noise_beat(seed), default_distributions(),
                            n_samples=3, seed=1)
        assert len(calls) == 1
        # refinement reads the free leads' own terms and the identities,
        # whose sources are I, II and III: 9 leads per draw, once per file
        calls.clear()
        for seed in (21, 22, 23):
            refine_waveform(_noise_beat(seed), default_distributions(),
                            LossWeights(0.6), n_samples=3, seed=1)
        assert [np.shape(eta) for _, eta in calls] == [(3, 9, 15)]
        # in "mixed" four rhythms carry terms: those of I, III and aVR,
        # each with its lead and the two sources its identity rates on it,
        # and the shared one, with every other lead and the sources I, III
        calls.clear()
        loss_components(_noise_beat(),
                        with_rhythms(default_distributions(), MIXED_RHYTHMS),
                        n_samples=3, seed=1)
        assert [np.shape(eta) for _, eta in calls] == [
            (3, 3, 15), (3, 11, 15), (3, 3, 15), (3, 3, 15)]
        calls.clear()
        for seed in (22, 23):
            loss_components(_noise_beat(seed),
                            with_rhythms(default_distributions(), MIXED_RHYTHMS),
                            n_samples=3, seed=1)
        assert calls == []

    def test_seeded_determinism(self, zero_table):
        beat = _noise_beat()
        table = default_distributions()
        a = euler_loss_combined(beat, table, LossWeights(0.6), n_samples=6, seed=9)
        b = euler_loss_combined(beat, table, LossWeights(0.6), n_samples=6, seed=9)
        c = euler_loss_combined(beat, table, LossWeights(0.6), n_samples=6, seed=10)
        assert a == b
        assert a != c

    def test_unlabeled_beat_rejected(self, zero_table):
        beat = _noise_beat()
        beat.label = None
        with pytest.raises(ConfigurationError):
            euler_loss_combined(beat, zero_table)

    def test_missing_class_rejected(self, zero_table):
        beat = _noise_beat()
        beat.label = "IAVB"
        with pytest.raises(ConfigurationError, match="IAVB"):
            euler_loss_combined(beat, zero_table)

    def test_zero_samples_rejected(self, zero_table):
        for score in (loss_components, euler_loss_combined):
            with pytest.raises(ValueError, match="at least one sample"):
                score(_noise_beat(), zero_table, n_samples=0)
        with pytest.raises(ValueError, match="at least one sample"):
            draw_param_samples(zero_table, "NORMAL", 0, seed=1)

    def test_invalid_delta_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(delta=1.5)


def _scores(beat, table, n_samples=3, seed=1):
    """loss_components of a beat as the exact bits of every value."""
    l1, l2, per_lead = loss_components(beat, table, n_samples=n_samples,
                                       seed=seed)
    return [float(v).hex() for v in (l1, l2, *per_lead.values())]


def _fresh_scores(*args, **kwargs):
    fidelity._build_mc_terms.cache_clear()
    return _scores(*args, **kwargs)


class TestTermMemo:
    """One file's beats share one term set; nothing else changes."""

    def test_interleaved_beats_match_fresh_builds(self):
        table = default_distributions()
        beat_a = _noise_beat(31)
        grid_b = beat_grid(250, 1.2)
        beat_b = Heartbeat(grid=grid_b, label="NORMAL",
                           leads=np.random.default_rng(32).uniform(
                               -0.1, 0.1, (12, grid_b.L)))
        fresh_a = _fresh_scores(beat_a, table, seed=4)
        fresh_b = _fresh_scores(beat_b, zero_variance(table), seed=9)
        fresh_c = _fresh_scores(beat_b, table, seed=4)  # only the grid is A's
        fidelity._build_mc_terms.cache_clear()
        assert _scores(beat_a, table, seed=4) == fresh_a
        assert _scores(beat_b, zero_variance(table), seed=9) == fresh_b
        assert _scores(beat_a, table, seed=4) == fresh_a
        assert _scores(beat_a, table, seed=4) == fresh_a  # served by the memo
        assert _scores(beat_b, table, seed=4) == fresh_c

    def test_cached_arrays_are_read_only(self):
        fidelity._build_mc_terms.cache_clear()
        terms = fidelity._mc_terms(GRID, default_distributions(), "NORMAL", 3, 1)
        assert fidelity._mc_terms(GRID, default_distributions(), "NORMAL",
                                  3, 1) is terms
        for arr in terms[1:]:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0

    def test_term_set_holds_no_draws(self):
        # the draws are reduced to each term's completed square: no array
        # grows with n_samples
        fidelity._build_mc_terms.cache_clear()
        terms = fidelity._mc_terms(GRID, default_distributions(), "NORMAL", 64, 1)
        names, *arrays = terms
        for arr in arrays:
            assert arr.size <= len(names) * (GRID.L - 1)

    def test_unkeyable_seeds_build_every_call(self, monkeypatch):
        fidelity._build_mc_terms.cache_clear()
        calls = count_calls(monkeypatch, fidelity, "wave_rate_sum")
        beat, table = _noise_beat(), default_distributions()
        rng = np.random.default_rng(3)
        assert _scores(beat, table, seed=rng) != _scores(beat, table, seed=rng)
        assert _scores(beat, table, seed=None) != _scores(beat, table, seed=None)
        seq = np.random.SeedSequence(3)
        assert _scores(beat, table, seed=seq) == _scores(beat, table, seed=seq)
        assert len(calls) == 6
        assert fidelity._build_mc_terms.cache_info().currsize == 0

    def test_zero_variance_copy_has_its_own_entry(self, monkeypatch):
        beat, table = _noise_beat(), default_distributions()
        fresh_zero = _fresh_scores(beat, zero_variance(table))
        fidelity._build_mc_terms.cache_clear()
        calls = count_calls(monkeypatch, fidelity, "wave_rate_sum")
        shipped = _scores(beat, table)
        assert _scores(beat, zero_variance(table)) == fresh_zero != shipped
        assert len(calls) == 2

    def test_refine_then_score_builds_each_set_once(self, monkeypatch):
        # refine asks for the free leads' own terms and score for all 12
        # leads' own terms: both sets stay, so a file's beats build two
        table = default_distributions()
        fidelity._build_mc_terms.cache_clear()
        calls = count_calls(monkeypatch, fidelity, "wave_rate_sum")
        for seed in (41, 42, 43):
            refined = refine_waveform(_noise_beat(seed), table)
            loss_components(refined, table)
        assert len(calls) == 2


def high_variance(table):
    """Copy of a table with every center std at 3 rad and every width std
    at twice its mean, so draws wrap at the seam and clamp at B_FLOOR."""
    out = {}
    for key, dist in table.items():
        std = list(dist.std)
        std[0::3] = [3.0] * 5
        std[2::3] = [2.0 * b for b in dist.mean[2::3]]
        out[key] = replace(dist, std=tuple(std))
    return out


TABLES = {"shipped": default_distributions,
          "high variance": lambda: high_variance(default_distributions()),
          "mixed rhythms": lambda: with_rhythms(default_distributions(),
                                                MIXED_RHYTHMS)}


class TestBatchedMonteCarlo:
    """The array path against one draw, one lead and one term at a time."""

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_draws_match_per_lead_loop(self, name):
        table = TABLES[name]()
        got = draw_param_samples(table, "NORMAL", 6, seed=11)
        rng = np.random.default_rng(11)
        for entry in got:
            for lead in LEAD_NAMES:
                vals, gain = oracle.sample_entry(table["NORMAL", lead], rng)
                assert eta_to_vector(entry[lead][0]).tolist() == vals.tolist()
                assert entry[lead][1] == gain

    def test_high_variance_draws_wrap_and_clamp(self):
        table = high_variance(default_distributions())
        z = np.random.default_rng(11).standard_normal((6, 12, 16))
        raw = np.array([table["NORMAL", lead].mean for lead in LEAD_NAMES]) + (
            np.array([table["NORMAL", lead].std for lead in LEAD_NAMES]) * z[..., :15])
        theta, b = raw[..., 0::3], raw[..., 2::3]
        assert np.any(np.abs(theta + np.pi) >= 2 * np.pi)  # wrapped by modulo
        assert np.any(b < B_FLOOR)
        got = np.array([[eta_to_vector(entry[lead][0]) for lead in LEAD_NAMES]
                        for entry in draw_param_samples(table, "NORMAL", 6, seed=11)])
        assert np.all((-np.pi <= got[..., 0::3]) & (got[..., 0::3] < np.pi))
        assert np.array_equal(got[..., 2::3] == B_FLOOR, b <= B_FLOOR)

    @pytest.mark.parametrize("name, n_samples", [
        pytest.param(name, n, id=name if n == 5 else f"{name}, n_samples={n}")
        for name in sorted(TABLES) + ["read back"] for n in (1, 5, 64)])
    def test_loss_matches_per_term_oracle(self, name, n_samples, tmp_path):
        # the completed square sums in another order than the oracle's
        # draw-by-draw loop: every value agrees to rounding, not bit for bit
        table = TABLES.get(name, default_distributions)()
        beat = _noise_beat()
        if name == "read back":
            # the reader hands back the transposed (Fortran-ordered) leads
            write_beats_csv(tmp_path / "beat.csv", [beat])
            beat = read_beats_csv(tmp_path / "beat.csv", label="NORMAL")[0]
            assert not beat.leads.flags.c_contiguous
        l1, l2, per_lead = loss_components(beat, table, n_samples=n_samples,
                                           seed=13)
        want_l1, want_l2, want_per_lead = oracle.loss_components(
            beat.leads, beat.grid.fs,
            [table["NORMAL", lead] for lead in LEAD_NAMES], n_samples, 13)
        assert list(per_lead) == list(want_per_lead)
        assert [l1, l2, *per_lead.values()] == pytest.approx(
            [want_l1, want_l2, *want_per_lead.values()], rel=1e-14, abs=0.0)

    def test_overflowing_signal_rejected(self, tmp_path, capsys):
        table = {key: replace(dist, gain_mean=1e-3, gain_std=0.0)
                 for key, dist in default_distributions().items()}
        beat = Heartbeat(grid=GRID, leads=np.full((12, GRID.L), 1e306),
                         label="NORMAL")
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(ValueError, match="samples must be finite"):
            loss_components(beat, table)
        params = tmp_path / "tiny_gain.params"
        params.write_text(write_param_file(table), encoding="utf-8")
        write_beats_csv(tmp_path / "beat.csv", [beat])
        # score reports the overflow as the error alone: a RuntimeWarning
        # would raise here
        code = run_cli(["score", "--input", str(tmp_path / "beat.csv"),
                        "--params", str(params)])
        assert code == 2
        assert capsys.readouterr().err == "ecgdyn: samples must be finite\n"

    def test_signal_rejected_where_any_gain_overflows_it(self):
        # the smallest drawn gain decides: a lead is rejected exactly when
        # its division by some draw's gain overflows
        table = {key: replace(dist, gain_mean=0.05, gain_std=0.02)
                 for key, dist in default_distributions().items()}
        beat = Heartbeat(grid=GRID, leads=np.full((12, GRID.L), 1e306),
                         label="NORMAL")
        outcomes = set()
        for seed in range(20):
            gains = [gain for entry in draw_param_samples(table, "NORMAL", 2, seed)
                     for _, gain in entry.values()]
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    loss_components(beat, table, n_samples=2, seed=seed)
                    rejected = False
                except ValueError:
                    rejected = True
            assert rejected == (1e306 / min(gains) == float("inf"))
            outcomes.add(rejected)
        assert outcomes == {False, True}

    @pytest.mark.parametrize("field", [0, 1, 2], ids=["theta", "a", "b"])
    def test_non_finite_draw_rejected(self, field):
        # a mean and std at 1e308 overflow to inf in most draws
        table = {}
        for key, dist in default_distributions().items():
            mean, std = list(dist.mean), list(dist.std)
            mean[field::3] = [1e308] * 5
            std[field::3] = [1e308] * 5
            table[key] = replace(dist, mean=tuple(mean), std=tuple(std))
        for call in (lambda: draw_param_samples(table, "NORMAL", 4, seed=2),
                     lambda: sample_eta(table["NORMAL", "II"], seed=2),
                     lambda: loss_components(_noise_beat(), table, 4, seed=2)):
            with pytest.warns(RuntimeWarning, match="overflow"), \
                    pytest.raises(ValueError, match="must be finite"):
                call()


def _norm_rel_err(analytic, fd):
    scale = np.max(np.abs(fd))
    return np.max(np.abs(analytic - fd)) / scale


class TestGradients:
    def test_grad_h_zero_at_minimum(self, ref):
        h = LeadSignal(GRID, ref.z)
        g = grad_sim_distance_wrt_h(h, DEFAULT_ETA, DEFAULT_RHYTHM, ref)
        assert np.max(np.abs(g)) < 1e-8

    def test_grad_h_matches_fd(self, ref):
        rng = np.random.default_rng(40)
        h = LeadSignal(GRID, ref.z + 0.05 * rng.standard_normal(GRID.L))
        analytic = grad_sim_distance_wrt_h(h, DEFAULT_ETA, DEFAULT_RHYTHM, ref)
        eps = 1e-6
        idx = rng.choice(GRID.L, 32, replace=False)
        fd = np.empty(idx.size)
        for j, k in enumerate(idx):
            hp, hm = h.samples.copy(), h.samples.copy()
            hp[k] += eps
            hm[k] -= eps
            fd[j] = (sim_distance(LeadSignal(GRID, hp), DEFAULT_ETA, DEFAULT_RHYTHM, ref)
                     - sim_distance(LeadSignal(GRID, hm), DEFAULT_ETA, DEFAULT_RHYTHM, ref)) / (2 * eps)
        assert _norm_rel_err(analytic[idx], fd) <= 1e-5

    def test_grad_h_constant_shift_matches_fd(self, ref):
        h = LeadSignal(GRID, ref.z + 0.5)
        analytic = grad_sim_distance_wrt_h(h, DEFAULT_ETA, DEFAULT_RHYTHM, ref)
        eps = 1e-6
        fd = np.empty(8)
        idx = np.array([0, 1, 100, 250, 251, 498, 499, 300])
        for j, k in enumerate(idx):
            hp, hm = h.samples.copy(), h.samples.copy()
            hp[k] += eps
            hm[k] -= eps
            fd[j] = (sim_distance(LeadSignal(GRID, hp), DEFAULT_ETA, DEFAULT_RHYTHM, ref)
                     - sim_distance(LeadSignal(GRID, hm), DEFAULT_ETA, DEFAULT_RHYTHM, ref)) / (2 * eps)
        assert _norm_rel_err(analytic[idx], fd) <= 1e-5

    def test_grad_eta_matches_fd(self, ref):
        rng = np.random.default_rng(41)
        h = LeadSignal(GRID, ref.z + 0.05 * rng.standard_normal(GRID.L))
        v0 = eta_to_vector(DEFAULT_ETA) * (1 + 0.02 * rng.standard_normal(15))
        analytic = grad_sim_distance_wrt_eta(h, vector_to_eta(v0),
                                             DEFAULT_RHYTHM, ref)
        eps = 1e-6
        fd = np.empty(15)
        for j in range(15):
            vp, vm = v0.copy(), v0.copy()
            vp[j] += eps
            vm[j] -= eps
            fd[j] = (sim_distance(h, vector_to_eta(vp), DEFAULT_RHYTHM, ref)
                     - sim_distance(h, vector_to_eta(vm), DEFAULT_RHYTHM, ref)) / (2 * eps)
        assert _norm_rel_err(analytic, fd) <= 1e-5

    def test_grad_eta_amplitudes_zero_at_minimum(self, ref):
        h = LeadSignal(GRID, ref.z)
        g = grad_sim_distance_wrt_eta(h, DEFAULT_ETA, DEFAULT_RHYTHM, ref)
        amp_components = g[1::3]
        assert np.max(np.abs(amp_components)) < 1e-8

    def test_grad_points_toward_generating_amplitude(self, ref):
        # beat generated with a larger R amplitude: stepping against the
        # gradient must reduce the distance
        v_true = eta_to_vector(DEFAULT_ETA).copy()
        v_true[7] *= 1.2  # R amplitude
        traj = integrate_euler(vector_to_eta(v_true), DEFAULT_RHYTHM, GRID)
        h = LeadSignal(GRID, traj.z)
        v = eta_to_vector(DEFAULT_ETA)
        g = grad_sim_distance_wrt_eta(h, DEFAULT_ETA, DEFAULT_RHYTHM, ref)
        base = sim_distance(h, DEFAULT_ETA, DEFAULT_RHYTHM, ref)
        step = 1e-4 / max(abs(g[7]), 1.0)
        probe = v.copy()
        probe[7] -= step * g[7]
        assert sim_distance(h, vector_to_eta(probe), DEFAULT_RHYTHM, ref) < base
        assert np.sign(-g[7]) == np.sign(v_true[7] - v[7])

    def test_grad_eta_evaluates_w_once(self, monkeypatch, ref):
        # wave_rate_sum reaches W through model's binding, the Jacobian
        # call through fidelity's; count both
        calls = count_calls(monkeypatch, model, "_wave_terms")
        monkeypatch.setattr(fidelity, "_wave_terms", model._wave_terms)
        h = LeadSignal(GRID, ref.z + 0.01)
        grad_sim_distance_wrt_eta(h, DEFAULT_ETA, DEFAULT_RHYTHM, ref)
        assert len(calls) == 1

    def test_width_floor_enforced(self, ref):
        v = eta_to_vector(DEFAULT_ETA)
        v[2] = 5e-4  # P width below the floor
        h = LeadSignal(GRID, ref.z)
        with pytest.raises(ValueError, match="floor"):
            grad_sim_distance_wrt_eta(h, vector_to_eta(v), DEFAULT_RHYTHM, ref)

    def test_vector_residual_matches_edm_params(self, ref):
        # fit_params hands its trials over as vectors, with the same floor
        v = eta_to_vector(DEFAULT_ETA) * 1.03
        h = LeadSignal(GRID, ref.z + 0.01)
        for cached in (ref, reference_trajectory(DEFAULT_RHYTHM, GRID)):
            got = fidelity._lead_residual(h, v, DEFAULT_RHYTHM, cached, jac=True)
            want = fidelity._lead_residual(h, vector_to_eta(v), DEFAULT_RHYTHM,
                                           cached, jac=True)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        v[11] = 5e-4  # S width below the floor
        with pytest.raises(ValueError, match=r"^width 0\.0005 below floor 0\.001$"):
            fidelity._lead_residual(h, v, DEFAULT_RHYTHM, ref, jac=True)


class TestReferenceCache:
    def test_same_arguments_share_trajectory(self):
        a = reference_trajectory(DEFAULT_RHYTHM, GRID)
        hits = reference_trajectory.cache_info().hits
        b = reference_trajectory(DEFAULT_RHYTHM, GRID)
        assert a is b
        assert reference_trajectory.cache_info().hits == hits + 1

    def test_late_start_rejected(self):
        # the drift runs from t = 0, so a later start would score the exact
        # Euler path from that state as far from zero
        late = State(-1.0, 0.0, 0.0, t=0.37)
        with pytest.raises(ValueError, match="init.t = 0.37"):
            reference_trajectory(DEFAULT_RHYTHM, GRID, late)
        h = LeadSignal(GRID, integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, GRID).z)
        ref = reference_trajectory(DEFAULT_RHYTHM, GRID, replace(late, t=0.0))
        assert sim_distance(h, DEFAULT_ETA, DEFAULT_RHYTHM, ref) < 1e-20

    def test_signed_zero_starts_kept_apart(self):
        # State(-1, -0.0) == State(-1, 0.0), yet atan2 starts the first at
        # -pi and the second at +pi
        neg = reference_trajectory(DEFAULT_RHYTHM, GRID, State(-1.0, -0.0, 0.0))
        for pos in (reference_trajectory(DEFAULT_RHYTHM, GRID, DEFAULT_INIT),
                    reference_trajectory(DEFAULT_RHYTHM, GRID)):
            assert str(pos.y[0]) == "0.0" and str(neg.y[0]) == "-0.0"
            assert fidelity._ref_phase(pos)[0] == -fidelity._ref_phase(neg)[0] == np.pi

    def test_reference_is_the_integration_circle(self):
        # one cache holds the circle: an integration fills it, and the
        # reference is that entry, sharing the integration's x and y
        reference_trajectory.cache_clear()
        traj = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, GRID)
        ref = reference_trajectory(DEFAULT_RHYTHM, GRID)
        info = reference_trajectory.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert ref.x is traj.x and ref.y is traj.y
        assert ref is integrate._circle(DEFAULT_RHYTHM.omega, GRID, DEFAULT_INIT)
        with pytest.raises(ValueError, match="read-only"):
            ref.z[0] = 1.0

    def test_cached_reference_carries_its_phase(self):
        # a cached reference hands out the cache's phase; any other
        # Trajectory on the same path gets the same values from atan2
        ref = reference_trajectory(DEFAULT_RHYTHM, GRID)
        assert fidelity._ref_phase(ref) is ref.phase
        copy = integrate.Trajectory(GRID, ref.x.copy(), ref.y.copy(), ref.z.copy())
        assert fidelity._ref_phase(copy).tobytes() == ref.phase.tobytes()

    def test_term_build_reads_cached_phase(self, monkeypatch):
        # the terms take each rhythm's phase from the circle cache
        fidelity._build_mc_terms.cache_clear()
        calls = count_calls(monkeypatch, fidelity, "_ref_phase")
        loss_components(_noise_beat(),
                        with_rhythms(default_distributions(), MIXED_RHYTHMS),
                        n_samples=2, seed=1)
        assert calls == []

    def test_interlead_phase_computed_once(self, monkeypatch):
        rel = limb_relations()[0]
        ref = reference_trajectory(DEFAULT_RHYTHM, GRID)
        h = LeadSignal(GRID, ref.z, lead=rel.target)
        calls = count_calls(monkeypatch, fidelity, "_ref_phase")
        sim_distance_interlead(h, DEFAULT_ETA, DEFAULT_ETA, rel, DEFAULT_RHYTHM, ref)
        assert len(calls) == 1
