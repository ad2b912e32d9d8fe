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
from ecgdyn.integrate import DEFAULT_INIT, beat_grid, integrate_euler, integrate_rk4
from ecgdyn.leads import (FREE_LEADS, LEAD_NAMES, Heartbeat, LeadRelation,
                          limb_relations, synthesize_heartbeat)
from ecgdyn.model import (B_FLOOR, DEFAULT_ETA, DEFAULT_RHYTHM, State, baseline,
                          eta_to_vector, vector_to_eta, wave_rate_sum)
from ecgdyn.params import (_draw, default_distributions, sample_eta,
                           write_param_file, zero_variance)
from ecgdyn.fidelity import draw_param_samples
from ecgdyn.fitting import fit_params, refine_waveform

GRID = beat_grid(500, 1.0)

# independent direct-summation value for an all-zero waveform under the
# default parameters (computed by tests/naive_reference.py, frozen here)
ZEROS_DISTANCE = 101.4489774971078

#: A beat on the dynamics of every term scores zero up to rounding (about
#: 1e-27 for the beats below)
ZERO_SCORE_TOL = 1e-12


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


def _synthesized(table, seed=0, grid=GRID):
    """A beat synthesized exactly from one draw of table's NORMAL class,
    with the draw's (eta, gain) per lead."""
    entry = draw_param_samples(table, "NORMAL", 1, seed)[0]
    beat = synthesize_heartbeat(
        {lead: entry[lead][0] for lead in FREE_LEADS}, table["NORMAL", "II"].rhythm,
        grid, gains={lead: entry[lead][1] for lead in FREE_LEADS}, label="NORMAL")
    return beat, entry


@pytest.fixture(scope="module")
def ref():
    return integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, GRID)


@pytest.fixture(scope="module")
def zero_table():
    return zero_variance(default_distributions())


class TestSimDistance:
    def test_exact_euler_beat_scores_zero(self, ref):
        h = LeadSignal(GRID, ref.z)
        assert sim_distance(h, DEFAULT_ETA, ref) <= 1e-18

    def test_constant_shift_law(self, ref):
        L = GRID.L
        for c in (0.01, 0.1, 1.0):
            h = LeadSignal(GRID, ref.z + c)
            d = sim_distance(h, DEFAULT_ETA, ref)
            expected = (L - 1) * c * c
            assert abs(d - expected) <= 1e-9 * expected

    def test_zeros_matches_frozen_oracle_value(self, ref):
        h = LeadSignal(GRID, np.zeros(GRID.L))
        d = sim_distance(h, DEFAULT_ETA, ref)
        assert d == pytest.approx(ZEROS_DISTANCE, rel=1e-12)

    def test_random_waveform_matches_live_oracle(self, ref):
        rng = np.random.default_rng(8)
        h = rng.uniform(-0.2, 0.2, GRID.L)
        d = sim_distance(LeadSignal(GRID, h), DEFAULT_ETA, ref)
        expected = oracle.sim_distance(h.tolist(), ref.x.tolist(),
                                       ref.y.tolist(), 500)
        assert d == pytest.approx(expected, rel=1e-12)

    def test_nonnegative(self, ref):
        rng = np.random.default_rng(9)
        for _ in range(10):
            h = LeadSignal(GRID, rng.standard_normal(GRID.L))
            assert sim_distance(h, DEFAULT_ETA, ref) >= 0.0

    def test_lead_metadata_irrelevant(self, ref):
        rng = np.random.default_rng(10)
        samples = rng.standard_normal(GRID.L)
        a = sim_distance(LeadSignal(GRID, samples, lead="II"),
                         DEFAULT_ETA, ref)
        b = sim_distance(LeadSignal(GRID, samples, lead="V3"),
                         DEFAULT_ETA, ref)
        assert a == b

    def test_grid_mismatch_rejected(self, ref):
        other = beat_grid(250, 1.0)
        h = LeadSignal(other, np.zeros(other.L))
        with pytest.raises(ValueError, match="grid"):
            sim_distance(h, DEFAULT_ETA, ref)
        with pytest.raises(ValueError, match="length 250"):
            LeadSignal(other, np.zeros(GRID.L))
        with pytest.raises(ValueError, match="finite"):
            LeadSignal(other, np.full(other.L, np.inf))


class TestInterlead:
    def test_degenerate_relation_equals_single(self, ref):
        rng = np.random.default_rng(11)
        h = LeadSignal(GRID, rng.uniform(-0.1, 0.1, GRID.L), lead="I")
        rel = LeadRelation("I", "II", 1.0, "III", 0.0)
        d_pair = sim_distance_interlead(h, DEFAULT_ETA, DEFAULT_ETA, rel, ref)
        d_single = sim_distance(h, DEFAULT_ETA, ref)
        assert d_pair == d_single

    def test_affine_collapse(self, ref):
        rng = np.random.default_rng(12)
        h = LeadSignal(GRID, rng.uniform(-0.1, 0.1, GRID.L), lead="aVF")
        rel = LeadRelation("aVF", "II", 0.25, "III", 0.75)
        d_pair = sim_distance_interlead(h, DEFAULT_ETA, DEFAULT_ETA, rel, ref)
        d_single = sim_distance(h, DEFAULT_ETA, ref)
        assert d_pair == pytest.approx(d_single, rel=1e-12)

    def test_lead_mismatch_rejected(self, ref):
        h = LeadSignal(GRID, np.zeros(GRID.L), lead="V1")
        rel = limb_relations()[0]
        with pytest.raises(ValueError, match="target"):
            sim_distance_interlead(h, DEFAULT_ETA, DEFAULT_ETA, rel, ref)

    def test_synthesized_lead_iii_matches_pair_oracle(self, ref, zero_table):
        entry = draw_param_samples(zero_table, "NORMAL", 1, 0)[0]
        beat = synthesize_heartbeat(
            {lead: entry[lead][0] for lead in FREE_LEADS}, DEFAULT_RHYTHM, GRID,
            gains={lead: entry[lead][1] for lead in FREE_LEADS}, label="NORMAL")
        gain = zero_table[("NORMAL", "III")].gain_mean
        h = LeadSignal(GRID, beat.lead("III") / gain, lead="III")
        rel = next(r for r in limb_relations() if r.target == "III")
        eta1, eta2 = entry[rel.src1][0], entry[rel.src2][0]
        d = sim_distance_interlead(h, eta1, eta2, rel, ref)

        def as_tuple(eta):
            v = eta_to_vector(eta)
            return (tuple(v[0::3]), tuple(v[1::3]), tuple(v[2::3]))

        expected = oracle.sim_distance_sources(
            (beat.lead("III") / gain).tolist(), ref.x.tolist(), ref.y.tolist(),
            500, [(rel.beta, as_tuple(eta1)), (rel.gamma, as_tuple(eta2))])
        assert d == pytest.approx(expected, rel=1e-9)


class TestExactBeat:
    """A beat synthesized from the zero-variance table satisfies every
    term, its own leads' and the limb identities', at any rate."""

    @pytest.mark.parametrize("fs", [500.0, 257.3])
    @pytest.mark.parametrize("delta", [0.0, 0.6, 1.0])
    def test_scores_zero_and_refines_to_itself(self, zero_table, delta, fs):
        # every per-lead column too: a derived lead's own term is its
        # identity's, from leads I and II
        beat, _ = _synthesized(zero_table, grid=beat_grid(fs, 1.0))
        weights = LossWeights(delta)
        assert euler_loss_combined(beat, zero_table, weights) < ZERO_SCORE_TOL
        _, _, per_lead = loss_components(beat, zero_table)
        assert list(per_lead) == list(LEAD_NAMES)
        assert max(per_lead.values()) < ZERO_SCORE_TOL
        assert refine_waveform(beat, zero_table, weights) is beat

    def test_lead_iii_scores_zero_from_ii_and_i(self, ref, zero_table):
        beat, entry = _synthesized(zero_table)
        gain = zero_table["NORMAL", "III"].gain_mean
        h = LeadSignal(GRID, beat.lead("III") / gain, lead="III")
        rel = next(r for r in limb_relations() if r.target == "III")
        assert (rel.src1, rel.src2) == ("II", "I")
        d = sim_distance_interlead(h, entry["II"][0], entry["I"][0], rel,
                                   reference_trajectory(DEFAULT_RHYTHM, GRID))
        assert d < ZERO_SCORE_TOL


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
            sources = oracle.identity_sources(rel.src1, rel.beta, rel.src2, rel.gamma)
            total += oracle.sim_distance_sources(
                h, ref.x.tolist(), ref.y.tolist(), 500,
                [(coef, as_tuple(entry[src][0])) for coef, src in sources],
                wander=rhythm.A, f2=rhythm.f2)
        assert l2 == pytest.approx(total / 6.0, rel=1e-9)

    def test_each_wave_distribution_evaluated_once(self, monkeypatch):
        # every lead of the shipped table shares one rhythm and the five
        # waves' centre and width distributions: each wave's 8 x 8 nodes
        # are 8 _wave_terms calls, one per centre node, of its 8 width
        # nodes five to a set, for every term
        fidelity._build_mc_terms.cache_clear()
        calls = count_calls(monkeypatch, fidelity, "_wave_terms")
        loss_components(_noise_beat(), default_distributions())
        assert [np.shape(eta) for _, eta, _ in calls] == [(2, 15)] * 40
        # other beats, seeds and draw counts reuse the first beat's terms
        for seed in (22, 23, 24):
            loss_components(_noise_beat(seed), default_distributions(),
                            n_samples=seed, seed=seed)
        assert len(calls) == 40
        # refinement's list, the free leads' own terms and the identities,
        # is built once for all its beats
        calls.clear()
        for seed in (21, 22, 23):
            refine_waveform(_noise_beat(seed), default_distributions(),
                            LossWeights(0.6), seed=seed)
        assert len(calls) == 40
        # in "mixed" four rhythms carry terms: those of I, III and aVR,
        # with I and II, from which the limb leads' drifts derive, and the
        # shared one: five waves on each
        calls.clear()
        loss_components(_noise_beat(),
                        with_rhythms(default_distributions(), MIXED_RHYTHMS))
        assert len(calls) == 4 * 40
        # a wave without spread is one node
        calls.clear()
        loss_components(_noise_beat(), zero_variance(default_distributions()))
        assert [np.shape(eta) for _, eta, _ in calls] == [(1, 15)] * 5

    def test_seeded_determinism(self, zero_table):
        # the loss is an exact expectation: the seed and the draw count
        # are checked and bind nothing
        beat = _noise_beat()
        table = default_distributions()
        a = euler_loss_combined(beat, table, LossWeights(0.6), n_samples=6, seed=9)
        fidelity._build_mc_terms.cache_clear()
        b = euler_loss_combined(beat, table, LossWeights(0.6), n_samples=6, seed=9)
        c = euler_loss_combined(beat, table, LossWeights(0.6), n_samples=64, seed=10)
        assert a == b == c

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

    def test_bad_seed_rejected(self, zero_table):
        # as a draw would refuse it, though it binds nothing
        for seed, error in ((-1, ValueError), ("1", TypeError), (2.5, TypeError)):
            for call in (loss_components, euler_loss_combined):
                with pytest.raises(error):
                    call(_noise_beat(), zero_table, seed=seed)
            with pytest.raises(error):
                refine_waveform(_noise_beat(), zero_table, seed=seed)

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
        # each term is its completed square: no array grows with n_samples
        fidelity._build_mc_terms.cache_clear()
        terms = fidelity._mc_terms(GRID, default_distributions(), "NORMAL", 64, 1)
        names, *arrays = terms
        for arr in arrays:
            assert arr.size <= len(names) * (GRID.L - 1)

    def test_any_seed_is_served_by_the_memo(self):
        # no seed keys the memo, a Generator, None or a SeedSequence no
        # more than an int: one build serves them all, with one result
        fidelity._build_mc_terms.cache_clear()
        beat, table = _noise_beat(), default_distributions()
        seeds = [np.random.default_rng(3), None, np.random.SeedSequence(3), 0, 7]
        scores = [_scores(beat, table, n_samples=n, seed=seed)
                  for n, seed in zip((1, 2, 3, 8, 64), seeds)]
        assert all(got == scores[0] for got in scores)
        assert fidelity._build_mc_terms.cache_info().misses == 1

    def test_zero_variance_copy_has_its_own_entry(self):
        beat, table = _noise_beat(), default_distributions()
        fresh_zero = _fresh_scores(beat, zero_variance(table))
        fidelity._build_mc_terms.cache_clear()
        shipped = _scores(beat, table)
        assert _scores(beat, zero_variance(table)) == fresh_zero != shipped
        assert fidelity._build_mc_terms.cache_info().misses == 2

    def test_refine_then_score_builds_each_set_once(self):
        # refine asks for the free leads' own terms and score for all 12
        # leads' own terms: both sets stay, so a file's beats build two,
        # whatever seed each call passes
        table = default_distributions()
        fidelity._build_mc_terms.cache_clear()
        for seed in (41, 42, 43):
            refined = refine_waveform(_noise_beat(seed), table, seed=seed)
            loss_components(refined, table, seed=seed)
        assert fidelity._build_mc_terms.cache_info().misses == 2

    def test_refines_with_new_seeds_build_once(self):
        table, beat = default_distributions(), _noise_beat(44)
        fidelity._build_mc_terms.cache_clear()
        first = refine_waveform(beat, table, seed=1, n_samples=8)
        second = refine_waveform(beat, table, seed=2, n_samples=64)
        assert first.leads.tobytes() == second.leads.tobytes()
        assert fidelity._build_mc_terms.cache_info().misses == 1


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
        # node-by-node quadrature: every value agrees to rounding, not bit
        # for bit, whatever n_samples, which binds nothing
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
            tuple(table["NORMAL", lead] for lead in LEAD_NAMES))
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
        # the smallest gain node decides: a lead is rejected exactly when
        # its division by some node's gain overflows
        table = {key: replace(dist, gain_mean=1.0, gain_std=0.1)
                 for key, dist in default_distributions().items()}
        least = float(min(g for g, _ in oracle.normal_nodes(1.0, 0.1)))
        outcomes = set()
        for value in np.linspace(1.0e308, 1.7e308, 15):
            beat = Heartbeat(grid=GRID, leads=np.full((12, GRID.L), value),
                             label="NORMAL")
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    loss_components(beat, table)
                    rejected = False
                except ValueError:
                    rejected = True
            assert rejected == (float(value) / least == float("inf"))
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


class TestQuadrature:
    """The exact expectation against many draws, where the node range is
    widest."""

    def test_wide_spreads_agree_with_many_draws(self):
        # every spread of the shipped table x5, and lead II's own term of
        # the class-mean beat on a short grid: the 8-node quadrature lies
        # within 3 standard errors of a 65 536-draw Monte-Carlo estimate
        table = {key: replace(dist, std=tuple(5.0 * v for v in dist.std),
                              gain_std=5.0 * dist.gain_std)
                 for key, dist in default_distributions().items()}
        grid, dist = beat_grid(100.0, 1.0), table["NORMAL", "II"]
        beat, _ = _synthesized(zero_variance(table), grid=grid)
        h = beat.lead("II")
        s = np.diff(h) / grid.dt + h[:-1]
        _, w, e, k, _ = fidelity._mc_terms(grid, table, "NORMAL", leads=("II",))
        exact = w[0] * np.sum((s - e[0]) ** 2) + k[0]
        ref, rng, losses = reference_trajectory(dist.rhythm, grid), np.random.default_rng(2024), []
        for _ in range(8):
            params, gains = _draw([dist], 8192, rng)
            r = s / gains - (wave_rate_sum(ref.phase, params[:, 0]) + ref.z0)
            losses.append(np.sum(r * r, axis=1))
        losses = np.concatenate(losses)
        assert losses.size == 65536
        assert abs(exact - losses.mean()) <= 3.0 * losses.std() / np.sqrt(losses.size)


def _norm_rel_err(analytic, fd):
    scale = np.max(np.abs(fd))
    return np.max(np.abs(analytic - fd)) / scale


class TestGradients:
    def test_grad_h_zero_at_minimum(self, ref):
        h = LeadSignal(GRID, ref.z)
        g = grad_sim_distance_wrt_h(h, DEFAULT_ETA, ref)
        assert np.max(np.abs(g)) < 1e-8

    def test_grad_h_matches_fd(self, ref):
        rng = np.random.default_rng(40)
        h = LeadSignal(GRID, ref.z + 0.05 * rng.standard_normal(GRID.L))
        analytic = grad_sim_distance_wrt_h(h, DEFAULT_ETA, ref)
        eps = 1e-6
        idx = rng.choice(GRID.L, 32, replace=False)
        fd = np.empty(idx.size)
        for j, k in enumerate(idx):
            hp, hm = h.samples.copy(), h.samples.copy()
            hp[k] += eps
            hm[k] -= eps
            fd[j] = (sim_distance(LeadSignal(GRID, hp), DEFAULT_ETA, ref)
                     - sim_distance(LeadSignal(GRID, hm), DEFAULT_ETA, ref)) / (2 * eps)
        assert _norm_rel_err(analytic[idx], fd) <= 1e-5

    def test_grad_h_constant_shift_matches_fd(self, ref):
        h = LeadSignal(GRID, ref.z + 0.5)
        analytic = grad_sim_distance_wrt_h(h, DEFAULT_ETA, ref)
        eps = 1e-6
        fd = np.empty(8)
        idx = np.array([0, 1, 100, 250, 251, 498, 499, 300])
        for j, k in enumerate(idx):
            hp, hm = h.samples.copy(), h.samples.copy()
            hp[k] += eps
            hm[k] -= eps
            fd[j] = (sim_distance(LeadSignal(GRID, hp), DEFAULT_ETA, ref)
                     - sim_distance(LeadSignal(GRID, hm), DEFAULT_ETA, ref)) / (2 * eps)
        assert _norm_rel_err(analytic[idx], fd) <= 1e-5

    def test_grad_eta_matches_fd(self, ref):
        rng = np.random.default_rng(41)
        h = LeadSignal(GRID, ref.z + 0.05 * rng.standard_normal(GRID.L))
        v0 = eta_to_vector(DEFAULT_ETA) * (1 + 0.02 * rng.standard_normal(15))
        analytic = grad_sim_distance_wrt_eta(h, vector_to_eta(v0), ref)
        eps = 1e-6
        fd = np.empty(15)
        for j in range(15):
            vp, vm = v0.copy(), v0.copy()
            vp[j] += eps
            vm[j] -= eps
            fd[j] = (sim_distance(h, vector_to_eta(vp), ref)
                     - sim_distance(h, vector_to_eta(vm), ref)) / (2 * eps)
        assert _norm_rel_err(analytic, fd) <= 1e-5

    def test_grad_eta_amplitudes_zero_at_minimum(self, ref):
        h = LeadSignal(GRID, ref.z)
        g = grad_sim_distance_wrt_eta(h, DEFAULT_ETA, ref)
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
        g = grad_sim_distance_wrt_eta(h, DEFAULT_ETA, ref)
        base = sim_distance(h, DEFAULT_ETA, ref)
        step = 1e-4 / max(abs(g[7]), 1.0)
        probe = v.copy()
        probe[7] -= step * g[7]
        assert sim_distance(h, vector_to_eta(probe), ref) < base
        assert np.sign(-g[7]) == np.sign(v_true[7] - v[7])

    def test_grad_eta_evaluates_w_once(self, monkeypatch, ref):
        # wave_rate_sum reaches W through model's binding, the Jacobian
        # call through fidelity's; count both
        calls = count_calls(monkeypatch, model, "_wave_terms")
        monkeypatch.setattr(fidelity, "_wave_terms", model._wave_terms)
        h = LeadSignal(GRID, ref.z + 0.01)
        grad_sim_distance_wrt_eta(h, DEFAULT_ETA, ref)
        assert len(calls) == 1

    def test_width_floor_enforced(self, ref):
        v = eta_to_vector(DEFAULT_ETA)
        v[2] = 5e-4  # P width below the floor
        h = LeadSignal(GRID, ref.z)
        with pytest.raises(ValueError, match="floor"):
            grad_sim_distance_wrt_eta(h, vector_to_eta(v), ref)

    def test_vector_residual_matches_edm_params(self, ref):
        # fit_params hands its trials over as vectors, with the same floor
        v = eta_to_vector(DEFAULT_ETA) * 1.03
        h = LeadSignal(GRID, ref.z + 0.01)
        for cached in (ref, reference_trajectory(DEFAULT_RHYTHM, GRID)):
            got = fidelity._lead_residual(h, v, cached, jac=True)
            want = fidelity._lead_residual(h, vector_to_eta(v), cached, jac=True)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        v[11] = 5e-4  # S width below the floor
        with pytest.raises(ValueError, match=r"^width 0\.0005 below floor 0\.001$"):
            fidelity._lead_residual(h, v, ref, jac=True)


class TestReferenceCache:
    def test_same_arguments_share_trajectory(self):
        a = reference_trajectory(DEFAULT_RHYTHM, GRID)
        hits = reference_trajectory.cache_info().hits
        b = reference_trajectory(DEFAULT_RHYTHM, GRID)
        assert a is b
        assert reference_trajectory.cache_info().hits == hits + 1

    def test_late_start_scores_own_path(self):
        # the reference carries its baseline from its own start time, so the
        # exact Euler path from a late start scores zero along it
        late = State(-1.0, 0.0, 0.0, t=0.37)
        traj = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, GRID, late)
        ref = reference_trajectory(DEFAULT_RHYTHM, GRID, late)
        assert ref.z0 is traj.z0 and ref.z0[0] == baseline(0.37, DEFAULT_RHYTHM)
        h = LeadSignal(GRID, traj.z)
        assert sim_distance(h, DEFAULT_ETA, ref) < 1e-20
        assert sim_distance(h, DEFAULT_ETA, traj) < 1e-20
        assert sim_distance(h, DEFAULT_ETA, reference_trajectory(DEFAULT_RHYTHM, GRID)) > 1.0

    def test_rate_is_the_reference_rhythm(self):
        # the reference's rhythm sets the rate: an exact 1 Hz beat is far
        # from a 1.7 Hz reference on the same grid
        h = LeadSignal(GRID, integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, GRID).z)
        fast = reference_trajectory(replace(DEFAULT_RHYTHM, f=1.7), GRID)
        assert fast.rhythm.f == 1.7
        assert sim_distance(h, DEFAULT_ETA, reference_trajectory(DEFAULT_RHYTHM, GRID)) < 1e-20
        assert sim_distance(h, DEFAULT_ETA, fast) > 100.0

    def test_rhythmless_reference_rejected(self):
        # an RK4 or hand-built Trajectory carries no rhythm to score along
        rk4 = integrate_rk4(DEFAULT_ETA, DEFAULT_RHYTHM, GRID)
        plain = integrate.Trajectory(GRID, rk4.x, rk4.y, rk4.z)
        rel = limb_relations()[0]
        h, target = (LeadSignal(GRID, rk4.z, lead=lead) for lead in ("II", rel.target))
        for ref in (rk4, plain):
            for call in (lambda: sim_distance(h, DEFAULT_ETA, ref),
                         lambda: sim_distance_interlead(target, DEFAULT_ETA,
                                                        DEFAULT_ETA, rel, ref),
                         lambda: grad_sim_distance_wrt_h(h, DEFAULT_ETA, ref),
                         lambda: grad_sim_distance_wrt_eta(h, DEFAULT_ETA, ref),
                         lambda: fit_params(h, DEFAULT_ETA, ref)):
                with pytest.raises(TypeError, match="reference_trajectory"):
                    call()

    def test_signed_zero_starts_kept_apart(self):
        # State(-1, -0.0) == State(-1, 0.0), yet atan2 starts the first at
        # -pi and the second at +pi
        neg = reference_trajectory(DEFAULT_RHYTHM, GRID, State(-1.0, -0.0, 0.0))
        for pos in (reference_trajectory(DEFAULT_RHYTHM, GRID, DEFAULT_INIT),
                    reference_trajectory(DEFAULT_RHYTHM, GRID)):
            assert str(pos.y[0]) == "0.0" and str(neg.y[0]) == "-0.0"
            assert pos.phase[0] == -neg.phase[0] == np.pi

    def test_reference_is_the_integration_circle(self):
        # one cache holds the reference: an integration fills it, and the
        # reference is that entry, sharing the integration's x, y, phase
        # and baseline
        reference_trajectory.cache_clear()
        traj = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, GRID)
        ref = reference_trajectory(DEFAULT_RHYTHM, GRID)
        info = reference_trajectory.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert all(getattr(ref, name) is getattr(traj, name)
                   for name in ("grid", "x", "y", "rhythm", "phase", "z0"))
        caches = [f for f in vars(integrate).values() if hasattr(f, "cache_parameters")]
        assert caches == [integrate._reference]
        with pytest.raises(ValueError, match="read-only"):
            ref.z[0] = 1.0

    def test_cached_reference_carries_its_phase(self):
        # the entry carries its rhythm, and its phase and baseline at the
        # start of every step from its start time, read-only
        ref = reference_trajectory(DEFAULT_RHYTHM, GRID, State(-1.0, 0.0, 0.0, t=0.37))
        assert ref.rhythm == DEFAULT_RHYTHM
        assert ref.phase.tobytes() == np.arctan2(ref.y[:-1], ref.x[:-1]).tobytes()
        want = baseline(0.37 + GRID.times()[:-1], DEFAULT_RHYTHM)
        assert ref.z0.tobytes() == want.tobytes()
        assert not (ref.phase.flags.writeable or ref.z0.flags.writeable)

    def test_term_build_reads_cached_phase(self, monkeypatch):
        # the terms take each rhythm's phase and baseline from one lookup
        # of its cached reference
        fidelity._build_mc_terms.cache_clear()
        table = with_rhythms(default_distributions(), MIXED_RHYTHMS)
        calls = count_calls(monkeypatch, fidelity, "reference_trajectory")
        loss_components(_noise_beat(), table, n_samples=2, seed=1)
        rhythms = [rhythm for rhythm, _ in calls]
        assert len(rhythms) == len(set(rhythms))
        assert set(rhythms) == {dist.rhythm for dist in table.values()}

    def test_interlead_phase_computed_once(self, monkeypatch):
        # both source rates read the reference's one cached phase
        rel = limb_relations()[0]
        ref = reference_trajectory(DEFAULT_RHYTHM, GRID)
        h = LeadSignal(GRID, ref.z, lead=rel.target)
        calls = count_calls(monkeypatch, fidelity, "wave_rate_sum")
        sim_distance_interlead(h, DEFAULT_ETA, DEFAULT_ETA, rel, ref)
        assert [phase is ref.phase for phase, _ in calls] == [True, True]
