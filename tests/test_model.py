"""Core model: angle wrapping, right-hand sides, parameter containers."""

import math

import numpy as np
import pytest

import naive_reference as oracle
from ecgdyn.model import (DEFAULT_ETA, DEFAULT_RHYTHM, PARAM_NAMES, EdmParams,
                          RhythmParams, State, WaveParams, _wave_terms,
                          baseline, eta_to_vector, eval_rhs, vector_to_eta,
                          wave_rate_sum, wrap_angle)

TWO_PI = 2.0 * math.pi


class TestWrapAngle:
    def test_identity_at_zero(self):
        assert wrap_angle(0.0) == 0.0

    def test_three_half_pi(self):
        assert wrap_angle(1.5 * math.pi) == pytest.approx(-0.5 * math.pi, abs=1e-15)

    def test_lower_boundary_included(self):
        assert wrap_angle(-math.pi) == -math.pi

    def test_upper_boundary_excluded(self):
        assert wrap_angle(math.pi) == -math.pi

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(0)
        for phi in rng.uniform(-20.0, 20.0, 200):
            once = wrap_angle(phi)
            assert wrap_angle(once) == once

    def test_congruent_mod_two_pi(self):
        rng = np.random.default_rng(1)
        for phi in rng.uniform(-50.0, 50.0, 200):
            w = wrap_angle(phi)
            assert -math.pi <= w < math.pi
            assert math.isclose(math.sin(w - phi), 0.0, abs_tol=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            wrap_angle(bad)

    def test_array_variant_matches_scalar(self):
        # the rate kernel's single conditional shift agrees with the scalar
        # while-loop wrap on both sides of the +-pi seam
        eta = _seam_eta()
        phases = np.concatenate([np.linspace(-math.pi, math.pi, 101),
                                 [math.pi - 1e-3, -math.pi + 1e-3]])
        got = wave_rate_sum(phases, eta)
        theta, a, b = (tuple(w.theta for w in eta.waves),
                       tuple(w.a for w in eta.waves),
                       tuple(w.b for w in eta.waves))
        for phase, g in zip(phases, got):
            expect = oracle.wave_sum(float(phase), theta, a, b)
            assert g == pytest.approx(expect, rel=1e-14, abs=1e-13)


def _seam_eta():
    """Resting beat with the P and T centers within 0.1 rad of -pi and pi."""
    return EdmParams(P=WaveParams(-3.05, 1.2, 0.25), Q=DEFAULT_ETA.Q,
                     R=DEFAULT_ETA.R, S=DEFAULT_ETA.S,
                     T=WaveParams(3.08, 0.75, 0.4))


class TestWaveTerms:
    def test_jacobian_rows_match_central_differences(self):
        eta = _seam_eta()
        # both sides of the +-pi seam; every phase stays clear of the
        # antipode of each center, where the wrapped offset jumps by 2*pi
        phases = np.concatenate([np.linspace(-math.pi, math.pi, 80),
                                 [math.pi - 0.02, -math.pi + 0.02,
                                  math.pi - 0.1, -math.pi + 0.1]])
        antipodes = [w.theta + (math.pi if w.theta < 0 else -math.pi)
                     for w in eta.waves]
        phases = phases[np.all([np.abs(phases - p) > 1e-3 for p in antipodes],
                               axis=0)]
        _, jac = _wave_terms(phases, eta, jac=True)
        v = eta_to_vector(eta)
        h = 1e-6
        for k, name in enumerate(PARAM_NAMES):
            up, down = v.copy(), v.copy()
            up[k] += h
            down[k] -= h
            fd = (wave_rate_sum(phases, vector_to_eta(up))
                  - wave_rate_sum(phases, vector_to_eta(down))) / (2.0 * h)
            np.testing.assert_allclose(jac[k], fd, rtol=1e-6, atol=1e-6,
                                       err_msg=name)


def _flat_eta():
    """All wave amplitudes zero."""
    waves = [WaveParams(theta=w.theta, a=0.0, b=w.b) for w in DEFAULT_ETA.waves]
    return EdmParams(*waves)


class TestEvalRhs:
    def test_unit_circle_pure_rotation(self):
        rhythm = RhythmParams(f=1.0, A=0.0, f2=0.25)
        fx, fy, fz = eval_rhs(State(1.0, 0.0, 0.0, 0.0), _flat_eta(), rhythm)
        assert fx == 0.0
        assert fy == rhythm.omega
        assert fz == 0.0

    def test_origin_fixed_point_of_xy(self):
        fx, fy, _ = eval_rhs(State(0.0, 0.0, 0.0, 0.0), DEFAULT_ETA, DEFAULT_RHYTHM)
        assert fx == 0.0 and fy == 0.0

    def test_event_center_term_vanishes(self):
        # at the R center the R term has a zero angular offset prefactor
        rhythm = RhythmParams(f=1.0, A=0.0, f2=0.25)
        theta_r = DEFAULT_ETA.R.theta
        s = State(math.cos(theta_r), math.sin(theta_r), 0.0, 0.0)
        _, _, fz_full = eval_rhs(s, DEFAULT_ETA, rhythm)
        without_r = EdmParams(
            P=DEFAULT_ETA.P, Q=DEFAULT_ETA.Q,
            R=WaveParams(theta=theta_r, a=0.0, b=DEFAULT_ETA.R.b),
            S=DEFAULT_ETA.S, T=DEFAULT_ETA.T)
        _, _, fz_no_r = eval_rhs(s, without_r, rhythm)
        assert fz_full == fz_no_r

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x, y = rng.uniform(-1.5, 1.5, 2)
            z, t = rng.uniform(-0.5, 0.5), rng.uniform(0.0, 4.0)
            _, _, fz = eval_rhs(State(x, y, z, t), DEFAULT_ETA, DEFAULT_RHYTHM)
            expect = oracle.fz(x, y, z, t)
            assert fz == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_tangency_exact_on_axis_points(self):
        # on the axes the rotation cross-terms vanish bitwise
        for x, y in [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]:
            fx, fy, _ = eval_rhs(State(x, y, 0.1, 0.3), DEFAULT_ETA, DEFAULT_RHYTHM)
            assert x * fx + y * fy == 0.0

    def test_tangency_and_rotation_rate_on_circle(self):
        # (0.6, 0.8) lies exactly on the unit circle; the radial component
        # cancels up to one rounding of the omega cross-terms
        omega = DEFAULT_RHYTHM.omega
        for x, y in [(0.6, 0.8), (-0.8, 0.6), (0.28, -0.96)]:
            fx, fy, _ = eval_rhs(State(x, y, 0.1, 0.3), DEFAULT_ETA, DEFAULT_RHYTHM)
            assert abs(x * fx + y * fy) <= 4e-15 * omega
            assert x * fy - y * fx == pytest.approx(omega, rel=1e-14)

    def test_deterministic(self):
        s = State(0.3, -0.7, 0.05, 1.2)
        assert eval_rhs(s, DEFAULT_ETA, DEFAULT_RHYTHM) == \
            eval_rhs(s, DEFAULT_ETA, DEFAULT_RHYTHM)

    def test_wave_contribution_odd_around_center(self):
        lone_r = EdmParams(
            P=WaveParams(-1.0, 0.0, 0.25), Q=WaveParams(-0.5, 0.0, 0.1),
            R=WaveParams(0.0, 30.0, 0.1), S=WaveParams(0.5, 0.0, 0.1),
            T=WaveParams(1.5, 0.0, 0.4))
        for d in (0.05, 0.1, 0.2):
            plus = wave_rate_sum(np.array([d]), lone_r)[0]
            minus = wave_rate_sum(np.array([-d]), lone_r)[0]
            assert plus == -minus


class TestBaseline:
    def test_zero_at_t0(self):
        assert baseline(0.0, RhythmParams(f=1.0, A=0.4, f2=3.0)) == 0.0

    def test_zero_amplitude(self):
        rhythm = RhythmParams(f=1.0, A=0.0, f2=0.25)
        for t in (0.0, 0.31, 2.7, 100.0):
            assert baseline(t, rhythm) == 0.0

    def test_quarter_period_value(self):
        rhythm = RhythmParams(f=1.0, A=0.15, f2=0.25)
        assert baseline(1.0, rhythm) == pytest.approx(0.15, rel=1e-15)

    def test_non_finite_time_rejected(self):
        with pytest.raises(ValueError):
            baseline(math.inf, DEFAULT_RHYTHM)


class TestTypes:
    def test_wave_width_must_be_positive(self):
        with pytest.raises(ValueError):
            WaveParams(theta=0.0, a=1.0, b=0.0)

    def test_wave_theta_range(self):
        with pytest.raises(ValueError):
            WaveParams(theta=math.pi, a=1.0, b=0.1)
        WaveParams(theta=-math.pi, a=1.0, b=0.1)  # boundary allowed

    def test_rhythm_invariants(self):
        with pytest.raises(ValueError):
            RhythmParams(f=0.0)
        with pytest.raises(ValueError):
            RhythmParams(f=1.0, A=-0.1)
        with pytest.raises(ValueError):
            RhythmParams(f=1.0, f2=-1.0)

    def test_state_must_be_finite(self):
        with pytest.raises(ValueError):
            State(math.nan, 0.0, 0.0, 0.0)

    def test_default_eta_is_ordered(self):
        assert DEFAULT_ETA.is_ordered()

    def test_scrambled_eta_not_ordered(self):
        eta = EdmParams(P=DEFAULT_ETA.R, Q=DEFAULT_ETA.Q, R=DEFAULT_ETA.P,
                        S=DEFAULT_ETA.S, T=DEFAULT_ETA.T)
        assert not eta.is_ordered()

    def test_vector_round_trip(self):
        vec = eta_to_vector(DEFAULT_ETA)
        assert vec.shape == (15,)
        again = eta_to_vector(vector_to_eta(vec))
        assert np.array_equal(vec, again)

    def test_vector_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            vector_to_eta(np.zeros(14))

    def test_wave_accessor(self):
        assert DEFAULT_ETA.wave("R") is DEFAULT_ETA.R
        with pytest.raises(KeyError):
            DEFAULT_ETA.wave("X")
