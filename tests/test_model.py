"""Core model: angle wrapping, right-hand sides, parameter containers."""

import math

import numpy as np
import pytest

import naive_reference as oracle
from ecgdyn.model import (B_FLOOR, DEFAULT_ETA, DEFAULT_RHYTHM, PARAM_NAMES,
                          EdmParams, RhythmParams, State, WaveParams, _circle_rate,
                          _wave_terms, baseline, eta_to_vector, vector_to_eta,
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

    def test_array_matches_scalar_rule_bitwise(self):
        # the first value lands exactly on the seam after the modulo
        seam = [math.nextafter(-math.pi, -4.0), math.pi, -math.pi, 3 * math.pi,
                -3 * math.pi, math.nextafter(math.pi, 4.0),
                math.nextafter(math.pi, 0.0)]
        rng = np.random.default_rng(2)
        phi = np.concatenate([seam, rng.uniform(-50.0, 50.0, 10_000),
                              rng.uniform(-1e6, 1e6, 1000)])
        got = wrap_angle(phi)
        assert got.tolist() == [oracle.wrap_modulo(float(v)) for v in phi]
        assert got.tolist() == [wrap_angle(float(v)) for v in phi]
        assert got[0] == -math.pi

    def test_array_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            wrap_angle(np.array([0.0, math.nan]))

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

    @pytest.mark.parametrize("jac", [False, True])
    def test_single_set_is_a_batch_row(self, jac):
        # one 15-vector gives the bits of its row in a (3, 4, 15) batch
        sets = _kernel_sets(12).reshape(3, 4, 15)
        w, rows = _wave_terms(KERNEL_PHASES, sets, jac)
        for i, j in np.ndindex(3, 4):
            w1, rows1 = _wave_terms(KERNEL_PHASES, sets[i, j], jac)
            assert w1.tobytes() == w[i, j].tobytes()
            if jac:
                assert rows1.tobytes() == rows[:, i, j].tobytes()

    @pytest.mark.parametrize("index, value", [
        (2, 0.0), (6, 3.5), (10, math.nan), (14, math.inf), (3, -math.inf),
    ], ids=["P.b zero", "R.theta 3.5", "S.a NaN", "T.b inf", "Q.theta -inf"])
    def test_bad_vector_in_batch_raises_its_message(self, index, value):
        # one broken set among (draws, leads, 15) names that set's first
        # broken wave, with WaveParams' message
        sets = np.array([[eta_to_vector(DEFAULT_ETA)] * 4] * 3)
        assert wave_rate_sum(KERNEL_PHASES, sets).shape == (3, 4, KERNEL_PHASES.size)
        sets[1, 2, index] = value
        sets[2, 0, 6] = 4.0  # a later set's fault is not the one named
        with pytest.raises(ValueError) as want:
            vector_to_eta(sets[1, 2])
        with pytest.raises(ValueError) as got:
            wave_rate_sum(KERNEL_PHASES, sets)
        assert str(got.value) == str(want.value)

    def test_batch_shape_rejected(self):
        with pytest.raises(ValueError, match=r"expected shape \(15,\), got \(14,\)"):
            wave_rate_sum(KERNEL_PHASES, np.zeros((3, 4, 14)))

    def test_params_match_per_wave_loop(self):
        # W and J of an EdmParams carry the bits of the wave-by-wave loop
        for v in _kernel_sets(40):
            eta = vector_to_eta(v)
            want_w, want_rows = _kernel_oracle(KERNEL_PHASES, eta)
            got_w, got_rows = _wave_terms(KERNEL_PHASES, eta, jac=True)
            assert got_w.tobytes() == want_w.tobytes()
            assert got_rows.tobytes() == want_rows.tobytes()
            assert _wave_terms(KERNEL_PHASES, eta)[0].tobytes() == want_w.tobytes()


#: phases across the cycle, both ends of the seam and the float below pi
KERNEL_PHASES = np.concatenate([np.linspace(-math.pi, math.pi, 257),
                                [math.nextafter(math.pi, 0.0),
                                 math.nextafter(-math.pi, 0.0)]])


def _kernel_sets(n):
    """n seeded 15-vectors; later sets put centers at -pi and just below
    pi, and widths at B_FLOOR."""
    rng = np.random.default_rng(17)
    sets = np.empty((n, 15))
    sets[:, 0::3] = rng.uniform(-math.pi, math.pi, (n, 5))
    sets[:, 1::3] = rng.normal(0.0, 10.0, (n, 5))
    sets[:, 2::3] = rng.uniform(B_FLOOR, 0.5, (n, 5))
    sets[n // 4:, 0] = -math.pi
    sets[n // 2:, 12] = math.nextafter(math.pi, 0.0)
    sets[3 * n // 4:, 5::6] = B_FLOOR
    return sets


def _kernel_oracle(phase, eta):
    """W and the 15 J rows by the wave-by-wave loop, on Python floats."""
    w, rows = np.zeros(phase.shape), []
    for wave in eta.waves:
        theta, a, b = float(wave.theta), float(wave.a), float(wave.b)
        d = phase - theta
        d = np.where(d >= math.pi, d - TWO_PI, d)
        d = np.where(d < -math.pi, d + TWO_PI, d)
        dd = d * d
        e = np.exp(-dd / (2.0 * b * b))
        w -= a * d * e
        rows += [a * e * (1.0 - dd / (b * b)), -(d * e),
                 -(a * (dd * d) * e / b ** 3)]
    return w, np.array(rows)


def _flat_eta():
    """All wave amplitudes zero."""
    waves = [WaveParams(theta=w.theta, a=0.0, b=w.b) for w in DEFAULT_ETA.waves]
    return EdmParams(*waves)


class TestEvalRhs:
    """The oscillator's right-hand side through its two kernels:
    ``_circle_rate`` gives (dx, dy), ``wave_rate_sum`` the wave part W of
    dz = W(atan2(y, x)) + z0(t) - z."""

    def test_unit_circle_pure_rotation(self):
        omega = DEFAULT_RHYTHM.omega
        assert _circle_rate(1.0, 0.0, omega) == (0.0, omega)
        assert wave_rate_sum(np.array([0.0]), _flat_eta())[0] == 0.0

    def test_origin_fixed_point_of_xy(self):
        assert _circle_rate(0.0, 0.0, DEFAULT_RHYTHM.omega) == (0.0, 0.0)

    def test_event_center_term_vanishes(self):
        # at the R center the R term has a zero angular offset prefactor
        theta_r = DEFAULT_ETA.R.theta
        without_r = EdmParams(
            P=DEFAULT_ETA.P, Q=DEFAULT_ETA.Q,
            R=WaveParams(theta=theta_r, a=0.0, b=DEFAULT_ETA.R.b),
            S=DEFAULT_ETA.S, T=DEFAULT_ETA.T)
        phase = np.array([theta_r])
        assert wave_rate_sum(phase, DEFAULT_ETA)[0] == wave_rate_sum(phase, without_r)[0]

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x, y = rng.uniform(-1.5, 1.5, 2)
            z, t = rng.uniform(-0.5, 0.5), rng.uniform(0.0, 4.0)
            w = wave_rate_sum(np.array([math.atan2(y, x)]), DEFAULT_ETA)[0]
            fz = w + baseline(t, DEFAULT_RHYTHM) - z
            assert fz == pytest.approx(oracle.fz(x, y, z, t), rel=1e-12, abs=1e-12)

    def test_tangency_exact_on_axis_points(self):
        # on the axes the rotation cross-terms vanish bitwise
        for x, y in [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]:
            fx, fy = _circle_rate(x, y, DEFAULT_RHYTHM.omega)
            assert x * fx + y * fy == 0.0

    def test_tangency_and_rotation_rate_on_circle(self):
        # (0.6, 0.8) lies exactly on the unit circle; the radial component
        # cancels up to one rounding of the omega cross-terms
        omega = DEFAULT_RHYTHM.omega
        for x, y in [(0.6, 0.8), (-0.8, 0.6), (0.28, -0.96)]:
            fx, fy = _circle_rate(x, y, omega)
            assert abs(x * fx + y * fy) <= 4e-15 * omega
            assert x * fy - y * fx == pytest.approx(omega, rel=1e-14)

    def test_deterministic(self):
        x, y = 0.3, -0.7
        assert _circle_rate(x, y, DEFAULT_RHYTHM.omega) == \
            _circle_rate(x, y, DEFAULT_RHYTHM.omega)
        phase = np.array([math.atan2(y, x)])
        assert wave_rate_sum(phase, DEFAULT_ETA).tobytes() == \
            wave_rate_sum(phase, DEFAULT_ETA).tobytes()

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
        with pytest.raises(ValueError, match="finite"):
            RhythmParams(f=1.0, A=math.nan)

    def test_wave_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            WaveParams(theta=0.0, a=math.inf, b=0.1)

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
