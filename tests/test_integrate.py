"""Fixed-step integrators: contracts, accuracy, divergence handling."""

import math

import numpy as np
import pytest

import naive_reference as oracle
from ecgdyn import integrate
from ecgdyn.errors import IntegrationDiverged
from ecgdyn.integrate import (SamplingGrid, Trajectory, beat_grid, integrate_euler,
                              integrate_rk4)
from ecgdyn.model import (DEFAULT_ETA, DEFAULT_RHYTHM, EdmParams, RhythmParams,
                          State, WaveParams, eval_rhs)


def flat_eta():
    return EdmParams(*[WaveParams(w.theta, 0.0, w.b) for w in DEFAULT_ETA.waves])


def r_amplitude(amp):
    """DEFAULT_ETA with the R amplitude replaced by amp."""
    return EdmParams(DEFAULT_ETA.P, DEFAULT_ETA.Q,
                     WaveParams(DEFAULT_ETA.R.theta, amp, DEFAULT_ETA.R.b),
                     DEFAULT_ETA.S, DEFAULT_ETA.T)


QUIET = RhythmParams(f=1.0, A=0.0, f2=0.25)


class TestGrid:
    def test_dt_is_reciprocal(self):
        grid = SamplingGrid(fs=500.0, L=500)
        assert grid.dt == 1.0 / 500.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingGrid(fs=0.0, L=10)
        with pytest.raises(ValueError):
            SamplingGrid(fs=500.0, L=1)
        grid, zeros = SamplingGrid(fs=500.0, L=10), np.zeros(10)
        with pytest.raises(ValueError, match="length 10"):
            Trajectory(grid, zeros, zeros, np.zeros(9))
        with pytest.raises(ValueError, match="non-finite"):
            Trajectory(grid, zeros, np.full(10, np.nan), zeros)

    def test_beat_grid_rounds(self):
        assert beat_grid(500, 1.0).L == 500
        assert beat_grid(500, 1.3).L == round(500 / 1.3)

    @pytest.mark.parametrize("fs, f", [
        (math.inf, 1.0), (math.nan, 1.0), (0.0, 1.0), (-500.0, 1.0),
        (500.0, 1e-320)])
    def test_beat_grid_rejects_before_rounding(self, fs, f):
        # int(round(inf)) raises OverflowError and int(round(nan)) a
        # ValueError that names no input
        with pytest.raises(ValueError, match="sampling frequency"):
            beat_grid(fs, f)

    @pytest.mark.parametrize("fs, f, blamed", [
        (500.0, 0.0, "beat frequency f"), (500.0, -1.0, "beat frequency f"),
        (500.0, math.nan, "beat frequency f"), (500.0, math.inf, "beat frequency f"),
        (math.nan, 0.0, "beat frequency f"), (-500.0, 1.0, "sampling frequency")])
    def test_beat_grid_names_the_bad_input(self, fs, f, blamed):
        # f = 0 used to raise ZeroDivisionError, and f = nan blamed fs
        with pytest.raises(ValueError, match=blamed):
            beat_grid(fs, f)

    def test_times(self):
        grid = SamplingGrid(fs=4.0, L=3)
        assert np.array_equal(grid.times(), [0.0, 0.25, 0.5])


class TestEuler:
    def test_single_forced_step(self):
        grid = SamplingGrid(fs=500.0, L=2)
        traj = integrate_euler(flat_eta(), QUIET, grid, State(1.0, 0.0, 0.0))
        assert traj.x[1] == 1.0
        assert traj.y[1] == QUIET.omega * grid.dt
        assert traj.z[1] == 0.0

    def test_initial_condition_preserved(self):
        init = State(-0.3, 0.4, 0.02, 0.0)
        traj = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM,
                               SamplingGrid(500.0, 2), init)
        assert (traj.x[0], traj.y[0], traj.z[0]) == (init.x, init.y, init.z)

    def test_output_length_equals_grid(self):
        for L in (2, 17, 500):
            traj = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM,
                                   SamplingGrid(500.0, L))
            assert traj.x.shape == traj.y.shape == traj.z.shape == (L,)

    def test_matches_naive_oracle(self):
        traj = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, beat_grid(500, 1.0))
        xs, ys, zs = oracle.euler_trajectory(500, 500)
        assert np.max(np.abs(traj.z - zs)) < 1e-14
        assert np.max(np.abs(traj.x - xs)) < 1e-14

    def test_r_peak_unique_and_near_rk4_oracle(self):
        grid = beat_grid(500, 1.0)
        traj = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, grid)
        peak = float(np.max(traj.z))
        assert np.count_nonzero(traj.z == peak) == 1
        fine = integrate_rk4(DEFAULT_ETA, DEFAULT_RHYTHM, beat_grid(5000, 1.0))
        ref_peak = float(np.max(fine.z[::10]))
        assert abs(peak - ref_peak) <= 0.05 * abs(ref_peak)

    def test_self_consistency_residuals(self):
        grid = beat_grid(500, 1.0)
        traj = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, grid)
        dt = grid.dt
        worst = 0.0
        for l in range(grid.L - 1):
            s = State(float(traj.x[l]), float(traj.y[l]), float(traj.z[l]), l * dt)
            _, _, fz = eval_rhs(s, DEFAULT_ETA, DEFAULT_RHYTHM)
            worst = max(worst, abs((traj.z[l + 1] - traj.z[l]) / dt - fz))
        assert worst < 1e-9

    def test_determinism_bitwise(self):
        a = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, beat_grid(500, 1.0))
        b = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, beat_grid(500, 1.0))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.z, b.z)

    def test_divergence_guard_names_step(self):
        # the named step is the first whose state is non-finite or reaches
        # DIVERGENCE_LIMIT, whatever the integrator computes after it
        cases = [(DEFAULT_ETA, RhythmParams(f=1e6, A=0.0, f2=0.25), 2),
                 (DEFAULT_ETA, RhythmParams(f=300.0, A=0.0, f2=0.25), 8),
                 (r_amplitude(1e12), DEFAULT_RHYTHM, 220)]
        for eta, rhythm, step in cases:
            with pytest.raises(IntegrationDiverged) as err:
                integrate_euler(eta, rhythm, SamplingGrid(500.0, 500))
            assert err.value.step == step
            assert "step" in str(err.value)

    def test_divergence_step_with_cached_circle(self):
        # with the circle already cached by an earlier integration, a
        # diverging z is reported at the first step where the scalar Euler
        # loop reaches DIVERGENCE_LIMIT
        grid = beat_grid(500, 1.0)
        integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, grid)
        for amp in (1e9, 1e12, 1e15):
            eta = r_amplitude(amp)
            amps = list(oracle.AMP)
            amps[2] = amp
            _, _, zs = oracle.euler_trajectory(500, 500, a=tuple(amps))
            step = next(l for l, z in enumerate(zs) if not abs(z) < 1e6)
            with pytest.raises(IntegrationDiverged) as err:
                integrate_euler(eta, DEFAULT_RHYTHM, grid)
            assert err.value.step == step

    def test_circle_shared_and_read_only(self):
        # every lead on one grid reads the one cached (x, y) circle, so a
        # write to it would corrupt every later integration
        grid = beat_grid(500, 1.0)
        a = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, grid)
        b = integrate_euler(flat_eta(), DEFAULT_RHYTHM, grid)
        assert a.x is b.x and a.y is b.y
        for path in (a.x, a.y):
            with pytest.raises(ValueError, match="read-only"):
                path[0] = 0.0
        a.z[0] = 0.0  # z belongs to the caller

    def test_signed_zero_start_not_shared(self):
        # -0.0 == 0.0, but atan2 starts y = -0.0 at phase -pi, not pi
        grid = SamplingGrid(500.0, 20)
        plus = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, grid, State(-1.0, 0.0, 0.0))
        minus = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, grid, State(-1.0, -0.0, 0.0))
        assert math.copysign(1.0, plus.y[0]) == 1.0
        assert math.copysign(1.0, minus.y[0]) == -1.0

    def test_time_offset_chaining(self):
        # two chained half-beats track the single full integration
        grid = beat_grid(500, 1.0)
        full = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, grid)
        half = SamplingGrid(500.0, 251)
        first = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, half)
        mid = State(float(first.x[-1]), float(first.y[-1]), float(first.z[-1]),
                    250 * grid.dt)
        second = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM,
                                 SamplingGrid(500.0, 250), mid)
        chained = np.concatenate([first.z[:-1], second.z])
        assert np.max(np.abs(chained - full.z)) < 1e-12


def _scalar_euler_z(z0, drift, dt):
    """The z recurrence stepped one sample at a time."""
    z, zs = z0, [z0]
    for d in drift.tolist():
        z += dt * (d - z)
        zs.append(z)
    return np.array(zs)


class TestEulerRecurrence:
    @pytest.mark.parametrize("L", [2, 3, 500, 4097])
    @pytest.mark.parametrize("dt", [1 / 1000, 1 / 257.3, 0.25, 1.0, 1.5])
    def test_matches_scalar_loop(self, dt, L):
        # the scan rounds apart from the loop; 1.0 has r = 1 - dt = 0, 1.5 a
        # negative r, and 0.25 and 1.5 weights that underflow by L = 4097
        rng = np.random.default_rng(L)
        t = np.arange(L - 1) * dt
        for drift in (rng.normal(0.0, 5.0, L - 1),
                      30.0 * np.sin(6.0 * t) + rng.normal(0.0, 0.1, L - 1),
                      np.full(L - 1, 2.5)):
            z0 = float(rng.normal())
            want = _scalar_euler_z(z0, drift, dt)
            got = integrate._euler_z(z0, drift, dt)
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_overflowing_weight_adds_no_nan(self):
        # at dt = 2.5 the weight (-1.5)**k overflows for long spans; the
        # loop's path from 0 under zero drift stays 0
        z = integrate._euler_z(0.0, np.zeros(4096), 2.5)
        assert z.tolist() == _scalar_euler_z(0.0, np.zeros(4096), 2.5).tolist()

    def test_overflowing_weight_keeps_early_terms(self):
        # (-1.5)**2048 overflows, yet the loop keeps 1e-300 * 1.5**l finite
        # to the end; a dropped early term would leave 0 from sample 2048
        want = _scalar_euler_z(1e-300, np.zeros(3000), 2.5)
        got = integrate._euler_z(1e-300, np.zeros(3000), 2.5)
        assert np.all(np.isfinite(want)) and np.all(np.isfinite(got))
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


class TestRk4:
    def test_circle_radius_and_closed_form(self):
        grid = SamplingGrid(500.0, 500)
        traj = integrate_rk4(flat_eta(), QUIET, grid, State(1.0, 0.0, 0.0))
        radius = np.hypot(traj.x, traj.y)
        assert np.max(np.abs(radius - 1.0)) < 1e-6
        t = grid.times()
        assert np.max(np.abs(traj.x - np.cos(QUIET.omega * t))) < 1e-6
        assert np.max(np.abs(traj.y - np.sin(QUIET.omega * t))) < 1e-6

    def test_initial_condition_preserved(self):
        init = State(0.1, -0.9, 0.3, 0.0)
        traj = integrate_rk4(DEFAULT_ETA, DEFAULT_RHYTHM, SamplingGrid(500.0, 2), init)
        assert (traj.x[0], traj.y[0], traj.z[0]) == (init.x, init.y, init.z)

    def test_euler_error_halves_with_fs(self):
        diffs = {}
        for fs in (500, 1000):
            grid = SamplingGrid(float(fs), fs)  # one second
            euler = integrate_euler(DEFAULT_ETA, DEFAULT_RHYTHM, grid)
            rk4 = integrate_rk4(DEFAULT_ETA, DEFAULT_RHYTHM, grid)
            diffs[fs] = float(np.max(np.abs(euler.z - rk4.z)))
        assert 1.7 <= diffs[500] / diffs[1000] <= 2.3

    def test_matches_naive_oracle(self):
        # waves and wander on, from a non-zero start time
        for fs in (500, 2000):
            traj = integrate_rk4(DEFAULT_ETA, DEFAULT_RHYTHM, beat_grid(fs, 1.0),
                                 State(-1.0, 0.0, 0.05, 0.37))
            xs, ys, zs = oracle.rk4_trajectory(fs, fs, z0=0.05, t0=0.37)
            assert np.max(np.abs(traj.x - xs)) < 1e-12
            assert np.max(np.abs(traj.y - ys)) < 1e-12
            assert np.max(np.abs(traj.z - zs)) < 1e-12

    def test_one_wave_evaluation_per_run(self, monkeypatch):
        # every stage's W comes from one wave_rate_sum call over the four
        # stage phases of every step
        calls = []
        wave_rate_sum = integrate.wave_rate_sum

        def counted(phase, eta):
            calls.append(np.shape(phase))
            return wave_rate_sum(phase, eta)

        monkeypatch.setattr(integrate, "wave_rate_sum", counted)
        grid = SamplingGrid(500.0, 500)
        integrate_rk4(DEFAULT_ETA, DEFAULT_RHYTHM, grid)
        assert calls == [(4 * (grid.L - 1),)]

    def test_divergence_guard_names_step(self):
        cases = [(DEFAULT_ETA, RhythmParams(f=1e6, A=0.0, f2=0.25), 1),
                 (DEFAULT_ETA, RhythmParams(f=300.0, A=0.0, f2=0.25), 6),
                 (r_amplitude(1e9), DEFAULT_RHYTHM, 243),
                 (r_amplitude(1e12), DEFAULT_RHYTHM, 220),
                 (r_amplitude(1e15), DEFAULT_RHYTHM, 208)]
        for eta, rhythm, step in cases:
            with pytest.raises(IntegrationDiverged) as err:
                integrate_rk4(eta, rhythm, SamplingGrid(500.0, 500))
            assert err.value.step == step

    def test_limit_cycle_attraction_quick(self):
        grid = SamplingGrid(2000.0, 2000 * 6)  # six seconds
        for r0 in (0.5, 1.5):
            traj = integrate_rk4(DEFAULT_ETA, DEFAULT_RHYTHM, grid,
                                 State(-r0, 0.0, 0.0))
            r_end = math.hypot(traj.x[-1], traj.y[-1])
            assert abs(r_end - 1.0) < 5e-3
