"""Fixed-step integrators: contracts, accuracy, divergence handling."""

import math

import numpy as np
import pytest

import naive_reference as oracle
from ecgdyn.errors import IntegrationDiverged
from ecgdyn.integrate import (SamplingGrid, beat_grid, integrate_euler,
                              integrate_rk4)
from ecgdyn.model import (DEFAULT_ETA, DEFAULT_RHYTHM, EdmParams, RhythmParams,
                          State, WaveParams, eval_rhs)


def flat_eta():
    return EdmParams(*[WaveParams(w.theta, 0.0, w.b) for w in DEFAULT_ETA.waves])


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

    def test_beat_grid_rounds(self):
        assert beat_grid(500, 1.0).L == 500
        assert beat_grid(500, 1.3).L == round(500 / 1.3)

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
        huge_r = EdmParams(DEFAULT_ETA.P, DEFAULT_ETA.Q,
                           WaveParams(DEFAULT_ETA.R.theta, 1e12, DEFAULT_ETA.R.b),
                           DEFAULT_ETA.S, DEFAULT_ETA.T)
        cases = [(DEFAULT_ETA, RhythmParams(f=1e6, A=0.0, f2=0.25), 2),
                 (DEFAULT_ETA, RhythmParams(f=300.0, A=0.0, f2=0.25), 8),
                 (huge_r, DEFAULT_RHYTHM, 220)]
        for eta, rhythm, step in cases:
            with pytest.raises(IntegrationDiverged) as err:
                integrate_euler(eta, rhythm, SamplingGrid(500.0, 500))
            assert err.value.step == step
            assert "step" in str(err.value)

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

    def test_divergence_guard_names_step(self):
        for f, step in ((1e6, 1), (300.0, 6)):
            with pytest.raises(IntegrationDiverged) as err:
                integrate_rk4(DEFAULT_ETA, RhythmParams(f=f, A=0.0, f2=0.25),
                              SamplingGrid(500.0, 500))
            assert err.value.step == step

    def test_limit_cycle_attraction_quick(self):
        grid = SamplingGrid(2000.0, 2000 * 6)  # six seconds
        for r0 in (0.5, 1.5):
            traj = integrate_rk4(DEFAULT_ETA, DEFAULT_RHYTHM, grid,
                                 State(-r0, 0.0, 0.0))
            r_end = math.hypot(traj.x[-1], traj.y[-1])
            assert abs(r_end - 1.0) < 5e-3
