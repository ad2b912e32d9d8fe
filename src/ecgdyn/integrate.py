"""Fixed-step integration of the oscillator on a sampling grid."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationDiverged
from .model import EdmParams, RhythmParams, State, baseline, make_rhs, wave_rate_sum

#: Abort threshold: forward Euler with absurd parameters can blow up silently.
DIVERGENCE_LIMIT = 1e6

#: Starting point theta0 = -pi, so one revolution sweeps P..T within a beat.
DEFAULT_INIT = State(x=-1.0, y=0.0, z=0.0, t=0.0)


@dataclass(frozen=True)
class SamplingGrid:
    """Uniform grid: fs in Hz, L samples, dt = 1/fs by construction."""

    fs: float
    L: int

    def __post_init__(self):
        if not (math.isfinite(self.fs) and self.fs > 0.0):
            raise ValueError(f"sampling frequency must be positive, got {self.fs}")
        if self.L < 2:
            raise ValueError(f"need at least 2 samples, got {self.L}")

    @property
    def dt(self) -> float:
        return 1.0 / self.fs

    def times(self) -> np.ndarray:
        """Sample times l*dt for l = 0..L-1."""
        return np.arange(self.L) * self.dt


def beat_grid(fs: float, f: float) -> SamplingGrid:
    """Grid for one beat: L = round(fs/f), one cycle revolution per beat."""
    return SamplingGrid(fs=fs, L=int(round(fs / f)))


@dataclass
class Trajectory:
    """Discrete (x, y, z) paths on a grid, one value per sample."""

    grid: SamplingGrid
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        for name in ("x", "y", "z"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.grid.L,):
                raise ValueError(f"{name} must have length {self.grid.L}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
            setattr(self, name, arr)


def _check_paths(*paths: np.ndarray) -> None:
    """Raise IntegrationDiverged at the first step where any path is
    non-finite or reaches DIVERGENCE_LIMIT; sample 0 is the given init."""
    bad = np.zeros(len(paths[0]) - 1, dtype=bool)
    for p in paths:
        bad |= ~(np.abs(p[1:]) < DIVERGENCE_LIMIT)
    if bad.any():
        raise IntegrationDiverged(int(np.argmax(bad)) + 1)


def integrate_euler(eta: EdmParams, rhythm: RhythmParams, grid: SamplingGrid,
                    init: State = DEFAULT_INIT) -> Trajectory:
    """Forward-Euler trajectory: u[l+1] = u[l] + f(u[l], t_l)*dt.

    The (x, y) circle does not depend on z or on the waves, so a scalar
    loop advances x and y alone. The z-rate is linear in z, so its
    z-independent part drift[l] = W(atan2(y_l, x_l)) + z0(t_l) is evaluated
    over the whole path at once, and z follows the recurrence
    z[l+1] = z[l] + dt*(drift[l] - z[l]). Divergence is checked once over
    the finished paths and reported at the first bad step.

    Sample times run t_l = init.t + l*dt, so a record can be integrated in
    chained segments by passing each segment's end state (and time) as the
    next segment's init.
    """
    dt = grid.dt
    omega = rhythm.omega
    sqrt = math.sqrt
    x, y = init.x, init.y
    xs, ys = [x], [y]
    for _ in range(grid.L - 1):
        alpha = 1.0 - sqrt(x * x + y * y)
        x, y = x + (alpha * x - omega * y) * dt, y + (alpha * y + omega * x) * dt
        xs.append(x)
        ys.append(y)
    xs, ys = np.array(xs), np.array(ys)
    t = init.t + grid.times()[:-1]
    drift = wave_rate_sum(np.arctan2(ys[:-1], xs[:-1]), eta) + baseline(t, rhythm)
    z = init.z
    zs = [z]
    for d in drift.tolist():
        z += dt * (d - z)
        zs.append(z)
    zs = np.array(zs)
    _check_paths(xs, ys, zs)
    return Trajectory(grid=grid, x=xs, y=ys, z=zs)


def integrate_rk4(eta: EdmParams, rhythm: RhythmParams, grid: SamplingGrid,
                  init: State = DEFAULT_INIT) -> Trajectory:
    """Classical 4th-order Runge-Kutta on the same fixed grid.

    Used as the accuracy reference for the first-order scheme.
    """
    rhs = make_rhs(eta, rhythm)
    dt = grid.dt
    half = 0.5 * dt
    t0 = init.t
    n = grid.L
    xs = np.empty(n)
    ys = np.empty(n)
    zs = np.empty(n)
    x, y, z = init.x, init.y, init.z
    xs[0], ys[0], zs[0] = x, y, z
    for step in range(n - 1):
        t = t0 + step * dt
        k1x, k1y, k1z = rhs(x, y, z, t)
        k2x, k2y, k2z = rhs(x + half * k1x, y + half * k1y, z + half * k1z, t + half)
        k3x, k3y, k3z = rhs(x + half * k2x, y + half * k2y, z + half * k2z, t + half)
        k4x, k4y, k4z = rhs(x + dt * k3x, y + dt * k3y, z + dt * k3z, t + dt)
        x += (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y += (dt / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        z += (dt / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        xs[step + 1], ys[step + 1], zs[step + 1] = x, y, z
    _check_paths(xs, ys, zs)
    return Trajectory(grid=grid, x=xs, y=ys, z=zs)
