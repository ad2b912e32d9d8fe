"""Fixed-step integration of the oscillator on a sampling grid."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IntegrationDiverged
from .model import EdmParams, RhythmParams, State, _circle_rate, baseline, wave_rate_sum

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
    if not (f > 0.0 and math.isfinite(f)):
        raise ValueError(f"beat frequency f must be positive and finite, got {f}")
    if not (fs > 0.0 and math.isfinite(fs / f)):  # also rejects a NaN or infinite fs
        raise ValueError(f"sampling frequency must be positive and finite over f, got {fs}")
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
    bad = ~np.all([np.abs(p[1:]) < DIVERGENCE_LIMIT for p in paths], axis=0)
    if bad.any():
        raise IntegrationDiverged(int(np.argmax(bad)) + 1)


def _euler_z(z0: float, drift: np.ndarray, dt: float) -> np.ndarray:
    """Forward Euler on the rate drift - z, z[l+1] = r*z[l] + dt*drift[l] with
    r = 1 - dt, as a prefix scan: pass k = 1, 2, 4, ... adds r**k * z[l-k] to
    each z[l], a few ulp of the largest partial sum off a scalar loop. Passes
    stop once the weight underflows or overflows (|1 - dt| > 1): 0*inf is NaN.
    RK4 is this recurrence with dt = 1 - R(h), see ``integrate_rk4``."""
    z = np.concatenate(([z0], dt * drift))
    k, r = 1, 1.0 - dt
    while k < z.size and 0.0 < abs(r) < math.inf:
        z[k:] += r * z[:-k]
        k, r = 2 * k, r * r
    return z


@lru_cache(maxsize=32)
def _circle_cache(omega: float, grid: SamplingGrid, start: tuple[str, str]):
    """The reference trajectory of the cycle and its phase, cached.

    Returns the forward-Euler (x, y) path from x0, y0 as a Trajectory with
    z all zero, every array read-only, and the phase atan2(y_l, x_l) at the
    start of every step. The path is checked for divergence once, here.
    start holds x0 and y0 as ``float.hex`` strings: signed zeros compare
    equal as floats, yet atan2(+-0.0, -1.0) starts the phase at +-pi.
    """
    dt = grid.dt
    x, y = map(float.fromhex, start)
    xs, ys = [x], [y]
    for _ in range(grid.L - 1):
        dx, dy = _circle_rate(x, y, omega)
        x, y = x + dx * dt, y + dy * dt
        xs.append(x)
        ys.append(y)
    xs, ys, zs = np.array(xs), np.array(ys), np.zeros(grid.L)
    _check_paths(xs, ys)
    phase = np.arctan2(ys[:-1], xs[:-1])
    for arr in (xs, ys, zs, phase):
        arr.flags.writeable = False
    return Trajectory(grid=grid, x=xs, y=ys, z=zs), phase


def _circle(omega: float, grid: SamplingGrid, init: State):
    """The cached (reference, phase) of the cycle from init's x and y."""
    return _circle_cache(omega, grid, (float(init.x).hex(), float(init.y).hex()))


@lru_cache(maxsize=32)
def _baseline_path(rhythm: RhythmParams, grid: SamplingGrid, t0: float) -> np.ndarray:
    """z0(t_l) at every step start t_l = t0 + l*dt, cached read-only."""
    z0 = baseline(t0 + grid.times()[:-1], rhythm)
    z0.flags.writeable = False
    return z0


def integrate_euler(eta: EdmParams, rhythm: RhythmParams, grid: SamplingGrid,
                    init: State = DEFAULT_INIT) -> Trajectory:
    """Forward-Euler trajectory: u[l+1] = u[l] + f(u[l], t_l)*dt.

    The (x, y) circle does not depend on z or on the waves, so it comes,
    read-only and checked, from the cache of ``_circle``, shared by every
    lead and the reference. The z-rate is linear in z, so its z-independent
    part drift[l] = W(atan2(y_l, x_l)) + z0(t_l) is evaluated over the
    whole path at once, z0 from the cache of ``_baseline_path``, and
    ``_euler_z`` solves z[l+1] = z[l] + dt*(drift[l] - z[l]) in whole-array
    passes. Divergence of z is checked once over the finished path and
    reported at the first bad step.

    Sample times run t_l = init.t + l*dt, so a record can be integrated in
    chained segments by passing each segment's end state (and time) as the
    next segment's init.
    """
    ref, phase = _circle(rhythm.omega, grid, init)
    drift = wave_rate_sum(phase, eta) + _baseline_path(rhythm, grid, init.t)
    zs = _euler_z(init.z, drift, grid.dt)
    _check_paths(zs)
    return Trajectory(grid=grid, x=ref.x, y=ref.y, z=zs)


def integrate_rk4(eta: EdmParams, rhythm: RhythmParams, grid: SamplingGrid,
                  init: State = DEFAULT_INIT) -> Trajectory:
    """Classical 4th-order Runge-Kutta on the same fixed grid.

    Used as the accuracy reference for the first-order scheme. The (x, y)
    stages ignore z and the waves, so a scalar loop steps them first and
    records the phase of all four stages of every step. One
    ``wave_rate_sum`` call over those 4(L-1) phases, plus z0 at t, t+h/2,
    t+h/2 and t+h, gives each stage's drift d1..d4. The z-rate d - z is
    linear, so a step is z[l+1] = R*z[l] + u[l], with R = 1 - h + h^2/2 -
    h^3/6 + h^4/24 and u = h/6*((1 - h + h^2/2 - h^3/4)*d1 + (2 - h + h^2/2)*d2
    + (2 - h)*d3 + d4): ``_euler_z`` with the step 1 - R on the drift u/(1 - R).
    """
    omega = rhythm.omega
    dt = grid.dt
    half = 0.5 * dt
    atan2 = math.atan2
    x, y = init.x, init.y
    xs, ys, phase = [x], [y], []
    for _ in range(grid.L - 1):
        k1x, k1y = _circle_rate(x, y, omega)
        x2, y2 = x + half * k1x, y + half * k1y
        k2x, k2y = _circle_rate(x2, y2, omega)
        x3, y3 = x + half * k2x, y + half * k2y
        k3x, k3y = _circle_rate(x3, y3, omega)
        x4, y4 = x + dt * k3x, y + dt * k3y
        k4x, k4y = _circle_rate(x4, y4, omega)
        phase += (atan2(y, x), atan2(y2, x2), atan2(y3, x3), atan2(y4, x4))
        x += (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y += (dt / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        xs.append(x)
        ys.append(y)
    t = (init.t + grid.times()[:-1])[:, None] + np.array([0.0, half, half, dt])
    drift = wave_rate_sum(np.array(phase), eta) + baseline(t.ravel(), rhythm)
    d1, d2, d3, d4 = drift.reshape(-1, 4).T
    u = (1.0 - dt + half * dt - dt ** 3 / 4.0) * d1 + (2.0 - dt + half * dt) * d2
    step = dt * (1.0 - half + dt * dt / 6.0 - dt ** 3 / 24.0)  # 1 - R, free of cancellation
    zs = _euler_z(init.z, (dt / 6.0 / step) * (u + (2.0 - dt) * d3 + d4), step)
    xs, ys = np.array(xs), np.array(ys)
    _check_paths(xs, ys, zs)
    return Trajectory(grid=grid, x=xs, y=ys, z=zs)
