"""Fixed-step integration of the oscillator on a sampling grid."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IntegrationDiverged
from .model import (N_PARAMS, EdmParams, RhythmParams, State, _circle_rate, _unchecked,
                    baseline, wave_rate_sum)

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


@dataclass
class _Reference(Trajectory):
    """A path a distance can be measured along: a ``Trajectory`` that also
    carries its rhythm, the phase atan2(y_l, x_l) and the baseline z0(t_l)
    at the start of every step, from the start time t_0 on."""

    rhythm: RhythmParams
    phase: np.ndarray
    z0: np.ndarray


def _check_paths(*paths: np.ndarray) -> None:
    """Raise IntegrationDiverged at the first step where any path is
    non-finite or reaches DIVERGENCE_LIMIT; sample 0 is the given init."""
    bad = ~np.all([np.abs(p[1:]) < DIVERGENCE_LIMIT for p in paths], axis=0)
    if bad.any():
        raise IntegrationDiverged(int(np.argmax(bad)) + 1)


def _euler_z(z0, drift: np.ndarray, dt: float) -> np.ndarray:
    """Forward Euler on the rate drift - z, z[l+1] = r*z[l] + dt*drift[l] with
    r = 1 - dt, as a prefix scan: pass k = 1, 2, 4, ... adds r**k * z[l-k] to
    each z[l], a few ulp of the largest partial sum off a scalar loop. z0 of
    shape (...) and drift of shape (..., n) may carry leading batch axes;
    each row is scanned as on its own, bit for bit. Passes
    stop once the weight underflows. Where it would overflow (|1 - dt| > 1,
    where Euler is unstable) it is kept as w * 2**e, w in [0.25, 1), and a
    pass adds w * ldexp(z[l-k], e). No term is dropped: a z well inside the
    float range comes out to rounding, one near or past its end as inf or
    NaN, and 0 stays 0.
    RK4 is this recurrence with dt = 1 - R(h), see ``integrate_rk4``."""
    z = np.empty(drift.shape[:-1] + (drift.shape[-1] + 1,))
    z[..., 0] = z0
    np.multiply(dt, drift, out=z[..., 1:])
    steps = z.T  # the samples along the first axis, every row at once
    k, w, e = 1, 1.0 - dt, 0  # pass k's weight (1 - dt)**k is w * 2**e
    while k < len(steps) and w != 0.0:
        # past 2**2100, ldexp takes any z but 0 to inf; its exponent is an int32
        steps[k:] += w * np.ldexp(steps[:-k], min(e, 2100)) if e else w * steps[:-k]
        if e or abs(w * w) == math.inf:
            m, shift = math.frexp(w)
            w, e = m * m, 2 * (e + shift)
        else:
            w *= w
        k *= 2
    return z


@lru_cache(maxsize=32)
def _reference(rhythm: RhythmParams, grid: SamplingGrid, start: tuple[str, str],
               t0: float) -> _Reference:
    """The entry ``reference_trajectory`` returns: the forward-Euler (x, y)
    path of the cycle from x0, y0 with z all zero, its phase and its
    baseline from t0, every array read-only. The path is checked for
    divergence once, here. start holds x0 and y0 as ``float.hex`` strings:
    signed zeros compare equal as floats, yet atan2(+-0.0, -1.0) starts the
    phase at +-pi.
    """
    dt, omega = grid.dt, rhythm.omega
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
    z0 = baseline(t0 + grid.times()[:-1], rhythm)
    for arr in (xs, ys, zs, phase, z0):
        arr.flags.writeable = False
    return _Reference(grid=grid, x=xs, y=ys, z=zs, rhythm=rhythm, phase=phase, z0=z0)


def reference_trajectory(rhythm: RhythmParams, grid: SamplingGrid,
                         init: State = DEFAULT_INIT) -> _Reference:
    """The reference path of a rhythm on a grid from init, cached.

    The (x, y) circle is independent of z and of the waves, so one path
    serves every lead ``integrate_euler`` integrates and every distance on
    the grid. It carries its rhythm, its phase and its baseline from
    init.t, with z all zero and every array read-only; ``cache_info`` and
    ``cache_clear`` are its cache's. The cache has one entry per rhythm,
    grid, start x and y and start time.
    """
    return _reference(rhythm, grid, (float(init.x).hex(), float(init.y).hex()), init.t)


reference_trajectory.cache_info = _reference.cache_info
reference_trajectory.cache_clear = _reference.cache_clear


def _check_one_set(eta: EdmParams | np.ndarray) -> None:
    """An integrator steps one wave set: refuse a batch of vectors by its
    shape, before it broadcasts into a batch of paths."""
    if not isinstance(eta, EdmParams) and np.shape(eta) != (N_PARAMS,):
        raise ValueError(f"expected shape ({N_PARAMS},), got {np.shape(eta)}")


def integrate_euler(eta: EdmParams | np.ndarray, rhythm: RhythmParams,
                    grid: SamplingGrid, init: State = DEFAULT_INIT) -> _Reference:
    """Forward-Euler trajectory: u[l+1] = u[l] + f(u[l], t_l)*dt.

    The (x, y) circle does not depend on z or on the waves, so it comes,
    read-only and checked, from ``reference_trajectory``'s cache, shared by
    every lead and the distances. The z-rate is linear in z, so its
    z-independent part drift[l] = W(atan2(y_l, x_l)) + z0(t_l) is evaluated
    over the whole path at once, phase and z0 from that entry, and
    ``_euler_z`` solves z[l+1] = z[l] + dt*(drift[l] - z[l]) in whole-array
    passes. Divergence of z is tested once over the finished path, by one
    comparison, and reported at the first bad step; x and y were checked
    with the circle, so the path is built without checking again. It is
    returned as the entry with z filled in, so it serves as a reference
    itself.

    eta is an ``EdmParams`` or its 15-vector in PARAM_NAMES order, such as
    a projected draw; an array of another shape, a (k, 15) batch too, is
    refused by its shape, and ``wave_rate_sum`` checks a vector against
    ``WaveParams``' rules, with its messages, before any step is taken.

    Sample times run t_l = init.t + l*dt, so a record can be integrated in
    chained segments by passing each segment's end state (and time) as the
    next segment's init.
    """
    _check_one_set(eta)
    ref = reference_trajectory(rhythm, grid, init)
    zs = _euler_z(init.z, wave_rate_sum(ref.phase, eta) + ref.z0, grid.dt)
    if not (np.abs(zs[1:]) < DIVERGENCE_LIMIT).all():
        _check_paths(zs)  # names the first bad step
    return _unchecked(_Reference, **{**vars(ref), "z": zs})


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
    _check_one_set(eta)
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
