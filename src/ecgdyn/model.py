"""Core heartbeat oscillator: wave parameters and right-hand sides.

The model runs a point around an attracting unit circle in the (x, y)
plane; one revolution is one cardiac cycle. Five Gaussian events placed
at fixed angles deflect the vertical coordinate z, producing the P, Q,
R, S and T waves. A slow sinusoid models respiratory baseline wander.

The structure every other module builds on: the (x, y) circle ignores
the waves, and the z-rate W(phase) + z0(t) - z is linear in z and in the
wave amplitudes. ``_wave_terms`` is the only vectorized copy of the
Gaussian sum W and of its Jacobian in the wave parameters; integration,
the consistency distances and fitting all evaluate W through it.
``make_rhs`` keeps a scalar copy for the RK4 reference and ``eval_rhs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

WAVE_NAMES = ("P", "Q", "R", "S", "T")

#: Width floor used by gradient and sampling code; narrower Gaussians are
#: numerically ill-behaved when differentiated with respect to b.
B_FLOOR = 1e-3


def wrap_angle(phi: float) -> float:
    """Reduce an angle to the half-open interval [-pi, pi).

    Values already in range are returned bit-identical, which keeps the
    function exactly idempotent.
    """
    if not math.isfinite(phi):
        raise ValueError(f"angle must be finite, got {phi!r}")
    if -math.pi <= phi < math.pi:
        return phi
    w = (phi + math.pi) % TWO_PI - math.pi
    if w >= math.pi:  # float modulo can land exactly on the seam
        w = -math.pi
    return w


@dataclass(frozen=True)
class WaveParams:
    """One Gaussian event on the cycle: center angle, amplitude, width."""

    theta: float  # rad, in [-pi, pi)
    a: float      # dimensionless amplitude
    b: float      # rad, angular width, > 0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.theta, self.a, self.b)):
            raise ValueError("wave parameters must be finite")
        if not -math.pi <= self.theta < math.pi:
            raise ValueError(f"theta {self.theta} outside [-pi, pi)")
        if self.b <= 0.0:
            raise ValueError(f"width b must be positive, got {self.b}")


@dataclass(frozen=True)
class EdmParams:
    """The five wave events of one lead, keyed P, Q, R, S, T."""

    P: WaveParams
    Q: WaveParams
    R: WaveParams
    S: WaveParams
    T: WaveParams

    @property
    def waves(self) -> tuple[WaveParams, ...]:
        return (self.P, self.Q, self.R, self.S, self.T)

    def wave(self, name: str) -> WaveParams:
        if name not in WAVE_NAMES:
            raise KeyError(name)
        return getattr(self, name)

    def is_ordered(self) -> bool:
        """True when the event centers follow the P<Q<R<S<T morphology."""
        thetas = [w.theta for w in self.waves]
        return all(lo < hi for lo, hi in zip(thetas, thetas[1:]))


# Canonical vector layout used for fitting, sampling and gradients:
# (theta, a, b) per wave, waves in P..T order.
PARAM_NAMES = tuple(
    f"{wave}.{field}" for wave in WAVE_NAMES for field in ("theta", "a", "b")
)
N_PARAMS = len(PARAM_NAMES)  # 15


def eta_to_vector(eta: EdmParams) -> np.ndarray:
    """Flatten to the canonical 15-vector (theta, a, b per wave, P..T)."""
    out = np.empty(N_PARAMS)
    for i, w in enumerate(eta.waves):
        out[3 * i : 3 * i + 3] = (w.theta, w.a, w.b)
    return out


def vector_to_eta(vec) -> EdmParams:
    """Inverse of eta_to_vector; values are used as-is (no wrapping)."""
    v = np.asarray(vec, dtype=float)
    if v.shape != (N_PARAMS,):
        raise ValueError(f"expected shape ({N_PARAMS},), got {v.shape}")
    waves = [WaveParams(*v[3 * i : 3 * i + 3]) for i in range(5)]
    return EdmParams(*waves)


@dataclass(frozen=True)
class RhythmParams:
    """Heart rate and respiration: f in Hz, wander amplitude A, f2 in Hz."""

    f: float
    A: float = 0.15
    f2: float = 0.25

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.f, self.A, self.f2)):
            raise ValueError("rhythm parameters must be finite")
        if self.f <= 0.0:
            raise ValueError(f"heart-rate frequency must be positive, got {self.f}")
        if self.A < 0.0 or self.f2 < 0.0:
            raise ValueError("wander amplitude and frequency must be >= 0")

    @property
    def omega(self) -> float:
        """Angular velocity around the cycle, 2*pi*f."""
        return TWO_PI * self.f


@dataclass(frozen=True)
class State:
    """A point of the oscillator: coordinates (x, y, z) at time t."""

    x: float
    y: float
    z: float
    t: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z, self.t)):
            raise ValueError("state components must be finite")


def baseline(t, rhythm: RhythmParams):
    """Respiratory baseline wander z0(t) = A*sin(2*pi*f2*t)."""
    if isinstance(t, np.ndarray):
        return rhythm.A * np.sin(TWO_PI * rhythm.f2 * t)
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    return rhythm.A * math.sin(TWO_PI * rhythm.f2 * t)


def make_rhs(eta: EdmParams, rhythm: RhythmParams):
    """Build a fast scalar f(x, y, z, t) -> (dx, dy, dz) closure.

    The RK4 reference integrator calls this once per run so the per-step
    work is plain float arithmetic over precomputed wave constants.
    """
    waves = tuple((w.theta, w.a, 1.0 / (2.0 * w.b * w.b)) for w in eta.waves)
    omega = rhythm.omega
    amp = rhythm.A
    wf2 = TWO_PI * rhythm.f2
    sqrt, atan2, exp, sin = math.sqrt, math.atan2, math.exp, math.sin
    pi = math.pi

    def rhs(x: float, y: float, z: float, t: float):
        alpha = 1.0 - sqrt(x * x + y * y)
        phase = atan2(y, x)
        acc = 0.0
        for theta_i, a_i, inv2b2 in waves:
            d = phase - theta_i
            # phase in [-pi, pi], theta in [-pi, pi): one step suffices
            if d >= pi:
                d -= TWO_PI
            elif d < -pi:
                d += TWO_PI
            acc += a_i * d * exp(-d * d * inv2b2)
        dz = -acc - (z - amp * sin(wf2 * t))
        return alpha * x - omega * y, alpha * y + omega * x, dz

    return rhs


def eval_rhs(s: State, eta: EdmParams, rhythm: RhythmParams) -> tuple[float, float, float]:
    """Time derivatives (dx, dy, dz) of the oscillator at state s."""
    return make_rhs(eta, rhythm)(s.x, s.y, s.z, s.t)


def _wave_terms(phase, eta: EdmParams, jac: bool = False):
    """Gaussian-event rate W and, if jac is set, its parameter Jacobian.

    W(phase) = -sum_i a_i*d_i*exp(-d_i^2/2b_i^2) with d_i = phase - theta_i.
    Returns (W, J): J is the 15 x N array of dW/d(eta) rows in PARAM_NAMES
    order, or None without jac. phase must lie in [-pi, pi]; with theta in
    [-pi, pi) one conditional 2*pi shift then wraps d, as in ``make_rhs``,
    and J treats that shift as locally constant.
    """
    phase = np.asarray(phase, dtype=float)
    w_sum = np.zeros_like(phase)
    J = np.empty((N_PARAMS,) + phase.shape) if jac else None
    for i, w in enumerate(eta.waves):
        d = phase - w.theta
        d = np.where(d >= math.pi, d - TWO_PI, np.where(d < -math.pi, d + TWO_PI, d))
        dd = d * d
        e = np.exp(-dd / (2.0 * w.b * w.b))
        w_sum -= w.a * d * e
        if jac:
            J[3 * i] = w.a * e * (1.0 - dd / (w.b * w.b))
            J[3 * i + 1] = -(d * e)
            J[3 * i + 2] = -(w.a * (dd * d) * e / w.b ** 3)
    return w_sum, J


def wave_rate_sum(phase: np.ndarray, eta: EdmParams) -> np.ndarray:
    """Vectorized Gaussian-event part of dz, the rate W of ``_wave_terms``."""
    return _wave_terms(phase, eta)[0]


# Reference resting-beat parameters: visible P wave, dominant R, broad T.
DEFAULT_ETA = EdmParams(
    P=WaveParams(theta=-math.pi / 3.0, a=1.2, b=0.25),
    Q=WaveParams(theta=-math.pi / 12.0, a=-5.0, b=0.1),
    R=WaveParams(theta=0.0, a=30.0, b=0.1),
    S=WaveParams(theta=math.pi / 12.0, a=-7.5, b=0.1),
    T=WaveParams(theta=math.pi / 2.0, a=0.75, b=0.4),
)

#: 60 bpm with mild respiratory wander.
DEFAULT_RHYTHM = RhythmParams(f=1.0, A=0.15, f2=0.25)
