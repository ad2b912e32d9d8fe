"""Core heartbeat oscillator: wave parameters and right-hand sides.

The model runs a point around an attracting unit circle in the (x, y)
plane; one revolution is one cardiac cycle. Five Gaussian events placed
at fixed angles deflect the vertical coordinate z, producing the P, Q,
R, S and T waves. A slow sinusoid models respiratory baseline wander.

The structure every other module builds on: the (x, y) circle ignores
the waves, and the z-rate W(phase) + z0(t) - z is linear in z and in the
wave amplitudes. ``_wave_terms`` is the only vectorized copy of the
Gaussian sum W and of its Jacobian in the wave parameters; integration,
the consistency distances, fitting and the loss's quadrature nodes all
evaluate W through it. It takes one ``EdmParams`` or a batch of parameter
vectors, such as a (leads, 15) array, and returns one W per vector on the
phase grid, (leads, N), the five waves on one axis.
``_circle_rate`` is the only copy of the (x, y) rate, stepped by both
integrators.
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


def wrap_angle(phi):
    """Reduce an angle, or every angle of an array, to [-pi, pi).

    Values already in range are returned bit-identical, which keeps the
    function exactly idempotent; others go through the float modulo. A
    float comes back as a float.
    """
    arr = np.asarray(phi, dtype=float)
    bad = ~np.isfinite(arr)
    if bad.any():
        raise ValueError(f"angle must be finite, got {float(arr[bad][0])!r}")
    w = np.remainder(arr + math.pi, TWO_PI) - math.pi
    w = np.where(w >= math.pi, -math.pi, w)  # the modulo can land on the seam
    out = np.where((-math.pi <= arr) & (arr < math.pi), arr, w)
    return out if isinstance(phi, np.ndarray) else float(out)


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


def project_eta_vector(v: np.ndarray) -> np.ndarray:
    """Wrap the centers to [-pi, pi) and clamp the widths at B_FLOOR, in place.

    v is a 15-vector or a (..., 15) array of them. A non-finite value
    raises ValueError, as ``WaveParams`` would.
    """
    v[..., 0::3] = wrap_angle(v[..., 0::3])
    v[..., 2::3] = np.maximum(v[..., 2::3], B_FLOOR)
    if not np.all(np.isfinite(v)):
        raise ValueError("wave parameters must be finite")
    return v


def eta_to_vector(eta: EdmParams) -> np.ndarray:
    """Flatten to the canonical 15-vector (theta, a, b per wave, P..T)."""
    return np.array([v for w in eta.waves for v in (w.theta, w.a, w.b)], dtype=float)


def vector_to_eta(vec) -> EdmParams:
    """Inverse of eta_to_vector; values are used as-is (no wrapping)."""
    v = np.asarray(vec, dtype=float)
    if v.shape != (N_PARAMS,):
        raise ValueError(f"expected shape ({N_PARAMS},), got {v.shape}")
    waves = [WaveParams(*v[3 * i : 3 * i + 3]) for i in range(5)]
    return EdmParams(*waves)


def _check_wave_vectors(vectors: np.ndarray) -> None:
    """Check a (..., 15) array of parameter vectors, in PARAM_NAMES order,
    against ``WaveParams``' rules at once: where one is broken, the first
    wave that breaks it raises ``WaveParams``' own ValueError, as
    ``vector_to_eta`` would, and so does a last axis of another length."""
    if vectors.shape[-1:] != (N_PARAMS,):
        raise ValueError(f"expected shape ({N_PARAMS},), got {vectors.shape[-1:]}")
    waves = vectors.reshape(-1, 3)
    theta, b = waves[:, 0], waves[:, 2]
    if waves.size and not (np.isfinite(waves).all() and -math.pi <= theta.min()
                           and theta.max() < math.pi and b.min() > 0.0):
        for wave in waves.tolist():
            WaveParams(*wave)


def _unchecked(cls, **fields):
    """An instance of the dataclass cls holding fields, built without its
    ``__post_init__`` checks: for arrays the caller has already checked."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


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


def _circle_rate(x: float, y: float, omega: float) -> tuple[float, float]:
    """Rate (dx, dy) of the attracting unit circle at (x, y), scalar."""
    alpha = 1.0 - math.sqrt(x * x + y * y)
    return alpha * x - omega * y, alpha * y + omega * x


def _wave_terms(phase, eta, jac: bool = False):
    """Gaussian-event rate W and, if jac is set, its parameter Jacobian.

    W(phase) = -sum_i a_i*d_i*exp(-d_i^2/2b_i^2) with d_i = phase - theta_i.
    eta is an ``EdmParams``, packed by ``eta_to_vector``, or a (..., 15)
    array of parameter sets in PARAM_NAMES order: (n, m, 15) sets on (N,)
    phases give an (n, m, N) W. An array is not checked here: a fit trial
    and the loss's quadrature nodes (``project_eta_vector``) keep
    ``WaveParams``' rules, and ``wave_rate_sum`` checks the arrays it is
    given with ``_check_wave_vectors``. A set's five waves lie on one array axis;
    ceil(B/5) of a batch's B sets go at a time, in three work arrays of W's
    size. W sums from zeros, wave by wave, P..T. Returns (W, J): J stacks
    the 15 dW/d(eta) rows in PARAM_NAMES order on W's shape, or is None
    without jac; its width cubes use Python's float pow. phase must lie
    in [-pi, pi]; with theta in [-pi, pi) one conditional 2*pi shift then
    wraps d, and J treats that shift as locally constant.
    """
    phase = np.asarray(phase, dtype=float)
    p = eta_to_vector(eta) if isinstance(eta, EdmParams) else np.asarray(eta, dtype=float)
    waves = np.ascontiguousarray(p.reshape(-1, 5, 3).T)  # (theta a b, wave, set)
    w_sum = np.zeros((waves.shape[2], phase.size))
    J = np.empty((5, 3) + w_sum.shape) if jac else None
    step = -(-len(w_sum) // 5) or 1
    work = np.empty((3, 5, step, phase.size))
    for c in (slice(lo, lo + step) for lo in range(0, len(w_sum), step)):
        theta, a, b = waves[:, :, c, None]
        d, e, term = work[:, :, :theta.shape[1]]
        np.subtract(phase.ravel(), theta, out=d)
        np.subtract(d, TWO_PI, out=d, where=d >= math.pi)
        np.add(d, TWO_PI, out=d, where=d < -math.pi)
        np.multiply(d, d, out=e)  # e = exp(-d^2 / (2 b^2))
        e /= -2.0 * b * b
        np.exp(e, out=e)
        np.multiply(a, d, out=term)  # W -= a*d*e
        term *= e
        rows = w_sum[c]
        for wave in term:
            rows -= wave
        if jac:
            dd = d * d
            # Python's float pow: numpy's array pow rounds some cubes apart
            cube = np.reshape([v ** 3 for v in b.ravel().tolist()], b.shape)
            J[:, 0, c] = a * e * (1.0 - dd / (b * b))
            J[:, 1, c] = -(d * e)
            J[:, 2, c] = -(a * (dd * d) * e / cube)
    shape = p.shape[:-1] + phase.shape
    return w_sum.reshape(shape), J if J is None else J.reshape((N_PARAMS,) + shape)


def wave_rate_sum(phase: np.ndarray, eta) -> np.ndarray:
    """Vectorized Gaussian-event part of dz, the rate W of ``_wave_terms``;
    eta is an ``EdmParams`` or a (..., 15) array of parameter vectors, which
    is checked here, at once, by ``_check_wave_vectors``: integration and
    the inter-lead distance evaluate W here, so each set is checked once."""
    if not isinstance(eta, EdmParams):
        eta = np.asarray(eta, dtype=float)
        _check_wave_vectors(eta)
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
