"""Per-class, per-lead parameter distributions: defaults, files, sampling.

Each (class, lead) pair carries an independent diagonal Gaussian over the
15 wave parameters plus an affine gain (mV per model unit) and the rhythm
settings used when synthesizing or scoring that lead. The on-disk format
is flat ``key = value`` text so files diff cleanly and round-trip exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParamFileError
from .leads import LEAD_INDEX, LEAD_NAMES
from .model import (B_FLOOR, N_PARAMS, PARAM_NAMES, RhythmParams, EdmParams,
                    eta_to_vector, project_eta_vector, vector_to_eta,
                    DEFAULT_ETA, DEFAULT_RHYTHM, WAVE_NAMES)

_CLASS_RE = re.compile(r"^[A-Z0-9]+$")

#: Floor for sampled gains; a gain of zero would make unit conversion singular.
GAIN_FLOOR = 1e-6


def check_class_code(code: str) -> str:
    if not _CLASS_RE.match(code or ""):
        raise ValueError(f"class code must be uppercase alphanumeric, got {code!r}")
    return code


@dataclass(frozen=True)
class ParamDistribution:
    """Diagonal Gaussian over the 15 wave parameters of one (class, lead)."""

    class_code: str
    lead: str
    mean: tuple[float, ...]   # PARAM_NAMES order
    std: tuple[float, ...]    # same order, all >= 0
    gain_mean: float
    gain_std: float
    rhythm: RhythmParams

    def __post_init__(self):
        check_class_code(self.class_code)
        if self.lead not in LEAD_INDEX:
            raise ValueError(f"unknown lead {self.lead!r}")
        object.__setattr__(self, "mean", tuple(float(v) for v in self.mean))
        object.__setattr__(self, "std", tuple(float(v) for v in self.std))
        if len(self.mean) != N_PARAMS or len(self.std) != N_PARAMS:
            raise ValueError(f"mean and std must have {N_PARAMS} components")
        if not all(math.isfinite(v) for v in self.mean + self.std):
            raise ValueError("distribution parameters must be finite")
        if any(s < 0.0 for s in self.std):
            raise ValueError("std components must be >= 0")
        for i, name in enumerate(PARAM_NAMES):
            if name.endswith(".b") and self.mean[i] < B_FLOOR:
                raise ValueError(f"mean width {name} must be >= {B_FLOOR}")
        if not (math.isfinite(self.gain_mean) and math.isfinite(self.gain_std)):
            raise ValueError("gain parameters must be finite")
        if self.gain_std < 0.0:
            raise ValueError("gain_std must be >= 0")

    @property
    def mean_eta(self) -> EdmParams:
        return vector_to_eta(np.asarray(self.mean))


#: Parameter tables are plain dicts keyed by (class_code, lead).
ParamTable = dict[tuple[str, str], ParamDistribution]


def require_dist(table: ParamTable, class_code: str, lead: str) -> ParamDistribution:
    try:
        return table[(class_code, lead)]
    except KeyError:
        raise ConfigurationError(
            f"no parameter distribution for class {class_code!r}, lead {lead!r}"
        ) from None


def _draw(dists, n_samples: int, rng: np.random.Generator):
    """n_samples draws of every distribution's wave parameters and gain.

    Returns (n_samples, len(dists), 15) parameter vectors, centers wrapped
    to [-pi, pi) and widths clamped at B_FLOOR, and (n_samples, len(dists))
    gains floored at GAIN_FLOOR. One rng call takes 16 normals per draw and
    distribution, draws outermost: the stream of one 16-normal draw per
    distribution per sample, in that order.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    z = rng.standard_normal((n_samples, len(dists), N_PARAMS + 1))
    mean = np.array([d.mean for d in dists])
    std = np.array([d.std for d in dists])
    params = project_eta_vector(mean + std * z[..., :N_PARAMS])
    gain_mean = np.array([d.gain_mean for d in dists])
    gain_std = np.array([d.gain_std for d in dists])
    gains = np.maximum(gain_mean + gain_std * z[..., N_PARAMS], GAIN_FLOOR)
    return params, gains


def sample_eta(dist: ParamDistribution, seed) -> tuple[EdmParams, float]:
    """Seeded Gaussian draw of (eta, gain) from one distribution.

    Widths are clamped to the B_FLOOR and centers re-wrapped to [-pi, pi);
    a zero-std distribution returns its mean bit-exactly.
    """
    params, gains = _draw([dist], 1, np.random.default_rng(seed))
    return vector_to_eta(params[0, 0]), float(gains[0, 0])


# ---------------------------------------------------------------------------
# file format

_WAVE_FIELDS = tuple(
    f"{wave}.{field}_{stat}"
    for wave in WAVE_NAMES
    for field in ("theta", "a", "b")
    for stat in ("mean", "std")
)
_SCALAR_FIELDS = ("gain_mean", "gain_std", "rhythm.f", "rhythm.A", "rhythm.f2")
_ENTRY_FIELDS = _SCALAR_FIELDS + _WAVE_FIELDS
_FIELD_SET = frozenset(_ENTRY_FIELDS)


def _fmt(v: float) -> str:
    return "%.17g" % v


def write_param_file(table: ParamTable) -> str:
    """Canonical serialization; stable ordering, 17 significant digits."""
    lines = []
    classes = sorted({cls for cls, _ in table})
    for cls in classes:
        for lead in LEAD_NAMES:
            dist = table.get((cls, lead))
            if dist is None:
                continue
            prefix = f"{cls}.{lead}"
            lines.append(f"{prefix}.rhythm.f = {_fmt(dist.rhythm.f)}")
            lines.append(f"{prefix}.rhythm.A = {_fmt(dist.rhythm.A)}")
            lines.append(f"{prefix}.rhythm.f2 = {_fmt(dist.rhythm.f2)}")
            lines.append(f"{prefix}.gain_mean = {_fmt(dist.gain_mean)}")
            lines.append(f"{prefix}.gain_std = {_fmt(dist.gain_std)}")
            for i, name in enumerate(PARAM_NAMES):
                lines.append(f"{prefix}.{name}_mean = {_fmt(dist.mean[i])}")
                lines.append(f"{prefix}.{name}_std = {_fmt(dist.std[i])}")
        lines.append("")
    return "\n".join(lines)


def read_param_file(text: str) -> ParamTable:
    """Parse the flat key=value format; rejects unknown or duplicate keys.

    Loading is atomic: any malformed line or invariant violation raises
    ParamFileError and no partial table is returned.
    """
    raw: dict[tuple[str, str], dict[str, float]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        key, eq, value = line.partition("#")[0].partition("=")
        if not eq:
            if key.strip():
                raise ParamFileError("expected 'key = value'", line=lineno)
            continue
        key = key.strip()
        parts = key.split(".", 2)
        if len(parts) != 3:
            raise ParamFileError(f"unknown key {key}", line=lineno)
        cls, lead, field = parts
        fields = raw.get((cls, lead))
        if fields is None:  # the first line of this (class, lead)
            if not _CLASS_RE.match(cls):
                raise ParamFileError(f"bad class code {cls!r}", line=lineno)
            if lead not in LEAD_INDEX:
                raise ParamFileError(f"unknown lead {lead!r}", line=lineno)
            fields = raw[(cls, lead)] = {}
        elif field in fields:  # its first line passed every check
            raise ParamFileError(f"duplicate key {key}", line=lineno)
        if field not in _FIELD_SET:
            raise ParamFileError(f"unknown key {key}", line=lineno)
        try:
            fields[field] = float(value)
        except ValueError:
            # float() strips ASCII whitespace, but not the unit separator
            # \x1f that str.strip() takes and splitlines() leaves in a line
            try:
                fields[field] = float(value.strip())
            except ValueError:
                raise ParamFileError(f"bad number {value.strip()!r}",
                                     line=lineno) from None

    table: ParamTable = {}
    for (cls, lead), fields in raw.items():
        missing = [f for f in _ENTRY_FIELDS if f not in fields]
        if missing:
            raise ParamFileError(f"{cls}.{lead}: missing key {missing[0]}")
        mean = tuple(fields[f"{name}_mean"] for name in PARAM_NAMES)
        std = tuple(fields[f"{name}_std"] for name in PARAM_NAMES)
        try:
            rhythm = RhythmParams(f=fields["rhythm.f"], A=fields["rhythm.A"],
                                  f2=fields["rhythm.f2"])
            table[(cls, lead)] = ParamDistribution(
                class_code=cls, lead=lead, mean=mean, std=std,
                gain_mean=fields["gain_mean"], gain_std=fields["gain_std"],
                rhythm=rhythm)
        except ValueError as exc:
            raise ParamFileError(f"{cls}.{lead}: {exc}") from None
    return table


# ---------------------------------------------------------------------------
# shipped defaults

# Plausible resting-beat amplitude sets per lead. Precordials follow the
# usual R-wave progression with deep S in V1/V2; limb-lead entries for the
# derived leads exist so scoring can invert their gains.
_LEAD_AMPS = {
    "I":   (0.8, -3.5, 22.0, -4.5, 0.55),
    "II":  (1.2, -5.0, 30.0, -7.5, 0.75),
    "III": (1.2, -5.0, 30.0, -7.5, 0.75),
    "aVR": (1.2, -5.0, 30.0, -7.5, 0.75),
    "aVL": (1.2, -5.0, 30.0, -7.5, 0.75),
    "aVF": (1.2, -5.0, 30.0, -7.5, 0.75),
    "V1":  (0.4, 2.0, 8.0, -22.0, -0.4),
    "V2":  (0.5, 1.5, 12.0, -20.0, 0.9),
    "V3":  (0.6, -1.0, 18.0, -14.0, 1.0),
    "V4":  (0.8, -2.5, 26.0, -9.0, 0.9),
    "V5":  (0.9, -3.5, 28.0, -6.0, 0.8),
    "V6":  (0.9, -4.0, 25.0, -4.0, 0.7),
}

# mV per model unit, calibrated so the lead II R peak sits near 1 mV.
# The gain models shared electrode calibration and is uniform across leads;
# per-lead amplitude differences belong to the wave amplitudes above.
_DEFAULT_GAIN = 22.0

_REL_A_STD = 0.03
_THETA_STD = 0.02
_REL_B_STD = 0.02
_REL_GAIN_STD = 0.02


def default_eta_for_lead(lead: str) -> EdmParams:
    """Reference wave set for one lead: canonical angles and widths,
    lead-specific amplitudes."""
    base = eta_to_vector(DEFAULT_ETA)
    amps = _LEAD_AMPS[lead]
    for i in range(5):
        base[3 * i + 1] = amps[i]
    return vector_to_eta(base)


def default_distributions() -> ParamTable:
    """The shipped NORMAL table: all 12 leads, mild morphological spread."""
    table: ParamTable = {}
    for lead in LEAD_NAMES:
        mean = eta_to_vector(default_eta_for_lead(lead))
        std = np.empty(N_PARAMS)
        for i, name in enumerate(PARAM_NAMES):
            if name.endswith(".theta"):
                std[i] = _THETA_STD
            elif name.endswith(".a"):
                std[i] = _REL_A_STD * abs(mean[i])
            else:
                std[i] = _REL_B_STD * mean[i]
        table[("NORMAL", lead)] = ParamDistribution(
            class_code="NORMAL", lead=lead,
            mean=tuple(mean), std=tuple(std),
            gain_mean=_DEFAULT_GAIN, gain_std=_REL_GAIN_STD * _DEFAULT_GAIN,
            rhythm=DEFAULT_RHYTHM)
    return table


def zero_variance(table: ParamTable) -> ParamTable:
    """Copy of a table with every std (including gain) set to zero."""
    out: ParamTable = {}
    for key, dist in table.items():
        out[key] = ParamDistribution(
            class_code=dist.class_code, lead=dist.lead,
            mean=dist.mean, std=(0.0,) * N_PARAMS,
            gain_mean=dist.gain_mean, gain_std=0.0, rhythm=dist.rhythm)
    return out


def default_param_path() -> str:
    """Path of the shipped NORMAL parameter file."""
    from importlib.resources import files

    return str(files("ecgdyn").joinpath("data/normal.params"))
