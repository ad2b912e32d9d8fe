"""Per-class, per-lead parameter distributions: defaults, files, sampling.

Each (class, lead) pair carries an independent diagonal Gaussian over the
15 wave parameters plus an affine gain (mV per model unit) and the rhythm
settings used when synthesizing or scoring that lead. The on-disk format
is flat ``key = value`` text so files diff cleanly and round-trip exactly.
The shipped NORMAL table is the file ``data/normal.params``; the defaults
here read it, and its header states the rules its values follow.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ParamFileError
from .leads import LEAD_INDEX, LEAD_NAMES
from .model import (B_FLOOR, N_PARAMS, PARAM_NAMES, RhythmParams, EdmParams,
                    project_eta_vector, vector_to_eta)

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


def _pack(dists) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distributions as ``_draw_packed`` reads them: the means and stds,
    (len(dists), 15), and the gain means and stds, (len(dists),)."""
    return (np.array([d.mean for d in dists]), np.array([d.std for d in dists]),
            np.array([d.gain_mean for d in dists]), np.array([d.gain_std for d in dists]))


def _draw_packed(packed, n_samples: int, rng: np.random.Generator):
    """``_draw`` from the distributions' ``_pack``, which a caller drawing
    many times packs once."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    mean, std, gain_mean, gain_std = packed
    z = rng.standard_normal((n_samples, len(mean), N_PARAMS + 1))
    params = project_eta_vector(mean + std * z[..., :N_PARAMS])
    gains = np.maximum(gain_mean + gain_std * z[..., N_PARAMS], GAIN_FLOOR)
    return params, gains


def _draw(dists, n_samples: int, rng: np.random.Generator):
    """n_samples draws of every distribution's wave parameters and gain.

    Returns (n_samples, len(dists), 15) parameter vectors, centers wrapped
    to [-pi, pi) and widths clamped at B_FLOOR, and (n_samples, len(dists))
    gains floored at GAIN_FLOOR. One rng call takes 16 normals per draw and
    distribution, draws outermost: the stream of one 16-normal draw per
    distribution per sample, in that order.
    """
    return _draw_packed(_pack(dists), n_samples, rng)


def sample_eta(dist: ParamDistribution, seed) -> tuple[EdmParams, float]:
    """Seeded Gaussian draw of (eta, gain) from one distribution.

    Widths are clamped to the B_FLOOR and centers re-wrapped to [-pi, pi);
    a zero-std distribution returns its mean bit-exactly.
    """
    params, gains = _draw([dist], 1, np.random.default_rng(seed))
    return vector_to_eta(params[0, 0]), float(gains[0, 0])


# ---------------------------------------------------------------------------
# file format

#: The keys of one (class, lead) entry, in the order they are written: the
#: writer lists an entry's values in this order and the reader slices them
#: back out of it, so the two cannot disagree on the layout.
_FIELDS = ("rhythm.f", "rhythm.A", "rhythm.f2", "gain_mean", "gain_std",
           *(f"{name}_{stat}" for name in PARAM_NAMES for stat in ("mean", "std")))
_FIELD_SET = frozenset(_FIELDS)


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
            r = dist.rhythm
            values = (r.f, r.A, r.f2, dist.gain_mean, dist.gain_std,
                      *(v for pair in zip(dist.mean, dist.std) for v in pair))
            lines.extend(f"{cls}.{lead}.{field} = {_fmt(v)}"
                         for field, v in zip(_FIELDS, values))
        lines.append("")
    return "\n".join(lines)


#: Distinct table texts ``read_param_file`` keeps parsed.
_PARSE_CACHE_SIZE = 8


@lru_cache(maxsize=_PARSE_CACHE_SIZE)
def _parse_param_text(text: str) -> tuple[tuple[tuple[str, str], ParamDistribution], ...]:
    """The parse of ``read_param_file``, as its (key, distribution) items."""
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
        # float() strips ASCII whitespace, but not the unit separator \x1f
        # that str.strip() takes and splitlines() leaves in a line
        value = value.strip()
        try:
            fields[field] = float(value)
        except ValueError:
            raise ParamFileError(f"bad number {value!r}", line=lineno) from None

    table: ParamTable = {}
    for (cls, lead), fields in raw.items():
        missing = [f for f in _FIELDS if f not in fields]
        if missing:
            raise ParamFileError(f"{cls}.{lead}: missing key {missing[0]}")
        values = [fields[f] for f in _FIELDS]
        try:
            table[(cls, lead)] = ParamDistribution(
                class_code=cls, lead=lead, mean=values[5::2], std=values[6::2],
                gain_mean=values[3], gain_std=values[4],
                rhythm=RhythmParams(*values[:3]))
        except ValueError as exc:
            raise ParamFileError(f"{cls}.{lead}: {exc}") from None
    return tuple(table.items())


def read_param_file(text: str) -> ParamTable:
    """Parse the flat key=value format; rejects unknown or duplicate keys.

    Loading is atomic: any malformed line or invariant violation raises
    ParamFileError and no partial table is returned.

    The parse is memoized by the text, for the last ``_PARSE_CACHE_SIZE``
    distinct texts, so the same table text parsed again in one process
    costs one lookup. Each call returns a fresh dict of the cached, frozen
    ``ParamDistribution``s, which a caller may change. A malformed text
    raises on every call, as exceptions are not cached. ``cache_info`` and
    ``cache_clear`` are the memo's.
    """
    return dict(_parse_param_text(text))


read_param_file.cache_info = _parse_param_text.cache_info
read_param_file.cache_clear = _parse_param_text.cache_clear


# ---------------------------------------------------------------------------
# shipped defaults


def default_param_path() -> str:
    """Path of the shipped NORMAL parameter file."""
    from importlib.resources import files

    return str(files("ecgdyn").joinpath("data/normal.params"))


def default_distributions() -> ParamTable:
    """The shipped NORMAL table, all 12 leads, from the file at
    ``default_param_path()``, which is the table's one copy. Its header
    states the rules the values follow. The file is read on every call and
    its text goes through ``read_param_file``'s memo, so the table is a
    fresh dict, and an unchanged file is parsed once per process."""
    return read_param_file(Path(default_param_path()).read_text(encoding="utf-8"))


def default_eta_for_lead(lead: str) -> EdmParams:
    """Mean wave set of one lead in the shipped NORMAL table; a lead it
    lacks raises ConfigurationError, as ``require_dist`` does."""
    return require_dist(default_distributions(), "NORMAL", lead).mean_eta


def zero_variance(table: ParamTable) -> ParamTable:
    """Copy of a table with every std (including gain) set to zero."""
    out: ParamTable = {}
    for key, dist in table.items():
        out[key] = ParamDistribution(
            class_code=dist.class_code, lead=dist.lead,
            mean=dist.mean, std=(0.0,) * N_PARAMS,
            gain_mean=dist.gain_mean, gain_std=0.0, rhythm=dist.rhythm)
    return out
