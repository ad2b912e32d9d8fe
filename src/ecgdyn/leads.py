"""12-lead assembly and the limb-lead linear identities.

Only 8 channels of a standard 12-lead recording are electrically
independent: I, II and the six precordials V1..V6. The remaining limb
leads are linear combinations (Einthoven's triangle and Goldberger's
augmented leads), which this module derives and verifies. Synthesis and
refinement both turn 8 free rows into a 12-row beat by ``assemble_leads``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .integrate import DEFAULT_INIT, SamplingGrid, State, integrate_euler
from .model import EdmParams, RhythmParams

LEAD_NAMES = ("I", "II", "III", "aVR", "aVL", "aVF",
              "V1", "V2", "V3", "V4", "V5", "V6")

#: Leads synthesized by direct integration; the other four are derived.
FREE_LEADS = ("I", "II", "V1", "V2", "V3", "V4", "V5", "V6")

LEAD_INDEX = {name: i for i, name in enumerate(LEAD_NAMES)}


def check_lead(name: str) -> str:
    if name not in LEAD_INDEX:
        raise ValueError(f"unknown lead {name!r}")
    return name


@dataclass(frozen=True)
class LeadRelation:
    """target = beta*src1 + gamma*src2, an exact limb-lead identity."""

    target: str
    src1: str
    beta: float
    src2: str
    gamma: float

    def __post_init__(self):
        for lead in (self.target, self.src1, self.src2):
            check_lead(lead)
        if self.target in (self.src1, self.src2):
            raise ValueError("relation target cannot be one of its sources")
        if self.beta == 0.0 and self.gamma == 0.0:
            raise ValueError("relation coefficients cannot both be zero")


_RELATIONS = (
    LeadRelation("I", "II", 1.0, "III", -1.0),
    LeadRelation("II", "I", 1.0, "III", 1.0),
    LeadRelation("III", "II", 1.0, "I", -1.0),
    LeadRelation("aVR", "I", -0.5, "II", -0.5),
    LeadRelation("aVL", "I", 0.5, "III", -0.5),
    LeadRelation("aVF", "II", 0.5, "III", 0.5),
)


#: The identities as arrays for one pass over a beat: the target, src1 and
#: src2 row of each, and its beta and gamma as (6, 1) columns.
_TARGETS, _SRC1, _SRC2 = (np.array([LEAD_INDEX[getattr(rel, end)] for rel in _RELATIONS])
                          for end in ("target", "src1", "src2"))
_BETA, _GAMMA = (np.array([[getattr(rel, coeff)] for rel in _RELATIONS])
                 for coeff in ("beta", "gamma"))


def limb_relations() -> tuple[LeadRelation, ...]:
    """The six limb-lead identities, one per limb lead."""
    return _RELATIONS


@dataclass
class Heartbeat:
    """One cardiac cycle: a 12 x L matrix in millivolts plus metadata."""

    grid: SamplingGrid
    leads: np.ndarray  # shape (12, L), rows ordered as LEAD_NAMES
    label: str | None = None

    def __post_init__(self):
        arr = np.asarray(self.leads, dtype=float)
        if arr.shape != (12, self.grid.L):
            raise ValueError(f"leads must be 12 x {self.grid.L}, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("lead samples must be finite")
        self.leads = arr

    def lead(self, name: str) -> np.ndarray:
        return self.leads[LEAD_INDEX[check_lead(name)]]


def derive_limb_rows(lead_i: np.ndarray, lead_ii: np.ndarray) -> dict[str, np.ndarray]:
    """III, aVR, aVL, aVF from leads I and II.

    These are the unique closed forms in terms of (I, II) consistent with
    all six limb identities: III = II - I, aVR = -(I + II)/2,
    aVL = I - II/2, aVF = II - I/2.
    """
    return {
        "III": lead_ii - lead_i,
        "aVR": -0.5 * (lead_i + lead_ii),
        "aVL": lead_i - 0.5 * lead_ii,
        "aVF": lead_ii - 0.5 * lead_i,
    }


def assemble_leads(free) -> np.ndarray:
    """The (12, L) lead matrix, rows in LEAD_NAMES order, from the 8 free
    rows in FREE_LEADS order; III, aVR, aVL and aVF are derived."""
    rows = dict(zip(FREE_LEADS, free))
    rows.update(derive_limb_rows(rows["I"], rows["II"]))
    return np.vstack([rows[name] for name in LEAD_NAMES])


def synthesize_heartbeat(lead_params: dict[str, EdmParams | np.ndarray],
                         rhythm: RhythmParams,
                         grid: SamplingGrid,
                         gains: dict[str, float] | None = None,
                         init: State = DEFAULT_INIT,
                         label: str | None = None) -> Heartbeat:
    """Integrate the 8 free leads and derive the 4 dependent limb leads.

    lead_params must contain an entry for every free lead: an ``EdmParams``
    or its 15-vector in PARAM_NAMES order, such as a projected draw of
    ``params._draw``. A vector is checked where it is integrated, by
    ``model.wave_rate_sum``, against ``WaveParams``' rules and with its
    messages, so the first faulty lead in FREE_LEADS order raises; the
    result is the same, bit for bit, as for the same sets given as
    ``EdmParams``. gains (mV per
    model unit) default to 1.0 per lead. The derived rows satisfy the limb
    identities exactly, mirroring how clinical hardware records 8 channels
    and computes the rest.
    """
    gains = gains or {}
    for name in FREE_LEADS:
        if name not in lead_params:
            raise ConfigurationError(f"missing parameter set for lead {name}")
    free = [float(gains.get(name, 1.0)) * integrate_euler(lead_params[name], rhythm,
                                                          grid, init).z
            for name in FREE_LEADS]
    return Heartbeat(grid=grid, leads=assemble_leads(free), label=label)


@dataclass
class ConsistencyReport:
    """Per-relation worst-case deviations from the limb identities."""

    deviations: dict[str, float]  # keyed by relation target
    tol: float
    passed: bool

    def __str__(self) -> str:
        worst = max(self.deviations.values())
        status = "pass" if self.passed else "FAIL"
        return f"lead consistency {status} (worst {worst:.3e} mV, tol {self.tol:.1e})"


def check_lead_consistency(beat: Heartbeat, tol: float) -> ConsistencyReport:
    """Max absolute violation of each limb identity; pass iff all <= tol.
    All six are computed in one pass, max|target - (beta*src1 + gamma*src2)|
    per relation."""
    leads = beat.leads
    lhs, rhs = leads[_TARGETS], _BETA * leads[_SRC1] + _GAMMA * leads[_SRC2]
    devs = dict(zip((rel.target for rel in _RELATIONS),
                    np.max(np.abs(lhs - rhs), axis=1).tolist()))
    return ConsistencyReport(deviations=devs, tol=tol,
                             passed=all(d <= tol for d in devs.values()))
