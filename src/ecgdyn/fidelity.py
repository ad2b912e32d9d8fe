"""Consistency distances between waveforms and the oscillator dynamics.

The single-lead distance asks: if this waveform were a forward-Euler
trajectory of the vertical coordinate, how badly would it violate the
model's rate equation? It fixes (x, y) to the reference circular solution
and penalizes the squared mismatch between the waveform's one-step
difference quotient and the model rate evaluated at the waveform itself.
The inter-lead variant replaces the single rate by the linear combination
of two source-lead rates dictated by a limb identity, tying derived leads
to the dynamics of the leads that generate them.

Both distances are differentiable in closed form with respect to the
waveform and the wave parameters, which is what the fitting module uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError
from .integrate import DEFAULT_INIT, SamplingGrid, State, Trajectory, integrate_euler
from .leads import FREE_LEADS, Heartbeat, LEAD_NAMES, LeadRelation, check_lead, limb_relations
from .model import B_FLOOR, EdmParams, RhythmParams, _wave_terms, baseline, wave_rate_sum
from .params import ParamTable, _sample_entry, require_dist


@dataclass
class LeadSignal:
    """A single lead's samples in model units (millivolts / gain)."""

    grid: SamplingGrid
    samples: np.ndarray
    lead: str = "II"

    def __post_init__(self):
        check_lead(self.lead)
        arr = np.asarray(self.samples, dtype=float)
        if arr.shape != (self.grid.L,):
            raise ValueError(f"samples must have length {self.grid.L}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        self.samples = arr


@dataclass(frozen=True)
class LossWeights:
    """delta in [0, 1] balances single-lead vs inter-lead terms."""

    delta: float = 0.6

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta}")


@lru_cache(maxsize=128)
def reference_trajectory(rhythm: RhythmParams, grid: SamplingGrid,
                         init: State = DEFAULT_INIT) -> Trajectory:
    """Euler reference (x, y) path for a rhythm/grid pair, cached.

    The circular subsystem is independent of z and of the wave set, so one
    integration serves every distance evaluation on the same grid.
    """
    from .model import DEFAULT_ETA  # waves do not influence x, y

    return integrate_euler(DEFAULT_ETA, rhythm, grid, init)


def _check_same_grid(h: LeadSignal, ref: Trajectory) -> None:
    if h.grid != ref.grid:
        raise ValueError(
            f"signal grid {h.grid} does not match reference grid {ref.grid}")


def _ref_phase(ref: Trajectory) -> np.ndarray:
    """Cycle phase atan2(y_l, x_l) at the start of every forward step."""
    return np.arctan2(ref.y[:-1], ref.x[:-1])


def _drift_rate(ref: Trajectory, eta: EdmParams, rhythm: RhythmParams) -> np.ndarray:
    """z-independent part of the rate along the reference: W_l + z0(t_l).

    The full model rate is f_z = W + z0 - z, linear in z; precomputing
    W + z0 reduces every distance evaluation to vector arithmetic.
    """
    t = np.arange(ref.grid.L - 1) * ref.grid.dt
    return wave_rate_sum(_ref_phase(ref), eta) + baseline(t, rhythm)


def _relation_drift(ref: Trajectory, eta1: EdmParams, eta2: EdmParams,
                    rel: LeadRelation, rhythm: RhythmParams) -> np.ndarray:
    """beta*drift(eta1) + gamma*drift(eta2), the rate a limb identity
    assigns its target lead."""
    return (rel.beta * _drift_rate(ref, eta1, rhythm)
            + rel.gamma * _drift_rate(ref, eta2, rhythm))


def _residuals(h: np.ndarray, dt: float, drift: np.ndarray,
               z_coeff: float = 1.0) -> np.ndarray:
    """(h[l+1]-h[l])/dt - (drift[l] - z_coeff*h[l]) for l = 0..L-2."""
    return np.diff(h) / dt - (drift - z_coeff * h[:-1])


def sim_distance(h: LeadSignal, eta: EdmParams, rhythm: RhythmParams,
                 ref: Trajectory) -> float:
    """Sum of squared one-step consistency residuals of h under eta.

    The sum has L-1 terms, one per forward step: residual l couples
    samples l and l+1 for l = 0..L-2 (0-based; the first sample anchors
    the first term). Exactly zero (up to accumulated rounding) iff h is
    the forward-Euler z-trajectory generated by the same eta, rhythm and
    initial state.
    """
    _check_same_grid(h, ref)
    r = _residuals(h.samples, h.grid.dt, _drift_rate(ref, eta, rhythm))
    return float(r @ r)


def sim_distance_interlead(h: LeadSignal, eta1: EdmParams, eta2: EdmParams,
                           rel: LeadRelation, rhythm: RhythmParams,
                           ref: Trajectory) -> float:
    """Squared residuals of h against beta*rate(eta1) + gamma*rate(eta2).

    eta1 and eta2 belong to rel.src1 and rel.src2; h must be the relation's
    target lead.
    """
    _check_same_grid(h, ref)
    if rel.target != h.lead:
        raise ValueError(
            f"relation targets {rel.target!r} but signal is lead {h.lead!r}")
    drift = _relation_drift(ref, eta1, eta2, rel, rhythm)
    r = _residuals(h.samples, h.grid.dt, drift, z_coeff=rel.beta + rel.gamma)
    return float(r @ r)


# ---------------------------------------------------------------------------
# analytic gradients

def grad_sim_distance_wrt_h(h: LeadSignal, eta: EdmParams, rhythm: RhythmParams,
                            ref: Trajectory) -> np.ndarray:
    """d(sim_distance)/d(h_k) for every sample k."""
    _check_same_grid(h, ref)
    return _grad_wrt_h(h.samples, h.grid.dt,
                       _drift_rate(ref, eta, rhythm), 1.0)


def grad_sim_distance_interlead_wrt_h(h: LeadSignal, eta1: EdmParams,
                                      eta2: EdmParams, rel: LeadRelation,
                                      rhythm: RhythmParams,
                                      ref: Trajectory) -> np.ndarray:
    """Waveform gradient of the two-source distance."""
    _check_same_grid(h, ref)
    if rel.target != h.lead:
        raise ValueError(
            f"relation targets {rel.target!r} but signal is lead {h.lead!r}")
    drift = _relation_drift(ref, eta1, eta2, rel, rhythm)
    return _grad_wrt_h(h.samples, h.grid.dt, drift, rel.beta + rel.gamma)


def _grad_wrt_h(h: np.ndarray, dt: float, drift: np.ndarray,
                z_coeff: float) -> np.ndarray:
    # residual r_l sees h_{l+1} through the difference quotient (weight 1/dt)
    # and h_l through both the quotient and the rate term (weight c - 1/dt).
    r = _residuals(h, dt, drift, z_coeff)
    grad = np.zeros_like(h)
    grad[1:] += (2.0 / dt) * r
    grad[:-1] += 2.0 * (z_coeff - 1.0 / dt) * r
    return grad


def grad_sim_distance_wrt_eta(h: LeadSignal, eta: EdmParams,
                              rhythm: RhythmParams,
                              ref: Trajectory) -> np.ndarray:
    """Gradient over the 15 wave parameters, PARAM_NAMES order.

    The angle wrap is treated as locally constant, so the result is valid
    away from the wrap seam. Widths below B_FLOOR are rejected: the b**-3
    factor makes the derivative explode there.
    """
    _check_same_grid(h, ref)
    for w in eta.waves:
        if w.b < B_FLOOR:
            raise ValueError(f"width {w.b} below floor {B_FLOOR}")
    r = _residuals(h.samples, h.grid.dt, _drift_rate(ref, eta, rhythm))
    # the residual subtracts the rate, so d(r)/d(eta) = -J
    _, jac = _wave_terms(_ref_phase(ref), eta, jac=True)
    return -2.0 * (jac @ r)


# ---------------------------------------------------------------------------
# combined loss over a full heartbeat

def draw_param_samples(table: ParamTable, label: str, n_samples: int, seed):
    """n_samples deterministic draws of (eta, gain) for all 12 leads.

    One generator serves the whole stream: samples vary across both the
    sample index and the lead, yet the sequence is fixed by the seed.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n_samples):
        entry = {}
        for lead in LEAD_NAMES:
            entry[lead] = _sample_entry(require_dist(table, label, lead), rng)
        draws.append(entry)
    return draws


def _beat_label(beat: Heartbeat) -> str:
    if beat.label is None:
        raise ConfigurationError("heartbeat carries no class label")
    return beat.label


def loss_components(beat: Heartbeat, table: ParamTable, n_samples: int = 8,
                    seed=0):
    """Monte-Carlo (single-lead, inter-lead, per-lead) loss estimates.

    Returns (l1, l2, per_lead) where l1 averages the single-lead distance
    over draws and the 8 free leads, l2 averages the inter-lead distance
    over draws and the 6 limb identities, and per_lead holds every lead's
    own mean single-lead distance (reporting only).
    """
    label = _beat_label(beat)
    draws = draw_param_samples(table, label, n_samples, seed)
    refs = {
        lead: reference_trajectory(require_dist(table, label, lead).rhythm,
                                   beat.grid)
        for lead in LEAD_NAMES
    }
    rhythms = {lead: require_dist(table, label, lead).rhythm for lead in LEAD_NAMES}

    per_lead = {lead: 0.0 for lead in LEAD_NAMES}
    for entry in draws:
        for lead in LEAD_NAMES:
            eta, gain = entry[lead]
            sig = LeadSignal(beat.grid, beat.lead(lead) / gain, lead=lead)
            per_lead[lead] += sim_distance(sig, eta, rhythms[lead], refs[lead])
    per_lead = {lead: v / n_samples for lead, v in per_lead.items()}
    l1 = sum(per_lead[lead] for lead in FREE_LEADS) / len(FREE_LEADS)

    l2_total = 0.0
    for entry in draws:
        for rel in limb_relations():
            _, gain_t = entry[rel.target]
            sig = LeadSignal(beat.grid, beat.lead(rel.target) / gain_t,
                             lead=rel.target)
            l2_total += sim_distance_interlead(
                sig, entry[rel.src1][0], entry[rel.src2][0], rel,
                rhythms[rel.target], refs[rel.target])
    l2 = l2_total / (n_samples * len(limb_relations()))
    return l1, l2, per_lead


def euler_loss_combined(beat: Heartbeat, table: ParamTable,
                        weights: LossWeights = LossWeights(),
                        n_samples: int = 8, seed=0) -> float:
    """delta-weighted combination of the two Monte-Carlo loss terms.

    delta = 1 scores each free lead against its own dynamics alone;
    delta = 0 scores only the limb identities' inter-lead consistency.
    Deterministic for a fixed seed.
    """
    l1, l2, _ = loss_components(beat, table, n_samples=n_samples, seed=seed)
    return weights.delta * l1 + (1.0 - weights.delta) * l2
