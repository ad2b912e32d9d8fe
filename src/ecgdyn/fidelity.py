"""Consistency distances between waveforms and the oscillator dynamics.

The single-lead distance asks: if this waveform were a forward-Euler
trajectory of the vertical coordinate, how badly would it violate the
model's rate equation? It fixes (x, y) to the reference circular solution
and penalizes the squared mismatch between the waveform's one-step
difference quotient and the model rate evaluated at the waveform itself.
One rhythm fixes both the circle and the baseline wander, so the reference
carries both: ``reference_trajectory`` caches one per rhythm, grid and
start, an ``integrate_euler`` path is one too, and a distance takes the
reference alone.
The inter-lead variant replaces the single rate by the linear combination
of two source-lead rates dictated by a limb identity, tying derived leads
to the dynamics of the leads that generate them. Every rate is W + z0 - z,
so the combination's z term is the target's own: every residual has z
coefficient 1.

Both distances are differentiable in closed form with respect to the
waveform and the wave parameters. They are quadratic in the waveform, which
refinement minimizes exactly. ``_lead_residual`` alone forms the
single-lead residual and, for the gradient and parameter fitting, its
Jacobian from ``model._wave_terms``.

The combined loss averages these terms over Monte-Carlo draws of the wave
parameters. Scoring (``loss_components``) and refinement share every step
of it, so refinement's loss is the score: ``_term_losses`` reduces the
terms and ``LossWeights.combine`` weights the two means. ``_mc_terms``, the
one place that builds the terms, returns one term list, each lead's own
term and then the six limb identities, which one pass scores and
refinement solves against. It draws every lead's parameters and gain for
all draws as one (draws, 12, 15) and one (draws, 12) array, and evaluates W
through ``model._wave_terms`` (still the one W) in one ``wave_rate_sum``
call per rhythm. Each drift is evaluated once per (lead, rhythm) pair.
The synthesizer derives III, aVR, aVL and aVF from leads I and II, so a
limb identity's drift is I's or II's, or their ``leads.derive_limb_rows``
combination, derived once per rhythm from the same draw: an exact beat of
the table satisfies every identity, and lead III's own table entry drives
no identity.

A term with gains g and drifts d scores a lead h by the mean over draws
of ||s/g - d||^2, s = diff(h)/dt + h[:-1]. Its completed
square is W*||s - e||^2 + K, with W = mean(1/g^2), e = mean(d/g) / W and
K = sum_l mean((d_l - e_l/g)^2), none of which depends on the beat, so
``_mc_terms`` reduces the draws to (W, e, K) once and scoring a beat costs
one pass over its leads, whatever the number of draws. That sums in
another order than a draw-by-draw loop, so the two agree to rounding, not
bit for bit. Every beat of a file shares the grid, the class table, the
draws and the seed, so one term set serves them all: ``_mc_terms`` keeps
the last two built for an int seed (refine's and score's), as read-only
arrays, and builds afresh when any of these changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError
from .integrate import SamplingGrid, Trajectory, _Reference, reference_trajectory
from .leads import (FREE_LEADS, Heartbeat, LEAD_INDEX, LEAD_NAMES, LeadRelation,
                    check_lead, derive_limb_rows, limb_relations)
from .model import B_FLOOR, EdmParams, _wave_terms, eta_to_vector, vector_to_eta, wave_rate_sum
from .params import ParamTable, _draw, require_dist


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

    def combine(self, l1: float, l2: float) -> float:
        """The combined loss delta*l1 + (1 - delta)*l2."""
        return self.delta * l1 + (1.0 - self.delta) * l2


def _check_ref(h: LeadSignal, ref: Trajectory) -> None:
    """A distance's ref must carry its rhythm, phase and baseline, and lie
    on h's grid."""
    if not isinstance(ref, _Reference):
        raise TypeError(f"ref is a {type(ref).__name__} that carries no rhythm; "
                        "take it from reference_trajectory or integrate_euler")
    if h.grid != ref.grid:
        raise ValueError(
            f"signal grid {h.grid} does not match reference grid {ref.grid}")


def _residuals(h: np.ndarray, dt: float, drift: np.ndarray) -> np.ndarray:
    """(h[l+1]-h[l])/dt - (drift[l] - h[l]) for l = 0..L-2, along the last
    axis of h; arrays of signals and drifts broadcast."""
    return np.diff(h) / dt - (drift - h[..., :-1])


def _lead_residual(h: LeadSignal, eta: EdmParams | np.ndarray, ref: Trajectory,
                   jac: bool = False):
    """The L-1 residuals of h under eta along ref; with jac, also the
    (15, L-1) rows J of ``_wave_terms``, d(r)/d(eta) = -J^T, which refuse
    widths below B_FLOOR, where their b**-3 factor explodes. eta is an
    ``EdmParams`` or, as ``fit_params`` passes its projected trials, the
    15-vector."""
    _check_ref(h, ref)
    p = eta_to_vector(eta) if isinstance(eta, EdmParams) else eta
    widths = p[2::3]
    if jac and (widths < B_FLOOR).any():
        raise ValueError(f"width {float(widths[np.argmax(widths < B_FLOOR)])} "
                         f"below floor {B_FLOOR}")
    w, rows = _wave_terms(ref.phase, p, jac)
    r = _residuals(h.samples, h.grid.dt, w + ref.z0)
    return (r, rows) if jac else r


def sim_distance(h: LeadSignal, eta: EdmParams, ref: Trajectory) -> float:
    """Sum of squared one-step consistency residuals of h under eta.

    The sum has L-1 terms, one per forward step: residual l couples
    samples l and l+1 for l = 0..L-2 (0-based; the first sample anchors
    the first term). Exactly zero (up to accumulated rounding) iff h is
    the forward-Euler z-trajectory generated by the same eta along ref:
    on its rhythm, from its start point and time.
    """
    r = _lead_residual(h, eta, ref)
    return float(r @ r)


def sim_distance_interlead(h: LeadSignal, eta1: EdmParams, eta2: EdmParams,
                           rel: LeadRelation, ref: Trajectory) -> float:
    """Squared residuals of h against the rate beta*(W1 + z0) +
    gamma*(W2 + z0) - h.

    eta1 and eta2 belong to rel.src1 and rel.src2; h must be the relation's
    target lead. The sources' rates are W + z0 - z, so the target's is their
    combination with -(beta*z1 + gamma*z2) = -h: the z coefficient is 1,
    whatever beta and gamma are.
    """
    _check_ref(h, ref)
    if rel.target != h.lead:
        raise ValueError(
            f"relation targets {rel.target!r} but signal is lead {h.lead!r}")
    phase, z0 = ref.phase, ref.z0
    drift = (rel.beta * (wave_rate_sum(phase, eta1) + z0)
             + rel.gamma * (wave_rate_sum(phase, eta2) + z0))
    r = _residuals(h.samples, h.grid.dt, drift)
    return float(r @ r)


# ---------------------------------------------------------------------------
# analytic gradients

def grad_sim_distance_wrt_h(h: LeadSignal, eta: EdmParams,
                            ref: Trajectory) -> np.ndarray:
    """d(sim_distance)/d(h_k) for every sample k."""
    dt = h.grid.dt
    r = _lead_residual(h, eta, ref)
    # residual r_l sees h_{l+1} through the difference quotient (weight 1/dt)
    # and h_l through both the quotient and the rate term (weight 1 - 1/dt).
    grad = np.zeros_like(h.samples)
    grad[1:] += (2.0 / dt) * r
    grad[:-1] += 2.0 * (1.0 - 1.0 / dt) * r
    return grad


def grad_sim_distance_wrt_eta(h: LeadSignal, eta: EdmParams,
                              ref: Trajectory) -> np.ndarray:
    """Gradient over the 15 wave parameters, PARAM_NAMES order.

    The angle wrap is treated as locally constant, so the result is valid
    away from the wrap seam. Widths below B_FLOOR are rejected: the b**-3
    factor makes the derivative explode there.
    """
    r, jac = _lead_residual(h, eta, ref, jac=True)
    return -2.0 * (jac @ r)


# ---------------------------------------------------------------------------
# combined loss over a full heartbeat

def _dists(table: ParamTable, label: str) -> list:
    return [require_dist(table, label, lead) for lead in LEAD_NAMES]


def draw_param_samples(table: ParamTable, label: str, n_samples: int, seed):
    """n_samples deterministic draws of (eta, gain) for all 12 leads.

    One generator serves the whole stream: samples vary across both the
    sample index and the lead, yet the sequence is fixed by the seed.
    """
    params, gains = _draw(_dists(table, label), n_samples,
                          np.random.default_rng(seed))
    return [{lead: (vector_to_eta(p), float(g))
             for lead, p, g in zip(LEAD_NAMES, draw_params, draw_gains)}
            for draw_params, draw_gains in zip(params, gains)]


def _mc_terms(grid: SamplingGrid, table: ParamTable, label: str | None,
              n_samples: int, seed, leads=LEAD_NAMES):
    """The Monte-Carlo terms of the combined loss, as one term list.

    The list is (names, w, e, k, least_gain): the lead each of its T terms
    scores, each term's completed square as (T,) weights W, (T, L-1)
    targets e and (T,) constants K, and each term's (T,) smallest gain over
    the draws, all read-only. The own terms of the leads in leads come
    first, in that order; the six limb identities follow in
    limb_relations() order, each scoring its target with the target's gain
    and, on the target's rhythm and reference, the drift of lead I or II or
    the ``leads.derive_limb_rows`` combination of the two: the dependent
    leads are combinations of I and II, and so are their rates, with the
    z coefficient 1 of every rate. A term scores a lead h by
    W*||diff(h)/dt + h[:-1] - e||^2 + K, the mean over draws of
    ||_residuals(h / gain, dt, drift)||^2. Draws come from one generator
    seeded by seed, as in draw_param_samples.

    Every beat of a file shares the grid, the class table, the draws and
    the seed, so the last two term sets (refine's and score's) are kept
    by ``_build_mc_terms`` and served again for the same grid, the label's
    12 distributions (compared by value), n_samples, seed and leads. Only an
    int seed with an int n_samples is kept; None, a Generator (whose draws
    move on) or a SeedSequence builds fresh terms on every call.
    """
    if label is None:
        raise ConfigurationError("heartbeat carries no class label")
    dists = tuple(_dists(table, label))
    if type(seed) is int and type(n_samples) is int:
        return _build_mc_terms(grid, dists, n_samples, seed, tuple(leads))
    return _build_mc_terms.__wrapped__(grid, dists, n_samples, seed, leads)


@lru_cache(maxsize=2)
def _build_mc_terms(grid: SamplingGrid, dists: tuple, n_samples: int, seed,
                    leads):
    """The term list of ``_mc_terms`` from the 12 leads' distributions: W in
    one wave_rate_sum call per rhythm, over every draw of the leads that
    need a drift on it, the identities' drifts derived once per rhythm,
    then one reduction of the draws to (W, e, K)."""
    params, gains = _draw(dists, n_samples, np.random.default_rng(seed))
    rhythm = {lead: dist.rhythm for lead, dist in zip(LEAD_NAMES, dists)}
    targets = [rel.target for rel in limb_relations()]
    # every (lead, rhythm) pair a term reads, grouped by rhythm: each lead
    # on its own, and I and II on every identity target's
    pairs = dict.fromkeys([(lead, rhythm[lead]) for lead in leads]
                          + [(src, rhythm[target]) for target in targets
                             for src in ("I", "II")])
    drift = {}
    for via in dict.fromkeys(r for _, r in pairs):
        group = [lead for lead, r in pairs if r == via]
        ref = reference_trajectory(via, grid)
        cols = [LEAD_INDEX[lead] for lead in group]
        rates = wave_rate_sum(ref.phase, params[:, cols]) + ref.z0
        drift.update(((lead, via), rates[:, j]) for j, lead in enumerate(group))
    limb = {}
    for via in dict.fromkeys(rhythm[target] for target in targets):
        d1, d2 = drift["I", via], drift["II", via]
        limb[via] = {"I": d1, "II": d2, **derive_limb_rows(d1, d2)}
    names = tuple(leads) + tuple(targets)
    g = gains[:, [LEAD_INDEX[lead] for lead in names]][..., None]
    drifts = np.stack([drift[lead, rhythm[lead]] for lead in leads]
                      + [limb[rhythm[target]][target] for target in targets],
                      axis=1)
    # the draws, reduced to (W, e, K); the (draws, T, L-1) steps share one
    # buffer, as fresh temporaries re-faulted ~2 MB of pages per build
    w = np.mean(1.0 / (g * g), axis=0)
    dev = drifts / g
    e = np.mean(dev, axis=0) / w
    np.subtract(drifts, np.divide(e, g, out=dev), out=dev)
    k = np.mean(np.square(dev, out=dev), axis=0).sum(axis=1)
    terms = (names, w[:, 0], e, k, g.min(axis=0)[:, 0])
    for arr in terms[1:]:
        arr.flags.writeable = False
    return terms


def _term_losses(leads: np.ndarray, dt: float, terms, signals=False):
    """The (l1, l2, per_lead) of ``loss_components`` for a (12, L) lead
    matrix and the term list of ``_mc_terms``, in one pass over the
    terms' rows h, scoring each by W*||diff(h)/dt + h[:-1] - e||^2 + K
    whatever the number of draws. The list ends with the limb identities,
    which l2 averages; l1 averages the free leads' own terms before them,
    and per_lead holds every own term. With signals set, every lead
    divided by its smallest gain, and so by every gain drawn, must be
    finite, as a ``LeadSignal``'s samples must."""
    names, w, e, k, least_gain = terms
    h = leads[[LEAD_INDEX[lead] for lead in names]]
    if signals and not np.isfinite(h / least_gain[:, None]).all():
        raise ValueError("samples must be finite")
    r = _residuals(h, dt, e)
    losses = (w * np.vecdot(r, r) + k).tolist()
    own = len(names) - len(limb_relations())
    per_lead = dict(zip(names[:own], losses))
    return (sum(per_lead[lead] for lead in FREE_LEADS) / len(FREE_LEADS),
            sum(losses[own:]) / len(limb_relations()), per_lead)


def loss_components(beat: Heartbeat, table: ParamTable, n_samples: int = 8,
                    seed=0):
    """Monte-Carlo (single-lead, inter-lead, per-lead) loss estimates.

    Returns (l1, l2, per_lead) where l1 averages the single-lead distance
    over draws and the 8 free leads, l2 averages the inter-lead distance
    over draws and the 6 limb identities, and per_lead holds every lead's
    own mean single-lead distance (reporting only).
    """
    terms = _mc_terms(beat.grid, table, beat.label, n_samples, seed)
    return _term_losses(beat.leads, beat.grid.dt, terms, signals=True)


def euler_loss_combined(beat: Heartbeat, table: ParamTable,
                        weights: LossWeights = LossWeights(),
                        n_samples: int = 8, seed=0) -> float:
    """delta-weighted combination of the two Monte-Carlo loss terms.

    delta = 1 scores each free lead against its own dynamics alone;
    delta = 0 scores only the limb identities' inter-lead consistency.
    Deterministic for a fixed seed.
    """
    l1, l2, _ = loss_components(beat, table, n_samples=n_samples, seed=seed)
    return weights.combine(l1, l2)
