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

The combined loss is the expectation of these terms over the class
table's distributions, as the paper defines it. Scoring
(``loss_components``) and refinement share every step of it, so
refinement's loss is the score: ``_term_losses`` reduces the terms and
``LossWeights.combine`` weights the two means. ``_mc_terms``, the one place
that builds the terms, returns one term list, each lead's own term and
then the six limb identities, which one pass scores and refinement solves
against. The synthesizer derives III, aVR, aVL and aVF from leads I and
II, so every limb lead's drift, in its own term and in its identity, is
the ``leads.derive_limb_rows`` combination of I's and II's on its rhythm:
an exact beat of the table satisfies every term, and the derived leads'
own table entries give only their gains and rhythms.

A term with gain g and drift d scores a lead h by the expectation of
||s/g - d||^2, s = diff(h)/dt + h[:-1]. Its completed square is
W*||s - e||^2 + K, with W = E[1/g^2], e = E[d/g] / W and
K = sum_l E[(d_l - e_l/g)^2], none of which depends on the beat, so
scoring a beat costs one pass over its leads. Every parameter is an
independent normal, projected as a draw is, and d is linear in the
amplitudes, so (W, e, K) need only each wave's E[psi] and Var(psi) of
psi = dW/da over its centre and width, which ``_build_mc_terms`` sums over
8 x 8 Gauss–Hermite nodes through ``model._wave_terms``, and the gain's
moments, a sum over 8 nodes. Nothing is drawn, so the score
carries no sampling noise and no seed: every beat of a file, and every
file on the same grid and class table, shares one term list, and
``_build_mc_terms`` keeps the last two built (refine's and score's), as
read-only arrays. ``draw_param_samples`` still draws from a table, as
synthesis does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError
from .integrate import SamplingGrid, Trajectory, _Reference, reference_trajectory
from .leads import (FREE_LEADS, Heartbeat, LEAD_INDEX, LEAD_NAMES, LeadRelation,
                    check_lead, derive_limb_rows, limb_relations)
from .model import (B_FLOOR, N_PARAMS, EdmParams, _wave_terms, eta_to_vector,
                    project_eta_vector, vector_to_eta, wave_rate_sum)
from .params import GAIN_FLOOR, ParamTable, _draw, _pack, require_dist


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


#: Gauss–Hermite nodes per random parameter of the term build. The exact
#: expectation of the shipped table converges by 8: 6 and 8 nodes agree to
#: 3e-10 relative.
_NODES = 8

#: Each limb lead as its coefficients on leads I and II: its drift, and so
#: its drift's mean, is that combination of theirs, and its variance the
#: squared coefficients' combination of their independent draws' variances
_LIMB_COEF = {"I": np.array([1.0, 0.0]), "II": np.array([0.0, 1.0])}
_LIMB_COEF.update(derive_limb_rows(_LIMB_COEF["I"], _LIMB_COEF["II"]))


def _check_draw_args(n_samples: int, seed) -> None:
    """The draw count and seed of the Monte-Carlo loss that the exact
    expectation replaced: refused where a draw would refuse them, and
    otherwise bound to nothing."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if not (seed is None or isinstance(seed, (np.random.Generator, np.random.BitGenerator,
                                              np.random.SeedSequence))):
        np.random.SeedSequence(seed)  # default_rng's check of an int seed


def _mc_terms(grid: SamplingGrid, table: ParamTable, label: str | None,
              n_samples: int = 8, seed=0, leads=LEAD_NAMES):
    """The terms of the combined loss, as one term list.

    The list is (names, w, e, k, least_gain): the lead each of its T terms
    scores, each term's completed square as (T,) weights W, (T, L-1)
    targets e and (T,) constants K, and each term's (T,) smallest gain
    node, all read-only. The own terms of the leads in leads come first,
    in that order; the six limb identities follow in limb_relations()
    order. A term scores a lead h with the lead's gain g by
    W*||diff(h)/dt + h[:-1] - e||^2 + K, the expectation over the table of
    ||_residuals(h / g, dt, d)||^2 with drift d. A free lead's own term
    takes its own drift; every limb lead's, own term or identity, takes
    the ``leads.derive_limb_rows`` combination of leads I's and II's drifts
    on its rhythm and reference, so the dependent leads are combinations
    of I and II, with the z coefficient 1 of every rate.

    n_samples and seed are checked as a draw would check them and bind
    nothing. Every beat of a file shares the grid and the class table, so
    the last two term lists (refine's and score's) are kept by
    ``_build_mc_terms`` and served again for the same grid, the label's 12
    distributions (compared by value) and leads.
    """
    _check_draw_args(n_samples, seed)
    if label is None:
        raise ConfigurationError("heartbeat carries no class label")
    return _build_mc_terms(grid, tuple(_dists(table, label)), tuple(leads))


def _hermite_rule(n: int):
    """The n nodes x and weights w with sum(w*f(x)) ~ E[f(Z)] for a standard
    normal Z, exact for polynomials of degree below 2n: the eigenvalues of
    the Jacobi matrix of the monic Hermite recurrence and the squared first
    components of its eigenvectors (Golub & Welsch, Math. Comp. 23:221, 1969)."""
    off = np.sqrt(np.arange(1.0, n))
    x, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return x, vectors[0] ** 2


def _psi_moments(phase: np.ndarray, theta: np.ndarray, b: np.ndarray,
                 weights: np.ndarray):
    """E[psi] and Var(psi) of one wave's psi = dW/da = -d*exp(-d^2/2b^2) on
    the phases, over the node pairs (theta[i], b[j]) of weight weights[i, j].
    psi at a pair is an amplitude row of ``_wave_terms``' Jacobian: one call
    per centre node takes every width node, five to a parameter set, one in
    each wave's slot, and the rows pass through one (pairs, phases) buffer."""
    psi = np.empty((theta.size, b.size, phase.size))
    sets = -(-b.size // 5)
    waves = np.ones((sets * 5, 3))  # a padded slot is a valid wave, unread
    waves[:b.size, 2] = b
    for row, centre in zip(psi, theta):
        waves[:, 0] = centre
        _, jac = _wave_terms(phase, waves.reshape(sets, N_PARAMS), True)
        row[:] = jac[1::3].transpose(1, 0, 2).reshape(-1, phase.size)[:b.size]
    psi = psi.reshape(-1, phase.size)
    w = weights.ravel()
    mean = w @ psi
    psi -= mean
    return mean, w @ np.square(psi, out=psi)


@lru_cache(maxsize=2)
def _build_mc_terms(grid: SamplingGrid, dists: tuple, leads):
    """The term list of ``_mc_terms`` from the 12 leads' distributions.

    Gains and wave parameters are independent normals, projected as
    ``params._draw`` projects a draw, so each term needs per-wave moments.
    A wave's psi = dW/da depends on its centre and width alone: E[psi] and
    Var(psi) are Gauss–Hermite sums over their _NODES x _NODES nodes, with
    the wrap and the B_FLOOR clamp applied at the nodes, shared by every
    lead and rhythm whose wave has that distribution. The drift
    d = z0 + sum a*psi then has E[d] = z0 + sum mu_a*E[psi] and
    Var(d) = sum sigma_a^2*E[psi^2] + mu_a^2*Var(psi), and a term with
    gain nodes g has W = E[1/g^2], e = E[d]*E[1/g]/W and
    K = sum_l Var(d_l) + E[d_l]^2*Var(1/g)/W, each part >= 0. A parameter
    without spread puts all its weight on one node, so a zero-variance
    table's terms are its means' exactly.
    """
    x, wx = _hermite_rule(_NODES)
    lone = np.identity(_NODES)[0]  # a parameter without spread: one node
    mean, std, gain_mean, gain_std = _pack(dists)
    # every parameter at every node, projected as a draw, and its weights
    nodes = project_eta_vector(mean + std * x[:, None, None])
    weights = np.where(std > 0.0, wx[:, None, None], lone[:, None, None])
    gains = np.maximum(gain_mean + gain_std * x[:, None], GAIN_FLOOR)
    gain_w = np.where(gain_std > 0.0, wx[:, None], lone[:, None])

    rhythm = {lead: dist.rhythm for lead, dist in zip(LEAD_NAMES, dists)}
    names = tuple(leads) + tuple(rel.target for rel in limb_relations())
    refs = {via: reference_trajectory(via, grid)
            for via in dict.fromkeys(rhythm[lead] for lead in names)}
    waves, drifts = {}, {}

    def axis(j, i):
        """The nodes and weights of lead j's parameter i, weighted ones only."""
        used = weights[:, j, i] > 0.0
        return nodes[used, j, i], weights[used, j, i]

    def drift(lead, via):
        """E[d] and Var(d) of lead's drift on the rhythm via."""
        if (lead, via) not in drifts:
            j, ref = LEAD_INDEX[lead], refs[via]
            mu, var = np.zeros(ref.phase.size), np.zeros(ref.phase.size)
            for t, a, b in ((3 * k, 3 * k + 1, 3 * k + 2) for k in range(5)):
                key = (via, mean[j, t], std[j, t], mean[j, b], std[j, b])
                if key not in waves:
                    (theta, w_theta), (width, w_width) = axis(j, t), axis(j, b)
                    waves[key] = _psi_moments(ref.phase, theta, width,
                                              np.outer(w_theta, w_width))
                m_psi, v_psi = waves[key]
                mu += mean[j, a] * m_psi
                var += std[j, a] ** 2 * (v_psi + m_psi * m_psi) + mean[j, a] ** 2 * v_psi
            drifts[lead, via] = mu + ref.z0, var
        return drifts[lead, via]

    def moments(lead):
        """E[d] and Var(d) of the drift that scores lead."""
        if lead in FREE_LEADS:
            return drift(lead, rhythm[lead])
        (mu_i, var_i), (mu_ii, var_ii) = (drift(src, rhythm[lead]) for src in ("I", "II"))
        coef = _LIMB_COEF[lead]
        return coef @ np.stack([mu_i, mu_ii]), (coef * coef) @ np.stack([var_i, var_ii])

    mu, var = (np.stack(arrs) for arrs in zip(*map(moments, names)))
    cols = [LEAD_INDEX[lead] for lead in names]
    inv, gw = 1.0 / gains[:, cols], gain_w[:, cols]
    inv_mean = (gw * inv).sum(axis=0)
    w = (gw * inv * inv).sum(axis=0)
    inv_var = (gw * np.square(inv - inv_mean)).sum(axis=0)
    e = mu * (inv_mean / w)[:, None]
    k = var.sum(axis=1) + (mu * mu).sum(axis=1) * (inv_var / w)
    terms = (names, w, e, k, gains[:, cols].min(axis=0))
    for arr in terms[1:]:
        arr.flags.writeable = False
    return terms


def _term_losses(leads: np.ndarray, dt: float, terms, signals=False):
    """The (l1, l2, per_lead) of ``loss_components`` for a (12, L) lead
    matrix and the term list of ``_mc_terms``, in one pass over the
    terms' rows h, scoring each by W*||diff(h)/dt + h[:-1] - e||^2 + K.
    The list ends with the limb identities, which l2 averages; l1 averages
    the free leads' own terms before them, and per_lead holds every own
    term. With signals set, every lead divided by its smallest gain node,
    and so by every gain node, must be finite, as a ``LeadSignal``'s
    samples must."""
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
    """The (single-lead, inter-lead, per-lead) loss expectations.

    Returns (l1, l2, per_lead) where l1 averages the expected single-lead
    distance over the 8 free leads, l2 averages the expected inter-lead
    distance over the 6 limb identities, and per_lead holds every lead's
    own expected distance (reporting only), a limb lead's from leads I and
    II as its identity's. n_samples (>= 1) and seed are checked and bind
    nothing: the expectation is exact, not drawn.
    """
    terms = _mc_terms(beat.grid, table, beat.label, n_samples, seed)
    return _term_losses(beat.leads, beat.grid.dt, terms, signals=True)


def euler_loss_combined(beat: Heartbeat, table: ParamTable,
                        weights: LossWeights = LossWeights(),
                        n_samples: int = 8, seed=0) -> float:
    """delta-weighted combination of the two expected loss terms.

    delta = 1 scores each free lead against its own dynamics alone;
    delta = 0 scores only the limb identities' inter-lead consistency.
    Deterministic, whatever n_samples and seed, which bind nothing.
    """
    l1, l2, _ = loss_components(beat, table, n_samples=n_samples, seed=seed)
    return weights.combine(l1, l2)
