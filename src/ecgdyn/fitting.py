"""Uses of the consistency distances: fitting, summarizing, refining.

Three consumers of the same machinery: recover wave parameters from an
observed lead, turn a pile of beats into a per-class Gaussian, and polish
a full 12-lead beat by minimizing the combined loss over its free leads.
Parameter fitting is Levenberg-Marquardt on ``fidelity._lead_residual``
and its Jacobian; refinement minimizes, in O(L), an exact quadratic that
is the score of the free leads' ``leads.assemble_leads`` matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitDiverged, InsufficientDataError
from .fidelity import (LeadSignal, LossWeights, reference_trajectory,
                       _lead_residual, _mc_terms, _term_losses)
from .integrate import SamplingGrid, Trajectory, _euler_z
from .leads import FREE_LEADS, Heartbeat, assemble_leads, derive_limb_rows, limb_relations
from .model import (DEFAULT_RHYTHM, EdmParams, RhythmParams, eta_to_vector,
                    project_eta_vector, vector_to_eta, wrap_angle)
from .params import ParamDistribution, ParamTable, default_eta_for_lead

#: Losses at or below this are floating-point noise around an exact optimum;
#: descending further would only churn bits.
LOSS_FLOOR = 1e-15

#: Levenberg-Marquardt damping: the first trial's lambda, the factor lambda
#: moves by, the floor it shrinks to, and the lambda past which the fit has
#: stalled. Much smaller starting values take Gauss-Newton-sized first
#: steps into wrong minima. Without the floor a long run of accepted steps
#: underflows lambda to 0, and a rejected trial then never grows it.
_LM_LAMBDA0 = 1.0
_LM_FACTOR = 10.0
_LM_LAMBDA_MIN = 1e-12
_LM_LAMBDA_MAX = 1e16

@dataclass(frozen=True)
class OptimConfig:
    """Stopping rules shared by the fitting entry points."""

    max_iter: int = 2000
    tol: float = 1e-12  # stop when the relative decrease falls below this

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")


@dataclass
class FitResult:
    eta: EdmParams
    final_distance: float
    iterations: int
    converged: bool


def fit_params(h: LeadSignal, eta0: EdmParams, rhythm: RhythmParams,
               ref: Trajectory, cfg: OptimConfig = OptimConfig()) -> FitResult:
    """Fit the 15 wave parameters to one lead by Levenberg-Marquardt.

    The residual is the one ``sim_distance`` squares; its Jacobian is -J^T,
    with J the rows of ``_wave_terms``, so every trial point costs one
    ``_wave_terms`` call. Each step solves the damped normal equations
    (J J^T + lam*D) step = J r. D is the running maximum of diag(J J^T)
    over the iterates (Moré's scaling), so a direction whose curvature
    drops on the way keeps the damping it had; with D = diag(J J^T)
    alone, more starts end in minima where two waves have traded places.
    lam shrinks tenfold after a decrease, down to _LM_LAMBDA_MIN, and grows
    tenfold after a rejected trial; once it passes _LM_LAMBDA_MAX no step
    decreases the loss, which counts as converged. Widths are kept at or above B_FLOOR
    and centers re-wrapped after every step.
    """
    def evaluate(v):
        r, jac = _lead_residual(h, v, rhythm, ref, jac=True)
        return float(r @ r), r, jac

    v = project_eta_vector(eta_to_vector(eta0))
    loss, r, jac = evaluate(v)
    if not math.isfinite(loss):
        raise FitDiverged(f"non-finite starting loss {loss!r}")
    lam = _LM_LAMBDA0
    scale = np.zeros(v.size)
    iterations = 0
    converged = loss <= LOSS_FLOOR
    while not converged and iterations < cfg.max_iter:
        a = jac @ jac.T
        scale = np.maximum(scale, np.diag(a))
        damping = np.diag(np.maximum(scale, 1e-12 * max(float(np.max(scale)), 1.0)))
        g = jac @ r  # the residual subtracts the rate, so d(r)/d(eta) = -J^T
        while lam <= _LM_LAMBDA_MAX:
            trial = project_eta_vector(v + np.linalg.solve(a + lam * damping, g))
            trial_loss, trial_r, trial_jac = evaluate(trial)
            if not math.isfinite(trial_loss):
                raise FitDiverged(
                    f"non-finite loss at iteration {iterations + 1}")
            if trial_loss < loss:
                break
            lam *= _LM_FACTOR
        else:  # stalled at a numerical minimum
            converged = True
            break
        iterations += 1
        rel_drop = (loss - trial_loss) / loss
        v, loss, r, jac = trial, trial_loss, trial_r, trial_jac
        converged = loss <= LOSS_FLOOR or rel_drop < cfg.tol
        lam = max(lam / _LM_FACTOR, _LM_LAMBDA_MIN)
    return FitResult(eta=vector_to_eta(v), final_distance=loss,
                     iterations=iterations, converged=converged)


def _beat_rhythm(grid: SamplingGrid) -> RhythmParams:
    """Rhythm implied by a beat's own grid: one revolution per beat."""
    return RhythmParams(f=grid.fs / grid.L, A=DEFAULT_RHYTHM.A,
                        f2=DEFAULT_RHYTHM.f2)


def estimate_distribution(beats, class_code: str, lead: str,
                          cfg: OptimConfig = OptimConfig(),
                          rhythm: RhythmParams | None = None,
                          eta0: EdmParams | None = None,
                          results: list | None = None) -> ParamDistribution:
    """Fit every beat independently and summarize the converged fits.

    Returns the per-parameter mean and population standard deviation as a
    ParamDistribution for (class_code, lead). Beats are model-unit signals,
    so the gain is reported as 1.0 with zero spread; when no rhythm is
    given each beat is fit at the rate its own grid implies. Pass a list as
    ``results`` to receive the per-beat FitResult objects.
    """
    beats = list(beats)
    if len(beats) < 2:
        raise InsufficientDataError(
            f"need at least 2 beats, got {len(beats)}")
    start = eta0 if eta0 is not None else default_eta_for_lead(lead)
    fits = []
    used_rhythm = None
    for beat in beats:
        r = rhythm if rhythm is not None else _beat_rhythm(beat.grid)
        used_rhythm = used_rhythm or r
        ref = reference_trajectory(r, beat.grid)
        result = fit_params(beat, start, r, ref, cfg)
        if results is not None:
            results.append(result)
        if result.converged:
            fits.append(eta_to_vector(result.eta))
    if len(fits) < 2:
        raise InsufficientDataError(
            f"only {len(fits)} of {len(beats)} fits converged")
    # deviations from the first fit, centres wrapped: fits that straddle
    # the +-pi seam average across it, and identical fits give exact zeros
    dev = np.vstack(fits) - fits[0]
    dev[:, 0::3] = wrap_angle(dev[:, 0::3])
    mean = fits[0] + dev.mean(axis=0)
    mean[0::3] = wrap_angle(mean[0::3])
    std = dev.std(axis=0)
    return ParamDistribution(
        class_code=class_code, lead=lead,
        mean=tuple(mean), std=tuple(std),
        gain_mean=1.0, gain_std=0.0, rhythm=used_rhythm)


# ---------------------------------------------------------------------------
# waveform refinement

def _nearest_chain(h0: np.ndarray, target: np.ndarray, dt: float) -> np.ndarray:
    """The solution of diff(h)/dt + h[:-1] = target nearest to h0.

    Every solution is the Euler z recurrence from some start h[0], and two
    differ by a multiple of n[l] = (1 - dt)**l, so the nearest one moves h0
    orthogonally to n.
    """
    h = _euler_z(h0[0], target, dt)
    n = (1.0 - dt) ** np.arange(h0.size)
    return h + ((h0 - h) @ n / (n @ n)) * n


def _solve_limb_pair(terms, dt: float, length: int) -> np.ndarray:
    """Leads I and II, as a 2 x length array, minimizing the limb terms.

    terms is a sequence of (lead, c, W, e), each scoring W*||A_c h - e||^2
    for the lead's combination a of z[l] = (I[l], II[l]). Its residual at
    step l is a.(z[l+1]/dt + (c - 1/dt)*z[l]) - e[l], so the normal
    equations are block tridiagonal in z: 2x2 blocks p + q on the diagonal
    (q alone at the first sample, p alone at the last) and the same
    symmetric b off it. Block elimination in scalar arithmetic solves them
    in O(length); they have full rank whenever a limb identity is a term.
    """
    coef = {"I": np.array([1.0, 0.0]), "II": np.array([0.0, 1.0])}
    coef.update(derive_limb_rows(coef["I"], coef["II"]))
    upper = np.triu_indices(2)  # a symmetric block as (11, 12, 22)
    p, q, b = np.zeros(3), np.zeros(3), np.zeros(3)
    rhs = np.zeros((length, 2))
    for lead, c, weight, target in terms:
        a = coef[lead]
        aa = weight * np.outer(a, a)[upper]
        k = c - 1.0 / dt
        p += aa / (dt * dt)
        q += (k * k) * aa
        b += (k / dt) * aa
        rhs[1:] += np.outer((weight / dt) * target, a)
        rhs[:-1] += np.outer((weight * k) * target, a)
    b11, b12, b22 = b.tolist()
    diag = [q.tolist()] + [(p + q).tolist()] * (length - 2) + [p.tolist()]
    i11 = i12 = i22 = y1 = y2 = 0.0  # nothing precedes the first sample
    inv, ys = [], []
    for (d11, d12, d22), (r1, r2) in zip(diag, rhs.tolist()):
        g11, g12 = b11 * i11 + b12 * i12, b11 * i12 + b12 * i22
        g21, g22 = b12 * i11 + b22 * i12, b12 * i12 + b22 * i22
        s11 = d11 - g11 * b11 - g12 * b12
        s12 = d12 - g11 * b12 - g12 * b22
        s22 = d22 - g21 * b12 - g22 * b22
        y1, y2 = r1 - g11 * y1 - g12 * y2, r2 - g21 * y1 - g22 * y2
        det = s11 * s22 - s12 * s12
        i11, i12, i22 = s22 / det, -s12 / det, s11 / det
        inv.append((i11, i12, i22))
        ys.append((y1, y2))
    z1 = z2 = 0.0  # nor follows the last
    z = []
    for (i11, i12, i22), (y1, y2) in zip(inv[::-1], ys[::-1]):
        c1, c2 = y1 - b11 * z1 - b12 * z2, y2 - b12 * z1 - b22 * z2
        z1, z2 = i11 * c1 + i12 * c2, i12 * c1 + i22 * c2
        z.append((z1, z2))
    return np.array(z[::-1]).T


def refine_waveform(beat0: Heartbeat, table: ParamTable,
                    weights: LossWeights = LossWeights(),
                    seed=0, n_samples: int = 8,
                    history: list | None = None) -> Heartbeat:
    """Move the 8 free leads of a beat to the minimum of the combined loss.

    The loss is the score's, over the free leads' ``leads.assemble_leads``
    matrix: the term list ``fidelity._mc_terms`` builds for
    ``loss_components``, with own terms for the free leads alone and then
    the six limb identities, drawn once up front from the seed, so the
    objective is a fixed deterministic function. A term is
    weight*(W*||A_c h - e||^2 + K) with A_c h = diff(h)/dt + c*h[:-1], the
    completed square ``_mc_terms`` keeps, and weight its half's share of
    the combined loss; the own terms have c = 1. So the loss is an exact
    quadratic, minimized in O(L), nearest the input where the minimum is
    not unique. Where the limb identities carry weight they couple I and
    II, and one pair solve sets both rows from every weighted term on a
    limb lead; each other lead's own term alone is met exactly by the
    Euler z recurrence, and a lead without terms keeps its input. The four
    dependent limb leads are re-derived from leads I and II, so the output
    satisfies the limb identities to rounding. Pass a list as ``history``
    to receive the loss before and after.
    """
    dt = beat0.grid.dt
    terms = _mc_terms(beat0.grid, table, beat0.label, n_samples, seed,
                      leads=FREE_LEADS)

    def loss(u: np.ndarray) -> float:
        return weights.combine(*_term_losses(assemble_leads(u), dt, terms)[:2])

    u0 = np.vstack([beat0.lead(lead) for lead in FREE_LEADS])
    start = loss(u0)
    if not math.isfinite(start):
        raise FitDiverged(f"non-finite starting loss {start!r}")
    if start <= LOSS_FLOOR:
        return beat0  # already on the dynamics; nothing to move
    # a term's weight is the combination's slope in its half of the loss
    w1 = weights.combine(1.0, 0.0) / len(FREE_LEADS)
    w2 = weights.combine(0.0, 1.0) / len(limb_relations())
    names, coeffs, w, e, *_ = terms
    shares = [w1] * len(FREE_LEADS) + [w2] * len(limb_relations())
    u, chained = u0.copy(), range(len(FREE_LEADS))
    if w2 > 0.0:  # the identities couple I and II: one solve sets both rows
        pair = [(lead, c, s * w_t, e_t) for lead, c, s, w_t, e_t in
                zip(names, coeffs.tolist(), shares, w.tolist(), e)
                if s > 0.0 and lead not in FREE_LEADS[2:]]  # limb-lead terms
        u[:2] = _solve_limb_pair(pair, dt, u0.shape[1])
        chained = range(2, len(FREE_LEADS))
    if w1 > 0.0:
        for j in chained:
            u[j] = _nearest_chain(u0[j], e[j], dt)
    if not np.all(np.isfinite(u)):
        raise FitDiverged("non-finite refined leads")
    if history is not None:
        history.extend([start, loss(u)])
    return Heartbeat(grid=beat0.grid, leads=assemble_leads(u), label=beat0.label)
