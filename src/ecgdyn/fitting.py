"""Uses of the consistency distances: fitting, summarizing, refining.

Three consumers of the same machinery: recover wave parameters from an
observed lead, turn a pile of beats into a per-class Gaussian, and polish
a full 12-lead beat by descending the combined loss over its free leads.
Parameter fitting is Levenberg-Marquardt on the residual of the
single-lead distance, whose Jacobian is the one ``model._wave_terms``
returns with W; the waveform objective is an exact quadratic, where
first-order conjugate directions converge in a fraction of the steps
plain descent needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FitDiverged, InsufficientDataError
from .fidelity import (LeadSignal, LossWeights, reference_trajectory,
                       _check_same_grid, _drift_rate, _grad_wrt_h, _mc_terms,
                       _ref_phase, _residuals)
from .integrate import SamplingGrid, Trajectory
from .leads import FREE_LEADS, Heartbeat, LEAD_NAMES, derive_limb_rows, limb_relations
from .model import (DEFAULT_RHYTHM, EdmParams, RhythmParams, _project_eta_vector,
                    _wave_terms, eta_to_vector, vector_to_eta)
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

#: Conjugate-gradient probe length and backtracking factor.
_CG_STEP = 1.0
_CG_BACKTRACK = 0.5


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


def _descend_cg(x0, value_fn, grad_fn, cfg: OptimConfig, history=None):
    """Conjugate-gradient descent for objectives quadratic in x.

    Directions follow Fletcher-Reeves; the step along each direction comes
    from an exact parabola fit (one probe evaluation), with halving as a
    guard so accepted losses stay strictly decreasing even under rounding.
    Plain steepest descent stalls on this problem class: the difference-
    quotient term makes the quadratic stiff, and measured convergence was
    several times too slow for the refinement budget.
    """
    x = np.array(x0, dtype=float, copy=True)
    loss = value_fn(x)
    if not math.isfinite(loss):
        raise FitDiverged(f"non-finite starting loss {loss!r}")
    if history is not None:
        history.append(loss)
    if loss <= LOSS_FLOOR:
        return x, loss, 0, True
    grad = grad_fn(x)
    gg = float(np.sum(grad * grad))
    direction = -grad
    probe = _CG_STEP
    iterations = 0
    converged = False
    for it in range(1, cfg.max_iter + 1):
        gd = float(np.sum(grad * direction))
        if gd >= 0.0:  # conjugacy lost to rounding; restart downhill
            direction = -grad
            gd = -gg
        probe_loss = value_fn(x + probe * direction)
        if not math.isfinite(probe_loss):
            raise FitDiverged(f"non-finite loss at iteration {it}")
        curvature = 2.0 * (probe_loss - loss - probe * gd) / (probe * probe)
        if curvature > 0.0:
            alpha = -gd / curvature
        else:
            alpha = probe if probe_loss < loss else 0.5 * probe
        new_loss = value_fn(x + alpha * direction)
        while new_loss >= loss and alpha > 1e-20 * _CG_STEP:
            alpha *= _CG_BACKTRACK
            new_loss = value_fn(x + alpha * direction)
        if new_loss >= loss:
            converged = True  # no decrease along any candidate: at the bottom
            break
        if not math.isfinite(new_loss):
            raise FitDiverged(f"non-finite loss at iteration {it}")
        iterations = it
        rel_drop = (loss - new_loss) / loss
        x = x + alpha * direction
        loss = new_loss
        if history is not None:
            history.append(loss)
        if loss <= LOSS_FLOOR or rel_drop < cfg.tol:
            converged = True
            break
        new_grad = grad_fn(x)
        new_gg = float(np.sum(new_grad * new_grad))
        direction = -new_grad + (new_gg / gg) * direction
        grad, gg = new_grad, new_gg
        probe = alpha
    return x, loss, iterations, converged


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
    _check_same_grid(h, ref)
    phase = _ref_phase(ref)

    def evaluate(v):
        eta = vector_to_eta(v)
        w, jac = _wave_terms(phase, eta, jac=True)
        r = _residuals(h.samples, h.grid.dt, _drift_rate(ref, eta, rhythm, w))
        return float(r @ r), r, jac

    v = _project_eta_vector(eta_to_vector(eta0))
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
        while True:
            trial = _project_eta_vector(v + np.linalg.solve(a + lam * damping, g))
            trial_loss, trial_r, trial_jac = evaluate(trial)
            if not math.isfinite(trial_loss):
                raise FitDiverged(
                    f"non-finite loss at iteration {iterations + 1}")
            if trial_loss < loss:
                break
            lam *= _LM_FACTOR
            if lam > _LM_LAMBDA_MAX:  # stalled at a numerical minimum
                return FitResult(eta=vector_to_eta(v), final_distance=loss,
                                 iterations=iterations, converged=True)
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
    stack = np.vstack(fits)
    mean = stack.mean(axis=0)
    std = stack.std(axis=0)
    # identical fits must report exactly zero spread; np.mean of equal
    # floats is not bit-exact, so pin constant columns explicitly
    constant = np.all(stack == stack[0], axis=0)
    mean[constant] = stack[0][constant]
    std[constant] = 0.0
    return ParamDistribution(
        class_code=class_code, lead=lead,
        mean=tuple(mean), std=tuple(std),
        gain_mean=1.0, gain_std=0.0, rhythm=used_rhythm)


# ---------------------------------------------------------------------------
# waveform refinement

def _row_chain() -> dict[str, tuple[slice, float | np.ndarray]]:
    """Where each lead row sits in the free-row matrix, and with what weights.

    A free lead is its own row. A derived limb lead is a fixed combination
    of rows I and II; the coefficients are read off derive_limb_rows applied
    to unit rows, so the chain rule cannot drift from the derivation.
    """
    chain = {lead: (slice(j, j + 1), 1.0) for j, lead in enumerate(FREE_LEADS)}
    unit = derive_limb_rows(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
    chain.update({lead: (slice(0, 2), coef) for lead, coef in unit.items()})
    return chain


class _RefineProblem:
    """Precomputed combined-loss objective over the 8 free lead rows.

    The model rate is linear in the waveform, so everything that does not
    depend on the optimization variables (wave-sum drifts per Monte-Carlo
    draw, gains, weights) is evaluated once up front; each loss evaluation
    is then pure vector arithmetic. The terms are those ``fidelity._mc_terms``
    builds for ``loss_components``: each free lead's own term weighted by
    w1, then each limb identity's term weighted by w2, every one a
    single-lead distance (weight, lead, gain, drift, z_coeff).
    """

    def __init__(self, beat: Heartbeat, table: ParamTable,
                 weights: LossWeights, n_samples: int, seed):
        if beat.label is None:
            raise ConfigurationError("refinement requires a labeled heartbeat")
        self.grid = beat.grid
        self.dt = beat.grid.dt
        draws = _mc_terms(beat.grid, table, beat.label, n_samples, seed)
        w1 = weights.delta / (n_samples * len(FREE_LEADS))
        w2 = (1.0 - weights.delta) / (n_samples * len(limb_relations()))
        free = [(w1,) + t for single, _ in draws for t in single
                if t[0] in FREE_LEADS]
        related = [(w2,) + t for _, rel_terms in draws for t in rel_terms]
        self.terms = (free if w1 > 0.0 else []) + (related if w2 > 0.0 else [])
        self.chain = _row_chain()

    def _rows(self, u: np.ndarray) -> dict[str, np.ndarray]:
        rows = {lead: u[j] for j, lead in enumerate(FREE_LEADS)}
        rows.update(derive_limb_rows(u[0], u[1]))
        return rows

    def loss(self, u: np.ndarray) -> float:
        rows = self._rows(u)
        total = 0.0
        for weight, lead, gain, drift, c in self.terms:
            r = _residuals(rows[lead] / gain, self.dt, drift, c)
            total += weight * float(r @ r)
        return total

    def grad(self, u: np.ndarray) -> np.ndarray:
        rows = self._rows(u)
        g = np.zeros_like(u)
        for weight, lead, gain, drift, c in self.terms:
            gh = (weight / gain) * _grad_wrt_h(rows[lead] / gain, self.dt,
                                               drift, c)
            where, coef = self.chain[lead]
            g[where] += coef * gh
        return g

    def assemble(self, u: np.ndarray, label: str | None) -> Heartbeat:
        rows = self._rows(u)
        matrix = np.vstack([rows[name] for name in LEAD_NAMES])
        return Heartbeat(grid=self.grid, leads=matrix, label=label)


def refine_waveform(beat0: Heartbeat, table: ParamTable,
                    weights: LossWeights = LossWeights(),
                    cfg: OptimConfig = OptimConfig(max_iter=500),
                    seed=0, n_samples: int = 8,
                    history: list | None = None) -> Heartbeat:
    """Descend the combined loss over the 8 free leads of a beat.

    The four dependent limb leads are re-derived from leads I and II after
    every accepted step, so the output satisfies the limb identities to
    rounding no matter where the descent stops. The Monte-Carlo parameter
    draws are taken once up front from the seed, making the objective a
    fixed deterministic function. Pass a list as ``history`` to record the
    accepted loss values.
    """
    problem = _RefineProblem(beat0, table, weights, n_samples, seed)
    u0 = np.vstack([beat0.lead(lead) for lead in FREE_LEADS])
    if problem.loss(u0) <= LOSS_FLOOR:
        return beat0  # already on the dynamics; nothing to move
    u, _, _, _ = _descend_cg(u0, problem.loss, problem.grad, cfg,
                             history=history)
    return problem.assemble(u, beat0.label)
