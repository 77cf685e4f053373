"""Intensity-domain inverse problem and the unrolled gradient-descent solver.

The data-fit cost is

    cost(x) = sum_k || y_k - sum_l c_kl |A_l x|^2 ||_2^2

and the solver is T steps of plain gradient descent from a constant field.
This fixed computation graph is what training differentiates through.
Measurement stacks are centered, as everywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ReconConfig
from .errors import DivergenceError, FpmError
from .optics import MeasurementStack, SubApertureOps

__all__ = [
    "ReconTrace", "cost", "grad_x", "curvature_scale", "reconstruct",
]


@dataclass
class ReconTrace:
    x_star: np.ndarray
    cost_history: list[float] = field(default_factory=list)


def _check_dims(ops: SubApertureOps, Y: np.ndarray, C: np.ndarray):
    if C.ndim != 2 or C.shape[1] != ops.L:
        raise FpmError(f"design is {C.shape}, expected K x {ops.L}")
    if Y.shape != (C.shape[0], ops.p, ops.p):
        raise FpmError(f"stack is {Y.shape}, expected {(C.shape[0], ops.p, ops.p)}")


def _cost_terms(ops, x, Y, C):
    """Shared forward pass: per-LED fields, intensities, residuals."""
    fields = ops.forward(x)
    intens = np.abs(fields) ** 2
    resid = Y - np.tensordot(C, intens, axes=(1, 0))
    return fields, intens, resid


def _cost_grad(ops, x, Y, C, want_grad=True):
    """Cost and its gradient w.r.t. the real parameterization of x.

    The -4 factor follows from d|f|^2 = 2 Re(conj(f) df) applied twice
    (once for the residual, once per field); the finite-difference tests
    pin this convention.
    """
    fields, _, resid = _cost_terms(ops, x, Y, C)
    value = float(np.sum(resid * resid))
    if not want_grad:
        return value, None, (fields, resid)
    weighted = np.tensordot(C.T, resid, axes=(1, 0))
    grad = -4.0 * ops.adjoint_sum(weighted * fields)
    return value, grad, (fields, resid)


def _hessian_vec(ops, u, fields, resid, C):
    """Hessian-vector product of the cost at the point that produced
    (fields, resid), applied to the field u. Real-parameterization Hessian.

    Returns (H u, inner) with inner = Re(conj(A_l u) * A_l x) per LED, the
    linearized intensity change that the design gradient reuses.
    """
    hu = ops.forward(u)
    inner = np.real(np.conj(hu) * fields)
    mixed = np.tensordot(C.T, np.tensordot(C, inner, axes=(1, 0)), axes=(1, 0))
    weighted = np.tensordot(C.T, resid, axes=(1, 0))
    # the -4 scales the (q, q) result, not the larger (L, p, p) stack
    return -4.0 * ops.adjoint_sum(weighted * hu - 2.0 * mixed * fields), inner


def curvature_scale(ops, x0, Y, C, iters: int = 16) -> float:
    """Dominant curvature magnitude of the cost at x0 by power iteration.

    The quartic cost has a data-dependent scale, so a raw step size is
    meaningless across stacks; the solver expresses its step in units of
    1 / curvature_scale. The starting vector is a fixed smooth ramp to keep
    the estimate deterministic.
    """
    _, _, (fields, resid) = _cost_grad(ops, x0, Y, C, want_grad=False)
    ramp = np.arange(ops.q) / ops.q
    u = (1.0 + 0.1 * ramp[:, None] + 0.05 * ramp[None, :]).astype(complex)
    u /= np.linalg.norm(u)
    top = 0.0
    for _ in range(iters):
        hu, _ = _hessian_vec(ops, u, fields, resid, C)
        top = abs(float(np.vdot(u, hu).real))
        norm = np.linalg.norm(hu)
        if norm < 1e-300:
            return 0.0
        u = hu / norm
    return top


def _initial_field(ops, Y) -> np.ndarray:
    """Constant field matched to the first measurement's mean intensity."""
    amp = np.sqrt(max(float(Y[0].mean()), 0.0) * ops.p ** 2 / ops.q ** 2)
    return np.full((ops.q, ops.q), amp, dtype=complex)


def solver_plan(ops, Y, C, alpha):
    """Initializer and normalized step for the unrolled solver.

    Both are treated as constants during design training (the initializer is
    a fixed network input; the curvature normalization is part of the solver
    definition, not of the differentiated graph).
    """
    x0 = _initial_field(ops, Y)
    top = curvature_scale(ops, x0, Y, C)
    eta = alpha / top if top > 0 else 0.0
    return x0, eta


def _unroll(ops, Y, C, x0, eta, T, keep_every=0, keep_terms=False):
    """T gradient steps from x0: the one place a solver step is taken.

    Returns the final iterate x_T, the costs at x_0..x_{T-1}, and the
    iterates {t: x_t} for 0 <= t <= T with t % keep_every == 0 (none when
    keep_every is 0). A step rebinds x and never writes into it, so the
    kept iterates need no copy. With keep_terms, each kept entry is
    (x_t, (fields, resid)) with the forward terms the step at x_t computed;
    no step is taken at x_T, so it is kept as (x_T, None).
    """
    x = x0
    costs = []
    kept = {}
    for t in range(T):
        value, grad, terms = _cost_grad(ops, x, Y, C)
        if keep_every and t % keep_every == 0:
            kept[t] = (x, terms) if keep_terms else x
        costs.append(value)
        x = x - eta * grad
        if not np.all(np.isfinite(x)):
            raise DivergenceError(t + 1)
    if keep_every and T % keep_every == 0:
        kept[T] = (x, None) if keep_terms else x
    return x, costs, kept


# -------- public, spec-level entry points --------

def cost(x, stack: MeasurementStack, C, geometry, pupil, cfg) -> float:
    ops = SubApertureOps.for_geometry(geometry, pupil, cfg)
    C = np.asarray(C, dtype=float)
    _check_dims(ops, stack.images, C)
    value, _, _ = _cost_grad(ops, x, stack.images, C, want_grad=False)
    return value


def grad_x(x, stack: MeasurementStack, C, geometry, pupil, cfg) -> np.ndarray:
    ops = SubApertureOps.for_geometry(geometry, pupil, cfg)
    C = np.asarray(C, dtype=float)
    _check_dims(ops, stack.images, C)
    _, grad, _ = _cost_grad(ops, x, stack.images, C)
    return grad


def reconstruct(stack: MeasurementStack, C, geometry, pupil, cfg,
                rcfg: ReconConfig) -> ReconTrace:
    """Run the T-step unrolled solver on a measurement stack.

    LEDs with zero weight in every measurement are skipped; with strictly
    positive weights defining the active set this is mathematically identical
    and much faster for sparse designs.
    """
    C = np.asarray(C, dtype=float)
    ops = SubApertureOps.for_geometry(geometry, pupil, cfg)
    _check_dims(ops, stack.images, C)
    active = C.sum(axis=0) > 0
    sub, C = ops.subset(active), C[:, active]
    Y = stack.images
    x0, eta = solver_plan(sub, Y, C, rcfg.step_alpha)
    x, history, _ = _unroll(sub, Y, C, x0, eta, rcfg.unroll_T)
    final, _, _ = _cost_grad(sub, x, Y, C, want_grad=False)
    return ReconTrace(x_star=x, cost_history=history + [final])
