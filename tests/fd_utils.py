"""Finite-difference oracles shared by the unit and acceptance tests.

The design-gradient checks evaluate the same frozen-plan objective that the
analytic gradient differentiates: the solver step size, the initial field,
the global-phase alignment angle, and the set of active LEDs are all fixed
at the base design and held constant while the design weights vary.
"""
import numpy as np

from fpmdesign.recon import _unroll, solver_plan
from fpmdesign.training import _align_phase, _loss_value


def frozen_plan_loss(ops, singles_flat, x_true, C_base, alpha, T, spec):
    """Build f(C): the unrolled loss with the solver plan frozen at C_base."""
    K, p = C_base.shape[0], ops.p
    Y_base = (C_base @ singles_flat).reshape(K, p, p)
    x0, eta = solver_plan(ops, Y_base, C_base, alpha)
    x_base, _, _ = _unroll(ops, Y_base, C_base, x0, eta, T)
    theta = _align_phase(x_base, x_true)

    def f(C):
        Y = (C @ singles_flat).reshape(K, p, p)
        x, _, _ = _unroll(ops, Y, C, x0, eta, T)
        return _loss_value(x, x_true, spec, theta)

    return f, f(C_base)


def central_diff_design(f, C, h=1e-6):
    """Dense central-difference gradient of f at C."""
    g = np.zeros_like(C)
    for idx in np.ndindex(C.shape):
        Cp = C.copy()
        Cm = C.copy()
        Cp[idx] += h
        Cm[idx] -= h
        g[idx] = (f(Cp) - f(Cm)) / (2 * h)
    return g


def rel_err_matrix(analytic, numeric):
    """Per-entry relative error with a floor tied to the gradient scale."""
    scale = np.abs(numeric).max()
    denom = np.maximum(np.abs(numeric), 1e-9 * max(scale, 1e-30))
    return np.abs(analytic - numeric) / denom
