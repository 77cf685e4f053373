"""Design learning: loss, reverse-mode gradient through the unrolled solver,
constraint projection, and the projected-SGD training loop.

The design matrix C enters the computation twice: it synthesizes the
multiplexed measurements y_k = sum_l c_kl s_l, and it appears inside every
gradient step of the solver. The reverse pass below accumulates both paths
by hand; it re-materializes solver iterates from checkpoints so memory stays
O(sqrt(T)) states instead of O(T).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import LossSpec, SystemConfig, TrainConfig, parallel_map
from .designs import DesignMatrix, context_mask, AMPLITUDE, PHASE, MIXED
from .errors import DegenerateRowError, FpmError
from .geometry import LedGeometry
from .optics import (MeasurementStack, Pupil, SubApertureOps, add_shot_noise,
                     simulate_singles)
from .phantoms import Dataset
from .recon import _cost_terms, _hessian_vec, _unroll, solver_plan

__all__ = [
    "loss", "grad_design", "project", "train", "TrainResult", "loss_spec_for",
]


def wrap_angle(d):
    """Map angle differences to the principal interval (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(d), 2.0 * np.pi)


def _align_phase(x_star, x_true):
    return float(np.angle(np.sum(x_star * np.conj(x_true))))


def loss(x_star, x_true, spec: LossSpec) -> float:
    """Weighted amplitude/phase squared error after global-phase alignment."""
    if x_star.shape != x_true.shape:
        raise FpmError(f"shape mismatch {x_star.shape} vs {x_true.shape}")
    return _loss_value(x_star, x_true, spec, _align_phase(x_star, x_true))


def _loss_value(x_star, x_true, spec, theta):
    aligned = x_star * np.exp(-1j * theta)
    amp_term = np.sum((np.abs(aligned) - np.abs(x_true)) ** 2)
    diff = wrap_angle(np.angle(aligned) - np.angle(x_true))
    phase_term = np.sum(diff ** 2)
    return float(spec.gamma * amp_term + (1.0 - spec.gamma) * phase_term)


def _loss_grad(x_star, x_true, spec, theta):
    """Gradient w.r.t. the real parameterization of x_star; theta is frozen."""
    aligned = x_star * np.exp(-1j * theta)
    mag = np.abs(aligned)
    # both terms are singular at a zero-magnitude pixel; it gets zero gradient
    nonzero = mag > 0
    g = np.divide(spec.gamma * 2.0 * (mag - np.abs(x_true)) * aligned, mag,
                  out=np.zeros_like(aligned), where=nonzero)
    diff = wrap_angle(np.angle(aligned) - np.angle(x_true))
    g = g + (1.0 - spec.gamma) * 2.0 * diff * np.divide(
        1j * aligned, mag ** 2, out=np.zeros_like(aligned), where=nonzero)
    return g * np.exp(1j * theta)


def project(C_raw: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mask forbidden entries, clamp negatives, rescale rows to sum 1."""
    C = np.where(mask, np.maximum(np.asarray(C_raw, dtype=float), 0.0), 0.0)
    sums = C.sum(axis=1, keepdims=True)
    dead = np.flatnonzero(sums[:, 0] <= 0.0)
    if dead.size:
        raise DegenerateRowError(f"design row {dead[0]} is all zero after projection")
    return C / sums


def _example_grad(ops, singles_flat, x_true, C, T, alpha, spec, stride):
    """Loss and dLoss/dC for one training example, singles (L, p*p).

    Reverse-mode through: multiplex -> T gradient steps -> aligned loss.
    The initializer, step normalization, and alignment angle are constants
    of the graph. lam carries dLoss/d(x_t) backwards through the step's
    linearization lam - eta * H lam, which ``recon._hessian_vec`` gives
    together with the linearized intensities that the two C-paths
    (residual synthesis and the in-solver weights) contract. Each segment
    is re-materialized from its checkpoint with the forward terms its steps
    computed, so only the segment's last state needs a forward of its own.
    """
    K = C.shape[0]
    p2 = ops.p * ops.p
    Y = (C @ singles_flat).reshape(K, ops.p, ops.p)
    x0, eta = solver_plan(ops, Y, C, alpha)
    x, _, checkpoints = _unroll(ops, Y, C, x0, eta, T, keep_every=stride)

    theta = _align_phase(x, x_true)
    loss_val = _loss_value(x, x_true, spec, theta)
    lam = _loss_grad(x, x_true, spec, theta)

    dC = np.zeros_like(C)
    for seg_start in reversed(range(0, T, stride)):
        seg_end = min(seg_start + stride, T)
        _, _, states = _unroll(ops, Y, C, checkpoints[seg_start], eta,
                               seg_end - seg_start - 1, keep_every=1, keep_terms=True)
        for t in reversed(range(seg_start, seg_end)):
            x_t, terms = states.pop(t - seg_start)
            if terms is None:
                fields, _, resid = _cost_terms(ops, x_t, Y, C)
            else:
                fields, resid = terms
            h_lam, inner = _hessian_vec(ops, lam, fields, resid, C)
            intens = (np.abs(fields) ** 2).reshape(ops.L, p2)
            inner = inner.reshape(ops.L, p2)
            dC += 4.0 * eta * (resid.reshape(K, p2) @ inner.T
                               + (C @ inner) @ (singles_flat - intens).T)
            lam = lam - eta * h_lam
    return loss_val, dC


def _resolve_stride(tcfg: TrainConfig) -> int:
    """Checkpoint spacing of the reverse sweep: round(sqrt(T)), at least 1."""
    return max(1, int(round(np.sqrt(tcfg.unroll.unroll_T))))


def _batch_grad(ops, batch, C, spec, tcfg):
    """Mean loss and mean gradient over a batch of (singles, x_true)."""
    T = tcfg.unroll.unroll_T
    alpha = tcfg.unroll.step_alpha
    stride = _resolve_stride(tcfg)

    def run(item):
        singles, x_true = item
        flat = np.asarray(singles, dtype=float).reshape(ops.L, -1)
        return _example_grad(ops, flat, x_true, C, T, alpha, spec, stride)

    # fixed reduction order keeps gradients bit-reproducible
    total_loss = 0.0
    total_grad = np.zeros_like(C)
    for loss_val, grad in parallel_map(run, batch):
        total_loss += loss_val
        total_grad += grad
    n = len(batch)
    return total_loss / n, total_grad / n


def grad_design(batch, C, geometry: LedGeometry, pupil: Pupil, cfg: SystemConfig,
                spec: LossSpec, tcfg: TrainConfig) -> np.ndarray:
    """d(mean batch loss)/dC through measurement synthesis and the unroll."""
    C = np.asarray(C, dtype=float)
    ops = SubApertureOps.for_geometry(geometry, pupil, cfg)
    _, grad = _batch_grad(ops, batch, C, spec, tcfg)
    return grad


def _example_loss(ops, singles, x_true, C, spec, rcfg_T, alpha):
    """Loss after the unrolled solve of one example."""
    flat = np.asarray(singles, dtype=float).reshape(ops.L, -1)
    Y = (C @ flat).reshape(C.shape[0], ops.p, ops.p)
    x0, eta = solver_plan(ops, Y, C, alpha)
    x, _, _ = _unroll(ops, Y, C, x0, eta, rcfg_T)
    theta = _align_phase(x, x_true)
    return _loss_value(x, x_true, spec, theta)


def loss_spec_for(context: str, gamma: float | None = None) -> LossSpec:
    """Context-specific loss weighting: amplitude -> 1, phase -> 0."""
    if context == AMPLITUDE:
        return LossSpec(gamma=1.0)
    if context == PHASE:
        return LossSpec(gamma=0.0)
    if context == MIXED:
        if gamma is None:
            raise FpmError("mixed context requires an explicit gamma")
        return LossSpec(gamma=gamma)
    raise FpmError(f"unknown context {context!r}")


@dataclass
class TrainResult:
    design: DesignMatrix
    log: list[tuple[int, float, float]] = field(default_factory=list)
    best_epoch: int = -1


def _noisy_singles(singles, geometry, seed_tuple, rate):
    stack = MeasurementStack(singles, geometry.is_bright)
    return add_shot_noise(stack, geometry, seed_tuple, mean_rate=rate).images


def train(dataset: Dataset, geometry: LedGeometry, pupil: Pupil, cfg: SystemConfig,
          K: int, context: str, tcfg: TrainConfig,
          gamma: float | None = None, on_step=None) -> TrainResult:
    """Learn a K-measurement design by projected SGD.

    The single-LED images of the dataset's train and test phantoms are
    simulated once, up front. Every epoch shuffles the training examples;
    when train_noise is set, each (epoch, example) pair sees an independent
    seeded shot-noise draw of its single-LED images. Test loss is evaluated
    on clean measurements, and the returned design is the best-test-loss
    iterate.
    """
    spec = loss_spec_for(context, gamma)
    mask = context_mask(geometry, K, context)
    ops = SubApertureOps.for_geometry(geometry, pupil, cfg)
    rng = np.random.default_rng(tcfg.seed)
    C = project(rng.uniform(0.0, 1.0, size=mask.shape), mask)

    def examples(phantoms):
        return [(simulate_singles(ph.field, geometry, pupil, cfg), ph.field)
                for ph in phantoms]

    train_items = examples(dataset.train_phantoms())
    test_items = examples(dataset.test_phantoms())
    T, alpha = tcfg.unroll.unroll_T, tcfg.unroll.step_alpha

    def test_loss(Cmat):
        vals = [_example_loss(ops, s, xt, Cmat, spec, T, alpha) for s, xt in test_items]
        return float(np.mean(vals)) if vals else float("nan")

    best_C = C.copy()
    best_loss = np.inf
    best_epoch = -1
    log = []
    for epoch in range(tcfg.epochs):
        order = rng.permutation(len(train_items))
        epoch_losses = []
        for start in range(0, len(order), tcfg.batch):
            chosen = order[start:start + tcfg.batch]
            batch = []
            for idx in chosen:
                singles, x_true = train_items[idx]
                if tcfg.train_noise:
                    singles = _noisy_singles(
                        singles, geometry, (tcfg.seed, epoch, int(idx)), tcfg.noise_rate
                    )
                batch.append((singles, x_true))
            batch_loss, grad = _batch_grad(ops, batch, C, spec, tcfg)
            epoch_losses.append(batch_loss)
            C = project(C - tcfg.lr * grad, mask)
            if on_step is not None:
                on_step(C)
        current_test = test_loss(C)
        train_mean = float(np.mean(epoch_losses))
        log.append((epoch, train_mean, current_test))
        if not np.isfinite(train_mean):
            raise FpmError(f"non-finite training loss at epoch {epoch}")
        if current_test < best_loss:
            best_loss, best_C, best_epoch = current_test, C.copy(), epoch
    return TrainResult(DesignMatrix(best_C, mask, context), log, best_epoch)
