import numpy as np
import pytest

from fpmdesign import (
    ReconConfig,
    cost,
    grad_x,
    heuristic_design,
    reconstruct,
    simulate_stack,
    single_led_design,
)
from fpmdesign.errors import DivergenceError, FpmError
from fpmdesign.fourier import cfft2, icfft2, disk_mask
from fpmdesign.optics import MeasurementStack, SubApertureOps
from fpmdesign.phantoms import generate_phantom
from fpmdesign.recon import _cost_grad, _unroll, solver_plan


def _smooth_object(cfg, seed):
    rng = np.random.default_rng(seed)
    q = cfg.hires_px
    z = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
    z = icfft2(cfft2(z) * disk_mask(q, q / 5.0))
    return 1.0 + 0.3 * z / np.abs(z).max()


def aligned_band_error(x_star, x_true, cfg):
    """Relative L2 error of the phase-aligned field inside the synthetic NA."""
    theta = np.angle(np.sum(x_star * np.conj(x_true)))
    cut = cfg.na_recon / cfg.wavelength_um / cfg.freq_step
    mask = disk_mask(cfg.hires_px, cut, strict=False)
    diff = cfft2(x_star * np.exp(-1j * theta) - x_true) * mask
    ref = cfft2(x_true) * mask
    return float(np.linalg.norm(diff) / np.linalg.norm(ref))


def test_cost_zero_at_truth(cfg_tiny, geom_tiny, pupil_tiny):
    x = _smooth_object(cfg_tiny, 21)
    design = heuristic_design(geom_tiny, 6, seed=0)
    stack = simulate_stack(x, design.weights, geom_tiny, pupil_tiny, cfg_tiny)
    assert cost(x, stack, design.weights, geom_tiny, pupil_tiny, cfg_tiny) == 0.0
    # the internal cost takes the public stack layout as it is
    ops = SubApertureOps.for_geometry(geom_tiny, pupil_tiny, cfg_tiny)
    value, _, _ = _cost_grad(ops, x, stack.images, design.weights, want_grad=False)
    assert value == 0.0


def test_cost_at_zero_field(cfg_tiny, geom_tiny, pupil_tiny):
    x = _smooth_object(cfg_tiny, 22)
    design = heuristic_design(geom_tiny, 5, seed=0)
    stack = simulate_stack(x, design.weights, geom_tiny, pupil_tiny, cfg_tiny)
    zero = np.zeros_like(x)
    got = cost(zero, stack, design.weights, geom_tiny, pupil_tiny, cfg_tiny)
    assert got == float(np.sum(stack.images ** 2))


def test_dimension_mismatch_raises(cfg_tiny, geom_tiny, pupil_tiny):
    x = _smooth_object(cfg_tiny, 23)
    design = heuristic_design(geom_tiny, 5, seed=0)
    stack = simulate_stack(x, design.weights, geom_tiny, pupil_tiny, cfg_tiny)
    with pytest.raises(FpmError):
        cost(x, stack, design.weights[:, :-1], geom_tiny, pupil_tiny, cfg_tiny)
    bad = MeasurementStack(stack.images[:3], stack.bright_rows[:3])
    with pytest.raises(FpmError):
        cost(x, bad, design.weights, geom_tiny, pupil_tiny, cfg_tiny)


def test_grad_x_matches_finite_differences(cfg_tiny, geom_tiny, pupil_tiny):
    rng = np.random.default_rng(24)
    x_meas = _smooth_object(cfg_tiny, 25)
    C = rng.uniform(0.1, 1.0, size=(3, geom_tiny.L))
    C /= C.sum(axis=1, keepdims=True)
    stack = simulate_stack(x_meas, C, geom_tiny, pupil_tiny, cfg_tiny)
    x = _smooth_object(cfg_tiny, 26)  # generic point away from the solution
    g = grad_x(x, stack, C, geom_tiny, pupil_tiny, cfg_tiny)

    def f(xa):
        return cost(xa, stack, C, geom_tiny, pupil_tiny, cfg_tiny)

    h = 1e-6
    q = cfg_tiny.hires_px
    coords = rng.integers(0, q, size=(20, 2))
    worst = 0.0
    for r, c in coords:
        e = np.zeros_like(x)
        e[r, c] = h
        fd_re = (f(x + e) - f(x - e)) / (2 * h)
        fd_im = (f(x + 1j * e) - f(x - 1j * e)) / (2 * h)
        fd = fd_re + 1j * fd_im
        worst = max(worst, abs(fd - g[r, c]) / max(abs(fd), 1e-12))
    assert worst < 1e-5


def test_gradient_direction_on_flat_mismatch(cfg_tiny, geom_tiny, pupil_tiny):
    """Measured intensity slightly above the model's: the gradient on a flat
    field is a negative constant, so a descent step raises the amplitude."""
    q, p = cfg_tiny.hires_px, cfg_tiny.patch_px
    gain = (q / p) ** 2
    on_axis = next(i for i, l in enumerate(geom_tiny.leds) if l.grid_index == (0, 0))
    C = np.zeros((1, geom_tiny.L))
    C[0, on_axis] = 1.0
    eps = 0.05
    images = np.full((1, p, p), gain * (1.0 + eps))
    stack = MeasurementStack(images, np.array([True]))
    x = np.ones((q, q), dtype=complex)
    g = grad_x(x, stack, C, geom_tiny, pupil_tiny, cfg_tiny)
    assert np.abs(g - g[0, 0]).max() < 1e-9 * abs(g[0, 0])
    assert g[0, 0].real < 0.0
    assert abs(g[0, 0].imag) < 1e-9 * abs(g[0, 0].real)


def test_t_zero_returns_initial_field(cfg_tiny, geom_tiny, pupil_tiny):
    x = _smooth_object(cfg_tiny, 27)
    design = heuristic_design(geom_tiny, 5, seed=1)
    stack = simulate_stack(x, design.weights, geom_tiny, pupil_tiny, cfg_tiny)
    trace = reconstruct(stack, design.weights, geom_tiny, pupil_tiny, cfg_tiny,
                        ReconConfig(unroll_T=0, step_alpha=0.5))
    assert len(trace.cost_history) == 1
    x0 = trace.x_star
    assert np.abs(x0 - x0[0, 0]).max() == 0.0  # constant initializer, untouched


def test_zero_stack_stays_at_zero(cfg_tiny, geom_tiny, pupil_tiny):
    design = heuristic_design(geom_tiny, 5, seed=1)
    p = cfg_tiny.patch_px
    stack = MeasurementStack(np.zeros((5, p, p)), np.ones(5, dtype=bool))
    trace = reconstruct(stack, design.weights, geom_tiny, pupil_tiny, cfg_tiny,
                        ReconConfig(unroll_T=10, step_alpha=0.5))
    assert np.abs(trace.x_star).max() == 0.0
    assert trace.cost_history == [0.0] * 11


def test_global_phase_equivariance(cfg_tiny, geom_tiny, pupil_tiny):
    x = _smooth_object(cfg_tiny, 28)
    W = heuristic_design(geom_tiny, 6, seed=2).weights
    stack = simulate_stack(x, W, geom_tiny, pupil_tiny, cfg_tiny)
    ops = SubApertureOps.for_geometry(geom_tiny, pupil_tiny, cfg_tiny)
    x0, eta = solver_plan(ops, stack.images, W, 0.5)
    a, _, _ = _unroll(ops, stack.images, W, x0, eta, 40)
    b, _, _ = _unroll(ops, stack.images, W, x0 * np.exp(1j * np.pi / 7), eta, 40)
    scale = np.abs(a).max()
    assert np.abs(np.abs(a) - np.abs(b)).max() < 1e-8 * scale
    assert np.abs(a * np.exp(1j * np.pi / 7) - b).max() < 1e-8 * scale


def test_divergence_reported_with_iteration(cfg_tiny, geom_tiny, pupil_tiny):
    x = _smooth_object(cfg_tiny, 29)
    design = heuristic_design(geom_tiny, 5, seed=3)
    stack = simulate_stack(x, design.weights, geom_tiny, pupil_tiny, cfg_tiny)
    with pytest.raises(DivergenceError) as err, np.errstate(over="ignore", invalid="ignore"):
        reconstruct(stack, design.weights, geom_tiny, pupil_tiny, cfg_tiny,
                    ReconConfig(unroll_T=100, step_alpha=1e8))
    assert 1 <= err.value.iteration <= 100
    assert "reconstruction step" in str(err.value)


def test_noiseless_self_consistency(cfg_small, geom_small, pupil_small):
    phantom = generate_phantom(cfg_small, "amplitude", seed=1000)
    design = single_led_design(geom_small)
    stack = simulate_stack(phantom.field, design.weights, geom_small, pupil_small,
                           cfg_small)
    trace = reconstruct(stack, design.weights, geom_small, pupil_small, cfg_small,
                        ReconConfig(unroll_T=100, step_alpha=0.5))
    assert all(np.isfinite(v) for v in trace.cost_history)
    assert trace.cost_history[-1] < trace.cost_history[0]
    err = aligned_band_error(trace.x_star, phantom.field, cfg_small)
    assert err <= 5e-2


def test_inactive_leds_are_skipped_consistently(cfg_tiny, geom_tiny, pupil_tiny):
    # zero-weight columns must not change the answer, only skip work
    x = _smooth_object(cfg_tiny, 30)
    W = heuristic_design(geom_tiny, 5, seed=4).weights.copy()
    W[:, ::3] = 0.0
    W /= W.sum(axis=1, keepdims=True)
    stack = simulate_stack(x, W, geom_tiny, pupil_tiny, cfg_tiny)
    rcfg = ReconConfig(unroll_T=15, step_alpha=0.5)
    base = reconstruct(stack, W, geom_tiny, pupil_tiny, cfg_tiny, rcfg)

    ops = SubApertureOps.for_geometry(geom_tiny, pupil_tiny, cfg_tiny)
    Y = stack.images
    x0, eta = solver_plan(ops, Y, W, rcfg.step_alpha)
    dense_x, dense_hist, _ = _unroll(ops, Y, W, x0, eta, rcfg.unroll_T)
    dense_hist.append(_cost_grad(ops, dense_x, Y, W, want_grad=False)[0])
    assert np.abs(base.x_star - dense_x).max() < 1e-9 * np.abs(dense_x).max()
    np.testing.assert_allclose(base.cost_history, dense_hist, rtol=1e-8)
