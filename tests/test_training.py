import numpy as np
import pytest

from fpmdesign import (
    LossSpec,
    ReconConfig,
    TrainConfig,
    grad_design,
    heuristic_design,
    loss,
    project,
    simulate_singles,
    train,
)
from fpmdesign.errors import ConfigError, DegenerateRowError, DivergenceError, FpmError
from fpmdesign.optics import SubApertureOps
from fpmdesign.phantoms import generate_phantom, make_dataset
from fpmdesign.training import (
    _example_grad,
    _loss_grad,
    _loss_value,
    _resolve_stride,
    loss_spec_for,
    wrap_angle,
)

from conftest import make_toy_ops, toy_scene
from fd_utils import central_diff_design, frozen_plan_loss, rel_err_matrix


def _random_field(rng, n, floor=0.3):
    amp = rng.uniform(floor, 1.5, size=(n, n))
    phase = rng.uniform(-2.5, 2.5, size=(n, n))
    return amp * np.exp(1j * phase)


# ---------------- loss ----------------

def test_loss_zero_at_identical_fields():
    rng = np.random.default_rng(40)
    x = _random_field(rng, 12)
    assert loss(x, x, LossSpec(gamma=0.6)) == 0.0


def test_loss_removes_global_phase():
    rng = np.random.default_rng(41)
    x = _random_field(rng, 12)
    rotated = x * np.exp(1j * np.pi / 7)
    assert loss(rotated, x, LossSpec(gamma=0.4)) < 1e-12


def test_loss_amplitude_offset_value():
    rng = np.random.default_rng(42)
    x_true = _random_field(rng, 10)
    delta = 0.07
    x_star = (np.abs(x_true) + delta) * np.exp(1j * np.angle(x_true))
    got = loss(x_star, x_true, LossSpec(gamma=1.0))
    expect = x_true.size * delta ** 2
    assert abs(got - expect) < 1e-10 * expect


def test_loss_phase_offset_value_without_alignment():
    rng = np.random.default_rng(43)
    x_true = _random_field(rng, 10)
    delta = 0.3
    x_star = x_true * np.exp(1j * delta)
    got = _loss_value(x_star, x_true, LossSpec(gamma=0.0), theta=0.0)
    expect = x_true.size * delta ** 2
    assert abs(got - expect) < 1e-10 * expect


def test_loss_shape_mismatch():
    with pytest.raises(FpmError):
        loss(np.ones((3, 3), complex), np.ones((4, 4), complex), LossSpec())


def test_wrap_angle_principal_interval():
    assert abs(wrap_angle(np.pi) - np.pi) < 1e-15
    assert abs(wrap_angle(-np.pi) - np.pi) < 1e-15
    assert abs(wrap_angle(3.5 * np.pi) - (-0.5 * np.pi)) < 1e-12
    assert abs(wrap_angle(0.3) - 0.3) < 1e-15
    d = np.array([2 * np.pi - 0.1, -2 * np.pi + 0.2])
    assert np.allclose(wrap_angle(d), [-0.1, 0.2], atol=1e-12)


def test_wrapping_changes_large_differences():
    # phases straddling the +-pi branch cut: raw angle differences are near
    # 2 pi while the true phase error is small
    rng = np.random.default_rng(44)
    amp = rng.uniform(0.5, 1.0, size=(8, 8))
    x_true = amp * np.exp(1j * 3.0)
    x_star = amp * np.exp(-1j * 3.0)
    wrapped = _loss_value(x_star, x_true, LossSpec(gamma=0.0), theta=0.0)
    true_err = 2 * np.pi - 6.0
    assert abs(wrapped - x_true.size * true_err ** 2) < 1e-9 * x_true.size


def test_loss_grad_matches_finite_differences():
    rng = np.random.default_rng(45)
    x_true = _random_field(rng, 8)
    x_star = _random_field(rng, 8)
    spec = LossSpec(gamma=0.3)
    theta = 0.2
    g = _loss_grad(x_star, x_true, spec, theta)
    h = 1e-7
    for r, c in [(0, 0), (3, 5), (7, 2)]:
        e = np.zeros_like(x_star)
        e[r, c] = h
        fd_re = (_loss_value(x_star + e, x_true, spec, theta)
                 - _loss_value(x_star - e, x_true, spec, theta)) / (2 * h)
        fd_im = (_loss_value(x_star + 1j * e, x_true, spec, theta)
                 - _loss_value(x_star - 1j * e, x_true, spec, theta)) / (2 * h)
        fd = fd_re + 1j * fd_im
        assert abs(fd - g[r, c]) < 1e-6 * max(abs(fd), 1e-9)


def test_loss_grad_is_zero_at_zero_magnitude_pixels():
    rng = np.random.default_rng(46)
    x_true = _random_field(rng, 8)
    x_star = _random_field(rng, 8)
    x_star[2, 3] = 0.0
    spec = LossSpec(gamma=0.3)
    theta = 0.2
    g = _loss_grad(x_star, x_true, spec, theta)
    assert np.all(np.isfinite(g))
    assert g[2, 3] == 0.0
    # every other pixel keeps the plain quotient formula, bit for bit
    aligned = x_star * np.exp(-1j * theta)
    mag = np.abs(aligned)
    diff = wrap_angle(np.angle(aligned) - np.angle(x_true))
    with np.errstate(divide="ignore", invalid="ignore"):
        plain = spec.gamma * 2.0 * (mag - np.abs(x_true)) * aligned / mag
        plain = plain + (1.0 - spec.gamma) * 2.0 * diff * (1j * aligned / mag ** 2)
    plain = plain * np.exp(1j * theta)
    keep = mag > 0
    assert np.array_equal(g[keep], plain[keep])


def test_loss_spec_for_contexts():
    assert loss_spec_for("amplitude").gamma == 1.0
    assert loss_spec_for("phase").gamma == 0.0
    assert loss_spec_for("mixed", 0.25).gamma == 0.25
    with pytest.raises(FpmError):
        loss_spec_for("mixed")
    with pytest.raises(FpmError):
        loss_spec_for("nonsense")
    with pytest.raises(ConfigError):
        loss_spec_for("mixed", 1.5)


# ---------------- projection ----------------

def test_project_hand_example():
    mask = np.ones((1, 3), dtype=bool)
    got = project(np.array([[-1.0, 2.0, 2.0]]), mask)
    assert np.array_equal(got, [[0.0, 0.5, 0.5]])


def test_project_idempotent_on_feasible():
    rng = np.random.default_rng(46)
    mask = rng.uniform(size=(4, 7)) > 0.3
    mask[:, 0] = True
    C = np.where(mask, rng.uniform(0.1, 1.0, size=(4, 7)), 0.0)
    C /= C.sum(axis=1, keepdims=True)
    assert np.abs(project(C, mask) - C).max() < 1e-15


def test_project_masks_and_clamps():
    mask = np.array([[True, False, True]])
    got = project(np.array([[2.0, 5.0, -1.0]]), mask)
    assert np.array_equal(got, [[1.0, 0.0, 0.0]])


def test_project_degenerate_row():
    mask = np.array([[True, True], [False, False]])
    with pytest.raises(DegenerateRowError) as err:
        project(np.ones((2, 2)), mask)
    assert "row 1" in str(err.value)
    with pytest.raises(DegenerateRowError):
        project(np.array([[-1.0, -2.0]]), np.ones((1, 2), dtype=bool))


# ---------------- design gradient ----------------

def test_design_gradient_matches_frozen_plan_fd_toy():
    ops = make_toy_ops()
    x_true, singles, C = toy_scene(ops, seed=5, k_rows=2)
    flat = singles.reshape(ops.L, -1)
    spec = LossSpec(gamma=0.7)
    T, alpha = 5, 0.5
    _, dC = _example_grad(ops, flat, x_true, C, T, alpha, spec, stride=2)
    f, _ = frozen_plan_loss(ops, flat, x_true, C, alpha, T, spec)
    fd = central_diff_design(f, C, h=1e-6)
    assert rel_err_matrix(dC, fd).max() < 1e-4


def test_design_gradient_public_entry(cfg_tiny, geom_tiny, pupil_tiny):
    rng = np.random.default_rng(47)
    phantom = generate_phantom(cfg_tiny, "amplitude", seed=7)
    singles = simulate_singles(phantom.field, geom_tiny, pupil_tiny, cfg_tiny)
    C = rng.uniform(0.05, 1.0, size=(2, geom_tiny.L))
    C /= C.sum(axis=1, keepdims=True)
    tcfg = TrainConfig(epochs=1, unroll=ReconConfig(unroll_T=4, step_alpha=0.5))
    spec = LossSpec(gamma=1.0)
    batch = [(singles, phantom.field)]
    dC = grad_design(batch, C, geom_tiny, pupil_tiny, cfg_tiny, spec, tcfg)
    assert dC.shape == C.shape

    # the internal gradient takes the public singles layout as it is
    ops = SubApertureOps.for_geometry(geom_tiny, pupil_tiny, cfg_tiny)
    flat = singles.reshape(geom_tiny.L, -1)
    _, dC_one = _example_grad(ops, flat, phantom.field, C, 4, 0.5, spec,
                              _resolve_stride(tcfg))
    assert np.array_equal(dC_one, dC)

    f, _ = frozen_plan_loss(ops, flat, phantom.field, C, 0.5, 4, spec)
    h = 1e-6
    rng2 = np.random.default_rng(48)
    picks = [(int(a), int(b)) for a, b in
             zip(rng2.integers(0, 2, 6), rng2.integers(0, geom_tiny.L, 6))]
    for k, l in picks:
        Cp, Cm = C.copy(), C.copy()
        Cp[k, l] += h
        Cm[k, l] -= h
        fd = (f(Cp) - f(Cm)) / (2 * h)
        assert abs(dC[k, l] - fd) < 1e-4 * max(abs(fd), 1e-9)


def test_design_gradient_reports_divergence_at_its_step(cfg_tiny, geom_tiny, pupil_tiny):
    phantom = generate_phantom(cfg_tiny, "amplitude", seed=7)
    singles = simulate_singles(phantom.field, geom_tiny, pupil_tiny, cfg_tiny)
    C = heuristic_design(geom_tiny, 5, seed=3).weights
    tcfg = TrainConfig(epochs=1, unroll=ReconConfig(unroll_T=20, step_alpha=1e8))
    with pytest.raises(DivergenceError) as err, np.errstate(over="ignore", invalid="ignore"):
        grad_design([(singles, phantom.field)], C, geom_tiny, pupil_tiny, cfg_tiny,
                    LossSpec(gamma=1.0), tcfg)
    assert 1 <= err.value.iteration <= 20


def test_checkpoint_stride_is_pure_memory_tradeoff():
    ops = make_toy_ops()
    x_true, singles, C = toy_scene(ops, seed=6, k_rows=2)
    flat = singles.reshape(ops.L, -1)
    spec = LossSpec(gamma=0.5)
    T, alpha = 7, 0.5
    ref_loss, ref_grad = _example_grad(ops, flat, x_true, C, T, alpha, spec, stride=T)
    for stride in (1, 2, 3):
        loss_s, grad_s = _example_grad(ops, flat, x_true, C, T, alpha, spec, stride)
        assert loss_s == ref_loss
        assert np.abs(grad_s - ref_grad).max() <= 1e-10 * max(np.abs(ref_grad).max(), 1e-30)


@pytest.mark.parametrize("T, stride", [(30, 5), (7, 3)])
def test_example_grad_operator_counts(monkeypatch, T, stride):
    # plan: 1 + 16 forwards, 16 adjoints; forward unroll: T of each;
    # segment re-materialization: T forwards (each segment's last state
    # needs one of its own), T - segments adjoints; reverse sweep: T of each
    ops = make_toy_ops()
    x_true, singles, C = toy_scene(ops, seed=10, k_rows=2)
    calls = {"forward": 0, "adjoint_sum": 0}
    for name in calls:
        original = getattr(SubApertureOps, name)

        def counted(self, arg, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, arg)

        monkeypatch.setattr(SubApertureOps, name, counted)
    _example_grad(ops, singles.reshape(ops.L, -1), x_true, C, T, 0.5, LossSpec(), stride)
    segments = -(-T // stride)
    assert calls["forward"] == 3 * T + 17
    assert calls["adjoint_sum"] == 3 * T + 16 - segments


def test_duplicate_leds_give_symmetric_gradient():
    # two physically identical LEDs (same frequency window, hence identical
    # singles): every path through the graph treats the two columns alike
    base = make_toy_ops()
    offsets = base.offsets.copy()
    offsets[3] = offsets[4]
    ops = SubApertureOps(base.q, base.p, offsets, base.pupil)
    x_true, singles, C = toy_scene(ops, seed=8, k_rows=2)
    assert np.array_equal(singles[3], singles[4])
    C[:, 3] = C[:, 4]
    flat = singles.reshape(ops.L, -1)
    spec = LossSpec(gamma=1.0)
    _, dC = _example_grad(ops, flat, x_true, C, 4, 0.5, spec, stride=2)
    assert np.abs(dC[:, 3] - dC[:, 4]).max() <= 1e-12 * np.abs(dC).max()


def test_masked_entries_killed_by_projection():
    ops = make_toy_ops()
    x_true, singles, C = toy_scene(ops, seed=9, k_rows=2)
    flat = singles.reshape(ops.L, -1)
    _, dC = _example_grad(ops, flat, x_true, C, 3, 0.5, LossSpec(), stride=1)
    mask = np.ones_like(C, dtype=bool)
    mask[0, :4] = False
    stepped = project(np.where(mask, C, 0.0) - 1e-6 * dC, mask)
    assert stepped[0, :4].max() == 0.0
    assert dC[0, :4].any()  # the gradient itself is reported unmasked


# ---------------- training loop ----------------

def _tiny_tcfg(seed=1, epochs=3, lr=0.05, noise=True):
    return TrainConfig(lr=lr, epochs=epochs, batch=2, seed=seed,
                       train_noise=noise, noise_rate=1e4,
                       unroll=ReconConfig(unroll_T=5, step_alpha=0.5))


def test_train_smoke_constraints_hold_every_step(cfg_tiny, geom_tiny, pupil_tiny):
    data = make_dataset(cfg_tiny, "amplitude", 6, 100)
    tcfg = _tiny_tcfg()
    seen = []

    def on_step(C):
        seen.append(True)
        assert np.all(C >= 0.0)
        assert np.abs(C.sum(axis=1) - 1.0).max() < 1e-12
        assert np.all(np.isfinite(C))

    result = train(data, geom_tiny, pupil_tiny, cfg_tiny, K=5,
                   context="amplitude", tcfg=tcfg, on_step=on_step)
    # 5 training phantoms, batch 2 -> 3 steps per epoch, 3 epochs
    assert len(seen) == 9
    assert len(result.log) == 3
    assert result.best_epoch >= 0
    result.design.check_feasible()
    # amplitude context: row 0 bright-field only, the rest dark-field only
    W = result.design.weights
    assert W[0, ~geom_tiny.is_bright].max() == 0.0
    assert W[1:, geom_tiny.is_bright].max() == 0.0
    assert result.design.context == "amplitude"


def test_train_is_seed_reproducible(cfg_tiny, geom_tiny, pupil_tiny):
    data = make_dataset(cfg_tiny, "amplitude", 6, 100)
    a = train(data, geom_tiny, pupil_tiny, cfg_tiny, K=4, context="amplitude",
              tcfg=_tiny_tcfg(seed=3))
    b = train(data, geom_tiny, pupil_tiny, cfg_tiny, K=4, context="amplitude",
              tcfg=_tiny_tcfg(seed=3))
    assert np.array_equal(a.design.weights, b.design.weights)
    assert a.log == b.log
    c = train(data, geom_tiny, pupil_tiny, cfg_tiny, K=4, context="amplitude",
              tcfg=_tiny_tcfg(seed=4))
    assert not np.array_equal(a.design.weights, c.design.weights)


def test_step_scaling_sanity_under_lr_reduction(cfg_tiny, geom_tiny, pupil_tiny):
    """Coarse guard against a catastrophically mis-scaled step.

    If the default lr overshot by an order of magnitude, shrinking it 10x
    would change the first-epoch loss drastically. In the healthy regime the
    two runs track each other to within a few percent (the larger step is
    usually very slightly ahead because it learns within the epoch), so the
    check is a bounded ratio, not strict dominance.
    """
    data = make_dataset(cfg_tiny, "amplitude", 6, 101)
    base = train(data, geom_tiny, pupil_tiny, cfg_tiny, K=4, context="amplitude",
                 tcfg=_tiny_tcfg(seed=5, epochs=1, lr=0.05, noise=False))
    small = train(data, geom_tiny, pupil_tiny, cfg_tiny, K=4, context="amplitude",
                  tcfg=_tiny_tcfg(seed=5, epochs=1, lr=0.005, noise=False))
    assert np.isfinite(small.log[0][1]) and np.isfinite(base.log[0][1])
    assert small.log[0][1] <= base.log[0][1] * 1.25


def test_train_phase_context_mask(cfg_tiny, geom_tiny, pupil_tiny):
    data = make_dataset(cfg_tiny, "phase", 6, 100)
    result = train(data, geom_tiny, pupil_tiny, cfg_tiny, K=4, context="phase",
                   tcfg=_tiny_tcfg(epochs=1))
    W = result.design.weights
    assert W[:2, ~geom_tiny.is_bright].max() == 0.0
    assert W[2:, geom_tiny.is_bright].max() == 0.0
