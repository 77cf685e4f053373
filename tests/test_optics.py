import numpy as np
import pytest

from fpmdesign import SystemConfig, build_led_geometry
from fpmdesign.errors import FpmError, GeometryError
from fpmdesign.fourier import cfft2, icfft2, radius_grid
from fpmdesign.optics import (
    MeasurementStack,
    SubApertureOps,
    add_shot_noise,
    adjoint_field,
    forward_field,
    led_window_offsets,
    make_pupil,
    multiplex,
    simulate_single_led,
    simulate_singles,
    simulate_stack,
)


def _rand_field(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_pupil_is_binary_and_strict(cfg_full, pupil_full):
    mask = pupil_full.mask
    assert set(np.unique(mask)) <= {0.0, 1.0}
    r = radius_grid(cfg_full.patch_px)
    cut_bins = cfg_full.pupil_radius_bins
    assert not mask[r >= cut_bins].any()
    assert mask[r < cut_bins].all()
    assert mask[cfg_full.patch_px // 2, cfg_full.patch_px // 2] == 1.0


def test_adjoint_identity(cfg_full, geom_full, pupil_full):
    rng = np.random.default_rng(11)
    q, p = cfg_full.hires_px, cfg_full.patch_px
    led_ids = rng.choice(geom_full.L, size=10, replace=False)
    worst = 0.0
    for l in led_ids:
        for _ in range(5):
            x = _rand_field(rng, q)
            v = _rand_field(rng, p)
            lhs = np.vdot(v, forward_field(x, geom_full, int(l), pupil_full, cfg_full))
            rhs = np.vdot(adjoint_field(v, geom_full, int(l), pupil_full, cfg_full), x)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    assert worst < 1e-10


class _ShiftedOracle:
    """Slice-and-shift sub-aperture operator: the direct transcription of A_l
    that the precomputed gather/scatter operator must match."""

    def __init__(self, ops):
        self.ops = ops
        self.rows = ops.q // 2 + ops.offsets[:, 0] - ops.p // 2
        self.cols = ops.q // 2 + ops.offsets[:, 1] - ops.p // 2

    def forward(self, x):
        spectrum, p = cfft2(x), self.ops.p
        windows = np.stack([spectrum[r:r + p, c:c + p]
                            for r, c in zip(self.rows, self.cols)])
        return icfft2(windows * self.ops.pupil)

    def adjoint_sum(self, fields):
        q, p = self.ops.q, self.ops.p
        acc = np.zeros((q, q), dtype=complex)
        for w, r, c in zip(cfft2(fields) * self.ops.pupil, self.rows, self.cols):
            acc[r:r + p, c:c + p] += w
        return icfft2(acc)


def _ops_full_and_subset(cfg):
    geom = build_led_geometry(cfg)
    ops = SubApertureOps.for_geometry(geom, make_pupil(cfg), cfg)
    keep = np.zeros(ops.L, dtype=bool)
    keep[::3] = True
    keep[geom.is_bright] = ~keep[geom.is_bright]
    return ops, ops.subset(keep)


@pytest.mark.parametrize("patch_px", [15, 21])
def test_operators_match_shifted_oracle(patch_px):
    rng = np.random.default_rng(21)
    for ops in _ops_full_and_subset(SystemConfig(patch_px=patch_px)):
        oracle = _ShiftedOracle(ops)
        x = _rand_field(rng, ops.q)
        want = oracle.forward(x)
        got = ops.forward(x)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        v = rng.standard_normal((ops.L, ops.p, ops.p)) + 1j * rng.standard_normal(
            (ops.L, ops.p, ops.p))
        want = oracle.adjoint_sum(v)
        got = ops.adjoint_sum(v)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("patch_px", [15, 21])
def test_batched_adjoint_identity(patch_px):
    rng = np.random.default_rng(22)
    for ops in _ops_full_and_subset(SystemConfig(patch_px=patch_px)):
        x = _rand_field(rng, ops.q)
        v = rng.standard_normal((ops.L, ops.p, ops.p)) + 1j * rng.standard_normal(
            (ops.L, ops.p, ops.p))
        lhs = np.vdot(v, ops.forward(x))
        rhs = np.vdot(ops.adjoint_sum(v), x)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_adjoint_sum_matches_per_led(cfg_small, geom_small, pupil_small):
    rng = np.random.default_rng(12)
    ops = SubApertureOps.for_geometry(geom_small, pupil_small, cfg_small)
    fields = _rand_field(rng, cfg_small.patch_px)[None] * np.ones((ops.L, 1, 1))
    fields = fields + 0.3 * (rng.standard_normal(fields.shape))
    total = ops.adjoint_sum(fields)
    manual = sum(
        adjoint_field(fields[l], geom_small, l, pupil_small, cfg_small)
        for l in range(ops.L)
    )
    assert np.abs(total - manual).max() < 1e-11 * np.abs(manual).max()


def test_projector_is_idempotent(cfg_small, geom_small, pupil_small):
    rng = np.random.default_rng(13)
    x = _rand_field(rng, cfg_small.hires_px)
    for l in (0, 30, geom_small.L - 1):
        once = adjoint_field(
            forward_field(x, geom_small, l, pupil_small, cfg_small),
            geom_small, l, pupil_small, cfg_small,
        )
        twice = adjoint_field(
            forward_field(once, geom_small, l, pupil_small, cfg_small),
            geom_small, l, pupil_small, cfg_small,
        )
        assert np.abs(twice - once).max() < 1e-10 * np.abs(once).max()


def test_forward_contractive(cfg_small, geom_small, pupil_small):
    rng = np.random.default_rng(14)
    ops = SubApertureOps.for_geometry(geom_small, pupil_small, cfg_small)
    for _ in range(3):
        x = _rand_field(rng, cfg_small.hires_px)
        fields = ops.forward(x)
        for l in range(ops.L):
            assert np.linalg.norm(fields[l]) <= np.linalg.norm(x) * (1 + 1e-12)


def test_in_band_field_reproduced(cfg_small, geom_small, pupil_small):
    rng = np.random.default_rng(15)
    v = _rand_field(rng, cfg_small.patch_px)
    l = 40
    x_in = adjoint_field(v, geom_small, l, pupil_small, cfg_small)
    back = adjoint_field(
        forward_field(x_in, geom_small, l, pupil_small, cfg_small),
        geom_small, l, pupil_small, cfg_small,
    )
    assert np.abs(back - x_in).max() < 1e-11 * np.abs(x_in).max()


def test_constant_field_witness(cfg_full, geom_full, pupil_full):
    """On-axis imaging of a clear aperture: the unitary-FFT bookkeeping leaves
    an exact q/p amplitude gain on the low-res grid."""
    q, p = cfg_full.hires_px, cfg_full.patch_px
    x = np.ones((q, q), dtype=complex)
    on_axis = next(i for i, l in enumerate(geom_full.leds) if l.grid_index == (0, 0))
    field = forward_field(x, geom_full, on_axis, pupil_full, cfg_full)
    assert np.abs(field - q / p).max() < 1e-12 * (q / p)
    intens = simulate_single_led(x, geom_full, on_axis, pupil_full, cfg_full)
    assert np.abs(intens - (q / p) ** 2).max() < 1e-11


def test_dark_led_kills_constant_field(cfg_full, geom_full, pupil_full):
    # a flat object has a single DC spectral line; every dark-field window
    # places it strictly outside the pupil, so the image sits at the FFT
    # round-off floor instead of the (q/p)^2 bright level
    q = cfg_full.hires_px
    x = np.ones((q, q), dtype=complex)
    dark = [i for i, l in enumerate(geom_full.leds) if l.region == "dark"]
    for l in (dark[0], dark[len(dark) // 2], dark[-1]):
        intens = simulate_single_led(x, geom_full, l, pupil_full, cfg_full)
        assert intens.max() < 1e-20


def test_global_phase_invariance_of_intensity(cfg_small, geom_small, pupil_small):
    rng = np.random.default_rng(16)
    x = 1.0 + 0.2 * _rand_field(rng, cfg_small.hires_px)
    base = simulate_singles(x, geom_small, pupil_small, cfg_small)
    rot = simulate_singles(x * np.exp(1j * 0.7), geom_small, pupil_small, cfg_small)
    assert np.abs(base - rot).max() < 1e-12 * base.max()


def test_window_offsets_shape_and_center(cfg_full, geom_full):
    offs = led_window_offsets(geom_full, cfg_full)
    assert offs.shape == (89, 2)
    on_axis = next(i for i, l in enumerate(geom_full.leds) if l.grid_index == (0, 0))
    assert tuple(offs[on_axis]) == (0, 0)


def test_window_out_of_range_raises():
    with pytest.raises(GeometryError):
        SubApertureOps(16, 8, np.array([[10, 0]]), np.ones((8, 8)))


def test_multiplex_basics(cfg_small, geom_small, pupil_small):
    rng = np.random.default_rng(17)
    x = 1.0 + 0.2 * _rand_field(rng, cfg_small.hires_px)
    singles = simulate_singles(x, geom_small, pupil_small, cfg_small)
    one_hot = np.zeros(geom_small.L)
    one_hot[5] = 1.0
    assert np.array_equal(multiplex(singles, one_hot), singles[5])
    assert multiplex(singles, np.zeros(geom_small.L)).max() == 0.0
    with pytest.raises(FpmError):
        multiplex(singles, np.ones(geom_small.L + 1))


def test_multiplex_of_identical_singles_is_convex(cfg_small, geom_small):
    rng = np.random.default_rng(18)
    img = rng.uniform(0.5, 1.5, size=(cfg_small.patch_px, cfg_small.patch_px))
    singles = np.repeat(img[None], geom_small.L, axis=0)
    w = rng.uniform(0, 1, size=geom_small.L)
    w /= w.sum()
    assert np.abs(multiplex(singles, w) - img).max() < 1e-12


def test_simulate_stack_rows_and_bright_flags(cfg_small, geom_small, pupil_small):
    rng = np.random.default_rng(19)
    x = 1.0 + 0.2 * _rand_field(rng, cfg_small.hires_px)
    W = np.zeros((3, geom_small.L))
    W[0, geom_small.is_bright] = 1.0
    W[1, ~geom_small.is_bright] = 1.0
    W[2, :] = 1.0
    stack = simulate_stack(x, W, geom_small, pupil_small, cfg_small, design_id="abc")
    singles = simulate_singles(x, geom_small, pupil_small, cfg_small)
    for k in range(3):
        assert np.allclose(stack.images[k], multiplex(singles, W[k]), atol=1e-12)
    assert stack.bright_rows.tolist() == [True, False, True]
    assert stack.design_id == "abc"
    assert not stack.noisy


def test_weak_contrast_classification(cfg_full, geom_full, pupil_full):
    """A nearly flat object: measurements whose window passes DC stay order
    one while the rest are quadratic in the perturbation.

    On the discrete grid the DC-passing set is slightly smaller than the
    nominal bright-field set: the eight diagonal LEDs just under the NA
    cutoff round to window offsets of norm sqrt(125) ~ 11.18 bins, outside
    the 11.07-bin pupil, so they behave as dark field for a flat object.
    """
    rng = np.random.default_rng(20)
    q = cfg_full.hires_px
    eps = 1e-3
    pert = _rand_field(rng, q)
    pert = icfft2(cfft2(pert) * (radius_grid(q) <= q / 4))
    pert = pert / np.abs(pert).max()
    x = 1.0 + eps * pert
    singles = simulate_singles(x, geom_full, pupil_full, cfg_full)
    means = singles.mean(axis=(1, 2))
    gain = (cfg_full.hires_px / cfg_full.patch_px) ** 2
    offs = led_window_offsets(geom_full, cfg_full)
    dc_pass = np.hypot(offs[:, 0], offs[:, 1]) < cfg_full.pupil_radius_bins
    assert dc_pass.sum() == 13
    assert not (dc_pass & ~geom_full.is_bright).any()
    assert means[dc_pass].min() > 0.1 * gain
    assert means[~dc_pass].max() < 100.0 * eps ** 2 * gain


def _soft_disk(q):
    r = radius_grid(q)
    return np.exp(-(r ** 2) / (2.0 * (q / 8.0) ** 2))


def _contrast(img):
    return float(img.std() / img.mean())


def _mirror_pair(geom):
    ids = {l.grid_index: i for i, l in enumerate(geom.leds)}
    return ids[(1, 0)], ids[(-1, 0)]


def test_phase_object_mirror_pair_contrast_cancels(cfg_small, geom_small, pupil_small):
    """Phase contrast under tilted bright-field illumination is antisymmetric:
    summing a mirrored LED pair suppresses it below either single image."""
    q = cfg_small.hires_px
    x = np.exp(1j * 0.6 * _soft_disk(q))
    i1, i2 = _mirror_pair(geom_small)
    y1 = simulate_single_led(x, geom_small, i1, pupil_small, cfg_small)
    y2 = simulate_single_led(x, geom_small, i2, pupil_small, cfg_small)
    c_sum = _contrast(y1 + y2)
    assert c_sum < _contrast(y1)
    assert c_sum < _contrast(y2)


def test_amplitude_object_mirror_pair_contrast_adds(cfg_small, geom_small, pupil_small):
    """Absorption contrast is symmetric in the illumination tilt, so the
    mirrored pair reinforces instead of cancelling."""
    q = cfg_small.hires_px
    x = np.exp(-0.6 * _soft_disk(q)).astype(complex)
    i1, i2 = _mirror_pair(geom_small)
    y1 = simulate_single_led(x, geom_small, i1, pupil_small, cfg_small)
    y2 = simulate_single_led(x, geom_small, i2, pupil_small, cfg_small)
    c_sum = _contrast(y1 + y2)
    assert c_sum >= max(_contrast(y1), _contrast(y2)) * (1.0 - 1e-6)


def test_shot_noise_mean_matches_poisson_rate(cfg_small, geom_small):
    p = cfg_small.patch_px
    images = np.ones((4, p, p))
    stack = MeasurementStack(images, np.array([True, True, True, True]))
    noisy = add_shot_noise(stack, geom_small, rng_seed=123, mean_rate=1e4)
    n_pix = images.size
    dev = abs(noisy.images.mean() - 1.0)
    assert dev < 3.0 / np.sqrt(1e4 * n_pix)
    assert noisy.noisy


def test_shot_noise_preserves_zero_and_determinism(cfg_small, geom_small):
    p = cfg_small.patch_px
    images = np.zeros((3, p, p))
    images[0] = 2.0   # bright anchor
    stack = MeasurementStack(images, np.array([True, False, False]))
    a = add_shot_noise(stack, geom_small, rng_seed=7)
    b = add_shot_noise(stack, geom_small, rng_seed=7)
    assert a.images[1:].max() == 0.0
    assert np.array_equal(a.images, b.images)
    c = add_shot_noise(stack, geom_small, rng_seed=8)
    assert not np.array_equal(a.images, c.images)
    # tuple seeds address (epoch, example) streams
    d = add_shot_noise(stack, geom_small, rng_seed=(7, 0))
    assert not np.array_equal(a.images, d.images)
    assert np.array_equal(
        d.images, add_shot_noise(stack, geom_small, rng_seed=(7, 0)).images
    )


def test_shot_noise_requires_bright_anchor(cfg_small, geom_small):
    p = cfg_small.patch_px
    stack = MeasurementStack(np.ones((2, p, p)), np.array([False, False]))
    with pytest.raises(FpmError):
        add_shot_noise(stack, geom_small, rng_seed=1)
    zero = MeasurementStack(np.zeros((2, p, p)), np.array([True, False]))
    with pytest.raises(FpmError):
        add_shot_noise(zero, geom_small, rng_seed=1)
