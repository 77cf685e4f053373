import numpy as np
import pytest

from fpmdesign.errors import FpmError
from fpmdesign.fourier import cfft2, disk_mask
from fpmdesign.phantoms import generate_phantom, make_dataset


def _band_fraction_outside(img, cfg):
    cut = cfg.na_recon / cfg.wavelength_um / cfg.freq_step
    spec = cfft2(img.astype(complex))
    outside = ~disk_mask(cfg.hires_px, cut, strict=False)
    total = float(np.sum(np.abs(spec) ** 2))
    return float(np.sum(np.abs(spec[outside]) ** 2)) / total


def test_phantom_field_consistency(cfg_small):
    ph = generate_phantom(cfg_small, "amplitude", seed=5)
    rebuilt = np.exp(1j * ph.phi - ph.mu)
    assert np.abs(ph.field - rebuilt).max() < 1e-12
    assert ph.mu.min() >= 0.0
    assert np.abs(ph.field).max() <= 1.0 + 1e-12
    assert ph.context == "amplitude"
    assert ph.seed == 5


def test_amplitude_phantom_contrast_dominance(cfg_small):
    for seed in range(5):
        ph = generate_phantom(cfg_small, "amplitude", seed=seed)
        assert ph.mu.std() / ph.phi.std() > 2.0


def test_phase_phantom_contrast_dominance_and_range(cfg_small):
    for seed in range(5):
        ph = generate_phantom(cfg_small, "phase", seed=seed)
        assert ph.phi.std() / ph.mu.std() > 2.0
        assert ph.phi.max() < np.pi  # stays below the wrap point


def test_phantom_band_limit(cfg_small):
    # both constituent maps stay inside the synthetic aperture; the DC shift
    # from range normalization does not count against the band limit
    for seed in (0, 3):
        ph = generate_phantom(cfg_small, "amplitude", seed=seed)
        assert _band_fraction_outside(ph.mu, cfg_small) < 1e-9
        assert _band_fraction_outside(ph.phi, cfg_small) < 1e-9


def test_phantom_determinism(cfg_small):
    a = generate_phantom(cfg_small, "phase", seed=11)
    b = generate_phantom(cfg_small, "phase", seed=11)
    assert np.array_equal(a.field, b.field)
    c = generate_phantom(cfg_small, "phase", seed=12)
    assert not np.array_equal(a.field, c.field)


def test_phantom_context_validation(cfg_small):
    with pytest.raises(FpmError):
        generate_phantom(cfg_small, "refractive", seed=0)


def test_dataset_split_sizes(cfg_tiny):
    for n, n_train in ((10, 9), (20, 18)):
        ds = make_dataset(cfg_tiny, "amplitude", n, seed=7)
        assert len(ds.phantoms) == n
        assert len(ds.train_idx) == n_train
        assert len(ds.test_idx) == n - n_train
        joint = sorted(list(ds.train_idx) + list(ds.test_idx))
        assert joint == list(range(n))


def test_dataset_split_is_seeded(cfg_tiny):
    a = make_dataset(cfg_tiny, "amplitude", 10, seed=1)
    b = make_dataset(cfg_tiny, "amplitude", 10, seed=1)
    assert list(a.train_idx) == list(b.train_idx)
    c = make_dataset(cfg_tiny, "amplitude", 10, seed=2)
    assert list(a.train_idx) != list(c.train_idx)


def test_dataset_phantom_seeds_offset_from_base(cfg_tiny):
    ds = make_dataset(cfg_tiny, "phase", 4, seed=30)
    for i, ph in enumerate(ds.phantoms):
        assert ph.seed == 30 + i
        direct = generate_phantom(cfg_tiny, "phase", seed=30 + i)
        assert np.array_equal(ph.field, direct.field)


def test_dataset_too_small(cfg_tiny):
    with pytest.raises(FpmError):
        make_dataset(cfg_tiny, "amplitude", 1, seed=0)
