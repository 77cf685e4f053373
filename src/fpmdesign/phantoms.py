"""Procedural complex phantoms and train/test datasets.

Phantoms substitute for stained/unstained cell images: a handful of seeded
anisotropic blobs over a band-limited noise texture, low-pass filtered to the
synthetic-aperture disk so the ground truth is recoverable in principle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .errors import FpmError
from .fourier import cfft2, icfft2, radius_grid

AMPLITUDE = "amplitude"
PHASE = "phase"

# texture knobs: blob std range (as fractions of the grid) and the relative
# level of the band-limited noise floor
BLOB_SIGMA_DIV = (20.0, 7.0)
BLOB_COUNT = (5, 15)
NOISE_LEVEL = 0.10


def generate_structure(q: int, rng: np.random.Generator, cut_bins: float) -> np.ndarray:
    """One [0, 1] structure map, band-limited to a centered disk.

    Blobs plus noise are low-pass filtered, then affinely rescaled back to
    [0, 1]; the affine step only touches the DC bin, so the band limit is
    preserved while keeping the map non-negative.
    """
    nblob = int(rng.integers(BLOB_COUNT[0], BLOB_COUNT[1] + 1))
    rows, cols = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    s = np.zeros((q, q))
    for _ in range(nblob):
        cy, cx = rng.uniform(0, q, size=2)
        sy = rng.uniform(q / BLOB_SIGMA_DIV[0], q / BLOB_SIGMA_DIV[1])
        sx = rng.uniform(q / BLOB_SIGMA_DIV[0], q / BLOB_SIGMA_DIV[1])
        angle = rng.uniform(0, np.pi)
        amp = rng.uniform(0.2, 1.0)
        dy, dx = rows - cy, cols - cx
        u = np.cos(angle) * dy + np.sin(angle) * dx
        v = -np.sin(angle) * dy + np.cos(angle) * dx
        s += amp * np.exp(-0.5 * (u / sy) ** 2 - 0.5 * (v / sx) ** 2)
    s /= max(s.max(), 1e-12)
    mask = radius_grid(q) <= cut_bins
    noise_spec = cfft2(rng.standard_normal((q, q))) * mask
    noise = icfft2(noise_spec).real
    noise /= max(noise.std(), 1e-12)
    s = s + NOISE_LEVEL * noise
    s = icfft2(cfft2(s) * mask).real
    lo, hi = s.min(), s.max()
    return (s - lo) / max(hi - lo, 1e-12)


@dataclass
class Phantom:
    field: np.ndarray   # q x q complex, exp(i phi - mu)
    mu: np.ndarray      # absorption, >= 0
    phi: np.ndarray     # phase, radians
    context: str
    seed: int


def generate_phantom(cfg: SystemConfig, context: str, seed: int) -> Phantom:
    """Context-specific phantom: amplitude-dominant or phase-dominant."""
    q = cfg.hires_px
    cut_bins = cfg.na_recon / cfg.wavelength_um / cfg.freq_step
    rng = np.random.default_rng(seed)
    s1 = generate_structure(q, rng, cut_bins)
    s2 = generate_structure(q, rng, cut_bins)
    if context == AMPLITUDE:
        mu, phi = 0.8 * s1, 0.1 * s2
    elif context == PHASE:
        phi, mu = (np.pi / 3.0) * s1, 0.05 * s2
    else:
        raise FpmError(f"unknown phantom context {context!r}")
    return Phantom(np.exp(1j * phi - mu), mu, phi, context, seed)


@dataclass
class Dataset:
    phantoms: list
    train_idx: np.ndarray
    test_idx: np.ndarray
    context: str
    seed: int

    def train_phantoms(self):
        return [self.phantoms[i] for i in self.train_idx]

    def test_phantoms(self):
        return [self.phantoms[i] for i in self.test_idx]


def make_dataset(cfg: SystemConfig, context: str, n: int, seed: int) -> Dataset:
    """n seeded phantoms with a shuffled 90/10 train/test split (rounded)."""
    if n < 2:
        raise FpmError("dataset needs at least 2 phantoms")
    phantoms = [generate_phantom(cfg, context, seed + i) for i in range(n)]
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(round(0.9 * n))
    n_train = min(max(n_train, 1), n - 1)  # keep both splits nonempty
    return Dataset(phantoms, perm[:n_train], perm[n_train:], context, seed)
