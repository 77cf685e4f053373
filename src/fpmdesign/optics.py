"""Forward/adjoint sub-aperture operators and measurement simulation.

The single-LED operator A_l maps the q x q high-res transmittance to a p x p
low-res field: take the centered unitary FFT, cut out the p x p frequency
window at the grid bin closest to the LED's illumination frequency, apply the
binary pupil, and transform back on the small grid. Tilted illumination is
exactly a shift of which window the objective's pupil sees. Every image and
field this module takes or returns is centered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .errors import FpmError, GeometryError
from .fourier import cfft2, disk_mask, icfft2
from .geometry import LedGeometry


@dataclass(frozen=True)
class Pupil:
    mask: np.ndarray          # (p, p), 1.0 strictly inside the NA circle
    cutoff_cyc_per_um: float


def make_pupil(cfg: SystemConfig) -> Pupil:
    cutoff = cfg.na_obj / cfg.wavelength_um
    mask = disk_mask(cfg.patch_px, cutoff / cfg.freq_step, strict=True)
    return Pupil(mask.astype(float), cutoff)


def led_window_offsets(geometry: LedGeometry, cfg: SystemConfig) -> np.ndarray:
    """(L, 2) integer (row, col) offsets of each LED's frequency window.

    Row offsets follow the y frequency component, columns the x component;
    offsets are rounded to the nearest high-res bin.
    """
    du = cfg.freq_step
    out = np.empty((geometry.L, 2), dtype=int)
    out[:, 0] = np.rint(geometry.xi[:, 1] / du).astype(int)
    out[:, 1] = np.rint(geometry.xi[:, 0] / du).astype(int)
    return out


class SubApertureOps:
    """Batched A_l / A_l^H for a fixed set of frequency-window offsets.

    The (q, q) field and the (L, p, p) fields are centered, like every
    image in the package. ``__init__`` precomputes, per LED, the flat
    indices of its p x p window in the centered q x q spectrum with the
    small ``ifftshift`` folded in, and one complex kernel: the
    ``ifftshift``-ed pupil times the phase ramp r (x) r with
    r[k] = exp(-2j pi k (p // 2) / p), since
    ``fftshift(ifft2(V)) == ifft2(V * outer(r, r))``. So ``forward`` is one
    gather, one multiply and one batched inverse FFT, ``adjoint_sum`` one
    batched FFT, one multiply by the conjugate kernel and one scatter, and
    no (L, p, p) stack is ever shifted.
    """

    def __init__(self, q: int, p: int, offsets: np.ndarray, pupil_mask: np.ndarray):
        self.q, self.p = q, p
        self.offsets = np.asarray(offsets, dtype=int)
        self.pupil = np.asarray(pupil_mask, dtype=float)
        self.L = len(self.offsets)
        rows = q // 2 + self.offsets[:, 0] - p // 2
        cols = q // 2 + self.offsets[:, 1] - p // 2
        if (rows < 0).any() or (rows + p > q).any() or (cols < 0).any() or (cols + p > q).any():
            raise GeometryError("shifted frequency window exceeds the high-res grid")
        # bin i of the unshifted window is centered bin (i + p // 2) % p
        local = np.fft.ifftshift(np.arange(p))
        self._index = ((rows[:, None, None] + local[None, :, None]) * q
                       + cols[:, None, None] + local[None, None, :])
        ramp = np.exp(-2j * np.pi * ((np.arange(p) * (p // 2)) % p) / p)
        self._kernel = np.fft.ifftshift(self.pupil) * np.outer(ramp, ramp)

    @classmethod
    def for_geometry(cls, geometry: LedGeometry, pupil: Pupil, cfg: SystemConfig):
        return cls(cfg.hires_px, cfg.patch_px, led_window_offsets(geometry, cfg), pupil.mask)

    def subset(self, keep: np.ndarray) -> "SubApertureOps":
        """Operators restricted to a boolean subset of LEDs."""
        return SubApertureOps(self.q, self.p, self.offsets[keep], self.pupil)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """All A_l x at once, shape (L, p, p) complex."""
        if x.shape != (self.q, self.q):
            raise FpmError(f"expected {(self.q, self.q)} field, got {x.shape}")
        windows = cfft2(x).ravel()[self._index]
        return np.fft.ifft2(windows * self._kernel, norm="ortho")

    def adjoint_sum(self, fields: np.ndarray) -> np.ndarray:
        """sum_l A_l^H fields[l] for an (L, p, p) stack, shape (q, q)."""
        if fields.shape != (self.L, self.p, self.p):
            raise FpmError(f"expected {(self.L, self.p, self.p)} stack, got {fields.shape}")
        windows = (np.fft.fft2(fields, norm="ortho") * self._kernel.conj()).ravel()
        index = self._index.ravel()
        # bincount adds the LEDs in order from zero, like a loop of window +=
        n = self.q * self.q
        acc = np.empty(n, dtype=complex)
        acc.real = np.bincount(index, windows.real, minlength=n)
        acc.imag = np.bincount(index, windows.imag, minlength=n)
        return icfft2(acc.reshape(self.q, self.q))


def _single_op(geometry, led_index, pupil, cfg) -> SubApertureOps:
    offs = led_window_offsets(geometry, cfg)[led_index:led_index + 1]
    return SubApertureOps(cfg.hires_px, cfg.patch_px, offs, pupil.mask)


def forward_field(x, geometry, led_index, pupil, cfg) -> np.ndarray:
    """A_l x for one LED, shape (p, p) complex."""
    return _single_op(geometry, led_index, pupil, cfg).forward(x)[0]


def adjoint_field(v, geometry, led_index, pupil, cfg) -> np.ndarray:
    """A_l^H v for one LED, shape (q, q) complex."""
    ops = _single_op(geometry, led_index, pupil, cfg)
    return ops.adjoint_sum(np.asarray(v, dtype=complex)[None])


def simulate_single_led(x, geometry, led_index, pupil, cfg) -> np.ndarray:
    """Intensity image |A_l x|^2 for one LED."""
    field = forward_field(x, geometry, led_index, pupil, cfg)
    return np.abs(field) ** 2


def simulate_singles(x, geometry, pupil, cfg) -> np.ndarray:
    """All single-LED intensity images, shape (L, p, p)."""
    ops = SubApertureOps.for_geometry(geometry, pupil, cfg)
    return np.abs(ops.forward(x)) ** 2


def multiplex(singles: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted sum of single-LED images: one multiplexed measurement."""
    singles = np.asarray(singles, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if len(singles) != len(weights):
        raise FpmError(f"{len(singles)} singles vs {len(weights)} weights")
    return np.tensordot(weights, singles, axes=(0, 0))


@dataclass
class MeasurementStack:
    """K multiplexed intensity images plus bookkeeping for noise scaling."""

    images: np.ndarray           # (K, p, p) float
    bright_rows: np.ndarray      # (K,) bool: measurement uses bright-field LEDs
    design_id: str = ""
    noisy: bool = False

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=float)
        self.bright_rows = np.asarray(self.bright_rows, dtype=bool)

    @property
    def K(self) -> int:
        return len(self.images)


def simulate_stack(x, weights_matrix, geometry, pupil, cfg, design_id="") -> MeasurementStack:
    """Simulate the full multiplexed stack for a K x L weights matrix."""
    weights_matrix = np.asarray(weights_matrix, dtype=float)
    singles = simulate_singles(x, geometry, pupil, cfg)
    # the solver's own contraction, so its residual at the truth is exactly zero
    images = np.tensordot(weights_matrix, singles, axes=(1, 0))
    bright = (weights_matrix[:, geometry.is_bright] > 0).any(axis=1)
    return MeasurementStack(images, bright, design_id=design_id)


def add_shot_noise(stack: MeasurementStack, geometry: LedGeometry, rng_seed,
                   mean_rate: float = 10000.0) -> MeasurementStack:
    """Poisson shot noise scaled so bright-field measurements average mean_rate counts.

    A single global scale s is anchored to the mean bright-field pixel value;
    dark-field images inherit proportionally lower counts, which reproduces
    their worse SNR. Deterministic per (rng_seed, measurement index); the
    seed may be an int or a tuple of ints. The entropy fed to the RNG is
    length-prefixed because SeedSequence zero-pads short entropy, which would
    otherwise make seeds like 7 and (7, 0) collide.
    """
    if not stack.bright_rows.any():
        raise FpmError("no bright-field measurements: noise scaling undefined")
    mean_bright = float(stack.images[stack.bright_rows].mean())
    if mean_bright <= 0:
        raise FpmError("all-zero bright-field measurements: noise scaling undefined")
    scale = mean_rate / mean_bright
    base = tuple(rng_seed) if isinstance(rng_seed, (tuple, list)) else (rng_seed,)
    entropy = (len(base),) + base
    noisy = np.empty_like(stack.images)
    for k in range(stack.K):
        rng = np.random.default_rng(np.random.SeedSequence(entropy + (k,)))
        noisy[k] = rng.poisson(scale * np.clip(stack.images[k], 0.0, None)) / scale
    return MeasurementStack(noisy, stack.bright_rows.copy(),
                            design_id=stack.design_id, noisy=True)
