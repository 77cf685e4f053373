"""Forward/adjoint sub-aperture operators and measurement simulation.

The single-LED operator A_l maps the q x q high-res transmittance to a p x p
low-res field: take the centered unitary FFT, cut out the p x p frequency
window at the grid bin closest to the LED's illumination frequency, apply the
binary pupil, and transform back on the small grid. Tilted illumination is
exactly a shift of which window the objective's pupil sees. The functions of
this module take and return centered images; ``SubApertureOps`` itself works
on p x p stacks in the unshifted FFT layout.
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

    Layout contract: the (L, p, p) fields this class takes and returns, and
    every p x p stack handed to the solver and training internals, are in
    the unshifted ("native") FFT layout, with the spatial center at index
    (0, 0). ``to_native`` maps centered p x p data into that layout and
    ``from_native`` maps it back; the module-level functions below keep
    the centered layout of the rest of the package. The (q, q) field is
    centered on both sides.

    ``__init__`` precomputes, per LED, the flat indices of its p x p window
    in the centered q x q spectrum with the small ``ifftshift`` folded in,
    so ``forward`` is one gather and ``adjoint_sum`` one scatter, with no
    shift of an (L, p, p) stack.
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
        # native bin i of a window is centered bin (i + p // 2) % p
        local = np.fft.ifftshift(np.arange(p))
        self._index = ((rows[:, None, None] + local[None, :, None]) * q
                       + cols[:, None, None] + local[None, None, :])
        self._pupil_native = np.fft.ifftshift(self.pupil)

    @classmethod
    def for_geometry(cls, geometry: LedGeometry, pupil: Pupil, cfg: SystemConfig):
        return cls(cfg.hires_px, cfg.patch_px, led_window_offsets(geometry, cfg), pupil.mask)

    def subset(self, keep: np.ndarray) -> "SubApertureOps":
        """Operators restricted to a boolean subset of LEDs."""
        return SubApertureOps(self.q, self.p, self.offsets[keep], self.pupil)

    @staticmethod
    def to_native(images: np.ndarray) -> np.ndarray:
        """Centered p x p image(s) -> the native layout of the operators."""
        return np.fft.ifftshift(images, axes=(-2, -1))

    @staticmethod
    def from_native(images: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_native`."""
        return np.fft.fftshift(images, axes=(-2, -1))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """All A_l x at once, shape (L, p, p) complex, native layout."""
        if x.shape != (self.q, self.q):
            raise FpmError(f"expected {(self.q, self.q)} field, got {x.shape}")
        windows = cfft2(x).ravel()[self._index]
        return np.fft.ifft2(windows * self._pupil_native, norm="ortho")

    def adjoint_sum(self, fields: np.ndarray) -> np.ndarray:
        """sum_l A_l^H fields[l] for a native (L, p, p) stack, shape (q, q)."""
        if fields.shape != (self.L, self.p, self.p):
            raise FpmError(f"expected {(self.L, self.p, self.p)} stack, got {fields.shape}")
        windows = (np.fft.fft2(fields, norm="ortho") * self._pupil_native).ravel()
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
    """A_l x for one LED, shape (p, p) complex, centered."""
    ops = _single_op(geometry, led_index, pupil, cfg)
    return ops.from_native(ops.forward(x)[0])


def adjoint_field(v, geometry, led_index, pupil, cfg) -> np.ndarray:
    """A_l^H v for one LED and a centered v, shape (q, q) complex."""
    ops = _single_op(geometry, led_index, pupil, cfg)
    return ops.adjoint_sum(ops.to_native(np.asarray(v, dtype=complex))[None])


def simulate_single_led(x, geometry, led_index, pupil, cfg) -> np.ndarray:
    """Intensity image |A_l x|^2 for one LED."""
    field = forward_field(x, geometry, led_index, pupil, cfg)
    return np.abs(field) ** 2


def simulate_singles(x, geometry, pupil, cfg) -> np.ndarray:
    """All single-LED intensity images, shape (L, p, p), centered."""
    ops = SubApertureOps.for_geometry(geometry, pupil, cfg)
    return ops.from_native(np.abs(ops.forward(x)) ** 2)


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
    # multiplexed in the operators' native layout, so that the solver's
    # residual at the truth is exactly zero, then centered
    ops = SubApertureOps.for_geometry(geometry, pupil, cfg)
    singles = np.abs(ops.forward(x)) ** 2
    images = np.tensordot(weights_matrix, singles.reshape(geometry.L, -1), axes=(1, 0))
    images = ops.from_native(images.reshape(len(weights_matrix), cfg.patch_px, cfg.patch_px))
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
