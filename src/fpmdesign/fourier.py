"""Centered unitary 2-D Fourier transforms and frequency-grid helpers.

Every transform in this package is the norm-preserving ("ortho") DFT, and
every image, field and spectrum keeps the DC bin and the spatial center at
the array center (``n // 2``). ``optics.SubApertureOps`` runs its batched
p x p transforms without a shift: its window indices and pupil kernel
absorb it (see its docstring).
"""

import numpy as np


def cfft2(x):
    """Centered unitary 2-D FFT: spatial center -> DC at the array center."""
    return np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(x), norm="ortho"))


def icfft2(X):
    """Inverse of :func:`cfft2`."""
    return np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(X), norm="ortho"))


def radius_grid(n):
    """Distance of each bin from the centered DC bin, in bins, shape (n, n)."""
    i = np.arange(n) - n // 2
    rows, cols = np.meshgrid(i, i, indexing="ij")
    return np.hypot(rows, cols)


def disk_mask(n, radius_bins, strict=True):
    """Boolean mask of bins inside a centered disk.

    strict=True uses ``< radius`` (the pupil convention), strict=False ``<=``.
    """
    rad = radius_grid(n)
    return rad < radius_bins if strict else rad <= radius_bins
