"""LED multiplexing designs: baselines, constraints metadata, serialization.

A design is a K x L matrix of non-negative LED brightnesses, one row per
acquired measurement, together with a boolean mask of which entries are
allowed to be nonzero (the geometric constraint separating bright- and
dark-field measurements).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FingerprintError, FormatError, FpmError
from .formats import atomic_write_text
from .geometry import LedGeometry

AMPLITUDE = "amplitude"
PHASE = "phase"
MIXED = "mixed"

DESIGN_MAGIC = "FPMDESIGN v1"
ROW_SUM_TOL = 1e-12


@dataclass
class DesignMatrix:
    weights: np.ndarray                 # (K, L) float, rows sum to 1
    mask: np.ndarray                    # (K, L) bool, allowed entries
    context: str | None = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.weights.shape != self.mask.shape:
            raise FpmError("weights and mask shapes differ")

    @property
    def K(self) -> int:
        return self.weights.shape[0]

    @property
    def L(self) -> int:
        return self.weights.shape[1]

    def check_feasible(self, tol: float = ROW_SUM_TOL):
        """Raise unless all three constraint invariants hold."""
        if (self.weights < 0).any():
            raise FpmError("negative design weight")
        if (self.weights[~self.mask] != 0).any():
            raise FpmError("nonzero weight on a masked entry")
        sums = self.weights.sum(axis=1)
        if np.abs(sums - 1.0).max() > tol:
            raise FpmError(f"row sums deviate from 1 by {np.abs(sums - 1.0).max():.2e}")


def context_mask(geometry: LedGeometry, K: int, context: str) -> np.ndarray:
    """Geometric constraint pattern for a learnable design.

    Amplitude: measurement 1 bright-field-only, the rest dark-field-only.
    Phase and mixed: measurements 1-2 bright-field-only, the rest dark-field.
    """
    bright = geometry.is_bright
    n_bf = {AMPLITUDE: 1, PHASE: 2, MIXED: 2}.get(context)
    if n_bf is None:
        raise FpmError(f"unknown context {context!r}")
    if K <= n_bf:
        raise FpmError(f"K = {K} leaves no dark-field measurements for {context}")
    mask = np.zeros((K, geometry.L), dtype=bool)
    mask[:n_bf, bright] = True
    mask[n_bf:, ~bright] = True
    return mask


def single_led_design(geometry: LedGeometry) -> DesignMatrix:
    """Identity design: measurement k turns on LED k alone (K = L)."""
    eye = np.eye(geometry.L)
    return DesignMatrix(eye, eye > 0, context=None)


def heuristic_design(geometry: LedGeometry, K: int, seed: int) -> DesignMatrix:
    """Hand-crafted baseline: 3 bright-field half-planes + K-3 dark groups.

    Rows 1-3 illuminate the upper, lower, and left bright-field half-planes
    (boundary LEDs go to upper/left), equally weighted. The dark-field LEDs
    are partitioned into K-3 seeded random groups whose sizes differ by at
    most one, so every dark LED is on in exactly one measurement.
    """
    if K < 4:
        raise FpmError("heuristic design needs K >= 4")
    n_dark = geometry.dark_count
    if K - 3 > n_dark:
        raise FpmError(f"K - 3 = {K - 3} exceeds the {n_dark} dark-field LEDs")
    x = geometry.grid[:, 0].astype(float)
    y = geometry.grid[:, 1].astype(float)
    bright = geometry.is_bright
    half_planes = [bright & (y >= 0), bright & (y < 0), bright & (x <= 0)]
    C = np.zeros((K, geometry.L))
    for row, members in enumerate(half_planes):
        C[row, members] = 1.0 / members.sum()
    dark_idx = np.flatnonzero(~bright)
    perm = np.random.default_rng(seed).permutation(dark_idx)
    groups = K - 3
    size, extra = divmod(n_dark, groups)
    start = 0
    for j in range(groups):
        count = size + (1 if j < extra else 0)
        C[3 + j, perm[start:start + count]] = 1.0 / count
        start += count
    return DesignMatrix(C, C > 0, context=None)


def mirror_permutation(geometry: LedGeometry) -> np.ndarray:
    """Index permutation mapping each LED (m, n) to its mirror (m, -n)."""
    lookup = {tuple(mn): i for i, mn in enumerate(map(tuple, geometry.grid))}
    perm = np.empty(geometry.L, dtype=int)
    for i, (m, n) in enumerate(geometry.grid):
        perm[i] = lookup[(m, -n)]
    return perm


def mirror_asymmetry(row: np.ndarray, geometry: LedGeometry) -> float:
    """||c - mirror(c)||_1 / ||c||_1 for one design row; 0 means symmetric."""
    row = np.asarray(row, dtype=float)
    mirrored = row[mirror_permutation(geometry)]
    denom = np.abs(row).sum()
    if denom == 0:
        return 0.0
    return float(np.abs(row - mirrored).sum() / denom)


def save_design(design: DesignMatrix, path: str, geometry: LedGeometry):
    """Text serialization with 17 significant digits (bit-exact round-trip)."""
    lines = [DESIGN_MAGIC, f"{design.K} {design.L} {geometry.fingerprint()}"]
    for row in design.weights:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_design(path: str, geometry: LedGeometry) -> DesignMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != DESIGN_MAGIC:
        raise FormatError(f"{path}:1: expected header {DESIGN_MAGIC!r}")
    if len(lines) < 2:
        raise FormatError(f"{path}:2: missing dimension line")
    parts = lines[1].split()
    if len(parts) != 3:
        raise FormatError(f"{path}:2: expected 'K L fingerprint'")
    try:
        K, L = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"{path}:2: bad dimensions {lines[1]!r}") from None
    if parts[2] != geometry.fingerprint():
        raise FingerprintError(
            f"{path}: design fingerprint {parts[2]} does not match geometry "
            f"{geometry.fingerprint()}"
        )
    if L != geometry.L:
        raise FormatError(f"{path}:2: design has L = {L}, geometry has {geometry.L}")
    if len(lines) < 2 + K:
        raise FormatError(f"{path}:{len(lines) + 1}: expected {K} weight rows")
    weights = np.empty((K, L))
    for k in range(K):
        fields = lines[2 + k].split()
        if len(fields) != L:
            raise FormatError(f"{path}:{3 + k}: expected {L} values, got {len(fields)}")
        try:
            weights[k] = [float(v) for v in fields]
        except ValueError:
            raise FormatError(f"{path}:{3 + k}: non-numeric weight") from None
        if not (np.isfinite(weights[k]).all() and (weights[k] >= 0).all()):
            raise FormatError(f"{path}:{3 + k}: weights must be finite and non-negative")
    return DesignMatrix(weights, weights > 0, context=None)
