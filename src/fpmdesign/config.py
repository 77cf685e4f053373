"""System, reconstruction, and training configuration.

All commands are driven by one flat ``key = value`` text file; the dataclasses
below hold the typed values and derived quantities (grid sizes, frequency
spacing, synthetic-aperture cutoff).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from .errors import ConfigError


@dataclass(frozen=True)
class SystemConfig:
    """Optical system and discretization parameters.

    The defaults reproduce the desk-scale setup: a 0.2 NA objective at 8x
    magnification, a 6.5 um camera, and a 4 mm-pitch LED grid 45 mm below
    the sample, giving 89 usable LEDs and a 0.62 synthetic NA.
    """

    wavelength_um: float = 0.514
    na_obj: float = 0.2
    na_illum_max: float = 0.42
    mag: float = 8.0
    camera_px_um: float = 6.5
    led_pitch_mm: float = 4.0
    led_height_mm: float = 45.0
    patch_px: int = 35
    upsample: int = 3

    def __post_init__(self):
        if self.wavelength_um <= 0:
            raise ConfigError("wavelength_um must be positive")
        if not 0 < self.na_obj < 1:
            raise ConfigError("na_obj must lie in (0, 1)")
        if self.upsample < 2:
            raise ConfigError("upsample must be >= 2")
        if self.patch_px % 2 != 1:
            raise ConfigError("patch_px must be odd (keeps the DC bin centered)")
        if self.led_height_mm <= 0 or self.led_pitch_mm <= 0:
            raise ConfigError("LED pitch and height must be positive")
        # The high-res grid must Nyquist-sample the synthetic aperture.
        need = 2.0 * self.na_recon / self.wavelength_um
        have = self.upsample / (self.camera_px_um / self.mag)
        if have < need:
            raise ConfigError(
                f"insufficient sampling: {have:.3f} cycles/um < required {need:.3f}"
            )

    @property
    def hires_px(self) -> int:
        return self.patch_px * self.upsample

    @property
    def pitch_hr_um(self) -> float:
        """Sample-plane pixel pitch of the high-res grid."""
        return self.camera_px_um / self.mag / self.upsample

    @property
    def freq_step(self) -> float:
        """Frequency-bin spacing of the high-res grid, cycles/um."""
        return 1.0 / (self.hires_px * self.pitch_hr_um)

    @property
    def na_recon(self) -> float:
        return self.na_obj + self.na_illum_max

    @property
    def pupil_radius_bins(self) -> float:
        return self.na_obj / self.wavelength_um / self.freq_step


@dataclass(frozen=True)
class ReconConfig:
    """Unrolled gradient-descent solver settings."""

    unroll_T: int = 100
    step_alpha: float = 0.5

    def __post_init__(self):
        if self.unroll_T < 0:
            raise ConfigError("unroll_T must be >= 0")
        if self.step_alpha <= 0:
            raise ConfigError("step_alpha must be positive")


@dataclass(frozen=True)
class LossSpec:
    """Weighted amplitude/phase loss settings."""

    gamma: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError("gamma must lie in [0, 1]")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.05
    epochs: int = 50
    batch: int = 5
    seed: int = 0
    train_noise: bool = True
    noise_rate: float = 10000.0
    unroll: ReconConfig = field(default_factory=ReconConfig)

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.batch < 1:
            raise ConfigError("batch must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")


# typed key table for the flat config file
_KEYS = {
    "wavelength_um": float,
    "na_obj": float,
    "na_illum_max": float,
    "mag": float,
    "camera_px_um": float,
    "led_pitch_mm": float,
    "led_height_mm": float,
    "patch_px": int,
    "upsample": int,
    "unroll_T": int,
    "step_alpha": float,
    "lr": float,
    "epochs": int,
    "batch": int,
    "seed": int,
    "train_noise": bool,
    "noise_rate": float,
    "context": str,
    "n_phantoms": int,
}

_SYS_FIELDS = (
    "wavelength_um na_obj na_illum_max mag camera_px_um "
    "led_pitch_mm led_height_mm patch_px upsample".split()
)
_TRAIN_FIELDS = "lr epochs batch seed train_noise noise_rate".split()


def _coerce(key: str, raw: str):
    typ = _KEYS[key]
    try:
        if typ is bool:
            low = raw.lower()
            if low in ("1", "true", "on", "yes"):
                return True
            if low in ("0", "false", "off", "no"):
                return False
            raise ValueError(raw)
        return typ(raw)
    except ValueError:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from None


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines into a typed dict."""
    out = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {ln}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {ln}: unknown config key {key!r}")
        out[key] = _coerce(key, raw)
    return out


def load_config(path: str) -> dict:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def system_config(values: dict) -> SystemConfig:
    return SystemConfig(**{k: values[k] for k in _SYS_FIELDS if k in values})


def recon_config(values: dict) -> ReconConfig:
    kw = {}
    if "unroll_T" in values:
        kw["unroll_T"] = values["unroll_T"]
    if "step_alpha" in values:
        kw["step_alpha"] = values["step_alpha"]
    return ReconConfig(**kw)


def train_config(values: dict, seed_override: int | None = None) -> TrainConfig:
    kw = {k: values[k] for k in _TRAIN_FIELDS if k in values}
    kw["unroll"] = recon_config(values)
    tcfg = TrainConfig(**kw)
    if seed_override is not None:
        tcfg = replace(tcfg, seed=seed_override)
    return tcfg


def worker_count() -> int:
    """Parallelism cap from the FPM_THREADS environment variable (default 1)."""
    raw = os.environ.get("FPM_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"FPM_THREADS must be an integer, got {raw!r}") from None
    return max(1, n)


def parallel_map(fn, items) -> list:
    """[fn(item) for item in items] on up to worker_count() threads.

    Results keep the order of items, so reductions over them are
    bit-identical for any FPM_THREADS.
    """
    workers = min(worker_count(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
