"""Exception types shared across the package."""


class FpmError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FpmError):
    """Invalid, missing, or inconsistent configuration."""


class GeometryError(FpmError):
    """LED geometry or frequency-window violation."""


class FormatError(FpmError):
    """Malformed file content (design, stack)."""


class FingerprintError(FormatError):
    """Design was saved under a different LED geometry."""


class DivergenceError(FpmError):
    """Non-finite iterate inside the reconstruction loop."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"non-finite iterate at reconstruction step {iteration}")


class DegenerateRowError(FpmError):
    """A design row became all-zero and cannot be rescaled."""


class MetricError(FpmError):
    """Undefined metric (e.g. zero-dynamic-range truth)."""
