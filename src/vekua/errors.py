"""Exception types shared across the package."""


class GridShapeError(ValueError):
    """Sample array does not match its grid, or the grid is too small or too
    coarse for a stencil."""


class KernelMembershipError(ValueError):
    """Target field is not (approximately) in the kernel of the required operator."""


class NonConvergenceError(RuntimeError):
    """Fixed-point iteration failed to reach tolerance within the iteration budget."""

    def __init__(self, message, defects=None):
        super().__init__(message)
        self.defects = list(defects) if defects is not None else []


class ConfigError(ValueError):
    """Malformed CLI arguments or input file."""
