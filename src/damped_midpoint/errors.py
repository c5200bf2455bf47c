"""Exception types shared across the package."""

from __future__ import annotations


class DimensionError(ValueError):
    """Operands have incompatible or invalid dimensions."""


class SingularMatrixError(ArithmeticError):
    """Gaussian elimination hit a pivot below the conditioning threshold.

    Carries the offending pivot magnitude so callers can distinguish an
    exactly singular matrix from a merely ill-conditioned one. ``index``
    is the position of the failing matrix in a factored stack (0 for a
    single matrix).
    """

    index = 0

    def __init__(self, pivot: float, threshold: float):
        self.pivot = float(pivot)
        self.threshold = float(threshold)
        super().__init__(
            f"matrix is singular to working precision: pivot magnitude "
            f"{self.pivot:.3e} <= threshold {self.threshold:.3e}"
        )


class InvalidStiffnessError(ValueError):
    """An equivalent-stiffness vector has singular (invalid) components."""

    def __init__(self, indices):
        self.indices = tuple(int(i) for i in indices)
        super().__init__(
            f"equivalent stiffness undefined for components {list(self.indices)}: "
            f"midpoint coordinate sum vanished"
        )


class InsufficientOscillationError(ValueError):
    """Too few zero crossings in the signal to estimate a period."""


class IntegrationError(RuntimeError):
    """A stepper failed mid-run; carries the 1-based failing step index."""

    def __init__(self, step_index: int, message: str):
        self.step_index = int(step_index)
        super().__init__(f"integration aborted at step {self.step_index}: {message}")


class ConfigError(ValueError):
    """Invalid run configuration or configuration file."""
