"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible dimensions."""


class FormatError(ValueError):
    """A data file is structurally malformed (bad magic, truncated payload)."""


class DataError(ValueError):
    """A data file is well-formed but semantically inconsistent."""


class TrainingAborted(RuntimeError):
    """Training stopped before its last epoch; the traces of the completed
    iterations are attached."""

    def __init__(self, message, traces=None):
        super().__init__(message)
        self.traces = traces if traces is not None else []


class BacktrackError(TrainingAborted):
    """Backtracking exhausted its trial budget without a certified step."""


class DivergenceError(TrainingAborted):
    """Training produced a non-finite objective."""
