"""Exception types shared across the toolkit.

Every error raised on a contract violation is a subclass of
:class:`TsadError`, so callers that want blanket handling (the benchmark
harness records per-row failures instead of aborting) can catch one type.
"""

from __future__ import annotations


class TsadError(Exception):
    """Base class for all toolkit errors."""


class SeriesTooShort(TsadError, ValueError):
    """The series has too few observations for the requested operation."""


class ConstantSeries(TsadError, ValueError):
    """Standardization is undefined: the training segment has zero variance."""


class InvalidPeriod(TsadError, ValueError):
    """Seasonal period must be a positive integer (>= 1, or >= 2 where stated)."""


class PeriodTooLong(SeriesTooShort):
    """Seasonal period exceeds what the training segment can support."""


class InvalidOrder(TsadError, ValueError):
    """Model order (p, d, q, ...) outside its allowed range."""


class OrderTooLarge(TsadError, ValueError):
    """Requested lag order exceeds the cap implied by the training length."""


class SingularDesign(TsadError, ValueError):
    """Least-squares design matrix is rank deficient (e.g. constant series)."""


class TooFewWindows(TsadError, ValueError):
    """Not enough training windows for the requested model size."""


class DistanceMatrixTooLarge(TsadError, ValueError):
    """A pairwise distance matrix would exceed the stated entry cap."""


class NoCorePoints(TsadError, ValueError):
    """DBSCAN found no core point in the training windows (degenerate fit)."""


class DimensionMismatch(TsadError, ValueError):
    """Vector or matrix dimensions do not chain."""


class NumericalDivergence(TsadError, ArithmeticError):
    """A training loss became non-finite, or a k-means inertia rose; reports
    the epoch or round where it happened."""

    def __init__(self, epoch: int, message: str | None = None):
        self.epoch = epoch
        super().__init__(message or f"loss became non-finite at epoch {epoch}")


class NonFiniteScores(TsadError, ValueError):
    """A detector emitted NaN or infinite scores."""


class NonFiniteValues(TsadError, ValueError):
    """A series, or a statistic computed from it, is NaN or infinite."""


class InvalidHyperparameter(TsadError, ValueError):
    """A hyperparameter value has the wrong type or lies outside its range."""


class UnknownHyperparameter(InvalidHyperparameter):
    """A detector config names a hyperparameter the detector does not take."""


class DegenerateLabels(TsadError, ValueError):
    """Metric needs at least one positive and one negative label."""


class NaiveZero(TsadError, ValueError):
    """Naive-forecast MSE is zero (constant test segment); NMM undefined."""


class ParseError(TsadError, ValueError):
    """A dataset file could not be parsed; carries the offending row number."""

    def __init__(self, path: str, row: int, message: str):
        self.path = path
        self.row = row
        super().__init__(f"{path}:{row}: {message}")


class MissingColumn(TsadError, ValueError):
    """A required CSV column is absent from the header."""

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"missing column {column!r}")


class LabelFileMissingEntry(TsadError, KeyError):
    """The NAB label-window file has no entry for the requested series."""


class InvalidSpec(TsadError, ValueError):
    """A series recipe, dataset manifest or run config violates its invariants."""


class UnknownDetector(TsadError, KeyError):
    """Detector name not present in the registry."""

    def __init__(self, name: str, valid: list[str]):
        self.name = name
        super().__init__(f"unknown detector {name!r}; valid names: {', '.join(valid)}")
