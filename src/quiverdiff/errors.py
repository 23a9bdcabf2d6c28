"""Exception types shared by every module in the package, and the oracle's
default cap, which the CLI reads without loading the oracle."""

from __future__ import annotations


class QuiverError(Exception):
    """Base class for all domain errors raised by this package."""


class CyclicQuiverError(QuiverError):
    """A directed cycle was found where acyclicity is required."""


class DisconnectedError(QuiverError):
    """The underlying graph is not connected."""


class QuiverMismatchError(QuiverError):
    """An operation mixed values that live over different quivers."""


class NotParallelError(QuiverError):
    """The given path is not parallel to the given arrow."""


class TooLargeError(QuiverError):
    """The brute-force oracle was asked for a system beyond its cap."""


ORACLE_MAX_PATHS = 60  # the oracle's default cap on |P|; it has |P|^2 unknowns


class InvalidRotationError(QuiverError):
    """A rotation system misses, duplicates, or misplaces a dart."""


class DimensionMismatchError(QuiverError):
    """Matrix or vector dimensions are incompatible."""


class InternalCheckError(QuiverError):
    """A proved identity failed to hold; this always indicates a bug."""


class ParseError(QuiverError):
    """A quiver file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
