"""Typed errors shared across the package.

Two broad families matter for the CLI exit codes: DataError (malformed or
inconsistent inputs, exit 3) and NumericError (computation went off the
rails, exit 4).  Every file the package reads or writes goes through
`opened`, so an unreadable, unwritable or non-UTF-8 file is always an
IoFailure.
"""

from contextlib import contextmanager


class BoundsegError(Exception):
    """Base class for all package errors."""


class DataError(BoundsegError):
    """Bad or inconsistent input data."""


class NumericError(BoundsegError):
    """Numerical failure during computation."""


# --- tensor engine ---

class ShapeMismatch(DataError):
    pass


class LabelOutOfRange(DataError):
    pass


class DivergedTraining(NumericError):
    pass


# --- distance maps ---

class EmptyMask(DataError):
    pass


class EmptySiteSet(DataError):
    pass


# --- contour post-processing ---

class EmptyResult(DataError):
    pass


class DegenerateContour(DataError):
    pass


class OpenRegion(DataError):
    pass


# --- phantom generation ---

class InvalidParams(DataError):
    pass


# --- metrics ---

class TooFewSamples(DataError):
    pass


class ManifestMismatch(DataError):
    pass


# --- file I/O ---

class IoFailure(DataError):
    pass


class MalformedHeader(DataError):
    pass


class TruncatedData(DataError):
    pass


class BadMagic(DataError):
    pass


@contextmanager
def opened(path, mode: str, what: str):
    """``open(path, mode)`` for the block, with text modes in UTF-8 whatever
    the locale.  An OSError in the block, or text that is not UTF-8, is
    raised as IoFailure naming `what` (e.g. "manifest") and the path."""
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
    except OSError as e:
        verb = "read" if "r" in mode else "write"
        raise IoFailure(f"cannot {verb} {what} {path}: {e}") from e
    except UnicodeError as e:
        raise IoFailure(f"{what} {path} is not UTF-8 text: {e}") from e
