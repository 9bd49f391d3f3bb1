"""Exception hierarchy shared across the package.

Every error raised by library code derives from SparseHgError so callers
can distinguish our failures from bugs.  Each class carries the exit code
the CLI returns for it: 1 unless a class below says otherwise.
"""

from __future__ import annotations


class SparseHgError(Exception):
    """Base class for all library errors."""
    exit_code = 1


# --- validation / parameter errors ---


class NonUniform(SparseHgError):
    """An edge does not have exactly r distinct vertices."""


class OutOfRange(SparseHgError):
    """A vertex index lies outside 1..n."""


class DuplicateEdge(SparseHgError):
    """A repeated edge in a simple hypergraph."""


class BadIndex(SparseHgError):
    """An edge index is out of range or repeated."""


class ParseError(SparseHgError):
    """Malformed hypergraph text; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BadRange(SparseHgError):
    """Parameters outside the valid range of the construction."""


class GcdCondition(SparseHgError):
    """The coprimality condition on (e - 1, e*r - v) fails."""


class TargetOrdering(SparseHgError):
    """An extra freeness target is not strictly easier than the main one."""


class DegenerateP(SparseHgError):
    """The sampling probability is not in (0, 1) at this n."""


class Degenerate(SparseHgError):
    """Alteration produced an empty hypergraph."""


class NotLinear(SparseHgError):
    """Two auxiliary edges share more than one vertex (internal failure)."""


# --- retry / yield errors ---


class RetriesExhausted(SparseHgError):
    """All retry seeds produced a yield below min_yield."""
    exit_code = 2

    def __init__(self, message: str, best_yield: int = 0):
        self.best_yield = best_yield
        super().__init__(message)


class InsufficientYield(SparseHgError):
    """Fewer certified blocks than requested."""
    exit_code = 2


# --- budget errors ---


class BudgetExceeded(SparseHgError):
    """A search exceeded its work budget; carries the verified lower bound."""
    exit_code = 3

    def __init__(self, message: str, checked_up_to: int | None = None):
        self.checked_up_to = checked_up_to
        super().__init__(message)


class TooLarge(SparseHgError):
    """Instance exceeds the exhaustive-check guard and no override was given."""
    exit_code = 3


# --- certification errors ---


class CertificationFailed(SparseHgError):
    """A constructed object failed its own re-verification."""
    exit_code = 4


# --- numeric / code errors ---


class NotACode(SparseHgError):
    """The parity-check matrix leaves a zero-dimensional code."""


class DuplicateElement(SparseHgError):
    """Repeated field element in an evaluation-point set."""


class BadShape(SparseHgError):
    """Matrix or block shape is inconsistent."""
