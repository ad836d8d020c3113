"""Domain errors raised by the library.

Every precondition violation raises a subclass of DomainError. The CLI maps
these to exit code 1 and serializes the ``code`` attribute (the class name
without the ``Error`` suffix) so callers can dispatch on it without parsing
messages.
"""

from __future__ import annotations


class DomainError(Exception):
    """Base class for all precondition violations in this package."""

    @property
    def code(self) -> str:
        name = type(self).__name__
        return name[:-5] if name.endswith("Error") else name


# ---------------------------------------------------------------------------
# Markov shift construction and word handling
# ---------------------------------------------------------------------------

class NotRowStochasticError(DomainError):
    """A transition matrix row does not sum to 1 within tolerance."""


class NotIrreducibleError(DomainError):
    """The positive-entry digraph of the transition matrix is not strongly connected."""


class InadmissibleWordError(DomainError):
    """A word contains a forbidden transition (some p(a,b) = 0 along it), a
    hole is empty, or a ceiling has no value on a word that a route reads."""


class WordTooShortError(DomainError):
    """A word is too short for the requested window or Birkhoff sum."""


class RefinementTooLargeError(DomainError):
    """More than ``DEFAULT_STATE_CAP`` words of the requested length are
    admissible, or a hole automaton has more than that many states; the cap
    is not a parameter."""


# ---------------------------------------------------------------------------
# Ceilings and suspension systems
# ---------------------------------------------------------------------------

class NonArithmeticCeilingError(DomainError):
    """The ceiling has no declared lattice, or a value a lattice route reads is
    off its lattice, rounds to height 0 or overflows the float range in
    lattice steps."""


class NonPositiveCeilingError(DomainError):
    """A ceiling value is not strictly positive."""


class EpsilonTooLargeError(DomainError):
    """Rationalization step exceeds the infimum of the ceiling."""


# ---------------------------------------------------------------------------
# Holes and open systems
# ---------------------------------------------------------------------------

class NotReducedError(DomainError):
    """The word admits no last-letter substitution, so it is not reduced."""


class HoleShorterThanCeilingOrderError(DomainError):
    """The hole word is shorter than the ceiling order."""


# ---------------------------------------------------------------------------
# Polynomials and zeta determinants
# ---------------------------------------------------------------------------

class DimensionTooLargeError(DomainError):
    """A dense matrix is too large: the block matrix of a suspension, or the
    bordered open matrix (blocks plus k0 - 1 border states), would have more
    than ``DEFAULT_STATE_CAP`` states (raised before anything is allocated);
    or a tower's determinant or cofactor would take the dense
    Faddeev-LeVerrier pass past 320 dims, because its word operator costs
    more than the dense pass at 320 dims."""


class NoZeroAtOneError(DomainError):
    """Polynomial has no zero at z = 1, so the (1-z) factor cannot be removed."""


class FactorizationMismatchError(DomainError):
    """Assembled zeta factorization disagrees with the direct determinant."""


class NoSignChangeError(DomainError):
    """No polynomial root found in the bracket by scan or companion fallback."""


# ---------------------------------------------------------------------------
# Periodic families and expansions
# ---------------------------------------------------------------------------

class NotPrimePeriodError(DomainError):
    """The base word is a nontrivial power of a shorter word."""


class NotCyclicallyAdmissibleError(DomainError):
    """The base word cannot be closed into a periodic orbit (wrap transition forbidden)."""


class DegenerateLinearTermError(DomainError):
    """Leading expansion coefficient vanishes; the recursion cannot proceed."""


# ---------------------------------------------------------------------------
# Induced pressure
# ---------------------------------------------------------------------------

class WindowEmptyError(DomainError):
    """No surviving word has its ceiling sum inside the truncation window."""


class PressureNotNegativeError(DomainError):
    """Induced pressure is not negative, so reciprocal bounds are undefined."""


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

class AllMassEscapedError(DomainError):
    """No mass survives where a rate is read off survival: every sample
    escaped inside the sampler's fit window, so no rate can be bracketed, or
    the exact survival underflowed to 0 inside the slope route's fit range,
    so its log has no slope."""


class NoConvergenceError(DomainError):
    """A routine failed to reach its tolerance: an iteration within its budget,
    or the stationary vector's LU solve."""
