"""Exception types shared across the package."""


class ContestOptError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ContestOptError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class OrderViolation(DomainError):
    """Prize shares are not sorted in non-increasing order."""


class NormalizationViolation(DomainError):
    """Prize shares do not sum to one within tolerance."""


class RangeError(DomainError):
    """A value lies outside the representable range of a monotone map."""


class TrivialPolicyError(DomainError):
    """The all-equal policy was passed where a nontrivial one is required."""


class ReductionPreconditionError(DomainError):
    """The equilibrium-free objective form requires a zero bottom share."""


class StructuralConditionError(ContestOptError, ValueError):
    """The objective is outside the class with a known two-level optimum."""


class BudgetExceededError(ContestOptError, RuntimeError):
    """A candidate-count or node-count guard was hit."""
