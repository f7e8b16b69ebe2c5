"""Shared exception types.

The CLI maps these onto exit codes: ParameterError -> 2, ResourceError -> 3.
"""


class ParameterError(ValueError):
    """An argument violates a precondition (bad field params, p > N, ...)."""


class ResourceError(RuntimeError):
    """A computation budget would be exceeded; nothing was computed."""


class ContractViolationError(RuntimeError):
    """An internal contract failed (non-Hermitian input, non-unit diagonal)."""


class ConvergenceError(RuntimeError):
    """The Jacobi sweep limit was reached before the off-diagonal mass died."""
