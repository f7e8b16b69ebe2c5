"""Shared exception types.

The CLI maps these onto exit codes: ParameterError -> 2, ResourceError -> 3,
and ContractViolationError or ConvergenceError -> 4, each with a one-line
message on stderr.  Exit code 4 means the program failed one of its own
checks on valid input; it is a bug to report, not a bad argument.
"""


class ParameterError(ValueError):
    """An argument violates a precondition (bad field params, p > N, ...)."""


class ResourceError(RuntimeError):
    """A computation budget would be exceeded; nothing was computed."""


class ContractViolationError(RuntimeError):
    """An internal contract failed (non-Hermitian input, non-unit diagonal)."""


class ConvergenceError(RuntimeError):
    """The Jacobi sweep limit was reached before the off-diagonal mass died."""
