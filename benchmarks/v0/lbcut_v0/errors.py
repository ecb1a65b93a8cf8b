"""Exception hierarchy shared across the package."""


class LbcutError(Exception):
    """Base class for all package errors."""


class InputError(LbcutError):
    """Caller handed us something malformed (bad ids, non-edges, broken files)."""


class ModelError(InputError):
    """An interval model is inconsistent with its graph or not proper."""


class BudgetExceeded(LbcutError):
    """An oracle hit its work budget. Never a wrong answer, always this signal."""


class InternalCheckError(LbcutError):
    """A self-verification failed. This signals a bug, not bad input."""
