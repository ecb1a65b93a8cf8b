"""Exception hierarchy shared across the package."""


class LbcutError(Exception):
    """Base class for all package errors."""


class InputError(LbcutError):
    """Caller handed us something malformed (bad ids, non-edges, broken files)."""


class ModelError(InputError):
    """An interval model is inconsistent with its graph or not proper.

    `template` names the vertices it is about as {0}, {1}, ... and `ids`
    holds them: str() counts ids from 0 as the library does, `one_based()`
    from 1 as files do.
    """

    def __init__(self, template: str, *ids: int):
        super().__init__(template.format(*ids))
        self.template, self.ids = template, ids

    def one_based(self) -> str:
        return self.template.format(*(v + 1 for v in self.ids))


class BudgetExceeded(LbcutError):
    """An oracle hit its work budget. Never a wrong answer, always this signal."""


class InternalCheckError(LbcutError):
    """A self-verification failed. This signals a bug, not bad input."""
