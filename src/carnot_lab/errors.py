"""Exception types shared across the library."""


class DomainError(ValueError):
    """An input is outside the mathematical domain of an operation."""


class BudgetError(RuntimeError):
    """A resource budget would be exceeded.

    Carries the partial result computed so far in ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
