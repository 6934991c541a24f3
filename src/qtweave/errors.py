"""Exception types shared across the package, its one budget rule and its one integer rule.

The CLI maps these onto exit codes: VerificationError -> 1,
ParameterError -> 2, BudgetExceededError -> 3.
"""

import operator


class ParameterError(ValueError):
    """A precondition on user-supplied parameters is violated."""


class BudgetExceededError(RuntimeError):
    """An exact enumeration would exceed the configured budget."""

    def __init__(self, message, required=None, budget=None):
        super().__init__(message)
        self.required = required
        self.budget = budget


class VerificationError(RuntimeError):
    """A computed object fails a property it is required to satisfy."""


def check_integer(name: str, value) -> int:
    """value as an int, read by operator.index; a float or any other type raises ParameterError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None


def check_budget(q: int, k: int, budget: int, job: str = "enumeration",
                 unit: str = "messages") -> None:
    """Refuse a job of q^k units over the budget: the spectrum's messages, a search's candidates.

    The exponent decides first: q >= 2 gives q^k > budget once k >=
    budget.bit_length(), so a huge k never builds q^k.  The error's required
    is q^k for k <= 64 and None beyond.  budget is read by check_integer.
    """
    budget = check_integer("budget", budget)
    if k >= budget.bit_length() or q**k > budget:
        raise BudgetExceededError(
            f"{job} needs {q}^{k} {unit}, budget is {budget}",
            required=q**k if k <= 64 else None,
            budget=budget,
        )
