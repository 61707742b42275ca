"""Enumeration budget handling.

Exhaustive loops (codeword enumeration, monomial tables, privacy audits,
share draws) are guarded by a budget on the number of enumerated objects.
Each call site has its own default; the HSS_ENUM_BUDGET environment
variable, when set, overrides every default at once.  :func:`check` is
the one gate that refuses a loop.
"""

import os

from .errors import EnumerationBudgetExceeded

ENV_VAR = "HSS_ENUM_BUDGET"

LABELWEIGHT_BUDGET = 2**24
MONOMIAL_BUDGET = 2**22
PRIVACY_BUDGET = 2**20
SHARE_BUDGET = 2**24


def effective_budget(default: int) -> int:
    """Return the budget to enforce: the env override if set, else `default`."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{ENV_VAR} must be positive, got {value}")
    return value


def check(count: int | tuple[int, int], default: int, what: str) -> None:
    """Raise EnumerationBudgetExceeded, naming the count and what is
    counted (`what`), unless `count` objects fit the budget.  A count
    (base, exponent), base >= 2, is base**exponent, built only if the
    exponent is within the budget's bit length (past it, the power cannot
    fit and is named as base^exponent); an int count past 256 bits is
    named by the power of two it reaches, so every count prints."""
    limit = effective_budget(default)
    if isinstance(count, tuple) and count[1] <= limit.bit_length():
        count = count[0] ** count[1]
    if isinstance(count, tuple):
        shown = "{}^{}".format(*count)
    elif count > limit:
        shown = f"{count}" if count.bit_length() <= 256 else f"at least 2^{count.bit_length() - 1}"
    else:
        return
    raise EnumerationBudgetExceeded(f"{shown} {what} exceed budget {limit}; raise {ENV_VAR} to force")
