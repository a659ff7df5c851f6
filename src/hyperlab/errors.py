"""Exception types shared across the package, and the budget check that raises ResourceLimit."""

import os

_OVERHEAD = 1 << 16  # bytes of frames, array headers and small objects per kernel call


class HyperlabError(Exception):
    """Base class for all package-specific errors."""


class NotAPrime(HyperlabError, ValueError):
    """Modulus failed the deterministic primality check or is even/too small."""


class DivisionByZero(HyperlabError, ZeroDivisionError):
    """Inversion of zero in F_p."""


class ModulusMismatch(HyperlabError, ValueError):
    """Two operands built over different prime moduli were combined."""


class InvalidArgument(HyperlabError, ValueError):
    """Argument outside the documented domain of an operation."""


class EmptyInput(HyperlabError, ValueError):
    """An operation that needs at least one element received none."""


class InvalidSpec(HyperlabError, ValueError):
    """Set-spec literal rejected; carries the character position when known."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ResourceLimit(HyperlabError, RuntimeError):
    """Enumeration would exceed the configured budget; message states the need."""

    def __init__(self, message: str, required: int | None = None, budget: int | None = None):
        self.required = required
        self.budget = budget
        if required is not None and budget is not None:
            message = f"{message}: requires {required}, budget {budget}"
        super().__init__(message)


def _reserve(what: str, nbytes: int) -> None:
    """Refuse a table whose estimated peak, nbytes plus a fixed overhead,
    exceeds HYPERLAB_BUDGET_MB MiB (default 1536); call before allocating."""
    raw = os.environ.get("HYPERLAB_BUDGET_MB", "1536")
    try:
        mb = int(raw)
    except ValueError:
        mb = 0
    if mb < 1:
        raise InvalidArgument(f"HYPERLAB_BUDGET_MB must be an integer >= 1, got {raw!r}")
    if nbytes + _OVERHEAD > mb << 20:
        raise ResourceLimit(
            f"{what} in bytes (HYPERLAB_BUDGET_MB={mb})", required=nbytes + _OVERHEAD, budget=mb << 20
        )
