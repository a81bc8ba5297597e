"""Global term-count guard for potentially explosive products."""

import os
from contextlib import contextmanager

from .errors import ResourceLimitError

_DEFAULT = 200_000

_max_terms = int(os.environ.get("QMAT_MAX_TERMS", _DEFAULT))


def get_max_terms() -> int:
    return _max_terms


def set_max_terms(value: int) -> None:
    global _max_terms
    if value < 1:
        raise ValueError("max terms must be positive")
    _max_terms = value


@contextmanager
def restored_max_terms():
    """Restore the current term limit when the block exits, also on error."""
    global _max_terms
    saved = _max_terms
    try:
        yield
    finally:
        _max_terms = saved


def check_terms(count: int, what: str = "product") -> None:
    if count > _max_terms:
        raise ResourceLimitError(
            f"{what} exceeded the term limit ({count} > {_max_terms}); "
            "raise it with --max-terms or QMAT_MAX_TERMS"
        )
