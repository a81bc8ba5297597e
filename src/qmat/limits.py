"""Global term-count guard for potentially explosive products."""

import os
from contextlib import contextmanager

from .errors import ResourceLimitError

_DEFAULT = 200_000


def _positive(value: int) -> int:
    """The one rule for a term limit, from --max-terms or QMAT_MAX_TERMS."""
    if value < 1:
        raise ValueError("max terms must be positive")
    return value


def _from_env() -> tuple[int, str | None]:
    """The limit set by QMAT_MAX_TERMS and the reason it is invalid, if it
    is; an invalid value leaves the default in force."""
    text = os.environ.get("QMAT_MAX_TERMS")
    if text is None:
        return _DEFAULT, None
    try:
        return _positive(int(text)), None
    except ValueError:
        return _DEFAULT, f"expected a positive integer, got {text!r}"


_max_terms, ENV_ERROR = _from_env()


def get_max_terms() -> int:
    return _max_terms


def set_max_terms(value: int) -> None:
    global _max_terms
    _max_terms = _positive(value)


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
