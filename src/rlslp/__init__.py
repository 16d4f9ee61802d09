"""Run-length grammar text index with LCE and internal pattern matching queries.

``build`` and ``level_string`` load ``rlslp.builder`` on first use, so a
program that only loads an index and queries it never imports the builder.
"""

from .extension import lce, rev_lce
from .grammar import Grammar
from .ipm import Progression, ipm_query
from .navigator import Navigator
from .popped import pseq

__all__ = [
    "Grammar",
    "Navigator",
    "Progression",
    "build",
    "ipm_query",
    "lce",
    "level_string",
    "pseq",
    "rev_lce",
]


def __getattr__(name: str) -> object:
    if name in ("build", "level_string"):
        from . import builder
        return getattr(builder, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
