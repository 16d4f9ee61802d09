"""Run-length grammar text index with LCE and internal pattern matching queries."""

from .builder import build, level_string
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
