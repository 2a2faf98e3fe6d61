"""Temporal collections: a calculus of time-sliced sets.

Worlds hold entities with life spans, time-indexed facts, and exact
measures. Collections over them are either de dicto (re-realized at
every time) or de re (membership fixed at an anchor). A rule engine
decides which interpretation a plural statement takes and evaluates
every licensed reading; a small DSL and CLI make worlds and queries
scriptable.

Each public name is declared once, in the `__all__` of the module that
defines it; the package re-exports those lists, and its own `__all__`
is their concatenation.
"""

from __future__ import annotations

from . import algebra, core, dsl, errors, model, readings
from .algebra import *  # noqa: F403
from .core import *  # noqa: F403
from .dsl import *  # noqa: F403
from .errors import *  # noqa: F403
from .model import *  # noqa: F403
from .readings import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += model.__all__
__all__ += core.__all__
__all__ += algebra.__all__
__all__ += readings.__all__
__all__ += dsl.__all__
__all__ += errors.__all__
