"""Pickling for hand-slotted frozen dataclasses.

Python 3.9 has no ``dataclass(slots=True)``, so the frozen config classes
that enter scenario fingerprints declare ``__slots__`` by hand.  Their
instances do not survive a pickle round trip by default: unpickling restores
slot state through ``setattr``, which the frozen ``__setattr__`` refuses, so
a scenario carrying one could not be shipped to a pool worker.  Such a class
sets ``__reduce__ = reduce_frozen`` to rebuild instances from their field
values through ``__init__``, which also re-runs ``__post_init__`` validation.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any


def reduce_frozen(self: Any) -> tuple[type, tuple[Any, ...]]:
    """``__reduce__`` for a frozen slotted dataclass: call the class again."""
    return type(self), tuple(getattr(self, field.name) for field in fields(self))
