"""Left-to-right summation with the same result on every Python.

Python 3.12 changed builtin ``sum()`` of floats from a plain
left-to-right accumulation to compensated (Neumaier) summation
(CPython gh-100425). The compensated total is usually closer to the
exact sum, but it is a *different* double, and the fleet model's
digests pin every bit: a study run under 3.12 would not reproduce the
result it gives under 3.9-3.11.

:func:`left_sum` is the accumulation those earlier versions perform —
``0 + v0 + v1 + ...`` evaluated strictly left to right with Python
``+`` — so it returns exactly what ``sum()`` returned there, on every
interpreter. Use it wherever a float sum feeds a study result; integer
sums are exact either way and can keep ``sum()``.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable


def left_sum(values: Iterable):
    """``sum(values)`` as Python 3.11 computes it: left to right, no
    compensation."""
    return reduce(add, values, 0)
