"""The one place that decides when numpy loads: the first read of each
attribute of ``np`` imports numpy and caches that attribute on ``np``.
Dunder reads raise ``AttributeError`` without importing it, so code that
inspects module attributes leaves numpy unloaded.  Type checkers see numpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING


class _LazyNumpy:
    def __getattr__(self, name: str):
        if name.startswith("__"):
            raise AttributeError(name)
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


if TYPE_CHECKING:
    import numpy as np
else:
    np = _LazyNumpy()
