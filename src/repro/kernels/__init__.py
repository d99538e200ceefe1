"""The simulator's hot loops.

:mod:`~repro.kernels.numpy_impl` holds the kernels: root resolution,
union-find, the Finding Module scan, the RAPE mirror test, the
Compressing Module commit and the LRU replay.  The simulator calls the
module's functions by attribute, each inside a ``kernel.<name>``
:meth:`~repro.core.timing.HostTimers.section` that counts and times it.

See docs/PERFORMANCE.md "Kernels".
"""

from __future__ import annotations

from . import numpy_impl

__all__ = ["KERNEL_NAMES"]

#: every kernel, in docs order
KERNEL_NAMES = tuple(numpy_impl.__all__)
