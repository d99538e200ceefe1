"""The simulator's hot loops, behind one per-run dispatch.

* :mod:`~repro.kernels.numpy_impl` — the kernels: root resolution,
  union-find, the Finding Module scan, the RAPE mirror test, the
  Compressing Module commit and the LRU replay;
* :mod:`~repro.kernels.dispatch` — the per-run :class:`KernelDispatch`
  that counts and times every call (``kernel.*`` namespaces).

See docs/PERFORMANCE.md "Kernels".
"""

from __future__ import annotations

from .dispatch import KERNEL_NAMES, KernelDispatch

__all__ = ["KERNEL_NAMES", "KernelDispatch"]
