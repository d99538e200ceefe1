"""Per-run kernel dispatch: counts and times every kernel call.

:class:`KernelDispatch` is the per-run façade stored on
:class:`~repro.core.state.SimState`.  Attribute access returns the
:mod:`~repro.kernels.numpy_impl` function wrapped to bump a per-kernel
counter (the ``kernel.dispatch.*`` metrics) and to accumulate
wall-clock under ``kernel.<name>`` in the run's
:class:`~repro.core.timing.HostTimers` (the ``kernel.*`` rows of
``--profile-host``).  Each function is looked up on the module at its
first use in a run, so the simulator always calls the module's current
binding.
"""

from __future__ import annotations

import time

from . import numpy_impl

__all__ = ["KERNEL_NAMES", "KernelDispatch"]

#: every kernel, in docs order
KERNEL_NAMES = tuple(numpy_impl.__all__)


def _rebuild_dispatch(counters: dict) -> "KernelDispatch":
    """Unpickle support: the counters survive, the timer binding does not
    (timers travel separately on the state)."""
    d = KernelDispatch()
    d.counters.update(counters)
    return d


class KernelDispatch:
    """Per-run kernel façade: ``state.kernels.fm_scan(...)`` etc.

    The first access to a kernel name builds (and caches on the
    instance) a wrapper that counts the call, times it on the bound
    timers when there are any, then calls the ``numpy_impl`` function.
    """

    def __init__(self, timers=None) -> None:
        self.counters: dict[str, int] = {}
        self.timers = timers

    def bind_timers(self, timers) -> None:
        """(Re)bind host timers; drops wrappers built with the old ones."""
        self.timers = timers
        for name in KERNEL_NAMES:
            self.__dict__.pop(name, None)

    def __getattr__(self, name: str):
        if name not in KERNEL_NAMES:
            raise AttributeError(name)
        fn = getattr(numpy_impl, name)
        counters, timers = self.counters, self.timers
        timer_key = f"kernel.{name}"

        def wrapper(*args):
            counters[name] = counters.get(name, 0) + 1
            if timers is None:
                return fn(*args)
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                timers.add(timer_key, time.perf_counter() - t0)

        self.__dict__[name] = wrapper  # bypasses __getattr__ next time
        return wrapper

    def __reduce__(self):
        return (_rebuild_dispatch, (dict(self.counters),))
