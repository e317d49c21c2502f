"""Per-layer wall-time and call accounting for the traced benchmark run.

The tracer patches the ``repro`` packages from the outside, without
touching their source:

* every function and method defined in a ``repro`` module (private
  ones included, dunders except ``__init__``/``__post_init__``/
  ``__call__`` excluded) and every property getter is replaced by a
  wrapper that counts calls and measures inclusive time;
* ``EventLoop.call_at`` / ``EventLoop.schedule_at`` and the
  ``PeriodicTimer`` constructor wrap each scheduled callback in a
  dispatch span attributed to the module that owns the callback, so
  loop-dispatched closures and private callbacks land in their layer
  and not in the event loop's.

Enums, exceptions and generator functions are left alone, and so are
``repro.lint``, ``repro.cli`` and ``repro.analysis``, which no workload
runs.

Self time of a span is its inclusive time minus the inclusive time of
the wrapped spans nested inside it, less the wrapper's own cost as
calibrated at install time (see :meth:`LayerTracer._calibrate`). Self
times are summed per module
and rolled up into the layers named after the ``repro`` packages. Time
inside ``repro`` packages that are not layers (``util``, ``flight``,
``metrics``, ``obs``, ``experiments``) and time outside any span is
reported as ``other``, so a coverage gap shows up there instead of
inflating a layer.

Wrapping never changes arguments, return values or call order, so a
traced run is bit-identical to an untraced one; the benchmark checks
that on every traced run.
"""

from __future__ import annotations

import enum
import functools
import gc
import importlib
import inspect
import pkgutil
import sys
import time
from collections import defaultdict
from types import FunctionType
from typing import Any, Callable

#: Layers of the benchmark, named after the ``repro`` packages.
LAYERS = ("net", "rtp", "video", "cc", "core", "cellular", "runner")

#: Modules reported on their own inside their layer.
SUBLAYERS = (
    "net.simulator",
    "net.links",
    "rtp.jitter_buffer",
    "core.sender",
    "core.receiver",
    "runner.batch",
    "runner.cache",
)

#: Per-packet allocations counted by ``alloc.objs_per_pkt``.
ALLOC_CLASSES = (
    ("repro.rtp.packets", "RtpPacket"),
    ("repro.net.packet", "Datagram"),
    ("repro.cc.base", "SentPacket"),
    ("repro.net.simulator", "_Event"),
    ("repro.net.simulator", "EventHandle"),
    ("repro.core.receiver", "PacketLogEntry"),
)

#: Packages never executed by a workload; left unpatched.
_SKIP_PACKAGES = ("repro.lint", "repro.cli", "repro.analysis")

_WRAPPED_DUNDERS = ("__init__", "__post_init__", "__call__")


def import_all_repro() -> None:
    """Import every ``repro`` module, so lazily imported ones get patched."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.startswith(_SKIP_PACKAGES):
            importlib.import_module(info.name)


def module_layer(module: str) -> str:
    """Reporting key of a ``repro`` module: its sub-layer, layer or ``other``."""
    if not module.startswith("repro."):
        return "other"
    dotted = module[len("repro."):]
    for sub in SUBLAYERS:
        if dotted == sub or dotted.startswith(sub + "."):
            return sub
    top = dotted.split(".", 1)[0]
    return top if top in LAYERS else "other." + top


def _callback_module(callback: Any) -> str:
    while isinstance(callback, functools.partial):
        callback = callback.func
    module = getattr(callback, "__module__", None)
    return module if isinstance(module, str) else "?"


class LayerTracer:
    """Patch the ``repro`` packages to account time and calls per module.

    Use as a context manager; on exit every patched attribute is
    restored. ``stats`` maps ``(module, qualname)`` to
    ``[calls, inclusive_s, self_s]``; ``events`` counts callbacks
    scheduled on event loops.
    """

    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.events = 0
        #: Root frame of the span stack; accumulates top-level span time.
        self._stack: list[float] = [0.0]
        self._patches: list[tuple[Any, str, Any]] = []
        self._inner = 0.0
        self._outer = 0.0

    # -- wrapping ---------------------------------------------------

    def _span(self, fn: Callable, stat: list) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        inner, outer = self._inner, self._outer

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner - stack.pop()
                stack[-1] += elapsed + outer

        return wrapper

    def _dispatch(self, callback: Callable) -> Callable:
        """Wrap a scheduled callback in a span owned by its module."""
        return self._span(callback, self.stats[(_callback_module(callback), "<dispatch>")])

    def _calibrate(self, calls: int = 20_000, rounds: int = 7) -> None:
        """Measure the wrapper's own cost per span, split at the span's clock reads.

        ``inner`` is the part a span's own timer sees (subtracted from its
        self time); ``outer`` is the part its parent sees (added to the
        child time the parent subtracts). Each is the minimum over rounds
        of a two-argument no-op called from inside a wrapped parent: a
        lower bound, since a busy machine only makes a round slower, so
        the correction never exceeds the wrappers' real cost.
        """
        def noop(a: Any, b: Any) -> None:
            pass

        def loop(fn: Callable) -> float:
            start = time.perf_counter()
            for _ in range(calls):
                fn(1, 2)
            return time.perf_counter() - start

        inners, outers = [], []
        for _ in range(rounds):
            stat = [0, 0.0, 0.0]
            wrapped = self._span(noop, stat)
            plain = self._span(loop, [0, 0.0, 0.0])(noop)
            total = self._span(loop, [0, 0.0, 0.0])(wrapped)
            inners.append(stat[1] / calls)
            outers.append(max((total - plain - stat[1]) / calls, 0.0))
        self._inner = min(inners)
        self._outer = min(outers)
        self._stack[:] = [0.0]

    @property
    def span_overhead_s(self) -> float:
        """Estimated wall time the wrappers themselves added."""
        spans = sum(count for count, _, _ in self.stats.values())
        return spans * (self._inner + self._outer)

    def _wrap(self, fn: Callable, key: tuple[str, str]) -> Callable:
        return functools.update_wrapper(self._span(fn, self.stats[key]), fn)

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_class(self, cls: type, module: str) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("__") and name not in _WRAPPED_DUNDERS:
                continue
            key = (module, f"{cls.__qualname__}.{name}")
            if isinstance(raw, staticmethod):
                self._set(cls, name, staticmethod(self._wrap(raw.__func__, key)))
            elif isinstance(raw, classmethod):
                self._set(cls, name, classmethod(self._wrap(raw.__func__, key)))
            elif isinstance(raw, property) and raw.fget is not None:
                fget = self._wrap(raw.fget, key)
                self._set(cls, name, property(fget, raw.fset, raw.fdel, raw.__doc__))
            elif isinstance(raw, FunctionType) and not inspect.isgeneratorfunction(raw):
                self._set(cls, name, self._wrap(raw, key))

    def _patch_scheduling(self) -> None:
        from repro.net import simulator

        tracer = self
        loop_cls = simulator.EventLoop
        call_at = loop_cls.__dict__["call_at"]
        schedule_at = loop_cls.__dict__["schedule_at"]
        timer_init = simulator.PeriodicTimer.__dict__["__init__"]

        def traced_call_at(loop, when, callback):
            tracer.events += 1
            return call_at(loop, when, tracer._dispatch(callback))

        def traced_schedule_at(loop, when, callback):
            tracer.events += 1
            return schedule_at(loop, when, tracer._dispatch(callback))

        def traced_timer_init(timer, loop, period, callback, **kwargs):
            timer_init(timer, loop, period, tracer._dispatch(callback), **kwargs)

        self._set(loop_cls, "call_at", traced_call_at)
        self._set(loop_cls, "schedule_at", traced_schedule_at)
        self._set(simulator.PeriodicTimer, "__init__", traced_timer_init)

    def install(self) -> None:
        """Calibrate, then patch every ``repro`` module (see the module doc)."""
        import_all_repro()
        self._calibrate()
        self._patch_scheduling()
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if (name == "repro" or name.startswith("repro.")) and not name.startswith(_SKIP_PACKAGES)
        ]
        originals: dict[int, Callable] = {}
        for module in modules:
            for name, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, type):
                    if not issubclass(value, (BaseException, enum.Enum)):
                        self._wrap_class(value, module.__name__)
                elif isinstance(value, FunctionType) and not inspect.isgeneratorfunction(value):
                    originals[id(value)] = self._wrap(value, (module.__name__, value.__qualname__))
        # Rebind module-level functions wherever they were imported.
        for module in modules:
            for name, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and isinstance(value, FunctionType):
                    self._set(module, name, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute (idempotent)."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # -- reporting --------------------------------------------------

    def self_by_key(self) -> dict[str, float]:
        """Self seconds per reporting key (sub-layer, layer or ``other.*``)."""
        totals: dict[str, float] = defaultdict(float)
        for (module, _), (_, _, self_s) in self.stats.items():
            totals[module_layer(module)] += self_s
        return dict(totals)

    def layer_self(self, wall_s: float) -> dict[str, float]:
        """Self seconds per layer plus the ``other`` residual of ``wall_s``.

        The residual excludes the wrappers' own estimated cost
        (:attr:`span_overhead_s`); everything else no layer accounts
        for, non-layer ``repro`` packages included, is ``other``.
        """
        by_key = self.self_by_key()
        layers = {layer: 0.0 for layer in LAYERS}
        for key, seconds in by_key.items():
            top = key.split(".", 1)[0]
            if top in layers:
                layers[top] += seconds
        layers["other"] = wall_s - self.span_overhead_s - sum(layers.values())
        return layers

    def key_self(self, key: str) -> float:
        """Self seconds of one reporting key (e.g. ``net.links``)."""
        return self.self_by_key().get(key, 0.0)

    def calls(self, module_prefix: str, qualname: str | None = None) -> int:
        """Calls into functions of modules under ``module_prefix``."""
        total = 0
        for (module, name), (count, _, _) in self.stats.items():
            if name == "<dispatch>":
                continue
            if module == module_prefix or module.startswith(module_prefix + "."):
                if qualname is None or name == qualname:
                    total += count
        return total

    def method_calls(self, method: str, module_prefix: str) -> int:
        """Calls of methods named ``method`` in modules under ``module_prefix``."""
        return sum(
            count
            for (module, name), (count, _, _) in self.stats.items()
            if module.startswith(module_prefix) and name.rsplit(".", 1)[-1] == method
        )

    def inclusive(self, module: str, qualname: str) -> float:
        """Inclusive seconds of one function."""
        stat = self.stats.get((module, qualname))
        return stat[1] if stat else 0.0

    def allocations(self) -> int:
        """Constructions of the :data:`ALLOC_CLASSES`."""
        return sum(
            self.calls(module, f"{cls}.__init__") for module, cls in ALLOC_CLASSES
        )


class GcMeter:
    """Wall time and count of garbage collections inside a ``with`` block."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._start = 0.0

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.collections += 1

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        gc.callbacks.remove(self._on_gc)
