"""In-memory span tracing of the leggedmpc layers, applied from outside.

``Tracer`` wraps every public function and every public method of the
classes defined in each layer module and times one span per call.  Each
span is folded into per-name totals in memory as it closes: call count,
inclusive time and self time (inclusive time minus the time of the traced
calls nested inside it), plus exceptions by type and a few counters read
from return values.  Nothing is written until the benchmark ends.

Modules import functions by name (``from .kinematics import
forward_kinematics``), so wrapping the defining module alone would miss
most calls: ``install`` rebinds every module-level name in the package that
refers to a wrapped function, and ``uninstall`` restores the originals.
Modules outside ``LAYERS`` (``se2``, ``model``, ``schedule``, ``costs``)
are not traced; their time counts toward the calling layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "leggedmpc"
LAYERS = ("kinematics", "dynamics", "contact", "centroidal", "problem",
          "boxfddp", "mpc", "controllers")


def _node_kind(name, args):
    """Split running-node derivatives into stance and flight spans."""
    return name + (".stance" if args[0].contacts.frames else ".flight")


def _count_boxqp(counters, args, result):
    counters["boxqp.iters"] += result.iterations
    counters["boxqp.clamped"] += int(result.clamped.sum())


def _count_accepted(counters, args, result):
    # solve_one_iteration returns False exactly when it accepted a step
    if result is False:
        counters["accepted_steps"] += 1


SPLITS = {"problem.RunningNode.calc_diff": _node_kind}
OBSERVERS = {"boxfddp.boxqp": _count_boxqp,
             "boxfddp.BoxFddp.solve_one_iteration": _count_accepted}


class SpanStat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span aggregates for one traced stretch of a workload."""

    def __init__(self):
        self.stats: dict[str, SpanStat] = defaultdict(SpanStat)
        self.errors: Counter = Counter()     # (span name, exception type)
        self.counters: Counter = Counter()
        self._stack: list[float] = []        # child time of each open span
        self._undo: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        stats, stack, errors = self.stats, self._stack, self.errors
        counters = self.counters
        split = SPLITS.get(name)
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            key = split(name, args) if split else name
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors[key, type(exc).__name__] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                stat = stats[key]
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if observe:
                observe(counters, args, result)
            return result

        return span

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            self._set(obj, meth, self._wrap(
                                f"{layer}.{obj.__name__}.{meth}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(module, attr, wrappers[obj])
        return self

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- queries ------------------------------------------------------------

    def calls(self, name) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def total(self, name) -> float:
        return self.stats[name].total if name in self.stats else 0.0

    def raised(self, name, exc_type) -> int:
        return self.errors.get((name, exc_type), 0)

    def layer_self(self, layer) -> float:
        """Time spent in the layer's own code, outside other traced calls."""
        return sum(s.self_time for n, s in self.stats.items()
                   if n.split(".", 1)[0] == layer)

    def layer_table(self) -> dict:
        """Self time (s) and call count per layer."""
        table = {}
        for layer in LAYERS:
            table[layer] = {
                "self_s": self.layer_self(layer),
                "calls": sum(s.calls for n, s in self.stats.items()
                             if n.split(".", 1)[0] == layer),
            }
        return table
