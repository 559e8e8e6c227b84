"""In-memory span tracer that wraps nsatop's public functions from outside.

A span is opened around every call of a wrapped function: it records the span
name, start and end (perf_counter nanoseconds), the index of the enclosing
span and the operation id.  Spans are kept in a flat integer array and written
out by `Tracer.write` when the run ends.  Per-name call counts, inclusive time
and self time (duration minus the time covered by child spans) are summed as
spans close, so metrics never need the raw spans.

A call nested inside a span of the same name (recursion, or `__gt__` calling
`__lt__`) is folded into the outer span: it records nothing of its own.

Layers are the seven nsatop modules.  Wrapped are every public module-level
function of each module and the methods listed in METHODS.  `install` then
rebinds every site that holds one of the original functions (module globals,
class attributes such as the `__radd__ = __add__` aliases, and module-level
dicts and lists such as `fintop.PROPERTY_CHECKS`), and `coverage_guard` asks
the garbage collector whether anything else still refers to an original.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import inspect
import time
import types
from array import array
from math import lcm

LAYERS = ("poly", "hyperreal", "germs", "bqf", "fintop", "hull", "cli")

# Span names for module-level functions whose name differs from
# "<module>.<function>".
RENAMED = {
    "fintop.enumerate_topologies": "fintop.enumerate",
    "hyperreal.parse_hyperreal": "hyperreal.parse",
    "hyperreal.normalize": "hyperreal.new",
    "hyperreal.compare": "hyperreal.order",
}

# Hot helpers whose callers are always in the same module; wrapping them would
# only add spans without moving time between layers.
UNWRAPPED = {"bqf.make_pair", "bqf.entity_key", "bqf.type_level"}

# Methods wrapped per class, with their span names.  Methods with the same
# span name fold into one another (`__floordiv__` calls `divmod`).
_CLOSURE_INTERIOR = "fintop.closure_interior"
METHODS = {
    "poly.Poly": {
        "__add__": "poly.add",
        "__neg__": "poly.neg",
        "__sub__": "poly.sub",
        "__mul__": "poly.mul",
        "__pow__": "poly.pow",
        "divmod": "poly.divmod",
        "__floordiv__": "poly.divmod",
        "__mod__": "poly.divmod",
        "gcd": "poly.gcd",
        "nth_root": "poly.nth_root",
        "scale": "poly.scale",
        "monic": "poly.monic",
        "eval": "poly.eval",
        "shift_down": "poly.shift_down",
        "stretch": "poly.stretch",
        "decimate": "poly.decimate",
        "exponent_gcd": "poly.exponent_gcd",
        "reversed_to": "poly.reversed_to",
        "to_str": "poly.to_str",
    },
    "hyperreal.Hyperreal": {
        "__init__": "hyperreal.new",
        "__add__": "hyperreal.add",
        "__neg__": "hyperreal.neg",
        "__sub__": "hyperreal.sub",
        "__rsub__": "hyperreal.sub",
        "__mul__": "hyperreal.mul",
        "inverse": "hyperreal.inv",
        "__truediv__": "hyperreal.div",
        "__rtruediv__": "hyperreal.div",
        "__pow__": "hyperreal.pow",
        "__lt__": "hyperreal.order",
        "__le__": "hyperreal.order",
        "__gt__": "hyperreal.order",
        "__ge__": "hyperreal.order",
        "__eq__": "hyperreal.eq",
        "__str__": "hyperreal.to_str",
        "order": "hyperreal.leading_order",
        "classify": "hyperreal.classify",
        "st": "hyperreal.st",
        "decompose": "hyperreal.decompose",
    },
    "germs.RationalGerm": {"__init__": "germs.rational_new"},
    "germs.PeriodicGerm": {"__init__": "germs.periodic_new"},
    "fintop.FinSpace": {
        "closure_robinson_mask": _CLOSURE_INTERIOR,
        "interior_robinson_mask": _CLOSURE_INTERIOR,
        "closure_classical_mask": _CLOSURE_INTERIOR,
        "interior_classical_mask": _CLOSURE_INTERIOR,
        "closure_robinson": _CLOSURE_INTERIOR,
        "interior_robinson": _CLOSURE_INTERIOR,
        "closure_classical": _CLOSURE_INTERIOR,
        "interior_classical": _CLOSURE_INTERIOR,
        "closed_sets": "fintop.closed_sets",
        "monad_set_mask": "fintop.monad_set_mask",
        "to_json": "fintop.to_json",
        "describe": "fintop.describe",
    },
    "fintop.ZBlockPartition": {
        "mu_z_set": "fintop.mu_z_set",
        "zero_sets": "fintop.zero_sets",
        "indicator": "fintop.indicator",
    },
}

# The private fintop helper called once per relation the enumeration scans.
SCAN_HELPER = "_is_transitive"

DECIDERS = (
    "is_t0",
    "is_t1",
    "is_t2",
    "is_weakly_hausdorff",
    "is_regular",
    "is_normal",
    "is_functionally_separated",
    "is_completely_regular",
    "is_z_normal",
    "is_sober",
)


class CoverageError(RuntimeError):
    """A wrapped function is still reachable through an unwrapped binding."""


def _space_key(space):
    return (space.points, space.opens)


def _is_periodic_pair(args) -> bool:
    # ae_compare compares two periodic germs as periodic ones; a mixed pair
    # goes to the rational class unless its periodic side is not eventually
    # constant
    kinds = [type(g).__name__ == "PeriodicGerm" for g in args[:2]]
    return all(kinds) or any(k and len(g.period) > 1 for k, g in zip(kinds, args))


class Tracer:
    """Spans, per-name sums and counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.depth: list[int] = []
        self.spans = array("q")  # name id, start, end, parent index, op id
        self.stack: list[int] = []
        self.child_ns: list[int] = []
        self.op = 0
        self.counters: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self.installed: dict[int, object] = {}  # id(original) -> wrapper
        self.originals: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            for column in (self.calls, self.total_ns, self.self_ns, self.depth):
                column.append(0)
        return nid

    def active(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and self.depth[nid] > 0

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def note_max(self, key: str, value: int) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def note_distinct(self, key: str, item) -> None:
        self.distinct.setdefault(key, set()).add(item)

    # -- span bookkeeping --------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.spans) // 5
        self.spans.extend((nid, 0, 0, self.stack[-1] if self.stack else -1, self.op))
        self.depth[nid] = 1
        self.stack.append(idx)
        self.child_ns.append(0)
        return idx

    def _close(self, nid: int, idx: int, t0: int, t1: int) -> None:
        self.depth[nid] = 0
        self.stack.pop()
        covered = self.child_ns.pop()
        d = t1 - t0
        base = 5 * idx
        self.spans[base + 1] = t0
        self.spans[base + 2] = t1
        self.calls[nid] += 1
        self.total_ns[nid] += d
        self.self_ns[nid] += d - covered
        if self.child_ns:
            self.child_ns[-1] += d

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one operation."""
        nid = self.name_id(name)
        idx = self._open(nid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(nid, idx, t0, time.perf_counter_ns())

    # -- wrappers ------------------------------------------------------------------

    def wrap(self, name, fn, hook=None, pick=None):
        """Wrap fn in spans named `name`, or named by `pick(args)` per call."""
        tracer = self
        clock = time.perf_counter_ns
        depth = self.depth
        fixed = None if pick else self.name_id(name)

        def wrapper(*args, **kwargs):
            nid = fixed if pick is None else tracer.name_id(pick(args))
            if depth[nid]:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(nid, idx, t0, clock())
                if hook is not None:
                    hook(tracer, args)

        return self._register(fn, wrapper)

    def wrap_generator(self, name, fn, hook=None):
        """Wrap a generator function: each resumption, up to exhaustion, is a span."""
        tracer = self
        clock = time.perf_counter_ns
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            yielded = 0
            while True:
                nested = tracer.depth[nid]
                if not nested:
                    idx = tracer._open(nid)
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    if hook is not None:
                        hook(tracer, args, yielded)
                    return
                finally:
                    if not nested:
                        tracer._close(nid, idx, t0, clock())
                yielded += 1
                yield item

        return self._register(fn, wrapper)

    def wrap_counter(self, key, fn):
        """Wrap fn so that each call only adds one to counter `key`; no span."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        return self._register(fn, wrapper)

    def _register(self, fn, wrapper):
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        self.installed[id(fn)] = wrapper
        self.originals.append(fn)
        return wrapper

    # -- results -----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Sums per span name and counters; distinct sets become their sizes."""
        spans = {
            name: [self.calls[i], self.total_ns[i], self.self_ns[i]]
            for i, name in enumerate(self.names)
            if self.calls[i]
        }
        counters = dict(self.counters)
        for key, items in self.distinct.items():
            counters[key] = counters.get(key, 0) + len(items)
        return {"spans": spans, "counters": counters}

    def write(self, path) -> int:
        """Write every span as a tab-separated line; returns the span count."""
        n = len(self.spans) // 5
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            s = self.spans
            names = self.names
            for i in range(n):
                b = 5 * i
                fh.write(f"{names[s[b]]}\t{s[b + 1]}\t{s[b + 2]}\t{s[b + 3]}\t{s[b + 4]}\n")
        return n


def merge(a: dict, b: dict) -> dict:
    """Sum two snapshots (each process traces its own operations)."""
    spans = {k: list(v) for k, v in a["spans"].items()}
    for name, row in b["spans"].items():
        acc = spans.setdefault(name, [0, 0, 0])
        for i, v in enumerate(row):
            acc[i] += v
    counters = dict(a["counters"])
    for key, v in b["counters"].items():
        if key.endswith(".max"):
            counters[key] = max(counters.get(key, 0), v)
        else:
            counters[key] = counters.get(key, 0) + v
    return {"spans": spans, "counters": counters}


# -- hooks: sizes and counts taken from call arguments -------------------------------


def _poly_mul(t: Tracer, args):
    a, b = args[0].coeffs, args[1].coeffs
    if a and b:
        t.note_max("poly.mul.degree.max", len(a) + len(b) - 2)


def _hyperreal_new(t: Tracer, args):
    if t.active("hyperreal.order"):
        t.count("hyperreal.new.in_order")


def _poly_gcd(t: Tracer, args):
    if t.active("hyperreal.new"):
        t.count("poly.gcd.in_new")


def _ae_compare(t: Tracer, args):
    if _is_periodic_pair(args):
        a, b = args[0], args[1]
        pre = max(len(getattr(a, "preperiod", ())), len(getattr(b, "preperiod", ())))
        la, lb = len(getattr(a, "period", (0,))), len(getattr(b, "period", (0,)))
        t.count("germs.ae_compare_periodic.window", pre + lcm(la, lb))


def _decider(name):
    def hook(t: Tracer, args):
        key = (t.op, _space_key(args[0]))
        t.note_distinct("fintop.decider.spaces", key)
        t.note_distinct("fintop.decider.pairs", key + (name,))

    return hook


def _build_hull(t: Tracer, args):
    t.note_distinct("hull.build_hull.spaces", (t.op, _space_key(args[0])))


def _enumerate(t: Tracer, args, yielded):
    t.count("fintop.enumerate.yielded", yielded)


HOOKS = {
    "poly.mul": _poly_mul,
    "poly.gcd": _poly_gcd,
    "hyperreal.new": _hyperreal_new,
    "germs.ae_compare": _ae_compare,
    "hull.build_hull": _build_hull,
    "fintop.enumerate": _enumerate,
}
HOOKS.update({f"fintop.{d}": _decider(d) for d in DECIDERS})


def _ae_compare_name(args) -> str:
    return "germs.ae_compare_periodic" if _is_periodic_pair(args) else "germs.ae_compare_rational"


# -- installation -----------------------------------------------------------------


def _modules():
    return {name: importlib.import_module(f"nsatop.{name}") for name in LAYERS}


def install(tracer: Tracer) -> None:
    """Wrap every public function of the seven layers and rebind all sites."""
    mods = _modules()
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__ or id(obj) in tracer.installed:
                continue
            full = f"{layer}.{attr}"
            if full in UNWRAPPED:
                continue
            name = RENAMED.get(full, full)
            if inspect.isgeneratorfunction(obj):
                tracer.wrap_generator(name, obj, HOOKS.get(name))
            elif full == "germs.ae_compare":
                tracer.wrap(name, obj, HOOKS[full], pick=_ae_compare_name)
            else:
                tracer.wrap(name, obj, HOOKS.get(name))
    for qual, methods in METHODS.items():
        layer, cls_name = qual.split(".")
        cls = getattr(mods[layer], cls_name)
        for attr, name in methods.items():
            fn = cls.__dict__[attr]
            if id(fn) in tracer.installed:
                continue
            if inspect.isgeneratorfunction(fn):
                tracer.wrap_generator(name, fn, HOOKS.get(name))
            else:
                tracer.wrap(name, fn, HOOKS.get(name))
    # enumerate_topologies tests every candidate relation with this helper, so
    # its calls are the relations the enumeration actually scans
    scan = getattr(mods["fintop"], SCAN_HELPER, None)
    if scan is not None:
        tracer.wrap_counter("fintop.enumerate.scanned", scan)
    _rebind(tracer, mods)
    coverage_guard(tracer)


def _rebind(tracer: Tracer, mods: dict) -> None:
    """Point every module global, class attribute and module-level container
    entry that holds an original function at its wrapper."""
    swap = tracer.installed
    pkg = importlib.import_module("nsatop")
    for mod in list(mods.values()) + [pkg]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in swap and inspect.isfunction(obj):
                setattr(mod, attr, swap[id(obj)])
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                for cattr, cobj in list(vars(obj).items()):
                    if inspect.isfunction(cobj) and id(cobj) in swap:
                        setattr(obj, cattr, swap[id(cobj)])
            elif isinstance(obj, dict):
                for k, v in list(obj.items()):
                    if inspect.isfunction(v) and id(v) in swap:
                        obj[k] = swap[id(v)]
            elif isinstance(obj, list):
                for i, v in enumerate(obj):
                    if inspect.isfunction(v) and id(v) in swap:
                        obj[i] = swap[id(v)]


def coverage_guard(tracer: Tracer) -> None:
    """Fail if any object other than the tracer's own still refers to an
    original function, i.e. some binding site was left unwrapped."""
    originals = tracer.originals
    own = {id(originals), id(tracer.installed)}
    for w in tracer.installed.values():
        for cell in w.__closure__ or ():
            own.add(id(cell))
    original_ids = {id(fn) for fn in originals}
    gc.collect()
    leaks = []
    for ref in gc.get_referrers(*originals):
        if id(ref) in own or isinstance(ref, types.FrameType):
            continue
        if isinstance(ref, tuple) and all(id(x) in original_ids for x in ref):
            continue  # the argument tuple of get_referrers itself
        leaks.append(_describe(ref, original_ids))
    if leaks:
        raise CoverageError("unwrapped binding sites: " + "; ".join(leaks))


def _describe(ref, original_ids) -> str:
    if isinstance(ref, dict):
        keys = [k for k, v in ref.items() if id(v) in original_ids]
        return f"dict entries {keys}"
    if isinstance(ref, (list, tuple)):
        return f"{type(ref).__name__} of length {len(ref)}"
    return type(ref).__name__
