"""Per-layer tracing from outside the library.

`Tracer.install()` replaces, in every heckehiggs module that binds them, the
public module-level functions of the traced modules with wrappers that
record a span (name, start, end, parent) per call.  The arithmetic methods of
the polynomial and number-field classes run millions of times, so their
wrappers only count calls and add up self time.  A span's self time is its
duration minus the time its traced children took.  `uninstall()` puts every
original back; `restored()` checks that it did.  No library file changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "heckehiggs"
LAYERS = ("poly", "factor", "numfield", "linalg", "projline", "hecke", "higgs",
          "spectral", "serialize", "cli")

# Private functions that carry a per-layer metric: the factor search and the
# candidates it interpolates.
_PRIVATE_SPANS = {"factor": ("_search_integer_factor",)}
_PRIVATE_COUNTERS = {"factor": ("_interp_candidate",)}

# Classes whose methods get counters, by layer.
_COUNTED_CLASSES = {"poly": ("UniPoly", "BiPoly", "RationalFunction"),
                    "numfield": ("NumberFieldElement",)}
_ARITHMETIC = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__neg__", "__truediv__", "__rtruediv__", "__pow__", "__divmod__",
               "__floordiv__", "__mod__"}

# Calls whose distinct arguments are counted per op.
KEYED = {"spectral.is_integral", "spectral.fiber_points", "linalg.char_poly"}


def _key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        key = repr(key)
    return key


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.max_s = defaultdict(float)
        self.distinct = Counter()
        self.kinds = Counter()  # certificate kinds of irreducible_over_function_field
        self.found = 0  # factors returned by the integer factor search
        self.spans = []  # (op, name, start, end, parent span index or -1)
        self.ops = 0
        self._op = -1
        self._seen = defaultdict(set)
        self._stack = []  # [child seconds, enclosing span index] per active call
        self._patches = []  # (namespace owner, attribute, original)

    # -- per-op bookkeeping -------------------------------------------------

    def start_op(self, index):
        self._fold_seen()
        self._op = index
        self.ops += 1

    def finish(self):
        self._fold_seen()

    def _fold_seen(self):
        for name, seen in self._seen.items():
            self.distinct[name] += len(seen)
        self._seen.clear()

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name, fn, span):
        stack, clock = self._stack, time.perf_counter
        spans, seen = self.spans, self._seen
        keyed = name in KEYED
        on_result = {
            "factor.irreducible_over_function_field": self._record_kind,
            "factor._search_integer_factor": self._record_found,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keyed:
                seen[name].add(_key(args, kwargs))
            parent = stack[-1][1] if stack else -1
            # a counted method passes its enclosing span on to its callees
            frame = [0.0, len(spans) if span else parent]
            if span:
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[0]
                if elapsed > self.max_s[name]:
                    self.max_s[name] = elapsed
                if stack:
                    stack[-1][0] += elapsed
                if span:
                    spans[frame[1]] = (self._op, name, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _record_kind(self, result):
        self.kinds[result[1].get("kind")] += 1

    def _record_found(self, result):
        self.found += result is not None

    # -- install / uninstall --------------------------------------------------

    def _modules(self):
        return {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}

    def install(self):
        modules = self._modules()
        namespaces = [m for n, m in sys.modules.items()
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if not attr.startswith("_") or attr in _PRIVATE_SPANS.get(layer, ()):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj, True))
                elif attr in _PRIVATE_COUNTERS.get(layer, ()):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj, False))
        # a function imported by name into another module is bound there too
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patch(namespace, attr, wrappers[id(obj)][1])
        for layer, classes in _COUNTED_CLASSES.items():
            for cls_name in classes:
                cls = getattr(modules[layer], cls_name)
                for attr, obj in list(vars(cls).items()):
                    public = not attr.startswith("_") or attr in _ARITHMETIC
                    if not public:
                        continue
                    name = f"{layer}.{cls_name}.{attr}"
                    if isinstance(obj, classmethod):
                        self._patch(cls, attr, classmethod(self._wrap(name, obj.__func__, False)))
                    elif inspect.isfunction(obj):
                        self._patch(cls, attr, self._wrap(name, obj, False))

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self):
        """True when every patched attribute holds its original again."""
        return all(vars(owner)[attr] is original for owner, attr, original in self._patches)

    @property
    def patched(self):
        return len(self._patches)

    # -- aggregates ------------------------------------------------------------

    def layer_self_s(self, layer):
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def child_calls(self, parent, child):
        """Calls of `child` whose direct traced parent is `parent`."""
        names = {i: s[1] for i, s in enumerate(self.spans) if s is not None}
        return sum(1 for s in self.spans
                   if s is not None and s[1] == child and names.get(s[4]) == parent)
