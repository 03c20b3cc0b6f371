"""Outside-in layer tracer for leafatlas.

A layer is one module of the package.  The tracer wraps the public
functions of each layer (and the constructors of the linear-algebra
classes) and rebinds every wrapper in every ``leafatlas`` module namespace
that holds the original object.  Calls made inside a module, and calls
made through ``from .x import y`` bindings, therefore pass through the
wrapper as well.  Nothing in the package's source is changed, and
``uninstall`` puts every original object back.

Each wrapped call is a span.  Spans are aggregated as they close rather
than stored: per function the call count, the inclusive time (outermost
activation only, so recursion is not counted twice) and the self time
(duration minus the time covered by child spans).  The self times of all
spans add up exactly, in integer nanoseconds, to the time covered by the
root spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("rootsys", "weyl", "bdtriple", "decomp", "leafclass", "typea", "linalg", "cli")

# Helpers called hundreds of thousands of times per pass.  Wrapping them
# would make the tracing overhead larger than the effects being measured;
# their time is counted as self time of the calling function.
HOT = {
    "linalg": {
        "frac", "vec", "mat", "shape", "matvec", "matmul", "transpose",
        "identity", "msub", "madd", "mscale", "dot", "zero_matrix",
        "is_zero_matrix",
    },
    "rootsys": {"form_pairing", "dot_form"},
    "weyl": {"apply_matrix", "apply_weyl", "element_length"},
    "typea": {"unit_matrix", "coroot_matrix"},
}

# Classes whose construction is real work (row reduction, Hermite form).
CONSTRUCTORS = {"linalg": ("Subspace", "Lattice")}

# Functions whose returned sequence length is recorded, keyed by the caller.
ITEM_COUNTED = {"weyl.enumerate_weyl", "weyl.minimal_coset_reps"}


class Tracer:
    """Install with ``install(package)``; read ``stats`` after ``uninstall``."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, incl_ns, self_ns]
        self.items: dict[tuple[str, str | None], int] = {}
        self.root_ns = 0
        self._child = []  # child-time accumulator per open span
        self._names = []  # names of open spans
        self._active: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0, 0])
        self._active[name] = 0
        child, names, active = self._child, self._names, self._active
        count_items = name in ITEM_COUNTED
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = names[-1] if names else None
            child.append(0)
            names.append(name)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                inner = child.pop()
                names.pop()
                active[name] -= 1
                stats[0] += 1
                stats[2] += dt - inner
                if not active[name]:
                    stats[1] += dt
                if child:
                    child[-1] += dt
                else:
                    self.root_ns += dt
            if count_items:
                key = (name, parent)
                self.items[key] = self.items.get(key, 0) + len(result)
            return result

        return wrapper

    def install(self, package) -> None:
        prefix = package.__name__
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == prefix or n.startswith(prefix + "."))
        ]
        wrapped = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"{prefix}.{layer}"]
            skip = HOT.get(layer, set())
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in skip
                ):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
            for cls_name in CONSTRUCTORS.get(layer, ()):
                cls = getattr(mod, cls_name)
                init = cls.__dict__["__init__"]
                self._restore.append((cls, "__init__", init))
                setattr(cls, "__init__", self._wrap(f"{layer}.{cls_name}", init))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def layer_self_ns(self) -> dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for name, (_, _, self_ns) in self.stats.items():
            out[name.split(".", 1)[0]] += self_ns
        return out

    def coset_yield(self) -> float:
        """Representatives returned per Weyl element enumerated inside
        ``minimal_coset_reps``.  When nothing is enumerated there, W^J is
        built without scanning W and the yield is 1.0, the best value: the
        tracer cannot see inside such a construction, so it counts every
        returned representative as the only element scanned."""
        reps = sum(n for (name, _), n in self.items.items() if name == "weyl.minimal_coset_reps")
        scanned = self.items.get(("weyl.enumerate_weyl", "weyl.minimal_coset_reps"), 0)
        return reps / scanned if scanned else 1.0
