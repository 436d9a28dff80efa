"""Per-module spans for the traced benchmark passes, recorded from outside.

:class:`Tracer` wraps every public function of the ``specker`` modules at
each ``specker.*`` namespace that binds it, so a call made through any
module (``from .orthogonal import orth_add`` in ``steps``, ``og.orth_add``
in ``pointwise``) opens a span, and nested calls become child spans.  A
function's self time is its span's duration minus the time its child spans
cover.  Nothing under ``src/`` is modified on disk; :meth:`Tracer.uninstall`
puts the original functions back.

Besides spans the tracer keeps a few work counters: ``BoolElem``
constructions, ``Algebra`` equality comparisons, and the inputs of the
useful-work ratios of ``step_add`` and ``orth_add``.  The ratio hooks run
with the span clock paused, so they cost no traced time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# the modules that get spans, by their short names
MODULES = (
    "cli",
    "terms",
    "orthogonal",
    "steps",
    "proximity",
    "morphisms",
    "pointwise",
    "boolalg",
)

# functions whose calls and self time are reported one by one
KEPT = {
    "steps": (
        "step_add", "step_sub", "step_neg", "step_mul", "step_mul_nonneg",
        "step_scale", "step_scale_pos", "step_meet", "step_join", "step_leq",
        "to_steps", "to_orth", "compatible_decreasing", "from_decomposition",
    ),
    "orthogonal": (
        "orth_add", "orth_mul", "orth_meet", "orth_join", "orth_scale",
        "orth_normalize",
    ),
    "terms": ("parse_term", "normalize_term"),
    "proximity": (
        "leq_proximity", "check_devries", "lift_check",
        "sample_proximity_axioms", "sample_related_pair", "restrict_lift",
    ),
    "morphisms": (
        "check_dv_morphism", "lift_morphism", "apply_prox_morphism",
        "star_compose_dv", "sample_morphism_axioms", "naturality_check",
    ),
    "pointwise": ("oracle_diff", "random_steps"),
    "cli": ("run",),
}


def _step_add_hook(counters, args, result) -> None:
    f, g = args[0], args[1]
    counters["step_add.candidates"] += len(
        {u + v for u in f.thresholds for v in g.thresholds}
    )
    counters["step_add.outputs"] += len(result.thresholds)


def _orth_add_hook(counters, args, result) -> None:
    f, g = args[0], args[1]
    counters["orth_add.refined"] += len(f.entries) * len(g.entries)
    counters["orth_add.classes"] += len(result.entries)


_HOOKS = {"steps.step_add": _step_add_hook, "orthogonal.orth_add": _orth_add_hook}


def _public_functions(module):
    """The module's ``__all__`` functions, or its public ones without it."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Profile:
    """Traced figures summed over operations, in-process or from children."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.wall_s = 0.0  # total duration of root spans
        self.bench_s = 0.0  # root-span time not covered by any module span

    def add(self, data: dict) -> None:
        """Add figures in the form ``to_json`` gives them."""
        for field in ("calls", "self_s", "counters"):
            totals = getattr(self, field)
            for key, value in data[field].items():
                totals[key] += value
        self.wall_s += data["wall_s"]
        self.bench_s += data["bench_s"]

    def to_json(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "wall_s": self.wall_s,
            "bench_s": self.bench_s,
        }

    def module_self_s(self) -> dict[str, float]:
        totals = {module: 0.0 for module in MODULES}
        for key, seconds in self.self_s.items():
            totals[key.split(".", 1)[0]] += seconds
        return totals


class Tracer:
    """Span recorder; one per traced pass (or per traced child process)."""

    def __init__(self) -> None:
        self.profile = Profile()
        self._stack: list[list[float]] = []
        self._paused = 0.0
        self._patches: list[tuple[object, str, object]] = []

    def _now(self) -> float:
        return perf_counter() - self._paused

    def _wrap(self, key: str, fn):
        stack = self._stack
        calls, self_s = self.profile.calls, self.profile.self_s
        hook = _HOOKS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = self._now()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self._now() - start
                stack.pop()
                calls[key] += 1
                self_s[key] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                paused_at = perf_counter()
                hook(self.profile.counters, args, result)
                self._paused += perf_counter() - paused_at
            return result

        return wrapper

    def root(self, fn):
        """Run ``fn()`` as a root span (one benchmark operation)."""
        frame = [0.0]
        self._stack.append(frame)
        start = self._now()
        try:
            return fn()
        finally:
            elapsed = self._now() - start
            self._stack.pop()
            self.profile.wall_s += elapsed
            self.profile.bench_s += elapsed - frame[0]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"specker.{short}")
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        namespaces = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "specker" or name.startswith("specker."))
        ]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((namespace, attr, value))
                    setattr(namespace, attr, hit[1])
        self._install_counters()

    def _install_counters(self) -> None:
        boolalg = sys.modules["specker.boolalg"]
        counters = self.profile.counters
        new_elem = boolalg.BoolElem.__post_init__
        algebra_eq = boolalg.Algebra.__eq__

        def counted_post_init(elem):
            counters["elem_new"] += 1
            new_elem(elem)

        def counted_eq(algebra, other):
            counters["algebra_eq"] += 1
            return algebra_eq(algebra, other)

        self._patches.append((boolalg.BoolElem, "__post_init__", new_elem))
        self._patches.append((boolalg.Algebra, "__eq__", algebra_eq))
        boolalg.BoolElem.__post_init__ = counted_post_init
        boolalg.Algebra.__eq__ = counted_eq

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, value = self._patches.pop()
            setattr(namespace, attr, value)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(profile: Profile, untraced_wall_s: float, self_s_o: dict) -> dict:
    """Every per-layer metric, as ``{name: (value, unit)}``.

    ``profile.wall_s`` is the traced wall time; it equals the sum of the
    module self times plus ``cli.import_s`` plus ``bench.self_s``.
    """
    metrics: dict[str, tuple[float, str]] = {}
    for module, functions in KEPT.items():
        for function in functions:
            key = f"{module}.{function}"
            metrics[f"{key}.calls"] = (int(profile.calls.get(key, 0)), "count")
            metrics[f"{key}.self_s"] = (profile.self_s.get(key, 0.0), "s")
    metrics["cli.import_s"] = (profile.counters.get("import_s", 0.0), "s")
    wall = profile.wall_s
    for module, seconds in profile.module_self_s().items():
        metrics[f"{module}.self_s"] = (seconds, "s")
        metrics[f"{module}.share"] = (_ratio(seconds, wall), "ratio")
        metrics[f"{module}.self_s_O"] = (self_s_o.get(module, 0.0), "s")
    counters = profile.counters
    metrics["steps.step_add.useful_ratio"] = (
        _ratio(counters.get("step_add.outputs", 0), counters.get("step_add.candidates", 0)),
        "ratio",
    )
    metrics["orthogonal.orth_add.useful_ratio"] = (
        _ratio(counters.get("orth_add.classes", 0), counters.get("orth_add.refined", 0)),
        "ratio",
    )
    hits, misses = counters.get("devries_hits", 0), counters.get("devries_misses", 0)
    metrics["proximity.devries_cache.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    metrics["boolalg.elem_new.calls"] = (int(counters.get("elem_new", 0)), "count")
    metrics["boolalg.algebra_eq.calls"] = (int(counters.get("algebra_eq", 0)), "count")
    metrics["bench.self_s"] = (profile.bench_s, "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_ratio"] = (_ratio(wall, untraced_wall_s), "ratio")
    return metrics
