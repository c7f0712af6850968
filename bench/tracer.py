"""Spans around the module-level functions of lerchzeta, recorded from outside.

The tracer replaces each target function with a wrapper in every lerchzeta
module that holds a reference to it (``from .branching import complex_gamma``
copies the reference into the importing module), so the package source is
never edited.  A span is (name, start, end, parent span, operation id);
spans stay in memory until :meth:`Tracer.write`.  A target that does not
exist (renamed or deleted by a later change) is skipped with a note and
reports zero calls.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

Hook = Callable[["Tracer", tuple, dict, object], None]


def _integrate_hook(tracer: "Tracer", args: tuple, kwargs: dict, result: object) -> None:
    tol = kwargs["tol"] if "tol" in kwargs else args[3]
    _, err, panels = result
    tracer.counts["quadrature.panels"] += panels
    tracer.counts["quadrature.tol_met"] += err <= tol


def _route_hook(tracer: "Tracer", args: tuple, kwargs: dict, result: object) -> None:
    tracer.counts["continuation.route." + result.method.value] += 1


@dataclass(frozen=True)
class Target:
    """One traced function: span name, defining module, attribute path there, optional result hook.

    With ``count_raised``, exceptions leaving the function are counted as ``<name>.raised``.
    """

    name: str
    module: str
    attr: str
    hook: Hook | None = None
    count_raised: bool = False


TARGETS = (
    Target("quadrature.integrate", "lerchzeta.quadrature", "integrate", _integrate_hook),
    Target("evaluator.dirichlet_series", "lerchzeta.evaluator", "dirichlet_series", count_raised=True),
    Target("evaluator.integral", "lerchzeta.evaluator", "_integral_eval_raw"),
    Target("branching.complex_gamma", "lerchzeta.branching", "complex_gamma"),
    Target("branching.branched_pow", "lerchzeta.branching", "branched_pow"),
    Target("continuation.evaluate_principal", "lerchzeta.continuation", "evaluate_principal", _route_hook),
    Target("continuation.transform", "lerchzeta.continuation", "_transform_value"),
    Target("continuation.ladder", "lerchzeta.continuation", "_ladder_value"),
    Target("continuation.cauchy", "lerchzeta.continuation", "_cauchy_derivative"),
    Target("monodromy.monodromy_of_branch", "lerchzeta.monodromy", "monodromy_of_branch"),
    Target("monodromy.monodromy_of_word", "lerchzeta.monodromy", "monodromy_of_word"),
    Target("words.Word.parse", "lerchzeta.words", "Word.parse"),
    Target("words.abelianize", "lerchzeta.words", "abelianize"),
    Target("cli.main", "lerchzeta.cli", "main"),
)


@dataclass(frozen=True)
class LayerStats:
    calls: int
    total_s: float
    self_s: float


def self_times(spans: list[tuple]) -> dict[str, LayerStats]:
    """Per-name calls, total time and self time (span time minus child-span time)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    total: Counter = Counter()
    own: Counter = Counter()
    for i, (name, start, end, _parent, _op) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child[i]
    return {n: LayerStats(calls[n], total[n], own[n]) for n in calls}


class Tracer:
    """Installs span-recording wrappers; :meth:`uninstall` puts the originals back."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.notes: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        name, hook = target.name, target.hook
        raised_key = name + ".raised" if target.count_raised else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if raised_key:
                    counts[raised_key] += 1
                raise
            finally:
                spans[idx] = (name, start, clock(), parent, self.op)
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.notes.append(f"{target.name}: module {target.module} not found; reports 0 calls")
                continue
            owner_path, _, attr = target.attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.notes.append(f"{target.name}: {target.module}.{target.attr} not found; reports 0 calls")
                continue
            if isinstance(raw, classmethod):
                self._patch(owner, attr, raw, classmethod(self._wrap(target, raw.__func__)))
                continue
            wrapper = self._wrap(target, raw)
            # every lerchzeta module that imported the function holds its own reference
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "lerchzeta" or mod_name.startswith("lerchzeta.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, key, raw, wrapper)

    def _patch(self, owner: object, attr: str, original: object, replacement: object) -> None:
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines: name, start, end, parent index, operation id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
