"""Span tracer that wraps public vermasig functions from outside the library.

Each wrapped call records one span (name, start, end, parent, error) in
memory.  A function is patched at every binding inside ``vermasig.*`` -- the
defining module, the package namespace and every module that imported it by
name -- so calls that go through ``from .x import f`` are traced too.  Hot
inner helpers such as ``quantum.q_binomial_sign`` are deliberately not
wrapped: their per-call cost is close to the wrapper's own.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter

TRACED = (
    "sigchar.peel_decompose",
    "classify.representative_weights",
    "classify.classify_definite",
    "quantum.multiplicity_signature",
    "quantum.crystal_multiplicity",
    "shapovalov.singular_basis",
    "shapovalov.gram_on_multiplicity",
    "shapovalov.exact_signature",
    "shapovalov.express_in_basis",
    "bethe.hamiltonian_matrices",
    "bethe.gaudin_system",
    "bethe.count_real_by_spectrum",
    "bethe.bound_check",
    "bethe.find_critical_points",
    "cli.main",
)

MODULES = ("sigchar", "classify", "quantum", "shapovalov", "bethe", "cli")

# Name of the root span the benchmark opens around each item; its self time
# is the benchmark's own checking and bookkeeping.
ITEM_SPAN = "bench.item"


def _multiplicity_dim(n: int, m: int) -> int:
    return math.comb(m + n - 2, n - 2)


# Work counts derived from a call's inputs (and, for the search, its result),
# recorded at the same boundary as the span.
def _peel_terms(args, kwargs, result):
    depth = args[1]
    return {"sigchar.peel_terms": (depth + 1) * (depth + 2) // 2}


def _compositions(args, kwargs, result):
    return {"quantum.compositions": _multiplicity_dim(len(args[0]), args[1])}


def _basis_len(args, kwargs, result):
    return {"shapovalov.basis_len": _multiplicity_dim(len(args[0]), args[1])}


def _gram_entries(args, kwargs, result):
    return {"shapovalov.gram_entries": _multiplicity_dim(len(args[0]), args[1]) ** 2}


def _spectrum_dim(args, kwargs, result):
    return {"bethe.spectrum_dim": args[0].dim}


def _search_yield(args, kwargs, result):
    return {"bethe.points_found": len(result), "bethe.points_wanted": args[0].dim}


WORK_COUNTS = {
    "sigchar.peel_decompose": _peel_terms,
    "quantum.multiplicity_signature": _compositions,
    "shapovalov.singular_basis": _basis_len,
    "shapovalov.gram_on_multiplicity": _gram_entries,
    "bethe.count_real_by_spectrum": _spectrum_dim,
    "bethe.find_critical_points": _search_yield,
}


def library_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "vermasig" or name.startswith("vermasig."))
    ]


def rebind_everywhere(original, replacement) -> list[tuple[object, str]]:
    """Point every ``vermasig.*`` binding of ``original`` at ``replacement``."""
    rebound = []
    for mod in library_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                rebound.append((mod, attr))
    return rebound


class Tracer:
    """Collects spans and work counts while installed; restores on uninstall."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start, end, parent span index or -1, raised)
        self.spans: list[tuple[int, float, float, int, bool]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, label: str, fn, work=None):
        if label not in self._name_ids:
            self._name_ids[label] = len(self.names)
            self.names.append(label)
        name_id = self._name_ids[label]
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, raised)
            if work is not None:
                counts.update(work(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at every binding, then prove none escaped."""
        import vermasig

        originals = []
        for dotted in TRACED:
            module_name, attr = dotted.split(".")
            original = getattr(getattr(vermasig, module_name), attr)
            wrapper = self.wrap(dotted, original, WORK_COUNTS.get(dotted))
            for mod, bound in rebind_everywhere(original, wrapper):
                self._restore.append((mod, bound, original))
            originals.append(original)
        leaks = [
            f"{mod.__name__}.{attr}"
            for mod in library_modules()
            for attr, value in vars(mod).items()
            if any(value is fn for fn in originals)
        ]
        if leaks:
            self.uninstall()
            raise RuntimeError(f"traced functions still reachable unwrapped: {leaks}")

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def self_times(self) -> dict[str, tuple[int, float, int]]:
        """Per span name: (calls, self seconds, calls that raised).

        Self time is a span's duration minus the durations of its direct
        children; the benchmark is single-threaded, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: [0, 0.0, 0] for name in self.names}
        for index, (name_id, start, end, _, raised) in enumerate(self.spans):
            entry = totals[self.names[name_id]]
            entry[0] += 1
            entry[1] += end - start - child[index]
            entry[2] += raised
        return {name: tuple(v) for name, v in totals.items()}
