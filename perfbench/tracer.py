"""In-process spans around qgrain's public functions and constructors.

``Tracer.install`` wraps every public function of the layer modules at each
module attribute that binds it (``signed_perm`` binds ``cyc`` from
``bitstring``, ``gravity`` binds ``n_max`` from ``nested``), so the spans
follow the calls the code really makes without editing it.  Constructors are
wrapped at the class's own ``__init__``, which keeps ``isinstance`` working;
exception classes and NamedTuples (no ``__init__`` of their own) are left
alone.  ``uninstall`` restores every original.

A span is ``(name, start_ns, end_ns, parent_index, invocation_id)``.  Spans
stay in memory until the run ends.  Self time is a span's duration minus the
durations of its direct children; the code is single-threaded, so children
never overlap.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

LAYERS = ("qubit", "bitstring", "signed_perm", "nested", "gravity", "cli")


def _deepest_level(state) -> dict:
    deepest = state.lengths[state.level_slice(state.depth)]
    return {
        "deepest_segments": int(deepest.size),
        "absent_segments": int((deepest == 0).sum()),
        "classical_segments": int((deepest == 1).sum()),
    }


# Work counters taken from each call's public arguments and results, keyed by
# span.  For a constructor the first argument is the new instance.
COUNTERS: dict[str, Callable[[tuple, object], dict]] = {
    "bitstring.BitString": lambda args, _: {"validated_bits": len(args[0])},
    "signed_perm.SignedPermutation": lambda args, _: {"validated_entries": len(args[0])},
    "signed_perm.apply": lambda _, result: {"bits": len(result)},
    "signed_perm.compose": lambda _, result: {"entries": len(result)},
    "nested.encode_nested": lambda _, result: {
        "bits": sum(len(s) for s in result[0]),
        "segments": (1 << result[1].depth) - 1,
    },
    "nested.decode_nested": lambda args, result: {
        "bits": sum(len(s) for s in args[0]),
        **_deepest_level(result),
    },
}

COUNTER_KEYS = (
    "bitstring.BitString.validated_bits",
    "signed_perm.SignedPermutation.validated_entries",
    "signed_perm.apply.bits",
    "signed_perm.compose.entries",
    "nested.encode_nested.bits",
    "nested.encode_nested.segments",
    "nested.decode_nested.bits",
    "nested.decode_nested.deepest_segments",
    "nested.decode_nested.absent_segments",
    "nested.decode_nested.classical_segments",
)

SHARES = {
    "nested.absent_segment_share": (
        "nested.decode_nested.absent_segments", "nested.decode_nested.deepest_segments",
    ),
    "nested.classical_segment_share": (
        "nested.decode_nested.classical_segments", "nested.decode_nested.deepest_segments",
    ),
}

# Per-unit kernel costs: self time over the work counter named here.
RATES = {"ns_per_bit": "bits", "ns_per_entry": "entries"}


class Tracer:
    """Records spans for the qgrain modules already imported in this process."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.invocation = -1
        self._stack: list[int] = []
        self._patches = self._plan()
        self.span_names = sorted({name for name, *_ in self._patches})
        self._passes: list[tuple[int, int, dict]] = []
        self._pass_start: Optional[int] = None

    def _plan(self) -> list[tuple]:
        modules = [m for n, m in sys.modules.items() if n == "qgrain" or n.startswith("qgrain.")]
        patches = []
        for layer in LAYERS:
            module = sys.modules[f"qgrain.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                span = f"{layer}.{attr}"
                counter = COUNTERS.get(span)
                if inspect.isclass(obj):
                    init = vars(obj).get("__init__")
                    if init is None or issubclass(obj, BaseException):
                        continue
                    patches.append((span, obj, "__init__", init, self._wrap(span, init, counter)))
                elif inspect.isfunction(obj):
                    wrapper = self._wrap(span, obj, counter)
                    for target in modules:
                        for name, value in list(vars(target).items()):
                            if value is obj:
                                patches.append((span, target, name, obj, wrapper))
        return patches

    def _wrap(self, span: str, fn: Callable, counter) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span, start, end, parent, tracer.invocation)
            if counter is not None:
                counts = tracer.counts
                for key, value in counter(args, result).items():
                    key = f"{span}.{key}"
                    counts[key] = counts.get(key, 0) + value
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        for _, target, name, _, wrapper in self._patches:
            setattr(target, name, wrapper)

    def uninstall(self) -> None:
        for _, target, name, original, _ in self._patches:
            setattr(target, name, original)

    def begin_pass(self) -> None:
        self._pass_start = len(self.spans)
        self.counts = dict.fromkeys(COUNTER_KEYS, 0)

    def end_pass(self) -> None:
        self._passes.append((self._pass_start, len(self.spans), self.counts))
        self._pass_start = None

    def pass_summaries(self) -> list[dict]:
        """Per traced pass: calls and self time per span, plus the work counters."""
        out = []
        for lo, hi, counts in self._passes:
            calls: Counter = Counter()
            self_ns: dict = defaultdict(int)
            covered: dict = defaultdict(int)
            for index in range(hi - 1, lo - 1, -1):
                name, start, end, parent, _ = self.spans[index]
                duration = end - start
                calls[name] += 1
                self_ns[name] += duration - covered.pop(index, 0)
                if parent >= 0:
                    covered[parent] += duration
            out.append({"calls": dict(calls), "self_ns": dict(self_ns), "counts": dict(counts)})
        return out


def repeatable_counts(summary: dict) -> dict:
    """The part of a pass summary that must repeat exactly for a fixed seed."""
    return {"calls": summary["calls"], "counts": summary["counts"]}


def layer_value(name: str, summaries: list[dict], span_names: list[str]) -> float:
    """Value of one per-layer metric: counts from the first pass (they repeat
    exactly), times as the median over passes."""
    first = summaries[0]
    if name in SHARES:
        num, den = SHARES[name]
        return first["counts"][num] / first["counts"][den] if first["counts"][den] else 0.0
    if name in COUNTER_KEYS:
        return first["counts"][name]
    span, _, stat = name.rpartition(".")
    if span not in span_names:
        raise ValueError(f"per-layer metric {name!r} names no traced span")
    if stat == "calls":
        return first["calls"].get(span, 0)
    if stat == "self_s":
        return statistics.median(s["self_ns"].get(span, 0) for s in summaries) / 1e9
    if stat in RATES:
        work_key = f"{span}.{RATES[stat]}"
        if work_key not in first["counts"]:
            raise ValueError(f"per-layer metric {name!r} has no work counter {work_key!r}")
        if not first["counts"][work_key]:
            return 0.0
        return statistics.median(
            s["self_ns"].get(span, 0) / s["counts"][work_key] for s in summaries
        )
    raise ValueError(f"unknown per-layer metric {name!r}")
