"""Outside-in tracer for one benchmark child process.

The tracer never edits the program.  It replaces public functions of the
twistrank modules with wrappers, in every module namespace that holds a
reference to them: ``cli`` and ``explicit_formula`` bind names such as
``ap``, ``cpm`` and ``sieve_primes`` at import time, so patching only the
defining module would miss those calls.

Two kinds of wrapper exist:

* span wrappers record ``(name, start_ns, end_ns, parent)`` in memory; the
  child writes them to a flat int64 file when the command has finished;
* counter wrappers only bump an integer.  They sit on the hot leaves
  (``kronecker`` runs millions of times per sweep), so the trace overhead
  stays small; the benchmark reports it as ``trace.overhead_s``.

``layer_metrics`` turns a span file into the per-layer numbers the
benchmark reports.  A ``*_s`` metric is the self time of its spans: each
span's duration minus the part its traced children cover.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

# Span wrappers, by layer (= twistrank module).  "Class.method" entries are
# patched on the class.  Functions left out here are not traced; their time
# is self time of the traced caller.
SPANS: Dict[str, List[str]] = {
    "arith": ["sieve_primes"],
    "curve": ["ap_array", "cpm", "builtin_catalog", "load_catalog"],
    "kernel": ["weight_fourier", "weight_fourier_derivative", "archimedean_integral"],
    "explicit_formula": ["ef_total", "prime_side", "reports_to_csv", "reports_to_json"],
    "family_moments": [
        "family_twist_values",
        "evaluate_reports",
        "sweep_family",
        "weighted_moment",
        "sign_partition_stats",
        "empirical_rank_tail",
        "MomentTable.to_csv",
        "MomentTable.to_json",
    ],
    "verification_lab": [
        "run_suite",
        "poisson_check",
        "poisson_required_truncation",
        "fit_weight_gamma",
    ],
    "cli": ["main"],
}

# Counter-only wrappers on hot leaves: name of the counter -> functions.
COUNTERS: Dict[str, List[str]] = {
    "arith.kronecker_calls": ["arith.kronecker"],
    "arith.factor_calls": [
        "arith.is_squarefree",
        "arith.squarefree_part",
        "arith.fundamental_discriminant",
    ],
    "curve.twist_model_builds": ["curve.TwistedCurve.as_curve_model"],
}

IMPORT_SPAN = "cli.import"

# Per-layer metric -> the spans whose self time (or count) it sums.
SELF_TIME = {
    "arith.sieve_s": ["arith.sieve_primes"],
    "curve.ap_array_s": ["curve.ap_array"],
    "curve.cpm_s": ["curve.cpm"],
    "explicit_formula.prime_side_s": ["explicit_formula.prime_side"],
    "explicit_formula.serialize_s": [
        "explicit_formula.reports_to_csv",
        "explicit_formula.reports_to_json",
    ],
    "kernel.fourier_s": ["kernel.weight_fourier", "kernel.weight_fourier_derivative"],
    "kernel.arch_s": ["kernel.archimedean_integral"],
    "family_moments.enumerate_s": ["family_moments.family_twist_values"],
    "family_moments.evaluate_s": [
        "family_moments.evaluate_reports",
        "family_moments.sweep_family",
    ],
    "family_moments.reduce_s": [
        "family_moments.weighted_moment",
        "family_moments.sign_partition_stats",
        "family_moments.empirical_rank_tail",
    ],
    "verification_lab.poisson_check_s": ["verification_lab.poisson_check"],
    "cli.import_s": [IMPORT_SPAN],
}
SPAN_COUNTS = {
    "curve.cpm_calls": ["curve.cpm"],
    "kernel.fourier_calls": ["kernel.weight_fourier", "kernel.weight_fourier_derivative"],
}
CHILD_COUNTS = [
    "arith.kronecker_calls",
    "arith.factor_calls",
    "curve.ap_calls",
    "curve.ap_distinct",
    "curve.twist_model_builds",
    "family_moments.candidates",
    "family_moments.kept",
    "verification_lab.checks",
    "verification_lab.failed",
]


def clock() -> int:
    """CLOCK_MONOTONIC in ns: one clock shared by the parent and every child."""
    return time.monotonic_ns()


class Tracer:
    """Span and counter store for one process; see the module docstring."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        # Flat (name, start_ns, end_ns, parent) records: no object per span.
        self.spans = array("q")
        self._stack: List[int] = [-1]
        self._cells: Dict[str, list] = {}
        self.ap_primes: set = set()
        self.counts: Dict[str, int] = {}
        self.missing: List[str] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add_span(self, name: str, start: int, end: int) -> None:
        """Record a span timed by the caller, as a child of the open span."""
        self.spans.extend((self._intern(name), start, end, self._stack[-1]))

    def span(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        nid = self._intern(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            at = len(spans)
            spans.extend((nid, clock(), 0, stack[-1]))
            stack.append(at // 4)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[at + 2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        cell = self._cells.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def ap_counter(self, fn: Callable) -> Callable:
        cell = self._cells.setdefault("curve.ap_calls", [0])
        seen = self.ap_primes

        def wrapper(curve, p):
            cell[0] += 1
            seen.add(p)
            return fn(curve, p)

        return wrapper

    def install(self) -> None:
        """Wrap the traced functions of every loaded twistrank module."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "twistrank" or name.startswith("twistrank.")
        }
        hooks = {
            "family_moments.family_twist_values": _count_family,
            "verification_lab.poisson_check": _count_check,
        }
        plan = []  # (module name, dotted attribute, wrapper factory)
        for layer, funcs in SPANS.items():
            for func in funcs:
                full = f"{layer}.{func}"
                plan.append((layer, func, lambda fn, n=full: self.span(n, fn, hooks.get(n))))
        for counter, funcs in COUNTERS.items():
            for full in funcs:
                layer, func = full.split(".", 1)
                plan.append((layer, func, lambda fn, c=counter: self.counter(c, fn)))
        plan.append(("curve", "ap", self.ap_counter))

        for layer, attr, make in plan:
            home = modules.get(f"twistrank.{layer}")
            owner_name, _, func = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, func, None)
            if original is None:
                # A later version of the program may drop a function; its
                # metrics then read 0 and the result lists it as missing.
                self.missing.append(f"{layer}.{attr}")
                continue
            wrapper = make(original)
            if owner_name:
                setattr(owner, func, wrapper)
                continue
            for mod in modules.values():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)

    def first_end(self, name: str) -> Optional[int]:
        """End time of the first finished span with this name."""
        nid = self._ids.get(name)
        spans = self.spans
        for at in range(0, len(spans), 4):
            if spans[at] == nid and spans[at + 2]:
                return spans[at + 2]
        return None

    def dump(self, path: str) -> dict:
        """Write the spans to ``path``; return names and counters for the
        child's result file."""
        with open(path, "wb") as fh:
            self.spans.tofile(fh)
        counts = {name: cell[0] for name, cell in self._cells.items()}
        counts.update(self.counts)
        counts["curve.ap_distinct"] = len(self.ap_primes)
        return {"names": self.names, "counts": counts, "missing": self.missing}


def _count_family(counts: dict, args: tuple, result) -> None:
    config = args[0]
    first = math.floor(config.T * config.weight.support_lo) + 1
    last = math.ceil(config.T * config.weight.support_hi) - 1
    span = max(0, last - first + 1) - (1 if first <= 0 <= last else 0)
    counts["family_moments.candidates"] = counts.get("family_moments.candidates", 0) + span
    counts["family_moments.kept"] = counts.get("family_moments.kept", 0) + len(result)


def _count_check(counts: dict, args: tuple, result) -> None:
    counts["verification_lab.checks"] = counts.get("verification_lab.checks", 0) + 1
    failed = 0 if result.passed else 1
    counts["verification_lab.failed"] = counts.get("verification_lab.failed", 0) + failed


def read_spans(path: str) -> List[tuple]:
    flat = array("q")
    with open(path, "rb") as fh:
        flat.frombytes(fh.read())
    return [tuple(flat[i : i + 4]) for i in range(0, len(flat), 4)]


def _quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(names: List[str], spans: List[tuple], counts: dict, wall_ns: int) -> dict:
    """Per-layer metrics of one traced child from its spans and counters."""
    n = len(spans)
    dur = [end - start for _, start, end, _ in spans]
    covered = [0] * n
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            covered[parent] += dur[i]
    by_name: Dict[str, List[int]] = {}
    for i, (nid, _, _, _) in enumerate(spans):
        by_name.setdefault(names[nid], []).append(i)

    out = {}
    for metric, members in SELF_TIME.items():
        idx = [i for m in members for i in by_name.get(m, [])]
        out[metric] = sum(dur[i] - covered[i] for i in idx) / 1e9
    for metric, members in SPAN_COUNTS.items():
        out[metric] = sum(len(by_name.get(m, [])) for m in members)
    for metric in CHILD_COUNTS:
        out[metric] = counts.get(metric, 0)
    calls = out["curve.ap_calls"]
    out["curve.ap_reuse"] = out["curve.ap_distinct"] / calls if calls else 1.0

    # Per-twist time: an ef_total span minus the a_p table builds inside
    # it, which are per-curve work that the first twist happens to pay.
    table_ns = {}
    for i in by_name.get("curve.ap_array", []):
        j = spans[i][3]
        while j >= 0 and names[spans[j][0]] != "explicit_formula.ef_total":
            j = spans[j][3]
        if j >= 0:
            table_ns[j] = table_ns.get(j, 0) + dur[i]
    twist_ms = [
        (dur[i] - table_ns.get(i, 0)) / 1e6 for i in by_name.get("explicit_formula.ef_total", [])
    ]
    out["explicit_formula.twist_ms.p50"] = _quantile(twist_ms, 0.5)
    out["explicit_formula.twist_ms.p99"] = _quantile(twist_ms, 0.99)

    mains = by_name.get("cli.main", [])
    sieves = by_name.get("arith.sieve_primes", [])
    if mains and sieves:
        out["cli.resolve_s"] = (spans[sieves[0]][1] - spans[mains[0]][1]) / 1e9
    else:
        out["cli.resolve_s"] = 0.0
    roots = sum(dur[i] for i in range(n) if spans[i][3] < 0)
    out["trace.coverage"] = roots / wall_ns if wall_ns else 0.0
    out["trace.spans"] = n
    return out
