"""The benchmark's workloads and the checks on their outputs.

Each workload is one command line for bench/child.py made from the seed:
a ``twistrank`` command, or the verification suite's Poisson block.  The
checks recompute what they compare against with the benchmark's own code
(its own squarefree sieve, coprimality test and weight formula), never with
``twistrank`` functions, so a defect in the program cannot hide itself.

Sizes are chosen so that one command takes a few seconds on a 2-core
machine: a run then holds several fresh-process samples to take a median
over, and all runs fit the benchmark's time budget.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

# Catalog conductors of the curves the workloads use.
CONDUCTOR = {"cm32-like": 64, "ncm37": 37}

EF_COLUMNS = [
    "D",
    "lambda",
    "log_conductor",
    "conductor_exact",
    "prime_m1",
    "prime_m2",
    "prime_tail",
    "archimedean",
    "total_S",
    "rank_bound",
    "root_number",
]
SWEEP_COLUMNS = [
    "k",
    "x",
    "T",
    "filter_flags",
    "weighted_count",
    "family_size",
    "empirical_moment",
    "theoretical_bound",
    "ratio",
]
REFS_KEYS = {
    "heath_brown_k1",
    "goldfeld_k1",
    "theoretical_moment_bound",
    "rank_density_base",
    "lowzero_density_base",
    "sinc_half_squared",
    "rank_density_bound",
    "lowzero_density_bound",
    "empirical_rank_tail",
    "sign_partition",
}
CHECK_KEYS = {"name", "computed", "reference", "ratio_or_error", "pass", "parameters", "note"}

# family-sweep: the default sweep shape, with T about X_1(1e3)/3.6 (X_1 ~ 72,003).
SWEEP_X = 1000.0
SWEEP_T = 20_000
SWEEP_T_JITTER = 0.02
SWEEP_SUPPORT = (0.5, 1.0)
# high-lambda: a_p table to x for a short window of consecutive D.
HIGH_X = 50_000
HIGH_TWISTS = 24
HIGH_START = (1, 5000)
# verify-poisson: the suite's Poisson block for q = 1..4 (of 1..12), l in
# {0, 1}: one worst-j record per (q, l), sum(2 q) identities checked.
POISSON_QS = (1, 2, 3, 4)


@dataclass(frozen=True)
class Spec:
    """One workload instance: the command and what its output must hold."""

    workload: str
    argv: Tuple[str, ...]
    outputs: Tuple[str, ...]  # file suffixes the command writes after --out
    items: int  # work items evaluated: twists, or Poisson identities
    item_kind: str
    expect: Dict[str, object] = field(default_factory=dict)

    def command(self, out: str) -> List[str]:
        return list(self.argv) + ["--out", out]


def _squareful_sieve(lo: int, hi: int) -> List[bool]:
    """flags[n - lo] is True when some d^2 > 1 divides n, for lo <= n <= hi."""
    flags = [False] * (hi - lo + 1)
    d = 2
    while d * d <= max(abs(lo), abs(hi)):
        sq = d * d
        start = -(-lo // sq) * sq
        for n in range(start, hi + 1, sq):
            flags[n - lo] = True
        d += 1
    return flags


def _is_squarefree(n: int) -> bool:
    return not _squareful_sieve(abs(n), abs(n))[0]


def _exp_weight(t: float, lo: float, hi: float) -> float:
    """The exp bump of the family weight, exp(4/w^2 - 1/((t-lo)(hi-t)))."""
    if not lo < t < hi:
        return 0.0
    width = hi - lo
    prod = (t - lo) * (hi - t)
    return math.exp(4.0 / width**2 - 1.0 / prod)


def sweep_family_ds(T: float, lo: float, hi: float, conductor: int) -> List[int]:
    """D inside the support with positive weight, squarefree, coprime to 2N."""
    first = math.floor(T * lo) + 1
    last = math.ceil(T * hi) - 1
    squareful = _squareful_sieve(first, last)
    return [
        D
        for D in range(first, last + 1)
        if D != 0
        and _exp_weight(D / T, lo, hi) > 0.0
        and not squareful[D - first]
        and math.gcd(D, 2 * conductor) == 1
    ]


def make_spec(workload: str, seed: int) -> Spec:
    """The workload's command for this seed; the same seed gives the same command."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "family-sweep":
        T = round(SWEEP_T * (1.0 + SWEEP_T_JITTER * (2.0 * rng.random() - 1.0)))
        lo, hi = SWEEP_SUPPORT
        ds = sweep_family_ds(float(T), lo, hi, CONDUCTOR["cm32-like"])
        argv = (
            "sweep", "--curve", "cm32-like", "--x", repr(SWEEP_X), "--k", "1",
            "--T", str(T), "--weight", "exp", "--support", f"{lo}:{hi}",
            "--sign", "any", "--threads", "1", "--format", "csv",
        )  # fmt: skip
        return Spec(workload, argv, ("", ".refs.json"), len(ds), "twists", {"T": float(T), "family_size": len(ds)})
    if workload == "high-lambda":
        return _ef_report_spec(rng.randint(*HIGH_START), HIGH_TWISTS, HIGH_X)
    if workload == "verify-poisson":
        # The Poisson block reads no seed (in the suite only the j-sum cases
        # do), so this workload is the same for every seed.
        argv = ("poisson-group",) + tuple(str(q) for q in POISSON_QS)
        identities = sum(2 * q for q in POISSON_QS)
        return Spec(workload, argv, ("",), identities, "identities", {"checks": 2 * len(POISSON_QS)})
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("family-sweep", "high-lambda", "verify-poisson")


def smoke_spec(seed: int = 1) -> Spec:
    """A sub-second high-lambda instance for the benchmark's own tests."""
    return _ef_report_spec(1 + seed, 8, 10_000)


def _ef_report_spec(dmin: int, twists: int, x: int) -> Spec:
    """ef-report over D = dmin .. dmin + twists - 1 (dmin >= 1), no filters."""
    ds = list(range(dmin, dmin + twists))
    argv = (
        "ef-report", "--curve", "ncm37", "--x", str(x), "--dmin", str(ds[0]),
        "--dmax", str(ds[-1]), "--threads", "1", "--format", "csv",
    )  # fmt: skip
    return Spec("high-lambda", argv, ("",), len(ds), "twists", {"x": float(x), "ds": ds, "curve": "ncm37"})


# ---------------------------------------------------------------------------
# Output checks: each returns a list of problems, empty when the output holds.


def _check_ef_report(spec: Spec, texts: List[str]) -> List[str]:
    rows = list(csv.reader(io.StringIO(texts[0])))
    if not rows or rows[0] != EF_COLUMNS:
        return [f"ef-report header {rows[:1]} != {EF_COLUMNS}"]
    body = rows[1:]
    want = spec.expect["ds"]
    problems = []
    if [r[0] for r in body] != [str(D) for D in want]:
        problems.append(f"ef-report has {len(body)} rows, expected D = {want[0]}..{want[-1]}")
    lam = math.log(spec.expect["x"])
    n2 = 2 * CONDUCTOR[spec.expect["curve"]]
    for r in body:
        if len(r) != len(EF_COLUMNS):
            problems.append(f"row {r[:1]} has {len(r)} fields")
            continue
        try:
            D = int(r[0])
            lam_r, log_n, m1, m2, tail, arch, total, bound = (float(v) for v in r[1:3] + r[4:10])
            root = int(r[10])
        except ValueError as exc:
            problems.append(f"row {r[:1]}: {exc}")
            continue
        if lam_r != lam:
            problems.append(f"D={D}: lambda {lam_r!r} != log x {lam!r}")
        if total != log_n - 2.0 * (m1 + m2 + tail) - arch:
            problems.append(f"D={D}: total_S does not reconstruct from its parts")
        if bound != total / lam_r:
            problems.append(f"D={D}: rank_bound != total_S / lambda")
        exact = _is_squarefree(D) and math.gcd(D, n2) == 1
        if r[3] != ("true" if exact else "false"):
            problems.append(f"D={D}: conductor_exact {r[3]} but clean is {exact}")
        # For an odd conductor every clean twist has a root number of +-1.
        if root not in (-1, 0, 1) or (root == 0) == exact:
            problems.append(f"D={D}: root_number {root}")
    return problems


def _check_sweep(spec: Spec, texts: List[str]) -> List[str]:
    rows = list(csv.reader(io.StringIO(texts[0])))
    if len(rows) != 2 or rows[0] != SWEEP_COLUMNS or len(rows[1]) != len(SWEEP_COLUMNS):
        return [f"sweep table is not one row under {SWEEP_COLUMNS}"]
    row = dict(zip(SWEEP_COLUMNS, rows[1]))
    problems = []
    try:
        refs = json.loads(texts[1])
    except ValueError as exc:
        return [f"refs.json does not parse: {exc}"]
    if set(refs) != REFS_KEYS:
        problems.append(f"refs.json keys {sorted(refs)}")
    size = spec.expect["family_size"]
    fixed = {
        "k": "1",
        "x": repr(SWEEP_X),
        "T": repr(spec.expect["T"]),
        "filter_flags": "squarefree+coprime+sign=any",
        "family_size": str(size),
        "theoretical_bound": "1.5",
    }
    for key, want in fixed.items():
        if row[key] != want:
            problems.append(f"sweep {key} = {row[key]!r}, expected {want!r}")
    try:
        wcount, moment, theo, ratio = (
            float(row[k]) for k in ("weighted_count", "empirical_moment", "theoretical_bound", "ratio")
        )
    except ValueError as exc:
        return problems + [f"sweep row: {exc}"]
    if not (math.isfinite(moment) and wcount > 0.0) or ratio != moment / theo:
        problems.append("sweep moment, weight or ratio inconsistent")
    parts = refs.get("sign_partition") or {}
    if parts.get("family_size") != size or sum(
        (parts.get(s) or {}).get("family_size", -1) for s in ("plus", "minus", "undefined")
    ) != size:
        problems.append("sign partition does not add up to the family size")
    if refs.get("heath_brown_k1") != 1.5 or refs.get("goldfeld_k1") != 3.25:
        problems.append("reference constants changed")
    return problems


def _check_verify(spec: Spec, texts: List[str]) -> List[str]:
    lines = texts[0].splitlines()
    try:
        records = [json.loads(line) for line in lines]
    except ValueError as exc:
        return [f"verify output does not parse: {exc}"]
    if not records or set(records[-1]) != {"summary"}:
        return ["verify output has no summary line"]
    checks, summary = records[:-1], records[-1]["summary"]
    problems = []
    if len(checks) != spec.expect["checks"]:
        problems.append(f"{len(checks)} checks, expected {spec.expect['checks']}")
    for rec in checks:
        if set(rec) != CHECK_KEYS or not str(rec.get("name", "")).startswith("poisson["):
            problems.append(f"check record {rec.get('name')!r} has keys {sorted(rec)}")
        elif rec["pass"] is not True:
            problems.append(f"check {rec['name']} failed")
    if summary.get("failed") != 0 or summary.get("checks") != len(checks):
        problems.append(f"verify summary {summary}")
    return problems


CHECKS = {"sweep": _check_sweep, "ef-report": _check_ef_report, "poisson-group": _check_verify}


def check_output(spec: Spec, texts: List[str]) -> List[str]:
    """Problems with one command's output files (empty list: all checks hold)."""
    return CHECKS[spec.argv[0]](spec, texts)
