"""Command-line front end.

Subcommands:
  ap-table   CSV/JSON of (p, a_p, c_{p^2}) for p up to a limit
  ef-report  one explicit-formula report per twist D in a range
  sweep      weighted moment table over a twist family, plus a sidecar JSON
             with the reference constants
  verify     the numerical verification suite (one JSON line per check)

Exit codes: 0 success, 1 usage, 2 data/config, 3 verification failure,
141 (128 + SIGPIPE) when the reader closes stdout early (``| head -2``).
Outputs are deterministic given (config, seed, version): no timestamps,
floats in shortest round-trip form.  The three tables (ap-table, ef-report,
sweep) are written by one writer, _write_table; each command only builds
its records.  The process runs one thread: --threads is accepted and
ignored, and OpenBLAS starts no worker unless OPENBLAS_NUM_THREADS says so.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, TextIO

# No command makes a BLAS call (the one matmul is int8 x int64, which numpy
# does without BLAS), yet OpenBLAS starts a worker thread when numpy loads it,
# and that thread costs about half of numpy's import: 140 -> 67 ms, process CPU
# 196 -> 129 ms (medians of 25 fresh processes, 2-core x86-64 host, OpenBLAS
# 0.3.31).  OpenBLAS reads the variable once, when numpy loads it, so it is set
# before the first import that loads numpy; a user's explicit value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# The numerical modules load inside the commands that run them, so that no
# command pays for compiling another's.  sieve_primes stays a module global:
# the benchmark replaces cli.sieve_primes to mark the end of set-up.
from .arith import SQUAREFREE_SIEVE_MAX, sieve_primes

if TYPE_CHECKING:
    from .curve import CurveModel
    from .family_moments import MomentConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_PIPE = 141

PRIME_LIMIT_CAP = 100_000_000  # hard memory cap for auto-extending the sieve
# a_p cost per prime near 1e8: measured 49-63 us in blocks of 8,192 primes just
# below 1e8 (README), with room for the ~30% spread between runs
AP_SECONDS_PER_PRIME_AT_CAP = 0.08e-3
AP_TABLE_BUDGET_S = 600.0  # refuse prime tables whose a_p table is estimated above this
# measured twist costs on a 2-core x86-64 machine (Python 3.11, numpy 2.4), per
# candidate D: 1.8-3.4 us to weigh, sieve, filter and log the conductor (x = 30
# to 1e3, D near 1e5 to 1e6; 0.8-1.0 us at x = 1e4 to 1e5); and per (candidate
# D, prime below x), by how explicit_formula.prime_sides reads the character:
#   table: a prime up to 16 times the rows of a chunk reads its residue
#     table, 2.7 ns at x = 1e4 (the k = 1 sweep: 3.6e5 candidates, 1,229
#     primes, 1.2 s), 2.4 ns at 3e4 (9.8e5 candidates, 3,245 primes, 7.7 s)
#     and 3.6 ns at 1e5 (T = 5e5; the a_p table included);
#   reciprocity: a D whose odd part is at most 16 times the other primes
#     of a block of characters, 15-32 ns (24 to 801 D near 0 at x = 1e4 to
#     1e5, tables included);
#   euler: Euler's criterion elsewhere, 0.14-0.25 us (24 to 801 D near 1e9
#     and 1e12 at x = 1e4 to 1e5);
# and the squarefree sieve's base-prime table, 10 ns per unit of sqrt(max |D|)
# (1.0 s at 1e16).  The prices below are about twice the measured costs.
TWIST_SECONDS_PER_D = 3.5e-6
TWIST_SECONDS_PER_PRIME = {"table": 5e-9, "reciprocity": 0.05e-6, "euler": 0.35e-6}
SIEVE_SECONDS_PER_ROOT_D = 1e-8
# a family is held in memory as columns, about 170 bytes per candidate D
TWIST_CANDIDATE_CAP = 1 << 22
TWIST_BUDGET_S = 600.0  # refuse sweeps and ef-reports whose twists are estimated above this


class UsageError(Exception):
    pass


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


_CONFIG_KEYS = {
    "curve": str,
    "catalog": str,
    "x": float,
    "k": int,
    "dmin": int,
    "dmax": int,
    "T": float,
    "weight": str,
    "support": str,
    "squarefree": bool,
    "coprime": bool,
    "sign": str,
    "format": str,
    "out": str,
    "threads": int,
    "seed": int,
    "only": str,
    "limit": int,
}
_FORMATS = ("csv", "json")


def _parse_config_file(path: str) -> dict:
    """Flat key=value config file; '#' comments; unknown keys rejected."""
    out = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        typ = _CONFIG_KEYS[key]
        try:
            if typ is bool:
                if value.lower() not in ("true", "false", "1", "0", "yes", "no"):
                    raise ValueError(f"not a boolean: {value!r}")
                out[key] = value.lower() in ("true", "1", "yes")
            else:
                out[key] = typ(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return out


def _build_parser() -> _Parser:
    p = _Parser(prog="twistrank", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="key=value config file; flags override it")
        sp.add_argument("--curve", help="catalog label, or explicit 'A,B,N,w,a2,a3'")
        sp.add_argument("--catalog", help="path to a curve catalog file")
        sp.add_argument("--x", type=float, help="prime cutoff x (lambda = log x)")
        sp.add_argument("--format", choices=_FORMATS, help="output format")
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--threads", type=int, help="accepted for compatibility; no effect")
        sp.add_argument("--seed", type=int, help="seed for randomized sampling")

    sp = sub.add_parser("ap-table", help="coefficients a_p and c_{p^2}")
    common(sp)
    sp.add_argument("--limit", type=int, help="include primes p <= limit (default 100)")

    sp = sub.add_parser("ef-report", help="explicit-formula report per twist")
    common(sp)
    sp.add_argument("--dmin", type=int, help="lowest D (default -50)")
    sp.add_argument("--dmax", type=int, help="highest D (default 50)")
    sp.add_argument("--squarefree", action=argparse.BooleanOptionalAction, help="keep squarefree D only")
    sp.add_argument("--coprime", action=argparse.BooleanOptionalAction, help="keep D coprime to 2N only")

    sp = sub.add_parser("sweep", help="weighted moments over a twist family")
    common(sp)
    sp.add_argument("--k", type=int, help="moment order (default 1)")
    sp.add_argument("--T", type=float, dest="T", help="family scale (default X_k(x, k))")
    sp.add_argument("--weight", choices=("exp", "poly"), help="weight shape (default exp)")
    sp.add_argument("--support", help="weight support LO:HI (default 0.5:1)")
    sp.add_argument("--squarefree", action=argparse.BooleanOptionalAction, help="keep squarefree D only (default)")
    sp.add_argument("--coprime", action=argparse.BooleanOptionalAction, help="keep D coprime to 2N only (default)")
    sp.add_argument("--sign", choices=("any", "plus", "minus"), help="root-number filter")

    sp = sub.add_parser("verify", help="run the verification suite")
    common(sp)
    sp.add_argument("--only", help="run one check group (an unknown one lists them)")
    return p


def _merge_config(args: argparse.Namespace) -> dict:
    """The config file's values, overridden by the flags given; a value no
    flag would accept (a non-finite x or T, a format other than csv or json)
    is refused (exit 2) from the file as from the flags."""
    cfg = {}
    if getattr(args, "config", None):
        cfg.update(_parse_config_file(args.config))
    for key in _CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    for key, val in cfg.items():
        if _CONFIG_KEYS[key] is float and not math.isfinite(val):
            raise ConfigError(f"{key} must be finite, got {val}")
    if cfg.get("format", "csv") not in _FORMATS:
        raise ConfigError(f"format must be one of {', '.join(_FORMATS)}, got {cfg['format']!r}")
    return cfg


def _resolve_curve(cfg: dict) -> CurveModel:
    from .curve import CurveModel

    spec = cfg.get("curve", "cm32-like")
    if "," in spec:
        parts = [s.strip() for s in spec.split(",")]
        if len(parts) != 6:
            raise ConfigError("explicit curve needs 6 fields: A,B,N,w,a2,a3")
        try:
            a, b, n, w, a2, a3 = (int(v) for v in parts)
        except ValueError as exc:
            raise ConfigError(f"bad explicit curve spec: {exc}") from exc
        try:
            return CurveModel(A=a, B=b, conductor=n, root_number=w, label="explicit", a2=a2, a3=a3)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    catalog = _load_catalog_cfg(cfg)
    if spec not in catalog:
        raise ConfigError(f"curve {spec!r} not in catalog (have: {', '.join(sorted(catalog))})")
    return catalog[spec]


def _load_catalog_cfg(cfg: dict) -> dict:
    from .curve import builtin_catalog, load_catalog

    if "catalog" in cfg:
        try:
            return load_catalog(cfg["catalog"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"catalog error: {exc}") from exc
    return builtin_catalog()


def _check_prime_table(limit: int, what: str) -> None:
    """Refuse (exit 2) a prime table up to limit above PRIME_LIMIT_CAP or
    whose a_p table is estimated to take longer than AP_TABLE_BUDGET_S."""
    if limit > PRIME_LIMIT_CAP:
        raise ConfigError(
            f"{what} needs a prime table up to {limit:.10g}, above the cap {PRIME_LIMIT_CAP}"
        )
    # about limit / log(limit) primes, each at the a_p cost measured near the
    # cap scaled by (limit / cap)^(1/4), as baby-step giant-step grows with p
    per_prime = AP_SECONDS_PER_PRIME_AT_CAP * (limit / PRIME_LIMIT_CAP) ** 0.25
    estimate = limit / math.log(limit) * per_prime
    if estimate > AP_TABLE_BUDGET_S:
        raise ConfigError(
            f"{what} needs an a_p table up to {limit}, estimated at {estimate / 60:.0f} min, "
            f"above the budget of {AP_TABLE_BUDGET_S / 60:.0f} min"
        )


def _sieve(limit: int, what: str):
    """The primes up to limit, refused (_check_prime_table) before any sieving."""
    _check_prime_table(limit, what)
    return sieve_primes(limit)


def _twist_cost_estimate(ds: range, x: float) -> float:
    """Seconds to evaluate the candidate D of ds (consecutive) over the primes
    below x, each candidate costed as a kept twist: TWIST_SECONDS_PER_D, plus
    a TWIST_SECONDS_PER_PRIME price for each prime by how prime_sides reads
    its character (explicit_formula.character_reads), plus the squarefree
    sieve's table of base primes up to sqrt(max |D|).  The chunks of the
    reads are sized for an eighth of the candidates: a sweep's filters keep
    a fifth or more (about 0.39 of them with no sign filter)."""
    from .explicit_formula import character_reads

    max_d = max(abs(ds[0]), abs(ds[-1])) if ds else 0
    reads = character_reads(len(ds) // 8, max_d, x)
    per_d = TWIST_SECONDS_PER_D + sum(TWIST_SECONDS_PER_PRIME[way] * n for way, n in reads.items())
    return len(ds) * per_d + math.isqrt(max_d) * SIEVE_SECONDS_PER_ROOT_D


def _check_twist_cost(ds: range, x: float, what: str) -> None:
    """Refuse (exit 2), before any enumeration, a run over the candidate D of
    ds with primes below x: when the prime table up to x is refused (first:
    pricing the twists of a huge x overflows), when some |D| passes
    SQUAREFREE_SIEVE_MAX (the sieve's base primes, up to sqrt(|D|), would
    pass PRIME_LIMIT_CAP), when the twists are estimated
    (_twist_cost_estimate) to take longer than TWIST_BUDGET_S, or when ds
    holds more than TWIST_CANDIDATE_CAP candidates."""
    _check_prime_table(max(math.ceil(x), 3), f"x = {x:g}")
    max_d = max(abs(ds[0]), abs(ds[-1])) if ds else 0
    if max_d > SQUAREFREE_SIEVE_MAX:
        raise ConfigError(
            f"{what} reaches |D| = {max_d}, above the cap {SQUAREFREE_SIEVE_MAX}: the "
            f"squarefree sieve would need primes up to sqrt(|D|), above {PRIME_LIMIT_CAP}"
        )
    estimate = _twist_cost_estimate(ds, x)
    if estimate > TWIST_BUDGET_S:
        raise ConfigError(
            f"{what} evaluates up to {len(ds)} twists over about {x / math.log(max(x, 3.0)):.0f} "
            f"primes with |D| up to {max_d}, estimated at {estimate / 60:.0f} min, "
            f"above the budget of {TWIST_BUDGET_S / 60:.0f} min"
        )
    if len(ds) > TWIST_CANDIDATE_CAP:
        raise ConfigError(
            f"{what} holds {len(ds)} candidate D, above the in-memory cap of "
            f"{TWIST_CANDIDATE_CAP}"
        )


def _sieve_for(x: float):
    return _sieve(max(math.ceil(x), 3), f"x = {x:g}")  # primes below e^lambda = x


@contextmanager
def _output(path: Optional[str]) -> Iterator[TextIO]:
    """stdout when path is None, flushed on exit so that a closed pipe raises
    inside main; otherwise the file at path, closed on exit."""
    if path is None:
        yield sys.stdout
        sys.stdout.flush()
    else:
        with open(path, "w") as fh:
            yield fh


def _write_table(cfg: dict, columns: Sequence[str], records: Sequence[dict], out: TextIO) -> None:
    """Write records in the configured format.

    JSON: the list of records with indent 2 and a trailing newline.  CSV: the
    header, then each record's values under columns, booleans as true/false;
    csv writes floats with repr, their shortest round-trip form.
    """
    if cfg.get("format", "csv") == "json":
        json.dump(records, out, indent=2)
        out.write("\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for rec in records:
        values = (rec[c] for c in columns)
        writer.writerow([str(v).lower() if isinstance(v, bool) else v for v in values])


def _parse_support(cfg: dict):
    raw = cfg.get("support", "0.5:1")
    try:
        lo, hi = (float(v) for v in raw.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad support {raw!r}: expected LO:HI") from exc
    return lo, hi


def cmd_ap_table(cfg: dict) -> int:
    from .curve import ap_array, cpm

    curve = _resolve_curve(cfg)
    limit = cfg.get("limit", 100)
    records = []
    if limit >= 2:
        primes = _sieve(limit, f"--limit {limit}")
        columns = (primes.primes, ap_array(curve, primes, limit + 1), cpm(curve, primes, limit + 1, 2))
        records = [{"p": p, "a_p": a, "c_p2": c} for p, a, c in zip(*(v.tolist() for v in columns))]
    with _output(cfg.get("out")) as out:
        _write_table(cfg, ["p", "a_p", "c_p2"], records, out)
    return EXIT_OK


def cmd_ef_report(cfg: dict) -> int:
    from .explicit_formula import CSV_COLUMNS, evaluate_reports
    from .family_moments import filter_twists

    curve = _resolve_curve(cfg)
    x = cfg.get("x", 1e4)
    dmin = cfg.get("dmin", -50)
    dmax = cfg.get("dmax", 50)
    if dmin > dmax:
        raise ConfigError(f"empty D range [{dmin}, {dmax}]")
    ds = range(dmin, dmax + 1)
    _check_twist_cost(ds, x, f"D in [{dmin}, {dmax}] at x = {x:g}")
    primes = _sieve_for(x)
    squarefree, coprime = bool(cfg.get("squarefree")), bool(cfg.get("coprime"))
    twists = filter_twists(curve, ds, squarefree, coprime)
    table = evaluate_reports(twists, math.log(x), primes)
    with _output(cfg.get("out")) as out:
        _write_table(cfg, CSV_COLUMNS, table.records(), out)
    return EXIT_OK


def _sidecar_payload(config: MomentConfig, family) -> dict:
    from .family_moments import (
        GOLDFELD_K1,
        HEATH_BROWN_K1,
        LOWZERO_DENSITY_BASE,
        RANK_DENSITY_BASE,
        SINC_HALF_SQUARED,
        empirical_rank_tail,
        lowzero_density_bound,
        rank_density_bound,
        sign_partition_stats,
        theoretical_moment_bound,
    )

    k = config.k
    # the sign partition is null unless every row is clean, where root numbers are defined
    stats = sign_partition_stats(family) if config.squarefree_only and config.coprime_to_2N else None
    return {
        "heath_brown_k1": HEATH_BROWN_K1,
        "goldfeld_k1": GOLDFELD_K1,
        "theoretical_moment_bound": {"k": k, "value": theoretical_moment_bound(k)},
        "rank_density_base": RANK_DENSITY_BASE,
        "lowzero_density_base": LOWZERO_DENSITY_BASE,
        "sinc_half_squared": SINC_HALF_SQUARED,
        "rank_density_bound": {f"R={r}": rank_density_bound(r) for r in (1, 2, 3)},
        "lowzero_density_bound": {f"k={kk}": lowzero_density_bound(kk) for kk in (1, 2, 3)},
        "empirical_rank_tail": {
            f"R={r}": empirical_rank_tail(family, float(r)) for r in (0, 1, 2)
        },
        "sign_partition": stats,
    }


def cmd_sweep(cfg: dict) -> int:
    from .family_moments import EmptyFamilyError, MomentConfig, sweep_family, weighted_moment
    from .kernel import SmoothWeight

    curve = _resolve_curve(cfg)
    x = cfg.get("x", 1000.0)
    k = cfg.get("k", 1)
    lo, hi = _parse_support(cfg)
    weight = SmoothWeight(lo, hi, shape=cfg.get("weight", "exp"))
    try:
        config = MomentConfig(
            curve=curve,
            k=k,
            x=x,
            weight=weight,
            T=cfg.get("T"),
            squarefree_only=bool(cfg.get("squarefree", True)),
            coprime_to_2N=bool(cfg.get("coprime", True)),
            sign=cfg.get("sign", "any"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _check_twist_cost(config.support_ds(), x, f"a sweep with T = {config.T:g} at x = {x:g}")
    primes = _sieve_for(x)
    try:
        family = sweep_family(config, primes)
    except EmptyFamilyError as exc:
        raise ConfigError(str(exc)) from exc
    record = weighted_moment(config, family).record()
    sidecar = _sidecar_payload(config, family)

    # with --out the sidecar goes to OUT.refs.json, else it follows the table
    out_path = cfg.get("out")
    with _output(out_path) as out:
        _write_table(cfg, list(record), [record], out)
    with _output(None if out_path is None else out_path + ".refs.json") as out:
        json.dump(sidecar, out, indent=2)
        out.write("\n")
    return EXIT_OK


def cmd_verify(cfg: dict) -> int:
    from .verification_lab import run_suite, validate_suite_group

    catalog = _load_catalog_cfg(cfg)
    if "curve" in cfg:
        curves = [_resolve_curve(cfg)]
    else:
        curves = [catalog[label] for label in sorted(catalog)]
    try:
        validate_suite_group(cfg.get("only"))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    x = cfg.get("x", 1e5)
    primes = _sieve_for(max(x, 1e4))
    results = run_suite(
        curves,
        primes,
        x=x,
        seed=cfg.get("seed", 1),
        only=cfg.get("only"),
    )
    n_fail = sum(1 for r in results if not r.passed)
    n_warn = sum(1 for r in results if r.passed and r.note)
    summary = {
        "checks": len(results),
        "passed": len(results) - n_fail,
        "failed": n_fail,
        "warnings": n_warn,
    }
    with _output(cfg.get("out")) as out:
        for res in results:
            out.write(json.dumps(res.to_json_dict()) + "\n")
        out.write(json.dumps({"summary": summary}) + "\n")
    # human-readable summary table
    width = max((len(r.name) for r in results), default=4)
    print(f"{'check'.ljust(width)}  status  ratio/error", file=sys.stderr)
    for r in results:
        status = "FAIL" if not r.passed else ("WARN" if r.note else "ok")
        print(f"{r.name.ljust(width)}  {status:6s}  {r.ratio_or_error:.3e}", file=sys.stderr)
    print(
        f"{len(results)} checks: {len(results) - n_fail} passed, "
        f"{n_fail} failed, {n_warn} warnings",
        file=sys.stderr,
    )
    if n_fail:
        return EXIT_VERIFY
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _merge_config(args)
        if args.command == "ap-table":
            return cmd_ap_table(cfg)
        if args.command == "ef-report":
            return cmd_ef_report(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:
        # stdout's leftover buffer goes to devnull, so the exit flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
