"""Command-line front end.

Subcommands:
  ap-table   CSV/JSON of (p, a_p, c_{p^2}) for p up to a limit
  ef-report  one explicit-formula report per twist D in a range
  sweep      weighted moment table over a twist family, plus a sidecar JSON
             with the reference constants
  verify     the numerical verification suite (one JSON line per check)

Each command takes only the options it reads (twistrank COMMAND --help),
and a --config file sets the same options, a key=value line each: an
option or key the command does not take is refused, not ignored.
--threads is the one exception: every command accepts and ignores it, so
that existing command lines keep running; the process runs one thread, and
OpenBLAS starts no worker unless OPENBLAS_NUM_THREADS says so.

Exit codes: 0 success, 1 usage, 2 data/config, 3 verification failure,
141 (128 + SIGPIPE) when the reader closes stdout early (``| head -2``).
Outputs are deterministic given (config, seed, version): no timestamps,
floats in shortest round-trip form.  The three tables (ap-table, ef-report,
sweep) are written by one writer, _write_table; each command only builds
its columns.
"""

from __future__ import annotations

import argparse
import csv
import gc
import itertools
import math
import os
import sys
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, TextIO

# The one BLAS call, prime_sides' float64 product, is exact at any thread
# count and narrow, so one thread serves it; yet OpenBLAS starts a worker
# thread when numpy loads it, and that thread costs about half of numpy's
# import: 140 -> 67 ms, process CPU 196 -> 129 ms (medians of 25 fresh
# processes, 2-core x86-64 host, OpenBLAS 0.3.31).  OpenBLAS reads the
# variable once, so it is set before the first import that loads numpy; a
# user's explicit value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # after OPENBLAS_NUM_THREADS is set; arith loads numpy in any case

# The numerical modules load inside the commands that run them, so that no
# command pays for compiling another's.  sieve_primes stays a module global:
# the benchmark replaces cli.sieve_primes to mark the end of set-up.
from .arith import _ROW_BLOCK, SQUAREFREE_SIEVE_MAX, ResidueTables, _column_rows, sieve_primes

if TYPE_CHECKING:
    from .curve import CurveModel
    from .family_moments import MomentConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_PIPE = 141

PRIME_LIMIT_CAP = 100_000_000  # hard memory cap for auto-extending the sieve
# measured twist costs on a 2-core x86-64 machine (Python 3.11, numpy 2.4), per
# candidate D: 1.8-3.4 us to weigh, sieve, filter and log the conductor (x = 30
# to 1e3, D near 1e5 to 1e6; 0.8-1.0 us at x = 1e4 to 1e5); and per (candidate
# D, prime below x), by how explicit_formula.prime_sides reads the character:
#   table: a prime up to 16 times the rows of a chunk reads its residue
#     table, 2.0-2.4 ns at x = 1e4 (the k = 1 sweep: 3.6e5 candidates,
#     1,229 primes, 0.87-1.05 s), 2.4-2.6 ns at 3e4 (9.8e5 candidates, 3,245
#     primes, 7.5-8.2 s) and 3.6 ns at 1e5 (T = 5e5; the a_p table included);
#   reciprocity: a D whose odd part is at most 16 times the other primes
#     of a block of characters, 15-32 ns (24 to 801 D near 0 at x = 1e4 to
#     1e5, tables included);
#   euler: Euler's criterion elsewhere, 0.14-0.25 us (24 to 801 D near 1e9
#     and 1e12 at x = 1e4 to 1e5);
# the squarefree sieve's base-prime table, 10 ns per unit of sqrt(max |D|)
# (1.0 s at 1e16); and per row an ef-report writes, 9-11 us as CSV and 19-23
# us as JSON (1e6 D, ncm37 at x = 100).  The prices below are about twice the
# measured costs; the CSV row's was set at 11-15 us, when each row was made
# as a dict, and kept so that no refusal moved.
TWIST_SECONDS_PER_D = 3.5e-6
TWIST_SECONDS_PER_ROW = {"csv": 25e-6, "json": 50e-6}
TWIST_SECONDS_PER_PRIME = {"table": 5e-9, "reciprocity": 0.05e-6, "euler": 0.35e-6}
SIEVE_SECONDS_PER_ROOT_D = 1e-8
TWIST_BUDGET_S = 600.0  # refuse sweeps and ef-reports whose twists are estimated above this
_BOOL_TEXT = np.array(["false", "true"], dtype=object)  # a CSV boolean, by the bool's byte


class UsageError(Exception):
    pass


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


# Every option, declared once: a command takes the ones _COMMANDS names for
# it, as flags and as --config keys, and no other.
_OPTIONS = {
    "curve": {"help": "catalog label, or explicit 'A,B,N,w,a2,a3'"},
    "catalog": {"help": "path to a curve catalog file"},
    "out": {"help": "output path (default stdout)"},
    "threads": {"type": int, "help": "accepted and ignored (the process runs one thread), for existing scripts"},
    "x": {"type": float, "help": "prime cutoff x (lambda = log x)"},
    "format": {"choices": ("csv", "json"), "help": "output format (default csv)"},
    "limit": {"type": int, "help": "include primes p <= limit (default 100)"},
    "dmin": {"type": int, "help": "lowest D (default -50)"},
    "dmax": {"type": int, "help": "highest D (default 50)"},
    "k": {"type": int, "help": "moment order (default 1)"},
    "T": {"type": float, "help": "family scale (default X_k(x, k))"},
    "weight": {"choices": ("exp", "poly"), "help": "weight shape (default exp)"},
    "support": {"help": "weight support LO:HI (default 0.5:1); a negative LO as --support=-1:-0.5"},
    "squarefree": {"action": argparse.BooleanOptionalAction, "help": "keep squarefree D only (sweep: default)"},
    "coprime": {"action": argparse.BooleanOptionalAction, "help": "keep D coprime to 2N only (sweep: default)"},
    "sign": {"choices": ("any", "plus", "minus"), "help": "root-number filter (default any)"},
    "seed": {"type": int, "help": "seed of the random j-sum cases (default 1)"},
    "only": {"help": "run one check group (an unknown one lists them)"},
}
_COMMANDS = {
    "ap-table": ("coefficients a_p and c_{p^2}", "curve catalog out threads format limit"),
    "ef-report": (
        "explicit-formula report per twist",
        "curve catalog out threads x format dmin dmax squarefree coprime",
    ),
    "sweep": (
        "weighted moments over a twist family",
        "curve catalog out threads x format k T weight support squarefree coprime sign",
    ),
    "verify": ("run the verification suite", "curve catalog out threads x seed only"),
}
_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _add_options(p: _Parser, command: str) -> _Parser:
    """p with the options command takes: its flags, and the keys a --config
    file may set for it."""
    for name in _COMMANDS[command][1].split():
        p.add_argument(f"--{name}", **_OPTIONS[name])
    return p


def _parse_config_file(path: str, command: str) -> dict:
    """The values a flat key=value config file sets for command, each line
    read through the command's own options as the flag --key=value (--key
    or --no-key for a switch, from true/false, 1/0 or yes/no); '#' starts
    a comment.  A key the command does not take, or a value its flag would
    refuse, is a config error naming the file and line."""
    parser = _add_options(_Parser(add_help=False, allow_abbrev=False), command)  # keys spelt in full
    values = argparse.Namespace()
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
        key, _, value = (part.strip() for part in line.partition("="))
        flag = f"--{key}={value}"
        if _OPTIONS.get(key, {}).get("action") is argparse.BooleanOptionalAction:
            if value.lower() not in _BOOLEANS:
                raise ConfigError(f"{path}:{lineno}: {key} takes true or false, got {value!r}")
            flag = f"--{key}" if _BOOLEANS[value.lower()] else f"--no-{key}"
        try:
            parser.parse_args([flag], namespace=values)
        except UsageError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return {key: value for key, value in vars(values).items() if value is not None}


def _build_parser() -> _Parser:
    p = _Parser(prog="twistrank", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for command, (summary, _) in _COMMANDS.items():
        sp = _add_options(sub.add_parser(command, help=summary), command)
        sp.add_argument("--config", help="key=value config file, one option above a line; flags override it")
    return p


def _merge_config(args: argparse.Namespace) -> dict:
    """The config file's values, overridden by the flags given; a non-finite
    x or T, or an out that cannot be written, is refused (exit 2) from the
    file as from the flags."""
    cfg = _parse_config_file(args.config, args.command) if args.config else {}
    flags = vars(args).items()
    cfg.update((key, val) for key, val in flags if val is not None and key not in ("command", "config"))
    for key, val in cfg.items():
        if isinstance(val, float) and not math.isfinite(val):
            raise ConfigError(f"{key} must be finite, got {val}")
    if "out" in cfg:  # a sweep writes its sidecar beside the table
        for path in [cfg["out"]] + [cfg["out"] + ".refs.json"] * (args.command == "sweep"):
            _check_writable(path)
    return cfg


def _check_writable(path: str) -> None:
    """Refuse (exit 2), creating nothing, an empty output path, a directory,
    or a path in a missing or unwritable directory or to an unwritable file."""
    target = path if os.path.exists(path) else os.path.dirname(path) or "."
    if not path or os.path.isdir(path):
        raise ConfigError(f"cannot write {path!r}: it names no file")
    if not os.access(target, os.W_OK):
        raise ConfigError(f"cannot write {path}: {target} is missing or not writable")


def _resolve_curve(cfg: dict) -> CurveModel:
    from .curve import parse_curve_fields

    spec = cfg.get("curve", "cm32-like")
    if "," in spec:
        parts = [s.strip() for s in spec.split(",")]
        if len(parts) != 6:
            raise ConfigError("explicit curve needs 6 fields: A,B,N,w,a2,a3")
        try:
            return parse_curve_fields(parts, "explicit")
        except ValueError as exc:
            raise ConfigError(f"bad explicit curve spec: {exc}") from exc
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


def _sig10(n: int) -> str:
    """n to at most 10 significant digits, through Decimal: an int from the
    command line may pass the float range."""
    from decimal import Decimal

    return f"{Decimal(n):.10g}"


def _check_prime_table(limit: int, what: str) -> None:
    """Refuse (exit 2) a prime table up to limit above PRIME_LIMIT_CAP."""
    if limit > PRIME_LIMIT_CAP:
        raise ConfigError(
            f"{what} needs a prime table up to {_sig10(limit)}, above the cap {PRIME_LIMIT_CAP}"
        )


def _sieve(limit: int, what: str):
    """The primes up to limit, refused (_check_prime_table) before any sieving."""
    _check_prime_table(limit, what)
    return sieve_primes(limit)


def _twist_cost_estimate(ds: range, x: float, per_row: float = 0.0) -> float:
    """Seconds to evaluate the candidate D of ds (consecutive) over the primes
    below x, each candidate costed as a kept twist: TWIST_SECONDS_PER_D, plus
    a TWIST_SECONDS_PER_PRIME price for each prime by how prime_sides reads
    its character (explicit_formula.character_reads), plus per_row for
    writing its row (ef-report), plus the squarefree sieve's table of base
    primes up to sqrt(max |D|).  The chunks of the reads are sized for an
    eighth of the candidates: a sweep's filters keep a fifth or more (about
    0.39 of them with no sign filter)."""
    from .explicit_formula import character_reads

    max_d = max(abs(ds[0]), abs(ds[-1])) if ds else 0
    reads = character_reads(len(ds) // 8, max_d, x)
    per_d = TWIST_SECONDS_PER_D + per_row + sum(TWIST_SECONDS_PER_PRIME[way] * n for way, n in reads.items())
    return len(ds) * per_d + math.isqrt(max_d) * SIEVE_SECONDS_PER_ROOT_D


def _check_twist_cost(ds: range, x: float, what: str, per_row: float = 0.0) -> None:
    """Refuse (exit 2), before any enumeration, a run over the candidate D of
    ds with primes below x: when the prime table up to x is refused (first:
    pricing the twists of a huge x overflows), when some |D| passes
    SQUAREFREE_SIEVE_MAX (the sieve's base primes, up to sqrt(|D|), would
    pass PRIME_LIMIT_CAP), or when the twists are estimated
    (_twist_cost_estimate, with per_row) to take longer than TWIST_BUDGET_S."""
    _check_prime_table(max(math.ceil(x), 3), f"x = {x:g}")
    max_d = max(abs(ds[0]), abs(ds[-1])) if ds else 0
    if max_d > SQUAREFREE_SIEVE_MAX:
        raise ConfigError(
            f"{what} reaches |D| = {_sig10(max_d)}, above the cap {SQUAREFREE_SIEVE_MAX}: the "
            f"squarefree sieve would need primes up to sqrt(|D|), above {PRIME_LIMIT_CAP}"
        )
    estimate = _twist_cost_estimate(ds, x, per_row)
    if estimate > TWIST_BUDGET_S:
        raise ConfigError(
            f"{what} evaluates up to {len(ds)} twists over about {x / math.log(max(x, 3.0)):.0f} "
            f"primes with |D| up to {max_d}, estimated at {estimate / 60:.0f} min, "
            f"above the budget of {TWIST_BUDGET_S / 60:.0f} min"
        )


def _sieve_for(x: float):
    return _sieve(max(math.ceil(x), 3), f"x = {x:g}")  # primes below e^lambda = x


def _check_model(curve: CurveModel, primes) -> None:
    """Refuse (exit 2) a curve whose model and conductor N disagree at a
    prime p of the table: a_p takes the bad primes from the model's
    discriminant, the c_{p^m} and the conductor from N.  Every p | N must
    divide the discriminant, every p > 3 dividing it must divide N, and the
    model must be minimal at every p > 3 of N, as a_p reads A = B = 0 mod p
    as additive reduction.  When p^4 | A and p^6 | B the message gives the
    model scaled down by p."""
    from .curve import _mod_each

    ps = primes.primes
    A, B, n = curve.A, curve.B, curve.conductor
    in_n = _mod_each(n, ps) == 0
    in_disc = _mod_each(curve.discriminant, ps) == 0
    # a model not minimal at p has p | gcd(A, B): only those p are checked
    scaled = in_n & (_mod_each(math.gcd(A, B), ps) == 0) & (ps > 3)
    for i in scaled.nonzero()[0].tolist():
        p = int(ps[i])
        scaled[i] = A % p**4 == 0 and B % p**6 == 0
    wrong = (in_n & ~in_disc) | (in_disc & ~in_n & (ps > 3)) | scaled
    if not wrong.any():
        return
    i = int(wrong.argmax())  # the least such p
    p = int(ps[i])
    if not in_disc[i]:
        why = f"p = {p} divides the conductor {n} but not the model's discriminant"
    elif not in_n[i]:
        why = f"p = {p} divides the model's discriminant but not the conductor {n}"
    else:
        why = f"p = {p} divides the conductor {n} and the model's discriminant"
    if A % p**4 == 0 and B % p**6 == 0:
        why += f"; the model is not minimal at {p}: A/{p}^4 = {A // p**4}, B/{p}^6 = {B // p**6}"
    raise ConfigError(f"curve {curve.label or (A, B)} disagrees with its conductor: {why}")


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


def _write_table(cfg: dict, names: Sequence[str], blocks: Iterable[Sequence[np.ndarray]], out: TextIO) -> None:
    """Write a table, given as blocks of equal-length numpy columns under
    names, in the configured format as the blocks come.  JSON: the bytes of
    json.dump of the list of row dicts, indent=2, and a trailing newline,
    made _ROW_BLOCK rows at a time.  CSV: the header, then each block's rows
    (arith._column_rows), a boolean column as true/false, floats by repr."""
    if cfg.get("format", "csv") == "json":
        import json

        rows, sep = (dict(zip(names, row)) for block in blocks for row in _column_rows(*block)), "["
        while chunk := list(itertools.islice(rows, _ROW_BLOCK)):
            out.write(sep + json.dumps(chunk, indent=2)[1:-2])  # the rows, without "[" and "\n]"
            sep = ","
        out.write("[]\n" if sep == "[" else "\n]\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(names)
    for block in blocks:
        writer.writerows(_column_rows(*(_BOOL_TEXT[c.view(np.uint8)] if c.dtype == bool else c for c in block)))


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
    blocks = []
    if limit >= 2:
        primes = _sieve(limit, f"--limit {limit}")
        _check_model(curve, primes)
        blocks = [(primes.primes, ap_array(curve, primes, limit + 1), cpm(curve, primes, limit + 1, 2))]
    with _output(cfg.get("out")) as out:
        _write_table(cfg, ["p", "a_p", "c_p2"], blocks, out)
    return EXIT_OK


def cmd_ef_report(cfg: dict) -> int:
    from .explicit_formula import CSV_COLUMNS, evaluate_reports, twist_windows

    curve = _resolve_curve(cfg)
    x = cfg.get("x", 1e4)
    if not (x > 0.0 and math.log(x) >= 1.0):  # the kernel scale lambda = log x is at least 1
        raise ConfigError(f"x must be at least e (lambda = log x >= 1), got {x:g}")
    dmin = cfg.get("dmin", -50)
    dmax = cfg.get("dmax", 50)
    if dmin > dmax:
        raise ConfigError(f"empty D range [{dmin}, {dmax}]")
    ds = range(dmin, dmax + 1)
    per_row = TWIST_SECONDS_PER_ROW[cfg.get("format", "csv")]
    _check_twist_cost(ds, x, f"D in [{dmin}, {dmax}] at x = {x:g}", per_row)
    primes = _sieve_for(x)
    _check_model(curve, primes)
    windows = twist_windows(curve, ds, bool(cfg.get("squarefree")), bool(cfg.get("coprime")), x)
    residues = ResidueTables()  # for every window
    tables = (evaluate_reports(twists, math.log(x), primes, residues) for twists in windows)
    first = next(tables)  # a refused curve (a conductor past 3e9) fails here, before any output
    names = CSV_COLUMNS + ["twisted_upper_bound"] if cfg.get("format") == "json" else CSV_COLUMNS
    blocks = (itemgetter(*names)(table.columns()) for table in itertools.chain([first], tables))
    with _output(cfg.get("out")) as out:
        _write_table(cfg, names, blocks, out)
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
    import json

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
    _check_model(curve, primes)
    try:
        family = sweep_family(config, primes)
    except EmptyFamilyError as exc:
        raise ConfigError(str(exc)) from exc
    record = weighted_moment(config, family).record()
    sidecar = _sidecar_payload(config, family)

    # with --out the sidecar goes to OUT.refs.json, else it follows the table
    out_path = cfg.get("out")
    with _output(out_path) as out:
        _write_table(cfg, list(record), [[np.array([v]) for v in record.values()]], out)
    with _output(None if out_path is None else out_path + ".refs.json") as out:
        json.dump(sidecar, out, indent=2)
        out.write("\n")
    return EXIT_OK


def cmd_verify(cfg: dict) -> int:
    import json

    from .verification_lab import run_suite, validate_suite_group

    if "curve" in cfg:
        curves = [_resolve_curve(cfg)]
    else:
        catalog = _load_catalog_cfg(cfg)
        curves = [catalog[label] for label in sorted(catalog)]
    try:
        validate_suite_group(cfg.get("only"))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    x = cfg.get("x", 1e5)
    primes = _sieve_for(max(x, 1e4))
    for curve in curves:
        _check_model(curve, primes)
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
    # The heap so far (the interpreter, numpy, this module: about 21k objects)
    # lives until exit.  Frozen, no collection scans it again, the ones at
    # exit included; only the first call in a process freezes.
    if not gc.get_freeze_count():
        gc.freeze()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        run = {"ap-table": cmd_ap_table, "ef-report": cmd_ef_report, "sweep": cmd_sweep, "verify": cmd_verify}
        return run[args.command](_merge_config(args))
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
