"""Run one twistrank command in this fresh process and record its timings.

    python3 bench/child.py RESULT_JSON SPANS_FILE|- -- <twistrank arguments>
    python3 bench/child.py RESULT_JSON SPANS_FILE|- -- poisson-group Q... --out PATH

Run from the root of a source checkout: the package is imported from
``./src``.  A twistrank command line goes through ``twistrank.cli.main``,
the function behind the ``twistrank`` command.  ``poisson-group`` runs the
Poisson block of the verification suite for the given moduli only (see
``poisson_group``).  Every call runs in a new process on purpose: the a_p
table, the archimedean integral and the verification fit caches are
process-global, and a command-line user pays for them on every invocation.

With a spans path the outside-in tracer is installed after the import and
the spans are written there when the command returns.  Without one, a single
wrapper on the sieve call marks the end of set-up.  RESULT_JSON receives the
return code, the end of set-up on the shared monotonic clock, the library
versions and, when traced, the tracer's names and counters.  The process
exits with the command's return code.
"""

import json
import os
import sys

import tracer as trace_mod

POISSON_GROUP = "poisson-group"


def poisson_group(args) -> int:
    """``verify --only poisson`` restricted to the moduli in ``args``.

    The same loop as the suite's Poisson block (worst j per (q, l), the same
    weight and truncation) and the same output lines and summary as
    ``twistrank verify``.  The command line always runs all twelve moduli,
    10-15 s per call, too long to take a median over in one run.
    """
    from twistrank import verification_lab as vl

    out_path = args[args.index("--out") + 1]
    results = []
    for q in (int(v) for v in args[: args.index("--out")]):
        T = float(max(400, 150 * q))
        for l in (0, 1):
            w = vl.SmoothWeight(0.5, 1.0, shape="exp", l=l, x=100.0, X_k=T)
            cache = {}
            trunc = max(vl.poisson_required_truncation(w, l, q, j) for j in range(q))
            worst = None
            for j in range(q):
                res = vl.poisson_check(w, l, q, j, trunc, fourier_cache=cache)
                if worst is None or res.ratio_or_error > worst.ratio_or_error:
                    worst = res
            worst.name = f"poisson[q={q},l={l},worst_j]"
            results.append(worst)
    failed = sum(1 for r in results if not r.passed)
    warned = sum(1 for r in results if r.passed and r.note)
    summary = {"checks": len(results), "passed": len(results) - failed, "failed": failed, "warnings": warned}
    with open(out_path, "w") as out:
        for res in results:
            out.write(json.dumps(res.to_json_dict()) + "\n")
        out.write(json.dumps({"summary": summary}) + "\n")
    return 3 if failed else 0


def main() -> int:
    t_enter = trace_mod.clock()
    result_path, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT_JSON SPANS_FILE|- -- ARGS...")
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    tracer = trace_mod.Tracer() if spans_path != "-" else None

    t_import = trace_mod.clock()
    import twistrank.cli as cli

    t_imported = trace_mod.clock()
    setup_end = [t_imported] if argv[0] == POISSON_GROUP else []
    if tracer is not None:
        tracer.add_span(trace_mod.IMPORT_SPAN, t_import, t_imported)
        tracer.install()
    else:
        sieve = cli.sieve_primes

        def timed_sieve(*args, **kwargs):
            table = sieve(*args, **kwargs)
            if not setup_end:
                setup_end.append(trace_mod.clock())
            return table

        cli.sieve_primes = timed_sieve

    if argv[0] == POISSON_GROUP:
        run = poisson_group
        if tracer is not None:
            run = tracer.span("verification_lab.poisson_group", run)
        rc = run(argv[1:])
    else:
        rc = cli.main(argv)

    result = {
        "rc": rc,
        "enter_ns": t_enter,
        "imported_ns": t_imported,
        "package": os.path.dirname(cli.__file__),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
        },
    }
    if tracer is not None:
        result["setup_end_ns"] = setup_end[0] if setup_end else tracer.first_end("arith.sieve_primes")
        result["trace"] = tracer.dump(spans_path)
    else:
        result["setup_end_ns"] = setup_end[0] if setup_end else None
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
