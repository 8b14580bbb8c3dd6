"""twistrank benchmark: fresh-process runs with output checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run it from the root of a source checkout.  Workloads (see workloads.py):

  family-sweep    many twists over few primes (sweep, x = 1e3)
  high-lambda     few twists over many primes (ef-report, x = 5e4)
  verify-poisson  the Poisson block of the verification suite, q = 1..4

Each sample is one command in a new process (bench/child.py),
so every sample pays imports, the prime sieve and the a_p table as a user
does.  Samples repeat until ``--seconds`` have passed; a run reports medians
over its samples.  Every sample's output is checked (workloads.py) and its
sha256 compared with the first sample of the run; a nonzero exit, a failed
check or changed bytes make the sample a failed one.

``--trace 0`` reports the end-to-end metrics from untraced samples:
wall_s, items_per_s (twists/s, or Poisson identities/s), setup_s (process
start to the first prime table, imports included) and peak_rss_mb.
``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of the traced ones (tracer.py) with the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Provenance, per-sample
records and output digests go to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS, Spec, check_output, make_spec  # noqa: E402

WORK_DIR = Path(".bench_work")
REFERENCE = HERE / "reference.py"
# Wall time of reference.py the scaled times are expressed for: on a machine
# (or in a phase of one) where the reference takes REFERENCE_S seconds,
# scaled and measured times agree.
REFERENCE_S = 1.2
SAMPLE_TIMEOUT_S = 150.0  # a run must end within 180 s; one sample never gets near this
END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Sample:
    spec: Spec
    traced: bool
    rc: int
    wall_s: float
    peak_rss_mb: float
    setup_s: Optional[float]
    digests: Dict[str, str]
    problems: List[str]
    child: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def require_sources() -> None:
    """Exit without a result unless the current directory is a checkout."""
    if not Path("src/twistrank/cli.py").is_file():
        print(f"error: no src/twistrank/cli.py under {Path.cwd()}; run from a twistrank checkout",
              file=sys.stderr)  # fmt: skip
        sys.exit(2)


def run_sample(spec: Spec, traced: bool, slot: Path, reference: Optional[Dict[str, str]]) -> Sample:
    """Run the spec's command once in a fresh process and check its output."""
    shutil.rmtree(slot, ignore_errors=True)
    slot.mkdir(parents=True)
    out = slot / "out"
    result_path = slot / "child.json"
    spans_path = slot / "spans.bin" if traced else None
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path),
           str(spans_path) if traced else "-", "--"] + spec.command(str(out))  # fmt: skip
    with open(slot / "stdout", "wb") as so, open(slot / "stderr", "wb") as se:
        start = tracer.clock()
        proc = subprocess.Popen(cmd, stdout=so, stderr=se)
        killer = threading.Timer(SAMPLE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = tracer.clock()
    rc = os.waitstatus_to_exitcode(status)
    proc.returncode = rc  # reaped by wait4 (for its rusage), not by Popen
    problems = [] if rc == 0 else [f"exit code {rc}: " + _tail(slot / "stderr")]

    child = {}
    try:
        child = json.loads(result_path.read_text())
    except (OSError, ValueError):
        problems.append("child wrote no result")
    if child and Path(child["package"]).resolve() != (Path.cwd() / "src" / "twistrank").resolve():
        problems.append(f"imported twistrank from {child['package']}, not ./src")

    digests, output_problems = inspect_outputs(spec, out, reference)
    problems += output_problems

    setup_end = child.get("setup_end_ns")
    sample = Sample(
        spec=spec,
        traced=traced,
        rc=rc,
        wall_s=(end - start) / 1e9,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        setup_s=(setup_end - start) / 1e9 if setup_end else None,
        digests=digests,
        problems=problems,
        child=child,
    )
    if traced and "trace" in child and spans_path.exists():
        spans = tracer.read_spans(str(spans_path))
        sample.layers = tracer.layer_metrics(
            child["trace"]["names"], spans, child["trace"]["counts"], end - start
        )
    return sample


def inspect_outputs(spec: Spec, out: Path, reference: Optional[Dict[str, str]]):
    """sha256 of each output file and the problems found in them.

    ``reference`` holds the digests of the first sample of the run: the same
    command must give the same bytes every time.
    """
    texts, digests, problems = [], {}, []
    for suffix in spec.outputs:
        try:
            data = Path(str(out) + suffix).read_bytes()
        except OSError:
            problems.append(f"missing output out{suffix}")
            continue
        digests["out" + suffix] = hashlib.sha256(data).hexdigest()
        texts.append(data.decode("utf-8", "replace"))
    if not problems:
        problems += check_output(spec, texts)
    if reference is not None and digests != reference:
        problems.append("output bytes differ from the first sample of this run")
    return digests, problems


def _tail(path: Path, lines: int = 3) -> str:
    try:
        return " | ".join(path.read_text(errors="replace").strip().splitlines()[-lines:])
    except OSError:
        return ""


def run_reference() -> float:
    """Wall time of one reference.py process, in seconds."""
    start = tracer.clock()
    subprocess.run([sys.executable, str(REFERENCE)], check=True, timeout=SAMPLE_TIMEOUT_S)
    return (tracer.clock() - start) / 1e9


def run_workloads(specs: List[Spec], seconds: float, trace: bool):
    """Round-robin samples over the specs until ``seconds`` have passed.

    Each round of untraced samples is followed by one reference.py sample.
    With trace on, rounds alternate between untraced and traced samples, and
    a run holds at least one of each.  Returns the samples per workload and
    the reference walls.
    """
    samples: Dict[str, List[Sample]] = {s.workload: [] for s in specs}
    reference_walls: List[float] = []
    reference: Dict[str, Dict[str, str]] = {}
    start = tracer.clock()
    step = 0
    while True:
        traced = trace and step % 2 == 1
        for spec in specs:
            slot = WORK_DIR / "samples" / f"{spec.workload}-{os.getpid()}"
            s = run_sample(spec, traced, slot, reference.get(spec.workload))
            reference.setdefault(spec.workload, s.digests)
            samples[spec.workload].append(s)
            if traced:
                keep = WORK_DIR / "last-trace" / spec.workload
                shutil.copytree(slot, keep, dirs_exist_ok=True)
            shutil.rmtree(slot, ignore_errors=True)
        if not traced:
            reference_walls.append(run_reference())
        step += 1
        enough = not trace or step >= 2
        if enough and (tracer.clock() - start) / 1e9 >= seconds:
            return samples, reference_walls


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _timed(samples: List[Sample]) -> List[Sample]:
    """The untraced samples the end-to-end metrics use: the ones that passed,
    or all of them when none did."""
    untraced = [s for s in samples if not s.traced]
    return [s for s in untraced if s.ok] or untraced


def _per_sample(samples: List[Sample]) -> Dict[str, List[float]]:
    timed = _timed(samples)
    return {
        "wall_s": [s.wall_s for s in timed],
        "setup_s": [s.setup_s for s in timed if s.setup_s is not None],
        "peak_rss_mb": [s.peak_rss_mb for s in timed],
    }


def machine_scale(reference_walls: List[float]) -> float:
    """REFERENCE_S / median reference wall: below 1 in a slow phase."""
    return REFERENCE_S / _median(reference_walls)


def end_to_end(samples: List[Sample], scale: float) -> dict:
    """Medians over the timed samples; times multiplied by ``scale``."""
    values = _per_sample(samples)
    wall = _median(values["wall_s"]) * scale
    items = samples[0].spec.items
    return {
        "wall_s": wall,
        "items_per_s": items / wall if wall else 0.0,
        "setup_s": _median(values["setup_s"]) * scale,
        "peak_rss_mb": _median(values["peak_rss_mb"]),
    }


def per_layer(samples: List[Sample]) -> dict:
    traced = [s for s in samples if s.traced and s.layers]
    untraced = [s for s in samples if not s.traced]
    out = {}
    if traced:
        for name in traced[0].layers:
            out[name] = _median([s.layers[name] for s in traced])
    out["trace.overhead_s"] = _median([s.wall_s for s in traced]) - _median([s.wall_s for s in untraced])
    return out


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if ".twist_ms." in name:
        return "ms"
    if name.endswith(("coverage", "reuse")):
        return "ratio"
    return "count"


def provenance(samples: Dict[str, List[Sample]], seed: int, seconds: float, trace: bool) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    first = next((s for ss in samples.values() for s in ss if s.child), None)
    versions = first.child.get("versions", {}) if first else {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "versions": versions or {"python": platform.python_version()},
        "revision": _revision(),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "workloads": {
            name: {
                "command": ["python3", "bench/child.py", "RESULT", "SPANS", "--"]
                + ss[0].spec.command("OUT"),
                "items": ss[0].spec.items,
                "item_kind": ss[0].spec.item_kind,
                "samples": len(ss),
                "traced_samples": sum(1 for s in ss if s.traced),
                "failed": sum(1 for s in ss if not s.ok),
                "output_sha256": ss[0].digests,
            }
            for name, ss in samples.items()
        },
    }


def _revision() -> dict:
    """The git commit when there is one, and a digest of the sources always
    (the benchmark also runs in exported trees without .git)."""
    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path).encode() + b"\0" + path.read_bytes())
    rev = {"src_sha256": digest.hexdigest(), "git": None}
    head = Path(".git/HEAD")
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (Path(".git") / ref[5:]).read_text().strip()
        rev["git"] = ref
    except OSError:
        pass
    return rev


def _spread(values: List[float]) -> str:
    if len(values) < 2:
        return f"{_median(values):.4g}"
    q = statistics.quantiles(values, n=4)
    return f"{_median(values):.4g} [q1 {q[0]:.4g}, q3 {q[2]:.4g}]"


def print_summary(name: str, ss: List[Sample], metrics: dict, trace: bool) -> None:
    """Every metric by name with unit and sample count; for times also the
    measured (unscaled) quartiles."""
    failed = sum(1 for s in ss if not s.ok)
    traced = sum(1 for s in ss if s.traced)
    print(f"== {name}: {len(ss)} samples ({traced} traced), {failed} failed")
    print(f"   command: bench/child.py ... -- {' '.join(ss[0].spec.argv)}")
    if not trace:
        values = _per_sample(ss)
        n_timed = len(values["wall_s"])
        rows = [(key, value, unit_of(key), len(values.get(key, values["wall_s"])))
                for key, value in metrics.items()]  # fmt: skip
        if ss[0].spec.item_kind == "twists":
            rows.append(("twists_per_s", metrics["items_per_s"], "1/s", n_timed))
        rows.append(("error_rate", failed / len(ss), "ratio", len(ss)))
        for key, value, unit, n in rows:
            raw = f"measured {_spread(values[key])}" if key in values else ""
            print(f"   {key:<14} {value:>12.6g} {unit:<6} n={n:<3} {raw}")
    else:
        for key, value in metrics.items():
            print(f"   {key:<36} {value:>14.6g} {unit_of(key)}")
        missing = {m for s in ss for m in s.child.get("trace", {}).get("missing", [])}
        if missing:
            print(f"   not in this version of the program, so not traced: {', '.join(sorted(missing))}")
    for s in ss:
        for problem in s.problems:
            print(f"   FAILED sample: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_sources()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    specs = [make_spec(name, args.seed) for name in names]
    samples, reference_walls = run_workloads(specs, args.seconds, bool(args.trace))
    scale = machine_scale(reference_walls)
    print(f"machine scale {scale:.4g}: reference.py median {_spread(reference_walls)} s "
          f"over {len(reference_walls)} runs, times scaled to {REFERENCE_S} s")  # fmt: skip

    results = {}
    for name, ss in samples.items():
        metrics = per_layer(ss) if args.trace else end_to_end(ss, scale)
        print_summary(name, ss, metrics, bool(args.trace))
        failed = sum(1 for s in ss if not s.ok)
        results[name] = {
            "correct": failed == 0,
            "attempted": len(ss),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        }

    prov = provenance(samples, args.seed, args.seconds, bool(args.trace))
    print("provenance: " + json.dumps(prov, sort_keys=True))
    record = {
        "provenance": prov,
        "results": results,
        "reference_walls": reference_walls,
        "machine_scale": scale,
        "samples": {
            name: [
                {"traced": s.traced, "rc": s.rc, "wall_s": s.wall_s, "setup_s": s.setup_s,
                 "peak_rss_mb": s.peak_rss_mb, "sha256": s.digests, "problems": s.problems,
                 "layers": s.layers}  # fmt: skip
                for s in ss
            ]
            for name, ss in samples.items()
        },
    }
    out_dir = WORK_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / tag).write_text(json.dumps(record, indent=1) + "\n")

    if args.workload == "all":
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
