"""Tests of the benchmark itself: output checks, process isolation, trace.

    python3 -m pytest -q bench/test_bench.py

Run from the checkout root.  The isolation and corruption tests use a
sub-second ef-report; the coverage test runs each workload once, traced
(about 25 s in all).
"""

import json
import shutil
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, make_spec, smoke_spec

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def at_root(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)


def _sample(spec, traced, tmp_path, name="slot"):
    return run.run_sample(spec, traced, tmp_path / name, reference=None)


def _flip_digit(text: str) -> str:
    """Change the first decimal digit of prime_m1 in the first data row."""
    lines = text.split("\n")
    fields = lines[1].split(",")
    whole, frac = fields[4].split(".")
    fields[4] = whole + "." + str((int(frac[0]) + 1) % 10) + frac[1:]
    lines[1] = ",".join(fields)
    return "\n".join(lines)


def test_flipped_digit_fails_the_sample(tmp_path):
    spec = smoke_spec()
    good = _sample(spec, False, tmp_path)
    assert good.ok, good.problems

    bad = tmp_path / "bad"
    shutil.copytree(tmp_path / "slot", bad)
    out = bad / "out"
    out.write_text(_flip_digit(out.read_text()))
    digests, problems = run.inspect_outputs(spec, out, reference=good.digests)
    assert digests != good.digests
    assert any("does not reconstruct" in p for p in problems), problems
    assert any("bytes differ" in p for p in problems), problems


def test_second_sample_pays_the_ap_table_again(tmp_path):
    spec = smoke_spec()
    first = _sample(spec, True, tmp_path, "a")
    second = _sample(spec, True, tmp_path, "b")
    assert first.ok and second.ok, first.problems + second.problems
    for s in (first, second):
        assert s.layers["curve.ap_distinct"] == 1229  # primes below 1e4
        assert s.layers["curve.ap_array_s"] > 0.0
    assert first.layers["curve.ap_calls"] == second.layers["curve.ap_calls"]
    assert first.digests == second.digests


def test_reported_metrics_match_benchmark_json(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced = _sample(smoke_spec(), False, tmp_path, "u")
    traced = _sample(smoke_spec(), True, tmp_path, "t")
    e2e = run.end_to_end([untraced], run.machine_scale([run.run_reference()]))
    layers = run.per_layer([untraced, traced])
    assert list(e2e) == [m["name"] for m in declared["end_to_end"]]
    assert sorted(layers) == sorted(m["name"] for m in declared["per_layer"])
    for m in declared["end_to_end"] + declared["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"], m["name"]
    assert all(v > 0 for v in e2e.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_covers_wall_time(workload, tmp_path):
    s = _sample(make_spec(workload, seed=1), True, tmp_path)
    assert s.ok, s.problems
    layers = s.layers
    assert layers["trace.coverage"] >= 0.95
    self_times = {k: v for k, v in layers.items() if k.endswith("_s") and k != "cli.import_s"}
    top = max(self_times, key=self_times.get)
    if workload == "high-lambda":
        assert top == "curve.ap_array_s"
    if workload == "family-sweep":
        assert layers["curve.ap_array_s"] < 0.05 * s.wall_s
        assert top in ("explicit_formula.prime_side_s", "curve.cpm_s")
    if workload == "verify-poisson":
        assert top == "kernel.fourier_s"
        assert layers["kernel.fourier_calls"] > 0
    else:
        assert layers["kernel.fourier_calls"] == 0
