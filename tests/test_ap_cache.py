"""The on-disk a_p tables (curve._ap_path): a warm run writes the bytes of a
cold one, a stored prefix is read as far as a table needs and extended
from its end, and a file that is missing, unreadable, doctored or
unwritable only means the table is computed again."""

import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import test_cli
import twistrank
import twistrank.curve as curve_mod
from twistrank.cli import EXIT_OK, main
from twistrank.curve import CurveModel, _ap_path, ap_array

GOLDEN = test_cli.TestGoldenBytes.CASES


@pytest.fixture
def counted(monkeypatch):
    """The prime blocks handed to the a_p kernel, starting with an empty
    in-process cache: a table read from disk adds none."""
    monkeypatch.setattr(curve_mod, "_AP_CACHE", {})
    calls = []
    kernel = curve_mod._ap_values

    def counting(curve, ps):
        calls.append(ps.tolist())
        return kernel(curve, ps)

    monkeypatch.setattr(curve_mod, "_ap_values", counting)
    return calls


def stored(cache: Path) -> dict:
    """The files of the cache directory by name, as bytes."""
    top = cache / "twistrank"
    return {f.name: f.read_bytes() for f in sorted(top.iterdir())} if top.is_dir() else {}


def run_digests(args, out: Path, suffixes) -> dict:
    assert main(args + ["--out", str(out)]) == EXIT_OK
    return {suffix: hashlib.sha256(Path(f"{out}{suffix}").read_bytes()).hexdigest() for suffix in suffixes}


COLD_WARM = {
    "ap-table-csv": GOLDEN["ap-table-ncm37-1e5"],
    "ap-table-json": GOLDEN["ap-table-cm32-like-1e4-json"],
    "ef-report-csv": GOLDEN["ef-report-ncm37-x5e4"],
    "ef-report-json": GOLDEN["ef-report-ncm37-x5e4-json"],
    "sweep-csv": GOLDEN["sweep-ncm37-k2-minus"],
    "sweep-json": (GOLDEN["sweep-ncm37-k2-minus"][0] + ["--format", "json"], {"": None, ".refs.json": None}),
}


@pytest.mark.parametrize("case", list(COLD_WARM))
def test_cold_and_warm_runs_write_the_same_bytes(case, counted, monkeypatch, tmp_path, ap_cache_home):
    args, golden = COLD_WARM[case]
    cold = run_digests(args, tmp_path / "cold", golden)
    assert counted, "the cold run computes its table"
    assert [name.startswith("ap-v1_") for name in stored(ap_cache_home)] == [True]
    assert cold == {suffix: want or cold[suffix] for suffix, want in golden.items()}
    counted.clear()
    monkeypatch.setattr(curve_mod, "_AP_CACHE", {})  # a new process, as far as a_p goes
    assert run_digests(args, tmp_path / "warm", golden) == cold
    assert counted == []


def test_warm_process_reads_the_table_of_a_cold_one(ap_cache_home):
    args = ["ef-report", "--curve", "ncm37", "--x", "50000", "--dmin", "2211", "--dmax", "2234"]
    env = dict(os.environ, PYTHONPATH=str(Path(twistrank.__file__).resolve().parents[1]))
    outs = [subprocess.run([sys.executable, "-m", "twistrank.cli", *args], capture_output=True, env=env) for _ in "12"]
    assert [proc.returncode for proc in outs] == [EXIT_OK, EXIT_OK]
    assert outs[0].stdout == outs[1].stdout and outs[0].stdout.count(b"\n") == 25
    assert list(stored(ap_cache_home)) == ["ap-v1_-16_16_37_-2_-3.npy"]


def test_file_name_is_the_model_fields(ncm_curve, monkeypatch, tmp_path):
    # label and root number are not in the name; the cache directory is
    # XDG_CACHE_HOME's when that is absolute, else ~/.cache
    relabelled = ncm_curve._replace(label="other", root_number=-ncm_curve.root_number)
    want = str(tmp_path / "xdg" / "twistrank" / "ap-v1_-16_16_37_-2_-3.npy")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert _ap_path(ncm_curve) == _ap_path(relabelled) == want
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    home = str(tmp_path / "home" / ".cache" / "twistrank" / "ap-v1_-16_16_37_-2_-3.npy")
    for value in ("", "relative/cache"):
        monkeypatch.setenv("XDG_CACHE_HOME", value)
        assert _ap_path(ncm_curve) == home
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert _ap_path(ncm_curve) == home
    assert _ap_path(CurveModel(1, 0, 64, 1, a2=None, a3=0)).endswith("ap-v1_1_0_64_None_0.npy")


def test_shorter_file_is_extended_from_its_end(ncm_curve, primes_1e4, counted, monkeypatch, ap_cache_home):
    want = ap_array(ncm_curve, primes_1e4, 1e4)  # cold: computed and written
    curve_mod._AP_CACHE.clear()
    short = ap_array(ncm_curve, primes_1e4, 1e3)  # read back: a prefix of the file
    assert short.tolist() == want[:168].tolist()
    (name,) = stored(ap_cache_home)
    path = ap_cache_home / "twistrank" / name
    np.save(path, want[:168].astype(np.int32))
    curve_mod._AP_CACHE.clear()
    counted.clear()
    monkeypatch.setattr(curve_mod, "_AP_CHUNK", 500)
    assert ap_array(ncm_curve, primes_1e4, 1e4).tolist() == want.tolist()
    ps = primes_1e4.primes.tolist()
    assert counted == [ps[168:668], ps[668:1168], ps[1168:]]  # from the file's end, a chunk a step
    assert np.load(path).tolist() == want.tolist()  # rewritten whole


def test_longer_file_is_read_to_the_prefix_needed(ncm_curve, primes_1e4, counted, ap_cache_home):
    want = ap_array(ncm_curve, primes_1e4, 1e4)
    before = stored(ap_cache_home)
    (path,) = (ap_cache_home / "twistrank").iterdir()
    stamp = path.stat().st_mtime_ns
    for bound, size in ((3, 1), (1e3, 168), (1e4, 1229)):
        curve_mod._AP_CACHE.clear()
        counted.clear()
        got = ap_array(ncm_curve, primes_1e4, bound)
        assert got.tolist() == want[:size].tolist() and counted == [], bound
        assert curve_mod._AP_CACHE[ncm_curve].size == size  # no more than the table needs
    assert stored(ap_cache_home) == before and path.stat().st_mtime_ns == stamp


def _doctor(path: Path, how: str) -> None:
    vals = np.load(path)
    if how == "truncated":
        path.write_bytes(path.read_bytes()[:-10])
    elif how == "header-only":
        path.write_bytes(path.read_bytes()[:40])
    elif how == "empty":
        path.write_bytes(b"")
    elif how == "object":
        np.save(path, vals.astype(object), allow_pickle=True)
    elif how == "pickled":
        path.write_bytes(pickle.dumps(vals.tolist()))
    elif how == "npz":
        with open(path, "wb") as fh:
            np.savez(fh, vals)
    elif how == "float":
        np.save(path, vals.astype(np.float64))
    elif how == "two-dimensional":
        np.save(path, vals[: vals.size // 2 * 2].reshape(2, -1))
    elif how == "negated":
        np.save(path, -vals)
    elif how == "outside-hasse":
        vals[100] = int(2 * np.sqrt(547)) + 1  # the 101st prime is 547
        np.save(path, vals)
    elif how == "wrapped":
        bad = vals.astype(np.int64)
        bad[50] += 1 << 32  # an int32 that a cast would wrap back into range
        np.save(path, bad)
    else:
        raise ValueError(how)


DOCTORED = ["truncated", "header-only", "empty", "object", "pickled", "npz", "float", "two-dimensional"]
DOCTORED += ["negated", "outside-hasse", "wrapped"]


@pytest.mark.parametrize("how", DOCTORED)
@pytest.mark.parametrize("label", ["ncm37", "cm32-like"])
def test_doctored_file_is_recomputed_and_rewritten(how, label, catalog, counted, tmp_path, ap_cache_home):
    args = ["ap-table", "--curve", label, "--limit", "10000"]
    cold = run_digests(args, tmp_path / "cold", [""])
    (name,) = good = stored(ap_cache_home)
    _doctor(ap_cache_home / "twistrank" / name, how)
    curve_mod._AP_CACHE.clear()
    counted.clear()
    assert run_digests(args, tmp_path / "doctored", [""]) == cold
    assert counted, "the doctored table is computed again"
    assert stored(ap_cache_home) == good  # and rewritten, byte for byte


@pytest.mark.parametrize("bound, cm_tail_zero", [(1e4, False), (228, True)])
def test_negated_table_is_caught_by_the_oracle(ncm_curve, cm_curve, primes_1e4, bound, cm_tail_zero):
    # Hasse's bound holds for -a_p, so only the character-sum spot check
    # can refuse a negated table; it reads the largest p < 1e4 with a_p != 0
    # (below 228 the largest four primes of cm32-like, 199 to 227, are all
    # 3 mod 4, where a_p = 0 = -a_p)
    ps = primes_1e4.below(bound)
    for curve in (ncm_curve, cm_curve):
        vals = ap_array(curve, primes_1e4, bound)
        assert (np.square(-vals) <= 4 * ps).all()
        assert curve_mod._ap_valid(curve, vals, ps)
        assert not curve_mod._ap_valid(curve, -vals, ps)
    assert (not ap_array(cm_curve, primes_1e4, bound)[-4:].any()) == cm_tail_zero


def test_a_table_below_the_checked_primes_passes_hasse_alone(ncm_curve, primes_1e4):
    # ps = [2, 3]: no good prime to check, so the bound is the whole test
    assert curve_mod._ap_valid(ncm_curve, np.array([-2, -3]), primes_1e4.primes[:2])
    assert not curve_mod._ap_valid(ncm_curve, np.array([-3, -3]), primes_1e4.primes[:2])


def test_unwritable_cache_directory_changes_nothing(tmp_path, monkeypatch, counted):
    # a regular file where the cache directory should be: every run
    # computes, exits 0 and writes the same bytes, and leaves no file
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    args, golden = GOLDEN["ef-report-ncm37-x5e4"]
    for attempt in ("first", "second"):
        counted.clear()
        curve_mod._AP_CACHE.clear()
        assert run_digests(args, tmp_path / attempt, golden) == golden
        assert counted
    assert blocker.read_text() == ""
    assert sorted(f.name for f in tmp_path.iterdir()) == ["first", "not-a-directory", "second"]


def test_failed_write_leaves_no_file(ncm_curve, primes_1e4, counted, monkeypatch, ap_cache_home):
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(curve_mod.os, "replace", refuse)
    want = ap_array(ncm_curve, primes_1e4, 1e4)
    assert want.size == 1229
    assert list((ap_cache_home / "twistrank").iterdir()) == []  # the temporary file is gone


def test_over_long_name_skips_the_disk(primes_1e3, ap_cache_home, counted):
    huge = CurveModel(A=10**120 + 1, B=10**90 + 7, conductor=1, root_number=1, label="huge", a2=0, a3=0)
    assert _ap_path(huge) is None
    for _ in "12":
        curve_mod._AP_CACHE.clear()
        assert ap_array(huge, primes_1e3, 100).size == 25
    assert len(counted) == 2 and stored(ap_cache_home) == {}


def test_table_outside_hasse_is_not_stored(primes_1e3, ap_cache_home, counted):
    # metadata a_2 past Hasse's bound (and past int32): the table is
    # computed as given, and not written, as it could not be read back
    odd = CurveModel(A=-16, B=16, conductor=37, root_number=1, label="odd", a2=1 << 40, a3=-3)
    assert ap_array(odd, primes_1e3, 100)[0] == 1 << 40
    assert stored(ap_cache_home) == {}
