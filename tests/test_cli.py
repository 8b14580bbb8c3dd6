import hashlib
import importlib
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import twistrank
import twistrank.arith as arith_mod
import twistrank.cli as cli_mod
import twistrank.curve as curve_mod
import twistrank.explicit_formula as ef_mod
import twistrank.family_moments as fm
import twistrank.verification_lab as vl
from twistrank.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_USAGE,
    PRIME_LIMIT_CAP,
    main,
)
from twistrank.explicit_formula import CSV_COLUMNS, evaluate_reports
from twistrank.family_moments import MomentConfig, filter_twists
from twistrank.kernel import SmoothWeight


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def no_sieve(limit):
    raise AssertionError(f"sieve started for limit {limit}")


class TestApTable:
    def test_small_table(self, capsys):
        code, out, _ = run(["ap-table", "--curve", "cm32-like", "--limit", "10"], capsys)
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "p,a_p,c_p2"
        rows = {int(l.split(",")[0]): l.split(",") for l in lines[1:]}
        assert sorted(rows) == [2, 3, 5, 7]
        assert rows[3][1] == "0"
        assert rows[5][1] == "2"

    def test_empty_limit(self, capsys):
        code, out, _ = run(["ap-table", "--curve", "cm32-like", "--limit", "1"], capsys)
        assert code == EXIT_OK
        assert out.strip() == "p,a_p,c_p2"

    def test_json_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "ap.json"
        code, _, _ = run(
            ["ap-table", "--curve", "ncm37", "--limit", "30", "--format", "json", "--out", str(out_path)],
            capsys,
        )
        assert code == EXIT_OK
        data = json.loads(out_path.read_text())
        by_p = {row["p"]: row for row in data}
        assert by_p[2]["a_p"] == -2
        assert by_p[3]["c_p2"] == 3  # (-3)^2 - 2*3

    def test_explicit_curve(self, capsys):
        code, out, _ = run(
            ["ap-table", "--curve", "1,0,64,1,0,0", "--limit", "10"], capsys
        )
        assert code == EXIT_OK
        assert "5,2," in out

    def test_limit_above_cap_refused(self, monkeypatch, capsys):
        monkeypatch.setattr(cli_mod, "sieve_primes", no_sieve)
        code, out, err = run(["ap-table", "--limit", "100000001"], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "config error: --limit 100000001 needs a prime table up to 100000001, above the cap 100000000\n"

    def test_limit_past_float_range_refused(self, monkeypatch, capsys):
        # the message prints the limit to 10 digits without a float, which
        # overflows past 1e308
        monkeypatch.setattr(cli_mod, "sieve_primes", no_sieve)
        code, out, err = run(["ap-table", "--limit", str(10**400)], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert "prime table up to 1.000000000e+400, above the cap" in err, err

    def test_cap_reaches_sieve(self, monkeypatch):
        # the cap is the whole admission rule: the table at the cap is sieved
        class Sieved(Exception):
            pass

        def sentinel(limit):
            raise Sieved(limit)

        monkeypatch.setattr(cli_mod, "sieve_primes", sentinel)
        with pytest.raises(Sieved):
            main(["ap-table", "--limit", str(PRIME_LIMIT_CAP)])

    # sha256 of `ap-table --curve ncm37 --limit 100000 --format json`: the
    # rows made a block at a time give the bytes of one list of every record
    JSON_1E5_SHA256 = "34facc02dd0ab3c17f50afc57d96ab91ee8f9ae3d894cfaa73971d9d3830106e"

    def test_json_rows_in_blocks_unchanged(self, tmp_path, capsys):
        out = tmp_path / "ap.json"
        args = ["ap-table", "--curve", "ncm37", "--limit", "100000", "--format", "json", "--out", str(out)]
        assert run(args, capsys)[0] == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.JSON_1E5_SHA256

    def test_memory_per_row(self):
        # the rows are made a block at a time from the three columns: peak
        # RSS grows by less than 120 bytes per row between 2e5 and 1e6
        # (about 40 measured; about 370 with every row held as a dict)
        env = dict(os.environ, PYTHONPATH=str(Path(twistrank.__file__).resolve().parents[1]))

        def peak_rss(limit):
            args = ["ap-table", "--curve", "ncm37", "--limit", str(limit)]
            proc = subprocess.Popen([sys.executable, "-m", "twistrank.cli", *args], stdout=subprocess.DEVNULL, env=env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            assert proc.returncode == EXIT_OK
            return usage.ru_maxrss * 1024  # kilobytes on Linux

        rows = len(cli_mod.sieve_primes(1_000_000)) - len(cli_mod.sieve_primes(200_000))
        per_row = (peak_rss(1_000_000) - peak_rss(200_000)) / rows
        assert per_row < 120, per_row


class TestUsageAndConfigErrors:
    def test_unknown_curve(self, capsys):
        code, _, err = run(["ap-table", "--curve", "nope"], capsys)
        assert code == EXIT_CONFIG
        assert "not in catalog" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(["ap-table", "--zzz", "1"], capsys)
        assert code == EXIT_USAGE

    def test_unknown_verify_group(self, capsys):
        code, _, err = run(["verify", "--only", "bogus"], capsys)
        assert code == EXIT_USAGE
        assert "unknown check" in err

    def test_config_file_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("curve=cm32-like\nwibble=3\n")
        code, _, err = run(["ap-table", "--config", str(cfg)], capsys)
        assert code == EXIT_CONFIG
        assert "wibble" in err

    def test_config_file_values_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\ncurve=cm32-like\nlimit=10\n")
        code, out, _ = run(["ap-table", "--config", str(cfg)], capsys)
        assert code == EXIT_OK
        assert "5,2," in out
        code, out, _ = run(["ap-table", "--config", str(cfg), "--limit", "4"], capsys)
        assert code == EXIT_OK
        assert "5,2," not in out

    def test_bad_support(self, capsys):
        code, _, err = run(["sweep", "--support", "oops"], capsys)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, key",
        [("ef-report", "x"), ("sweep", "x"), ("sweep", "T"), ("verify", "x")],
    )
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_float_refused(self, tmp_path, capsys, monkeypatch, command, key, value):
        # refused before any sieve, from a flag and from a config file alike
        monkeypatch.setattr(cli_mod, "sieve_primes", no_sieve)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        for args in ([command, f"--{key}={value}"], [command, "--config", str(cfg)]):
            code, out, err = run(args, capsys)
            assert (code, out) == (EXIT_CONFIG, ""), args
            assert f"{key} must be finite" in err

    @pytest.mark.parametrize("command", ["ap-table", "ef-report", "sweep"])
    def test_config_file_format_outside_choices(self, tmp_path, capsys, monkeypatch, command):
        # --format xml is a usage error; the same value from a file must not
        # fall back to CSV
        monkeypatch.setattr(cli_mod, "sieve_primes", no_sieve)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=xml\n")
        code, out, err = run([command, "--config", str(cfg)], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert f"{cfg}:1: " in err and "--format" in err and "'xml'" in err, err
        code, _, _ = run([command, "--format", "xml"], capsys)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "args",
        [
            ["ap-table", "--x", "1e6"],
            ["ap-table", "--seed", "1"],
            ["ef-report", "--seed", "1"],
            ["sweep", "--seed", "1"],
            ["verify", "--format", "csv"],
        ],
    )
    def test_option_the_command_does_not_take(self, capsys, monkeypatch, args):
        # each command takes only the options it reads: any other is a
        # usage error, refused before any sieve
        monkeypatch.setattr(cli_mod, "sieve_primes", no_sieve)
        code, out, err = run(args, capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert args[1] in err

    @pytest.mark.parametrize(
        "command, line",
        [
            ("sweep", "limit=5"),
            ("ap-table", "x=1e6"),
            ("ef-report", "seed=2"),
            ("verify", "format=json"),
        ]
        + [(command, "config=other.cfg") for command in ("ap-table", "ef-report", "sweep", "verify")],
    )
    def test_config_key_the_command_does_not_take(self, tmp_path, capsys, monkeypatch, command, line):
        # a config file sets the command's own options and no other: the
        # key is refused with the file and line, not ignored
        monkeypatch.setattr(cli_mod, "sieve_primes", no_sieve)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# {command}\ncurve=ncm37\n{line}\n")
        code, out, err = run([command, "--config", str(cfg)], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        key = line.split("=")[0]
        assert f"{cfg}:3: " in err and f"--{key}=" in err, err

    @pytest.mark.parametrize("line", ["weight=foo", "sign=foo", "squarefree=maybe", "k=1.5"])
    def test_config_value_the_flag_refuses(self, tmp_path, capsys, monkeypatch, line):
        monkeypatch.setattr(cli_mod, "sieve_primes", no_sieve)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"x=200\n{line}\n")
        code, out, err = run(["sweep", "--config", str(cfg)], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        key, value = line.split("=")
        assert f"{cfg}:2: " in err and key in err and repr(value) in err, err

    @pytest.mark.parametrize(
        "args",
        [
            ["ap-table", "--curve", "ncm37", "--limit", "50"],
            ["ef-report", "--curve", "ncm37", "--x", "500", "--dmin", "-3", "--dmax", "3"],
            ["sweep", "--curve", "cm32-like", "--x", "200", "--T", "420"],
            ["verify", "--only", "gauss", "--x", "10000"],
        ],
        ids=["ap-table", "ef-report", "sweep", "verify"],
    )
    def test_threads_accepted_and_ignored(self, tmp_path, capsys, args):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads=3\n")
        outputs = set()
        for extra in ([], ["--threads", "3"], ["--config", str(cfg)]):
            code, out, _ = run(args + extra, capsys)
            assert code == EXIT_OK, extra
            outputs.add(out)
        assert len(outputs) == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["ef-report", "--curve", "ncm37", "--dmin", "1", "--dmax", "5"],
            ["sweep", "--curve", "cm32-like", "--x", "200", "--T", "420"],
            ["verify", "--only", "gauss"],
            ["ap-table", "--curve", "ncm37", "--limit", "50"],
        ],
        ids=["ef-report", "sweep", "verify", "ap-table"],
    )
    def test_unwritable_out_refused_before_any_work(self, tmp_path, capsys, monkeypatch, args):
        # a missing directory, a directory, and (for a sweep) a sidecar path
        # that is a directory: exit 2 before the sieve, creating nothing
        monkeypatch.setattr(cli_mod, "sieve_primes", no_sieve)
        (tmp_path / "taken.csv.refs.json").mkdir()
        paths = [tmp_path / "missing" / "x.csv", tmp_path] + [tmp_path / "taken.csv"] * (args[0] == "sweep")
        for path in paths:
            code, out, err = run(args + ["--out", str(path)], capsys)
            assert (code, out) == (EXIT_CONFIG, "")
            assert err.startswith("config error: cannot write ") and "Traceback" not in err, err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["taken.csv.refs.json"]


class TestCurveRecords:
    """An explicit --curve and a catalog line go through one parser,
    curve.parse_curve_fields; a catalog error names its file and line."""

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("1,2,3", "explicit curve needs 6 fields: A,B,N,w,a2,a3"),
            (
                "1.5,0,64,1,0,0",
                "bad explicit curve spec: non-integer field: invalid literal for int() with base 10: '1.5'",
            ),
            ("0,0,11,1,-2,-1", "bad explicit curve spec: singular model A=0, B=0"),
            ("1,0,64,2,0,0", "bad explicit curve spec: root number must be +-1, got 2"),
        ],
        ids=["3-fields", "float", "singular", "root-number-2"],
    )
    def test_explicit_curve_errors(self, capsys, monkeypatch, spec, message):
        monkeypatch.setattr(cli_mod, "sieve_primes", no_sieve)
        code, out, err = run(["ap-table", "--curve", spec], capsys)
        assert (code, out, err) == (EXIT_CONFIG, "", f"config error: {message}\n")

    def test_catalog_error_names_file_and_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli_mod, "sieve_primes", no_sieve)
        cat = tmp_path / "bad.cat"
        cat.write_text("good, 1, 0, 64, 1, 0, 0\nbad, 0, 0, 11, 1, -2, -1\n")
        code, out, err = run(["ap-table", "--catalog", str(cat), "--curve", "good"], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"config error: catalog error: {cat}:2: singular model A=0, B=0\n"

    # 11a1's short model y^2 = x^3 - 13392 x - 1080432 scaled by 5, and a
    # model with discriminant -2^8 7 under the conductor 3
    SCALED_11A1 = "-8370000,-16881750000,11,1,-2,-1"
    SCALED_MESSAGE = (
        "config error: curve explicit disagrees with its conductor: p = 5 divides the model's "
        "discriminant but not the conductor 11; the model is not minimal at 5: "
        "A/5^4 = -13392, B/5^6 = -1080432\n"
    )
    # 11a1 scaled by 11, a prime of its conductor: 11 divides N and the
    # discriminant, but a_11 would read the model as additive
    SCALED_AT_11 = "-196072272,-1914051194352,11,1,-2,-1"
    SCALED_AT_11_MESSAGE = (
        "config error: curve explicit disagrees with its conductor: p = 11 divides the conductor 11 "
        "and the model's discriminant; the model is not minimal at 11: "
        "A/11^4 = -13392, B/11^6 = -1080432\n"
    )
    NODE_AT_7 = "1,2,3,1,0,0"
    NODE_MESSAGE = (
        "config error: curve explicit disagrees with its conductor: p = 3 divides the conductor 3 "
        "but not the model's discriminant\n"
    )

    @pytest.mark.parametrize(
        "args",
        [
            ["ap-table", "--limit", "30"],
            ["ef-report", "--x", "1000"],
            ["sweep", "--x", "200", "--T", "420"],
            ["verify", "--only", "gauss", "--x", "10000"],
        ],
        ids=["ap-table", "ef-report", "sweep", "verify"],
    )
    def test_model_disagreeing_with_conductor_refused(self, capsys, args):
        # a_p takes the bad primes from the discriminant, c_{p^m} and the
        # conductor from N: every command refuses a model where they differ
        for spec, message in (
            (self.SCALED_11A1, self.SCALED_MESSAGE),
            (self.NODE_AT_7, self.NODE_MESSAGE),
            (self.SCALED_AT_11, self.SCALED_AT_11_MESSAGE),
        ):
            code, out, err = run(args[:1] + [f"--curve={spec}"] + args[1:], capsys)
            assert (code, out, err) == (EXIT_CONFIG, "", message), spec

    def test_minimal_model_and_catalog_run(self, capsys):
        for spec in ("-13392,-1080432,11,1,-2,-1", "1,0,64,1,0,0", "cm32-like", "ncm37"):
            code, out, _ = run(["ap-table", f"--curve={spec}", "--limit", "30"], capsys)
            assert code == EXIT_OK and out.count("\n") == 11, spec
        code, out, _ = run(["ap-table", "--curve=-13392,-1080432,11,1,-2,-1", "--limit", "30"], capsys)
        rows = {int(line.split(",")[0]): line for line in out.splitlines()[1:]}
        assert (rows[5], rows[7]) == ("5,1,-9", "7,-2,-10")  # 11a1: a_5 = 1, a_7 = -2
        code, _, _ = run(["verify", "--only", "gauss", "--x", "10000"], capsys)
        assert code == EXIT_OK

    def test_verify_reads_the_catalog_once(self, capsys, monkeypatch):
        calls = []
        builtin = curve_mod.builtin_catalog
        monkeypatch.setattr(curve_mod, "builtin_catalog", lambda: calls.append(1) or builtin())
        code, _, _ = run(["verify", "--curve", "ncm37", "--only", "gauss", "--x", "10000"], capsys)
        assert code == EXIT_OK and len(calls) == 1


class TestEfReport:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_window_held_at_a_time(self, tmp_path, monkeypatch, fmt):
        # windows of 37 D: when a window is evaluated, no column of the one
        # before is referenced any more (by the writer or the generators
        # that feed it), so peak memory is one window, not several
        monkeypatch.setattr(ef_mod, "_WINDOW_D", 37)
        monkeypatch.setattr(ef_mod, "_CHUNK_SPAN_PER_PRIME", 1e-9)
        earlier = []
        evaluate = ef_mod.evaluate_reports

        def tracked(twists, *args):
            assert [ref() for ref in earlier] == [None] * len(earlier)
            table = evaluate(twists, *args)
            earlier.extend(weakref.ref(column) for column in (twists.D, table.total_S, table.prime_sum_m1))
            return table

        monkeypatch.setattr(ef_mod, "evaluate_reports", tracked)
        args = ["ef-report", "--curve", "ncm37", "--x", "300", "--dmin", "1", "--dmax", "200", "--format", fmt]
        assert main(args + ["--out", str(tmp_path / "out")]) == EXIT_OK
        assert len(earlier) == 3 * 6

    def test_sorted_rows_and_rerun_identical(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = [
            "ef-report",
            "--curve",
            "cm32-like",
            "--x",
            "500",
            "--dmin",
            "-12",
            "--dmax",
            "12",
            "--squarefree",
            "--coprime",
        ]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        ds = [int(l.split(",")[0]) for l in lines[1:]]
        assert ds == sorted(ds)
        assert all(d % 2 == 1 for d in ds)
        capsys.readouterr()

    def test_no_filter_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "filtered.cfg"
        cfg.write_text("squarefree=true\ncoprime=true\n")
        args = ["ef-report", "--curve", "ncm37", "--x", "300", "--dmin", "-30", "--dmax", "30"]
        code, unfiltered, _ = run(args, capsys)
        assert code == EXIT_OK and len(unfiltered.splitlines()) == 61
        code, filtered, _ = run(args + ["--config", str(cfg)], capsys)
        assert code == EXIT_OK and filtered != unfiltered
        code, out, _ = run(args + ["--config", str(cfg), "--no-squarefree", "--no-coprime"], capsys)
        assert code == EXIT_OK and out == unfiltered

    def test_trivial_twist_row(self, capsys):
        code, out, _ = run(
            ["ef-report", "--curve", "ncm37", "--x", "500", "--dmin", "1", "--dmax", "1"],
            capsys,
        )
        assert code == EXIT_OK
        row = out.splitlines()[1].split(",")
        assert row[0] == "1"
        assert float(row[2]) == math.log(37)
        assert row[3] == "true"

    def test_no_rows_writes_the_empty_table(self, capsys):
        # D = 4 is not squarefree: the CSV is its header alone, the JSON an empty list
        args = ["ef-report", "--curve", "ncm37", "--dmin", "4", "--dmax", "4", "--squarefree"]
        assert run(args, capsys)[:2] == (EXIT_OK, ",".join(CSV_COLUMNS) + "\n")
        assert run(args + ["--format", "json"], capsys)[:2] == (EXIT_OK, "[]\n")

    def test_excessive_x_refused(self, tmp_path, monkeypatch, capsys):
        # every x above the prime-table cap is refused with the cap message,
        # from the flags and from a config file, before the twists are priced
        # (that overflows a float near 1e308) and before any sieving
        monkeypatch.setattr(cli_mod, "sieve_primes", no_sieve)
        cfg = tmp_path / "x.cfg"
        for x in ("1e9", "1e200", "1e308"):
            cfg.write_text(f"x={x}\n")
            for command in (["ef-report", "--dmin", "1", "--dmax", "1"], ["sweep", "--T", "100"]):
                for args in (command + ["--x", x], command + ["--config", str(cfg)]):
                    code, out, err = run(args + ["--curve", "cm32-like"], capsys)
                    assert code == EXIT_CONFIG, args
                    assert "needs a prime table" in err and "above the cap" in err, err
                    assert out == ""

    @pytest.mark.parametrize("x", ["0", "-5", "1", "2"])
    def test_x_below_e_refused(self, x, monkeypatch, capsys):
        # lambda = log x must be at least 1: refused with a message naming x,
        # before any sieving
        monkeypatch.setattr(cli_mod, "sieve_primes", no_sieve)
        code, out, err = run(["ef-report", "--curve", "ncm37", "--x", x, "--dmin", "1", "--dmax", "1"], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert f"x must be at least e (lambda = log x >= 1), got {x}" in err, err

    def test_x_at_e_runs(self, capsys):
        code, out, _ = run(
            ["ef-report", "--curve", "ncm37", "--x", repr(math.e), "--dmin", "1", "--dmax", "1"], capsys
        )
        assert code == EXIT_OK
        assert out.splitlines()[1].split(",")[:2] == ["1", "1.0"]


    @pytest.mark.parametrize("command", [["ef-report", "--dmin", "1", "--dmax", "5"], ["sweep", "--T", "60"]])
    def test_conductor_past_3e9_refused_without_file(self, tmp_path, capsys, command):
        # y^2 = x^3 + x with N = 3000000019: the root numbers' symbols are
        # exact only below 3e9; the refusal comes before the output opens
        out = tmp_path / "never.csv"
        args = command + ["--curve=1,0,3000000019,1,0,0", "--x", "100", "--out", str(out)]
        code, _, err = run(args, capsys)
        assert code == EXIT_CONFIG and "conductor below 3000000000" in err, err
        assert not out.exists()

    def test_memory_per_row(self):
        # the rows are written as they are made, a block at a time, and the
        # conductor bounds logged a block at a time: peak RSS grows by less
        # than 160 bytes per row between 5e4 and 1.5e5 rows (about 80
        # measured; about 250 with the bounds as one list, about 380 with
        # whole columns as lists, about 900 with the records held as one list)
        env = dict(os.environ, PYTHONPATH=str(Path(twistrank.__file__).resolve().parents[1]))

        def peak_rss(rows):
            args = ["ef-report", "--curve", "ncm37", "--x", "100", "--dmin", "1", "--dmax", str(rows)]
            proc = subprocess.Popen([sys.executable, "-m", "twistrank.cli", *args], stdout=subprocess.DEVNULL, env=env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            assert proc.returncode == EXIT_OK
            return usage.ru_maxrss * 1024  # kilobytes on Linux

        per_row = (peak_rss(150_000) - peak_rss(50_000)) / 100_000
        assert per_row < 160, per_row


class TestSweep:
    def test_sidecar_constants(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            [
                "sweep",
                "--curve",
                "cm32-like",
                "--x",
                "200",
                "--k",
                "1",
                "--T",
                "420",
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == EXIT_OK
        side = json.loads((tmp_path / "sweep.csv.refs.json").read_text())
        assert side["heath_brown_k1"] == 1.5
        assert side["goldfeld_k1"] == 3.25
        assert side["rank_density_base"] == 1.44467
        assert side["lowzero_density_base"] == 1.402408
        assert side["sinc_half_squared"] == 0.9193953884
        assert side["theoretical_moment_bound"]["value"] == 1.5
        header = out.read_text().splitlines()[0]
        assert header.startswith("k,x,T,")

    def test_k2_sidecar_bound(self, tmp_path, capsys):
        out = tmp_path / "s2.csv"
        code, _, _ = run(
            ["sweep", "--curve", "cm32-like", "--x", "200", "--k", "2", "--T", "420", "--out", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        side = json.loads((tmp_path / "s2.csv.refs.json").read_text())
        assert side["theoretical_moment_bound"]["value"] == pytest.approx(6.25 + 1 / 3, rel=1e-14)

    def test_no_filter_flags_match_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "unfiltered.cfg"
        cfg.write_text("squarefree=false\ncoprime=false\n")
        args = ["sweep", "--curve", "cm32-like", "--x", "200", "--T", "60"]
        code, by_flags, _ = run(args + ["--no-squarefree", "--no-coprime"], capsys)
        assert code == EXIT_OK
        assert by_flags.splitlines()[1].split(",")[3] == "sign=any"
        code, by_file, _ = run(args + ["--config", str(cfg)], capsys)
        assert code == EXIT_OK and by_file == by_flags
        code, out, _ = run(args + ["--config", str(cfg), "--squarefree", "--coprime"], capsys)
        assert code == EXIT_OK
        assert out.splitlines()[1].split(",")[3] == "squarefree+coprime+sign=any"

    def test_memory_flat_across_windows(self):
        # a sweep walks its support in windows of 2^18 D: peak RSS grows by
        # less than 25 bytes per candidate D from 1e6 to 2e6 candidates
        # (about 4 measured; about 100 when the family was held as columns)
        env = dict(os.environ, PYTHONPATH=str(Path(twistrank.__file__).resolve().parents[1]))

        def peak_rss(T):
            args = ["sweep", "--x", "30", "--T", T]
            proc = subprocess.Popen([sys.executable, "-m", "twistrank.cli", *args], stdout=subprocess.DEVNULL, env=env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            assert proc.returncode == EXIT_OK
            return usage.ru_maxrss * 1024  # kilobytes on Linux

        per_candidate = (peak_rss("4e6") - peak_rss("2e6")) / 1e6
        assert per_candidate < 25, per_candidate

    def test_empty_family_exits_2_without_file(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code, _, err = run(
            ["sweep", "--curve", "cm32-like", "--x", "200", "--T", "2", "--out", str(out)],
            capsys,
        )
        assert code == EXIT_CONFIG
        assert not out.exists()


class TestTwistBudget:
    @pytest.fixture
    def no_enumeration(self, monkeypatch):
        # nothing may enumerate: a refused run must not start its windows
        def no_enumeration(*args, **kwargs):
            raise AssertionError("twist enumeration started")

        monkeypatch.setattr(fm, "twist_windows", no_enumeration)
        monkeypatch.setattr(ef_mod, "twist_windows", no_enumeration)
        monkeypatch.setattr(fm, "filter_twists", no_enumeration)
        monkeypatch.setattr(curve_mod, "filter_twists", no_enumeration)
        monkeypatch.setattr(curve_mod, "twist_columns", no_enumeration)
        monkeypatch.setattr(curve_mod, "squarefree_kernels", no_enumeration)
        monkeypatch.setattr(cli_mod, "sieve_primes", no_sieve)

    def test_over_budget_refused_before_enumeration(self, no_enumeration, capsys):
        for args in (
            # 2e6 candidates over 72,382 primes read from tables: 12 min
            ["sweep", "--curve", "cm32-like", "--x", "1e6", "--T", "4e6"],
            # 1e5 D near 1e12 over 6.2e5 primes, all but 16,385 by Euler's criterion: 6 h
            ["ef-report", "--x", "1e7", "--dmin", str(10**12), "--dmax", str(10**12 + 10**5)],
            # 2e7 D at x = 1e4: 3.0 min of twists, 11 min with the rows written
            ["ef-report", "--x", "1e4", "--dmin", "-10000000", "--dmax", "10000000"],
        ):
            code, out, err = run(args, capsys)
            assert code == EXIT_CONFIG, args
            assert "twists over about" in err and "estimated at" in err, err
            assert "budget of 10 min" in err, err
            assert out == ""

    def test_beyond_sieve_cap_refused(self, no_enumeration, capsys):
        # |D| above 1e16 needs base primes past the prime-table cap
        for args, reason in (
            (["ef-report", "--x", "100", "--dmin", str(10**16), "--dmax", str(10**16 + 1)], "above the cap"),
            (["ef-report", "--x", "100", "--dmin", str(-(10**16) - 1), "--dmax", "-5"], "above the cap"),
            # |D| to 10 significant digits, not all 309 of them
            (["sweep", "--T", "1e308"], "reaches |D| = 1.000000000e+308, above the cap"),
            (["ef-report", "--dmax", str(10**20)], "reaches |D| = 1.000000000e+20, above the cap"),
        ):
            code, out, err = run(args, capsys)
            assert code == EXIT_CONFIG, args
            assert reason in err and out == "", err

    def test_default_and_bench_configs_within_budget(self, monkeypatch):
        class Sieved(Exception):
            pass

        def sentinel(limit):
            raise Sieved(limit)

        monkeypatch.setattr(cli_mod, "sieve_primes", sentinel)
        workloads = _bench_module("workloads")
        commands = [
            ["sweep", "--curve", "cm32-like"],
            ["ef-report", "--curve", "ncm37"],
            ["sweep", "--curve", "cm32-like", "--x", "1e4"],  # estimated at 3 s
            ["sweep", "--curve", "ncm37", "--x", "3e4"],  # estimated at 18 s
            ["sweep", "--curve", "ncm37", "--x", "1e5"],  # estimated at 2.2 min
            # T = X_2(1e3), about 1.1e8: 5.4e7 candidates, walked in windows
            ["sweep", "--curve", "cm32-like", "--k", "2"],  # estimated at 3.8 min
        ]
        commands += [
            workloads.make_spec(name, 1).command("out.csv") for name in ("family-sweep", "high-lambda")
        ]
        for args in commands:
            with pytest.raises(Sieved):
                main(args)

    def test_estimate_prices_each_prime_by_how_its_character_is_read(self, ncm_curve):
        # the estimator's arithmetic, not wall time: about x / log(x) primes,
        # those up to 16 times a chunk's rows (an eighth of the candidates,
        # at most 4x) at the table price, the rest by reciprocity near 0 and
        # by Euler's criterion far from it
        price = cli_mod.TWIST_SECONDS_PER_PRIME
        per_d, root = cli_mod.TWIST_SECONDS_PER_D, cli_mod.SIEVE_SECONDS_PER_ROOT_D
        n_primes = 1e4 / math.log(1e4)
        n_table = 992 / math.log(992)  # 16 * (500 // 8)
        cases = [
            # a sweep's support: chunks of 25,000 rows, every prime reads a table
            (range(10**5, 3 * 10**5), 1e4, 2 * 10**5 * (per_d + n_primes * price["table"]) + 547 * root),
            # 500 D near 0: 144 primes read tables, 942 reciprocity
            (range(-250, 250), 1e4, 500 * (per_d + n_table * price["table"] + (n_primes - n_table) * price["reciprocity"]) + 15 * root),
            # the same length far from 0: Euler's criterion
            (range(10**9, 10**9 + 500), 1e4, 500 * (per_d + n_table * price["table"] + (n_primes - n_table) * price["euler"]) + 31622 * root),
        ]  # fmt: skip
        for ds, x, expected in cases:
            assert cli_mod._twist_cost_estimate(ds, x) == pytest.approx(expected, rel=1e-12), ds
        assert cli_mod._twist_cost_estimate(range(0), 1e4) == 0.0
        # an ef-report adds the price of writing each row, by format
        ds, x, expected = cases[0]
        for fmt, per_row in (("csv", 25e-6), ("json", 50e-6)):
            assert cli_mod.TWIST_SECONDS_PER_ROW[fmt] == per_row
            got = cli_mod._twist_cost_estimate(ds, x, per_row)
            assert got == pytest.approx(expected + 2 * 10**5 * per_row, rel=1e-12), fmt
        # k = 1 at x = 3e4 (9.8e5 candidates): 18 s, where a price of
        # Euler's criterion on every cell gave 17 min
        ds = MomentConfig(curve=ncm_curve, k=1, x=3e4, weight=SmoothWeight(0.5, 1.0)).support_ds()
        assert 15 < cli_mod._twist_cost_estimate(ds, 3e4) < 20


class TestVerifyCommand:
    def test_only_gauss_passes(self, tmp_path, capsys):
        out = tmp_path / "v.jsonl"
        code, _, _ = run(
            ["verify", "--only", "gauss", "--x", "10000", "--out", str(out)], capsys
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        records = [json.loads(l) for l in lines]
        assert "summary" in records[-1]
        assert records[-1]["summary"]["failed"] == 0
        assert all(r["pass"] for r in records[:-1])

    def test_hard_failure_exits_3(self, tmp_path, capsys):
        # the square-Rankin band is calibrated at x = 1e5; at 1e4 the CM
        # curve sits below it, which must surface as a verification failure
        from twistrank.cli import EXIT_VERIFY

        out = tmp_path / "v.jsonl"
        code, _, err = run(
            ["verify", "--only", "rankin", "--curve", "cm32-like", "--x", "10000", "--out", str(out)],
            capsys,
        )
        assert code == EXIT_VERIFY
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert records[-1]["summary"]["failed"] >= 1
        assert "FAIL" in err

    def test_unknown_group_refused_before_sieve(self, monkeypatch, capsys):
        monkeypatch.setattr(cli_mod, "sieve_primes", no_sieve)
        code, out, err = run(["verify", "--only", "bogus"], capsys)
        assert code == EXIT_USAGE
        assert "bogus" in err and "hasse" in err
        assert out == ""

    def test_sieves_to_x(self, monkeypatch, capsys):
        # the prime table reaches x itself, with no floor under it
        asked = []

        def recording_sieve(limit):
            asked.append(limit)
            return arith_mod.sieve_primes(limit)

        monkeypatch.setattr(cli_mod, "sieve_primes", recording_sieve)
        run(["verify", "--only", "rankin", "--x", "2000"], capsys)
        assert asked == [2000]

    def test_only_hasse(self, tmp_path, capsys):
        out = tmp_path / "v.jsonl"
        code, _, _ = run(["verify", "--only", "hasse", "--x", "10000", "--out", str(out)], capsys)
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["name"] for r in records[:-1]] == ["hasse[cm32-like,x=10000]", "hasse[ncm37,x=10000]"]
        assert records[-1]["summary"] == {"checks": 2, "passed": 2, "failed": 0, "warnings": 0}

    def test_only_jsum_seeded(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for path in (a, b):
            code, _, _ = run(
                ["verify", "--only", "jsum", "--seed", "9", "--x", "10000", "--out", str(path)],
                capsys,
            )
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        summary = json.loads(a.read_text().splitlines()[-1])["summary"]
        assert summary["failed"] == 0
        assert summary["warnings"] == 0


class TestOutputBytes:
    """Every table goes through one writer: stdout and --out carry the same
    bytes, and the CSV/JSON text is pinned field by field."""

    SWEEP = ["sweep", "--curve", "cm32-like", "--x", "200", "--k", "1", "--T", "420"]
    EF_REPORT = ["ef-report", "--curve", "ncm37", "--x", "500", "--dmin", "-3", "--dmax", "3"]
    AP_TABLE = ["ap-table", "--curve", "ncm37", "--limit", "50"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_stdout_is_out_then_refs(self, tmp_path, capsys, fmt):
        path = tmp_path / "sweep.out"
        code, stdout, _ = run(self.SWEEP + ["--format", fmt], capsys)
        assert code == EXIT_OK
        code, to_file, _ = run(self.SWEEP + ["--format", fmt, "--out", str(path)], capsys)
        assert code == EXIT_OK and to_file == ""
        refs = tmp_path / "sweep.out.refs.json"
        assert stdout.encode() == path.read_bytes() + refs.read_bytes()
        columns = "k,x,T,filter_flags,weighted_count,family_size,empirical_moment,theoretical_bound,ratio"
        if fmt == "json":
            (row,) = json.loads(path.read_text())
            assert path.read_text() == json.dumps([row], indent=2) + "\n"
            assert ",".join(row) == columns
            assert row["ratio"] == row["empirical_moment"] / row["theoretical_bound"]
        else:
            header, line = path.read_text().splitlines()
            assert header == columns
            assert line.startswith("1,200.0,420.0,squarefree+coprime+sign=any,")
        sidecar = json.loads(refs.read_text())
        assert refs.read_text() == json.dumps(sidecar, indent=2) + "\n"
        assert sidecar["heath_brown_k1"] == 1.5

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["EF_REPORT", "AP_TABLE"])
    def test_stdout_equals_out(self, tmp_path, capsys, command, fmt):
        args = getattr(self, command) + ["--format", fmt]
        path = tmp_path / "table.out"
        code, stdout, _ = run(args, capsys)
        assert code == EXIT_OK
        code, to_file, _ = run(args + ["--out", str(path)], capsys)
        assert code == EXIT_OK and to_file == ""
        assert stdout.encode() == path.read_bytes()

    def test_ef_report_exact_text(self, ncm_curve, primes_1e4, capsys):
        # D = 1 is squarefree and coprime to 2N (conductor exact); D = 2 and
        # D = 4 are not
        args = ["ef-report", "--curve", "ncm37", "--x", "500", "--dmin", "1", "--dmax", "4"]
        twists = filter_twists(ncm_curve, range(1, 5), False, False)
        table = evaluate_reports(twists, math.log(500.0), primes_1e4)
        assert table.twists.D.tolist() == [1, 2, 3, 4]
        assert table.twists.conductor_exact.tolist() == [True, False, True, False]
        expected = ",".join(CSV_COLUMNS) + "\n"
        for i, D in enumerate(table.twists.D.tolist()):
            expected += (
                f"{D},{table.lam!r},{float(table.log_conductor[i])!r},"
                f"{str(bool(table.twists.conductor_exact[i])).lower()},"
                f"{float(table.prime_sum_m1[i])!r},{float(table.prime_sum_m2[i])!r},"
                f"{float(table.prime_sum_tail[i])!r},{table.archimedean!r},"
                f"{float(table.total_S[i])!r},{float(table.rank_bound[i])!r},"
                f"{int(table.twists.root_number[i])}\n"
            )
        code, out, _ = run(args, capsys)
        assert code == EXIT_OK
        assert out == expected
        assert out.splitlines()[1].split(",")[3] == "true"
        assert out.splitlines()[2].split(",")[3] == "false"

        code, out, _ = run(args + ["--format", "json"], capsys)
        assert code == EXIT_OK
        assert out.endswith("]\n")
        data = json.loads(out)
        assert [list(row) for row in data] == [CSV_COLUMNS + ["twisted_upper_bound"]] * 4
        assert [row["conductor_exact"] for row in data] == [True, False, True, False]
        assert [row["rank_bound"] for row in data] == table.rank_bound.tolist()
        assert out == json.dumps(data, indent=2) + "\n"


class TestGoldenBytes:
    """Outputs pinned by sha256: a change that moves any byte of these
    (a float rounded differently, a field reordered) fails here."""

    CASES = {
        "sweep-cm32-like-x1e3-T20000": (
            ["sweep", "--curve", "cm32-like", "--x", "1000", "--k", "1", "--T", "20000"],
            {
                "": "73ee530af1094655f76ac276bd19a914ea97db78c98e7001ba3b1ed0086ef094",
                ".refs.json": "11bdc0d562591effa0c03aa3a740c65cce51c3e1a196b1d405feb9f9fb336b30",
            },
        ),
        "ef-report-ncm37-x5e4": (
            ["ef-report", "--curve", "ncm37", "--x", "50000", "--dmin", "-40", "--dmax", "40"],
            {"": "1137fee283755920331394ff6d935a8989f7bbd294afeda702b17b3a688b6530"},
        ),
        "ap-table-ncm37-1e5": (
            ["ap-table", "--curve", "ncm37", "--limit", "100000"],
            {"": "7692b185d3829ec4e5d03f9ebfd32625edaf7358308b93f27c7cf0013bda9c90"},
        ),
        "ap-table-cm32-like-1e4-json": (
            ["ap-table", "--curve", "cm32-like", "--limit", "10000", "--format", "json"],
            {"": "e4802f70e30a44bf87b6efa27d50dba9ce517db6b5c3f1a3c55026dc9ef47fbb"},
        ),
        "sweep-default": (
            ["sweep"],
            {
                "": "210a8a6e92644ba876eb582a5903f287216d521ff867a09e65d2b3d652efc325",
                ".refs.json": "deb564aa4006a0f66a09ea33e2d32429635b99c7b26a6bfbf7b2953156a42366",
            },
        ),
        "sweep-ncm37-k2-minus": (
            ["sweep", "--curve", "ncm37", "--x", "1000", "--k", "2", "--T", "3000", "--sign", "minus"],
            {
                "": "74bf712dda584fa681da34f3095a36515ee74a539c9304766149496fe0445339",
                ".refs.json": "7c386bcdedfbbf304fe35e510d912ba0d9fddfce6d980953f7fd9c4489d9d394",
            },
        ),
        "sweep-cm32-like-poly-unfiltered": (
            ["sweep", "--curve", "cm32-like", "--x", "1000", "--T", "2000", "--weight", "poly"]
            + ["--no-squarefree", "--no-coprime"],
            {
                "": "56fc5269bf967f293d85a91693eb375c803c9a4b127350f1834391092ac47dfb",
                ".refs.json": "be308e225723b451bcd963fa51bdd22c6e67403c54a9f0ffe61cdcda1a29cf97",
            },
        ),
        "sweep-ncm37-negative-support": (
            ["sweep", "--curve", "ncm37", "--x", "1000", "--T", "5000", "--support=-1:-0.5"],
            {
                "": "d33bc876a94427d6e09092dc95e4edacdb351e56104514111927ceeb529100b1",
                ".refs.json": "8902434d15bf8b2a4a77b2a9cde663e88abccd8c41b90df44558ea03a0752ae7",
            },
        ),
        "ef-report-ncm37-x5e4-json": (
            ["ef-report", "--curve", "ncm37", "--x", "50000", "--dmin", "-40", "--dmax", "40"]
            + ["--format", "json"],
            {"": "26ee1b29ae96cb86e231712af298674186f9d16be641d107dc7e5598722a7144"},
        ),
        "verify-seed1": (
            ["verify", "--seed", "1"],
            {"": "294d1240f54fdce7f65ce44e6824f3670e80affd4eb2d5be24074df1d5f85df0"},
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_sha256(self, tmp_path, capsys, case):
        args, digests = self.CASES[case]
        out = tmp_path / "out.csv"
        code, _, _ = run(args + ["--out", str(out)], capsys)
        assert code == EXIT_OK
        got = {suffix: hashlib.sha256(Path(f"{out}{suffix}").read_bytes()).hexdigest() for suffix in digests}
        assert got == digests

    @pytest.mark.parametrize("case", [case for case in CASES if case.startswith(("sweep", "ef-report"))])
    def test_sha256_in_small_windows(self, tmp_path, capsys, monkeypatch, case):
        # the families walked in windows of 37 D (hundreds of windows for a
        # sweep, three for the ef-reports): a chunk span of one D at every x
        # makes each window 37 D and its prime side one chunk, and the sums
        # carried across windows give the same bytes
        monkeypatch.setattr(ef_mod, "_WINDOW_D", 37)
        monkeypatch.setattr(ef_mod, "_CHUNK_SPAN_PER_PRIME", 1e-9)
        self.test_sha256(tmp_path, capsys, case)

    @pytest.mark.parametrize("case", [case for case in CASES if case.startswith(("ap-table", "ef-report"))])
    def test_sha256_in_small_row_blocks(self, tmp_path, capsys, monkeypatch, case):
        # rows made and written 3 at a time, in windows of 37 D: row blocks
        # end inside a window and at its end, and the bytes stay the same
        monkeypatch.setattr(cli_mod, "_ROW_BLOCK", 3)
        monkeypatch.setattr(arith_mod, "_ROW_BLOCK", 3)
        self.test_sha256_in_small_windows(tmp_path, capsys, monkeypatch, case)


class TestClosedPipe:
    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_reader_gone_exits_quietly(self, unbuffered):
        # the reader of stdout leaves before the first byte is written; with
        # buffered stdout the failure surfaces at the final flush, unbuffered
        # at the first write
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        env["PYTHONPATH"] = str(Path(twistrank.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "twistrank.cli", "ef-report", "--curve", "ncm37", "--x", "500"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == EXIT_PIPE
        assert err == b""


# Runs one command in a fresh interpreter and prints which scipy and
# twistrank modules, and whether numpy.ma and dataclasses, it loaded, and how
# many objects the collector holds frozen.
_MODULE_PROBE = """
import gc, io, json, sys
from contextlib import redirect_stdout
from twistrank.cli import main
with redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
watched = ("scipy", "twistrank", "numpy.ma", "dataclasses", "hashlib")
loaded = sorted(m for m in sys.modules if m.split(".")[0] in watched or m in watched)
print(json.dumps([code, loaded, gc.get_freeze_count()]))
"""


def _probe(code, *args, **env_vars):
    """Run ``code`` in a fresh interpreter; ``env_vars`` set environment
    variables (a string) or remove them (None)."""
    env = dict(os.environ, PYTHONPATH=str(Path(twistrank.__file__).resolve().parents[1]))
    for key, value in env_vars.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportHygiene:
    """No command and no function of the package needs scipy.integrate (or,
    with it, scipy.special): the twist commands and the weight transforms,
    and so the verify checks built on them, never load either.  Each
    command freezes the heap it starts with, and none loads dataclasses or
    hashlib; ef-report and ap-table never load family_moments."""

    @pytest.mark.parametrize(
        "args",
        [
            ["ap-table", "--curve", "ncm37", "--limit", "50"],
            ["ef-report", "--curve", "ncm37", "--x", "500", "--dmin", "-3", "--dmax", "3"],
            ["sweep", "--curve", "cm32-like", "--x", "200", "--T", "420"],
            ["verify", "--only", "poisson"],
            ["verify", "--only", "wl_decay"],
        ],
        ids=["ap-table", "ef-report", "sweep", "verify-poisson", "verify-wl_decay"],
    )
    def test_commands_skip_quadrature_modules(self, args):
        code, loaded, frozen = _probe(_MODULE_PROBE, *args)
        assert code == EXIT_OK
        # ap-table runs no kernel code, so it loads no scipy at all
        assert ("scipy" in loaded) == (args[0] != "ap-table")
        assert "scipy.integrate" not in loaded and "scipy.special" not in loaded
        assert frozen > 0
        assert "dataclasses" not in loaded
        assert "hashlib" not in loaded  # libcrypto: the a_p cache names its files without a hash
        if args[0] != "verify":
            assert ("twistrank.family_moments" in loaded) == (args[0] == "sweep")

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep", "--curve", "cm32-like", "--x", "1000", "--T", "20000"],
            ["ef-report", "--curve", "ncm37", "--x", "50000", "--dmin", "2500", "--dmax", "2523"],
        ],
        ids=["sweep", "ef-report"],
    )
    def test_twist_commands_skip_numpy_ma(self, args):
        # a plain np.unique (no return_* argument) imports numpy.ma, 15 ms
        # and 0.7 MB in a fresh process
        code, loaded, _ = _probe(_MODULE_PROBE, *args)
        assert code == EXIT_OK
        assert "numpy.ma" not in loaded

    def test_package_and_weight_transforms_skip_quadrature_modules(self):
        code = """
import json, sys
from twistrank import *
from twistrank.kernel import weight_fourier_derivative
def loaded():
    return ["scipy.integrate" in sys.modules, "scipy.special" in sys.modules]
before = loaded()
w = weight_fourier(SmoothWeight(0.5, 1.0), 3.0)
dw = weight_fourier_derivative(SmoothWeight(0.5, 1.0), 30.0)
print(json.dumps([before, loaded(), abs(w), abs(dw)]))
"""
        before, after_fourier, w, dw = _probe(code)
        assert before == after_fourier == [False, False]
        assert 0.0 < w < 0.5
        assert 0.0 < dw < 1e-4


# Runs one command in a fresh interpreter and prints OPENBLAS_NUM_THREADS and
# the number of the process's OS threads (None without /proc/self/task).
_THREAD_PROBE = """
import io, json, os, sys
from contextlib import redirect_stdout
from twistrank.cli import main
with redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps([code, os.environ.get("OPENBLAS_NUM_THREADS"), tasks]))
"""


class TestBlasThreads:
    """The command-line process runs OpenBLAS on one thread, its one BLAS
    call (the exact float64 product of prime_sides) included, so it starts
    no OpenBLAS worker; a value the user sets is left as it is."""

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep", "--curve", "cm32-like", "--x", "200", "--T", "420"],
            ["ef-report", "--curve", "ncm37", "--x", "500", "--dmin", "-3", "--dmax", "3"],
            ["ap-table", "--curve", "ncm37", "--limit", "50"],
            ["verify", "--only", "poisson"],
        ],
        ids=["sweep", "ef-report", "ap-table", "verify-poisson"],
    )
    def test_one_thread_by_default(self, args):
        code, value, tasks = _probe(_THREAD_PROBE, *args, OPENBLAS_NUM_THREADS=None)
        assert code == EXIT_OK
        assert value == "1"
        if tasks is None:
            pytest.skip("no /proc/self/task to count threads in")
        assert tasks == 1

    def test_user_value_wins(self):
        args = ["sweep", "--curve", "cm32-like", "--x", "200", "--T", "420"]
        code, value, _ = _probe(_THREAD_PROBE, *args, OPENBLAS_NUM_THREADS="2")
        assert code == EXIT_OK
        assert value == "2"


def _bench_module(name):
    """bench/<name>.py, loaded read-only: it needs only the standard library."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


class TestBenchmarkInterface:
    """The benchmark drives the program through these command lines and
    calls; an edit that breaks them fails here as well as in the benchmark."""

    @pytest.mark.parametrize("workload", ["family-sweep", "high-lambda"])
    def test_command_lines_parse(self, workload):
        spec = _bench_module("workloads").make_spec(workload, 1)
        args = cli_mod._build_parser().parse_args(spec.command("out.csv"))
        assert args.command == spec.argv[0]
        assert (args.threads, args.format, args.out) == (1, "csv", "out.csv")

    def test_verification_calls_bind(self):
        w = SmoothWeight(0.5, 1.0, shape="exp", l=1, x=100.0, X_k=400.0)
        inspect.signature(vl.poisson_required_truncation).bind(w, 1, 2, 0)
        inspect.signature(vl.poisson_check).bind(w, 1, 2, 0, 10, fourier_cache={})
        assert vl.SmoothWeight is SmoothWeight
        assert callable(cli_mod.sieve_primes) and callable(cli_mod.main)

    def test_sieve_is_read_from_the_cli_module(self, monkeypatch):
        # child.py marks the end of set-up by replacing cli.sieve_primes; a
        # sieve bound anywhere else would leave setup_s unrecorded
        calls = []
        sieve = cli_mod.sieve_primes

        def recording(limit):
            calls.append(limit)
            return sieve(limit)

        monkeypatch.setattr(cli_mod, "sieve_primes", recording)
        assert cli_mod._sieve_for(1000.0).limit == 1000
        assert calls == [1000]

    def test_verification_lab_loads_scipy(self):
        # child.py reads sys.modules["scipy"].__version__ after a Poisson group
        code = "import json, sys\nimport twistrank.verification_lab\nprint(json.dumps('scipy' in sys.modules))"
        assert _probe(code) is True

    def test_tracer_names_resolve(self):
        tracer = _bench_module("tracer")
        # deleted from the program before the tracer caught up; the tracer's
        # next change retires them
        stale = {
            "explicit_formula.reports_to_csv",
            "explicit_formula.reports_to_json",
            "family_moments.MomentTable.to_csv",
            "family_moments.MomentTable.to_json",
            "curve.TwistedCurve.as_curve_model",
            "explicit_formula.ef_total",
            "explicit_formula.prime_side",
            "arith.squarefree_part",
            "arith.fundamental_discriminant",
            "family_moments.family_twist_values",
        }
        names = [f"{layer}.{func}" for layer, funcs in tracer.SPANS.items() for func in funcs]
        names += [full for funcs in tracer.COUNTERS.values() for full in funcs]
        unresolved = set()
        for full in names:
            layer, attr = full.split(".", 1)
            obj = importlib.import_module(f"twistrank.{layer}")
            for part in attr.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                unresolved.add(full)
        assert unresolved <= stale
