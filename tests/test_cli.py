"""Command-line interface: subcommands, reports, exit codes, determinism."""

import csv
import json
import os
import random

import pytest

import oracle
from gaugekit import core, sets
from gaugekit.cli import main


def run(tmp_path, *argv):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


def load(tmp_path, name):
    with open(tmp_path / name) as fh:
        return json.load(fh)


class TestIntegrate:
    def test_constant(self, tmp_path):
        code = run(
            tmp_path, "integrate", "--fn", "one", "--domain", "0", "2", "--seed", "1"
        )
        assert code == 0
        doc = load(tmp_path, "gaugekit-integrate.json")
        assert doc["schema"] == "gaugekit/1"
        for row in doc["rows"]:
            assert all(s["value"] == "2/1" for s in row["sums"])

    def test_cantor_deriv_all_zero(self, tmp_path):
        code = run(
            tmp_path, "integrate", "--fn", "cantor_deriv",
            "--domain", "0", "1", "--seed", "2",
        )
        assert code == 0
        doc = load(tmp_path, "gaugekit-integrate.json")
        assert all(
            s["value"] == "0/1" for row in doc["rows"] for s in row["sums"]
        )

    def test_linear_close_to_half(self, tmp_path):
        code = run(
            tmp_path, "integrate", "--fn", "linear", "--domain", "0", "1",
            "--eps", "1e-3", "--seed", "3",
        )
        assert code == 0
        doc = load(tmp_path, "gaugekit-integrate.json")
        for s in doc["rows"][-1]["sums"]:
            num, den = s["value"].split("/")
            assert abs(int(num) / int(den) - 0.5) < 1e-3

    def test_unknown_function_exit_2(self, tmp_path):
        assert run(
            tmp_path, "integrate", "--fn", "nope", "--domain", "0", "1", "--seed", "1"
        ) == 2

    def test_byte_identical_reports(self, tmp_path):
        args = (
            "integrate", "--fn", "square", "--domain", "-1", "1",
            "--eps", "0.25", "0.125", "--seed", "42",
        )
        run(tmp_path, *args, "--out", "a.json")
        run(tmp_path, *args, "--out", "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestPartition:
    def test_dump_format(self, tmp_path):
        code = run(
            tmp_path, "partition", "--domain", "-1", "1", "--gauge", "dist:D",
            "--fn", "cantor_abs", "--out", "part.csv",
        )
        assert code == 0
        with open(tmp_path / "part.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["tag", "cell_lo", "cell_hi", "radius_at_tag", "f_at_tag"]
        assert len(rows) > 1
        for row in rows[1:]:
            assert all("/" in cell for cell in row)

    def test_depth_cap_failure_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GAUGEKIT_DEPTH_CAP", "3")
        code = run(
            tmp_path, "partition", "--domain", "0", "1", "--gauge", "const:1/100"
        )
        assert code == 3

    @pytest.mark.parametrize("cap", ("abc", "0"))
    def test_bad_depth_cap_exit_1(self, tmp_path, monkeypatch, capsys, cap):
        monkeypatch.setenv("GAUGEKIT_DEPTH_CAP", cap)
        code = run(
            tmp_path, "partition", "--domain", "0", "1", "--gauge", "const:1/100"
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: GAUGEKIT_DEPTH_CAP={cap!r}: ")
        assert (core.MAX_DEPTH_DEFAULT, sets.DEPTH_CAP_DEFAULT) == (64, 200)
        assert not os.listdir(tmp_path)

    def test_answers_do_not_depend_on_cap_order(self, tmp_path, monkeypatch, capsys):
        # no state is restored between runs: each run must see only its own
        # cap, whatever ran before it in this process
        commands = (("--domain", "0", "1", "--gauge", "const:1/100"),
                    ("--domain", "1/3", "1", "--gauge", "dist:S"))
        first, runs = {}, 0
        for caps, order in ((("5", None, "5"), 1), ((None, "5", None), -1)):
            for cap in caps:
                if cap is None:
                    monkeypatch.delenv("GAUGEKIT_DEPTH_CAP", raising=False)
                else:
                    monkeypatch.setenv("GAUGEKIT_DEPTH_CAP", cap)
                for argv in commands[::order]:
                    runs += 1
                    cwd = tmp_path / str(runs)
                    cwd.mkdir()
                    code = run(cwd, "partition", *argv, "--out", "part.csv")
                    out = cwd / "part.csv"
                    got = (code, capsys.readouterr().err,
                           out.read_bytes() if out.exists() else None)
                    assert first.setdefault((cap, argv), got) == got
        # the bisection cap: 1/100 needs 7 halvings; the walk cap: S's
        # query at 2/3 is left undecided at the run's cap
        assert [first[cap, commands[0]][0] for cap in ("5", None)] == [3, 0]
        assert [first[cap, commands[1]][:2] for cap in ("5", None)] == [
            (4, f"unsupported: fat-Cantor query for 2/3 unresolved at depth {d}\n")
            for d in (5, 200)]


class TestVariation:
    def test_ncv_evidence(self, tmp_path):
        code = run(
            tmp_path, "variation", "--fn", "cantor_abs", "--set", "D",
            "--domain", "-1", "1", "--mode", "ncv", "--seed", "5",
        )
        assert code == 0
        doc = load(tmp_path, "gaugekit-variation.json")
        assert doc["verdict"] == "NCV-only-evidence"
        assert all(r["max_signed_sum"]["value"] == "0/1" for r in doc["rows"])

    def test_adversary_split(self, tmp_path):
        code = run(
            tmp_path, "variation", "--fn", "cantor_abs", "--set", "D",
            "--domain", "-1", "1", "--mode", "nv", "--adversary", "split:0",
            "--seed", "6", "--out", "adv.json",
        )
        assert code == 0
        doc = load(tmp_path, "adv.json")
        assert doc["best_abs_sum"]["value"] == "2/1"
        assert (tmp_path / "adv-witness.csv").exists()

    def test_empty_set(self, tmp_path):
        code = run(
            tmp_path, "variation", "--fn", "identity", "--set", "empty",
            "--domain", "0", "1", "--seed", "7",
        )
        assert code == 0
        doc = load(tmp_path, "gaugekit-variation.json")
        assert doc["verdict"] == "NV-evidence"


class TestCovFtcScan:
    def test_cov_expected_fails_matches(self, tmp_path):
        code = run(
            tmp_path, "cov", "--instance", "cantorabs-unit",
            "--interval", "0", "1", "--seed", "8", "--samples", "3",
        )
        assert code == 0
        doc = load(tmp_path, "gaugekit-cov.json")
        assert doc["verdict"] == "refuted"
        assert doc["channels_consistent"] is True
        assert (tmp_path / doc["witness_file"]).exists()

    def test_cov_unknown_instance(self, tmp_path):
        assert run(
            tmp_path, "cov", "--instance", "missing", "--seed", "1"
        ) == 2

    def test_ftc_expectation_mismatch_exit_1(self, tmp_path):
        code = run(
            tmp_path, "ftc", "--fn", "cantor", "--domain", "0", "1",
            "--seed", "9", "--samples", "3", "--expect", "holds",
        )
        assert code == 1

    def test_ftc_expectation_match(self, tmp_path):
        code = run(
            tmp_path, "ftc", "--fn", "cantor", "--domain", "0", "1",
            "--seed", "9", "--samples", "3", "--expect", "fails",
        )
        assert code == 0

    def test_scan_grid(self, tmp_path):
        code = run(
            tmp_path, "scan", "--instance", "cantorabs-unit",
            "--grid", "-1", "0", "0", "1", "-1", "1",
            "--seed", "10", "--samples", "2",
        )
        assert code == 0
        doc = load(tmp_path, "gaugekit-scan.json")
        assert doc["nv_refuted"] is True
        verdicts = {tuple(c["interval"]): c["verdict"] for c in doc["cells"]}
        assert verdicts[("0/1", "1/1")] == "refuted"
        assert verdicts[("-1/1", "1/1")] == "holds-evidence"


class TestDeterminism:
    def test_cov_reports_byte_identical(self, tmp_path):
        args = (
            "cov", "--instance", "cantorabs-unit", "--interval", "0", "1",
            "--seed", "21", "--samples", "3",
        )
        run(tmp_path, *args, "--out", "c1.json")
        run(tmp_path, *args, "--out", "c2.json")
        a = (tmp_path / "c1.json").read_text()
        b = (tmp_path / "c2.json").read_text()
        # the embedded witness filename tracks --out; mask it before comparing
        assert a.replace("c1-witness", "W") == b.replace("c2-witness", "W")

    def test_variation_reports_byte_identical(self, tmp_path):
        args = (
            "variation", "--fn", "cantor_abs", "--set", "D", "--domain",
            "-1", "1", "--seed", "22",
        )
        run(tmp_path, *args, "--out", "v1.json")
        run(tmp_path, *args, "--out", "v2.json")
        assert (tmp_path / "v1.json").read_bytes() == (tmp_path / "v2.json").read_bytes()


class TestCounterexample:
    def test_single_point(self, tmp_path):
        code = run(tmp_path, "counterexample", "--svc", "-n", "10", "--x-index", "0")
        assert code == 0
        doc = load(tmp_path, "gaugekit-counterexample.json")
        assert doc["all_ok"] is True
        q = doc["checks"][0]["quotient"]["value"]
        num, den = map(int, q.split("/"))
        assert num / den > 18.3

    def test_sampled_points(self, tmp_path):
        code = run(
            tmp_path, "counterexample", "--svc", "-n", "4", "--points", "8",
            "--seed", "11",
        )
        assert code == 0
        doc = load(tmp_path, "gaugekit-counterexample.json")
        assert doc["points"] == 8 and doc["all_ok"] is True

    def test_x_index_takes_python_indices(self, tmp_path, capsys):
        # the depth-3 stage has 16 endpoints: -16 is the first, 0/1
        argv = ("counterexample", "--svc", "-n", "3", "--endpoint-depth", "3")
        assert run(tmp_path, *argv, "--x-index", "-16") == 0
        doc = load(tmp_path, "gaugekit-counterexample.json")
        assert doc["checks"][0]["x"] == "0/1"
        for k in ("16", "-17", "99999"):
            assert run(tmp_path, *argv, "--x-index", k, "--out", "bad.json") == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: endpoint index {k} out of range for the 16 ")
        assert not (tmp_path / "bad.json").exists()

    def test_gap_check_needs_no_cap(self, tmp_path, monkeypatch):
        # the check walks to y's gap, n + 1 = 4 steps down: a run's cap of
        # 2 does not reach the check
        argv = ("counterexample", "--svc", "-n", "3", "--x-index", "5",
                "--endpoint-depth", "4")
        monkeypatch.delenv("GAUGEKIT_DEPTH_CAP", raising=False)
        assert run(tmp_path, *argv, "--out", "uncapped.json") == 0
        monkeypatch.setenv("GAUGEKIT_DEPTH_CAP", "2")
        assert run(tmp_path, *argv, "--out", "capped.json") == 0
        assert (tmp_path / "capped.json").read_bytes() == (tmp_path / "uncapped.json").read_bytes()

    @pytest.mark.parametrize("given", (("--points", "2", "--x-index", "99999"),
                                       ("--x-index", "0", "--points", "2")))
    def test_points_and_x_index_exclude_each_other(self, tmp_path, capsys, given):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "counterexample", "--svc", "-n", "3", *given)
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("count", ("0", "-2"))
    def test_points_below_one_exit_1(self, tmp_path, capsys, count):
        code = run(tmp_path, "counterexample", "--svc", "-n", "3", "--points", count,
                   "--endpoint-depth", "3")
        assert code == 1
        assert capsys.readouterr().err == f"error: --points must be at least 1, got {count}\n"
        assert not os.listdir(tmp_path)

    def test_endpoints_build_no_stage(self, tmp_path, monkeypatch):
        def refuse(s, depth):
            raise AssertionError(f"realized stage {depth} of {s.kind}")

        want = oracle.stage_endpoints(sets.svc(), 14)
        monkeypatch.setattr(sets, "realize", refuse)
        xs = sets.endpoint_sample(sets.svc(), 14, 2000, seed=0)
        picked = sorted(random.Random(0).sample(range(len(want)), 2000))
        assert xs == tuple(want[k] for k in picked)
        code = run(tmp_path, "counterexample", "--svc", "-n", "4",
                   "--x-index", "12345", "--endpoint-depth", "14")
        assert code == 0
        doc = load(tmp_path, "gaugekit-counterexample.json")
        x = want[12345]
        assert doc["checks"][0]["x"] == f"{x.numerator}/{x.denominator}"


class TestParsingVariants:
    def test_min_gauge_spec(self, tmp_path):
        code = run(
            tmp_path, "partition", "--domain", "-1", "1",
            "--gauge", "min:dist:D+const:1/3", "--out", "m.csv",
        )
        assert code == 0

    def test_points_set_and_const_gauge(self, tmp_path):
        code = run(
            tmp_path, "variation", "--fn", "square", "--set", "points:0",
            "--domain", "-1", "1", "--gauge", "const:1/100", "--seed", "12",
        )
        assert code == 0
        doc = load(tmp_path, "gaugekit-variation.json")
        assert doc["set"] == "points:0"

    def test_integrate_tol(self, tmp_path):
        code = run(
            tmp_path, "integrate", "--fn", "one", "--domain", "0", "1",
            "--seed", "13", "--tol", "1e-6",
        )
        assert code == 0
        doc = load(tmp_path, "gaugekit-integrate.json")
        assert doc["converged"] is True

    def test_scan_default_grid(self, tmp_path):
        code = run(
            tmp_path, "scan", "--instance", "square-sub", "--seed", "14",
            "--samples", "2",
        )
        assert code == 0
        doc = load(tmp_path, "gaugekit-scan.json")
        assert doc["nv_refuted"] is False
        assert len(doc["cells"]) == 5  # 4 dyadic cells plus the full domain

    def test_bad_set_spec(self, tmp_path):
        code = run(
            tmp_path, "variation", "--fn", "identity", "--set", "whatever",
            "--domain", "0", "1", "--seed", "19",
        )
        assert code == 1

    def test_scan_odd_grid_rejected(self, tmp_path):
        code = run(
            tmp_path, "scan", "--instance", "square-sub", "--seed", "15",
            "--grid", "0", "1", "0",
        )
        assert code == 1

    def test_partition_seeded(self, tmp_path):
        code = run(
            tmp_path, "partition", "--domain", "0", "1",
            "--gauge", "const:1/5", "--seed", "16", "--out", "s.csv",
        )
        assert code == 0

    @pytest.mark.parametrize("argv, err", (
        # a ZeroDivisionError traceback before
        (("partition", "--domain", "0", "1/0", "--gauge", "const:1/4"),
         "--domain: cannot read '1/0' as a rational"),
        # an OverflowError traceback before
        (("integrate", "--fn", "linear", "--domain", "0", "1", "--eps", "inf", "--seed", "1"),
         "--eps: 'inf' is not a finite number"),
        # "cannot convert NaN to integer ratio" before
        (("integrate", "--fn", "linear", "--domain", "0", "1", "--eps", "nan", "--seed", "1"),
         "--eps: 'nan' is not a finite number"),
        # "not enough values to unpack (expected 2, got 1)" before
        (("partition", "--domain", "0", "1", "--gauge", "min:const:1/4"),
         "--gauge: min: takes two specs joined by '+', got 'min:const:1/4'"),
    ))
    def test_bad_value_names_its_flag(self, tmp_path, capsys, argv, err):
        assert run(tmp_path, *argv) == 1
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not os.listdir(tmp_path)


class TestCatalog:
    def test_listing_and_descriptors(self, tmp_path, capsys):
        code = run(tmp_path, "catalog", "--out", "cat.json")
        assert code == 0
        out = capsys.readouterr().out
        assert "cantor_abs" in out
        doc = load(tmp_path, "cat.json")
        names = {d["name"] for d in doc["functions"]}
        assert "quartic_svc_dist" in names
