"""Command-line runner: reports, determinism, exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import betascenery as bs
from betascenery import cli
from betascenery.rng import UniformStream, cdf_thresholds
from oracles import STALLING_PISOT, root_moduli


# The directory holding the betascenery package this process imported, so
# that the subprocess runs the same code the in-process assertions use,
# whatever its working directory and whether or not the package is installed.
PACKAGE_ROOT = str(Path(bs.__file__).resolve().parents[1])


def package_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return env


def run_cli(args, cwd):
    return subprocess.run([sys.executable, "-m", "betascenery"] + list(args),
                          cwd=cwd, env=package_env(), capture_output=True,
                          text=True)


MIDDLE_THIRDS = '{"maps": [{"s": "1/3", "t": "0"}, {"s": "1/3", "t": "2/3"}]}'
GOLDEN_IFS = ('{"maps": [{"s": "1/golden", "t": "0"}, '
              '{"s": "1/golden", "t": "-1/golden"}, '
              '{"s": "-1/golden", "t": "1"}]}')
MODEL_1_0 = json.dumps({
    "format": "dss-model-v1", "field": None,
    "maps": [{"ratio": {"frac": "1/0"}, "shift": {"frac": "0"}}],
    "weights": ["1"], "pair": {"length": 1, "word_i": [0], "word_j": [0]}})

# Inputs that once ended in a traceback: (files to write, arguments, exit
# code).  Exit 1 must come with an "error:" line.
NO_TRACEBACK = {
    "ifs-t-golden/0": ({"bad.json": '{"maps": [{"s": "1/3", "t": "0"}, '
                                    '{"s": "1/3", "t": "golden/0"}]}'},
                       ["model", "bad.json"], 1),
    "ifs-s-1/0": ({"bad.json": '{"maps": [{"s": "1/0", "t": "0"}]}'},
                  ["model", "bad.json"], 1),
    "beta-1/0": ({}, ["parry", "--beta", "1/0"], 1),
    "expand-x-1/0": ({}, ["expand", "--beta", "2", "--x", "1/0"], 1),
    "model-json-1/0": ({"m.json": MODEL_1_0},
                       ["normality", "m.json", "--beta", "2"], 1),
    "model-golden-ifs": ({"g.json": GOLDEN_IFS}, ["model", "g.json"], 0),
    # an integer base with 8,054,868,332 digits once asked numpy for a 60 GiB
    # frequency table
    "normality-huge-alphabet": (
        {"mt.json": MIDDLE_THIRDS},
        ["normality", "mt.json", "--beta", "8054868332", "--n-points", "1",
         "--n-digits", "20"], 1),
    # two maps with one fixed point, one of them reflecting: the hull is a
    # single point, so no separated pair exists
    "model-shared-fixed-point": (
        {"p.json": '{"maps": [{"s": "1/2", "t": "0"}, '
                   '{"s": "-1/3", "t": "0"}]}'}, ["model", "p.json"], 1),
}
for _poly in STALLING_PISOT:
    NO_TRACEBACK[f"parry-{_poly}"] = ({}, ["parry", "--beta", _poly], 0)
    NO_TRACEBACK[f"normality-{_poly}"] = (
        {"mt.json": MIDDLE_THIRDS},
        ["normality", "mt.json", "--beta", _poly, "--n-points", "2",
         "--n-digits", "50"], 0)
# a deep golden model point has coordinates near 2^1450, and the float of
# the orbit's start once overflowed in its first enclosure
NO_TRACEBACK["normality-golden-deep"] = (
    {"g.json": GOLDEN_IFS},
    ["normality", "g.json", "--beta", "golden", "--n-points", "2",
     "--n-digits", "2000"], 0)
NO_TRACEBACK["config-missing"] = ({}, ["--config", "nosuch.json", "pisot",
                                      "golden"], 1)
NO_TRACEBACK["config-not-object"] = ({"c.json": "[1]"},
                                     ["--config", "c.json", "pisot", "golden"],
                                     1)
# a config int too large for a float once stopped in np.arange
NO_TRACEBACK["config-T-huge"] = ({"mt.json": MIDDLE_THIRDS,
                                  "c.json": '{"T": 1%s}' % ("0" * 400)},
                                 ["--config", "c.json", "scenery", "mt.json"],
                                 1)
# config values the flag itself would not take: a string for a repeatable
# flag once ran spectrum on the bases "2" and "3", a number for a string
# flag or in a list ended in a traceback, and an unknown --mode ran the
# model sampler; each must print one line that names its flag
CONFIG_ERRORS = {
    "config-beta-not-a-list": ('{"beta": "23"}', ["spectrum", "mt.json"],
                               "--beta"),
    "config-x-holds-a-number": ('{"x": ["1/3", 5]}',
                                ["expand", "--beta", "2"], "--x"),
    "config-beta-a-number": ('{"beta": 2}', ["parry"], "--beta"),
    "config-mode-bogus": ('{"mode": "bogus"}', ["sample", "mt.json"],
                          "--mode"),
}
for _case, (_cfg, _args, _) in CONFIG_ERRORS.items():
    NO_TRACEBACK[_case] = ({"mt.json": MIDDLE_THIRDS, "c.json": _cfg},
                           ["--config", "c.json"] + _args, 1)
# an IFS scalar is a rational, a named constant or a quotient of those; a
# polynomial is read only where a number or a base is expected
NO_TRACEBACK["ifs-s-polynomial"] = (
    {"bad.json": '{"maps": [{"s": "x^2 - x - 1", "t": "0"}]}'},
    ["model", "bad.json"], 1)
NO_TRACEBACK["out-dir-is-a-file"] = ({"afile": "x"},
                                     ["--out-dir", "afile", "pisot", "golden"],
                                     1)
# sizes that are not positive: a clean error, with no traceback from an
# empty orbit and no numpy warning from an empty sample
for _case, _args in {
        "scenery-T-negative": ["scenery", "mt.json", "--T", "-5"],
        "scenery-dt-negative": ["scenery", "mt.json", "--dt", "-1"],
        "scenery-n-q-zero": ["scenery", "mt.json", "--n-q", "0"],
        "scenery-dump-negative": ["scenery", "mt.json", "--T", "3",
                                  "--dump-windows", "-2"],
        "sample-count-zero": ["sample", "mt.json", "--count", "0"],
        "disintegration-count-zero": ["disintegration", "mt.json",
                                      "--count", "0"],
        "normality-n-points-zero": ["normality", "mt.json", "--beta", "2",
                                    "--n-points", "0"]}.items():
    NO_TRACEBACK[_case] = ({"mt.json": MIDDLE_THIRDS}, _args, 1)
# sizes and bounds whose error once blamed the point or the IFS, or named no
# flag: each must print one line that names its flag and value, the last two
# arguments
FLAG_ERRORS = {
    "expand-digits-zero": ["expand", "--beta", "2", "--x", "1/3",
                           "--digits", "0"],
    "normality-n-digits-zero": ["normality", "mt.json", "--beta", "2",
                                "--n-digits", "0"],
    "model-max-length-zero": ["model", "mt.json", "--max-length", "0"],
    "parry-truncation-negative": ["parry", "--beta", "golden",
                                  "--truncation", "-1"],
    # bounds that are not finite: inf once ran out of memory or wrote
    # Infinity, and nan wrote NaN, which strict JSON parsers reject
    "scenery-T-inf": ["scenery", "mt.json", "--T", "inf"],
    "scenery-T-nan": ["scenery", "mt.json", "--T", "nan"],
    "scenery-dt-inf": ["scenery", "mt.json", "--dt", "inf"],
    "scenery-tolerance-nan": ["scenery", "mt.json", "--tolerance", "nan"],
    "disintegration-tolerance-inf": ["disintegration", "mt.json",
                                     "--tolerance", "inf"],
    "normality-max-mean-discrepancy-nan": [
        "normality", "mt.json", "--beta", "2", "--max-mean-discrepancy",
        "nan"],
}
for _case, _args in FLAG_ERRORS.items():
    NO_TRACEBACK[_case] = ({"mt.json": MIDDLE_THIRDS}, _args, 1)
ZERO_DIVISORS = ["ifs-t-golden/0", "ifs-s-1/0", "beta-1/0", "expand-x-1/0"]


def run_table_case(tmp_path, case):
    files, args, code = NO_TRACEBACK[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    r = run_cli(["--out-dir", "out"] + args, tmp_path)
    assert r.returncode == code, r.stderr
    assert "Traceback" not in r.stderr
    assert "Warning" not in r.stderr
    assert ("error:" in r.stderr) == (code == 1)
    if case in FLAG_ERRORS:
        fault = ("not positive" if math.isfinite(float(args[-1]))
                 else "not finite")
        assert r.stderr == f"error: {' '.join(args[-2:])} is {fault}\n"
    if case in CONFIG_ERRORS:
        assert r.stderr.startswith(f"error: {CONFIG_ERRORS[case][2]} ")
        assert r.stderr.count("\n") == 1
    if case == "ifs-s-polynomial":
        assert r.stderr.startswith("error: bad.json: map 0: ")
    if case == "model-shared-fixed-point":
        assert r.stderr.startswith("error: the attractor is finite")
        assert r.stderr.count("\n") == 1


@pytest.fixture()
def ifs_file(tmp_path):
    p = tmp_path / "mt.json"
    p.write_text(json.dumps(
        {"maps": [{"s": "1/3", "t": "0"}, {"s": "1/3", "t": "2/3"}]}))
    return p


class TestReports:

    def test_pisot_pass(self, tmp_path):
        r = run_cli(["--out-dir", "out", "pisot", "golden"], tmp_path)
        assert r.returncode == 0, r.stderr
        rep = json.loads((tmp_path / "out" / "pisot_report.json").read_text())
        assert rep["status"] == "pass"
        assert rep["results"]["pisot"] is True
        assert rep["results"]["kind"] == "algebraic"

    @pytest.mark.parametrize("poly", sorted(STALLING_PISOT))
    def test_pisot_stalling_bases_match_numpy(self, tmp_path, poly):
        r = run_cli(["--out-dir", "out", "pisot", poly], tmp_path)
        assert r.returncode == 0, r.stderr
        rep = json.loads((tmp_path / "out" / "pisot_report.json").read_text())
        assert rep["results"]["pisot"] is True
        got = rep["results"]["conjugate_moduli"]
        want = root_moduli(STALLING_PISOT[poly])
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-9
        assert abs(rep["results"]["value"] - want[0]) < 1e-9

    def test_pisot_negative_case_still_exits_zero(self, tmp_path):
        # reporting a non-Pisot number is a successful run, not a failure
        r = run_cli(["--out-dir", "out", "pisot", "x^2 - 2"], tmp_path)
        assert r.returncode == 0, r.stderr
        rep = json.loads((tmp_path / "out" / "pisot_report.json").read_text())
        assert rep["results"]["pisot"] is False

    def test_model_writes_loadable_model(self, tmp_path, ifs_file):
        r = run_cli(["--out-dir", "out", "model", ifs_file.name], tmp_path)
        assert r.returncode == 0, r.stderr
        m = bs.Model.from_json((tmp_path / "out" / "model.json").read_text())
        assert m.n_components == 1
        rep = json.loads((tmp_path / "out" / "model_report.json").read_text())
        assert rep["results"]["n_components"] == 1
        assert rep["results"]["has_reflection"] is False

    def test_expand_digits_match_library(self, tmp_path):
        r = run_cli(["--out-dir", "out", "expand", "--beta", "golden",
                     "--x", "1/2", "--digits", "40"], tmp_path)
        assert r.returncode == 0, r.stderr
        lines = (tmp_path / "out" / "expand.csv").read_text().splitlines()
        assert lines[0].startswith("point_id,")
        got = lines[1].split(",")[4].split(" ")
        rec = bs.beta_orbit(bs.BetaBase(bs.named_constant("golden")),
                            Fraction(1, 2), 40)
        assert [int(d) for d in got] == list(rec.digits)

    def test_model_document_ignores_the_base(self, tmp_path):
        # relating the ratios to a base evaluates them; model.json must not
        # change with it
        (tmp_path / "g.json").write_text(GOLDEN_IFS)
        docs = []
        for extra in ([], ["--beta", "golden"]):
            out = tmp_path / f"out{len(docs)}"
            code, err = run_in_process(["--out-dir", str(out), "model",
                                        str(tmp_path / "g.json")] + extra)
            assert code == 0, err
            docs.append((out / "model.json").read_bytes())
        assert docs[0] == docs[1]

    def test_parry_report_has_golden_pieces(self, tmp_path):
        r = run_cli(["--out-dir", "out", "parry", "--beta", "golden"],
                    tmp_path)
        assert r.returncode == 0, r.stderr
        rep = json.loads((tmp_path / "out" / "parry_report.json").read_text())
        assert rep["results"]["pieces"] == 2
        csv_lines = (tmp_path / "out" / "parry.csv").read_text().splitlines()
        assert len(csv_lines) == 3  # header + 2 pieces
        for line in csv_lines[1:]:
            [float(cell) for cell in line.split(",")]

    def test_spectrum_verdict_table(self, tmp_path, ifs_file):
        r = run_cli(["--out-dir", "out", "spectrum", ifs_file.name,
                     "--beta", "2", "--beta", "3"], tmp_path)
        assert r.returncode == 0, r.stderr
        rep = json.loads(
            (tmp_path / "out" / "spectrum_report.json").read_text())
        by_beta = {row["beta"]: row for row in rep["results"]["table"]}
        assert by_beta["2"]["verdict"] == "normality_implied"
        assert by_beta["3"]["verdict"] == "inconclusive"
        assert by_beta["3"]["relations"][0]["verdict"] == "dependent"

    def test_normality_check_and_csv(self, tmp_path, ifs_file):
        r = run_cli(["--out-dir", "out", "normality", ifs_file.name,
                     "--beta", "2", "--n-points", "3",
                     "--n-digits", "300",
                     "--max-mean-discrepancy", "0.2"], tmp_path)
        assert r.returncode == 0, r.stderr
        rep = json.loads(
            (tmp_path / "out" / "normality_report.json").read_text())
        assert rep["checks"][0]["name"] == "mean_discrepancy"
        assert rep["checks"][0]["pass"] is True
        freqs = rep["results"]["mean_digit_freqs"]
        assert len(freqs) == 2 and abs(sum(freqs) - 1.0) < 1e-9
        lines = (tmp_path / "out" / "normality.csv").read_text().splitlines()
        assert len(lines) == 4

    def test_scenery_checks(self, tmp_path, ifs_file):
        r = run_cli(["--out-dir", "out", "scenery", ifs_file.name,
                     "--T", "30", "--n-q", "300", "--tolerance", "0.5",
                     "--dump-windows", "2"], tmp_path)
        assert r.returncode == 0, r.stderr
        rep = json.loads(
            (tmp_path / "out" / "scenery_report.json").read_text())
        names = [c["name"] for c in rep["checks"]]
        assert names == ["max_panel_distance", "trivial_contrast"]
        assert all(c["pass"] for c in rep["checks"])
        assert rep["results"]["trivial_contrast"] > 0.2
        csv_lines = (tmp_path / "out" / "windows.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + 2 * 512  # header + 2 windows of 512 bins
        for line in csv_lines[1:]:
            [float(cell) for cell in line.split(",")]


class TestDeterminism:

    def test_byte_identical_across_directories(self, tmp_path, ifs_file):
        for d in ("a", "b"):
            r = run_cli(["--seed", "5", "--out-dir", d, "sample",
                         ifs_file.name, "--count", "400"], tmp_path)
            assert r.returncode == 0, r.stderr
        assert (tmp_path / "a" / "samples.csv").read_bytes() == \
               (tmp_path / "b" / "samples.csv").read_bytes()
        assert (tmp_path / "a" / "sample_report.json").read_bytes() == \
               (tmp_path / "b" / "sample_report.json").read_bytes()

    def test_seed_changes_samples(self, tmp_path, ifs_file):
        for seed, d in ((5, "a"), (6, "b")):
            r = run_cli(["--seed", str(seed), "--out-dir", d, "sample",
                         ifs_file.name, "--count", "400"], tmp_path)
            assert r.returncode == 0, r.stderr
        assert (tmp_path / "a" / "samples.csv").read_bytes() != \
               (tmp_path / "b" / "samples.csv").read_bytes()

    def test_wall_clock_stays_out_of_reports(self, tmp_path, ifs_file):
        r = run_cli(["--out-dir", "out", "sample", ifs_file.name,
                     "--count", "50"], tmp_path)
        assert "elapsed=" in r.stdout, r.stderr
        rep_text = (tmp_path / "out" / "sample_report.json").read_text()
        assert "elapsed" not in rep_text

    def test_config_round_trip(self, tmp_path, ifs_file):
        r = run_cli(["--out-dir", "a", "scenery", ifs_file.name,
                     "--T", "30", "--n-q", "300", "--tolerance", "0.5"],
                    tmp_path)
        assert r.returncode == 0, r.stderr
        # replay from the report's own config echo
        r2 = run_cli(["--config", "a/scenery_report.json", "--out-dir", "b",
                      "scenery", ifs_file.name], tmp_path)
        assert r2.returncode == 0, r2.stderr
        assert (tmp_path / "a" / "scenery_report.json").read_bytes() == \
               (tmp_path / "b" / "scenery_report.json").read_bytes()

    def test_report_with_search_bound_replays(self, tmp_path, ifs_file):
        # reports written before the height bound echo "search_bound": 64;
        # the key names no option any more and is ignored on replay
        r = run_cli(["--out-dir", "a", "spectrum", ifs_file.name,
                     "--beta", "2", "--beta", "golden"], tmp_path)
        assert r.returncode == 0, r.stderr
        rep = json.loads((tmp_path / "a" / "spectrum_report.json").read_text())
        rep["config"]["search_bound"] = 64
        (tmp_path / "old.json").write_text(json.dumps(rep))
        r2 = run_cli(["--config", "old.json", "--out-dir", "b", "spectrum",
                      ifs_file.name], tmp_path)
        assert r2.returncode == 0, r2.stderr
        assert (tmp_path / "a" / "spectrum_report.json").read_bytes() == \
               (tmp_path / "b" / "spectrum_report.json").read_bytes()

    def test_explicit_flag_beats_config(self, tmp_path, ifs_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"count": 100, "seed": 3}))
        r = run_cli(["--config", cfg.name, "--out-dir", "out", "sample",
                     ifs_file.name, "--count", "25"], tmp_path)
        assert r.returncode == 0, r.stderr
        rep = json.loads(
            (tmp_path / "out" / "sample_report.json").read_text())
        assert rep["config"]["count"] == 25     # flag wins
        assert rep["config"]["seed"] == 3       # config fills the rest
        # an explicit repeatable flag replaces the config's list; argparse
        # alone would append its values to that list
        for command, first, then in (
                (["expand", "--beta", "2"], "--x 1/3", "--x 1/5"),
                (["spectrum", str(ifs_file)], "--beta 2", "--beta 3")):
            name, key = command[0], first.split()[0][2:]
            code, err = run_in_process(["--out-dir", str(tmp_path / name)] +
                                       command + first.split())
            assert code == 0, err
            report = str(tmp_path / name / f"{name}_report.json")
            code, err = run_in_process(
                ["--config", report, "--out-dir", str(tmp_path / "again")] +
                command + then.split())
            assert code == 0, err
            rep = json.loads(
                (tmp_path / "again" / f"{name}_report.json").read_text())
            assert rep["config"][key] == [then.split()[1]]
            results = rep["results"]
            assert (len(results["table"]) if name == "spectrum"
                    else results["n_points"]) == 1


class TestExitCodes:

    def test_tolerance_failure_is_exit_2(self, tmp_path, ifs_file):
        r = run_cli(["--out-dir", "out", "disintegration", ifs_file.name,
                     "--count", "2000", "--tolerance", "0.0001"], tmp_path)
        assert r.returncode == 2, r.stderr
        rep = json.loads(
            (tmp_path / "out" / "disintegration_report.json").read_text())
        assert rep["status"] == "fail"
        assert rep["checks"][0]["pass"] is False

    def test_disintegration_passes_at_sane_tolerance(self, tmp_path,
                                                     ifs_file):
        r = run_cli(["--out-dir", "out", "disintegration", ifs_file.name,
                     "--count", "20000", "--tolerance", "0.02"], tmp_path)
        assert r.returncode == 0, r.stderr

    def test_non_pisot_base_is_exit_1(self, tmp_path, ifs_file):
        r = run_cli(["--out-dir", "out", "spectrum", ifs_file.name,
                     "--beta", "x^2 - 2"], tmp_path)
        assert r.returncode == 1
        assert "not Pisot" in r.stderr

    def test_missing_file_is_exit_1(self, tmp_path):
        r = run_cli(["--out-dir", "out", "model", "nosuch.json"], tmp_path)
        assert r.returncode == 1
        assert "error:" in r.stderr

    def test_missing_required_flag_is_exit_1(self, tmp_path):
        r = run_cli(["--out-dir", "out", "expand", "--x", "1/2"], tmp_path)
        assert r.returncode == 1
        assert "--beta is required" in r.stderr

    def test_bad_truncation_is_exit_1(self, tmp_path):
        r = run_cli(["--out-dir", "out", "parry", "--beta", "tribonacci",
                     "--truncation", "-3"], tmp_path)
        assert r.returncode == 1
        assert "error:" in r.stderr and "Traceback" not in r.stderr

    def test_bad_ifs_json_is_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"maps": [{"s": "3/2", "t": "0"}]}')  # expanding
        r = run_cli(["--out-dir", "out", "model", "bad.json"], tmp_path)
        assert r.returncode == 1
        assert "error:" in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("args", [
        ["pisot", "golden", "--bogus"],
        ["parry", "--beta", "golden", "--truncation", "abc"],
        ["model", "mt.json", "--beta", "2", "--search-bound", "64"],
        ["spectrum", "mt.json", "--beta", "2", "--search-bound", "64"],
        ["frobnicate"],
    ])
    def test_usage_error_is_exit_1(self, tmp_path, ifs_file, args):
        # exit 2 means a failed tolerance check, never a bad command line
        code, err = run_in_process(
            ["--out-dir", str(tmp_path / "out")] +
            [str(ifs_file) if a == "mt.json" else a for a in args])
        assert code == 1
        assert "usage:" in err and "error:" in err

    @pytest.mark.parametrize("args,reason", [
        (["parry", "--beta", "1/2"], "base '1/2': base must exceed 1"),
        (["parry", "--beta", "1"], "base '1': base must exceed 1"),
        (["pisot", "1/0"], "'1/0' divides by zero"),
        (["expand", "--beta", "2", "--x", "1/0"],
         "point '1/0': '1/0' divides by zero"),
        (["model", "b.json"], "b.json: map 0: '1/0' divides by zero"),
        (["model", "c.json"], "c.json: '1/0' divides by zero"),
        (["expand", "--beta", "2", "--x", "golden/0"],
         "point 'golden/0': 'golden/0' divides by zero"),
    ])
    def test_bad_number_names_the_reason(self, tmp_path, monkeypatch, args,
                                         reason):
        # b.json has a zero divisor in a map, c.json in a weight
        monkeypatch.chdir(tmp_path)
        (tmp_path / "b.json").write_text(json.dumps(
            {"maps": [{"s": "1/0", "t": "0"}, {"s": "1/3", "t": "2/3"}]}))
        (tmp_path / "c.json").write_text(json.dumps(
            {"maps": [{"s": "1/3", "t": "0"}, {"s": "1/3", "t": "2/3"}],
             "weights": ["1/0", "1/2"]}))
        code, err = run_in_process(["--out-dir", str(tmp_path)] + args)
        assert code == 1
        assert f"error: {reason}" in err

    @pytest.mark.parametrize("mode", ["direct", "model"])
    @pytest.mark.parametrize("depth", ["0", "-1"])
    def test_sample_depth_below_one_names_the_flag(self, tmp_path, ifs_file,
                                                   mode, depth):
        # depth 0 once wrote every point as the hull midpoint, and -1 failed
        # in numpy with a message that named no flag
        out = tmp_path / "out"
        code, err = run_in_process(
            ["--out-dir", str(out), "sample", str(ifs_file), "--mode", mode,
             "--depth", depth])
        assert code == 1
        assert err == f"error: --depth {depth} is not positive\n"
        assert not (out / "samples.csv").exists()

    def test_help_is_exit_0(self):
        assert run_in_process(["--help"]) == (0, "")
        assert run_in_process(["spectrum", "--help"]) == (0, "")

    @pytest.mark.parametrize("case", ZERO_DIVISORS)
    def test_zero_divisor_is_exit_1(self, tmp_path, case):
        run_table_case(tmp_path, case)

    @pytest.mark.parametrize(
        "case", [c for c in NO_TRACEBACK if c not in ZERO_DIVISORS])
    def test_no_traceback(self, tmp_path, case):
        run_table_case(tmp_path, case)


def run_in_process(args):
    """Exit code and stderr of one CLI run in this process.  An exception
    that escapes main, which the command line would print as a traceback,
    propagates."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(args)
        except SystemExit as e:       # --help
            code = e.code
    return code, err.getvalue()


def test_config_leaves_no_defaults_behind(tmp_path, ifs_file, monkeypatch):
    """main reuses one parser tree: a --config run, one that fails on a
    subcommand flag, a --help and a usage error after the config was read
    leave it as they found it, so a plain run before and after them writes
    the bytes of a fresh process."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text('{"count": 25, "seed": 3}')
    (tmp_path / "bad.json").write_text('{"seed": 5, "mode": "bogus"}')
    plain = ["sample", ifs_file.name]
    assert run_in_process(["--out-dir", "first"] + plain) == (0, "")
    assert run_in_process(["--config", "c.json", "--out-dir", "cfg"] +
                          plain) == (0, "")
    rep = json.loads((tmp_path / "cfg" / "sample_report.json").read_text())
    assert (rep["config"]["count"], rep["config"]["seed"]) == (25, 3)
    code, err = run_in_process(["--config", "bad.json"] + plain)
    assert code == 1 and err.startswith("error: --mode "), err
    assert run_in_process(["sample", "--help"]) == (0, "")
    code, err = run_in_process(["--config", "c.json", "--out-dir", "usage"] +
                               plain + ["--bogus"])
    assert code == 1 and "unrecognized arguments: --bogus" in err, err
    assert run_in_process(["--out-dir", "last"] + plain) == (0, "")
    r = run_cli(["--out-dir", "fresh"] + plain, tmp_path)
    assert r.returncode == 0, r.stderr
    for name in ("sample_report.json", "samples.csv"):
        first = (tmp_path / "first" / name).read_bytes()
        assert (tmp_path / "last" / name).read_bytes() == first
        assert (tmp_path / "fresh" / name).read_bytes() == first


def test_refused_run_leaves_no_out_dir(tmp_path, ifs_file, monkeypatch):
    """--out-dir is made only when the outputs are written: a run refused
    on its input exits 1 with an error line and leaves no directory."""
    monkeypatch.chdir(tmp_path)
    files, model_args, _ = NO_TRACEBACK["ifs-s-polynomial"]
    (tmp_path / "bad.json").write_text(files["bad.json"])
    refused = {"model": model_args,
               "expand": ["expand", "--x", "1/3"],
               "spectrum-sqrt2": ["spectrum", ifs_file.name, "--beta",
                                  "x^2 - 2"],
               "spectrum": ["spectrum", ifs_file.name]}
    for out, args in refused.items():
        code, err = run_in_process(["--out-dir", out] + args)
        assert code == 1 and err.startswith("error: "), (out, err)
        assert not (tmp_path / out).exists(), out


def test_main_builds_no_parser_after_the_first_call(tmp_path, ifs_file,
                                                    monkeypatch):
    """The parser tree is built once per process: after a warm-up call,
    main constructs no ArgumentParser (a tree is 10 of them)."""
    out = ["--out-dir", str(tmp_path / "out")]
    assert run_in_process(out + ["pisot", "golden"]) == (0, "")
    made = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        made.append(type(self))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    mt = str(ifs_file)
    for argv in (["pisot", "2"], ["pisot", "3/2"], ["pisot", "tribonacci"],
                 ["parry", "--beta", "golden"], ["parry", "--beta", "2"],
                 ["parry", "--beta", "3/2", "--truncation", "16"],
                 ["spectrum", mt, "--beta", "2", "--beta", "golden"],
                 ["spectrum", mt, "--beta", "3"],
                 ["model", mt], ["model", mt, "--beta", "golden"]):
        assert run_in_process(out + argv) == (0, ""), argv
    assert made == []


# one small run of each subcommand that gives a value to --seed and to
# every flag, off the default where that is cheap: (argv, the dests of its
# positional arguments, its tables)
REPLAYS = {
    "pisot": (["--seed", "1", "pisot", "tribonacci"], ["number"], []),
    "model": (["--seed", "2", "model", "two.json", "--max-length", "6",
               "--beta", "golden"], ["ifs"], ["model.json"]),
    "sample": (["--seed", "3", "sample", "mt.json", "--count", "40",
                "--depth", "7", "--mode", "model"], ["ifs"], ["samples.csv"]),
    "expand": (["--seed", "4", "expand", "--beta", "3/2", "--x", "1/3",
                "--x", "2/7", "--digits", "40"], [], ["expand.csv"]),
    "parry": (["--seed", "5", "parry", "--beta", "golden", "--truncation",
               "32"], [], ["parry.csv"]),
    "normality": (["--seed", "6", "normality", "mt.json", "--beta", "3",
                   "--n-points", "2", "--n-digits", "80",
                   "--max-mean-discrepancy", "0.9"], ["model"],
                  ["normality.csv"]),
    "scenery": (["--seed", "7", "scenery", "mt.json", "--T", "12", "--dt",
                 "0.5", "--n-q", "60", "--tolerance", "0.9",
                 "--dump-windows", "1"], ["model"], ["windows.csv"]),
    "disintegration": (["--seed", "8", "disintegration", "two.json",
                        "--count", "300", "--tolerance", "0.5"], ["ifs"],
                       []),
    "spectrum": (["--seed", "9", "spectrum", "mt.json", "--beta", "2",
                  "--beta", "golden"], ["model"], []),
}


@pytest.mark.parametrize("command", sorted(REPLAYS))
def test_every_report_replays_itself(tmp_path, monkeypatch, command):
    """A report echoes --seed and every flag its run gave, and --config
    with that report, plus the positional arguments read from the same
    echo, writes the report and the tables again byte for byte."""
    monkeypatch.chdir(tmp_path)
    Path("mt.json").write_text(MIDDLE_THIRDS)
    Path("two.json").write_text(TWO_RATIO)
    argv, positional, tables = REPLAYS[command]
    assert run_in_process(["--out-dir", "a"] + argv) == (0, "")
    report = Path("a", f"{command}_report.json")
    config = json.loads(report.read_text())["config"]
    given = {a[2:].replace("-", "_") for a in argv if a.startswith("--")}
    assert given | set(positional) <= set(config)
    assert run_in_process(["--config", str(report), "--out-dir", "b",
                           command] + [config[d] for d in positional]) == \
        (0, "")
    for name in [report.name] + tables:
        assert Path("b", name).read_bytes() == Path("a", name).read_bytes()


def test_named_constant_is_fresh_per_call(tmp_path, monkeypatch):
    """A named constant refines in place, and a field built on it writes
    its bounds into model.json: after `pisot golden` refined golden, a
    model run in the same process still writes a fresh process's bytes."""
    monkeypatch.chdir(tmp_path)
    Path("g.json").write_text(GOLDEN_IFS)
    assert run_in_process(["--out-dir", "p", "pisot", "golden"]) == (0, "")
    assert run_in_process(["--out-dir", "a", "model", "g.json"]) == (0, "")
    r = run_cli(["--out-dir", "fresh", "model", "g.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert Path("a", "model.json").read_bytes() == \
        Path("fresh", "model.json").read_bytes()


TETRANACCI = "x^4 - x^3 - x^2 - x - 1"


def test_no_sympy_complex_root_counts(tmp_path, ifs_file, monkeypatch):
    """Pisot bases are certified by inclusion disks: sympy's exact complex
    root count is never called."""
    from sympy.polys import rootisolation
    calls = []
    count = rootisolation.dup_count_complex_roots

    def counting(*args, **kwargs):
        calls.append(args)
        return count(*args, **kwargs)
    monkeypatch.setattr(rootisolation, "dup_count_complex_roots", counting)
    out = str(tmp_path / "out")
    for base in ("tribonacci", "plastic", TETRANACCI):
        for args in (["pisot", base], ["parry", "--beta", base],
                     ["spectrum", str(ifs_file), "--beta", base]):
            assert run_in_process(["--out-dir", out] + args) == (0, "")
    assert calls == []


SYMPY_FREE = [
    ["pisot", "golden"],
    ["parry", "--beta", "tribonacci"],
    ["spectrum", "mt.json", "--beta", "plastic"],
    ["model", "two.json", "--beta", "3"],
    ["model", "two.json", "--beta", "x^2 - 2"],
    ["normality", "mt.json", "--beta", "golden", "--n-points", "2",
     "--n-digits", "200"],
    ["expand", "--beta", "tribonacci", "--x", "1/3"],
]


def test_commands_never_import_sympy(tmp_path):
    """sympy is a test oracle only: in a fresh interpreter, no command
    loads any sympy module."""
    (tmp_path / "mt.json").write_text(MIDDLE_THIRDS)
    (tmp_path / "two.json").write_text(
        '{"maps": [{"s": "1/2", "t": "0"}, {"s": "1/3", "t": "2/3"}]}')
    script = (
        "import contextlib, io, json, sys\n"
        "from betascenery import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(['--out-dir', 'out'] + argv)\n"
        "    loaded = [m for m in sys.modules if m.split('.')[0] == 'sympy']\n"
        "    print(json.dumps([argv, code, loaded]))\n")
    proc = subprocess.run([sys.executable, "-c", script,
                           json.dumps(SYMPY_FREE)], cwd=tmp_path,
                          env=package_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [argv for argv, _, _ in runs] == SYMPY_FREE
    for argv, code, loaded in runs:
        assert code in (0, 2) and loaded == [], argv


def test_import_loads_no_mpmath(tmp_path):
    """mpmath is a test oracle only: a fresh import of the package and its
    command line loads no mpmath module."""
    script = ("import sys, betascenery, betascenery.cli\n"
              "print([m for m in sys.modules if m.split('.')[0] == 'mpmath'])")
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=package_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


MPMATH_FREE = [
    ["pisot", "tribonacci"],
    ["spectrum", "mt.json", "--beta", "golden", "--beta", "3", "--beta",
     "plastic"],
    ["model", "two.json", "--beta", "x^2 - 2"],
]


def test_commands_run_with_mpmath_blocked(tmp_path, monkeypatch):
    """Root disks and logarithms need no mpmath: in a fresh interpreter
    where importing it fails, each command writes byte for byte what it
    writes in this process, where the test oracles have loaded it."""
    monkeypatch.chdir(tmp_path)
    Path("mt.json").write_text(MIDDLE_THIRDS)
    Path("two.json").write_text(TWO_RATIO)
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['mpmath'] = None\n"
        "from betascenery import cli\n"
        "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        print(cli.main(['--out-dir', f'blocked{i}'] + argv),\n"
        "              file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script,
                           json.dumps(MPMATH_FREE)], env=package_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["0"] * len(MPMATH_FREE), proc.stderr
    for i, argv in enumerate(MPMATH_FREE):
        assert run_in_process(["--out-dir", f"normal{i}"] + argv) == (0, "")
        files = sorted(p.name for p in Path(f"normal{i}").iterdir())
        assert files == sorted(p.name for p in Path(f"blocked{i}").iterdir())
        for name in files:
            assert Path(f"blocked{i}", name).read_bytes() == \
                Path(f"normal{i}", name).read_bytes(), (argv, name)


def test_pisot_report_ends_on_a_float_tie(tmp_path):
    """A conjugate modulus exactly halfway between two floats keeps the ends
    of its enclosure on two floats at every precision; the report ends
    anyway, with one of the two.  Here the complex pair of the irreducible
    x^2 q(x + t^2/x), q(y) = y^2 - 2y - 1, lies on |z| = t = 1 + 2^-53."""
    s, m = 2 ** 106, (2 ** 53 + 1) ** 2       # t^2 = m / s
    poly = _poly_text([m * m, -2 * s * m, 2 * s * m - s * s, -2 * s * s,
                       s * s])
    out = tmp_path / "out"
    assert run_in_process(["--out-dir", str(out), "pisot", poly]) == (0, "")
    rep = json.loads((out / "pisot_report.json").read_text())
    assert rep["results"]["conjugate_moduli"][1] in (1.0, 1.0 + 2.0 ** -52)


def _poly_text(coeffs):
    """sum_k coeffs[k] x^k as text, zero terms kept: '+ 1*x^0 - 2*x^1'."""
    return " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*x^{k}"
                    for k, c in enumerate(coeffs))


SCALAR_TEXT = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=7).map(str),
    st.sampled_from(["golden", "sqrt2", "plastic", "1/0", "0/0", "x", "-x",
                     "", "foo", "2.5", "1e3", "x^", "x^2 +", "nan", "inf"]),
    st.lists(st.integers(-3, 3), min_size=1, max_size=5).map(_poly_text),
    st.text(alphabet="x0123456789^+-*/ .", max_size=10))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "mt.json").write_text(MIDDLE_THIRDS)
    return d


@given(text=SCALAR_TEXT)
@example(text="x^2 - 1")                       # reducible
@example(text="0*x + 3")                       # constant
@example(text="x^2 + 1")                       # no real root
@example(text="x^4 + x^3 + x^2 + x + 1")       # self-reciprocal, no real root
@example(text="x^4 - x^3 - x^2 - x + 1")       # self-reciprocal, Salem
@example(text="x^2 - 3*x + 1")                 # self-reciprocal, Pisot
@example(text="x^3 + x^2 + x + 1")             # self-reciprocal, reducible
@settings(max_examples=60, deadline=None)
def test_scalar_fuzz_exits_cleanly(fuzz_dir, text):
    out = str(fuzz_dir / "out")
    for args in (["pisot", text],
                 ["normality", str(fuzz_dir / "mt.json"), "--beta", text,
                  "--n-points", "1", "--n-digits", "20"]):
        code, err = run_in_process(["--out-dir", out] + args)
        assert code in (0, 1, 2), (args, code, err)
        assert "Traceback" not in err


# Contracting ratios, shifts and malformed values for IFS documents.  Most
# documents are well formed, so that most runs build a model.
IFS_RATIO = st.sampled_from(["1/2", "1/3", "-1/3", "2/5", "1/golden",
                             "-1/golden", "1/plastic", "1/tribonacci",
                             "1/sqrt2"])
IFS_SHIFT = st.fractions(min_value=0, max_value=1, max_denominator=6).map(str)
IFS_BAD = st.one_of(
    st.sampled_from(["0", "1", "-1", "golden", "3/2", "golden/0", "1/0", "x",
                     ""]),
    st.integers(-2, 2), st.none(), st.lists(st.integers(0, 1), max_size=2))
IFS_MAPS = st.lists(st.fixed_dictionaries({"s": IFS_RATIO, "t": IFS_SHIFT}),
                    min_size=2, max_size=3)
IFS_BAD_MAP = st.one_of(
    st.fixed_dictionaries({"s": st.one_of(IFS_RATIO, IFS_BAD),
                           "t": st.one_of(IFS_SHIFT, IFS_RATIO, IFS_BAD)}),
    st.fixed_dictionaries({"s": IFS_RATIO}), IFS_BAD)
IFS_DOC = st.one_of(
    st.fixed_dictionaries({"maps": IFS_MAPS}),
    st.fixed_dictionaries({"maps": IFS_MAPS},
                          optional={"weights": st.lists(IFS_SHIFT,
                                                        max_size=3)}),
    st.fixed_dictionaries({"maps": st.lists(IFS_BAD_MAP, max_size=3),
                           "weights": st.lists(st.one_of(IFS_SHIFT, IFS_BAD),
                                               max_size=3)}),
    st.fixed_dictionaries({"maps": IFS_BAD}), IFS_BAD)
IFS_BASE = st.sampled_from(["2", "3/2", "golden", "plastic", "tribonacci",
                            "x^2 - 2", "x^2 - x - 3", "1", "1/2", "x^2 + 1"])


@given(doc=IFS_DOC, base=IFS_BASE)
@example(doc={"maps": [{"s": "1/golden", "t": "0"},
                       {"s": "1/golden", "t": "1/3"}]}, base="plastic")
@example(doc={"maps": [{"s": "0", "t": "0"}]}, base="2")
@example(doc={"maps": [{"s": "1", "t": "0"}]}, base="2")
@example(doc={"maps": [{"s": "1/golden", "t": "0"},
                       {"s": "1/plastic", "t": "1"}]}, base="golden")
@settings(max_examples=40, deadline=None)
def test_ifs_fuzz_exits_cleanly(fuzz_dir, doc, base):
    """Generated IFS documents through model --beta and spectrum --beta."""
    path = fuzz_dir / "ifs.json"
    path.write_text(json.dumps(doc))
    out = str(fuzz_dir / "out")
    for args in (["model", str(path), "--beta", base],
                 ["spectrum", str(path), "--beta", base]):
        code, err = run_in_process(["--out-dir", out] + args)
        assert code in (0, 1, 2), (args, code, err)
        assert "Traceback" not in err


# -- frozen outputs ----------------------------------------------------------

TWO_RATIO = '{"maps": [{"s": "1/2", "t": "0"}, {"s": "1/3", "t": "2/3"}]}'
REVERSING = '{"maps": [{"s": "-1/2", "t": "0"}, {"s": "-1/2", "t": "1"}]}'
SEXTIC = "x^6 + 9*x^5 + 3*x^4 - 8*x^3 - 8*x^2 - 6*x + 4"


def coded_point(maps, levels, seed):
    """An exact point of the IFS with these (ratio, shift) maps: a seeded
    random word of `levels` maps applied to 1/2."""
    rng = random.Random(seed)
    x = Fraction(1, 2)
    for _ in range(levels):
        r, t = maps[rng.randrange(len(maps))]
        x = r * x + t
    return x


def frozen_runs():
    """Name -> (argv, output files) of the runs whose bytes are frozen."""
    x_mt = coded_point([(Fraction(1, 3), 0), (Fraction(1, 3), Fraction(2, 3))],
                       700, 1)
    x_two = coded_point([(Fraction(1, 2), 0),
                         (Fraction(1, 3), Fraction(2, 3))], 900, 2)
    runs = {}
    for base in ("3", "3/2", "golden"):
        for model in ("mt", "two"):
            runs[f"normality {model} {base}"] = (
                ["--seed", "5", "normality", f"{model}.json", "--beta", base,
                 "--n-points", "3", "--n-digits", "500"],
                ["normality.csv", "normality_report.json"])
        runs[f"expand {base}"] = (
            ["expand", "--beta", base, "--x", str(x_mt), "--x", str(x_two),
             "--digits", "500"], ["expand.csv", "expand_report.json"])
    for base in ("3/2", "golden", "tribonacci", SEXTIC):
        runs[f"parry {base}"] = (["parry", "--beta", base],
                                 ["parry.csv", "parry_report.json"])
    # a deep rational orbit, a longer truncation, a non-Pisot quadratic and
    # a non-monic base (lattice scale c = 2)
    for base in ("7/3", "x^2 - 2", "2*x^2 - 3*x - 1"):
        runs[f"parry {base}"] = (["parry", "--beta", base],
                                 ["parry.csv", "parry_report.json"])
    runs["parry 5/3 --truncation 600"] = (
        ["parry", "--beta", "5/3", "--truncation", "600"],
        ["parry.csv", "parry_report.json"])
    # a rational, a quadratic, a cubic with a complex pair, a non-Pisot
    for number in ("2", "golden", "x^3 - x - 1", "x^2 - 2"):
        runs[f"pisot {number}"] = (["pisot", number], ["pisot_report.json"])
    for name, argv in (("model mt", ["mt.json"]),
                       ("model two 3", ["two.json", "--beta", "3"]),
                       ("model two x^2 - 2", ["two.json", "--beta", "x^2 - 2"])):
        runs[name] = (["model"] + argv, ["model.json", "model_report.json"])
    # hulls set by a reflection: [-golden, 2] in Q(golden) and [-2/3, 4/3];
    # the direct sampler starts every point at the hull midpoint
    for name in ("g", "rev"):
        runs[f"model {name}"] = (["model", f"{name}.json"],
                                 ["model.json", "model_report.json"])
    runs["sample rev --mode direct"] = (
        ["--seed", "3", "sample", "rev.json", "--mode", "direct", "--count",
         "200"], ["samples.csv", "sample_report.json"])
    runs["spectrum mt 2 3 golden"] = (
        ["spectrum", "mt.json", "--beta", "2", "--beta", "3", "--beta",
         "golden"], ["spectrum_report.json"])
    runs["sample --config count 25 seed 3"] = (
        ["--config", "c.json", "sample", "mt.json"],
        ["samples.csv", "sample_report.json"])
    return runs


def output_digest(argv, files) -> str:
    """SHA-256 of the output files of one in-process run from the working
    directory, which holds mt.json, two.json, g.json, rev.json and the
    config c.json."""
    code, err = run_in_process(["--out-dir", "out"] + argv)
    assert code == 0, err
    h = hashlib.sha256()
    for name in files:
        h.update(Path("out", name).read_bytes())
    return h.hexdigest()


# recorded before the rational-digits pipeline moved to integer kernels
# (the growing-denominator lattice, mantissa floors and the product-tree
# point coder); reports carry no wall-clock, so the bytes are the results
FROZEN_DIGESTS = {
    "expand 3":
        "0d9a92d1733dc1e08b2ee356468d408218380c3496c029696b2eec6aa51a6351",
    "expand 3/2":
        "f8cde296b8f4611644f835ccb4c9e36ab42a1718ab57d84c57e1b41f40499e5c",
    "expand golden":
        "5662edc2c9a68d410c28e67b4bb9cb2394a2e4c5d4aef77b9537293a32dca447",
    "normality mt 3":
        "28208d01cdd0d2949002d7f0220401a51e9b7ee6809800201c1b400a135739fe",
    "normality mt 3/2":
        "8ec3db07e5b6f6e91df0e5f208139caa84ab17258be2b9a3ec8c6c1870b483f4",
    "normality mt golden":
        "86a19013de8fbcd420a13814c1baad20e83ef0f1bbaa0abd1cd00c90d7eabc12",
    "normality two 3":
        "a1a8948da7807be68c3031218e129c6a79a7c6e9ade6ebe12f5629c50e92b17f",
    "normality two 3/2":
        "9fff5f091dcc35a79ca52b32dd76fd89e7364a5a5517ca9a675c325e91ecfaf7",
    "normality two golden":
        "2c4e7b1759065df63af88386ad0c0978a572dc72e43c0da2b39dcd234d96adaf",
    "parry 3/2":
        "a9eed48c393f2fbf1bc288189dd450bd2359cc4cb6be83c76d4b799f464237ad",
    "parry golden":
        "70b19876d282165729d6e134220c4a0cd946dc8d9b3fe720d3975ed81b30a44f",
    "parry tribonacci":
        "ea4cef48f22fd3bb60cc0dcea43cc4574b043ebcdc1c1d4a07b016c41cf11e36",
    "parry x^6 + 9*x^5 + 3*x^4 - 8*x^3 - 8*x^2 - 6*x + 4":
        "14b461f3c17c83812cc50e3a96fbe50588046dadd3b001d723975a11afba56c2",
    # recorded before the Parry density moved to the integer lattice
    "parry 7/3":
        "f70b23fb125a3b0ec65f8a7aa7f7a12694740016581e11fccb5387807f22dced",
    "parry 5/3 --truncation 600":
        "cd251d3809c1e4bffd75a65e1c8ad96cacc2ab7ab821081d2913ad88588835ac",
    "parry x^2 - 2":
        "93d576f6a1dd40900542a136387e2777ce756e63c5cd98ba5d9c883a591f49d1",
    "parry 2*x^2 - 3*x - 1":
        "669012849895884217dbab2babd5f377b6aa92f18f5a7dedcc9f633ae0cc36ab",
    # recorded before main took over the config echo and the file writes
    "pisot 2":
        "d03158178693bbe674ce052f05858650d452f6446c4266f183ddf093cdd5b7d6",
    "pisot golden":
        "c5a81e89e3bb91976f77300a7688d52cf4a5bb48ee190cfb2858d4494236c672",
    "pisot x^3 - x - 1":
        "c1108ba933efb531eff7388d60f7816ef6a760d1998cd6c2968f9fe7f4d372fd",
    "pisot x^2 - 2":
        "7d271fe7bead14c9777e7b0e0dfe0797203b87a7f57e80797abf6283022f6841",
    "model mt":
        "0b21f0dc420e9e0298100b3a338f64bca887bd6a17ef1097dab6ee30628e933c",
    "model two 3":
        "8db94b2a61aca7c2bd25a9c23174ddb6cab0cdca3a4cacb7a53f1cbe39e5ea34",
    "model two x^2 - 2":
        "9e0985c5bab5ef5bee421ef897a8108f8d83e92ef034bb566e093f2928f62a3d",
    "spectrum mt 2 3 golden":
        "84544e4afd7be94403a27b78a4f26091d202916ec88c87959bdf9ec945b12b7a",
    "sample --config count 25 seed 3":
        "1cf45ce183690f483a53db1732d17fb4d6883e1a2819d45e7e9c1b083acbe682",
    # recorded before the attractor hull took its closed form
    "model g":
        "2f1ee95aa01189d7d7ef99109165ccb22d68e6db69375230adbc1efc13eb70a3",
    "model rev":
        "441a3aa21c6eec905937fdd3c159040473e20951e5aaf0a44d5a0fed62145061",
    "sample rev --mode direct":
        "b672cb1f8d05a52737fcfdb4a9ff6b52738a4c99f9eb6fe283deb2a71a5624bb",
}


@pytest.mark.parametrize("name", sorted(FROZEN_DIGESTS))
def test_outputs_are_frozen(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    Path("mt.json").write_text(MIDDLE_THIRDS)
    Path("two.json").write_text(TWO_RATIO)
    Path("g.json").write_text(GOLDEN_IFS)
    Path("rev.json").write_text(REVERSING)
    Path("c.json").write_text('{"count": 25, "seed": 3}')
    assert output_digest(*frozen_runs()[name]) == FROZEN_DIGESTS[name]


def scalar_model_points(model, base, n_points, n_digits, seed):
    """The draws of `cli._exact_model_points` one level at a time: level
    k reads uniforms 2k and 2k + 1 and adds its cost to a running sum until
    the sum reaches the target."""
    log_beta = math.log(float(base.beta))
    ratios = [abs(float(c.ratio)) for c in model.components]
    th_sel = cdf_thresholds(model.selection)
    th_inner = [cdf_thresholds(c.weights) for c in model.components]
    target = n_digits * log_beta + 64 * math.log(2)
    pts = []
    for j in range(n_points):
        stream = UniformStream(seed, "normality-point", j)
        omega, inner, acc, k = [], [], 0.0, 0
        while acc < target:
            u_sel, u_inner = stream.slice(2 * k, 2)
            i = int(np.searchsorted(th_sel, u_sel, side="right"))
            omega.append(i)
            inner.append(int(np.searchsorted(th_inner[i], u_inner,
                                             side="right")))
            acc += -math.log(ratios[i])
            k += 1
        x = model.point_of_path(omega, inner)
        pts.append(x - math.floor(x))
    return pts


@pytest.mark.parametrize("base", ["2", "3/2", "golden"])
@pytest.mark.parametrize("seed", [0, 1, 17])
def test_model_point_draws_match_scalar_loop(base, seed, two_ratio_model):
    b = cli._parse_beta(base)
    got = cli._exact_model_points(two_ratio_model, b, 3, 300, seed)
    assert got == scalar_model_points(two_ratio_model, b, 3, 300, seed)
