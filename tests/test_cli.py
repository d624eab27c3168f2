import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from cvmdi import ProtocolParams, cli
from cvmdi.analysis import VARIANCE_PRESETS, compare_protocols

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
SHIPPED_SWEEP = CONFIGS / "symmetric_ideal_sweep.json"

# at L = 0 the fixed gain 1.414 hits the cancellation guard; the other points run
ERROR_ROW_SWEEP = {"v_a": 5.04, "v_b": 1e10, "eps1": 0.0, "eps2": 0.0, "gain": 1.414,
                   "sweep": {"variable": "distance-symmetric",
                             "start": 0.0, "stop": 1.0, "step": 0.5}}


# the CLI child imports cvmdi from this checkout's src/, as the tests do
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))


def run_cli(*args, **kw):
    # a hanging CLI fails its own test instead of stalling the suite
    return subprocess.run([sys.executable, "-m", "cvmdi.cli", *args],
                          capture_output=True, text=True, env=CHILD_ENV, timeout=120, **kw)


def csv_records(text):
    """The CSV records of a table, its comment lines dropped."""
    return list(csv.reader(l for l in text.splitlines() if l and not l.startswith("#")))


def parse_csv(text):
    header, *records = csv_records(text)
    return header, [dict(zip(header, r)) for r in records]


def shipped_sweep_grid():
    """The x values the shipped sweep must print, one per row, in order.

    The grid is start + k*step with both ends included, worked out from the
    config's own numbers rather than from SweepSpec.grid(), so that the CLI's
    rows are checked against an independent count. Values are rounded to the
    config's output precision. The shipped sweep is the paper's K(L) curve from
    L = 0 to past the cutoff, so its ends are pinned as well.
    """
    cfg = json.loads(SHIPPED_SWEEP.read_text())
    start, stop, step = (cfg["sweep"][k] for k in ("start", "stop", "step"))
    assert (start, stop) == (0.0, 7.0), "shipped sweep must run from L = 0 km to 7 km"
    n = round((stop - start) / step) + 1
    return [float(f"{start + k * step:.{cfg['precision']}g}") for k in range(n)]


def meta_line(text):
    for line in text.splitlines():
        if line.startswith("# config "):
            return json.loads(line[len("# config "):])
    raise AssertionError("no provenance line in output")


def test_keyrate_defaults_single_row():
    res = run_cli("keyrate")
    assert res.returncode == 0, res.stderr
    header, rows = parse_csv(res.stdout)
    assert header[0] == "I_AB_bits" and "flags" in header
    assert len(rows) == 1
    row = rows[0]
    i_ab, chi, k = (float(row[c]) for c in ("I_AB_bits", "chi_BE_bits", "K_bits"))
    assert k == pytest.approx(i_ab - chi, abs=1e-7)  # beta = 1 defaults
    assert k > 0.0
    meta = meta_line(res.stdout)
    assert meta["v_a"] == 1e5 and meta["eta"] == 1.0


def test_keyrate_practical_preset_echoed():
    res = run_cli("keyrate", "--detector", "practical", "--variance", "realistic")
    assert res.returncode == 0, res.stderr
    meta = meta_line(res.stdout)
    assert meta["eta"] == 0.9 and meta["v_el"] == 0.015
    assert meta["v_a"] == 5.04 and meta["v_b"] == 5.04


def test_keyrate_rejects_negative_length():
    res = run_cli("keyrate", "--lac", "-1")
    assert res.returncode == 2
    assert "l_ac" in res.stderr


def test_keyrate_numeric_variance_flag():
    res = run_cli("keyrate", "--variance", "7.5", "--lac", "2", "--lbc", "2")
    assert res.returncode == 0, res.stderr
    meta = meta_line(res.stdout)
    assert meta["v_a"] == 7.5


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"protocol": "squeezed", "typo_field": 1}))
    res = run_cli("keyrate", "--config", str(cfg))
    assert res.returncode == 2
    assert "typo_field" in res.stderr


def test_sweep_needs_grid():
    res = run_cli("sweep")
    assert res.returncode == 2
    assert "sweep" in res.stderr


def test_sweep_empty_grid_rejected(tmp_path):
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({
        "sweep": {"variable": "distance-symmetric", "start": 3.0, "stop": 1.0, "step": 1.0}}))
    res = run_cli("sweep", "--config", str(cfg))
    assert res.returncode == 2


def test_sweep_grid_over_the_bound_rejected(tmp_path):
    # one point more than MAX_SWEEP_POINTS: refused before any point is evaluated
    from cvmdi.analysis import MAX_SWEEP_POINTS
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"sweep": {"variable": "distance-symmetric", "start": 0.0,
                                         "stop": float(MAX_SWEEP_POINTS), "step": 1.0}}))
    res = run_cli("sweep", "--config", str(cfg))
    assert res.returncode == 2
    assert res.stdout == ""
    assert "points" in res.stderr


def test_sweep_optimize_noise_key_rejected(tmp_path):
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({"protocol": "squeezed-modified", "sweep": {
        "variable": "lac-with-fixed-lbc", "start": 0.0, "stop": 4.0, "step": 2.0,
        "optimize_noise": True}}))
    res = run_cli("sweep", "--config", str(cfg))
    assert res.returncode == 2
    assert "optimize_noise" in res.stderr


MODIFIED_SWEEP = {"variance": "realistic", "detector": "practical", "l_bc": 1.0,
                  "sweep": {"variable": "lac-with-fixed-lbc",
                            "start": 0.0, "stop": 8.0, "step": 4.0}}


@pytest.mark.parametrize("chi_n", [None, 1.5])
def test_modified_sweep_chi_n_optimised_or_as_given(tmp_path, chi_n):
    # without --chi-n each point runs at its optimised chi_n*; with it, at
    # the given value
    from cvmdi import AddedNoiseParams, ProtocolParams, key_rate, optimize_added_noise
    cfg = tmp_path / "modified.json"
    cfg.write_text(json.dumps(MODIFIED_SWEEP))
    flags = [] if chi_n is None else ["--chi-n", str(chi_n)]
    res = run_cli("sweep", "--config", str(cfg), "--protocol", "squeezed-modified",
                  "--format", "json", *flags)
    assert res.returncode == 0, res.stderr
    rows = json.loads(res.stdout)["rows"]
    assert [r["x_km"] for r in rows] == [0.0, 4.0, 8.0]
    for row in rows:
        p = ProtocolParams(v_a=5.04, v_b=5.04, l_ac=row["x_km"], l_bc=1.0, eta=0.9,
                           v_el=0.015, protocol="squeezed-modified")
        chi = optimize_added_noise(p)[0] if chi_n is None else chi_n
        want = key_rate(p, AddedNoiseParams.from_chi_n(chi))
        assert row["K_bits"] == float(f"{want.key_rate:.9g}")
        assert row["chi_N_snu"] == float(f"{want.chi_n:.9g}")


def test_shipped_sweep_config_runs():
    res = run_cli("sweep", "--config", str(SHIPPED_SWEEP))
    assert res.returncode == 0, res.stderr
    header, rows = parse_csv(res.stdout)
    assert header[0] == "x_km"
    assert [float(r["x_km"]) for r in rows] == shipped_sweep_grid()
    assert all(r["flags"] == "" for r in rows)
    ks = [float(r["K_bits"]) for r in rows]
    assert ks == sorted(ks, reverse=True)
    assert ks[0] > 0.0 > ks[-1]   # the grid crosses the cutoff


def test_shipped_noise_profile_config_runs():
    res = run_cli("sweep", "--config", str(CONFIGS / "most_asymmetric_noise_profile.json"))
    assert res.returncode == 0, res.stderr
    header, rows = parse_csv(res.stdout)
    assert header[0] == "x_snu"
    ks = [float(r["K_bits"]) for r in rows]
    assert max(ks) > ks[0]  # trusted noise helps at this geometry


@pytest.mark.parametrize("chi_n,code", [("2", 2), ("optimize", 0)])
def test_chi_n_sweep_exits_2_on_a_given_chi_n(capsys, chi_n, code):
    argv = ["sweep", "--config", str(CONFIGS / "most_asymmetric_noise_profile.json")]
    assert cli.main([*argv, "--chi-n", chi_n]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert "a chi-n sweep sets chi_n at each point" in captured.err
    else:
        assert captured.err == ""
        assert parse_csv(captured.out)[0][0] == "x_snu"


def test_sweep_csv_deterministic(tmp_path):
    args = ("sweep", "--config", str(CONFIGS / "symmetric_ideal_sweep.json"))
    out1, out2 = run_cli(*args), run_cli(*args)
    assert out1.stdout == out2.stdout
    assert out1.stdout.endswith("\n")
    assert "\r" not in out1.stdout


def test_sweep_json_round_trip(tmp_path):
    res = run_cli("sweep", "--config", str(SHIPPED_SWEEP), "--format", "json")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    rows = payload["rows"]
    assert [r["x_km"] for r in rows] == shipped_sweep_grid()
    for row in rows:
        for key, val in row.items():
            if isinstance(val, float):
                assert float(f"{val:.9g}") == val  # stable at 9 significant digits
    assert payload["metadata"]["protocol"] == "squeezed"


def test_maxdist_stable_across_reruns():
    args = ("maxdist", "--variance", "realistic", "--detector", "practical",
            "--geometry", "most-asymmetric", "--protocol", "squeezed", "--format", "json")
    r1, r2 = run_cli(*args), run_cli(*args)
    assert r1.returncode == 0, r1.stderr
    assert r1.stdout == r2.stdout
    result = json.loads(r1.stdout)["result"]
    assert result["l_star_km"] == pytest.approx(10.5, abs=0.2)
    assert result["positive_at_origin"] is True


def test_maxdist_symmetric_coherent():
    res = run_cli("maxdist", "--protocol", "coherent", "--detector", "practical",
                  "--geometry", "symmetric", "--format", "json")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout)["result"]
    assert result["l_ab_km"] == pytest.approx(2.0 * result["l_star_km"])
    assert result["l_ab_km"] == pytest.approx(2.31, abs=0.2)


def test_optnoise_reports_optimum():
    res = run_cli("optnoise", "--protocol", "squeezed-modified", "--variance", "realistic",
                  "--detector", "practical", "--lac", "11", "--lbc", "0",
                  "--format", "json")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout)["result"]
    assert result["chi_n_star_snu"] > 0.0
    assert result["K_star_bits"] > 0.0
    # the report is key_rate at chi_n*, whose K is the optimiser's K* itself
    assert result["report"]["chi_N_snu"] == result["chi_n_star_snu"]
    assert result["report"]["K_bits"] == result["K_star_bits"]


def test_optnoise_requires_modified_protocol():
    res = run_cli("optnoise", "--protocol", "squeezed")
    assert res.returncode == 2


@pytest.mark.parametrize("argv,message", [
    (["keyrate"], "protocol 'squeezed' does not take added-noise parameters"),
    (["maxdist"], "protocol 'squeezed' does not take added-noise parameters"),
    (["sweep", "--config", str(SHIPPED_SWEEP)],
     "protocol 'squeezed' does not take added-noise parameters"),
    (["optnoise"], "optnoise does not read 'chi_n'"),
])
def test_chi_n_with_a_plain_protocol_exits_2(capsys, argv, message):
    assert cli.main([*argv, "--protocol", "squeezed", "--chi-n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


QUICK = ["--variance", "realistic", "--detector", "practical"]
PROVENANCE_ARGV = {
    "keyrate": ["keyrate", *QUICK],
    "sweep": ["sweep", "--config", str(SHIPPED_SWEEP), *QUICK],
    "maxdist": ["maxdist", *QUICK, "--geometry", "most-asymmetric"],
    "optnoise": ["optnoise", *QUICK, "--protocol", "squeezed-modified", "--lac", "11"],
    "compare": ["compare", *QUICK, "--geometry", "most-asymmetric"],
}


@pytest.mark.parametrize("command", list(PROVENANCE_ARGV))
def test_metadata_is_the_resolved_config_record(capsys, command):
    metas = {}
    for fmt in ("csv", "json"):
        assert cli.main([*PROVENANCE_ARGV[command], "--format", fmt]) == 0
        out = capsys.readouterr().out
        metas[fmt] = meta_line(out) if fmt == "csv" else json.loads(out)["metadata"]
    assert metas["csv"] == {**metas["json"], "format": "csv"}
    meta = metas["json"]
    assert set(meta) == cli.READS[command] | {"tool_version"}
    assert meta["tool_version"] == cli.__version__
    # compare sets eta per preset row, so its record holds none
    assert meta["v_a"] == 5.04 and meta.get("eta") == (None if command == "compare" else 0.9)


@pytest.mark.parametrize("geometry", ["symmetric", "asymmetric", "most-asymmetric"])
def test_maxdist_geometry_matches_its_compare_row(capsys, geometry):
    # maxdist in a geometry gives the compare row of its protocol, detector
    # and L_BC; symmetric and most-asymmetric read no --lbc, and
    # most-asymmetric scans at L_BC = 0 whatever --lbc says
    argv = [*QUICK, "--geometry", geometry, "--format", "json"]
    results = {}
    for lbc in ("0", "2", "3"):
        assert cli.main(["maxdist", *argv, "--lbc", lbc]) == 0
        results[lbc] = json.loads(capsys.readouterr().out)["result"]
    assert cli.main(["compare", *argv]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    squeezed = {r["l_bc_km"]: r for r in rows if r["protocol"] == "squeezed"}
    if geometry == "asymmetric":
        assert list(squeezed) == [0.0, 1.0, 2.0, 5.0]
        want = {"0": squeezed[0.0], "2": squeezed[2.0]}
        assert results["3"]["l_bc_km"] == 3.0
    else:
        assert results["0"] == results["2"] == results["3"]
        assert results["3"]["l_bc_km"] == (None if geometry == "symmetric" else 0.0)
        want = {"0": squeezed[results["0"]["l_bc_km"]]}
    for lbc, row in want.items():
        assert row.pop("detector") == "practical"
        del row["protocol"]
        assert {k: results[lbc][k] for k in row} == row, lbc


def test_compare_table_structure():
    res = run_cli("compare", "--variance", "realistic", "--geometry", "symmetric",
                  "--tol-km", "0.2", "--format", "json")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    rows = payload["rows"]
    assert {(r["protocol"], r["detector"]) for r in rows} == {
        (p, d) for p in ("coherent", "squeezed", "squeezed-modified")
        for d in ("perfect", "practical")}
    assert payload["metadata"]["detector"] is None  # every preset ran; each row names its own
    assert payload["metadata"]["tool_version"]


@pytest.mark.parametrize("from_config", [False, True])
def test_compare_keeps_an_explicit_detector(tmp_path, capsys, from_config):
    argv = ["compare", "--variance", "realistic", "--geometry", "symmetric",
            "--tol-km", "0.2", "--format", "json"]
    if from_config:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"detector": "practical"}))
        argv += ["--config", str(path)]
    else:
        argv += ["--detector", "practical"]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [(r["protocol"], r["detector"]) for r in payload["rows"]] == [
        (p, "practical") for p in ("coherent", "squeezed", "squeezed-modified")]
    assert payload["metadata"]["detector"] == "practical"


@pytest.mark.parametrize("variance", ["realistic", "ideal"])
@pytest.mark.parametrize("geometry", ["symmetric", "asymmetric", "most-asymmetric"])
def test_paper_table_config_prints_its_table(capsys, geometry, variance):
    # each of the paper's six tables has a shipped config whose compare rows
    # are compare_protocols' rows at that base, both detectors in one table
    path = CONFIGS / f"paper_table_{geometry}_{variance}.json"
    assert json.loads(path.read_text()) == {"variance": variance, "geometry": geometry,
                                            "format": "csv"}
    assert cli.main(["compare", "--config", str(path), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    v = VARIANCE_PRESETS[variance]
    table = compare_protocols(ProtocolParams(v_a=v, v_b=v, l_ac=0.0, l_bc=0.0), geometry)
    assert rows == [asdict(r) for r in table.rows]


def test_package_runs_as_a_module():
    res = subprocess.run([sys.executable, "-m", "cvmdi", "--version"],
                         capture_output=True, text=True, env=CHILD_ENV, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == f"cvmdi {cli.__version__}"


def test_gain_flag_accepts_fixed_value():
    res = run_cli("keyrate", "--gain", "1.4142", "--format", "json")
    assert res.returncode == 0, res.stderr
    row = json.loads(res.stdout)["rows"][0]
    assert row["gain"] == pytest.approx(1.4142)


def test_csv_written_to_file(tmp_path):
    out = tmp_path / "row.csv"
    res = run_cli("keyrate", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert res.stdout == ""
    text = out.read_text()
    assert text.splitlines()[0].startswith("# config ")


def test_numeric_failure_exit_code(tmp_path):
    # at v_b = 1e10 Bob's variance b ~ 6 cancels out of terms ~ 1e10, so the
    # cancellation guard on b refuses it -> numeric exit, not a crash
    cfg = tmp_path / "extreme.json"
    cfg.write_text(json.dumps({"v_a": 5.04, "v_b": 1e10, "eps1": 0.0, "eps2": 0.0,
                               "l_ac": 0.0, "l_bc": 0.0}))
    res = run_cli("keyrate", "--config", str(cfg))
    assert res.returncode == 3
    assert "numeric error" in res.stderr


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["keyrate", "--variance", "realistic", "--lac", "5", "--gain", "1e200"],
    ["keyrate", "--variance", "1e200"],
])
def test_overflow_exits_3_with_empty_stdout(capsys, argv):
    # each printed K_bits nan, flagged holevo_clamped, and exited 0
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numeric error" in captured.err


@pytest.mark.parametrize("gain,row", [
    ("1e77", "0.387627154,513.829413,-513.441786,4.62554303e+154,2.94479953,3.85250433,,,1e+77,0,"),
    ("1e100", "0.387627154,666.638106,-666.250478,4.62554303e+200,2.94479953,3.85250433,,,1e+100,0,"),
    ("1e149", "0.387627154,992.187059,-991.799432,4.62554303e+298,2.94479953,3.85250433,,,1e+149,0,"),
    ("1e153", "0.387627154,1018.76248,-1018.37486,4.62554303e+306,2.94479953,3.85250433,,,1e+153,0,"),
])
def test_huge_finite_gain_rows_are_pinned(capsys, gain, row):
    # b ~ 1e154 to 1e306 takes the 2^-600 rescale of two_mode_symplectic;
    # the rows are those of the extended-precision kernel it replaced
    argv = ["keyrate", "--variance", "realistic", "--lac", "5", "--gain", gain]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == row


@pytest.mark.parametrize("argv", [
    ["--variance", "1e200"],
    ["--variance", "realistic", "--lac", "5", "--gain", "1e200"],
    ["--variance", "realistic", "--lac", "5", "--gain", "1e155"],
])
def test_overflow_stderr_holds_only_the_numeric_error(argv):
    # numpy used to print RuntimeWarnings with source lines before the message
    res = run_cli("keyrate", *argv)
    assert res.returncode == 3
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric error:"), res.stderr


def test_c_squared_overflow_exits_3():
    # at V = 1e154 and this gain c ~ 4e154: c^2 overflows, and formatting the
    # unphysical-form message from it raised OverflowError, a traceback, exit 1
    res = run_cli("keyrate", "--variance", "1e154", "--lac", "1", "--lbc", "1",
                  "--gain", "5.65")
    assert res.returncode == 3
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1, res.stderr
    assert lines[0].startswith("numeric error: reduced state overflows: c^2 = inf")


def test_length_underflow_exits_3_and_a_long_length_still_runs():
    # 10^(-0.2 * 1e6 / 10) underflows to 0: a valid length, a numeric limit
    res = run_cli("keyrate", "--lac", "1e6")
    assert res.returncode == 3
    assert "1000000.0 km" in res.stderr and "underflows" in res.stderr
    res = run_cli("keyrate", "--lac", "2000")
    assert res.returncode == 0, res.stderr
    header, rows = parse_csv(res.stdout)
    assert len(rows) == 1 and float(rows[0]["K_bits"]) < 0.0


@pytest.mark.parametrize("tol_km", ["0", "-1", "nan"])
def test_maxdist_rejects_bad_tol_km(tol_km):
    res = run_cli("maxdist", "--tol-km", tol_km)
    assert res.returncode == 2
    assert "tol_km" in res.stderr


@pytest.mark.parametrize("command", ["keyrate", "maxdist"])
def test_chi_n_inf_exits_2(capsys, command):
    # the library takes chi_n = inf as the limit chi_n -> inf; the CLI
    # takes no such setting, so a chi_n that is not finite is a bad value
    assert cli.main([command, "--protocol", "squeezed-modified", "--chi-n", "inf"]) == 2
    assert "chi_n must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("command,bad", [
    ("keyrate", {"variance": None}),
    ("keyrate", {"variance": [1]}),
    ("keyrate", {"detector": []}),
    ("keyrate", {"precision": "x"}),
    ("keyrate", {"precision": 0}),
    ("keyrate", {"format": "xml"}),
    ("maxdist", {"tol_km": "x"}),
    ("compare", {"tol_km": "x"}),
    ("maxdist", {"geometry": []}),
    ("keyrate", {"out": 7}),
    ("keyrate", {"out": "no-such-directory/row.csv"}),
    ("sweep", {"sweep": {"variable": "distance-symmetric",
                         "start": -math.inf, "stop": 1.0, "step": 1.0}}),
    ("keyrate", {"precision": 18}),
    ("keyrate", {"gain": True}),
    ("keyrate", {"l_ac": False}),
    ("keyrate", {"variance": True}),
    ("sweep", {"sweep": {"variable": "distance-symmetric",
                         "start": False, "stop": True, "step": True}}),
])
def test_malformed_config_value_exits_2(tmp_path, command, bad):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(bad))
    res = run_cli(command, "--config", str(cfg), cwd=tmp_path)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr


@pytest.mark.parametrize("argv", [
    ["optnoise", "--chi-n", "2"],              # a setting the command does not read
    ["keyrate", "--config", "missing.json"],   # a config file that cannot be read
    ["keyrate", "--variance", "x"],            # a malformed value
    ["sweep"],                                 # no sweep block
    ["keyrate", "--beta", "2"],                # a value the library rejects
])
def test_main_returns_2_for_every_configuration_error(tmp_path, monkeypatch, capsys, argv):
    # an error the CLI finds itself returns 2 from main, as one the library
    # raises does: an in-process caller needs no SystemExit handler
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_argparse_errors_still_exit_through_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["keyrate", "--protocol", "nope"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# CONTEXT is a point at which each setting a command reads moves that
# command's output; OTHER holds another value for every setting.
CONTEXT = {"protocol": "squeezed-modified", "variance": "realistic", "detector": "practical",
           "v_a": 6.0, "eta": 0.85, "l_ac": 0.5, "l_bc": 0.2, "beta": 0.95,
           "geometry": "asymmetric", "tol_km": 0.2,
           "sweep": {"variable": "chi-n", "start": 0.0, "stop": 2.0, "step": 1.0}}
OTHER = {"protocol": "squeezed", "variance": 8.0, "detector": "perfect", "v_a": 7.0,
         "v_b": 7.0, "eta": 0.8, "v_el": 0.03, "l_ac": 1.0, "l_bc": 0.4, "alpha": 0.25,
         "eps1": 0.02, "eps2": 0.02, "beta": 0.9, "gain": 1.2, "chi_n": 10.0,
         "geometry": "symmetric", "tol_km": 0.1, "format": "json", "out": "rows.out",
         "precision": 2, "sweep": {"variable": "chi-n", "start": 0.0, "stop": 3.0, "step": 1.0}}
# compare gives four rows per protocol and detector in the asymmetric
# geometry, one per L_BC of ASYMMETRIC_LBC_KM, and reads no --lbc in any
COMPARE_GEOMETRY = {"geometry": "symmetric"}, {"geometry": "most-asymmetric"}
FLAGS = {"protocol": "--protocol", "geometry": "--geometry", "detector": "--detector",
         "variance": "--variance", "l_ac": "--lac", "l_bc": "--lbc", "chi_n": "--chi-n",
         "gain": "--gain", "beta": "--beta", "format": "--format", "out": "--out",
         "tol_km": "--tol-km"}


def test_every_setting_is_read_by_some_command():
    assert set(OTHER) == set(cli.DEFAULTS) == set().union(*cli.READS.values())


@pytest.mark.parametrize("command,key", [(c, k) for c in cli.READS
                                         for k in sorted(set(cli.DEFAULTS) - cli.READS[c])])
def test_an_unread_setting_exits_2_before_anything_runs(tmp_path, capsys, monkeypatch,
                                                        command, key):
    def computed(cfg):
        raise AssertionError("computed")

    monkeypatch.setattr(cli, "_resolve", computed)  # every command resolves first
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: OTHER[key]}))
    argvs = [[command, "--config", str(path)]]
    if key in FLAGS:
        argvs.append([command, FLAGS[key], str(OTHER[key])])
    for argv in argvs:
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {command} does not read '{key}'\n"


def rows_of(text):
    """A command's output without its record: the CSV lines after the
    ``# config`` line, or the JSON payload without its metadata."""
    if text.startswith("{"):
        payload = json.loads(text)
        del payload["metadata"]
        return payload
    return [line for line in text.splitlines() if not line.startswith("# config ")]


@pytest.mark.filterwarnings("ignore:added-noise profile not unimodal:RuntimeWarning")
@pytest.mark.parametrize("command", list(cli.READS))
def test_the_settings_a_command_reads_are_those_that_move_its_output(tmp_path, capsys,
                                                                     monkeypatch, command):
    # With every setting accepted, each one is changed in turn in the
    # context; the exit code or the rows, the record aside, must move
    # exactly for the settings of READS[command].
    reads = cli.READS[command]
    monkeypatch.setitem(cli.READS, command, frozenset(cli.DEFAULTS))
    monkeypatch.chdir(tmp_path)
    context, other = CONTEXT, OTHER
    if command == "compare":
        context, other = {**CONTEXT, **COMPARE_GEOMETRY[0]}, {**OTHER, **COMPARE_GEOMETRY[1]}
    if command == "maxdist":
        # at L_BC = 0.2 it reaches 3.5 km, L_AB = 3.7 km, which two digits
        # print whole, so precision would not move them; at 0.25, 3.25 km
        context = {**CONTEXT, "l_bc": 0.25}

    def output(cfg):
        Path("config.json").write_text(json.dumps(cfg))
        code = cli.main([command, "--config", "config.json"])
        return code, rows_of(capsys.readouterr().out)

    base = output(context)
    assert base[0] == 0 and base[1]
    moved = {key for key in cli.DEFAULTS if output({**context, key: other[key]}) != base}
    assert moved == reads


def json_as_cells(row):
    """The CSV cells a JSON row stands for."""
    cells = {}
    for key, val in row.items():
        if key == "report":
            cells.update(json_as_cells(val))
        elif key == "lambdas":
            cells.update({f"lambda{i}": v for i, v in enumerate(val, start=1)})
        elif key == "flags":
            cells["flags"] = ";".join(val)
        elif key == "error":
            cells["flags"] = f"error:{val}"
        else:
            cells[key] = val
    return cells


def as_cell(value, digits):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return f"{value:.{digits}g}"


@pytest.mark.parametrize("argv,config", [
    (["keyrate", "--protocol", "coherent"], None),
    (["keyrate", "--protocol", "squeezed-modified", "--chi-n", "2"], None),
    (["optnoise", "--protocol", "squeezed-modified", "--variance", "realistic",
      "--detector", "practical", "--lac", "11"], None),
    (["maxdist", "--protocol", "coherent", "--geometry", "symmetric"], None),
    (["sweep"], ERROR_ROW_SWEEP),
])
def test_csv_and_json_carry_the_same_values(tmp_path, capsys, argv, config):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    outputs = {}
    for fmt in ("csv", "json"):
        assert cli.main([*argv, "--format", fmt]) == 0
        outputs[fmt] = capsys.readouterr().out
    payload = json.loads(outputs["json"])
    json_rows = payload["rows"] if "rows" in payload else [payload["result"]]
    header, rows = parse_csv(outputs["csv"])
    assert len(rows) == len(json_rows)
    if config is not None:
        assert any("error" in r for r in json_rows) and any("error" not in r for r in json_rows)
    for row, json_row in zip(rows, json_rows):
        cells = json_as_cells(json_row)
        assert set(cells) <= set(header)
        assert row == {c: as_cell(cells.get(c), 9) for c in header}  # default precision


def test_keyrate_reports_chi_n_as_given(tmp_path, capsys):
    # at 17 digits the report shows chi_n exactly as given
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"precision": 17}))
    assert cli.main(["keyrate", "--protocol", "squeezed-modified", "--chi-n", "2",
                     "--format", "json", "--config", str(path)]) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["chi_N_snu"] == 2.0


def test_csv_rows_have_as_many_fields_as_the_header(tmp_path, capsys):
    # an error row's flags cell carries the failing parameters, commas included
    path = tmp_path / "config.json"
    path.write_text(json.dumps(ERROR_ROW_SWEEP))
    assert cli.main(["sweep", "--config", str(path), "--format", "csv"]) == 0
    header, *records = csv_records(capsys.readouterr().out)
    assert all(len(r) == len(header) for r in records)
    errors = [r[-1] for r in records if r[-1].startswith("error:")]
    assert errors and all("," in e for e in errors)
