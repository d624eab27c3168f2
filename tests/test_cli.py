import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
SHIPPED_SWEEP = CONFIGS / "symmetric_ideal_sweep.json"


# the CLI child imports cvmdi from this checkout's src/, as the tests do
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "cvmdi.cli", *args],
                          capture_output=True, text=True, env=CHILD_ENV, **kw)


def parse_csv(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    return header, rows


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
    assert payload["metadata"]["config"]["protocol"] == "squeezed"


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
    assert result["report"]["chi_N_snu"] == pytest.approx(result["chi_n_star_snu"], rel=1e-6)


def test_optnoise_requires_modified_protocol():
    res = run_cli("optnoise", "--protocol", "squeezed")
    assert res.returncode == 2


def test_compare_table_structure():
    res = run_cli("compare", "--variance", "realistic", "--geometry", "symmetric",
                  "--tol-km", "0.2", "--format", "json")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    rows = payload["rows"]
    assert {(r["protocol"], r["detector"]) for r in rows} == {
        (p, d) for p in ("coherent", "squeezed", "squeezed-modified")
        for d in ("perfect", "practical")}
    assert payload["metadata"]["config"]["detector"] == "perfect"
    assert payload["metadata"]["config"]["tool_version"]


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
