"""End-to-end checks of the command line driver, run in process.

Each command is invoked through ``fdprof.cli.main`` with an argv list, so
exit codes, stdout and file side effects are all observable without spawning
a subprocess.  The anchor point n=4, m=1/3, beta=0 keeps the closed form
available for value checks on whatever the CLI writes to disk.
"""
import json
import os
import time

import numpy as np
import pytest
from conftest import f_exact, fr_exact

from fdprof import kernels
from fdprof.cli import main

M13 = "0.3333333333333333"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    arr = np.array([[float(tok) for tok in line.split(",")]
                    for line in lines[1:]])
    return lines[0], arr


@pytest.fixture(scope="module")
def origin_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("origin"))
    # m given with twelve digits: the parser must not choke on truncated
    # input, and the profile stays within closed-form distance anyway
    code = main(["solve-origin", "--n", "4", "--m", "0.333333333333",
                 "--beta", "0.0", "--rmax", "50", "--out", out, "--plots"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def farfield_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("farfield"))
    code = main(["solve-farfield", "--n", "4", "--m", M13, "--beta", "0.0",
                 "--eta", "4096", "--rmax", "50", "--out", out])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("sweep"))
    code = main(["sweep", "--n", "4", "--m", "0.3:0.4:3",
                 "--beta", "0.0:0.2:3", "--rmax", "60", "--workers", "1",
                 "--out", out])
    assert code == 0
    return out


def test_solve_origin_writes_closed_form_profile(origin_run):
    header, arr = read_csv(os.path.join(origin_run, "profile.csv"))
    assert header == "r,f,f_r"
    r, v, vr = arr.T
    assert r[-1] == pytest.approx(50.0, rel=1e-14)
    assert np.max(np.abs(v - f_exact(r))) < 1e-9
    assert np.max(np.abs(vr - fr_exact(r))) < 1e-9


def test_origin_report_contents(origin_run):
    rep = json.load(open(os.path.join(origin_run, "report.json")))
    assert rep["terminal_event"] == "ReachedRmax"
    assert rep["residual"] < 1e-6
    assert rep["params"]["k"] == pytest.approx(6.0, rel=1e-9)
    assert rep["regime"]["profile_kind"] == "origin"
    assert rep["decay_class"]["class"] == "Fast"
    assert rep["shape"]["label"] == "monotone-decreasing"
    assert set(rep["limits"]) == {"L1", "L2", "L3", "slope_far",
                                  "slope_origin"}


def test_plot_files(origin_run):
    """The --plots flag drops three two-column data files."""
    _, arr = read_csv(os.path.join(origin_run, "profile.csv"))
    for stem in ("origin_profile.dat", "origin_loglog.dat",
                 "origin_slope.dat"):
        with open(os.path.join(origin_run, stem)) as fh:
            rows = [line.split() for line in fh.read().splitlines()]
        assert len(rows) == len(arr)
        cols = np.array([[float(a), float(b)] for a, b in rows])
        assert np.all(np.isfinite(cols))
    # last slope sample sits close to the terminal decay rate -k = -6
    assert cols[-1, 1] == pytest.approx(-6.0, abs=0.1)


def test_written_floats_round_trip(origin_run):
    # repr of a float is the shortest string that parses back exactly, so
    # every CSV token must survive parse + re-repr unchanged
    with open(os.path.join(origin_run, "profile.csv")) as fh:
        for line in fh.read().splitlines()[1:]:
            for tok in line.split(","):
                assert repr(float(tok)) == tok
    raw = open(os.path.join(origin_run, "report.json")).read()
    assert json.dumps(json.loads(raw), indent=2) + "\n" == raw


def test_outside_window_exits_one(tmp_path, capsys):
    code, _, err = run_cli(capsys, "solve-origin", "--n", "4", "--m", M13,
                           "--beta", "0.6", "--out", str(tmp_path))
    assert code == 1
    assert "origin-problem window" in err


def test_missing_required_option(tmp_path, capsys):
    code, _, err = run_cli(capsys, "solve-farfield", "--n", "4", "--m", M13,
                           "--beta", "0.0", "--out", str(tmp_path))
    assert code == 1
    assert "missing required option --eta" in err


def test_solve_farfield_writes_both_charts(farfield_run):
    gh, ga = read_csv(os.path.join(farfield_run, "profile_g.csv"))
    fh, fa = read_csv(os.path.join(farfield_run, "profile_f.csv"))
    assert gh == "r,g,g_r"
    assert fh == "r,f,f_r"
    assert len(ga) == len(fa)
    rf, fv, _ = fa.T
    assert np.all(np.diff(rf) > 0.0)
    assert np.max(np.abs(fv - f_exact(rf))) < 1e-5


def test_farfield_report_limits(farfield_run):
    rep = json.load(open(os.path.join(farfield_run, "report.json")))
    assert rep["limits"]["L1"]["value"] == pytest.approx(4096.0, rel=1e-6)
    assert rep["limits"]["L2"]["value"] == pytest.approx(-24576.0, rel=1e-6)


def test_verify_accepts_own_output(origin_run, capsys):
    rep = json.load(open(os.path.join(origin_run, "report.json")))
    code, out, _ = run_cli(capsys, "verify",
                           os.path.join(origin_run, "profile.csv"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"residual = {rep['residual']!r} (threshold 1e-06)"
    assert lines[1:] == [
        "mass_monotonicity: holds",
        "eta_upper_bound: not-applicable",
        "drift_positivity_f: not-applicable",
        "drift_positivity_g: not-applicable",
        "monotone_decreasing: holds",
    ]


def test_verify_transports_mapped_chart(farfield_run, capsys):
    """profile_f.csv carries origin-chart columns from a far-field solve.

    The verifier must notice the mismatch against the stored report and
    transport the samples back before stenciling, in both charts.
    """
    for name in ("profile_g.csv", "profile_f.csv"):
        code, out, _ = run_cli(capsys, "verify",
                               os.path.join(farfield_run, name))
        assert code == 0
        residual = float(out.splitlines()[0].split()[2])
        assert residual < 1e-6


def test_verify_corrupt_row(origin_run, tmp_path, capsys):
    with open(os.path.join(origin_run, "profile.csv")) as fh:
        lines = fh.read().splitlines()
    lines[17] = "1.0,2.0"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "verify", str(bad), "--report",
                           os.path.join(origin_run, "report.json"))
    assert code == 1
    assert "row 18 has 2 fields" in err


def test_verify_tampered_values(origin_run, tmp_path, capsys):
    header, arr = read_csv(os.path.join(origin_run, "profile.csv"))
    bad = tmp_path / "tampered.csv"
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for r, v, vr in arr:
            fh.write(f"{float(r)!r},{float(v) * 1.01!r},{float(vr)!r}\n")
    code, out, _ = run_cli(capsys, "verify", str(bad), "--report",
                           os.path.join(origin_run, "report.json"))
    assert code == 2
    residual = float(out.splitlines()[0].split()[2])
    assert residual > 1e-6


def test_beta_find_defaults(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "beta-find", "--n", "4", "--m", M13,
                           "--out", str(tmp_path))
    assert code == 0
    assert out == "beta_star = -0.000390625 after 12 probes\n"
    payload = json.load(open(tmp_path / "beta.json"))
    assert payload["beta_star"] == -0.000390625
    assert payload["bracket"] == [-0.00078125, 0.0]
    assert payload["probes"] == 12
    assert len(payload["history"]) == 12
    assert all(len(row) == 3 and row[2] in (-1, 1)
               for row in payload["history"])
    assert payload["params"]["probe_rmax"] == 800.0


def test_beta_find_bracket_order_is_immaterial(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "beta-find", "--n", "4", "--m", M13,
                           "--beta-lo", "0.4", "--beta-hi", "-0.4",
                           "--out", str(tmp_path))
    assert code == 0
    assert out == "beta_star = -0.000390625 after 12 probes\n"
    payload = json.load(open(tmp_path / "beta.json"))
    assert payload["beta_star"] == -0.000390625
    assert payload["bracket"] == [-0.00078125, 0.0]


def test_beta_find_same_side_bracket(tmp_path, capsys):
    code, _, err = run_cli(capsys, "beta-find", "--n", "4", "--m", M13,
                           "--beta-lo", "0.1", "--beta-hi", "0.4",
                           "--out", str(tmp_path))
    assert code == 2
    assert "same side" in err


def test_sweep_summary_rows(sweep_run, capsys):
    with open(os.path.join(sweep_run, "summary.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ("n,m,rho1,beta,eta0,terminal_event,residual,"
                        "L1,L2,L3,decay_class,shape,error")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 9
    assert all(len(row) == 13 for row in rows)
    # beta runs 0, 0.1, 0.2 inside each m; the larger-m tuples sit below
    # the positivity boundary and vanish at finite radius instead of
    # reaching rmax, which the summary must record as a row, not a crash
    floored = {3, 6, 7, 8}
    for i, row in enumerate(rows):
        if i in floored:
            assert row[5] == "ValueFloor"
            assert row[6] == ""
            assert row[12].startswith("ContinuationFailed:")
        else:
            assert row[5] == "ReachedRmax"
            assert float(row[6]) < 1e-6
            assert row[12] == ""
    written = sorted(f for f in os.listdir(sweep_run)
                     if f.startswith("report_"))
    assert written == [f"report_{i:04d}.json" for i in (0, 1, 2, 4, 5)]


def test_sweep_worker_count_does_not_change_output(sweep_run, tmp_path,
                                                   capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n", "4", "--m", "0.3:0.4:3",
                           "--beta", "0.0:0.2:3", "--rmax", "60",
                           "--workers", "4", "--out", str(tmp_path))
    assert code == 0
    assert out.startswith("9 tuples -> ")
    ours = (tmp_path / "summary.csv").read_bytes()
    theirs = open(os.path.join(sweep_run, "summary.csv"), "rb").read()
    assert ours == theirs


def test_sweep_contains_node_overflow(monkeypatch, tmp_path, capsys):
    # every tuple needs more accepted steps than this capacity
    monkeypatch.setattr(kernels, "MAX_NODES", 50)
    code, out, _ = run_cli(capsys, "sweep", "--n", "4", "--m", "0.3:0.35:2",
                           "--beta", "0.0:0.1:2", "--rmax", "60",
                           "--workers", "1", "--out", str(tmp_path))
    assert code == 0
    assert out.startswith("4 tuples -> ")
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    assert all(row[12] == "MemoryError: trajectory exceeded node capacity"
               for row in rows)


@pytest.mark.parametrize("flag, value, fragment", [
    ("--rmax", "0.5", "below the start radius"),
    ("--rmax", "nan", "r_max=nan violates 0 < r_max < inf"),
    ("--tol", "0", "tol=0.0 violates 0 < tol < inf"),
    ("--tol", "-1", "tol=-1.0 violates 0 < tol < inf"),
    ("--tol", "nan", "tol=nan violates 0 < tol < inf"),
])
def test_bad_radius_or_tolerance_fails_fast(flag, value, fragment, tmp_path,
                                            capsys):
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, "solve-origin", "--n", "4", "--m", M13,
                           "--beta", "0.0", f"{flag}={value}",
                           "--out", str(tmp_path))
    assert time.perf_counter() - t0 < 10.0
    assert code == 1
    assert fragment in err


@pytest.mark.parametrize("axis, fragment", [
    ("0.3:0.4:0", "m axis is empty (count=0)"),
    ("0.3:0.4", "m axis must be lo:hi:count"),
    ("a:b:3", "m axis is not numeric"),
])
def test_sweep_axis_errors(axis, fragment, tmp_path, capsys):
    code, _, err = run_cli(capsys, "sweep", "--n", "4", "--m", axis,
                           "--beta", "0.0:0.2:3", "--out", str(tmp_path))
    assert code == 1
    assert fragment in err


def test_sweep_dimension_list_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "sweep", "--n", "x", "--m", "0.3:0.4:3",
                           "--beta", "0.0:0.2:3", "--out", str(tmp_path))
    assert code == 1
    assert "n axis is not a comma list of integers" in err


def test_config_file_layering(tmp_path, capsys):
    """Flags beat config values, config values beat built-in defaults."""
    out_dir = tmp_path / "cfg_out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# anchor point\n"
                   f"n = 4\nm = {M13}\nbeta = 0.0  ; fast branch\n"
                   f"rmax = 50\nout = {out_dir}\n")
    code, _, _ = run_cli(capsys, "solve-origin", "--config", str(cfg),
                         "--rmax", "30")
    assert code == 0
    _, arr = read_csv(str(out_dir / "profile.csv"))
    assert arr[-1, 0] == pytest.approx(30.0, rel=1e-14)

    bad = tmp_path / "bad.cfg"
    bad.write_text("n 4\n")
    code, _, err = run_cli(capsys, "solve-origin", "--config", str(bad))
    assert code == 1
    assert "config line 1: expected key=value" in err

    code, _, err = run_cli(capsys, "solve-origin", "--config",
                           str(tmp_path / "nope.cfg"))
    assert code == 1
    assert "cannot read config file" in err


def test_breakdown_exits_three(tmp_path, capsys):
    # extinction point: the far-field trajectory touches down near s = 4.35,
    # far short of the default rmax, so the solve is a breakdown, not a result
    code, _, err = run_cli(capsys, "solve-farfield", "--n", "4", "--m",
                           "0.25", "--beta", "0.2", "--eta", "1.0",
                           "--out", str(tmp_path))
    assert code == 3
    assert "solver error" in err
    assert "ValueFloor" in err


def test_no_command_prints_usage(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "usage:" in err
    code, _, err = run_cli(capsys, "solve-origin", "--bogus", "1")
    assert code == 1


@pytest.mark.parametrize("n, m, beta", [(4, 0.49, 0.2), (3, 0.33, 0.0),
                                         (3, 0.323, 0.0)])
def test_small_sigma_farfield_succeeds_or_names_breakdown(n, m, beta,
                                                          tmp_path, capsys):
    # sigma = 0.08, 0.03 and 0.1: the stable manifold is nearly flat in s, so
    # the series nodes reach far below the seam (s ~ 1e-60 at m = 0.323, where
    # residual stencil weights in absolute radii underflow); no raw
    # traceback and no spurious verification failure
    code, _, err = run_cli(capsys, "solve-farfield", "--n", str(n),
                           "--m", str(m), "--beta", str(beta), "--eta", "1",
                           "--out", str(tmp_path))
    assert code in (0, 3)
    if code == 3:
        assert err.startswith("solver error: ")
        assert "underflows" in err or "terminated by" in err
