"""End-to-end checks of the command line driver, run in process.

Each command is invoked through ``fdprof.cli.main`` with an argv list, so
exit codes, stdout and file side effects are all observable without spawning
a subprocess.  The anchor point n=4, m=1/3, beta=0 keeps the closed form
available for value checks on whatever the CLI writes to disk.
"""
import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
import threading
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import RMAX, f_exact, fr_exact
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fdprof
from fdprof import DomainError, ProfileParams, RegimeFlags, cli, integrate, kernels
from fdprof.cli import (_parse_axis, _read_profile_csv, build_parser,
                        load_config, main)

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")

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
    rep = json.loads(Path(origin_run, "report.json").read_text())
    assert rep["terminal_event"] == "ReachedRmax"
    assert rep["residual"] < 1e-6
    assert rep["params"]["k"] == pytest.approx(6.0, rel=1e-9)
    assert rep["regime"]["profile_kind"] == "origin"
    assert rep["decay_class"]["class"] == "Fast"
    assert rep["shape"]["label"] == "monotone-decreasing"
    assert set(rep["limits"]) == {"L1", "L2", "L3", "slope_far",
                                  "slope_origin"}


def test_report_blocks_are_the_result_types_fields(origin_run, farfield_run):
    """report.json's params are the ProfileParams fields, then k, sigma and
    boundary; its regime is profile_kind, then the RegimeFlags fields; no
    verdict stores a null margin or at_r."""
    params = [f.name for f in dataclasses.fields(ProfileParams)]
    flags = [f.name for f in dataclasses.fields(RegimeFlags)]
    statuses = set()
    for out in (origin_run, farfield_run):
        rep = json.loads(Path(out, "report.json").read_text())
        assert list(rep["params"]) == params + ["k", "sigma", "boundary"]
        assert list(rep["regime"]) == ["profile_kind"] + flags
        for name, verdict in rep["inequalities"].items():
            assert set(verdict) <= {"status", "margin", "at_r"}, name
            assert None not in verdict.values(), name
            statuses.add(verdict["status"])
    # eta_upper_bound on the origin profile: neither margin nor at_r is stored
    assert "not-applicable" in statuses


def test_write_json_stores_a_non_finite_float_as_null(tmp_path):
    """JSON has no inf or NaN: write_json stores each as null, at any depth."""
    path = tmp_path / "x.json"
    cli.write_json(str(path), {"a": math.inf, "b": [-math.inf, 1.0, (math.nan,)],
                               "c": {"d": math.nan}})
    assert json.loads(path.read_text()) == {"a": None, "b": [None, 1.0, [None]],
                                            "c": {"d": None}}


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
    raw = Path(origin_run, "report.json").read_text()
    assert json.dumps(json.loads(raw), indent=2) + "\n" == raw


def test_outside_window_exits_one(tmp_path, capsys):
    code, _, err = run_cli(capsys, "solve-origin", "--n", "4", "--m", M13,
                           "--beta", "0.6", "--out", str(tmp_path))
    assert code == 1
    assert "origin-problem window" in err


@pytest.mark.parametrize("beta", ["-0.5", "-0.6"])
def test_below_window_exits_one(beta, tmp_path, capsys):
    code, _, err = run_cli(capsys, "solve-origin", "--n", "4", "--m", M13,
                           f"--beta={beta}", "--out", str(tmp_path))
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
    rep = json.loads(Path(farfield_run, "report.json").read_text())
    assert rep["limits"]["L1"]["value"] == pytest.approx(4096.0, rel=1e-6)
    assert rep["limits"]["L2"]["value"] == pytest.approx(-24576.0, rel=1e-6)


def test_verify_accepts_own_output(origin_run, capsys):
    rep = json.loads(Path(origin_run, "report.json").read_text())
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


@pytest.mark.parametrize("column, token", [(1, "nan"), (2, "inf"), (0, "nan")])
def test_verify_rejects_non_finite_field(origin_run, tmp_path, capsys,
                                         column, token):
    with open(os.path.join(origin_run, "profile.csv")) as fh:
        lines = fh.read().splitlines()
    fields = lines[17].split(",")
    fields[column] = token
    lines[17] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "verify", str(bad), "--report",
                             os.path.join(origin_run, "report.json"))
    assert code == 1
    assert out == ""
    assert "row 18 is not finite" in err


@pytest.mark.parametrize("scale", [-1.0, 0.0], ids=["negated", "zeroed"])
@pytest.mark.parametrize("name", ["profile.csv", "profile_g.csv"])
def test_verify_refuses_a_node_no_solve_stores(origin_run, farfield_run, tmp_path,
                                               capsys, name, scale):
    """A negated or zeroed value is refused by the rule each solve stores its
    nodes by, in the chart or in the f-side image: exit 1 naming the row.  A
    negated f read mass_monotonicity as holding, since X = r f_r / f flips."""
    run = origin_run if name == "profile.csv" else farfield_run
    with open(os.path.join(run, name)) as fh:
        lines = fh.read().splitlines()
    fields = lines[17].split(",")
    fields[1] = repr(scale * float(fields[1]))
    lines[17] = ",".join(fields)
    bad = tmp_path / name
    bad.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "verify", str(bad), "--report",
                             os.path.join(run, "report.json"))
    assert (code, out) == (1, "")
    assert f"{name}: row 18: " in err and err.count("\n") == 1


def _drop_terminal_event(text):
    report = json.loads(text)
    del report["terminal_event"]
    return json.dumps(report)


@pytest.mark.parametrize("header, report, fragment", [
    ("r,v,v_r", str, "header must be r,f,f_r or r,g,g_r"),
    ("r,f,f_r", None, "cannot read report"),
    ("r,f,f_r", lambda text: text[:-3], "cannot read report"),
    ("r,f,f_r", _drop_terminal_event, "is missing usable params"),
], ids=["unknown-header", "no-report", "report-not-json", "no-terminal-event"])
def test_verify_refuses_input_it_cannot_read(origin_run, tmp_path, capsys, header,
                                             report, fragment):
    """verify reads the report next to the CSV; a CSV of unknown columns, a
    missing or cut report and one without a terminal event are refused."""
    lines = Path(origin_run, "profile.csv").read_text().splitlines()
    (tmp_path / "profile.csv").write_text("\n".join([header, *lines[1:]]) + "\n")
    if report is not None:
        text = Path(origin_run, "report.json").read_text()
        (tmp_path / "report.json").write_text(report(text))
    code, out, err = run_cli(capsys, "verify", str(tmp_path / "profile.csv"))
    assert (code, out) == (1, "")
    assert fragment in err and err.count("\n") == 1


def test_solve_into_a_regular_file_is_an_io_error(tmp_path, capsys):
    (tmp_path / "taken").write_text("")
    code, out, err = run_cli(capsys, "solve-origin", "--n", "4", "--m", M13,
                             "--beta", "0.0", "--out", str(tmp_path / "taken"))
    assert (code, out) == (1, "")
    assert err.startswith("io error: ") and err.count("\n") == 1


_FIELD = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                   st.text(max_size=8))
_ROW = st.one_of(st.text(max_size=30),
                 st.lists(_FIELD, min_size=3, max_size=3).map(",".join))
# arbitrary rows, or sorted positive radii (repeats possible) with any values
_BODY = st.one_of(
    st.lists(_ROW, max_size=8),
    st.lists(st.floats(1e-300, 1e300), min_size=5, max_size=9).flatmap(
        lambda rs: st.lists(st.tuples(st.floats(), st.floats()),
                            min_size=len(rs), max_size=len(rs)).map(
            lambda vals: [f"{r!r},{a!r},{b!r}"
                          for r, (a, b) in zip(sorted(rs), vals)])))


@settings(max_examples=300, deadline=None)
@given(header=st.sampled_from(["r,f,f_r", "r,g,g_r"]), body=_BODY,
       extra=st.lists(_ROW, max_size=2),
       tail=st.one_of(st.just(b""), st.binary(min_size=1, max_size=4)))
def test_csv_reader_returns_clean_rows_or_domain_error(tmp_path_factory,
                                                       header, body, extra,
                                                       tail):
    path = tmp_path_factory.getbasetemp() / "property.csv"
    # raw trailing bytes, often not UTF-8, stand for a corrupted file
    text = "\n".join([header] + body + extra) + "\n"
    path.write_bytes(text.encode("utf-8") + tail)
    try:
        _, r, v, vr = _read_profile_csv(str(path))
    except DomainError:
        return
    assert len(r) == len(v) == len(vr) >= 5
    assert np.all(np.isfinite(r) & np.isfinite(v) & np.isfinite(vr))
    assert r[0] > 0.0 and np.all(np.diff(r) > 0.0)


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
    payload = json.loads((tmp_path / "beta.json").read_text())
    star, probes = payload["beta_star"], payload["probes"]
    assert out == f"beta_star = {star!r} after {probes} probes\n"
    # (4, 1/3) is Sobolev-critical, so beta* = 0
    assert abs(star) <= 1e-8
    lo, hi = payload["bracket"]
    assert lo <= star <= hi and hi - lo <= 1e-3
    assert probes == len(payload["history"]) <= 12
    assert all(len(row) == 3 and row[2] in (-1, 1)
               for row in payload["history"])
    below = [b for b, _, side in payload["history"] if side == -1]
    above = [b for b, _, side in payload["history"] if side == 1]
    assert max(below) < min(above)
    assert payload["params"] == {"n": 4, "m": 1 / 3, "rho1": 1.0, "eta0": 1.0,
                                 "tol_beta": 1e-3}


def test_beta_find_bracket_order_is_immaterial(tmp_path, capsys):
    runs = []
    for lo, hi in (("-0.4", "0.4"), ("0.4", "-0.4")):
        out = tmp_path / lo
        code, text, _ = run_cli(capsys, "beta-find", "--n", "4", "--m", M13,
                                "--beta-lo", lo, "--beta-hi", hi,
                                "--out", str(out))
        assert code == 0
        runs.append((text, (out / "beta.json").read_bytes()))
    assert runs[0] == runs[1]


def test_beta_find_probe_radius_option_is_gone(tmp_path, capsys):
    code, _, err = run_cli(capsys, "beta-find", "--n", "4", "--m", M13,
                           "--probe-rmax", "800", "--out", str(tmp_path))
    assert code == 1
    assert "unrecognized arguments: --probe-rmax" in err


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
            # L1 and L2 diverge on Slow profiles and are left empty
            assert (row[7] == row[8] == "") == (row[10] == "Slow")
            assert row[9] != ""
    assert [row[10] for row in rows].count("Slow") == 4
    written = sorted(f for f in os.listdir(sweep_run)
                     if f.startswith("report_"))
    assert written == [f"report_{i:04d}.json" for i in (0, 1, 2, 4, 5)]


def _same_files(ours, theirs):
    """Directories ours and theirs hold the same file names and bytes."""
    names = sorted(os.listdir(theirs))
    assert sorted(os.listdir(ours)) == names
    for name in names:
        with open(os.path.join(ours, name), "rb") as a, \
                open(os.path.join(theirs, name), "rb") as b:
            assert a.read() == b.read(), name


def test_sweep_worker_count_does_not_change_output(sweep_run, tmp_path,
                                                   capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n", "4", "--m", "0.3:0.4:3",
                           "--beta", "0.0:0.2:3", "--rmax", "60",
                           "--workers", "4", "--out", str(tmp_path))
    assert code == 0
    assert out.startswith("9 tuples -> ")
    # summary.csv and every report_NNNN.json
    _same_files(str(tmp_path), sweep_run)


@pytest.mark.parametrize("workers", ["1", "2", "4"])
def test_sweep_runs_one_tuple_at_a_time_off_the_calling_thread(
        workers, sweep_run, monkeypatch, tmp_path, capsys):
    """Whatever --workers says, the tuples run one at a time, in index order,
    on a worker thread (a tracer wrapping _sweep_tuple sees each tuple as a
    root operation), and the files are those of any other worker count."""
    orig = cli._sweep_tuple
    lock = threading.Lock()
    calls, active, peak = [], 0, 0

    def watched(idx, *args):
        nonlocal active, peak
        with lock:
            active += 1
            peak = max(peak, active)
            calls.append((idx, threading.get_ident()))
        try:
            return orig(idx, *args)
        finally:
            with lock:
                active -= 1

    monkeypatch.setattr(cli, "_sweep_tuple", watched)
    code, _, _ = run_cli(capsys, "sweep", "--n", "4", "--m", "0.3:0.4:3",
                         "--beta", "0.0:0.2:3", "--rmax", "60",
                         "--workers", workers, "--out", str(tmp_path))
    assert code == 0
    assert peak == 1
    assert [idx for idx, _ in calls] == list(range(9))
    assert threading.get_ident() not in {ident for _, ident in calls}
    _same_files(str(tmp_path), sweep_run)


def test_sweep_contains_node_overflow(monkeypatch, tmp_path, capsys):
    # every tuple needs more stepper nodes than this capacity
    monkeypatch.setattr(kernels, "MAX_NODES", 50)
    code, out, _ = run_cli(capsys, "sweep", "--n", "4", "--m", "0.3:0.35:2",
                           "--beta", "0.0:0.1:2", "--rmax", "60",
                           "--workers", "1", "--out", str(tmp_path))
    assert code == 0
    assert out.startswith("4 tuples -> ")
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    assert all(row[5] == "NodeOverflow" for row in rows)
    assert all(row[12] == "ContinuationFailed: integration terminated by "
                          "NodeOverflow" for row in rows)


@pytest.mark.parametrize("flag, value, fragment", [
    ("--workers", "-1", "workers=-1 violates workers >= 1"),
    ("--workers", "0", "workers=0 violates workers >= 1"),
    ("--tol", "-1", "tol=-1.0 violates 0 < tol < inf"),
    ("--rmax", "nan", "r_max=nan violates 0 < r_max < inf"),
    ("--eta0", "-1", "eta0=-1.0 violates 0 < eta0 < inf"),
    ("--rho1", "0", "rho1=0.0 violates 0 < rho1 < inf"),
    ("--rho1", "inf", "rho1=inf violates 0 < rho1 < inf"),
    ("--n", ",", "n axis is empty"),
])
def test_sweep_settings_fail_fast(flag, value, fragment, tmp_path, capsys):
    code, _, err = run_cli(capsys, "sweep", "--n", "4", "--m", "0.3:0.35:2",
                           "--beta", "0.0:0.1:2", f"{flag}={value}",
                           "--out", str(tmp_path))
    assert code == 1
    assert fragment in err
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("flag, value, fragment", [
    ("--rmax", "0", "r_max=0.0 violates 0 < r_max < inf"),
    ("--rmax", "nan", "r_max=nan violates 0 < r_max < inf"),
    ("--tol", "0", "tol=0.0 violates 0 < tol < inf"),
    ("--tol", "-1", "tol=-1.0 violates 0 < tol < inf"),
    ("--tol", "nan", "tol=nan violates 0 < tol < inf"),
    ("--rho1", "inf", "rho1=inf violates 0 < rho1 < inf"),
    ("--eta0", "nan", "eta0=nan violates 0 < eta0 < inf"),
    ("--beta", "nan", "beta=nan violates -inf < beta < inf"),
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


@pytest.mark.parametrize("beta", ["-inf", "inf", "nan"])
def test_farfield_refuses_a_beta_that_is_not_finite(beta, tmp_path, capsys):
    """derive_params names beta; -inf was blamed on alpha_tilde = nan."""
    code, out, err = run_cli(capsys, "solve-farfield", "--n", "4", "--m", M13,
                             f"--beta={beta}", "--eta", "1", "--out", str(tmp_path))
    assert (code, out) == (1, "")
    assert err == f"error: beta={beta} violates -inf < beta < inf\n"


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_verify_refuses_a_tol_that_is_not_positive_and_finite(origin_run, tol, capsys):
    """verify's --tol sets its pass bar: inf passed every residual, nan
    failed every one, and 0 or -1 fell back to the bar's floor."""
    code, out, err = run_cli(capsys, "verify", str(Path(origin_run, "profile.csv")),
                             f"--tol={tol}")
    assert (code, out) == (1, "")
    assert err == f"error: tol={float(tol)} violates 0 < tol < inf\n"


def test_rmax_below_seam_solves_on_the_series(tmp_path, capsys):
    """At the anchor the series seam sits at its cap, radius 1; a smaller
    r_max cuts the seam there in either chart, and the solve is the series."""
    for command, boundary, name in (("solve-origin", "--eta0", "profile.csv"),
                                    ("solve-farfield", "--eta", "profile_g.csv")):
        out = tmp_path / command
        code, _, err = run_cli(capsys, command, "--n", "4", "--m", M13,
                               "--beta", "0.0", boundary, "1", "--rmax", "0.5",
                               "--out", str(out))
        assert code == 0, err
        _, arr = read_csv(str(out / name))
        assert arr[-1, 0] == 0.5
        assert np.all(np.diff(arr[:, 0]) > 0.0)
        report = json.loads((out / "report.json").read_text())
        assert report["terminal_event"] == "ReachedRmax"
        assert report["residual"] <= 1e-6
    _, arr = read_csv(str(tmp_path / "solve-origin" / "profile.csv"))
    assert np.max(np.abs(arr[:, 1] / f_exact(arr[:, 0]) - 1.0)) <= 1e-13


def test_repeated_calls_write_what_fresh_interpreters_write(tmp_path, capsys):
    """main builds its parser once per process; no call may leak a flag or a
    config value into the next."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = 1e-8\nrmax = 20\n")
    anchor = ["--n", "4", "--m", M13, "--beta", "0.0"]
    runs = [["solve-origin", *anchor, "--rmax", "20", "--plots"],
            ["solve-origin", *anchor, "--rmax", "20"],
            ["solve-farfield", *anchor, "--eta", "4096", "--config", str(cfg)],
            ["solve-farfield", *anchor, "--eta", "4096", "--rmax", "30"]]
    src = os.path.dirname(os.path.dirname(os.path.abspath(fdprof.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    for i, argv in enumerate(runs):
        here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
        assert main(argv + ["--out", str(here)]) == 0
        subprocess.run([sys.executable, "-m", "fdprof.cli", *argv,
                        "--out", str(fresh)], env=env, check=True,
                       capture_output=True, timeout=120)
        assert sorted(os.listdir(here)) == sorted(os.listdir(fresh))
        for name in os.listdir(here):
            assert (here / name).read_bytes() == (fresh / name).read_bytes(), name
    capsys.readouterr()


_BOUND = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(lo=_BOUND, hi=_BOUND, count=st.integers(1, 40))
def test_parse_axis_spaces_evenly(lo, hi, count):
    values = _parse_axis(f"{lo!r}:{hi!r}:{count}", "m")
    assert len(values) == count and values[0] == lo
    if count > 1:
        assert values[-1] == hi
    # a few roundings of lo (1 - t) + hi t, t = i/(count-1)
    bound = Fraction(4.0 * sys.float_info.epsilon * max(abs(lo), abs(hi))
                     + 4.0 * math.ulp(0.0))
    for i, v in enumerate(values):
        t = Fraction(i, max(count - 1, 1))
        assert abs(Fraction(v) - (Fraction(lo) * (1 - t) + Fraction(hi) * t)) <= bound


@settings(max_examples=300, deadline=None)
@given(text=st.text(max_size=40))
def test_parse_axis_returns_floats_or_domain_error(text):
    parts = text.split(":")
    try:
        if len(parts) == 3 and int(parts[2]) > 10 ** 6:
            return   # a valid axis, but too long to build here
    except ValueError:
        pass
    try:
        values = _parse_axis(text, "beta")
    except DomainError as e:
        assert "beta axis" in str(e)
        return
    lo, hi, count = parts
    assert len(values) == int(count) >= 1
    assert all(math.isfinite(v) for v in values)
    assert values[0] == float(lo)


# text a UTF-8 file can hold, without line ends, '=' or comment marks
_LINE_CHARS = st.characters(blacklist_categories=("Cs",),
                            blacklist_characters="\r\n")
_CFG_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="=#;\r\n"), max_size=12)


@settings(max_examples=200, deadline=None)
@given(pairs=st.dictionaries(_CFG_TEXT.map(str.strip).filter(bool),
                             _CFG_TEXT.map(str.strip), max_size=6),
       comments=st.lists(st.tuples(st.sampled_from("#;"),
                                   st.text(_LINE_CHARS, max_size=10)),
                         min_size=8, max_size=8),
       blanks=st.lists(st.sampled_from(["", "  ", "# note", "; note"]), max_size=3))
def test_load_config_round_trips_pairs(tmp_path_factory, pairs, comments,
                                       blanks):
    lines = list(blanks)
    for (key, val), (mark, note) in zip(pairs.items(), comments):
        lines.append(f"  {key} = {val} {mark}{note}")
    path = tmp_path_factory.getbasetemp() / "property.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert load_config(str(path)) == pairs


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.text(st.characters(blacklist_categories=("Cs",)),
                              max_size=16), max_size=6),
       tail=st.one_of(st.just(b""), st.binary(min_size=1, max_size=4)))
def test_load_config_parses_or_names_the_line(tmp_path_factory, lines, tail):
    """Raw trailing bytes, often not UTF-8, stand for a corrupted file."""
    raw = "\n".join(lines).encode("utf-8") + tail
    path = tmp_path_factory.getbasetemp() / "arbitrary.cfg"
    path.write_bytes(raw)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        # a bad line read before the undecodable bytes may be named first
        with pytest.raises(DomainError, match="cannot read config file|"
                                              r"config line \d+: expected"):
            load_config(str(path))
        return
    # text mode reads \r\n, \r and \n as line ends
    bodies = [line.split("#", 1)[0].split(";", 1)[0].strip() for line in
              text.replace("\r\n", "\n").replace("\r", "\n").split("\n")]
    bad = [i for i, body in enumerate(bodies, 1) if body and "=" not in body]
    if bad:
        with pytest.raises(DomainError,
                           match=f"config line {bad[0]}: expected key=value"):
            load_config(str(path))
        return
    pairs = [body.split("=", 1) for body in bodies if body]
    assert load_config(str(path)) == {k.strip(): v.strip() for k, v in pairs}


@pytest.mark.parametrize("axis, fragment", [
    ("0.3:0.4:0", "m axis is empty (count=0)"),
    ("nan:0.4:3", "m axis bounds are not finite"),
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
    code, _, _ = run_cli(capsys, "solve-origin", "--config", str(cfg))
    assert code == 0
    _, arr = read_csv(str(out_dir / "profile.csv"))
    assert arr[-1, 0] == 50.0

    bad = tmp_path / "bad.cfg"
    bad.write_text("n 4\n")
    code, _, err = run_cli(capsys, "solve-origin", "--config", str(bad))
    assert code == 1
    assert "config line 1: expected key=value" in err

    code, _, err = run_cli(capsys, "solve-origin", "--config",
                           str(tmp_path / "nope.cfg"))
    assert code == 1
    assert "cannot read config file" in err


def test_config_keys_set_value_options_by_exact_name_only(tmp_path, capsys):
    """'rm' is only a prefix of --rmax and --plots takes no value: both keys
    are ignored, as unknown keys are."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = 4\nm = {M13}\nbeta = 0.0\nrm = 5\nplots = true\n"
                   "func = x\ntol_beta = 1\n")
    code, _, err = run_cli(capsys, "solve-origin", "--config", str(cfg),
                           "--out", str(tmp_path))
    assert code == 0, err
    _, arr = read_csv(str(tmp_path / "profile.csv"))
    assert arr[-1, 0] == 100.0
    assert sorted(os.listdir(tmp_path)) == ["profile.csv", "report.json", "run.cfg"]


@pytest.mark.parametrize("argv, line, fragment", [
    (["solve-origin", "--beta", "0.0"], "m = abc",
     "argument --m: invalid float value: 'abc'"),
    (["solve-origin", "--m", "0.3", "--beta", "0.0"], "n = 4.5",
     "argument --n: invalid int value: '4.5'"),
    (["sweep", "--n", "4", "--m", "0.3:0.35:2", "--beta", "0.0:0.1:2"],
     "workers = two", "argument --workers: invalid int value: 'two'"),
])
def test_config_bad_value_names_the_option(argv, line, fragment, tmp_path,
                                           capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, *argv, "--config", str(cfg), "--out", str(out))
    assert code == 1
    assert fragment in err
    assert not out.exists()


_EVERY_OPTION = {
    "solve-origin": ["--n", "4", "--m", M13, "--rho1", "2.0", "--beta", "0.1",
                     "--eta0", "0.5", "--tol", "1e-8", "--rmax", "20"],
    "solve-farfield": ["--n", "4", "--m", M13, "--rho1", "2.0", "--beta", "0.1",
                       "--eta", "3.0", "--tol", "1e-8", "--rmax", "20"],
    "beta-find": ["--n", "4", "--m", M13, "--rho1", "2.0", "--eta0", "0.5",
                  "--beta-lo", "-0.3", "--beta-hi", "0.3", "--tol-beta", "1e-2",
                  "--tol", "1e-8"],
    "sweep": ["--n", "4", "--m", "0.3:0.35:2", "--beta", "0.0:0.1:2",
              "--rho1", "2.0", "--eta0", "0.5", "--workers", "1", "--tol", "1e-8",
              "--rmax", "20"],
}


@pytest.mark.parametrize("command", sorted(_EVERY_OPTION))
def test_config_gives_every_option_as_flags_do(command, tmp_path, capsys):
    argv = _EVERY_OPTION[command]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{flag[2:]} = {value}\n"
                           for flag, value in zip(argv[::2], argv[1::2]))
                   + f"out = {tmp_path / 'config'}\n")
    by_flags = run_cli(capsys, command, *argv, "--out", str(tmp_path / "flags"))
    by_config = run_cli(capsys, command, "--config", str(cfg))
    assert by_config[0] == by_flags[0] in (0, 2)
    names = sorted(os.listdir(tmp_path / "flags"))
    assert sorted(os.listdir(tmp_path / "config")) == names
    for name in names:
        assert ((tmp_path / "config" / name).read_bytes()
                == (tmp_path / "flags" / name).read_bytes()), name


@pytest.mark.parametrize("argv, flag", [
    (["beta-find", "--n", "4", "--m", M13], "--rmax"),
    (["verify", "profile.csv"], "--rmax"),
    (["verify", "profile.csv"], "--out"),
], ids=["beta-find-rmax", "verify-rmax", "verify-out"])
def test_options_a_command_does_not_read_are_refused(argv, flag, capsys):
    code, _, err = run_cli(capsys, *argv, flag, "20")
    assert code == 1
    assert f"unrecognized arguments: {flag} 20" in err


def test_config_keys_a_command_does_not_read_are_ignored(origin_run, tmp_path,
                                                         capsys):
    """rmax = 0 would be refused and out would be created by a command that
    read them; beta-find and verify read neither."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"rmax = 0\nout = {tmp_path / 'elsewhere'}\n")
    csv = os.path.join(origin_run, "profile.csv")
    plain = run_cli(capsys, "verify", csv)
    assert plain[0] == 0
    assert run_cli(capsys, "verify", csv, "--config", str(cfg)) == plain
    found = []
    for extra in ([], ["--config", str(cfg)]):
        out = tmp_path / f"beta{len(extra)}"
        code, _, err = run_cli(capsys, "beta-find", "--n", "4", "--m", M13,
                               "--tol-beta", "1e-2", "--out", str(out), *extra)
        assert code == 0, err
        found.append((out / "beta.json").read_bytes())
    assert found[0] == found[1]
    assert not (tmp_path / "elsewhere").exists()


def test_verify_reads_tol_and_report_from_config(origin_run, tmp_path, capsys):
    csv = os.path.join(origin_run, "profile.csv")
    report = os.path.join(origin_run, "report.json")
    moved = tmp_path / "profile.csv"
    with open(csv, "rb") as fh:
        moved.write_bytes(fh.read())
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"report = {report}\ntol = 1e-7\n")
    by_flags = run_cli(capsys, "verify", str(moved), "--report", report,
                       "--tol", "1e-7")
    assert by_flags[0] == 0
    assert f"(threshold {100 * 1e-7!r})" in by_flags[1]
    assert run_cli(capsys, "verify", str(moved), "--config", str(cfg)) == by_flags


def test_readme_commands_parse():
    """Each fdprof command of README's "Command line" block, continuation
    lines joined, parses as it is written."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"## Command line.*?```sh\n(.*?)```", text, re.S).group(1)
    commands = [shlex.split(line)[1:] for line in
                block.replace("\\\n", " ").splitlines() if line.startswith("fdprof ")]
    assert [argv[0] for argv in commands] == ["solve-origin", "solve-farfield",
                                              "verify", "beta-find", "sweep"]
    for argv in commands:
        assert build_parser().parse_args(argv).command == argv[0]


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


def test_large_sigma_farfield_names_breakdown(tmp_path, capsys):
    # sigma = 152: the node depth 4e-3**sigma underflows to 0, which used to
    # end in a raw math domain error
    code, _, err = run_cli(capsys, "solve-farfield", "--n", "8", "--m", "0.0375",
                           "--beta", "0.0", "--eta", "1", "--out", str(tmp_path))
    assert code == 3
    assert "series node depth underflows (sigma=152)" in err


def test_large_sigma_beta_find_needs_no_node_depth(tmp_path, capsys):
    # the gap integrates from the series seam without nodes, so sigma = 152
    # reaches the bracket check: the gap is negative over the whole window
    code, _, err = run_cli(capsys, "beta-find", "--n", "8", "--m", "0.0375",
                           "--beta-hi", "0.006", "--out", str(tmp_path))
    assert code == 2
    assert "same side" in err
    assert "node depth" not in err


def test_beta_find_refuses_a_seam_past_the_section(monkeypatch, tmp_path, capsys):
    # a gap's seam placed past X = -2/(1-m) is a bracket error, not a traceback
    monkeypatch.setattr(integrate, "GAP_SEAM", 0.7)
    code, _, err = run_cli(capsys, "beta-find", "--n", "4", "--m", M13,
                           "--out", str(tmp_path))
    assert code == 2
    assert "beta=-0.4 never reaches the section" in err
    assert "already lies on or past it" in err


@pytest.mark.parametrize("n, m, beta", [(4, 0.49, 0.2), (3, 0.33, 0.0),
                                         (3, 0.323, 0.0), (3, 0.333, 0.0)])
def test_small_sigma_farfield_succeeds_or_names_breakdown(n, m, beta,
                                                          tmp_path, capsys):
    # sigma = 0.08, 0.03, 0.1 and 0.003: the stable manifold is nearly flat
    # in s, so the series nodes reach far below the seam (s ~ 1e-60 at
    # m = 0.323, where residual stencil weights in absolute radii underflow,
    # and at m = 0.333 the seam radius itself underflows); no raw traceback
    # and no spurious verification failure
    code, _, err = run_cli(capsys, "solve-farfield", "--n", str(n),
                           "--m", str(m), "--beta", str(beta), "--eta", "1",
                           "--out", str(tmp_path))
    assert code in (0, 3)
    if code == 3:
        assert err.startswith("solver error: ")
        assert "underflows" in err or "terminated by" in err


def test_steep_far_ladder_has_no_overflow(tmp_path, capsys):
    # k = 120: r^k f spans 1e130 to 1e236 on the far tail, and no read of
    # the limits may end in a raw OverflowError
    code, _, err = run_cli(capsys, "solve-origin", "--n", "8", "--m", "0.05",
                           "--beta", "0", "--out", str(tmp_path))
    assert code in (0, 2)
    assert "Traceback" not in err
    assert (tmp_path / "report.json").exists()


def test_slow_decay_limits_carry_an_error_bar(tmp_path, capsys):
    """At (8, 0.05, 0) r^k f grows like r^{k-2/(1-m)}, k = 120: L1 and L2
    do not exist and are null.  L3 and slope_far are the slow point's Y*
    and X*, each with the far-end state's distance from it as its bar."""
    code, _, _ = run_cli(capsys, "solve-origin", "--n", "8", "--m", "0.05",
                         "--beta", "0", "--out", str(tmp_path))
    assert code == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["decay_class"]["class"] == "Slow"
    assert rep["limits"]["L1"] is None and rep["limits"]["L2"] is None
    assert rep["limits"]["slope_far"]["value"] == pytest.approx(-2.0 / 0.95)
    for key in ("L3", "slope_far"):
        assert 0.0 < rep["limits"][key]["error"] < 1.0


@pytest.mark.parametrize("argv", [
    ["beta-find", "--n", "3", "--m", "0.333"],
    ["solve-farfield", "--n", "3", "--m", "0.333", "--beta", "0", "--eta", "1e-10"],
    ["solve-farfield", "--n", "5", "--m", "0.59", "--beta", "0", "--eta", "1e300"],
    ["solve-farfield", "--n", "5", "--m", "0.59", "--beta", "0", "--eta", "1e-300"],
])
def test_small_sigma_seam_names_breakdown(argv, tmp_path, capsys):
    # sigma = 0.003 and 0.085: exp of ln(seam radius)/sigma under- or
    # overflows, which used to end in a raw math domain or range error
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 3
    assert err.startswith("solver error: ") and err.count("\n") == 1
    assert "underflows" in err and "sigma=" in err


@pytest.mark.parametrize("argv, code, why", [
    (["solve-origin", "--rmax", "1e-300"], 3, "f-side image underflows"),
    (["solve-origin", "--rmax", "1e-200"], 3, "f-side image underflows"),
    (["solve-farfield", "--eta", "1", "--rmax", "1e-100"], 3,
     "f-side image underflows"),
    (["solve-farfield", "--eta", "1", "--rmax", "1e-300"], 3,
     "f-side image underflows"),
])
def test_tiny_rmax_names_its_failure(argv, code, why, tmp_path, capsys):
    # a seam capped at r_max ~ 1e-300 has theta ~ 0: its z-powers underflow,
    # which used to reach the node count as 0/0.  At 1e-200 the seam's theta
    # underflows; at 1e-100 in the far field theta does not, but the series
    # nodes' f-side image s^k g does.  One named line on stderr, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, _, err = run_cli(capsys, argv[0], "--n", "4", "--m", "0.3",
                              "--beta", "0", *argv[1:], "--out", str(tmp_path))
    assert got == code
    assert why in err and err.count("\n") == 1


@pytest.mark.parametrize("argv, code, why", [
    (["solve-origin", "--n", "5", "--m", "0.59", "--beta", "0", "--eta0", "1e300"], 3,
     "origin series node slopes overflow at the datum 1e+300 (sigma=0.0847)"),
    (["solve-origin", "--n", "4", "--m", "0.3615034666122926",
      "--beta", "0.5445059310315912", "--eta0", "1.731361494211642e-288",
      "--rmax", "4.429923276074354e-70", "--tol", "6.554047094026312e-11"], 3,
     "underflow"),
    (["solve-farfield", "--n", "7", "--m", "0.664143274827661",
      "--beta=0.6411217792902975", "--eta", "5.425477566263422e-09",
      "--rmax", "7.293894937355169e+57", "--tol", "2.1187453593671582e-12"], 3,
     "farfield stepper nodes' f-side image overflows at x=1.2e+44"),
    (["solve-farfield", "--n", "7", "--m", "0.6861430869472268",
      "--beta=-0.4831455902077526", "--eta", "5768.524007554788",
      "--rmax", "2.5569161526664544e+46", "--tol", "2.2751243988067142e-07"], 3,
     "farfield stepper nodes' f-side image overflows"),
    (["solve-farfield", "--n", "8", "--m", "0.6555708278767365",
      "--beta=-0.2765730577539808", "--eta", "1.2055639776565557e-33",
      "--rmax", "2.8500095699142938e+54", "--tol", "1.8259006147079036e-08"], 3,
     "farfield stepper nodes' f-side image overflows"),
])
def test_extreme_data_fail_on_one_line_without_warnings(argv, code, why, tmp_path,
                                                        capsys):
    # an overflowing series slope and an overflowing node-spacing bound each
    # used to print numpy RuntimeWarnings; nodes whose f_r rounds to 0 ended
    # on ValueFloor, or wrote f = 0 rows.  At a far stepper node g and f fit
    # a double and f_r = -(k + s g_s/g) f / r does not (n = 7, s = 1.2e44:
    # g = 3.9e-69, f = 2.7e263); those three exited 1 on "the Kelvin image
    # is not finite" when the CLI wrote profile_f.csv
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, _, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert got == code
    assert why in err and err.count("\n") == 1


@pytest.mark.parametrize("eta0, r_max", [("1e40", "4.6e-12"), ("1e-40", "4.6e15")])
def test_scaled_bubbles_solve(eta0, r_max, tmp_path, capsys):
    # eta0 (1 + eta0^{2/3} r^2/16)^{-3}, the closed form's image under the
    # scaling family, with f_r past 1e30 or f below 1e-30: no stop may read
    # the absolute size of f or f_r
    code, _, err = run_cli(capsys, "solve-origin", "--n", "4", "--m", M13,
                           "--beta", "0", "--eta0", eta0, "--rmax", r_max,
                           "--out", str(tmp_path))
    assert (code, err) == (0, "")
    with open(tmp_path / "report.json", encoding="utf-8") as fh:
        l1 = json.load(fh)["limits"]["L1"]["value"]
    assert l1 == pytest.approx(4096.0 / float(eta0), rel=1e-9)


@pytest.mark.parametrize("argv", [
    # the image of --eta0 1 --rmax 2.2e-7 under the scaling family
    ["solve-origin", "--n", "4", "--m", M13, "--beta", "0", "--eta0", "1e-200",
     "--rmax", "1e60"],
    # with the seam capped at s = 1 the flat g near it rounded above eta
    ["solve-farfield", "--n", "4", "--m", M13, "--beta", "0", "--eta", "1e-29"],
], ids=["origin-eta0-1e-200", "farfield-eta-1e-29"])
def test_images_of_ordinary_data_pass(argv, tmp_path, capsys):
    # the seam cap reads no absolute size: it is the datum's own length
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, _, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert (got, err) == (0, "")


def _solves_cleanly(capsys, tmp_path, *argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, _, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert (got, err) == (0, "")


@pytest.mark.parametrize("n, rmax", [("8", "1e-60"), ("8", "1e-40"), ("4", "1e-100")])
def test_nodes_whose_flux_underflows_solve(n, rmax, tmp_path, capsys):
    # P = r^{n-1} f^{m-1} f_r rounds to 0 at every node: the residual, which
    # reads the log nodes, checks them (these runs exited 3 on the flux)
    _solves_cleanly(capsys, tmp_path, "solve-origin", "--n", n, "--m", "0.3",
                    "--beta", "0", "--rmax", rmax)


@pytest.mark.parametrize("argv", [
    # r^4 = 1.9e308 at x = 1.18e77, where P is about 1e261 (exited 3)
    ["solve-origin", "--n", "6", "--m", "0.23357918074825476",
     "--tol", "3.4805021776160904e-06", "--beta", "0.02352314803300859",
     "--rmax", "1.5212176381082032e+81", "--eta0", "5.152254419685331e-21"],
    # r^4 rounds to 0 where P' does not (a residual of 1.0, exit 2)
    ["solve-origin", "--n", "5", "--m", "0.515380791688484",
     "--tol", "2.2995371438946087e-15", "--beta", "1.121295690558988",
     "--rmax", "4.602851113308237e-90", "--eta0", "3.091923793471735e+237"],
    # s^k overflows on the far tail, where f and f_r fit (exited 1)
    ["solve-farfield", "--n", "8", "--m", "0.59", "--beta=-0.27", "--eta", "3e-7",
     "--rmax", "1e48"],
], ids=["flux-overflows", "dflux-underflows", "kelvin-power-overflows"])
def test_checks_form_no_power_of_r(argv, tmp_path, capsys):
    _solves_cleanly(capsys, tmp_path, *argv)


@pytest.mark.parametrize("beta", [0.18, 0.27, 0.36, 0.45, 0.54])
def test_farfield_images_map_to_the_fside(cache, beta, tmp_path, capsys):
    """The lam = 1e40 images of the (5, 0.45) far-field solves, generated as
    tests/test_scaling.py does: r^{-k} leaves the doubles on them, f does
    not (each exited 1 on "the Kelvin image is not finite")."""
    p = fdprof.derive_params(5, 0.45, 1.0, beta)
    lam = 1e40
    eta = lam ** (2.0 / (1.0 - p.m) - p.k) * cache.farfield(5, 0.45, beta).boundary
    _solves_cleanly(capsys, tmp_path, "solve-farfield", "--n", "5", "--m", "0.45",
                    "--beta", repr(beta), "--eta", repr(eta), "--rmax", repr(RMAX * lam))


def _verify_rows(tmp_path, capsys, r, f, fr):
    rows = "".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in zip(r.tolist(), f.tolist(),
                                                           fr.tolist()))
    (tmp_path / "profile.csv").write_text("r,f,f_r\n" + rows, encoding="utf-8")
    report = {"params": {"n": 8, "m": 0.3, "rho1": 1.0, "beta": 0.0},
              "terminal_event": "ReachedRmax"}
    (tmp_path / "report.json").write_text(json.dumps(report), encoding="utf-8")
    return run_cli(capsys, "verify", str(tmp_path / "profile.csv"))[:2]


def test_verify_of_a_profile_with_no_checkable_node_fails(tmp_path, capsys):
    """A residual over no node is NaN, not a pass: verify exits 2."""
    # f = 1, f_r = -1e-3 r on r ~ 1e-60 is no solution, read in logs
    r = 1e-60 * (1.0 + np.arange(10) / 10.0)
    code, out = _verify_rows(tmp_path, capsys, r, np.ones(10), -1e-3 * r)
    assert code == 2
    assert float(out.split()[2]) > 0.5
    # with f_r = 0 at r ~ 1e-200 the slope term is 0 and Y = r^2 underflows:
    # every term of the defect vanishes at every node
    code, out = _verify_rows(tmp_path, capsys, 1e-200 * (1.0 + np.arange(10) / 10.0),
                             np.ones(10), np.zeros(10))
    assert code == 2
    assert out.startswith("residual = nan")


def test_sweep_with_tiny_rmax_records_each_failure(tmp_path, capsys):
    code, _, err = run_cli(capsys, "sweep", "--n", "4", "--m", "0.3:0.31:2",
                           "--beta=0:0:1", "--rmax", "1e-300",
                           "--out", str(tmp_path))
    assert code == 0 and err == ""
    with open(tmp_path / "summary.csv", encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    assert len(rows) == 2
    assert all(row.split(",")[-1].startswith("LocalStageFailed: origin series nodes")
               for row in rows)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["solve-origin", "solve-farfield", "beta-find"]),
       n=st.integers(3, 8), m_frac=st.floats(0.001, 0.999),
       beta_frac=st.floats(0.001, 0.999), b=_log_uniform(1e-300, 1e300),
       tol=_log_uniform(1e-15, 0.9), r_max=_log_uniform(1e-300, 1e300))
def test_cli_returns_an_exit_code_and_never_raises(tmp_path_factory, command, n,
                                                   m_frac, beta_frac, b, tol,
                                                   r_max):
    """Over admissible (n, m, beta), with the datum, tol and r_max anywhere
    in their float ranges, every solver command ends on an exit code: a
    solver path never ends in a raw traceback.  A solve that exits 0 or 2
    writes only finite, positive values, and verify reads each CSV it
    writes back with exit 0 or 2, never 1."""
    m = m_frac * (n - 2) / n
    beta = -0.5 + beta_frac * (0.5 + fdprof.derive_params(n, m, 1.0, 0.0).beta_threshold)
    out = tmp_path_factory.mktemp("fuzz")
    argv = [command, "--n", str(n), "--m", repr(m), "--tol", repr(tol),
            "--out", str(out)]
    if command == "beta-find":
        argv += ["--eta0", repr(b)]
    else:
        argv += ["--beta", repr(beta), "--rmax", repr(r_max),
                 "--eta0" if command == "solve-origin" else "--eta", repr(b)]
    code = main(argv)
    assert code in (0, 1, 2, 3)
    if command != "beta-find" and code in (0, 2):
        csvs = sorted(out.glob("*.csv"))
        assert len(csvs) == (1 if command == "solve-origin" else 2)
        for path in csvs:
            v = read_csv(path)[1][:, 1]
            assert np.all(np.isfinite(v) & (v > 0.0)), path.name
            # a node written is a node read back: verify passes or fails it
            assert main(["verify", str(path), "--tol", repr(tol)]) in (0, 2), path.name


@pytest.mark.parametrize("regime", [5, []])
def test_verify_names_a_regime_that_is_not_an_object(origin_run, tmp_path, capsys,
                                                     regime):
    report = json.loads(Path(origin_run, "report.json").read_text())
    report["regime"] = regime
    (tmp_path / "report.json").write_text(json.dumps(report), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", os.path.join(origin_run, "profile.csv"),
                             "--report", str(tmp_path / "report.json"))
    assert (code, out) == (1, "")
    assert "regime" in err and err.count("\n") == 1


_FRAC = st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(3, 8), m_frac=st.floats(0.001, 0.999), lo=_FRAC, hi=_FRAC,
       tol_frac=_FRAC)
# (4, 1/3) from (0.4, -0.4): tol_beta past the width (two probes, no step),
# a few ulps (the gap's noise decides each side), and below the floor
@example(n=4, m_frac=2 / 3, lo=0.9, hi=0.1, tol_frac=1.0)
@example(n=4, m_frac=2 / 3, lo=0.9, hi=0.1, tol_frac=0.03)
@example(n=4, m_frac=2 / 3, lo=0.9, hi=0.1, tol_frac=0.0)
def test_beta_find_certifies_any_bracket_and_tol_beta(tmp_path_factory, n, m_frac,
                                                      lo, hi, tol_frac):
    """Bracket ends anywhere in the origin window (its edges, which are
    refused, included), in either order, and tol_beta from half the ulp
    floor to twice the bracket width: beta-find ends on an exit code, and
    on exit 0 its beta.json certifies the bracket."""
    m = m_frac * (n - 2) / n
    span = 0.5 + fdprof.derive_params(n, m, 1.0, 0.0).beta_threshold
    lo, hi = -0.5 + lo * span, -0.5 + hi * span
    floor = 4.0 * math.ulp(max(abs(lo), abs(hi)))
    top = 2.0 * max(abs(hi - lo), floor)
    tol_beta = 0.5 * floor * (top / (0.5 * floor)) ** tol_frac
    out = tmp_path_factory.mktemp("bracket")
    code = main(["beta-find", "--n", str(n), "--m", repr(m), f"--beta-lo={lo!r}",
                 f"--beta-hi={hi!r}", "--tol-beta", repr(tol_beta), "--out", str(out)])
    assert code in (0, 1, 2, 3)
    if code == 0:
        payload = json.loads((out / "beta.json").read_text())
        (b_lo, b_hi), history = payload["bracket"], payload["history"]
        assert b_hi - b_lo <= tol_beta
        assert max(b for b, _, side in history if side == -1) < min(
            b for b, _, side in history if side == 1)
        assert b_lo <= payload["beta_star"] <= b_hi
        assert payload["probes"] == len(history)
