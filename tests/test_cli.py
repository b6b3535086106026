"""End-to-end checks of the command line driver, run in process.

Each command is invoked through ``fdprof.cli.main`` with an argv list, so
exit codes, stdout and file side effects are all observable without spawning
a subprocess.  The anchor point n=4, m=1/3, beta=0 keeps the closed form
available for value checks on whatever the CLI writes to disk.
"""
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import f_exact, fr_exact
from hypothesis import given, settings
from hypothesis import strategies as st

import fdprof
from fdprof import DomainError, integrate, kernels
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
    payload = json.load(open(tmp_path / "beta.json"))
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
                  "--tol", "1e-8", "--rmax", "20"],
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


def test_steep_far_ladder_has_no_overflow(tmp_path, capsys):
    # k = 120: the far ladder's r^k f spans 1e130 to 1e236, and the square
    # of a jump in Aitken's step used to end in a raw OverflowError
    code, _, err = run_cli(capsys, "solve-origin", "--n", "8", "--m", "0.05",
                           "--beta", "0", "--out", str(tmp_path))
    assert code in (0, 2)
    assert "Traceback" not in err
    assert (tmp_path / "report.json").exists()


def test_slow_decay_limits_carry_an_error_bar(tmp_path, capsys):
    """At (8, 0.05, 0) r^k f grows like r^{k-2/(1-m)}, k = 120: the far
    ladder runs 1e130 ... 1e236 and Aitken's antilimit is 0, so only the
    error bar can say that L1 and L2 do not exist."""
    code, _, _ = run_cli(capsys, "solve-origin", "--n", "8", "--m", "0.05",
                         "--beta", "0", "--out", str(tmp_path))
    assert code == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["decay_class"]["class"] == "Slow"
    for key in ("L1", "L2"):
        est = rep["limits"][key]
        assert math.isfinite(est["error"])
        assert est["error"] > max(1e200, abs(est["value"]))
