"""Command-line front end: solve, search, verify, sweep.

Exit codes: 0 success with all applicable checks holding, 1 configuration
or domain errors (the message names the violated constraint), 2 verification
failures and failed bracket searches, 3 solver breakdown.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import analysis
from .analysis import BadBracket, InsufficientRange, build_report
from .integrate import (ContinuationFailed, _require_run_settings,
                        solve_farfield_profile, solve_origin_profile)
from .inversion import fside_nodes, invert_pointwise
from .localsolve import LocalStageFailed
from .params import DomainError, derive_params
from .profile import Profile, ProfileKind, TerminalEvent

RESIDUAL_FACTOR = 100.0   # verification threshold: residual <= factor * tol
REQUIRED = ("n", "m", "beta", "eta")   # the value options without a default


def _residual_threshold(tol: float) -> float:
    # the pointwise stencil defect carries FD truncation ~ (step/r)^6 from
    # the node spacing, whose steps are capped at 0.025 in ln r: on the 45
    # benchmark tuples it reads up to 6.6e-8 at the default tolerance and
    # still 7e-9 at tol 1e-11, so the pass bar never drops below 1e-6
    return max(RESIDUAL_FACTOR * tol, 1e-6)


def _passes(residual: float, verdicts: dict, tol: float) -> bool:
    """The pass rule of solve and verify: the residual within the threshold
    (a NaN residual is not) and no inequality verdict fails-at."""
    return (residual <= _residual_threshold(tol)
            and all(v.status != "fails-at" for v in verdicts.values()))


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration errors, exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def parse_known_args(self, args=None, namespace=None):
        """A command's --config file parses as --key=value flags placed
        before the command line's own, so a flag wins.  Only a key that is
        exactly the name of a value option counts; others are ignored."""
        ns, rest = super().parse_known_args(args, namespace)
        if "--config" in self._option_string_actions and ns.config:
            takes_value = {s for a in self._actions if a.nargs != 0
                           for s in a.option_strings}
            flags = [f"--{key}={val}" for key, val in load_config(ns.config).items()
                     if f"--{key}" in takes_value]
            ns, rest = super().parse_known_args(flags + list(args), namespace)
        return ns, rest


def load_config(path: str) -> dict:
    """Flat key=value file; '#' and ';' start comments."""
    cfg = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].split(";", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DomainError(f"config line {lineno}: expected key=value")
                key, val = line.split("=", 1)
                cfg[key.strip()] = val.strip()
    except (OSError, UnicodeDecodeError) as e:
        raise DomainError(f"cannot read config file {path}: {e}")
    return cfg


def _fmt(x) -> str:
    return repr(float(x))


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(_sanitize(payload), fh, indent=2)
        fh.write("\n")


def write_profile_csv(path: str, header: str, r, v, vr) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        # repr of the Python floats: no numpy scalar per value
        fh.writelines(f"{a!r},{b!r},{c!r}\n"
                      for a, b, c in zip(r.tolist(), v.tolist(), vr.tolist()))


def _write_plots(out: str, stem: str, r, f, fr) -> None:
    """Two-column data files: profile, log-log decay, and log-slope."""
    views = {
        f"{stem}_profile.dat": (r, f),
        f"{stem}_loglog.dat": (np.log10(r), np.log10(np.maximum(f, 1e-300))),
        f"{stem}_slope.dat": (r, r * fr / f),
    }
    for name, (xs, ys) in views.items():
        with open(os.path.join(out, name), "w", encoding="utf-8", newline="") as fh:
            for x, y in zip(xs, ys):
                fh.write(f"{_fmt(x)} {_fmt(y)}\n")


# ---------------------------------------------------------------------------
# commands


def cmd_solve(ns) -> int:
    """solve-origin (f from f(0) = eta0) or solve-farfield (g from g(0) = eta)."""
    origin = ns.kind is ProfileKind.ORIGIN
    os.makedirs(ns.out, exist_ok=True)
    solve = solve_origin_profile if origin else solve_farfield_profile
    profile = solve(derive_params(ns.n, ns.m, ns.rho1, ns.beta),
                    ns.eta0 if origin else ns.eta, ns.rmax, tol=ns.tol)
    report = build_report(profile)
    native = (profile.r, profile.v, profile.vr)
    if origin:
        write_profile_csv(os.path.join(ns.out, "profile.csv"), "r,f,f_r", *native)
        fside = native
    else:
        write_profile_csv(os.path.join(ns.out, "profile_g.csv"), "r,g,g_r", *native)
        fside = fside_nodes(profile)
        write_profile_csv(os.path.join(ns.out, "profile_f.csv"), "r,f,f_r", *fside)
    write_json(os.path.join(ns.out, "report.json"), report.to_dict())
    if ns.plots:
        _write_plots(ns.out, ns.kind.value, *fside)
    # every other terminal event raised ContinuationFailed in the solve
    return 0 if _passes(report.residual, report.inequalities, ns.tol) else 2


def cmd_beta_find(ns) -> int:
    os.makedirs(ns.out, exist_ok=True)
    result = analysis.find_anomalous_beta(ns.n, ns.m, ns.rho1, ns.eta0,
                                          (ns.beta_lo, ns.beta_hi),
                                          tol_beta=ns.tol_beta, tol=ns.tol)
    payload = dataclasses.asdict(result)
    payload["params"] = {"n": ns.n, "m": ns.m, "rho1": ns.rho1, "eta0": ns.eta0,
                         "tol_beta": ns.tol_beta}
    write_json(os.path.join(ns.out, "beta.json"), payload)
    print(f"beta_star = {result.beta_star!r} after {result.probes} probes")
    return 0


def _read_profile_csv(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as e:
        raise DomainError(f"cannot read {path}: {e}")
    if not lines or lines[0] not in ("r,f,f_r", "r,g,g_r"):
        raise DomainError(f"{path}: header must be r,f,f_r or r,g,g_r")
    kind = ProfileKind.ORIGIN if lines[0] == "r,f,f_r" else ProfileKind.FARFIELD
    rows = []
    for i, line in enumerate(lines[1:], 2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise DomainError(f"{path}: row {i} has {len(parts)} fields, expected 3")
        try:
            row = tuple(float(x) for x in parts)
        except ValueError:
            raise DomainError(f"{path}: row {i} is not numeric: {line!r}")
        if not all(math.isfinite(x) for x in row):
            raise DomainError(f"{path}: row {i} is not finite: {line!r}")
        rows.append(row)
    if len(rows) < 5:
        raise DomainError(f"{path}: only {len(rows)} data rows, need at least 5")
    arr = np.array(rows, dtype=float)
    r = arr[:, 0]
    if r[0] <= 0.0 or np.any(np.diff(r) <= 0.0):
        bad = int(np.nonzero(np.diff(r) <= 0.0)[0][0]) + 3 if r[0] > 0 else 2
        raise DomainError(f"{path}: row {bad}: radii must be positive and increasing")
    return kind, r, arr[:, 1], arr[:, 2]


def cmd_verify(ns) -> int:
    kind, r, v, vr = _read_profile_csv(ns.profile_csv)
    report_path = ns.report or os.path.join(os.path.dirname(ns.profile_csv) or ".",
                                            "report.json")
    try:
        with open(report_path, "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise DomainError(f"cannot read report {report_path}: {e}")
    try:
        pd = sidecar["params"]
        p = derive_params(int(pd["n"]), pd["m"], pd["rho1"], pd["beta"])
        boundary = float(pd.get("boundary", v[0]))
        terminal = TerminalEvent(sidecar["terminal_event"])
    except (KeyError, TypeError, ValueError) as e:
        raise DomainError(f"report {report_path} is missing usable params: {e}")

    stored_kind = str(sidecar.get("regime", {}).get("profile_kind", kind.value))
    if kind is ProfileKind.ORIGIN and stored_kind == ProfileKind.FARFIELD.value:
        # Kelvin image of a far-field solve: transport back and verify in the
        # native chart, where the flux stencil is well conditioned (the image
        # direction amplifies tail noise by the node spacing)
        r, v, vr = invert_pointwise(r, v, vr, p)
        kind = ProfileKind.FARFIELD

    profile = Profile(kind=kind, params=p, boundary=boundary, r=r, v=v, vr=vr,
                      n_local=0, terminal=terminal, tol=ns.tol)
    with np.errstate(all="ignore"):
        residual = float(analysis.ode_residual(profile))
        verdicts = analysis.verify_inequalities(profile)
    print(f"residual = {residual!r} (threshold {_residual_threshold(ns.tol)!r})")
    for name, verdict in verdicts.items():
        print(f"{name}: {verdict.status}")
    return 0 if _passes(residual, verdicts, ns.tol) else 2


def _parse_axis(text: str, what: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"{what} axis must be lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise DomainError(f"{what} axis is not numeric: {text!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"{what} axis bounds are not finite: {text!r}")
    if count < 1:
        raise DomainError(f"{what} axis is empty (count={count})")
    if count == 1:
        return [lo]
    # a convex combination: no overflow, and both ends exact
    return [lo * (1.0 - t) + hi * t
            for t in (i / (count - 1) for i in range(count))]


COLUMNS = ("n", "m", "rho1", "beta", "eta0", "terminal_event", "residual",
           "L1", "L2", "L3", "decay_class", "shape", "error")   # of summary.csv


def _sweep_tuple(idx, n, m, beta, rho1, eta0, rmax, tol, out):
    row = dict.fromkeys(COLUMNS, "")
    row.update(n=str(n), m=_fmt(m), rho1=_fmt(rho1), beta=_fmt(beta),
               eta0=_fmt(eta0))
    try:
        p = derive_params(n, m, rho1, beta)
        profile = solve_origin_profile(p, eta0, rmax, tol=tol)
        report = build_report(profile)
        row["terminal_event"] = report.terminal_event.value
        row["residual"] = _fmt(report.residual)
        if report.limits is not None:
            row["L1"] = _fmt(report.limits.l1.value)
            row["L2"] = _fmt(report.limits.l2.value)
            row["L3"] = _fmt(report.limits.l3.value)
        row["decay_class"] = report.decay.label.value
        row["shape"] = report.shape.label
        write_json(os.path.join(out, f"report_{idx:04d}.json"), report.to_dict())
    except (DomainError, LocalStageFailed, InsufficientRange) as e:
        row["error"] = f"{type(e).__name__}: {e}"
    except ContinuationFailed as e:
        row["terminal_event"] = e.terminal.value
        row["error"] = f"ContinuationFailed: {e}"
    return row


def cmd_sweep(ns) -> int:
    # settings shared by every tuple are refused once, not once per row
    _require_run_settings(ns.rmax, ns.tol, eta0=ns.eta0, rho1=ns.rho1)
    if ns.workers < 1:
        raise DomainError(f"workers={ns.workers} violates workers >= 1")
    os.makedirs(ns.out, exist_ok=True)

    try:
        dims = sorted({int(tok) for tok in ns.n.split(",") if tok.strip()})
    except ValueError:
        raise DomainError(f"n axis is not a comma list of integers: {ns.n!r}")
    if not dims:
        raise DomainError("n axis is empty")
    m_list = _parse_axis(ns.m, "m")
    beta_list = _parse_axis(ns.beta, "beta")

    tuples = [(n, m, b) for n in dims for m in sorted(m_list)
              for b in sorted(beta_list)]
    with ThreadPoolExecutor(max_workers=ns.workers) as pool:
        rows = list(pool.map(
            lambda it: _sweep_tuple(it[0], *it[1], ns.rho1, ns.eta0, ns.rmax,
                                    ns.tol, ns.out),
            enumerate(tuples)))

    summary = os.path.join(ns.out, "summary.csv")
    with open(summary, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(row[col].replace(",", ";") for col in COLUMNS) + "\n")
    print(f"{len(rows)} tuples -> {summary}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process; parsing leaves it as is.

    Each default is stated once, in its add_argument; the options without
    one are REQUIRED.
    """
    common = _Parser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-9,
                        help="ODE and local-solver tolerance (default %(default)s)")
    common.add_argument("--rmax", type=float, default=100.0,
                        help="outer integration radius (default %(default)s)")
    common.add_argument("--out", default=".",
                        help="output directory (default %(default)s)")
    common.add_argument("--config",
                        help="flat key=value config file; flags override it")
    scaled = _Parser(add_help=False, parents=[common])
    scaled.add_argument("--rho1", type=float, default=1.0,
                        help="alpha (1-m) - 2 beta (default %(default)s)")
    datum = _Parser(add_help=False)
    datum.add_argument("--eta0", type=float, default=1.0,
                       help="origin value f(0) (default %(default)s)")

    # the commands for one (n, m, rho1)
    point = _Parser(add_help=False, parents=[scaled])
    point.add_argument("--n", type=int)
    point.add_argument("--m", type=float)
    solve = _Parser(add_help=False, parents=[point])
    solve.add_argument("--beta", type=float)
    solve.add_argument("--plots", action="store_true")

    parser = _Parser(prog="fdprof", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    so = sub.add_parser("solve-origin", parents=[solve, datum],
                        help="solve the origin profile f with f(0)=eta0")
    so.set_defaults(func=cmd_solve, kind=ProfileKind.ORIGIN)

    sf = sub.add_parser("solve-farfield", parents=[solve],
                        help="solve the far-field profile via g with g(0)=eta")
    sf.add_argument("--eta", type=float)
    sf.set_defaults(func=cmd_solve, kind=ProfileKind.FARFIELD)

    bf = sub.add_parser("beta-find", parents=[point, datum],
                        help="find beta*, where the origin profile joins the "
                             "fast-decay saddle")
    bf.add_argument("--beta-lo", type=float, default=-0.4,
                    help="bracket end (default %(default)s)")
    bf.add_argument("--beta-hi", type=float, default=0.4,
                    help="bracket end (default %(default)s)")
    bf.add_argument("--tol-beta", type=float, default=1e-3,
                    help="bracket width to stop at (default %(default)s)")
    bf.set_defaults(func=cmd_beta_find)

    ve = sub.add_parser("verify", parents=[common],
                        help="re-check a stored profile CSV against its report")
    ve.add_argument("profile_csv")
    ve.add_argument("--report",
                    help="sidecar report path (default: report.json next to the CSV)")
    ve.set_defaults(func=cmd_verify)

    sw = sub.add_parser("sweep", parents=[scaled, datum],
                        help="solve a grid of parameter tuples; the --workers "
                             "threads share one interpreter lock, so solves "
                             "do not run in parallel")
    sw.add_argument("--n", help="comma list of dimensions, e.g. 3,4")
    sw.add_argument("--m", help="m axis lo:hi:count (inclusive)")
    sw.add_argument("--beta", help="beta axis lo:hi:count (inclusive)")
    sw.add_argument("--workers", type=int, default=min(8, os.cpu_count() or 1),
                    help="threads (default %(default)s: the core count, at most 8)")
    sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if not getattr(ns, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        for name in REQUIRED:
            if getattr(ns, name, 0) is None:
                raise DomainError(f"missing required option --{name}")
        return ns.func(ns)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BadBracket as e:
        print(f"bracket error: {e}", file=sys.stderr)
        return 2
    except InsufficientRange as e:
        print(f"verification error: {e}", file=sys.stderr)
        return 2
    except (LocalStageFailed, ContinuationFailed) as e:
        print(f"solver error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
