"""Byte-identity census of fdprof's outputs over a fixed set of commands.

    python3 tools/census.py TREE

imports fdprof from TREE/src and runs each command through `cli.main` in
process, in a fresh output directory.  It prints one SHA-256 digest per
command, over its exit code, its stdout (with the output directory
replaced by a placeholder) and every file it wrote, then a total digest
over those.  A solve's digest also covers the exit code and stdout of
`verify` on each profile CSV it wrote, at the solve's tol.  Two trees that
print the same total wrote the same bytes, exit codes and stdout for every
command.

The commands (550):
  - the 45 standard tuples of perfbench/data/inputs.json (this checkout's
    copy, read only): solve-origin at eta0 = 0.5, 1 (with --plots) and 2,
    and solve-farfield at the tuple's eta and eta/4, at rmax 100 and tol
    1e-9;
  - verify of each CSV those solves write: profile.csv of an origin solve,
    profile_g.csv and profile_f.csv of a far-field one (315);
  - beta-find at (4, 1/3), (5, 0.45) and (3, 0.2), each at eta0 = 0.5, 1
    and 2, bracket (-0.45, 0.45), tol_beta 1e-3;
  - sweep --n 4 --m 0.30:0.35:3 --beta=-0.1:0.35:4 --workers 2.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "perfbench", "data", "inputs.json")
OUT = "@OUT@"   # stands for the output directory in stdout
CSVS = ("profile.csv", "profile_g.csv", "profile_f.csv")   # what a solve writes


def commands():
    """(label, argv) per command; argv holds OUT where --out goes."""
    with open(INPUTS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    run = ["--rmax", repr(pinned["rmax"]), "--tol", repr(pinned["tol"])]
    out = []
    for t in pinned["tuples"]:
        point = ["--n", str(t["n"]), "--m", repr(t["m"]), "--beta", repr(t["beta"]), *run]
        tag = f"{t['n']},{t['m']!r},{t['beta']!r}"
        for eta0 in (0.5, 1.0, 2.0):
            plots = ["--plots"] if eta0 == 1.0 else []
            out.append((f"solve-origin {tag} eta0={eta0!r}",
                        ["solve-origin", *point, "--eta0", repr(eta0), *plots]))
        for eta in (t["eta"], t["eta"] / 4.0):
            out.append((f"solve-farfield {tag} eta={eta!r}",
                        ["solve-farfield", *point, "--eta", repr(eta)]))
    for n, m in ((4, 1.0 / 3.0), (5, 0.45), (3, 0.2)):
        for eta0 in (0.5, 1.0, 2.0):
            out.append((f"beta-find {n},{m!r} eta0={eta0!r}",
                        ["beta-find", "--n", str(n), "--m", repr(m), "--eta0", repr(eta0),
                         "--beta-lo=-0.45", "--beta-hi=0.45", "--tol-beta", "1e-3"]))
    out.append(("sweep", ["sweep", "--n", "4", "--m", "0.30:0.35:3",
                          "--beta=-0.1:0.35:4", "--workers", "2"]))
    return out


def _run(main, argv) -> tuple[int, str]:
    """(exit code, stdout) of main(argv), its stderr dropped."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        return main(argv), stdout.getvalue()


def digest(main, argv, work) -> str:
    """Run argv with --out work and hash what it returned, printed and wrote,
    then, after a solve, what verify returns and prints on each CSV it wrote."""
    code, stdout = _run(main, [*argv, "--out", work])
    h = hashlib.sha256(f"exit {code}\n".encode())
    h.update(stdout.replace(work, OUT).encode())
    for name in sorted(os.listdir(work)):
        with open(os.path.join(work, name), "rb") as fh:
            h.update(f"\0{name}\0".encode() + fh.read())
    if argv[0].startswith("solve"):
        tol = argv[argv.index("--tol") + 1]
        for name in CSVS:
            if os.path.exists(path := os.path.join(work, name)):
                code, stdout = _run(main, ["verify", path, "--tol", tol])
                h.update(f"\0verify {name}\0exit {code}\n{stdout}".encode())
    return h.hexdigest()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tools/census.py TREE", file=sys.stderr)
        return 1
    sys.path.insert(0, os.path.join(os.path.abspath(args[0]), "src"))
    from fdprof import cli

    total = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="fdprof-census-") as scratch:
        for i, (label, argv_) in enumerate(commands()):
            work = os.path.join(scratch, f"{i:03d}")
            os.makedirs(work)
            d = digest(cli.main, argv_, work)
            total.update(d.encode())
            print(f"{d}  {label}")
    print(f"{total.hexdigest()}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
