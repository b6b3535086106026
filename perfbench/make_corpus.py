"""Regenerate the pinned inputs of the benchmark: far-field etas and the verify corpus.

Run once from the repository root, at the commit whose outputs the corpus
should hold:

    python3 perfbench/make_corpus.py

It writes perfbench/data/inputs.json (the 45 standard tuples with their
touchdown-rescaled far-field etas) and perfbench/data/verify_corpus.tar.gz
(profile.csv / profile_f.csv and their report.json for every tuple, as
`solve-origin --eta0 1` and `solve-farfield --eta <pinned>` write them).
The corpus is kept fixed afterwards, so a solver change cannot move the
numbers of the verify workload.
"""
import io
import json
import os
import sys
import tarfile
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from fdprof import ContinuationFailed, cli, derive_params, solve_farfield_profile  # noqa: E402

RMAX = 100.0
TOL = 1e-9

# the standard sweep of the test suite: three admissible m per n, five beta
# per (n, m), regular and singular g-origins
SWEEP = {
    (3, 0.2): [0.05, 0.15, 0.25, 0.35, 0.44],
    (3, 0.28): [1.15, 1.3, 1.45, 1.55, 1.68],
    (3, 0.3): [1.85, 2.1, 2.35, 2.6, 2.85],
    (4, 1 / 3): [0.05, 0.15, 0.25, 0.35, 0.44],
    (4, 0.42): [0.98, 1.05, 1.12, 1.19, 1.25],
    (4, 0.45): [1.9, 1.97, 2.04, 2.11, 2.18],
    (5, 0.45): [0.18, 0.27, 0.36, 0.45, 0.54],
    (5, 0.52): [0.98, 1.05, 1.12, 1.19, 1.25],
    (5, 0.55): [1.92, 1.98, 2.04, 2.1, 2.15],
}


def touchdown_eta(p):
    """eta whose far-field solve spans [r0, RMAX], by the scaling symmetry.

    A touchdown at s0 for eta = 1 moves out to 2*RMAX after shrinking eta to
    (s0 / (2 RMAX))^(sigma/(1-m)).
    """
    try:
        solve_farfield_profile(p, 1.0, RMAX, tol=TOL)
        return 1.0
    except ContinuationFailed as e:
        s0 = float(e.partial.r[-1])
        return (s0 / (2.0 * RMAX)) ** (p.sigma / (1.0 - p.m))


def main():
    tuples = []
    buf = io.BytesIO()
    with tempfile.TemporaryDirectory(dir=HERE) as work, \
            tarfile.open(fileobj=buf, mode="w:gz") as tar:
        for idx, ((n, m), betas) in enumerate(sorted(SWEEP.items())):
            for beta in betas:
                eta = touchdown_eta(derive_params(n, m, 1.0, beta))
                i = len(tuples)
                tuples.append({"n": n, "m": m, "beta": beta, "eta": eta})
                common = ["--n", str(n), "--m", repr(m), "--beta", repr(beta),
                          "--rmax", repr(RMAX), "--tol", repr(TOL)]
                o = os.path.join(work, f"o{i:02d}")
                f = os.path.join(work, f"f{i:02d}")
                tuples[-1]["origin_exit"] = cli.main(
                    ["solve-origin", *common, "--eta0", "1.0", "--out", o])
                tuples[-1]["farfield_exit"] = cli.main(
                    ["solve-farfield", *common, "--eta", repr(eta), "--out", f])
                for d, names in ((o, ("profile.csv", "report.json")),
                                 (f, ("profile_f.csv", "report.json"))):
                    for name in names:
                        tar.add(os.path.join(d, name),
                                arcname=f"{os.path.basename(d)}/{name}")
    with open(os.path.join(HERE, "data", "verify_corpus.tar.gz"), "wb") as fh:
        fh.write(buf.getvalue())
    with open(os.path.join(HERE, "data", "inputs.json"), "w") as fh:
        json.dump({"rmax": RMAX, "tol": TOL, "tuples": tuples}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
