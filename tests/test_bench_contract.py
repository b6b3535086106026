"""What the benchmark harness in perfbench/ relies on in fdprof.

perfbench patches fdprof's layer boundaries by name (spans.BOUNDARIES),
times a child process running run.SETUP_CODE and stamps the backend from
fdprof.NUMBA_ENABLED.  A change that breaks any of these otherwise shows up
only when a benchmark run fails.  The harness is read, never modified.
"""
import importlib
import os
import subprocess
import sys

import pytest

import fdprof

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(fdprof.__file__)))


def _load_harness():
    """perfbench's spans and run modules, imported without writing bytecode
    next to them."""
    sys.path.insert(0, PERFBENCH)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("spans"), importlib.import_module("run")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(PERFBENCH)


spans, run = _load_harness()


@pytest.mark.parametrize("module, attr", [(b[0], b[1]) for b in spans.BOUNDARIES],
                         ids=[f"{b[0]}.{b[1]}" for b in spans.BOUNDARIES])
def test_traced_boundary_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"fdprof.{module}"), attr))


def test_setup_code_runs(tmp_path):
    done = subprocess.run([sys.executable, "-c", run.SETUP_CODE, SRC], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout.strip().splitlines()[-1]) > 0.0


def test_backend_flag_is_a_bool():
    assert isinstance(fdprof.NUMBA_ENABLED, bool)


def test_traced_solve_counts_every_layer(tmp_path):
    from fdprof import analysis, cli, integrate, kernels
    tracer = spans.Tracer()
    tracer.install({"cli": cli, "integrate": integrate, "kernels": kernels,
                    "analysis": analysis})
    try:
        with tracer.operation("solve"):
            rc = cli.main(["solve-origin", "--n", "4", "--m", repr(1 / 3),
                           "--beta", "0.25", "--eta0", "1", "--rmax", "100",
                           "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert rc == 0
    counts = tracer.counts["solve"]
    for key in ("localsolve.grid_nodes", "profile.kept", "kernels.accepted_steps",
                "analysis.residual_nodes"):
        assert counts[key] > 0, key
