"""What the benchmark harness in perfbench/ relies on in fdprof.

perfbench patches fdprof's layer boundaries by name (spans.BOUNDARIES),
times a child process running run.SETUP_CODE and stamps the backend from
fdprof.NUMBA_ENABLED.  A change that breaks any of these otherwise shows up
only when a benchmark run fails.  The harness is read, never modified.
"""
import importlib
import os
import random
import subprocess
import sys

import pytest

import fdprof

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(fdprof.__file__)))


def _load_harness():
    """perfbench's spans, run and workloads modules, imported without writing
    bytecode next to them."""
    sys.path.insert(0, PERFBENCH)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return tuple(importlib.import_module(name)
                     for name in ("spans", "run", "workloads"))
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(PERFBENCH)


spans, run, workloads = _load_harness()


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


def test_sweep_check_reads_the_touchdown_event_by_its_name():
    # workloads.Sweep.check compares summary.csv's terminal_event with this
    # literal: a renamed event would make every sweep run outputs_incorrect
    assert fdprof.TerminalEvent.VALUE_FLOOR.value == "ValueFloor"


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
    # every stored node is a kept series node or a stepper node, the seam
    # state being the stepper's first: a change to the kernel's return
    # tuple that perfbench miscounts shows here
    with open(tmp_path / "profile.csv", encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    assert rows == counts["profile.kept"] + counts["kernels.accepted_steps"] + 1


@pytest.mark.parametrize("eta", ["0.0072833", "0.0018"])
def test_traced_farfield_solve_counts_every_node(eta, tmp_path):
    """The row count above on far-field solves like the solve workload's,
    whose seam sits at the datum's length, not at s = 1."""
    from fdprof import analysis, cli, integrate, kernels
    tracer = spans.Tracer()
    tracer.install({"cli": cli, "integrate": integrate, "kernels": kernels,
                    "analysis": analysis})
    try:
        with tracer.operation("solve"):
            rc = cli.main(["solve-farfield", "--n", "3", "--m", "0.2",
                           "--beta", "0.25", "--eta", eta, "--rmax", "100",
                           "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert rc == 0
    counts = tracer.counts["solve"]
    with open(tmp_path / "profile_g.csv", encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    assert rows == counts["profile.kept"] + counts["kernels.accepted_steps"] + 1


def test_traced_beta_find_steps_in_the_kernel(tmp_path):
    """A beta* search reaches the stepper through the traced kernel boundary."""
    from fdprof import analysis, cli, integrate, kernels
    tracer = spans.Tracer()
    tracer.install({"cli": cli, "integrate": integrate, "kernels": kernels,
                    "analysis": analysis})
    try:
        with tracer.operation("beta"):
            rc = cli.main(["beta-find", "--n", "4", "--m", repr(1 / 3),
                           "--beta-lo=-0.45", "--beta-hi", "0.45",
                           "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert tracer.counts["beta"]["kernels.accepted_steps"] > 0


def test_sweep_workload_times_each_tuple_as_a_root_operation(tmp_path):
    """perfbench's sweep workload, untraced and traced, on its first grid.

    Sweep.execute times tuples by wrapping cli._sweep_tuple in process, and
    run.per_layer expects each tuple to be a root operation of the tracer.
    A sweep that ran tuples in other processes would leave no walls, and
    one that ran them on the calling thread would nest them under the
    command's span; either fails here rather than in a benchmark run.
    """
    from fdprof import analysis, cli, integrate, kernels
    wl = workloads.Sweep(random.Random(3), str(tmp_path))
    cmd = next(wl.commands())
    wl.window = cmd.info["tuples"]
    tracer = spans.Tracer()
    records = run.run_loop(wl, {"cli": cli, "integrate": integrate,
                                "kernels": kernels, "analysis": analysis},
                           0.0, tracer)
    assert [rec["traced"] for rec in records] == [False, True]
    for rec in records:
        assert [op for op, _ in rec["walls"]] == [
            f"{cmd.id}/{i}" for i in range(cmd.info["tuples"])]
        assert all(o.reason is None or o.known for o in rec["outcomes"])
        assert not any(o.wrong for o in rec["outcomes"])
    metrics = run.per_layer(records, tracer, wl)
    assert 0.0 < metrics["cli.sweep_busy_frac"][0] <= 1.0
    assert metrics["kernels.accepted_steps"][0] > 0
