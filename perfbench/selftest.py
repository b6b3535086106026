"""Self-test of the benchmark itself (not of fdprof).

    python3 perfbench/selftest.py

For the solve, verify and sweep workloads it runs a short traced pass twice
on one seed and checks that

  * every per-layer count (nodes, iterations, halvings, steps, probes, rows,
    bytes) is identical between the two passes;
  * a different seed changes the generated command lines;
  * for every traced operation the self times of its spans add up to the
    root span exactly, and to the wall time the harness measured around the
    operation within the tracing overhead (2%, or 2 ms on short operations).

Exits 1 and names the failed check on the first failure.
"""
from __future__ import annotations

import itertools
import os
import random
import sys
import tempfile

import run
from spans import Tracer
from workloads import WORKLOADS

COUNTS = ("localsolve.grid_nodes", "localsolve.iterations", "localsolve.halvings",
          "profile.keep_ratio", "kernels.accepted_steps", "analysis.residual_nodes",
          "analysis.probes", "analysis.vanishing_probe_frac", "cli.rows_read",
          "cli.bytes_written")
PASSES = {"solve": 4, "verify": 6, "sweep": 12}   # traced operations per pass


def require(ok, what):
    if not ok:
        print(f"selftest FAILED: {what}")
        raise SystemExit(1)


def traced_pass(name, seed, ops, work, modules):
    wl = WORKLOADS[name](random.Random(seed), work)
    wl.window = ops
    tracer = Tracer()
    records = run.run_loop(wl, modules, 0.0, tracer)
    return wl, tracer, records


def first_argv(name, seed, work, k=5):
    wl = WORKLOADS[name](random.Random(seed), work)
    return [cmd.argv for cmd in itertools.islice(wl.commands(), k)]


def check_self_times(name, tracer, records):
    by_op, root_ns = tracer.self_times()
    for rec in records:
        if not rec["traced"]:
            continue
        for op, wall_ns in rec["walls"]:
            total = sum(by_op[op].values())
            require(total == root_ns[op],
                    f"{name} {op}: self times sum to {total} ns, root span "
                    f"{root_ns[op]} ns")
            slack = max(0.02 * wall_ns, 2e6)
            require(abs(wall_ns - total) <= slack,
                    f"{name} {op}: self times {total / 1e6:.3f} ms vs wall "
                    f"{wall_ns / 1e6:.3f} ms")


def main():
    _, modules = run.import_fdprof()
    os.makedirs(run.OUT, exist_ok=True)
    seed = 7
    for name, ops in PASSES.items():
        with tempfile.TemporaryDirectory(dir=run.OUT, prefix="selftest-") as work:
            passes = [traced_pass(name, seed, ops, work, modules)
                      for _ in range(2)]
            require(first_argv(name, seed, work) != first_argv(name, seed + 1, work),
                    f"{name}: seeds {seed} and {seed + 1} give the same inputs")
        layers = [run.per_layer(records, tracer, wl) for wl, tracer, records in passes]
        for key in COUNTS:
            require(layers[0][key] == layers[1][key],
                    f"{name}: {key} differs between passes: "
                    f"{layers[0][key][0]} vs {layers[1][key][0]}")
        argvs = [[rec["cmd"].argv for rec in records] for _, _, records in passes]
        require(argvs[0] == argvs[1], f"{name}: one seed gave different inputs")
        for wl, tracer, records in passes:
            check_self_times(name, tracer, records)
            wrong = [o for rec in records for o in rec["outcomes"]
                     if o.wrong or (o.reason and not o.known)]
            require(not wrong, f"{name}: unexpected outcomes {wrong}")
        print(f"selftest {name}: {ops} traced operations per pass, counts "
              f"identical, self times add up")
    print("selftest passed")


if __name__ == "__main__":
    sys.exit(main())
