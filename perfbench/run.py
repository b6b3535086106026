"""fdprof benchmark: run one workload through `fdprof.cli.main` and report metrics.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ./src.  With
--trace 0 the end-to-end metrics are printed (set-up time, operations per
second, median operation latency, peak memory); with --trace 1 each command
is run once plain and once traced, in alternating order, and the per-layer
metrics are printed.  Before the timed loop, the workload's census (inputs
this commit is known to fail) runs once, untimed, and is reported apart from
the loop's operations.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The full record (the
stamp, every operation with its inputs and outcome, and in traced runs every
span) is written to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time

from spans import LAYERS, Tracer
from workloads import WORKLOADS, Command, Outcome, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 15

# time to import fdprof and make the first kernel call, in a fresh process;
# this includes jit compilation when numba is present.  The samples are
# spread over the timed loop, between commands, so that their median is
# taken over the same stretch of host load as the operations.  The child
# runs with one OpenBLAS thread: starting the second pool thread at numpy
# import costs 0 to 70 ms depending on what else holds the other core, which
# swamps everything fdprof itself does at set-up on a shared 2-core host.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fdprof
p = fdprof.derive_params(4, 1 / 3, 1.0, 0.0)
f, fr = (1 + 0.5 ** 2 / 16) ** -3, -0.1875 * (1 + 0.5 ** 2 / 16) ** -4
state = fdprof.OdeState(0.5, f, 0.5 ** 3 * f ** (p.m - 1) * fr)
fdprof.advance_f(p, state, 0.6, 1e-6)
print(time.perf_counter() - t0)
"""


def import_fdprof():
    if not os.path.isfile(os.path.join(SRC, "fdprof", "__init__.py")):
        raise SystemExit(f"error: no fdprof source at {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import fdprof
    from fdprof import analysis, cli, integrate, kernels
    if not os.path.abspath(fdprof.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported fdprof from {fdprof.__file__}, not {SRC}")
    return fdprof, {"cli": cli, "integrate": integrate, "kernels": kernels,
                    "analysis": analysis}


def git_commit():
    """HEAD of the checkout's .git, read directly; None outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


STAMP = ("backend", "numpy", "python", "nproc", "cpu", "commit")


def stamp(fdprof, args):
    import numpy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace,
            "backend": "numba" if fdprof.NUMBA_ENABLED else "interpreter",
            "numpy": numpy.__version__, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu_model(), "commit": git_commit()}


def measure_setup(work):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], cwd=work,
                          env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def checked(wl, cmd, rc, text):
    try:
        return wl.check(cmd, rc, text)
    except Exception as e:  # a missing or malformed output file
        return [Outcome(cmd.id, f"output check raised {e!r}", wrong=True)]


def run_census(wl, cli):
    """Run each of the workload's known-failing inputs once, untimed."""
    outcomes = []
    for cmd in wl.census():
        rc, text, _ = wl.execute(cli, cmd)
        outcomes += checked(wl, cmd, rc, text)
    return outcomes


def run_loop(wl, modules, seconds, tracer=None, between=None):
    """Issue commands until `seconds` have passed and a round of the workload
    is complete (traced: and the count window is full).  `between(elapsed_s)`
    is called before each command, off the clock.  Returns a list of records,
    one per executed command."""
    cli = modules["cli"]
    records = []
    commands = wl.commands()
    start = time.perf_counter()
    deadline = start + seconds
    traced = 0
    cmd = None
    while (time.perf_counter() < deadline or not (cmd is None or cmd.round_end)
           or (tracer is not None and traced < wl.window)):
        if between is not None:
            between(time.perf_counter() - start)
        cmd = next(commands)
        modes = [False] if tracer is None else [False, True]
        if len(records) % 2:
            modes.reverse()
        for with_trace in modes:
            if with_trace:
                tracer.install(modules)
            try:
                rc, text, ns = wl.execute(cli, cmd, tracer if with_trace else None)
            finally:
                if with_trace:
                    tracer.uninstall()
            outcomes = checked(wl, cmd, rc, text)
            walls = wl.op_walls(cmd, ns)
            records.append({"cmd": cmd, "traced": with_trace, "ns": ns,
                            "walls": walls, "outcomes": outcomes})
            traced += len(walls) if with_trace else 0
    return records


def end_to_end(records, setup_s):
    """The BENCHMARK.json end-to-end metrics of an untraced run."""
    walls = [ns / 1e6 for rec in records for _, ns in rec["walls"]]
    busy_s = sum(rec["ns"] for rec in records) / 1e9
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(walls) / busy_s, "1/s"),
        "op_ms_p50": (statistics.median(walls), "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                         "MiB"),
    }, walls


def per_layer(records, tracer, wl):
    """Per-layer metrics of a traced run: times per operation over every
    traced operation, counts over the first `wl.window` of them."""
    by_op, root_ns = tracer.self_times()
    traced = [rec for rec in records if rec["traced"]]
    plain = {rec["cmd"].id: rec["ns"] for rec in records if not rec["traced"]}
    ops = [op for rec in traced for op, _ in rec["walls"]]
    window = ops[:wl.window]
    n = len(ops)
    total = sum(root_ns[op] for op in ops)

    def self_ns(op_ids, pred):
        return sum(ns for op in op_ids for (layer, name), ns in by_op[op].items()
                   if pred(layer, name))

    def per_op_ms(pred):
        return self_ns(ops, pred) / n / 1e6

    def counts(key, op_ids=window):
        return sum(tracer.counts[op][key] for op in op_ids)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {f"{layer}.self_ms": (per_op_ms(lambda l, _, x=layer: l == x), "ms")
           for layer in LAYERS if layer != "profile"}
    out["profile.thin_self_ms"] = (per_op_ms(lambda l, _: l == "profile"), "ms")
    for check in ("residual", "limits", "inequalities", "decay", "shape"):
        out[f"analysis.{check}_self_ms"] = (
            per_op_ms(lambda _, name, c=check: name == f"analysis.{c}"), "ms")
    out["localsolve.share"] = (
        ratio(self_ns(ops, lambda l, _: l == "localsolve"), total), "1")
    calls = counts("localsolve.calls")
    for key in ("grid_nodes", "iterations", "halvings"):
        out[f"localsolve.{key}"] = (ratio(counts(f"localsolve.{key}"), calls),
                                    "count")
    out["profile.keep_ratio"] = (ratio(counts("profile.kept"),
                                       counts("profile.offered")), "1")
    out["kernels.accepted_steps"] = (counts("kernels.accepted_steps") / len(window),
                                     "count")
    out["kernels.us_per_step"] = (
        ratio(self_ns(ops, lambda l, _: l == "kernels") / 1e3,
              counts("kernels.accepted_steps", ops)), "us")
    out["analysis.residual_nodes"] = (counts("analysis.residual_nodes")
                                      / len(window), "count")
    win = set(window)
    probes = [s for s in tracer.spans if s[3] == "integrate.probe" and s[2] in win]
    out["analysis.probes"] = (len(probes) / len(window), "count")
    out["analysis.vanishing_probe_frac"] = (
        ratio(sum(s[7] == "ContinuationFailed" for s in probes), len(probes)), "1")
    out["cli.rows_read"] = (counts("cli.rows_read") / len(window), "count")
    out["cli.bytes_written"] = (counts("cli.bytes_written") / len(window), "B")
    cmd_ns = sum(rec["ns"] for rec in traced)
    workers = getattr(wl, "WORKERS", 0)
    out["cli.sweep_busy_frac"] = (ratio(total, cmd_ns * workers), "1")
    out["trace.op_ms"] = (total / n / 1e6, "ms")
    out["trace.overhead_frac"] = (
        cmd_ns / sum(plain[rec["cmd"].id] for rec in traced) - 1.0, "1")
    return out


def run(args):
    fdprof, modules = import_fdprof()
    cli = modules["cli"]
    info = stamp(fdprof, args)
    os.makedirs(OUT, exist_ok=True)
    setup = info["setup_samples_s"] = []

    def sample_setup(elapsed):
        # catch up to SETUP_REPEATS evenly spaced samples over the run
        while len(setup) < min(SETUP_REPEATS,
                               1 + elapsed * SETUP_REPEATS / args.seconds):
            setup.append(measure_setup(work))

    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
        wl = WORKLOADS[args.workload](random.Random(args.seed), work)
        warmup = Command("warmup", ["solve-origin", "--n", "4", "--m", repr(1 / 3),
                                    "--beta", "0.0", "--out", work], {}, None)
        Workload.execute(wl, cli, warmup)
        census = run_census(wl, cli)
        tracer = Tracer() if args.trace else None
        records = run_loop(wl, modules, args.seconds, tracer,
                           None if args.trace else sample_setup)
        if not args.trace:
            sample_setup(args.seconds)
    outcomes = [o for rec in records for o in rec["outcomes"]]
    failures = [o for o in outcomes if o.reason is not None]
    correct = not any(o.wrong or (o.reason is not None and not o.known)
                      for o in outcomes + census)
    if args.trace:
        metrics = per_layer(records, tracer, wl)
    else:
        metrics, walls = end_to_end(records, statistics.median(setup))

    print(f"fdprof benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("stamp: " + " ".join(f"{k}={info[k]}" for k in STAMP))
    print(f"operations: attempted={len(outcomes)} failed={len(failures)} "
          f"(known {sum(o.known for o in failures)}) "
          f"failed_frac={len(failures) / len(outcomes):.4f} correct={correct}")
    reasons = {}
    for o in failures:
        key = (o.reason.split(":")[0] if o.known else o.reason,
               "known" if o.known else ("WRONG" if o.wrong else "unexpected"))
        reasons[key] = reasons.get(key, 0) + 1
    for (reason, kind), count in sorted(reasons.items()):
        print(f"  failed {count}x [{kind}] {reason}")
    if census:
        still = sum(o.reason is not None and o.known for o in census)
        print(f"census (inputs known to fail, run untimed): {len(census)} "
              f"operations, {still} failed as known, "
              f"{sum(o.reason is None for o in census)} passed")
        for o in census:
            if o.reason is not None and (o.wrong or not o.known):
                print(f"  census {o.op} [{'WRONG' if o.wrong else 'unexpected'}] "
                      f"{o.reason}")
    if not args.trace:
        print(f"  op_ms_p50 over {len(walls)} operations")
        if len(walls) >= 100:
            p90 = statistics.quantiles(walls, n=10)[8]
            print(f"  op_ms_p90 {p90!r} ms ({len(walls)} operations)")
        else:
            print(f"  op_ms_p90 not reported: {len(walls)} operations < 100")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")

    named = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"stamp": info, "correct": correct, "metrics": named,
                   "operations": [
                       {"op": op, "ms": ns / 1e6, "command": rec["cmd"].id,
                        "traced": rec["traced"], "inputs": rec["cmd"].info}
                       for rec in records for op, ns in rec["walls"]],
                   "outcomes": [o.__dict__ for o in outcomes],
                   "census": [o.__dict__ for o in census],
                   "spans": tracer.dump() if tracer else []}, fh)
        fh.write("\n")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": len(failures), "metrics": named}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    run(ap.parse_args(argv))


if __name__ == "__main__":
    main()
