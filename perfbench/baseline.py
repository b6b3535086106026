"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/baseline.py [--workloads solve,verify] [--seeds 1-10] \
        [--seconds 30] [--trace 1] [--save perfbench/results/NAME.json]

Workloads and seconds default to those in BENCHMARK.json.  Each (workload,
seed) is one fresh `run.py` process, run in sequence.  For
every metric the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median are printed; --save writes them, with every run's
result line and stamp, as a results file.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = os.path.join(HERE, "out",
                          f"{workload}-seed{seed}-trace{trace}.json")
    with open(record, encoding="utf-8") as fh:
        result["stamp"] = json.load(fh)["stamp"]
    return result


def summarise(runs):
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (med, med, med))
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0}
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--save", help="write the results file here")
    args = ap.parse_args()

    results = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            r = run_once(workload, seed, args.seconds, args.trace)
            runs.append(r)
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                  flush=True)
        summary = summarise(runs)
        for name, s in summary.items():
            print(f"  {workload:12s} {name:32s} median {s['median']:.6g} {s['unit']}"
                  f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}",
                  flush=True)
        results[workload] = {"summary": summary, "runs": runs}

    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump({"seconds": args.seconds, "trace": args.trace,
                       "seeds": args.seeds, "workloads": results}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
