#!/usr/bin/env python3
"""Collect benchmark result sets and compare two of them (standard library only).

    # run seeds 1..10 of a workload and append the results to a set
    python3 perfbench/compare.py collect --workload point_lookup --seeds 1-10 --out base.jsonl
    # spread of each metric within one set, against a third of its bound
    python3 perfbench/compare.py spread base.jsonl
    # old set against new set: medians, quartiles and a verdict per metric
    python3 perfbench/compare.py diff base.jsonl new.jsonl

A set is a JSON-lines file, one line per run: {"workload", "seed",
"trace", "result"}, where result is the last line the benchmark printed.
Bounds and directions come from BENCHMARK.json at the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = m
    for m in spec["per_layer"]:
        metrics[m["name"]] = dict(m, bound=None)
    return spec, metrics


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    spec, _ = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    for seed in parse_seeds(args.seeds):
        cmd = ["python3", os.path.join("perfbench", "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        ran = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = ran.stdout.strip().splitlines()
        if ran.returncode != 0 or not lines:
            sys.stderr.write("seed %d: exit %d\n%s\n" % (seed, ran.returncode, ran.stdout))
            return 1
        result = json.loads(lines[-1])
        with open(args.out, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": seed, "trace": args.trace,
                                "result": result}) + "\n")
        sys.stderr.write("seed %d done\n" % seed)
    return 0


def load_set(path):
    """workload -> metric -> list of values, in file order."""
    out = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            row = json.loads(line)
            per = out.setdefault(row["workload"], {})
            if not row["result"]["correct"]:
                per.setdefault("(incorrect runs)", []).append(row["seed"])
            for name, m in row["result"]["metrics"].items():
                per.setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread_of(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def spread(args):
    _, metrics = load_spec()
    bad = 0
    for workload, per in sorted(load_set(args.set).items()):
        print(workload)
        for name, values in sorted(per.items()):
            if name.startswith("("):
                print("  INCORRECT seeds %s" % values)
                bad += 1
                continue
            bound = metrics.get(name, {}).get("bound")
            s = spread_of(values)
            verdict = ""
            if bound is not None:
                verdict = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
                if name != "setup_s" and s > bound:
                    bad += 1
            print("  %-34s n=%-3d median %-14.6g spread %6.2f%%  bound %-6s %s" % (
                name, len(values), quartiles(values)[1], 100 * s,
                "-" if bound is None else "%g" % bound, verdict))
    return 1 if bad else 0


def diff(args):
    _, metrics = load_spec()
    old, new = load_set(args.old), load_set(args.new)
    worse = 0
    print("%-14s %-32s %14s %14s %8s %8s  %s" % ("workload", "metric", "old median", "new median",
                                                 "change", "spread", "verdict"))
    for workload in sorted(set(old) | set(new)):
        for name in sorted(set(old.get(workload, {})) | set(new.get(workload, {}))):
            a, b = old.get(workload, {}).get(name), new.get(workload, {}).get(name)
            if name.startswith("(") or not a or not b:
                print("%-14s %-32s %s" % (workload, name, "missing or incorrect on one side"))
                worse += 1
                continue
            spec = metrics.get(name, {})
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            sign = -1 if spec.get("better") == "lower" else 1
            gain = sign * change  # > 0 means better
            noise = spread_of(a)
            bound = spec.get("bound")
            if bound is None:
                verdict = "-"
            elif gain < -bound:
                verdict = "WORSE"
                worse += 1
            elif noise > bound and not (min(b) > max(a) if sign > 0 else max(b) < min(a)):
                verdict = "unresolved"
            elif gain > noise and (change != 0):
                verdict = "better"
            else:
                verdict = "same"
            print("%-14s %-32s %14.6g %14.6g %+7.2f%% %7.2f%%  %s   [%.6g..%.6g] -> [%.6g..%.6g]" % (
                workload, name, qa[1], qb[1], 100 * change, 100 * noise, verdict,
                qa[0], qa[2], qb[0], qb[2]))
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--trace", type=int, default=0)
    c.add_argument("--seconds", type=float, default=0)
    s = sub.add_parser("spread")
    s.add_argument("set")
    d = sub.add_parser("diff")
    d.add_argument("old")
    d.add_argument("new")
    args = ap.parse_args()
    return {"collect": collect, "spread": spread, "diff": diff}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
