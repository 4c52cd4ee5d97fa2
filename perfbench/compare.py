#!/usr/bin/env python3
"""Compare benchmark runs against the bounds in BENCHMARK.json.

Two commands, both run from the root of a checkout:

  python3 perfbench/compare.py ab BASE_DIR HEAD_DIR [--pairs 10]
      Runs each workload in two checkouts (say, a parent commit and a
      change) as alternating pairs, each pair on one fresh seed, and
      reports per workload and end-to-end metric: each side's median and
      quartiles, how many pairs the head won, and a verdict. "regression"
      means the head's median is worse than the base's by more than the
      metric's bound; "gain" needs the head to win at least nine tenths of
      the pairs and the medians to differ by more than the base's own
      spread (distance between its quartiles); "unresolved" means the
      base's spread exceeds the bound. Exits 1 on any regression.

  python3 perfbench/compare.py selfcheck [--seeds 5]
      The seeded-slowdown liveness check, in this checkout: for every
      workload it measures a base set, a second base set and a set with a
      2 ms delay added to every fleet shard dispatch (-slow-shard), with
      fresh seeds throughout, interleaving the three sets run by run. The
      two base sets must agree within every bound, and the slowed set
      must be flagged on fleet-trace's runs_per_s and on no other
      workload. Exits 1 if either fails.

Options: --workloads a,b (default: all), --seconds N (default: the
benchmark's run_seconds).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

# The seeded slowdown of selfcheck: the delay added to every fleet shard
# dispatch.
SLOW = "2ms"
# ab's pair i runs on seed BASE_SEED + i.
BASE_SEED = 100


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, workload, seed, seconds, extra=()):
    """Runs the benchmark once in checkout root and returns its metrics."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", *extra]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-4000:])
        raise SystemExit(f"benchmark failed in {root}: {workload} seed {seed}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit(f"incorrect outputs in {root}: {workload} seed {seed}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def worse_by(base, head, better):
    """How much worse head's median is than base's, as a share of base's."""
    b, h = statistics.median(base), statistics.median(head)
    return (h - b) / b if better == "lower" else (b - h) / b


def flagged(base, head, metric):
    return worse_by(base, head, metric["better"]) > metric["bound"]


def column(runs, name):
    return [r[name] for r in runs]


def cmd_ab(args, spec):
    seconds = args.seconds or spec["run_seconds"]
    regressions = 0
    for w in args.workloads:
        base, head = [], []
        for i in range(args.pairs):
            seed = BASE_SEED + i
            order = [(args.base, base), (args.head, head)]
            if i % 2:
                order.reverse()
            for root, acc in order:
                acc.append(run_once(root, w, seed, seconds))
        print(f"{w}: {args.pairs} alternating pairs, {seconds}s runs")
        for m in spec["end_to_end"]:
            n = m["name"]
            b, h = column(base, n), column(head, n)
            bq, hq = quartiles(b), quartiles(h)
            wins = sum((y < x) if m["better"] == "lower" else (y > x) for x, y in zip(b, h))
            spread = (bq[2] - bq[0]) / bq[1]
            change = -worse_by(b, h, m["better"])
            if flagged(b, h, m):
                verdict = "regression"
                regressions += 1
            elif spread > m["bound"]:
                verdict = "unresolved"
            elif wins >= 0.9 * args.pairs and abs(hq[1] - bq[1]) > bq[2] - bq[0]:
                verdict = "gain"
            else:
                verdict = "unchanged"
            print(f"  {n:22s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  head {hq[1]:.6g} "
                  f"[{hq[0]:.6g}, {hq[2]:.6g}]  better by {100 * change:+.1f}%  "
                  f"head won {wins}/{args.pairs}  {verdict}")
    return 1 if regressions else 0


def cmd_selfcheck(args, spec):
    root = os.getcwd()
    seconds = args.seconds or spec["run_seconds"]
    slow = ("--slow-shard", SLOW)
    ok = True
    for w in args.workloads:
        # The three sets interleave, each round in a rotated order, so a
        # shift in the host's speed lands on all three alike.
        sets = [(1000, (), []), (2000, (), []), (3000, slow, [])]
        for i in range(args.seeds):
            for first, extra, acc in sets[i % 3:] + sets[:i % 3]:
                acc.append(run_once(root, w, first + i, seconds, extra))
        base, again, slowed = (acc for _, _, acc in sets)
        for m in spec["end_to_end"]:
            n = m["name"]
            noise = flagged(column(base, n), column(again, n), m)
            hit = flagged(column(base, n), column(slowed, n), m)
            want_hit = w == "fleet-trace" and n == "runs_per_s"
            bad = noise or (hit and w != "fleet-trace") or (want_hit and not hit)
            ok = ok and not bad
            print(f"{w:13s} {n:22s} base-vs-base worse by "
                  f"{100 * worse_by(column(base, n), column(again, n), m['better']):+6.1f}% "
                  f"{'FLAGGED' if noise else 'ok':8s} base-vs-slowed worse by "
                  f"{100 * worse_by(column(base, n), column(slowed, n), m['better']):+6.1f}% "
                  f"{'FLAGGED' if hit else 'ok':8s}{'  <- unexpected' if bad else ''}")
    print("selfcheck", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    spec = load_spec(os.getcwd())
    all_workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    ab = sub.add_parser("ab")
    ab.add_argument("base")
    ab.add_argument("head")
    ab.add_argument("--pairs", type=int, default=10)
    sc = sub.add_parser("selfcheck")
    sc.add_argument("--seeds", type=int, default=5)
    for s in (ab, sc):
        s.add_argument("--workloads", default=",".join(all_workloads))
        s.add_argument("--seconds", type=int, default=0)
    args = p.parse_args()
    args.workloads = args.workloads.split(",")
    return cmd_ab(args, spec) if args.cmd == "ab" else cmd_selfcheck(args, spec)


if __name__ == "__main__":
    sys.exit(main())
