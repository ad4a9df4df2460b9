"""Run every workload over several seeds and print each metric with its spread.

    python3 perfbench/report.py                        # seeds 1-3, timed runs
    python3 perfbench/report.py --seeds 1-10 --trace 1 --workloads exact-pure

Run from the root of a checkout. For each workload and metric it prints the
median over the seeds and the spread: the distance between the first and
third quartile as a share of the median (blank with fewer than four
seeds). It exits non-zero when any run fails or any check fails.

Each ``compare`` run is gated at 4 stderr; across seeds the report also
counts the runs where some team's simulated mean is more than 3 stderr
from its DP value and fails when that many misses are unlikely (p < 0.001)
for an unbiased simulator, so a systematic bias below the per-run gate
still shows.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COMPARE = "compare:reference"
MISS_P = 1e-3             # the 3-stderr miss count fails below this tail probability


def _seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values):
    """Interquartile distance as a share of the median (None below 4 values)."""
    if len(values) < 4:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def miss_tail(misses, runs, teams):
    """Probability that an unbiased simulator misses 3 stderr on at least
    ``misses`` of ``runs`` runs, each with ``teams`` independent teams."""
    p = 1.0 - (1.0 - math.erfc(3.0 / math.sqrt(2.0))) ** teams
    return sum(math.comb(runs, k) * p ** k * (1.0 - p) ** (runs - k)
               for k in range(misses, runs + 1))


def main(argv=None):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=_seeds, default=[1, 2, 3])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values, attempted, failed = {}, 0, 0
        compares = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print("%s seed %d: run exited with %d" % (workload, seed, proc.returncode))
                ok = False
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            info = json.loads(lines[-2])["info"]
            for err in info["errors"]:
                print("%s seed %d: FAILED %s" % (workload, seed, err))
            if COMPARE in info["checks"]:
                compares.append(info["checks"][COMPARE])
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        ok = ok and failed == 0 and bool(values)
        print("%s: %d operations attempted, %d failed" % (workload, attempted, failed))
        if compares:
            misses = sum(not c["all_within_3_stderr"] for c in compares)
            tail = miss_tail(misses, len(compares), len(compares[0]["abs_diff_over_stderr"]))
            print("  compare: %d of %d runs outside 3 stderr (p = %.3g under no bias)"
                  % (misses, len(compares), tail))
            if tail < MISS_P:
                print("  FAILED compare: too many 3-stderr misses for an unbiased simulator")
                ok = False
        for name, (unit, vals) in values.items():
            s = spread(vals)
            bound = bounds.get(name)
            print("  %-40s %12.6g %-6s spread %-7s bound %s"
                  % (name, statistics.median(vals), unit,
                     "-" if s is None else "%.3f" % s, "-" if bound is None else bound))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
