#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py

Runs BENCHMARK.json's command once per seed 1-10 on each of its workloads
(trace off), from the root of the source tree, and prints for every
end-to-end metric the median and the quartile spread (q3 - q1) / median
beside the metric's bound. A spread above a third of the bound is flagged,
except that of setup_s (see perfbench/README.md, "Run-to-run spread"), and
a run that fails its gate is listed and left out of the spreads.
"""

import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def main():
    bench = json.load(open("BENCHMARK.json"))
    flagged = 0
    failed = []
    for w in bench["workloads"]:
        runs = []
        for s in SEEDS:
            cmd = bench["command"] + ["--workload", w["name"], "--seed", str(s),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            if p.returncode != 0:
                failed.append((w["name"], s, (p.stderr.strip().splitlines() or ["no output"])[-1]))
                continue
            runs.append(json.loads(p.stdout.strip().splitlines()[-1]))
        print("== %s (%d seeds passed)" % (w["name"], len(runs)), flush=True)
        if len(runs) < 2:
            continue
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bad = m["name"] != "setup_s" and spread > m["bound"] / 3
            flagged += bad
            print("  %-22s median %-14.6g spread %6.3f  bound %.2f%s"
                  % (m["name"], med, spread, m["bound"], "  <-- above bound/3" if bad else ""),
                  flush=True)
    for f in failed:
        print("FAILED %s seed %d: %s" % f)
    return 1 if flagged or failed else 0


if __name__ == "__main__":
    sys.exit(main())
