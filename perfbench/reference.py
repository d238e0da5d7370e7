#!/usr/bin/env python3
"""Deterministic metrics at a development seed and a held-out seed.

    python3 perfbench/reference.py           # rewrite perfbench/reference.json
    python3 perfbench/reference.py --check   # compare this tree against it

Every benchmark metric that is not a host measurement (time, rate, heap
size, or a share of host time) repeats exactly for a given seed. This
records them, end-to-end and per-layer, for seed 1 (used while developing)
and seed 2 (held out), so a claimed change can be checked on a seed it was
not tuned on. Run from the root of the source tree.
"""

import json
import os
import subprocess
import sys

SEEDS = {"development": 1, "held_out": 2}
HOST_UNITS = {"s", "ns", "1/s", "%", "MB"}
REFERENCE = os.path.join("perfbench", "reference.json")


def deterministic(name, unit):
    return unit not in HOST_UNITS and not name.startswith("layers.")


def measure(bench):
    out = {}
    for w in bench["workloads"]:
        out[w["name"]] = {}
        for label, seed in SEEDS.items():
            metrics = {}
            for trace in ("0", "1"):
                cmd = bench["command"] + ["--workload", w["name"], "--seed", str(seed),
                                          "--seconds", "1", "--trace", trace]
                p = subprocess.run(cmd, capture_output=True, text=True)
                if p.returncode != 0:
                    sys.exit("%s seed %d failed:\n%s" % (w["name"], seed, p.stderr[-2000:]))
                result = json.loads(p.stdout.strip().splitlines()[-1])
                metrics.update({k: v["value"] for k, v in result["metrics"].items()
                                if deterministic(k, v["unit"])})
            out[w["name"]]["%s (seed %d)" % (label, seed)] = metrics
    return out


def main():
    bench = json.load(open("BENCHMARK.json"))
    current = measure(bench)
    if "--check" not in sys.argv[1:]:
        with open(REFERENCE, "w") as f:
            json.dump(current, f, indent=1, sort_keys=True)
            f.write("\n")
        return 0
    recorded = json.load(open(REFERENCE))
    diffs = [(w, s, m, v, current.get(w, {}).get(s, {}).get(m))
             for w, seeds in recorded.items() for s, ms in seeds.items()
             for m, v in ms.items() if current.get(w, {}).get(s, {}).get(m) != v]
    for d in diffs:
        print("%s %s %s: recorded %s, now %s" % d)
    print("%d metric(s) differ from %s" % (len(diffs), REFERENCE))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
