#!/usr/bin/env python3
"""Compare two result sets of the repo benchmark, one row per (metric, workload).

    python3 perfbench/diff.py OLD_DIR NEW_DIR

Each directory holds one file per run, named <workload>.<seed>.json or
<workload>.<seed>.<anything>.json, whose last line is the JSON the
benchmark printed (redirect a run's stdout there).  End-to-end metrics,
the hardware-quality hw_* ones included, take their bound and direction
from BENCHMARK.json:

  regressed   the new median is worse than the old by more than the bound
  improved    better by more than the bound, with every new run better
              than every old run
  unresolved  the old runs' own spread (IQR / median) exceeds the bound, so
              "unchanged" cannot be told from noise
  unchanged   otherwise

Per-layer metrics have no bound; they print as old/new medians, and a
deterministic one (see DETERMINISTIC) whose value changed between the two
sets is marked "changed", as information: a change may make it better.

Within one set, runs of the same workload and seed are runs of the same
code on the same inputs, so their deterministic values must be equal; any
difference is flagged.  The exit code is 1 when anything regressed, a
deterministic value differs within a set, or a run is not correct.
"""
import json
import os
import statistics
import sys

DETERMINISTIC = {
    "hw_cycles_geomean", "hw_area_geomean", "hw_period_geomean",
    "sim.cycles", "ir.instrs_out", "sched.list_ops", "sched.dep_edges",
    "sched.modulo_fallbacks", "sched.ii_geomean", "rtl.states",
    "rtl.netlist_nodes", "front.dialect_rejects", "front.interp_calls",
    "front.interp_useful_ratio", "cache.front_hit_rate", "cache.store_hits",
    "cache.store_puts", "cache.store_bytes",
}


def seed_of(fname):
    parts = fname.split(".")
    return parts[1] if len(parts) > 2 else None


def unequal_within(label, workload, files):
    """Deterministic metrics that differ between same-seed runs of a set."""
    found = False
    by_seed = {}
    for fname, r in files.items():
        by_seed.setdefault(seed_of(fname), []).append((fname, r))
    for seed, runs in by_seed.items():
        if seed is None or len(runs) < 2:
            continue
        for name in sorted(DETERMINISTIC):
            values = {f: r["metrics"][name]["value"] for f, r in runs
                      if name in r["metrics"]}
            if len(set(values.values())) > 1:
                found = True
                print(f"  DETERMINISTIC VALUE DIFFERS in {label} set, "
                      f"{workload} seed {seed}, {name}: {values}")
    return found


def load(directory):
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        workload = name.split(".")[0]
        with open(os.path.join(directory, name)) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        result = json.loads(lines[-1])
        runs.setdefault(workload, {})[name] = result
    return runs


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def verdict(old, new, bound, better):
    om, nm = statistics.median(old), statistics.median(new)
    sign = 1 if better == "lower" else -1
    worse = sign * (nm - om) / abs(om) if om else 0.0
    if worse > bound:
        return "regressed", worse
    if spread(old) > bound or spread(new) > bound:
        beats = all(sign * (n - o) < 0 for n in new for o in old)
        return ("improved" if beats else "unresolved"), worse
    if -worse > bound and all(sign * (n - o) < 0 for n in new for o in old):
        return "improved", worse
    return "unchanged", worse


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    old, new = load(argv[1]), load(argv[2])
    failed = False
    print(f"{'metric':32s} {'workload':14s} {'old':>14s} {'new':>14s} "
          f"{'worse':>8s}  verdict")
    for workload in sorted(set(old) & set(new)):
        names = []
        for runs in (old[workload], new[workload]):
            for r in runs.values():
                names += [k for k in r["metrics"] if k not in names]
        for name in names:
            ov = [r["metrics"][name]["value"] for r in old[workload].values()
                  if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in new[workload].values()
                  if name in r["metrics"]]
            if not ov or not nv:
                continue
            om, nm = statistics.median(ov), statistics.median(nv)
            if name in bounds:
                v, worse = verdict(ov, nv, bounds[name]["bound"],
                                   bounds[name]["better"])
                failed |= v == "regressed"
                print(f"{name:32s} {workload:14s} {om:14.6g} {nm:14.6g} "
                      f"{100 * worse:7.1f}%  {v}")
            else:
                note = "  changed" if name in DETERMINISTIC and om != nm else ""
                print(f"{name:32s} {workload:14s} {om:14.6g} {nm:14.6g}{note}")
    for label, runs in (("old", old), ("new", new)):
        for workload, files in runs.items():
            failed |= unequal_within(label, workload, files)
            for fname, r in files.items():
                if not r["correct"]:
                    failed = True
                    print(f"  {label} run {fname} is not correct "
                          f"({r['failed']} of {r['attempted']} failed)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
