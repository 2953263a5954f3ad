#!/usr/bin/env python3
"""Compare perfbench run artifacts of two builds, metric by metric.

    python3 perfbench/compare.py --base A/*.json --cand B/*.json

Artifacts (written by run.py) are grouped by workload and trace mode.
For each metric it prints both medians, their quartiles and the change.
A change no larger than the wider of the two sides' spread (q3 - q1) is
marked "noise". With several artifacts per side (one per seed) the
spread is across them; with one, it is the spread of the run's own
repeats. Where BENCHMARK.json (in the working directory) lists the
metric, the change is also judged against its bound.
"""

import argparse
import json
import statistics
import sys


def load(paths):
    groups = {}
    for path in paths:
        with open(path) as fp:
            art = json.load(fp)
        groups.setdefault((art["workload"], art["trace"]), []).append(art)
    return groups


def summary(arts, name):
    """(q1, median, q3) of a metric on one side, or None."""
    ms = [a["metrics"][name] for a in arts if name in a["metrics"]]
    if not ms:
        return None
    if len(ms) == 1:
        m = ms[0]
        if "q1" in m:
            return m["q1"], m["value"], m["q3"]
        return m["value"], m["value"], m["value"]
    vals = [m["value"] for m in ms]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def bounds():
    try:
        with open("BENCHMARK.json") as fp:
            bench = json.load(fp)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m for m in bench.get("end_to_end", []) +
            bench.get("per_layer", [])}


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--cand", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, cand = load(args.base), load(args.cand)
    spec = bounds()
    for key in sorted(set(base) & set(cand)):
        print("== %s (trace %d): %d base, %d candidate artifacts" %
              (key[0], key[1], len(base[key]), len(cand[key])))
        names = sorted(set(base[key][0]["metrics"]) &
                       set(cand[key][0]["metrics"]))
        for name in names:
            b, c = summary(base[key], name), summary(cand[key], name)
            if b is None or c is None:
                continue
            delta = c[1] - b[1]
            rel = delta / b[1] if b[1] else 0.0
            noise = abs(delta) <= max(b[2] - b[0], c[2] - c[0])
            note = "noise" if noise else ""
            m = spec.get(name)
            if m and not noise:
                worse = delta > 0 if m["better"] == "lower" else delta < 0
                note = "worse" if worse else "better"
                if worse and "bound" in m and abs(rel) > m["bound"]:
                    note = "REGRESSION (bound %g)" % m["bound"]
            print("  %-30s %12.4g -> %12.4g  %+7.1f%%  [%.4g..%.4g | "
                  "%.4g..%.4g]  %s" % (name, b[1], c[1], 100 * rel, b[0],
                                       b[2], c[0], c[2], note))
    missing = set(base) ^ set(cand)
    for key in sorted(missing):
        print("== %s (trace %d): only on one side" % key)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
