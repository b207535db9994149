#!/usr/bin/env python3
"""Summarise and compare pipebench runs.

    python3 pipebench/compare.py RESULTS_DIR [BASELINE_DIR]

Reads the untraced `*.report.json` files the benchmark writes to its results
directory (.bench_build/results by default). For each workload and
end-to-end metric it prints the median and the quartile spread
((Q3 - Q1) / median, Python's statistics.quantiles(n=4)) over the runs. With
a baseline directory it also prints the ratio of medians, and it refuses to
compare (exit 2) a workload whose runs do not share one model fingerprint:
a different model under the same benchmark name would otherwise pass for a
performance change.
"""
import glob
import json
import os
import statistics
import sys


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.report.json"))):
        if path.endswith(".traced.report.json"):
            continue
        with open(path) as f:
            report = json.load(f)
        runs.setdefault(report["workload"], []).append(report)
    return runs


def fingerprints(reports):
    return {r["pins"]["model_fingerprint"] for r in reports}


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    current = load(argv[1])
    baseline = load(argv[2]) if len(argv) == 3 else {}
    status = 0
    for workload, reports in sorted(current.items()):
        fps = fingerprints(reports) | fingerprints(baseline.get(workload, []))
        if len(fps) != 1:
            print(f"{workload}: model fingerprints differ ({', '.join(sorted(fps))}); "
                  "refusing to compare", file=sys.stderr)
            status = 2
            continue
        bad = sum(r["oracle"]["failed"] for r in reports)
        print(f"{workload}: {len(reports)} runs, model {fps.pop()}, oracle mismatches {bad}")
        names = list(reports[0]["metrics"])
        for name in names:
            values = [r["metrics"][name]["value"] for r in reports if name in r["metrics"]]
            unit = reports[0]["metrics"][name]["unit"]
            med, iqr = spread(values)
            line = f"  {name:24s} median {med:14.6g} {unit:6s} spread {iqr:6.3f}"
            base = [r["metrics"][name]["value"] for r in baseline.get(workload, [])
                    if name in r["metrics"]]
            if base and statistics.median(base) != 0:
                line += f"  vs baseline x{med / statistics.median(base):.3f}"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
