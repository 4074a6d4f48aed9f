"""Summarize result records written by run.py, one row per workload and metric.

    python3 perfbench/compare.py perfbench/out/*-trace0.json

For each workload: the number of runs, the median and quartiles of each
end-to-end metric, and the spread (third minus first quartile, as a share
of the median) that BENCHMARK.json's bounds are judged against.  Records
whose environment differs in kernel backend, Python version or nproc are
never pooled: the script refuses them with exit code 2.
"""

from __future__ import annotations

import json
import statistics
import sys

COMPARABLE = ("kernel_backend", "python", "nproc")


def main(paths) -> int:
    groups: dict = {}
    for path in paths:
        with open(path) as fh:
            rec = json.load(fh)
        env = rec["env"]
        groups.setdefault((env["workload"], env["trace"]), []).append(rec)
    for (workload, trace), recs in sorted(groups.items()):
        envs = {tuple(r["env"][k] for k in COMPARABLE) for r in recs}
        if len(envs) > 1:
            print("%s: records from different environments %s; not comparing"
                  % (workload, sorted(envs)), file=sys.stderr)
            return 2
        failed = sum(r["failed"] for r in recs)
        attempted = sum(r["attempted"] for r in recs)
        print("%s (trace %d): %d runs, %d of %d operations failed, env %s"
              % (workload, trace, len(recs), failed, attempted,
                 dict(zip(COMPARABLE, envs.pop()))))
        values = recs[0]["layers"] if trace else recs[0]["end_to_end"]
        for name in sorted(values):
            vals = [(r["layers"] if trace else r["end_to_end"])[name] for r in recs]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            print("  %-30s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f"
                  % (name, med, q1, q3, spread))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
