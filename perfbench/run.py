"""Benchmark of the qca engine: three workloads, end-to-end and per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload finite_verify --seed 0 --seconds 30 --trace 0

The program under test is the qca package in ./src of the same checkout;
nothing is installed.  One process runs one workload with no extra threads.
After one set-up and one untimed warm-up round, rounds of identical work
run for --seconds: one run_suite call, one 11-step chain, or one pass of
400 CLI requests against a fresh cache.  SETUPS_PER_ROUND more set-ups
follow each round.  Every output is checked against the digests recorded
in perfbench/data.

Other tenants of a shared machine slow a whole process by up to a third
for seconds to minutes, which moved raw medians by 10-20 % between runs.
So calibrate() times a fixed pure-Python loop before the first set-up,
before the first round, at the checkpoints a workload marks inside a round
(cli_cache: every 100 requests) and after every round.  Each operation's
latency is divided by its slowdown (the mean of the two calibrations
around it, over CALIB_NOMINAL_S); each set-up is scaled by the
calibration taken just before it.  The end-to-end metrics are medians over
the run's rounds of these calibrated figures; the raw ones stay in the
record.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 is a
separate run that alternates untraced and traced rounds and prints the
per-layer metrics: counts from the first traced set-up plus the first
traced round, raw times from the quickest traced set-up plus the quickest
traced round.  The last line of stdout is the result as one JSON object; a
fuller record (environment, sample counts, raw and calibrated figures,
every layer metric) and, when traced, all spans are written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
from statistics import median
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUPS_PER_ROUND = 2
# calibrate() on an undisturbed core of the machine the baseline was taken on
CALIB_NOMINAL_S = 0.015


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("finite_verify", "affine_chain", "cli_cache"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_qca():
    """Import qca from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "qca", "__init__.py")):
        raise SystemExit("perfbench: no qca sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import qca

    if not os.path.abspath(qca.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported qca from %s, not %s" % (qca.__file__, SRC))
    return qca


def environment(qca, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """What a result depends on besides the workload; results are only
    comparable when kernel_backend, python and nproc agree."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "qca")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx")):
                path = os.path.join(dirpath, name)
                src_hash.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    src_hash.update(fh.read())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "kernel_backend": qca.KERNEL_BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
    }


def p90(xs):
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result record (see main)."""
    import workloads
    from spans import Tracer

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    tracer = Tracer() if trace else None
    try:
        wl = workloads.WORKLOADS[workload](seed, workloads.load_digests(), workdir)
        setup_s = []  # (seconds, the calibration taken just before)
        last = [calibrate()]  # the latest calibration

        def setup():
            if tracer:
                tracer.install()
            try:
                t0 = time.perf_counter()
                st = wl.setup(tracer, "setup%d" % len(setup_s))
                setup_s.append((time.perf_counter() - t0, last[0]))
            finally:
                if tracer:
                    tracer.uninstall()
            return st

        state = setup()
        # an untimed warm-up round first, so no timed round pays for
        # first-call costs; its outputs are checked like all others
        warmup, _ = wl.run_round(state, None, "warmup", lambda: None)
        rounds = []  # (traced, ops, extra, calibrations)
        last[0] = calibrate()
        t_start = time.perf_counter()
        while True:
            traced = bool(tracer) and len(rounds) % 2 == 1
            group = "round%d" % len(rounds)
            points = [last[0]]
            if traced:
                tracer.install()
            try:
                ops, extra = wl.run_round(state, tracer if traced else None, group,
                                          lambda: points.append(calibrate()))
            finally:
                if traced:
                    tracer.uninstall()
            last[0] = calibrate()
            points.append(last[0])
            rounds.append((traced, ops, extra, points))
            # more set-ups between rounds, so their median samples the
            # machine over the whole run rather than one moment of it
            for _ in range(SETUPS_PER_ROUND):
                spare = setup()
                if "root" in spare:
                    shutil.rmtree(spare["root"])
            done = time.perf_counter() - t_start >= seconds
            if done and (not tracer or len(rounds) >= 2):
                break
        sizes = wl.sizes(state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_ops = warmup + [op for r in rounds for op in r[1]]
    failures = [op.failure for op in all_ops if op.failure]
    plain = [round_stats(ops, points) for traced, ops, _, points in rounds if not traced]
    record = {
        "attempted": len(all_ops),
        "failed": len(failures),
        "first_failures": failures[:5],
        "sizes": sizes,
        "samples": {"setups": len(setup_s), "rounds": len(rounds),
                    "untraced_rounds": len(plain), "ops_per_round": plain[0]["ops"]},
        "digests": sorted({op.digest for op in all_ops if op.digest}),
        "end_to_end": {
            "setup_s": median([t * CALIB_NOMINAL_S / c for t, c in setup_s]),
            "op_p50_ms": median([r["p50_cal_s"] for r in plain]) * 1e3,
            "op_p90_ms": median([r["p90_cal_s"] for r in plain]) * 1e3,
            "ops_per_s": median([r["ops_per_s_cal"] for r in plain]),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "error_rate": len(failures) / len(all_ops),
        },
        "uncalibrated_median": {
            "p50_s": median([r["p50_s"] for r in plain]),
            "p90_s": median([r["p90_s"] for r in plain]),
            "ops_per_s": median([r["ops_per_s"] for r in plain]),
            "setup_s": median([t for t, _ in setup_s])},
        "untraced_rounds": plain,
        "rounds_extra": [r[2] for r in rounds],
    }
    if tracer:
        record["layers"], record["reference"] = layer_metrics(
            workload, tracer, rounds, setup_s)
        record["tracer"] = tracer
    return record


def calibrate() -> float:
    """Median seconds of three runs of a fixed pure-Python loop: dict
    updates on tuple keys and integer arithmetic, the kind of work qca does.
    It shares the machine with the rounds next to it, so its time over
    CALIB_NOMINAL_S measures how much other tenants slow this process down
    at that moment.  The median ignores a burst that hits one run."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        d: dict = {}
        for i in range(60000):
            k = (i % 977, i % 13)
            d[k] = d.get(k, 0) + i * i
        times.append(time.perf_counter() - t0)
    return median(times)


def round_stats(ops, points) -> dict:
    """Raw and calibrated figures of one round.  points are the calibrations
    taken before the round, at each checkpoint and after it; an operation in
    segment k is scaled by the mean of points k and k + 1."""
    slow = [(points[op.segment] + points[op.segment + 1]) / (2 * CALIB_NOMINAL_S)
            for op in ops]
    lat = [op.latency for op in ops]
    cal = [t / f for t, f in zip(lat, slow)]
    return {"ops": len(ops), "wall_s": sum(lat), "p50_s": median(lat),
            "p90_s": p90(lat), "ops_per_s": len(ops) / sum(op.loop for op in ops),
            "p50_cal_s": median(cal), "p90_cal_s": p90(cal),
            "ops_per_s_cal": len(ops) / sum(op.loop / f for op, f in zip(ops, slow)),
            "calibration_s": points}


def layer_metrics(workload: str, tracer, rounds, setup_s):
    """Per-layer metrics of one set-up plus one round (see the module doc)."""
    table = tracer.layer_times()
    walls = {"round%d" % i: sum(op.latency for op in r[1])
             for i, r in enumerate(rounds) if r[0]}
    first = ["setup0", next(iter(walls))]
    quiet_round = min(walls, key=walls.get)
    quiet = ["setup%d" % min(range(len(setup_s)), key=lambda i: setup_s[i][0]),
             quiet_round]

    def calls(name):
        return sum(table[g][name][0] for g in first if name in table[g])

    def secs(name, field):
        # field 1 = inclusive, 2 = self
        return sum(table[g][name][field] for g in quiet if name in table[g]) / 1e9

    def counter(key):
        vals = [tracer.counters[g].get(key, 0) for g in first]
        return max(vals) if key.startswith("torus.max_") else sum(vals)

    extra = rounds[1][2]  # the first traced round
    hits, misses = extra.get("cli.cache_hits", 0), extra.get("cli.cache_misses", 0)
    plain_wall = min(sum(op.latency for op in r[1]) for r in rounds if not r[0])
    m = {
        "torus.mul_calls": calls("torus.mul"),
        "torus.mul_self_s": secs("torus.mul", 2),
        "torus.mul_term_pairs": counter("torus.mul_term_pairs"),
        "torus.mul_coeff_pairs": counter("torus.mul_coeff_pairs"),
        "torus.qcomm_calls": calls("torus.qcomm"),
        "torus.qcomm_incl_s": secs("torus.qcomm", 1),
        "torus.qcomm_self_s": secs("torus.qcomm", 2),
        "torus.div_calls": calls("torus.div"),
        "torus.div_self_s": secs("torus.div", 2),
        "torus.div_peel_steps": counter("torus.div_peel_steps"),
        "torus.max_terms": counter("torus.max_terms"),
        "torus.max_vwidth": counter("torus.max_vwidth"),
        "torus.max_coeff_bits": counter("torus.max_coeff_bits"),
        "seeds.mutate_calls": calls("seeds.mutate"),
        "seeds.mutate_self_s": secs("seeds.mutate", 2),
        "seeds.exchange_parts_incl_s": secs("seeds.exchange_parts", 1),
        "seeds.mutate_matrices_calls": calls("seeds.mutate_matrices"),
        "seeds.mutate_matrices_s": secs("seeds.mutate_matrices", 2),
        "seeds.check_compatible_calls": calls("seeds.check_compatible"),
        "seeds.check_compatible_s": secs("seeds.check_compatible", 2),
        "seeds.homogeneous_weight_s": secs("seeds.homogeneous_weight", 2),
        "cartan.pair_calls": calls("cartan.pair"),
        "cartan.pair_s": secs("cartan.pair", 2),
        "checks.run_suite_self_s": secs("checks.run_suite", 2),
        "checks.sequences": counter("checks.sequences"),
        "checks.entries": counter("checks.entries"),
        "classical.mutate_calls": calls("classical.mutate"),
        "classical.mutate_s": secs("classical.mutate", 2),
        "classical.compare_s": secs("classical.compare", 2),
        "gls.build_calls": calls("gls.build"),
        "gls.build_s": secs("gls.build", 2),
        "gls.build_incl_s": secs("gls.build", 1),
        "serialize.seed_to_json_s": secs("serialize.seed_to_json", 2),
        "serialize.seed_from_json_s": secs("serialize.seed_from_json", 2),
        "serialize.pretty_dumps_s": secs("serialize.pretty_dumps", 2),
        "serialize.bytes_out": counter("serialize.bytes_out"),
        "cli.main_calls": calls("cli.main"),
        "cli.main_self_s": secs("cli.main", 2),
        "cli.cache_hits": hits,
        "cli.cache_misses": misses,
        "cli.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "trace.overhead_s": walls[quiet_round] - plain_wall,
    }
    return m, reference(workload, tracer, quiet_round, m, walls[quiet_round])


def reference(workload, tracer, group, m, round_wall):
    """The trace's shares next to the figures ROADMAP.md quotes, so a reader
    sees whether they agree (the trace includes the tracing overhead)."""
    with open(os.path.join(HERE, "layers.json")) as fh:
        ref = json.load(fh)["reference"].get(workload, {})
    out = {"roadmap": ref, "traced_round_wall_s": round_wall}
    if workload == "finite_verify":
        out["mutate_matrices_share"] = m["seeds.mutate_matrices_s"] / round_wall
        out["pair_share"] = m["cartan.pair_s"] / round_wall
    elif workload == "affine_chain":
        last = tracer.spans_of(group, "seeds.mutate")[-1]
        n_mul, mul_ns = tracer.descendants_time(last, "torus.mul")
        _, qcomm_ns = tracer.descendants_time(last, "torus.qcomm")
        out["last_step_wall_s"] = (tracer.end[last] - tracer.start[last]) / 1e9
        out["last_step_qcomm_incl_s"] = qcomm_ns / 1e9
        out["last_step_mul_calls"] = n_mul
        out["last_step_mul_incl_s"] = mul_ns / 1e9
    elif workload == "cli_cache":
        out["gls_build_incl_share"] = m["gls.build_incl_s"] / round_wall
        out["cli_main_self_share"] = m["cli.main_self_s"] / round_wall
    return out


def load_benchmark_metrics(trace: bool) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = parse_args(argv)
    qca = import_qca()
    wanted = load_benchmark_metrics(bool(args.trace))
    env = environment(qca, args.workload, args.seed, args.seconds, args.trace)
    print("env " + json.dumps(env, sort_keys=True))
    rec = run(args.workload, args.seed, args.seconds, bool(args.trace))
    values = rec["layers"] if args.trace else rec["end_to_end"]
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    for name, val in sorted(values.items()):
        print("%-30s %s" % (name, val))
    print("attempted %d, failed %d (error_rate %s); samples %s"
          % (rec["attempted"], rec["failed"], rec["end_to_end"]["error_rate"],
             json.dumps(rec["samples"])))
    for f in rec["first_failures"]:
        print("FAILED: %s" % f)
    if args.trace:
        print("reference " + json.dumps(rec["reference"], sort_keys=True))
        rec.pop("tracer").write(os.path.join(OUT, tag + ".spans.csv.gz"))
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump(dict(rec, env=env), fh, indent=1, sort_keys=True)
    result = {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
