"""Self-tests of the benchmark: determinism, checks and isolation.

    python3 -m pytest perfbench -q

Runs each workload for a single round (plus the warm-up), so the whole
file takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

qca = run.import_qca()
import workloads  # noqa: E402

WORKLOADS = ("finite_verify", "affine_chain", "cli_cache")

with open(os.path.join(HERE, "layers.json")) as _fh:
    LAYERS = json.load(_fh)["layers"]
with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
COUNTS = sorted(k for k, v in LAYERS.items() if v["kind"] in ("count", "ratio"))

_cache: dict = {}


def result(workload, seed=0, trace=True, tag=0):
    """One short run, memoized so tests can share it."""
    key = (workload, seed, trace, tag)
    if key not in _cache:
        _cache[key] = run.run(workload, seed, 0, trace)
        _cache[key].pop("tracer", None)
    return _cache[key]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_counts_and_digests(workload):
    a = result(workload, tag=0)
    b = result(workload, tag=1)
    assert a["failed"] == b["failed"] == 0
    assert {k: a["layers"][k] for k in COUNTS} == {k: b["layers"][k] for k in COUNTS}
    assert a["digests"] == b["digests"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_outputs_agree(workload):
    traced = result(workload)
    plain = result(workload, trace=False)
    assert plain["failed"] == 0
    assert traced["digests"] == plain["digests"]


def test_cli_cache_counts_hits_and_misses_exactly():
    layers = result("cli_cache")["layers"]
    keys = len(workloads.FAMILIES) * workloads.KEYS_PER_FAMILY
    assert (layers["cli.cache_hits"], layers["cli.cache_misses"]) == (
        keys * workloads.REPEATS_PER_KEY, keys)
    assert all(extra == {"cli.cache_hits": 320, "cli.cache_misses": 40}
               for extra in result("cli_cache", trace=False)["rounds_extra"])


def test_another_seed_changes_inputs_not_verdicts():
    ex = {}
    for fam, (rows, word, _) in workloads.FAMILIES.items():
        ex[fam] = tuple(k + 1 for k in workloads.build_seed(rows, word).ex)
    assert workloads.request_mix(0, ex) != workloads.request_mix(1, ex)
    start = workloads.build_seed(workloads.A4, workloads.A4_WORD)
    assert (qca.default_sequences(start, depth=3, rng_seed=0)
            != qca.default_sequences(start, depth=3, rng_seed=1))
    for workload in ("finite_verify", "cli_cache"):
        other = result(workload, seed=1, trace=False)
        assert other["failed"] == 0
        assert other["digests"] != result(workload, trace=False)["digests"]


def test_all_pass_report_oracle_matches_recorded_digests():
    recorded = workloads.load_digests()["finite_verify"]
    start = workloads.build_seed(workloads.A4, workloads.A4_WORD)
    for seed in (0, 7):
        seqs = qca.default_sequences(start, depth=3, rng_seed=seed)
        text = workloads.expected_report(seqs, {"depth": 3, "rng_seed": seed})
        assert workloads.sha256(text) == recorded[str(seed)]


def test_metric_names_match_benchmark_json():
    layers = result("finite_verify")["layers"]
    assert sorted(layers) == sorted(LAYERS)
    assert {m["name"] for m in BENCHMARK["per_layer"]} <= set(layers)
    e2e = result("finite_verify", trace=False)["end_to_end"]
    assert {m["name"] for m in BENCHMARK["end_to_end"]} <= set(e2e)


def test_cli_cache_leaves_no_cache_or_environment_behind():
    before = os.environ.get("QCA_CACHE_DIR")
    dirs = set(os.listdir(run.OUT))
    result("cli_cache", trace=False, tag="isolation")
    assert os.environ.get("QCA_CACHE_DIR") == before
    assert set(os.listdir(run.OUT)) - dirs <= {"cli_cache-seed0-trace0.json"}


def test_refuses_to_run_without_the_program():
    """In a directory holding only the benchmark, run.py exits non-zero and
    prints no result line."""
    os.makedirs(run.OUT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli_cache",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
