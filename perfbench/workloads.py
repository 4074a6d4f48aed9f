"""The three benchmark workloads: inputs, timed operations and output checks.

Each workload makes its inputs from the workload seed in ``setup`` and runs
rounds of identical operations in ``run_round``.  Only the call into qca is
timed; every output is checked afterwards against the sha256 digests that
record.py stored in data/digests.json, and against independent oracles.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import os
import random
import shutil
import time

import qca
import qca.classical
import qca.cli
import qca.serialize

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

A3 = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
A4 = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))
D4 = ((2, -1, -1, -1), (-1, 2, 0, 0), (-1, 0, 2, 0), (-1, 0, 0, 2))
KRONECKER = ((2, -2), (-2, 2))
A4_WORD = (1, 2, 1, 3, 2, 1, 4, 3, 2, 1)
KRONECKER_WORD = (1, 2, 1, 2)

# cli_cache key families: Cartan matrix, reduced word, longest mutate sequence
FAMILIES = {
    "a3": (A3, (1, 2, 1, 3, 2, 1), 4),
    "d4": (D4, (2, 3, 4, 1) * 3, 3),
    "a4": (A4, A4_WORD, 3),
    "kron": (KRONECKER, KRONECKER_WORD, 6),
}
KEYS_PER_FAMILY = 10
REPEATS_PER_KEY = 8
# Kronecker seeds stored as files for `export`: (first direction, steps)
STORED_SEEDS = ((1, 9), (1, 10), (2, 9), (2, 10))
EXPORTS_PER_SEED = 10
# requests between two calibrations of the machine's speed (see run.py)
SEGMENT = 100

CHAIN_STEPS = 11
VERIFY_DEPTH = 3
ALL_CHECKS = ("compatible", "parity", "weight_balance", "exchange_identity",
              "lambda_mutation", "homogeneity", "laurent", "positivity",
              "q1_oracle", "involutivity", "bar_invariance")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> dict:
    with open(os.path.join(DATA, "digests.json")) as fh:
        return json.load(fh)


def build_seed(rows, word):
    return qca.build_initial_seed(qca.CartanDatum.from_rows(rows),
                                  qca.WeylWord.from_one_based(word))


def chain_directions(ex, first: int, steps: int) -> tuple:
    """Alternate between the two exchangeable directions, starting at first."""
    a, b = (ex[0], ex[1]) if first == ex[0] else (ex[1], ex[0])
    return tuple(a if i % 2 == 0 else b for i in range(steps))


def stored_seed_name(first: int, steps: int) -> str:
    return "kron-%d-%d" % (first, steps)


def mutate_key(family: str, seq) -> str:
    return "%s:%s" % (family, ",".join(str(k) for k in seq))


def call_cli(argv) -> tuple[int, str, str, float]:
    """qca.cli.main in-process with captured output: (code, stdout, stderr, s)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = qca.cli.main(argv)
        dt = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), dt


class Op:
    """One timed operation: latency, client loop time, failure (None = ok)
    and the segment of its round, counted in checkpoints passed before it."""

    __slots__ = ("latency", "loop", "failure", "digest", "segment")

    def __init__(self, latency, loop, failure, digest, segment=0):
        self.latency = latency
        self.loop = loop
        self.failure = failure
        self.digest = digest
        self.segment = segment


def _timed(tracer, group, fn, *args):
    """(result, seconds) of fn(*args), as one traced operation if tracing."""
    if tracer is not None:
        tracer.begin_op(group)
    t0 = time.perf_counter()
    try:
        return fn(*args), time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.end_op()


def _timed_op(tracer, group, fn, *args):
    """Like _timed, but an exception becomes a failure: (result, s, error)."""
    t0 = time.perf_counter()
    try:
        result, dt = _timed(tracer, group, fn, *args)
    except Exception as e:  # a raising operation is counted as failed
        return None, time.perf_counter() - t0, "%s: %s" % (type(e).__name__, e)
    return result, dt, None


class FiniteVerify:
    """qca.run_suite with all 11 checks, A4 longest word, depth 3."""

    name = "finite_verify"

    def __init__(self, seed: int, digests: dict, workdir: str):
        self.seed = seed
        self.recorded = digests[self.name].get(str(seed))

    def setup(self, tracer=None, group="setup"):
        def make():
            s = build_seed(A4, A4_WORD)
            return s, qca.default_sequences(s, depth=VERIFY_DEPTH, rng_seed=self.seed)
        (start, seqs), _ = _timed(tracer, group, make)
        return {"start": start, "sequences": seqs, "expected": None}

    def run_round(self, state, tracer, group, checkpoint):
        meta = {"depth": VERIFY_DEPTH, "rng_seed": self.seed}
        t0 = time.perf_counter()
        report, dt, error = _timed_op(tracer, group, qca.run_suite,
                                      state["start"], state["sequences"], None, meta)
        loop = time.perf_counter() - t0
        if error:
            return [Op(dt, loop, error, None)], {}
        text = qca.serialize.pretty_dumps(
            qca.serialize.report_to_json(report, qca.__version__))
        digest = sha256(text)
        if state["expected"] is None:
            state["expected"] = sha256(expected_report(state["sequences"], meta))
        failure = None
        if not report.passed:
            failure = "report has %d failing entries" % len(report.failures())
        elif self.recorded is not None and digest != self.recorded:
            failure = "report digest differs from the one recorded for this seed"
        elif digest != state["expected"]:
            failure = "report bytes differ from an all-pass report"
        return [Op(dt, loop, failure, digest)], {}

    def sizes(self, state) -> dict:
        return {"sequences": len(state["sequences"])}


def expected_report(sequences, meta) -> str:
    """The exact bytes of `qca verify` when every check passes, built without
    qca's report code: one entry per check for the start seed, then one per
    sequence in (length, lex) order."""
    seqs = sorted(set(tuple(s) for s in sequences), key=lambda t: (len(t), t))
    entries = []
    for check in ALL_CHECKS:
        tier = "extended" if check == "bar_invariance" else "standard"
        for s in [()] + seqs:
            entries.append({"check": check, "tier": tier,
                            "sequence": [k + 1 for k in s],
                            "status": "pass", "witness": None})
    obj = {
        "engine": {"name": "qca", "version": qca.__version__},
        "meta": dict({"checks": list(ALL_CHECKS), "n_sequences": len(seqs)}, **meta),
        "summary": {"pass": len(entries), "fail": 0},
        "entries": entries,
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class AffineChain:
    """Checked qca.mutate_seq, 11 alternating steps on the Kronecker word."""

    name = "affine_chain"

    def __init__(self, seed: int, digests: dict, workdir: str):
        self.seed = seed
        self.first = 1 + seed % 2  # 1-based first direction
        self.recorded = digests[self.name][str(self.first)]
        self.stepwise_checked = False

    def setup(self, tracer=None, group="setup"):
        start, _ = _timed(tracer, group, build_seed, KRONECKER, KRONECKER_WORD)
        seq = chain_directions(start.ex, start.ex[self.first - 1], CHAIN_STEPS)
        return {"start": start, "seq": seq, "classical": None}

    def run_round(self, state, tracer, group, checkpoint):
        t0 = time.perf_counter()
        result, dt, error = _timed_op(tracer, group, qca.mutate_seq,
                                      state["start"], state["seq"])
        loop = time.perf_counter() - t0
        if error:
            return [Op(dt, loop, error, None)], {}
        text = qca.serialize.pretty_dumps(qca.serialize.seed_to_json(result))
        digest = sha256(text)
        failure = None
        if digest != self.recorded:
            failure = "result seed digest differs from the recorded one"
        else:
            failure = self._check_q1(state, result)
        return [Op(dt, loop, failure, digest)], {}

    def _check_q1(self, state, result):
        """Every new variable at v = 1 against the classical oracle.  The
        timed chain returns only its last seed, so the first round also
        steps through the chain once, untimed, to see each new variable."""
        if state["classical"] is None:
            cs = qca.classical.classical_shadow(state["start"])
            steps = []
            for k in state["seq"]:
                cs = qca.classical.classical_mutate(cs, k)
                steps.append(cs)
            state["classical"] = steps
        steps = state["classical"]
        if any(result.vars[i].specialize_q1() != steps[-1].vars[i]
               for i in range(result.k)):
            return "final variables disagree with the classical oracle at v = 1"
        if not self.stepwise_checked:
            self.stepwise_checked = True
            s = state["start"]
            for n, (k, cs) in enumerate(zip(state["seq"], steps), 1):
                s = qca.mutate(s, k)
                if s.vars[k].specialize_q1() != cs.vars[k]:
                    return "step %d: new variable disagrees with the classical oracle" % n
            if s != result:
                return "step-by-step chain ends at a different seed"
        return None

    def sizes(self, state) -> dict:
        return {"steps": len(state["seq"])}


class CliCache:
    """One closed-loop client calling qca.cli.main: cached mutate + export."""

    name = "cli_cache"

    def __init__(self, seed: int, digests: dict, workdir: str):
        self.seed = seed
        self.recorded = digests[self.name]
        self.workdir = workdir
        self.n_setup = 0
        self.n_round = 0

    def setup(self, tracer=None, group="setup"):
        root = os.path.join(self.workdir, "setup%d" % self.n_setup)
        self.n_setup += 1
        os.makedirs(root)
        files = {}
        ex = {}
        for fam, (rows, word, _) in FAMILIES.items():
            path = os.path.join(root, fam + ".json")
            with open(path, "w") as fh:
                json.dump({"cartan": [list(r) for r in rows], "word": list(word)}, fh)
            files[fam] = path
            seed, _ = _timed(tracer, group, build_seed, rows, word)
            ex[fam] = tuple(k + 1 for k in seed.ex)
        for first, steps in STORED_SEEDS:
            name = stored_seed_name(first, steps)
            with gzip.open(os.path.join(DATA, name + ".json.gz"), "rt") as fh:
                text = fh.read()
            files[name] = os.path.join(root, name + ".json")
            with open(files[name], "w") as fh:
                fh.write(text)
        requests = request_mix(self.seed, ex)
        argvs = []
        for kind, key in requests:
            if kind == "mutate":
                fam, seq = key.split(":")
                argvs.append(["mutate", "--cartan", files[fam], "--seq", seq])
            else:
                argvs.append(["export", "--seed", files[key]])
        return {"root": root, "requests": requests, "argvs": argvs}

    def run_round(self, state, tracer, group, checkpoint):
        """One pass over the request list against a fresh, empty cache,
        calling checkpoint() (untimed) after every SEGMENT requests."""
        cache = os.path.join(state["root"], "cache%d" % self.n_round)
        self.n_round += 1
        os.makedirs(cache)
        saved = os.environ.get(qca.cli.CACHE_ENV)
        os.environ[qca.cli.CACHE_ENV] = cache
        ops = []
        hits = misses = 0
        try:
            for n, ((kind, key), argv) in enumerate(zip(state["requests"], state["argvs"])):
                if n and n % SEGMENT == 0:
                    checkpoint()
                t0 = time.perf_counter()
                res, _, error = _timed_op(tracer, group, call_cli, argv)
                if error:
                    dt = time.perf_counter() - t0
                    ops.append(Op(dt, dt, error, None, n // SEGMENT))
                    continue
                code, out, err, dt = res
                if kind == "mutate":
                    # a request that added a file to the cache was a miss
                    if len(os.listdir(cache)) > misses:
                        misses += 1
                    else:
                        hits += 1
                loop = time.perf_counter() - t0
                digest = sha256(out)
                failure = None
                if code != 0:
                    failure = "%s exited %d: %s" % (key, code, err.strip()[:200])
                elif digest != self.recorded.get(key):
                    failure = "%s: stdout differs from the recorded digest" % key
                ops.append(Op(dt, loop, failure, digest, n // SEGMENT))
        finally:
            if saved is None:
                os.environ.pop(qca.cli.CACHE_ENV, None)
            else:
                os.environ[qca.cli.CACHE_ENV] = saved
            shutil.rmtree(cache)
        return ops, {"cli.cache_hits": hits, "cli.cache_misses": misses}

    def sizes(self, state) -> dict:
        n_mut = sum(1 for kind, _ in state["requests"] if kind == "mutate")
        return {"requests": len(state["requests"]), "mutate_requests": n_mut}


def reduced_sequences(ex, length):
    """All direction sequences of this length with no immediate repeat."""
    seqs = [(k,) for k in ex]
    for _ in range(length - 1):
        seqs = [s + (k,) for s in seqs for k in ex if k != s[-1]]
    return seqs


def request_mix(seed: int, ex: dict) -> list:
    """The seeded request list of one pass.

    Per family, KEYS_PER_FAMILY distinct mutate keys with lengths cycling
    1..max.  Every key is requested 1 + REPEATS_PER_KEY times: a miss on a
    fresh cache, then hits.  Each stored seed is exported EXPORTS_PER_SEED
    times.  Only the keys and the order depend on the seed, so the hit and
    miss counts and the mix of families and lengths do not.
    """
    rng = random.Random(seed)
    pool = []
    for fam, (_, _, max_len) in FAMILIES.items():
        chosen = []
        for i in range(KEYS_PER_FAMILY):
            options = [s for s in reduced_sequences(ex[fam], 1 + i % max_len)
                       if s not in chosen]
            chosen.append(rng.choice(options))
        pool.extend(mutate_key(fam, s) for s in chosen)
    requests = [("mutate", k) for k in pool] * (1 + REPEATS_PER_KEY)
    for first, steps in STORED_SEEDS:
        requests += [("export", stored_seed_name(first, steps))] * EXPORTS_PER_SEED
    rng.shuffle(requests)
    return requests


WORKLOADS = {w.name: w for w in (FiniteVerify, AffineChain, CliCache)}
