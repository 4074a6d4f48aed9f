"""Span tracing of qca's layers, installed from outside the package.

A Tracer wraps public functions of the qca modules (and TorusElem.__mul__)
while it is installed.  Every call made during an active operation records
one span: name, start, end, parent span and operation id.  Spans stay in
memory as parallel lists and are written out once, when the run ends.

A function imported by name into another module is a separate binding, so
each wrapper is patched into every ``qca*`` module namespace that holds the
original object; patching only the defining module would miss the callers.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict

# (defining module, attribute, span name)
TARGETS = (
    ("qca.torus", "q_commute_exponent", "torus.qcomm"),
    ("qca.torus", "exact_left_div", "torus.div"),
    ("qca.seeds", "mutate", "seeds.mutate"),
    ("qca.seeds", "mutate_seq", "seeds.mutate_seq"),
    ("qca.seeds", "exchange_parts", "seeds.exchange_parts"),
    ("qca.seeds", "mutate_matrices", "seeds.mutate_matrices"),
    ("qca.seeds", "check_compatible", "seeds.check_compatible"),
    ("qca.seeds", "homogeneous_weight", "seeds.homogeneous_weight"),
    ("qca.cartan", "pair_weight_root", "cartan.pair"),
    ("qca.checks", "run_suite", "checks.run_suite"),
    ("qca.classical", "classical_mutate", "classical.mutate"),
    ("qca.classical", "compare_q1", "classical.compare"),
    ("qca.gls", "build_initial_seed", "gls.build"),
    ("qca.serialize", "seed_to_json", "serialize.seed_to_json"),
    ("qca.serialize", "seed_from_json", "serialize.seed_from_json"),
    ("qca.serialize", "pretty_dumps", "serialize.pretty_dumps"),
    ("qca.cli", "main", "cli.main"),
)
MUL_SPAN = "torus.mul"


def _coeff_terms(x) -> int:
    return sum(len(cf) for cf in x.terms.values())


def _count_mul(tr, args, result):
    x, y = args
    tr.count("torus.mul_term_pairs", len(x.terms) * len(y.terms))
    tr.count("torus.mul_coeff_pairs", _coeff_terms(x) * _coeff_terms(y))


def _count_div(tr, args, result):
    tr.count("torus.div_peel_steps", len(result.terms))


def _count_exchange(tr, args, result):
    # size of each new cluster variable: these describe the mathematics
    x = result.new_var
    tr.peak("torus.max_terms", len(x.terms))
    tr.peak("torus.max_vwidth", max(len(cf) for cf in x.terms.values()))
    tr.peak("torus.max_coeff_bits",
            max(abs(c).bit_length() for cf in x.terms.values() for c in cf.values()))


def _count_suite(tr, args, result):
    tr.count("checks.sequences", result.meta["n_sequences"])
    tr.count("checks.entries", len(result.entries))


def _count_dumps(tr, args, result):
    tr.count("serialize.bytes_out", len(result.encode()))


COUNTERS = {
    MUL_SPAN: _count_mul,
    "torus.div": _count_div,
    "seeds.exchange_parts": _count_exchange,
    "checks.run_suite": _count_suite,
    "serialize.pretty_dumps": _count_dumps,
}


class Tracer:
    """Records spans of wrapped qca calls; one instance per run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span; ``cover_end`` also covers the counter code run
        # after the call, so neither the span nor its parent is charged for it
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.cover_end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.op_group: list = []  # op id -> the group (setup or round) it belongs to
        self.counters: dict = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._cur_op = -1
        self._patches: list = []

    # -- operations ----------------------------------------------------------

    def begin_op(self, group) -> None:
        """Start a new operation; spans recorded until end_op carry its id."""
        self._cur_op = len(self.op_group)
        self.op_group.append(group)

    def end_op(self) -> None:
        self._cur_op = -1

    def count(self, key: str, n: int) -> None:
        self.counters[self.op_group[self._cur_op]][key] += n

    def peak(self, key: str, n: int) -> None:
        c = self.counters[self.op_group[self._cur_op]]
        c[key] = max(c[key], n)

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, span_name: str):
        nid = self._name_ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        counter = COUNTERS.get(span_name)
        names, starts, ends, covers = self.name, self.start, self.end, self.cover_end
        parents, ops, stack = self.parent, self.op, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if self._cur_op < 0:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self._cur_op)
            starts.append(0)
            ends.append(0)
            covers.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            if counter is not None:
                counter(self, args, result)
            starts[idx] = t0
            ends[idx] = t1
            covers[idx] = clock()
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every wrapper into each qca module that binds the original."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "qca" or name.startswith("qca."))]
        for mod_name, attr, span_name in TARGETS:
            orig = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(orig, span_name)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapper)
        torus_cls = sys.modules["qca.torus"].TorusElem
        orig_mul = torus_cls.__mul__
        self._patches.append((torus_cls, "__mul__", orig_mul))
        torus_cls.__mul__ = self._wrap(orig_mul, MUL_SPAN)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- aggregation ------------------------------------------------------------

    def layer_times(self) -> dict:
        """{group: {span name: [calls, inclusive ns, self ns]}}."""
        child_cover = [0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_cover[p] += self.cover_end[i] - self.start[i]
        out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
        for i, nid in enumerate(self.name):
            dur = self.end[i] - self.start[i]
            acc = out[self.op_group[self.op[i]]][self.names[nid]]
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - child_cover[i]
        return out

    def spans_of(self, group, span_name: str) -> list[int]:
        nid = self._name_ids.get(span_name)
        return [i for i, n in enumerate(self.name)
                if n == nid and self.op_group[self.op[i]] == group]

    def descendants_time(self, root: int, span_name: str) -> tuple[int, int]:
        """(calls, inclusive ns) of spans named span_name below span root."""
        nid = self._name_ids.get(span_name)
        calls = total = 0
        for i in range(root + 1, len(self.name)):
            if self.start[i] >= self.end[root]:
                break
            if self.name[i] == nid and self._has_ancestor(i, root):
                calls += 1
                total += self.end[i] - self.start[i]
        return calls, total

    def _has_ancestor(self, i: int, root: int) -> bool:
        p = self.parent[i]
        while p > root:
            p = self.parent[p]
        return p == root

    def write(self, path: str) -> None:
        """All spans, one CSV line each: name,start_ns,end_ns,parent,op,group."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent,op,group\n")
            for i, nid in enumerate(self.name):
                fh.write("%s,%d,%d,%d,%d,%s\n" % (
                    self.names[nid], self.start[i], self.end[i], self.parent[i],
                    self.op[i], self.op_group[self.op[i]]))
