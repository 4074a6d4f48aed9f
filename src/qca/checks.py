"""Named identity checks over mutation sequences, with reporting.

run_suite walks the prefix tree of the requested sequences (shared prefixes
are mutated once), evaluates the selected checks at the starting seed and
at every mutation step, and returns a CheckReport whose entries never throw:
every failure is data.  The seed invariants are the witness functions of
seeds.py, shared with mutate and the GLS build; this module adds the checks
that need a step, the q = 1 oracle, and two independent oracles: the matrix
route of mutation, and q-commutation of each new variable by torus
products, which mutate proves instead of computing.  The report serializes
deterministically; timings and step counts stay on the in-memory object.

The tree reaches one quantum seed by many paths (mu_k mu_k = id, and
mu_j mu_k = mu_k mu_j when b_jk = 0), so run_suite evaluates each distinct
step once.  A step's outcome (the child seed and shadow, the witnesses of
every check, or the refusal) is a function of the parent's content
(L, B~, D and the variables), its q = 1 shadow and the direction alone,
and the walk never mutates a seed; a memo keyed by exactly that content,
compared with ==, therefore returns what evaluating the step again would.
Each path records the outcome under its own sequence and step text.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

from .classical import classical_shadow, classical_mutate, compare_q1
from .errors import IncompatibleError, NotDivisibleError
from .seeds import (
    QuantumSeed,
    _exchange_terms,
    _mutate_unchecked,
    balance_witness,
    check_compatible,
    exchange_size_witness,
    homogeneity_witness,
    mutate_dvector,
    mutate_matrices,
    parity_witness,
    qcommute_witness,
)

__all__ = [
    "STANDARD_CHECKS",
    "EXTENDED_CHECKS",
    "ALL_CHECKS",
    "CheckEntry",
    "CheckReport",
    "run_suite",
    "default_sequences",
    "ef_matrices",
]

STANDARD_CHECKS = (
    "compatible",
    "parity",
    "weight_balance",
    "exchange_identity",
    "lambda_mutation",
    "homogeneity",
    "laurent",
    "positivity",
    "q1_oracle",
    "involutivity",
)
EXTENDED_CHECKS = ("bar_invariance",)
ALL_CHECKS = STANDARD_CHECKS + EXTENDED_CHECKS

# default_sequences refuses a depth whose enumerated sequences would hold
# more directions than this (sum_{l <= depth} l |K_ex|^l): memory and the
# report both grow with it
MAX_DIRECTIONS = 1_000_000


def check_tier(name: str) -> str:
    if name in EXTENDED_CHECKS:
        return "extended"
    if name in STANDARD_CHECKS:
        return "standard"
    raise ValueError("unknown check %r; valid names: %s" % (name, ", ".join(ALL_CHECKS)))


@dataclass(frozen=True)
class CheckEntry:
    check: str
    tier: str
    sequence: tuple[int, ...]  # 1-based directions, () = the starting seed
    status: str  # "pass" | "fail"
    witness: str | None = None


@dataclass
class CheckReport:
    entries: tuple[CheckEntry, ...]
    meta: dict
    # not serialized: wall time, the steps of the tree walked, and the
    # distinct ones among them, which are all that was evaluated
    timings: dict = field(default_factory=dict)
    steps: int = 0
    evaluated: int = 0

    @property
    def passed(self) -> bool:
        return all(e.status == "pass" for e in self.entries)

    def failures(self) -> tuple[CheckEntry, ...]:
        return tuple(e for e in self.entries if e.status == "fail")


def default_sequences(seed: QuantumSeed, depth: int = 4, n_random: int = 32,
                      random_len: int = 6, rng_seed: int = 0):
    """All sequences of length <= depth over K_ex, plus seeded random ones.

    ValueError if depth < 0 or if the enumeration would hold more than
    MAX_DIRECTIONS directions; that count is computed before anything is
    enumerated.
    """
    ex = seed.ex
    if depth < 0:
        raise ValueError("depth must be >= 0, got %d" % depth)
    total, layer = 0, 1
    for length in range(1, depth + 1):  # ends once past the cap (or at once if no K_ex)
        layer *= len(ex)
        total += length * layer
        if total > MAX_DIRECTIONS or not layer:
            break
    if total > MAX_DIRECTIONS:
        raise ValueError(
            "depth %d over %d exchangeable directions enumerates more than %d "
            "directions" % (depth, len(ex), MAX_DIRECTIONS))
    seqs = []
    for length in range(1, depth + 1):
        seqs.extend(itertools.product(ex, repeat=length))
    if ex:
        rng = random.Random(rng_seed)
        for _ in range(n_random):
            length = rng.randint(1, random_len)
            seqs.append(tuple(rng.choice(ex) for _ in range(length)))
    seen = set()
    out = []
    for s in seqs:
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


# -- independent oracle: the matrix route of mutation ----------------------
#
# seeds.mutate_matrices computes (mu_k L, mu_k B~) by entrywise closed forms.
# The products below are a second, independent derivation, like classical.py
# for q = 1; run_suite compares them once per tree node under lambda_mutation.

def ef_matrices(bmat, k: int):
    """The involutive mutation matrices (E, F) in direction k.

    E is K x K and differs from the identity only in column k; F is
    |K_ex| x |K_ex| and differs from the identity only in row k.  E^2 = 1.
    """
    kpos = bmat.pos(k)
    e = [[int(i == j) for j in range(bmat.k)] for i in range(bmat.k)]
    for i, b in enumerate(bmat.column(k)):
        e[i][k] = -1 if i == k else max(0, -b)
    f = [[int(i == j) for j in range(len(bmat.ex))] for i in range(len(bmat.ex))]
    f[kpos] = [-1 if jpos == kpos else max(0, b) for jpos, b in enumerate(bmat.rows[k])]
    return tuple(map(tuple, e)), tuple(map(tuple, f))


def _matmul(a, b):
    """a b, each row a combination of the rows of b weighted by the nonzero
    entries of that row of a (E and F are mostly zero)."""
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, brow in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append(tuple(acc))
    return tuple(out)


def _matrix_route_witness(parent: QuantumSeed, node: QuantumSeed, k: int) -> str | None:
    """node's (L, B~) against (E^T L E, E B~ F) of its parent."""
    e_mat, f_mat = ef_matrices(parent.bmat, k)
    l_ok = _matmul(tuple(zip(*e_mat)), _matmul(parent.lmat.rows, e_mat)) == node.lmat.rows
    b_ok = _matmul(_matmul(e_mat, parent.bmat.rows), f_mat) == node.bmat.rows
    if l_ok and b_ok:
        return None
    return "matrix mutation disagrees with the closed forms (E^T L E %s, E B F %s)" % (
        "agrees" if l_ok else "differs", "agrees" if b_ok else "differs")


# -- the checks at one tree node ----------------------------------------------

def _positivity_witness(seed: QuantumSeed, idx) -> str | None:
    for i in idx:
        if not seed.vars[i].is_nonneg():
            return "variable %d has a negative coefficient" % (i + 1)
    return None


def _bar_witness(seed: QuantumSeed, idx) -> str | None:
    for i in idx:
        if seed.vars[i].bar() != seed.vars[i]:
            return "variable %d is not bar-invariant" % (i + 1)
    return None


_WITNESSES = (
    ("parity", parity_witness),
    ("weight_balance", balance_witness),
    ("homogeneity", homogeneity_witness),
    ("positivity", _positivity_witness),
    ("bar_invariance", _bar_witness),
)


def _node_failures(node: QuantumSeed, idx, selected, parent=None, parts=None) -> dict:
    """{check: witness} for the selected checks that fail at one tree node.

    idx is every index at the starting seed and (k,) after a step in
    direction k.  lambda_mutation is q-commutation per the current L over
    idx, by torus products (the oracle for what mutate proves), plus the
    matrix route after a step.  exchange_identity and involutivity need the
    step (parent seed and exchange parts); q1_oracle is run by run_suite,
    which carries the classical shadow along the tree.
    """
    out = {}
    if "compatible" in selected:
        try:
            check_compatible(node.lmat, node.bmat)
        except IncompatibleError as e:
            out["compatible"] = str(e)
    for name, witness in _WITNESSES:
        if name in selected:
            out[name] = witness(node, idx)
    if "lambda_mutation" in selected:
        route = _matrix_route_witness(parent, node, parts.k) if parts else None
        out["lambda_mutation"] = route or qcommute_witness(node, idx)
    if parts is not None:
        k = parts.k
        if "exchange_identity" in selected:
            lhs = parent.vars[k] * parts.new_var
            rhs = (parts.m_pos.v_shift(2 - parts.shift_pos)
                   + parts.m_neg.v_shift(-parts.shift_neg)).v_shift(parts.shift_neg)
            if lhs != rhs:
                out["exchange_identity"] = (
                    "vars_k * new_var differs from v^{p''}(v^2 M' + M'')")
        if "involutivity" in selected:
            # the torus is a domain, so the back division returns parent.vars[k]
            # exactly when one product equals the back numerator
            a_pos, a_neg, *_, m_pos, m_neg = _exchange_terms(node, k)
            if (mutate_matrices(node.lmat, node.bmat, k, a_neg) != (parent.lmat, parent.bmat)
                    or mutate_dvector(node.dvec, k, a_pos) != parent.dvec
                    or node.vars[k] * parent.vars[k] != m_pos + m_neg):
                out["involutivity"] = "mutating back does not restore the seed"
    return {c: w for c, w in out.items() if w}


class _StepKey:
    """A step (parent seed, its q = 1 shadow, direction k) as a memo key.

    Equal exactly when the parents are equal seeds (QuantumSeed.__eq__: L,
    B~, D and the variables; history and the Cartan tag, constant within a
    run, are left out), the shadows are equal and k agrees.  The hash reads
    only k, L, B~ and D, so == alone tells apart keys that share those.
    Holds references to the seeds, not copies.
    """

    __slots__ = ("seed", "shadow", "k", "_hash")

    def __init__(self, seed: QuantumSeed, shadow, k: int):
        self.seed, self.shadow, self.k = seed, shadow, k
        self._hash = hash((k, seed.lmat, seed.bmat, seed.dvec))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return (self.k == other.k and self.seed == other.seed
                and self.shadow == other.shadow)


def _evaluate_step(cur: QuantumSeed, cs, k: int, sel) -> tuple:
    """(child, child shadow, {check: witness}, refusal) of the step from cur
    (q = 1 shadow cs, None without q1_oracle) in direction k.

    child is None when the step is not taken: refusal is then the
    exchange-size witness, checked before any product, or None after a
    failed division, whose witness is under "laurent".  Witnesses carry no
    step text, which depends on the path.
    """
    refusal = exchange_size_witness(cur, k)
    if refusal:
        return None, None, {}, refusal
    try:
        child, parts = _mutate_unchecked(cur, k)
    except NotDivisibleError as e:
        return None, None, {"laurent": str(e)}, None
    failures = {}
    child_cs = None
    if cs is not None:
        child_cs = classical_mutate(cs, k)
        bad = compare_q1(child, child_cs)
        if bad:
            failures["q1_oracle"] = (
                "variables %s disagree with the classical shadow" % [i + 1 for i in bad])
    failures.update(_node_failures(child, (k,), sel, cur, parts))
    return child, child_cs, failures, None


def run_suite(seed: QuantumSeed, sequences, checks=None, meta=None) -> CheckReport:
    """Evaluate the selected checks over the given sequences (0-based
    directions).  Unknown check names raise ValueError; everything else is
    reported, not raised.  A step whose exchange numerator could exceed
    seeds.MAX_EXCHANGE_TERMS terms is not taken: like a failed division, it
    marks the sequences through it "not evaluated".

    Each distinct step (parent content, shadow, direction) is evaluated once
    per call; see the module docstring for why that is exact.  The report's
    steps and evaluated count the tree steps walked and the distinct ones.
    """
    if checks is None:
        selected = list(ALL_CHECKS)
    else:
        selected = list(checks)
        bad = [c for c in selected if c not in ALL_CHECKS]
        if bad:
            raise ValueError(
                "unknown check name(s) %s; valid names: %s"
                % (", ".join(sorted(bad)), ", ".join(ALL_CHECKS))
            )
    sel = frozenset(selected)
    sequences = [tuple(int(k) for k in s) for s in sequences]
    for s in sequences:
        for k in s:
            if k not in seed.ex:
                raise ValueError("direction %d is not exchangeable" % (k + 1))

    t0 = time.monotonic()
    fail: dict = {}
    pruned: dict = {}  # path -> reason, subtree below was not evaluated

    for check, w in _node_failures(seed, range(seed.k), sel).items():
        fail[(check, ())] = w

    cs0 = None
    if "q1_oracle" in sel:
        cs0 = classical_shadow(seed)
        bad = compare_q1(seed, cs0)
        if bad:
            fail[("q1_oracle", ())] = (
                "initial variables %s disagree with the classical seed"
                % [i + 1 for i in bad])

    # prefix tree of all requested sequences
    children: dict = {(): set()}
    for s in sequences:
        for i in range(len(s)):
            children.setdefault(s[:i], set()).add(s[i])
            children.setdefault(s[: i + 1], set())

    memo: dict = {}  # _StepKey -> _evaluate_step's outcome
    steps = 0
    stack = [((), seed, cs0)]
    while stack:
        path, cur, cs = stack.pop()
        for k in sorted(children.get(path, ()), reverse=True):
            child = path + (k,)
            step_txt = "step %d (direction %d)" % (len(child), k + 1)
            key = _StepKey(cur, cs, k)
            outcome = memo.get(key)
            if outcome is None:
                outcome = memo[key] = _evaluate_step(cur, cs, k, sel)
            steps += 1
            new_seed, new_cs, failures, refusal = outcome
            for check, w in failures.items():
                fail[(check, child)] = "%s: %s" % (step_txt, w)
            if refusal:
                pruned[child] = "%s: %s" % (step_txt, refusal)
            elif new_seed is None:
                pruned[child] = "division failed at step %d" % len(child)
            else:
                stack.append((child, new_seed, new_cs))
    elapsed = time.monotonic() - t0

    entries = []
    order = [c for c in ALL_CHECKS if c in sel]
    for check in order:
        ent = fail.get((check, ()))
        entries.append(CheckEntry(
            check=check, tier=check_tier(check), sequence=(),
            status="fail" if ent else "pass", witness=ent))
        for s in sorted(set(sequences), key=lambda t: (len(t), t)):
            status, witness = "pass", None
            for i in range(1, len(s) + 1):
                prefix = s[:i]
                if (check, prefix) in fail:
                    status, witness = "fail", fail[(check, prefix)]
                    break
                if prefix in pruned:
                    status = "fail"
                    witness = "not evaluated: %s" % pruned[prefix]
                    break
            entries.append(CheckEntry(
                check=check, tier=check_tier(check),
                sequence=tuple(k + 1 for k in s), status=status, witness=witness))

    full_meta = {"checks": list(order), "n_sequences": len(set(sequences))}
    if meta:
        full_meta.update(meta)
    report = CheckReport(entries=tuple(entries), meta=full_meta,
                         steps=steps, evaluated=len(memo))
    report.timings["total"] = elapsed
    return report
