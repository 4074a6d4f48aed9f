"""Named identity checks over mutation sequences, with reporting.

A check is one row of the ordered table _CHECKS: its name, its tier and its
witness at one tree node.  The row order is the report order, and
ALL_CHECKS, the tiers and check_tier are read off the table, so a new check
(the planned shuffle and g_vector checks among them) is one more row.
run_suite evaluates the selected checks at the starting seed and after
every step of the requested sequences (a shared prefix is mutated once),
and returns a CheckReport whose entries never throw: every failure is data.
The seed invariants are the witness functions of seeds.py, shared with
mutate and the GLS build; this module adds the checks that need a step, the
q = 1 oracle, and two independent oracles: the matrix route of mutation
(full triple products E^T L E and E B~ F), and q-commutation of each new
variable in the torus, which mutate proves instead of computing.  That
oracle settles a pair with a single-term side by the torus relation
X^a X^b = v^{2 aT L b} X^b X^a, and every other pair by torus products
(see torus.q_commute_exponent).  The report serializes deterministically;
timings and step counts stay on the in-memory object.

The tree reaches one quantum seed by many paths (mu_k mu_k = id, and
mu_j mu_k = mu_k mu_j when b_jk = 0), and distinct steps meet the same
operands again.  So run_suite keeps, for one call, a table (_Walk) that
does each job once per distinct key:

- steps: a step's outcome (the child seed and shadow, the witnesses of
  every check, or the refusal), keyed by the direction, the parent's L,
  B~, D and variables, and its q = 1 shadow (rows and variables);
- pairs: the q-commutation exponent of an ordered pair of variables;
- terms: the two shifted monomials of an exchange (seeds._exchange_terms),
  shared by a step's exchange and involutivity's exchange back;
- divisions: the exchange parts, keyed by the terms key and X_k;
- products: the single products of exchange_identity and involutivity.

Every operand is interned by content (a torus element or a q = 1 Laurent
polynomial by its sorted terms, the two kinds apart; L, B~ and a D weight
by themselves; a tuple of them by its items): the first one met stands
for every equal one, and a key holds its id and every integer the job
reads, so a lookup hashes a few ints.  The terms of an exchange in
direction k read k, the support of column k of B~ with its entries and
variables, the L entries among the support and the two shifts.  A job is
a function of its key alone (the torus, the grading D and the Cartan
datum are the starting seed's throughout), and the walk never mutates a
seed, so a lookup returns what evaluating again would.  Each check still
compares a shared value with its own node's L, B~ and D, and each path
records a step's outcome under its own sequence and step text.  The
table is dropped when the call returns.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from functools import cache

from .classical import classical_shadow, classical_mutate, compare_q1
from .errors import IncompatibleError, NotDivisibleError
from .seeds import (
    QuantumSeed,
    _child,
    _exchange_terms,
    balance_witness,
    check_compatible,
    exchange_parts,
    exchange_size_witness,
    homogeneity_witness,
    mutate_dvector,
    mutate_matrices,
    parity_witness,
    qcommute_witness,
)
from .torus import TorusElem, q_commute_exponent

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

# default_sequences refuses a depth whose enumerated sequences would hold
# more directions than this (sum_{l <= depth} l |K_ex|^l): memory and the
# report both grow with it
MAX_DIRECTIONS = 1_000_000


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
    # not serialized: wall time, the look-ups and computed values of the
    # table's steps entry (the tree steps walked and the distinct ones,
    # all that was evaluated), and per torus oracle, (computed, reused)
    timings: dict = field(default_factory=dict)
    steps: int = 0
    evaluated: int = 0
    oracles: dict = field(default_factory=dict)

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
    return list(dict.fromkeys(seqs))


# -- independent oracle: the matrix route of mutation ----------------------
#
# seeds.mutate_matrices computes (mu_k L, mu_k B~) by entrywise closed forms.
# The products below are a second, independent derivation, like classical.py
# for q = 1; run_suite compares them once per tree node under lambda_mutation.

@cache
def _identity(n: int):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def ef_matrices(bmat, k: int):
    """The involutive mutation matrices (E, F) in direction k.

    E is K x K and differs from the identity only in column k; F is
    |K_ex| x |K_ex| and differs from the identity only in row k.  E^2 = 1.
    """
    kpos = bmat.pos(k)
    e = list(_identity(bmat.k))
    for i, b in enumerate(bmat.column(k)):
        x = -1 if i == k else max(0, -b)
        if x != e[i][k]:
            e[i] = e[i][:k] + (x,) + e[i][k + 1:]
    f = list(_identity(len(bmat.ex)))
    f[kpos] = tuple(-1 if jpos == kpos else max(0, b) for jpos, b in enumerate(bmat.rows[k]))
    return tuple(e), tuple(f)


def _matmul(a, b):
    """a b, each row a combination of the rows of b weighted by the nonzero
    entries of that row of a, so a sparse left factor is cheap; a unit row
    e_j of a gives row j of b as it is."""
    out = []
    zeros = len(b) - 1
    for row in a:
        if row.count(0) == zeros and 1 in row:
            out.append(b[row.index(1)])
            continue
        acc = [0] * len(b[0])
        for x, brow in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append(tuple(acc))
    return tuple(out)


def _transpose(m):
    return tuple(zip(*m))


def _matrix_route_witness(parent: QuantumSeed, node: QuantumSeed, k: int) -> str | None:
    """node's (L, B~) against (E^T L E, E B~ F) of its parent.

    Both are full triple products, associated so that every left factor is
    E, E^T or F^T, which differ from the identity in one row or column:
    E^T L E = (E^T (E^T L)^T)^T and E B~ F = (F^T (E B~)^T)^T.
    """
    e_mat, f_mat = ef_matrices(parent.bmat, k)
    e_t = _transpose(e_mat)
    l_route = _transpose(_matmul(e_t, _transpose(_matmul(e_t, parent.lmat.rows))))
    b_route = _transpose(_matmul(_transpose(f_mat), _transpose(_matmul(e_mat, parent.bmat.rows))))
    l_ok = l_route == node.lmat.rows
    b_ok = b_route == node.bmat.rows
    if l_ok and b_ok:
        return None
    return "matrix mutation disagrees with the closed forms (E^T L E %s, E B F %s)" % (
        "agrees" if l_ok else "differs", "agrees" if b_ok else "differs")


# -- one call's table ----------------------------------------------------------

def _content_key(x) -> tuple:
    """x's type and content: two torus elements of one torus or two q = 1
    Laurent polynomials (dicts), by their sorted terms, or two of L, B~ and
    the D weights (frozen dataclasses), by themselves, are equal exactly
    when their keys are."""
    if isinstance(x, dict):
        return dict, tuple(sorted(x.items()))
    if isinstance(x, TorusElem):
        return TorusElem, tuple(sorted((a, tuple(sorted(cf.items())))
                                       for a, cf in x.terms.items()))
    return type(x), x


class _Walk:
    """One run_suite call: the selected checks, and a table that does each
    job once per distinct key (see the module docstring).

    counts maps each entry of the table to [computed, reused]; its order
    after "steps" is the one CheckReport.oracles and the `qca verify`
    summary keep.
    """

    def __init__(self, selected):
        self.selected = selected
        self.counts = {name: [0, 0] for name in
                       ("steps", "pairs", "terms", "divisions", "products")}
        self._tables = {name: {} for name in self.counts}
        self._first = {}  # content key -> the first operand met with it
        # id -> (operand, the first one equal to it); holding both keeps
        # every id that a key uses unique for the call
        self._seen = {}

    def _id(self, x) -> int:
        """The id of the first operand of the walk equal to x; a tuple of
        operands is equal to another when their items are."""
        got = self._seen.get(id(x))
        if got is None:
            key = (tuple, tuple(map(self._id, x))) if isinstance(x, tuple) else _content_key(x)
            got = self._seen[id(x)] = (x, self._first.setdefault(key, x))
        return id(got[1])

    def _lookup(self, entry: str, key, compute):
        table, counts = self._tables[entry], self.counts[entry]
        value = table.get(key, table)  # the table itself marks a miss
        if value is table:
            counts[0] += 1
            value = table[key] = compute()
        else:
            counts[1] += 1
        return value

    def step(self, cur: QuantumSeed, cs, k: int) -> tuple:
        """_evaluate_step(cur, cs, k, self), once per distinct step."""
        key = (k, self._id(cur.lmat), self._id(cur.bmat), self._id(cur.dvec),
               self._id(cur.vars), None if cs is None else (cs.rows, self._id(cs.vars)))
        return self._lookup("steps", key, lambda: _evaluate_step(cur, cs, k, self))

    def q_commute_exponent(self, x: TorusElem, y: TorusElem) -> int | None:
        return self._lookup("pairs", (self._id(x), self._id(y)),
                            lambda: q_commute_exponent(x, y))

    def product(self, x: TorusElem, y: TorusElem) -> TorusElem:
        return self._lookup("products", (self._id(x), self._id(y)), lambda: x * y)

    def _exchange_key(self, seed: QuantumSeed, k: int) -> tuple:
        """All that seeds._exchange_terms reads of seed in direction k."""
        col = seed.bmat.column(k)
        supp = [i for i, b in enumerate(col) if b]
        rows = seed.lmat.rows
        row_k = rows[k]
        shift_pos = sum(row_k[i] * col[i] for i in supp if col[i] > 0)
        shift_neg = -sum(row_k[i] * col[i] for i in supp if col[i] < 0)
        return (k, tuple((i, col[i], self._id(seed.vars[i])) for i in supp),
                tuple(rows[i][j] for n, i in enumerate(supp) for j in supp[:n]),
                shift_pos, shift_neg)

    def terms(self, seed: QuantumSeed, k: int, key=None) -> tuple:
        """seeds._exchange_terms(seed, k), once per distinct exchange: a
        step's exchange and involutivity's exchange back share it.  key,
        if given, is _exchange_key(seed, k)."""
        return self._lookup("terms", key or self._exchange_key(seed, k),
                            lambda: _exchange_terms(seed, k))

    def exchange(self, seed: QuantumSeed, k: int):
        """The exchange parts in direction k, divided once per distinct
        exchange and X_k."""
        key = self._exchange_key(seed, k)
        return self._lookup("divisions", (key, self._id(seed.vars[k])),
                            lambda: exchange_parts(seed, k, self.terms(seed, k, key)))


# -- the checks at one tree node ----------------------------------------------
#
# Each takes (node, idx, shadow, parent, parts, walk): idx is every index at
# the starting seed and (k,) after a step in direction k; shadow is node's
# q = 1 shadow (None without q1_oracle); parent and parts, the parent seed
# and the exchange parts of the step, are None at the starting seed; walk
# is the call's _Walk, whose table serves the torus oracles.

def _compatible_witness(node, *_) -> str | None:
    try:
        check_compatible(node.lmat, node.bmat)
    except IncompatibleError as e:
        return str(e)
    return None


def _exchange_witness(node, idx, shadow, parent, parts, walk) -> str | None:
    if parts is None:
        return None
    lhs = walk.product(parent.vars[parts.k], parts.new_var)
    rhs = (parts.m_pos.v_shift(2 - parts.shift_pos)
           + parts.m_neg.v_shift(-parts.shift_neg)).v_shift(parts.shift_neg)
    if lhs != rhs:
        return "vars_k * new_var differs from v^{p''}(v^2 M' + M'')"
    return None


def _lambda_witness(node, idx, shadow, parent, parts, walk) -> str | None:
    """q-commutation per the current L over idx, re-derived in the torus
    (the oracle for what mutate proves), after the matrix route of a step."""
    route = _matrix_route_witness(parent, node, parts.k) if parts else None
    return route or qcommute_witness(node, idx, walk.q_commute_exponent)


def _positivity_witness(node, idx, *_) -> str | None:
    for i in idx:
        if not node.vars[i].is_nonneg():
            return "variable %d has a negative coefficient" % (i + 1)
    return None


def _q1_witness(node, idx, shadow, parent, *_) -> str | None:
    bad = [i + 1 for i in compare_q1(node, shadow)]
    if not bad:
        return None
    if parent is None:
        return "initial variables %s disagree with the classical seed" % bad
    return "variables %s disagree with the classical shadow" % bad


def _involutivity_witness(node, idx, shadow, parent, parts, walk) -> str | None:
    if parts is None:
        return None
    # the torus is a domain, so the back division returns parent.vars[k]
    # exactly when one product equals the back numerator
    k = parts.k
    a_pos, a_neg, _, _, m_pos, m_neg = walk.terms(node, k)
    if (mutate_matrices(node.lmat, node.bmat, k, a_neg) != (parent.lmat, parent.bmat)
            or mutate_dvector(node.dvec, k, a_pos) != parent.dvec
            or walk.product(node.vars[k], parent.vars[k]) != m_pos + m_neg):
        return "mutating back does not restore the seed"
    return None


def _bar_witness(node, idx, *_) -> str | None:
    for i in idx:
        if node.vars[i].bar() != node.vars[i]:
            return "variable %d is not bar-invariant" % (i + 1)
    return None


# check name -> (tier, witness); the order is the report's
_CHECKS = {
    "compatible": ("standard", _compatible_witness),
    "parity": ("standard", lambda node, idx, *_: parity_witness(node, idx)),
    "weight_balance": ("standard", lambda node, idx, *_: balance_witness(node, idx)),
    "exchange_identity": ("standard", _exchange_witness),
    "lambda_mutation": ("standard", _lambda_witness),
    "homogeneity": ("standard", lambda node, idx, *_: homogeneity_witness(node, idx)),
    # a failed division, reported by _evaluate_step
    "laurent": ("standard", lambda *_: None),
    "positivity": ("standard", _positivity_witness),
    "q1_oracle": ("standard", _q1_witness),
    "involutivity": ("standard", _involutivity_witness),
    "bar_invariance": ("extended", _bar_witness),
}
ALL_CHECKS = tuple(_CHECKS)
STANDARD_CHECKS = tuple(c for c, (tier, _) in _CHECKS.items() if tier == "standard")
EXTENDED_CHECKS = tuple(c for c, (tier, _) in _CHECKS.items() if tier == "extended")


def check_tier(name: str) -> str:
    if name not in _CHECKS:
        raise ValueError("unknown check %r; valid names: %s" % (name, ", ".join(ALL_CHECKS)))
    return _CHECKS[name][0]


def _node_failures(node, idx, walk, shadow, parent=None, parts=None) -> dict:
    """{check: witness} for the walk's selected checks that fail at one
    tree node."""
    out = {}
    for name in walk.selected:
        w = _CHECKS[name][1](node, idx, shadow, parent, parts, walk)
        if w:
            out[name] = w
    return out


def _evaluate_step(cur: QuantumSeed, cs, k: int, walk: _Walk) -> tuple:
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
        parts = walk.exchange(cur, k)
    except NotDivisibleError as e:
        return None, None, {"laurent": str(e)}, None
    child = _child(cur, parts)
    child_cs = classical_mutate(cs, k) if cs is not None else None
    return child, child_cs, _node_failures(child, (k,), walk, child_cs, cur, parts), None


def _sequence_witness(paths: dict, s: tuple, check: str) -> str | None:
    """The check's witness for sequence s: the first failure or untaken step
    along its prefixes, with that step's text."""
    for i in range(1, len(s) + 1):
        child, _, failures, refusal = paths[s[:i]]
        if child is not None and check not in failures:
            continue
        step_txt = "step %d (direction %d)" % (i, s[i - 1] + 1)
        if check in failures:
            return "%s: %s" % (step_txt, failures[check])
        if refusal:
            return "not evaluated: %s: %s" % (step_txt, refusal)
        return "not evaluated: division failed at step %d" % i
    return None


def run_suite(seed: QuantumSeed, sequences, checks=None, meta=None) -> CheckReport:
    """Evaluate the selected checks over the given sequences (0-based
    directions).  Unknown check names and an empty selection raise
    ValueError; everything else is reported, not raised.  A step whose
    exchange numerator could exceed seeds.MAX_EXCHANGE_TERMS terms is not
    taken: like a failed division, it marks the sequences through it "not
    evaluated".

    Each distinct step (parent content, shadow, direction) is evaluated once
    per call, and each torus oracle once per distinct operand; see the
    module docstring for why that is exact.  The report's steps and
    evaluated count the tree steps walked and the distinct ones, and its
    oracles the table's computed and reused values.
    """
    chosen = ALL_CHECKS if checks is None else list(checks)
    bad = [c for c in chosen if c not in _CHECKS]
    if bad:
        raise ValueError("unknown check name(s) %s; valid names: %s"
                         % (", ".join(sorted(bad)), ", ".join(ALL_CHECKS)))
    if not chosen:
        raise ValueError("no checks selected; valid names: %s" % ", ".join(ALL_CHECKS))
    selected = [c for c in ALL_CHECKS if c in chosen]
    # the starting seed always has its own entry, so () is not a sequence
    sequences = sorted({tuple(int(k) for k in s) for s in sequences} - {()},
                       key=lambda t: (len(t), t))
    for s in sequences:
        for k in s:
            if k not in seed.ex:
                raise ValueError("direction %d is not exchangeable" % (k + 1))

    t0 = time.monotonic()
    cs0 = classical_shadow(seed) if "q1_oracle" in selected else None
    walk = _Walk(selected)
    # path -> (seed, shadow, {check: witness}, refusal) after its last step
    paths = {(): (seed, cs0, _node_failures(seed, range(seed.k), walk, cs0), None)}
    for s in sequences:
        for i in range(1, len(s) + 1):
            if s[:i] in paths:
                continue
            cur, cs = paths[s[:i - 1]][:2]
            if cur is None:
                break
            paths[s[:i]] = walk.step(cur, cs, s[i - 1])
    elapsed = time.monotonic() - t0

    entries = []
    for check in selected:
        witnesses = [paths[()][2].get(check)] + [
            _sequence_witness(paths, s, check) for s in sequences]
        for s, w in zip([()] + sequences, witnesses):
            entries.append(CheckEntry(
                check=check, tier=_CHECKS[check][0], sequence=tuple(k + 1 for k in s),
                status="fail" if w else "pass", witness=w))

    full_meta = {"checks": selected, "n_sequences": len(sequences)}
    if meta:
        full_meta.update(meta)
    evaluated, repeated = walk.counts.pop("steps")
    report = CheckReport(entries=tuple(entries), meta=full_meta, steps=evaluated + repeated,
                         evaluated=evaluated,
                         oracles={name: tuple(c) for name, c in walk.counts.items()})
    report.timings["total"] = elapsed
    return report
