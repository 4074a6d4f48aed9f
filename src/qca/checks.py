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
- terms: the numerator of an exchange, a torus.PackedSum, keyed by the
  product list that seeds._exchange_terms returns for it;
- divisions: the new variable of an exchange, keyed by the terms key and
  X_k.  This is the one entry that the table also takes from a proof:
  once involutivity has found X'_k X_k = N_b for the back numerator N_b of
  a step, it stores X_k under the back step's key (N_b's terms key and
  X'_k).  The torus is a domain, so exact_left_div(X'_k, N_b) could only
  return X_k, and the back step reads it instead of dividing;
- products: the single products of exchange_identity and involutivity;
- shadows: the new variable of the q = 1 shadow's exchange, keyed by
  ((x_i, b_ik) for every b_ik != 0, x_k), all that classical_mutate's
  exchange reads (its products commute).  The shadow's rows are mutated
  at every step by classical.py's own rule.

A pair or product whose reverse the table holds is answered from it, and
the answer is stored under its own key, so a later look-up reads it:
x y = q^gamma y x gives y x = q^-gamma x y, so (y, x) is -gamma (and
None, no single power, stays None); bar is an anti-automorphism, so
y x = bar(x y) when x and y are both bar-invariant, and only then.  Such
an answer counts as reused, as a stored value does.

Every operand is interned by content (a torus element or a q = 1 Laurent
polynomial by its sorted terms, the two kinds apart; L, B~, a D weight and
the shadow's rows by themselves; a tuple of them by its items): the first
one met stands for every equal one, and a key holds its id and every
integer the job reads, so a lookup hashes a few ints.  The terms key is
the product list itself, one (t, ((variable, power), ...)) per monomial,
so exchanges in different directions or with different shifts share a
numerator when their lists agree, and each step keeps its own exponents
and shifts.  A job is a function of its key alone (the torus, the
grading D and the Cartan datum are the starting seed's throughout), and
the walk never mutates a seed, so a lookup returns what evaluating again
would.  Each check still compares a shared value with its own node's L,
B~ and D, and each path records a step's outcome under its own sequence
and step text.  The table is dropped when the call returns.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from functools import cache
from operator import add, mul

from .classical import classical_shadow, classical_mutate, compare_q1, with_new_var
from .errors import IncompatibleError, NotDivisibleError, as_int
from .seeds import (
    ExchangeParts,
    QuantumSeed,
    _child,
    _exchange_terms,
    _mutate_rows,
    _size_witness,
    balance_witness,
    check_compatible,
    exchange_parts,
    homogeneity_witness,
    mutate_dvector,
    parity_witness,
    qcommute_witness,
)
from .torus import PackedSum, TorusElem, _is_bar_invariant, q_commute_exponent

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
    ValueError for a frozen k.
    """
    if k not in bmat.ex:
        raise ValueError("direction %d is frozen" % (k + 1))
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
    entries of that row of a, so a sparse left factor is cheap; row i of a
    that is e_i, as every unit row of E, E^T and F^T is, gives row i of b
    as it is."""
    out = []
    for row, unit, brow_i in zip(a, _identity(len(b)), b):
        if row == unit:
            out.append(brow_i)
            continue
        acc = itertools.repeat(0, len(b[0]))
        for x, brow in zip(row, b):
            if x:
                acc = map(add, acc, brow if x == 1 else map(mul, itertools.repeat(x), brow))
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

_MISS = object()  # a key that the table does not hold


def _content_key(x) -> tuple:
    """x's type and content: two torus elements of one torus or two q = 1
    Laurent polynomials (dicts), by their sorted terms, or two of L, B~,
    the D weights (frozen dataclasses) and the rows of a q = 1 shadow, by
    themselves, are equal exactly when their keys are."""
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
                       ("steps", "pairs", "terms", "divisions", "products", "shadows")}
        self._tables = {name: {} for name in self.counts}
        self._first = {}  # content key -> the first operand met with it
        # id -> (operand, the first one equal to it); holding both keeps
        # every id that a key uses unique for the call
        self._seen = {}

    def _id(self, x) -> int:
        """The id of the first operand of the walk equal to x; a tuple of
        operands is equal to another when their items are (rows of ints are
        one operand)."""
        got = self._seen.get(id(x))
        if got is None:
            key = (tuple, tuple(map(self._id, x))) if (
                isinstance(x, tuple) and not isinstance(x[0], tuple)) else _content_key(x)
            got = self._seen[id(x)] = (x, self._first.setdefault(key, x))
        return id(got[1])

    def _lookup(self, entry: str, key, compute, reverse=None):
        """The value of key, computed once.  A key the table lacks is
        answered by reverse(the value stored under the reversed key), if
        there is one and reverse does not return _MISS; that answer is
        stored under key, and counts as reused."""
        table, counts = self._tables[entry], self.counts[entry]
        value = table.get(key, _MISS)
        if value is _MISS and reverse is not None:
            back = table.get(key[::-1], _MISS)
            if back is not _MISS:
                value = reverse(back)
                if value is not _MISS:
                    table[key] = value
        if value is _MISS:
            counts[0] += 1
            value = table[key] = compute()
        else:
            counts[1] += 1
        return value

    def step(self, cur: QuantumSeed, cs, k: int) -> tuple:
        """_evaluate_step(cur, cs, k, self), once per distinct step."""
        key = (k, self._id(cur.lmat), self._id(cur.bmat), self._id(cur.dvec),
               self._id(cur.vars),
               None if cs is None else (self._id(cs.rows), self._id(cs.vars)))
        return self._lookup("steps", key, lambda: _evaluate_step(cur, cs, k, self))

    def q_commute_exponent(self, x: TorusElem, y: TorusElem) -> int | None:
        key = (self._id(x), self._id(y))
        gamma = self._tables["pairs"].get(key, _MISS)
        if gamma is not _MISS:  # most look-ups: no closures built
            self.counts["pairs"][1] += 1
            return gamma
        # y x = q^-gamma x y, so a stored (y, x) answers (x, y) negated
        return self._lookup("pairs", key, lambda: q_commute_exponent(x, y),
                            lambda gamma: None if gamma is None else -gamma)

    def product(self, x: TorusElem, y: TorusElem) -> TorusElem:
        # bar is an anti-automorphism: y x = bar(x y) when both are bar-invariant
        return self._lookup("products", (self._id(x), self._id(y)), lambda: x * y,
                            lambda yx: yx.bar() if _is_bar_invariant(x)
                            and _is_bar_invariant(y) else _MISS)

    def terms(self, seed: QuantumSeed, k: int, derived=None) -> tuple:
        """(key, (a', a'', p', p'', N)): seeds._exchange_terms(seed, k), or
        derived if given, with its product list P as a PackedSum N, built
        once per distinct P; the key is P with each factor as its id.
        Exchanges with one P, whatever their k and shifts, share N."""
        *head, prods = derived or _exchange_terms(seed, k)
        key = tuple([(t, tuple([(self._id(x), c) for x, c in factors])) for t, factors in prods])
        return key, (*head, self._lookup("terms", key, lambda: PackedSum(seed.l_init, prods)))

    def exchange(self, seed: QuantumSeed, k: int, derived=None) -> ExchangeParts:
        """The exchange parts in direction k, from derived as in terms; the
        new variable is divided once per distinct numerator and X_k."""
        key, terms = self.terms(seed, k, derived)
        new_var = self._lookup("divisions", (key, self._id(seed.vars[k])),
                               lambda: exchange_parts(seed, k, terms).new_var)
        return ExchangeParts(k, *terms, new_var)

    def proved_division(self, key, den: TorusElem, quotient: TorusElem) -> None:
        """Store quotient as the left quotient by den of the numerator N
        with terms key, once den * quotient = N is proved (see the module
        docstring).  A value stored before is kept.  Storing counts as
        neither computed nor reused; a look-up of it counts as reused."""
        self._tables["divisions"].setdefault((key, self._id(den)), quotient)

    def shadow(self, cs, k: int):
        """mu_k of the q = 1 shadow cs: classical_mutate(cs, k) once per
        distinct shadows key, each x as its id, and with_new_var with the
        stored new variable after that."""
        kpos = cs.ex.index(k)
        key = (tuple([(self._id(x), row[kpos]) for x, row in zip(cs.vars, cs.rows)
                      if row[kpos]]), self._id(cs.vars[k]))
        table, counts = self._tables["shadows"], self.counts["shadows"]
        new_var = table.get(key, _MISS)
        if new_var is not _MISS:
            counts[1] += 1
            return with_new_var(cs, k, new_var)
        counts[0] += 1
        child = classical_mutate(cs, k)
        table[key] = child.vars[k]
        return child


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
    shift = 2 + parts.shift_neg - parts.shift_pos
    # at shift 0 the right side is the numerator, whose sum is collected
    # once; any other shift builds v^shift M' + M'', so a wrong one fails
    rhs = parts.monomials.total if not shift else parts.m_pos.v_shift(shift) + parts.m_neg
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
    # exactly when one product equals the back numerator; once proved, the
    # walk's back step reads it instead of dividing
    # (L, B~) is compared by its rows, built by the closed forms' kernel
    # alone: rows equal to the validated parent's are valid, so no check is
    # lost by building no LMatrix or BMatrix (ex passes unchanged)
    k = parts.k
    key, (a_pos, a_neg, _, _, num) = walk.terms(node, k)
    if (_mutate_rows(node.lmat, node.bmat, k, a_neg) != (parent.lmat.rows, parent.bmat.rows)
            or mutate_dvector(node.dvec, k, a_pos) != parent.dvec
            or walk.product(node.vars[k], parent.vars[k]) != num.total):
        return "mutating back does not restore the seed"
    walk.proved_division(key, node.vars[k], parent.vars[k])
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
    derived = _exchange_terms(cur, k)
    refusal = _size_witness(derived[4])
    if refusal:
        return None, None, {}, refusal
    try:
        parts = walk.exchange(cur, k, derived)
    except NotDivisibleError as e:
        return None, None, {"laurent": str(e)}, None
    child = _child(cur, parts)
    child_cs = walk.shadow(cs, k) if cs is not None else None
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
    exchange numerator could exceed seeds.MAX_EXCHANGE_TERMS terms, or
    multiply more factors than that counted with their powers, is not
    taken: like a failed division, it marks the sequences through it "not
    evaluated".

    Each distinct step (parent content, shadow, direction) is evaluated once
    per call, and each torus oracle once per distinct operand; see the
    module docstring for why that is exact.  The report's steps and
    evaluated count the tree steps walked and the distinct ones, and its
    oracles the table's computed and reused values.
    """
    if isinstance(checks, str):
        raise ValueError("checks must be a list of names, not the string %r" % checks)
    chosen = ALL_CHECKS if checks is None else list(checks)
    bad = [c for c in chosen if c not in _CHECKS]
    if bad:
        raise ValueError("unknown check name(s) %s; valid names: %s"
                         % (", ".join(sorted(bad)), ", ".join(ALL_CHECKS)))
    if not chosen:
        raise ValueError("no checks selected; valid names: %s" % ", ".join(ALL_CHECKS))
    selected = [c for c in ALL_CHECKS if c in chosen]
    # the starting seed always has its own entry, so () is not a sequence
    sequences = sorted({tuple(map(as_int, s)) for s in sequences} - {()},
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
    # the paths whose every step was taken and failed no check
    clean = {()}
    for s in sequences:
        for i in range(1, len(s) + 1):
            if s[:i] in paths:
                continue
            cur, cs = paths[s[:i - 1]][:2]
            if cur is None:
                break
            step = paths[s[:i]] = walk.step(cur, cs, s[i - 1])
            if step[0] is not None and not step[2] and s[:i - 1] in clean:
                clean.add(s[:i])
    elapsed = time.monotonic() - t0

    entries = []
    labels = [tuple(k + 1 for k in s) for s in [()] + sequences]
    for check in selected:
        tier = _CHECKS[check][0]
        witnesses = [paths[()][2].get(check)] + [
            None if s in clean else _sequence_witness(paths, s, check) for s in sequences]
        for label, w in zip(labels, witnesses):
            entries.append(CheckEntry(check=check, tier=tier, sequence=label,
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
