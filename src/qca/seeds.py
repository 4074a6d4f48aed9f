"""Quantum seeds, their mutation, and one witness function per seed invariant.

A seed is a compatible pair (L, B~) together with one quantum-torus element
per index (the cluster variables, all expressed in the *initial* torus), a
weight per index (the D data), and the mutation history.  Mutation in
direction k replaces

    vars_k  ->  X'_k  with  vars_k * X'_k = v^{p'} M' + v^{p''} M'',

where M', M'' are the normalized cluster monomials with exponents e_k + a',
e_k + a'' built from the exchange column of B~, and p', p'' are the
v-exponents produced by commuting vars_k across those monomials
(p = sum_i a_i lambda^cur_{ki}).  Compatibility of degree 2 forces
p' - p'' = 2.

Each seed invariant has one implementation here: check_compatible (degree
2) and the witness functions for q-commutation, homogeneity, parity and
weight balance.  A witness function takes the seed and the indices to
examine (every index at a starting seed, (k,) after a step in direction k)
and returns a witness string or None; mutate, the checks of checks.py and
the GLS build call the same functions.  mutate certifies every step: it
checks compatibility of degree 2 and the homogeneity of the new variable
per mu_k(D), and proves its q-commutation per mu_k(L) from those facts and
a certified parent (see mutate).  Matrix mutation uses closed forms only:
row k of mu_k(L) is a''^T L and B~ changes entrywise.  The matrix-product
route (E^T L E, E B~ F) and the torus arithmetic that re-derives each
new variable's q-commutation are independent oracles in checks.py.  Every such
integer identity is a sum of rows of L or of the (flattened) D weights,
computed by torus._combine_rows.

All of this is exact; nothing is floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import mul

from .cartan import CartanDatum, Weight, coroot_vector
from .errors import EngineInvariantError, IncompatibleError, as_int
from .torus import (
    LMatrix,
    PackedSum,
    TorusElem,
    _combine_rows,
    exact_left_div,
    q_commute_exponent,
)

__all__ = [
    "BMatrix",
    "QuantumSeed",
    "ExchangeParts",
    "check_compatible",
    "qcommute_witness",
    "homogeneity_witness",
    "parity_witness",
    "balance_witness",
    "mutate_matrices",
    "mutate_dvector",
    "exchange_exponents",
    "exchange_parts",
    "exchange_term_bound",
    "exchange_size_witness",
    "MAX_EXCHANGE_TERMS",
    "mutate_variable",
    "mutate",
    "mutate_seq",
    "cluster_monomial",
    "homogeneous_weight",
]


@dataclass(frozen=True)
class BMatrix:
    """K x |K_ex| exchange matrix; column j of ``rows`` belongs to ex[j].

    The principal part (rows restricted to exchangeable indices) must be
    skew-symmetric.
    """

    rows: tuple[tuple[int, ...], ...]
    ex: tuple[int, ...]

    def __post_init__(self):
        k = len(self.rows)
        ncols = len(self.ex)
        if any(len(row) != ncols for row in self.rows):
            raise ValueError("B matrix must have one column per exchangeable index")
        if list(self.ex) != sorted(set(self.ex)):
            raise ValueError("exchangeable indices must be strictly increasing")
        if self.ex and not (0 <= self.ex[0] and self.ex[-1] < k):
            raise ValueError("exchangeable index out of range")
        for jpos, j in enumerate(self.ex):
            for ipos, i in enumerate(self.ex):
                if self.rows[i][jpos] != -self.rows[j][ipos]:
                    raise ValueError(
                        "principal part of B must be skew-symmetric "
                        "(entries (%d, %d), (%d, %d))" % (i + 1, j + 1, j + 1, i + 1)
                    )

    @classmethod
    def from_rows(cls, rows, ex) -> "BMatrix":
        return cls(tuple(tuple(map(as_int, row)) for row in rows), tuple(map(as_int, ex)))

    @property
    def k(self) -> int:
        return len(self.rows)

    def pos(self, j: int) -> int:
        return self.ex.index(j)

    def column(self, j: int) -> tuple[int, ...]:
        return self._columns[self.pos(j)]

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        # built once per matrix; not a field, so == and hash ignore it
        return tuple(zip(*self.rows))


def check_compatible(lmat: LMatrix, bmat: BMatrix) -> int | None:
    """2 if sum_t lambda_it b_tj = 2 delta_ij for all i and exchangeable j,
    else IncompatibleError with the first failing (i, j).

    Degree 2 is the only one the exchange relation v^{p''}(v^2 M' + M'')
    supports.  Returns None when there are no exchangeable indices (no
    constraint).
    """
    if lmat.k != bmat.k:
        raise ValueError("L and B must have the same number of rows")
    for j in bmat.ex:
        # L is skew-symmetric, so b_j^T L is the row -(L B~)_{.j}
        for i, r in enumerate(_combine_rows(lmat.rows, bmat.column(j))):
            s = -r
            if i == j:
                if s != 2:
                    raise IncompatibleError((i, j), "diagonal value %d, not 2" % s)
            elif s != 0:
                raise IncompatibleError((i, j), "off-diagonal value %d" % s)
    return 2 if bmat.ex else None


def _pairs(n: int, idx):
    """Each unordered pair {i, j} with i in idx and j in 0..n-1, once, as (i, j).

    For idx = every index these are the pairs j < i.
    """
    for i in idx:
        for j in range(n):
            if j != i and not (j > i and j in idx):
                yield i, j


def qcommute_witness(seed: "QuantumSeed", idx, exponent=None) -> str | None:
    """First pair with vars_j vars_i != q^{lambda_ji} vars_i vars_j (current L).

    exponent(x, y), q_commute_exponent by default, gives each pair's power;
    run_suite passes one that serves repeated pairs from its table.
    """
    exponent = exponent or q_commute_exponent
    for i, j in _pairs(seed.k, idx):
        gamma = exponent(seed.vars[j], seed.vars[i])
        if gamma != seed.lmat.rows[j][i]:
            return "q-commutation of variables (%d, %d): got %s, L says %d" % (
                j + 1, i + 1, gamma, seed.lmat.rows[j][i])
    return None


def homogeneity_witness(seed: "QuantumSeed", idx) -> str | None:
    """First variable in idx that is not homogeneous of its D weight."""
    for i in idx:
        if homogeneous_weight(seed.vars[i], seed.d_init) != seed.dvec[i]:
            return "variable %d is not homogeneous of weight D_%d" % (i + 1, i + 1)
    return None


def parity_witness(seed: "QuantumSeed", idx) -> str | None:
    """First pair with lambda_ij != (d_i, d_j) mod 2; needs the Cartan datum."""
    if seed.cartan is None:
        return "parity needs the Cartan datum (seed carries none)"
    dvec, rows = seed.dvec, seed.lmat.rows
    in_root_lattice = [w.is_root_lattice() for w in dvec]
    last = h = None
    for i, j in _pairs(seed.k, idx):
        if not (in_root_lattice[i] and in_root_lattice[j]):
            return "D entries outside the root lattice at (%d, %d)" % (i + 1, j + 1)
        if i != last:  # _pairs yields each i's pairs together
            last, h = i, coroot_vector(seed.cartan, dvec[i])
        pairing = -sum(map(mul, dvec[j].c, h))  # pair_weight_root(d_i, d_j)
        if (rows[i][j] - pairing) % 2:
            return "lambda_%d%d = %d but (d_i, d_j) = %d" % (
                i + 1, j + 1, rows[i][j], pairing)
    return None


def balance_witness(seed: "QuantumSeed", idx) -> str | None:
    """First exchangeable column j with sum_i b_ij d_i != 0, among the
    columns that involve an index of idx (j in idx, or b_ij != 0 for some i
    in idx).  A step in direction k changes only column k, the columns
    with b_kj != 0 and d_k, so (k,) re-examines every changed column."""
    drows = [w.row for w in seed.dvec]
    for j in seed.ex:
        col = seed.bmat.column(j)
        if j not in idx and not any(col[i] for i in idx):
            continue
        if any(_combine_rows(drows, col)):
            return "column %d does not balance" % (j + 1)
    return None


def mutate_matrices(lmat: LMatrix, bmat: BMatrix, k: int, a_neg):
    """(mu_k L, mu_k B~) by the closed forms: row k of mu_k(L) is a''^T L
    off the diagonal (a'' from exchange_exponents) and column k its
    negative; B~ changes entrywise, and a row i != k with b_ik = 0 is
    kept as it is.

    The matrix-product route (E^T L E, E B~ F) is an independent oracle in
    checks.py; mutate certifies the result through compatibility.
    """
    row_k = _combine_rows(lmat.rows, a_neg)
    row_k[k] = 0
    lp_closed = tuple(
        tuple(row_k) if i == k else row[:k] + (-row_k[i],) + row[k + 1:]
        for i, row in enumerate(lmat.rows)
    )

    n = bmat.k
    col = bmat.column(k)
    bp_closed = []
    for i in range(n):
        if i != k and not col[i]:
            # b_ik = 0: the entries below and -b_ik leave the row as it is
            bp_closed.append(bmat.rows[i])
            continue
        row = []
        for jpos, j in enumerate(bmat.ex):
            b_ij = bmat.rows[i][jpos]
            if i == k or j == k:
                row.append(-b_ij)
            else:
                b_ik = col[i]
                b_kj = bmat.rows[k][jpos]
                sign = -1 if b_ik < 0 else 1
                row.append(b_ij + sign * max(b_ik * b_kj, 0))
        bp_closed.append(tuple(row))
    return LMatrix(lp_closed), BMatrix(tuple(bp_closed), bmat.ex)


def mutate_dvector(dvec, k: int, a_pos):
    """Replace d_k by -d_k + sum_{b_ik > 0} b_ik d_i = a'^T D, with a' from
    exchange_exponents."""
    out = list(dvec)
    out[k] = Weight.from_row(_combine_rows([w.row for w in dvec], a_pos))
    return tuple(out)


def exchange_exponents(bmat: BMatrix, k: int):
    """(a', a''): both have -1 at k; a' collects b_ik > 0, a'' collects -b_ik > 0."""
    if k not in bmat.ex:
        raise ValueError("direction %d is frozen" % (k + 1))
    col = bmat.column(k)
    a_pos = tuple(-1 if i == k else max(0, b) for i, b in enumerate(col))
    a_neg = tuple(-1 if i == k else max(0, -b) for i, b in enumerate(col))
    return a_pos, a_neg


def homogeneous_weight(x: TorusElem, d_init) -> Weight | None:
    """The common weight sum_i a_i d_i of all monomials of x, or None."""
    drows = [w.row for w in d_init]
    weights = {tuple(_combine_rows(drows, a)) for a in x.terms}
    return Weight.from_row(weights.pop()) if len(weights) == 1 else None


@dataclass(frozen=True, eq=False)
class QuantumSeed:
    """Current (L, B~, D, vars) plus the initial torus data and history.

    ``l_init`` is the matrix of the ambient torus all variables live in and
    ``d_init`` the grading weights; both are constant along mutation.
    ``cartan`` is carried when the seed came from a Cartan datum (needed for
    root-lattice pairings: parity checks, normalized export).
    """

    l_init: LMatrix
    d_init: tuple[Weight, ...]
    lmat: LMatrix
    bmat: BMatrix
    dvec: tuple[Weight, ...]
    vars: tuple[TorusElem, ...]
    history: tuple[int, ...]
    cartan: CartanDatum | None = None
    # set once every invariant of validate_full is known to hold, by
    # validate_full itself, initial or mutate; replace() and the JSON
    # loader start a seed without it
    _certified: bool = field(default=False, init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.l_init.k
        if not (
            self.lmat.k == n
            and self.bmat.k == n
            and len(self.dvec) == n
            and len(self.d_init) == n
            and len(self.vars) == n
        ):
            raise ValueError("seed components disagree on the index set size")
        lengths = {w.n for w in self.dvec + self.d_init}
        if self.cartan is not None:
            lengths.add(self.cartan.n)
        if len(lengths) > 1:
            raise ValueError("D weights must all have one length, the Cartan rank "
                             "if there is one; got %s" % sorted(lengths))
        for i, x in enumerate(self.vars):
            if x.ambient != self.l_init:
                raise ValueError("cluster variable lives in the wrong torus")
            if x.is_zero():
                raise ValueError("cluster variable %d is zero" % (i + 1))

    @property
    def k(self) -> int:
        return self.l_init.k

    @property
    def ex(self) -> tuple[int, ...]:
        return self.bmat.ex

    def __eq__(self, other) -> bool:
        """Seed equality ignores history (and the optional Cartan tag)."""
        if not isinstance(other, QuantumSeed):
            return NotImplemented
        return (
            self.l_init == other.l_init
            and self.d_init == other.d_init
            and self.lmat == other.lmat
            and self.bmat == other.bmat
            and self.dvec == other.dvec
            and self.vars == other.vars
        )

    __hash__ = None

    @classmethod
    def initial(cls, lmat: LMatrix, bmat: BMatrix, dvec, cartan=None) -> "QuantumSeed":
        """The seed whose variables are the torus generators X^{e_i},
        certified once (L, B~) passes check_compatible.

        validate_full's other two checks hold by construction.  L is the
        torus's own matrix, so the torus relation X^{e_j} X^{e_i} =
        q^{lambda_ji} X^{e_i} X^{e_j} is q-commutation per L; and X^{e_i}
        has the one exponent e_i, of weight sum_j (e_i)_j d_j = d_i.
        """
        gens = tuple(
            TorusElem.monomial(lmat, tuple(1 if j == i else 0 for j in range(lmat.k)))
            for i in range(lmat.k)
        )
        seed = cls(
            l_init=lmat,
            d_init=tuple(dvec),
            lmat=lmat,
            bmat=bmat,
            dvec=tuple(dvec),
            vars=gens,
            history=(),
            cartan=cartan,
        )
        check_compatible(lmat, bmat)
        object.__setattr__(seed, "_certified", True)
        return seed

    def validate_full(self) -> None:
        """Compatibility, pairwise q-commutation per L, homogeneity per D;
        a seed that passes is certified as a parent for mutate."""
        check_compatible(self.lmat, self.bmat)
        every = range(self.k)
        w = qcommute_witness(self, every) or homogeneity_witness(self, every)
        if w:
            raise EngineInvariantError(w)
        object.__setattr__(self, "_certified", True)


def cluster_monomial(seed: QuantumSeed, a) -> TorusElem:
    """The normalized product of current variables with exponents a >= 0:

        v^{sum_{i>j} a_i a_j lambda^cur_ij} vars_1^{a_1} ... vars_K^{a_K}.

    On the initial seed this reproduces the basis monomial X^a exactly.
    """
    a = tuple(int(x) for x in a)
    if len(a) != seed.k or any(x < 0 for x in a):
        raise ValueError("cluster monomials need a nonnegative exponent per index")
    return _realize_monomial(seed.lmat, seed.vars, a)


def _realize_monomial(lcur: LMatrix, vars, a, shift: int = 0) -> TorusElem:
    """v^shift times the cluster monomial of vars with exponents a, the
    product taken on torus elements."""
    prod = None
    for i, ai in enumerate(a):
        if ai:
            pw = vars[i].pow(ai)
            prod = pw if prod is None else prod * pw
    if prod is None:
        prod = TorusElem.one(vars[0].ambient)
    return prod.v_shift(_prefactor(lcur, a) + shift)


def _prefactor(lcur: LMatrix, a) -> int:
    """sum_{i>j} a_i a_j lambda^cur_ij, the v-power that normalizes the
    cluster monomial with exponents a."""
    prefac = 0
    for i in range(len(a)):
        if a[i]:
            for j in range(i):
                if a[j]:
                    prefac += a[i] * a[j] * lcur.rows[i][j]
    return prefac


@dataclass(frozen=True)
class ExchangeParts:
    """Everything mutation in direction k produces, before validation.

    ``m_pos``/``m_neg`` are the two normalized cluster monomials, already
    shifted by v^{shift_pos}/v^{shift_neg}; vars_k * new_var is their sum.
    ``monomials`` holds them: the pair itself, or the torus.PackedSum of
    the two, which unpacks each when it is first read (mutate reads
    neither).
    """

    k: int
    a_pos: tuple[int, ...]
    a_neg: tuple[int, ...]
    shift_pos: int
    shift_neg: int
    monomials: tuple[TorusElem, TorusElem] | PackedSum
    new_var: TorusElem

    @property
    def m_pos(self) -> TorusElem:
        return self.monomials[0]

    @property
    def m_neg(self) -> TorusElem:
        return self.monomials[1]


def _exchange_monomials(seed: QuantumSeed, k: int):
    """(a', a'', p', p'', c', c''): the ExchangeParts fields a_pos to
    shift_neg in order, and the exponents c = a + e_k of the two cluster
    monomials M', M'' of the exchange relation in direction k.

    The commuting prefactors come from X_k X^a = v^{sum_i a_i lambda_ki}
    X^{e_k + a}, applied with the *current* L.  p' - p'' = (L B~)_kk, so
    check_compatible is the test that it is 2.
    """
    a_pos, a_neg = exchange_exponents(seed.bmat, k)
    row_k = seed.lmat.rows[k]
    # a' and a'' hold -1 at k
    return (a_pos, a_neg, sum(map(mul, row_k, a_pos)), sum(map(mul, row_k, a_neg)),
            a_pos[:k] + (0,) + a_pos[k + 1:], a_neg[:k] + (0,) + a_neg[k + 1:])


def _exchange_terms(seed: QuantumSeed, k: int, monomials=None):
    """(a', a'', p', p'', v^{p'} M', v^{p''} M''), the ExchangeParts fields
    a_pos to m_neg in order, as torus elements, computed without division.
    monomials, if given, is _exchange_monomials(seed, k)."""
    a_pos, a_neg, shift_pos, shift_neg, c_pos, c_neg = (
        monomials or _exchange_monomials(seed, k))
    m_pos = _realize_monomial(seed.lmat, seed.vars, c_pos, shift_pos)
    m_neg = _realize_monomial(seed.lmat, seed.vars, c_neg, shift_neg)
    return a_pos, a_neg, shift_pos, shift_neg, m_pos, m_neg


def exchange_parts(seed: QuantumSeed, k: int, terms=None) -> ExchangeParts:
    """The exchange in direction k inside the initial torus: the exponents,
    shifts and shifted monomials, and the exact left quotient of their sum
    by vars_k (the new variable).

    terms, if given, is _exchange_terms(seed, k), which run_suite takes
    from its table; the two monomials are then added and divided.  Without
    it, as in mutate, the numerator is a torus.PackedSum when it has a
    product to pack: vars_k has several terms, and a monomial multiplies
    variables of several terms at least twice (a power counts).  Each
    monomial is then multiplied from its factors vars_i^{c_i} in index
    order on packed runs, and the sum of their runs is the division's
    starting remainder, at one digit width W fixed before any product.  W
    covers 2 B and ||vars_k||_1, where B = sum over the two monomials of
    prod_i ||vars_i||_1^{c_i} bounds every partial sum of every coefficient
    of both monomials and of their sum.  Otherwise vars_k has one term and
    divides term by term, or each monomial is at most one variable of
    several terms, shifted and scaled by single-term ones; neither packs a
    product, and the monomials are materialized as run_suite's are.
    """
    if terms is None:
        monomials = _exchange_monomials(seed, k)
        vs = seed.vars
        if len(vs[k].terms) > 1 and any(
                sum(ci for ci, x in zip(c, vs) if len(x.terms) > 1) > 1 for c in monomials[4:]):
            num = PackedSum(vs[k], [
                (_prefactor(seed.lmat, c) + shift, [(vs[i], ci) for i, ci in enumerate(c) if ci])
                for c, shift in zip(monomials[4:], monomials[2:4])])
            return ExchangeParts(k, *monomials[:4], num, exact_left_div(vs[k], num))
        terms = _exchange_terms(seed, k, monomials)
    return ExchangeParts(k, *terms[:4], terms[4:],
                         exact_left_div(seed.vars[k], terms[4] + terms[5]))


# `qca mutate` refuses, and run_suite prunes, a step whose exchange numerator
# could have more terms (exchange_size_witness); qca.mutate stays unbounded
MAX_EXCHANGE_TERMS = 10**6


def exchange_term_bound(seed: QuantumSeed, k: int) -> int:
    """An upper bound on the terms of the exchange numerator in direction k.

    A power x^a of a variable with t terms has at most C(a + t - 1, t - 1)
    exponents, one per multiset of a of its terms; exponents add under
    products, so each monomial of the numerator has at most the product of
    these over its factors, and the numerator at most the sum over a', a''.
    Computed from the exponents and term counts alone, before any product.
    """
    counts = [len(x.terms) for x in seed.vars]
    return sum(
        math.prod(math.comb(ai + t - 1, t - 1) for ai, t in zip(a, counts) if ai > 0)
        for a in exchange_exponents(seed.bmat, k)
    )


def exchange_size_witness(seed: QuantumSeed, k: int) -> str | None:
    """Why the step in direction k is refused, if its exchange numerator
    could have more than MAX_EXCHANGE_TERMS terms; None otherwise."""
    bound = exchange_term_bound(seed, k)
    if bound > MAX_EXCHANGE_TERMS:
        return ("the exchange numerator could have up to %d terms, over the "
                "limit of %d" % (bound, MAX_EXCHANGE_TERMS))
    return None


def mutate_variable(seed: QuantumSeed, k: int) -> TorusElem:
    """The new cluster variable in direction k."""
    return exchange_parts(seed, k).new_var


def _child(seed: QuantumSeed, parts: ExchangeParts) -> QuantumSeed:
    """The seed mutated by the exchange parts of one of its directions,
    without the invariant re-checks."""
    k = parts.k
    lp, bp = mutate_matrices(seed.lmat, seed.bmat, k, parts.a_neg)
    new_vars = list(seed.vars)
    new_vars[k] = parts.new_var
    return replace(
        seed,
        lmat=lp,
        bmat=bp,
        dvec=mutate_dvector(seed.dvec, k, parts.a_pos),
        vars=tuple(new_vars),
        history=seed.history + (k,),
    )


def mutate(seed: QuantumSeed, k: int) -> QuantumSeed:
    """Mutation in direction k, with every changed invariant certified:

    - compatibility of degree 2 of (mu_k L, mu_k B~), checked;
    - homogeneity of the new variable of weight mu_k(D)_k, checked;
    - q-commutation of the new variable against all others per mu_k(L),
      proved from the parent and the two facts above.

    The proof is one step of Berenstein-Zelevinsky's theorem that a mutated
    quantum seed is again a quantum seed (Quantum cluster algebras,
    Adv. Math. 2005).  Take j != k.  The parent's variables q-commute per
    L.  The child passes check_compatible, so the parent's column k is
    compatible too, and since a' - a'' is column k of B~ this gives
    a'^T L e_j = a''^T L e_j: both monomials of the numerator N commute
    with X_j up to one and the same power v^c.  exact_left_div returns
    only a quotient with X_k X'_k = N on the nose, so
    X_k (X_j X'_k) = v^{c - lambda_jk} X_k (X'_k X_j), and the torus is a
    domain: X_j X'_k = v^{c - lambda_jk} X'_k X_j, the power that row k
    of mu_k(L) = a''^T L records.  Unchanged pairs keep their variables
    and L entries.  An incompatible input fails the same compatibility
    check: the step is (L, B~) -> (E^T L E, E B~ F) with E, F invertible,
    so B~'^T L' = F^T (B~^T L) E is compatible only if B~^T L was.

    The argument needs a certified parent.  A seed that did not come from
    validate_full, initial or mutate (the JSON loader,
    dataclasses.replace) is validated in full once first.  run_suite's lambda_mutation re-derives
    every new variable's q-commutation in the torus, as the independent
    oracle.
    """
    if not seed._certified:
        seed.validate_full()
    new_seed = _child(seed, exchange_parts(seed, k))
    check_compatible(new_seed.lmat, new_seed.bmat)
    w = homogeneity_witness(new_seed, (k,))
    if w:
        raise EngineInvariantError("mutation in direction %d: %s" % (k + 1, w))
    object.__setattr__(new_seed, "_certified", True)
    return new_seed


def mutate_seq(seed: QuantumSeed, ks) -> QuantumSeed:
    """Fold mutate over a sequence of directions."""
    for k in ks:
        seed = mutate(seed, k)
    return seed
