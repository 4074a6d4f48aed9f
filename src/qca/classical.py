"""Commutative shadow of seed mutation at q = 1.

This is the independent cross-check oracle: ordinary Laurent polynomials
over Z in the initial cluster variables, mutated by the classical exchange
relation

    x_k' = (prod_{b_ik > 0} x_i^{b_ik} + prod_{b_ik < 0} x_i^{-b_ik}) / x_k.

Nothing here touches the quantum torus code: the representation (exponent
tuple -> int), the product, the exact division and the matrix mutation are
all written out again, so a bug on either side shows up as a mismatch when
the quantum variables are specialized at v = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

__all__ = [
    "ClassicalSeed",
    "classical_shadow",
    "classical_mutate",
    "with_new_var",
    "compare_q1",
]


def cl_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for a, c in g.items():
        n = out.get(a, 0) + c
        if n:
            out[a] = n
        else:
            out.pop(a, None)
    return out


def cl_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for a, c in f.items():
        for b, d in g.items():
            key = tuple(map(add, a, b))
            n = out.get(key, 0) + c * d
            if n:
                out[key] = n
            else:
                out.pop(key, None)
    return out


def cl_pow(f: dict, n: int) -> dict:
    assert n >= 0
    if n == 0:
        return {(0,) * _rank(f): 1}
    acc = f
    for _ in range(n - 1):
        acc = cl_mul(acc, f)
    return acc


def _rank(f: dict) -> int:
    return len(next(iter(f)))


def cl_div_exact(num: dict, den: dict) -> dict:
    """num / den by lex leading-term peeling; ValueError if not exact.

    Z[x^{+-1}] is a domain, so a quotient s with den * s = num has, in each
    variable x_i, degrees running exactly from (lowest x_i-degree of num) -
    (lowest of den) to (highest of num) - (highest of den).  A peeled
    exponent outside those ranges refutes divisibility, and the peeled
    exponents fall in lex order, so the loop is finite.
    """
    if not den:
        raise ZeroDivisionError("classical division by zero")
    if not num:
        return {}
    ranges = [
        (min(nc) - min(dc), max(nc) - max(dc))
        for nc, dc in zip(zip(*num), zip(*den))
    ]
    lt_d = max(den)
    cd = den[lt_d]
    rem = dict(num)
    out: dict = {}
    while rem:
        lt_r = max(rem)
        key = tuple(map(sub, lt_r, lt_d))
        for x, (lo, hi) in zip(key, ranges):
            if x < lo or x > hi:
                raise ValueError(
                    "classical division is not exact (quotient degree out of range)")
        q, r = divmod(rem[lt_r], cd)
        if r:
            raise ValueError("classical division is not exact")
        out[key] = q
        for b, c in den.items():
            k2 = tuple(map(add, b, key))
            n = rem.get(k2, 0) - c * q
            if n:
                rem[k2] = n
            else:
                rem.pop(k2, None)
    return out


@dataclass(frozen=True)
class ClassicalSeed:
    """b-matrix data (plain tuples) and one Laurent polynomial per index."""

    rows: tuple[tuple[int, ...], ...]
    ex: tuple[int, ...]
    vars: tuple[dict, ...]

    @property
    def k(self) -> int:
        return len(self.rows)


def classical_shadow(qseed) -> ClassicalSeed:
    """Initial classical seed with the same B~ data and unit generators."""
    k = qseed.bmat.k
    gens = tuple(
        {tuple(1 if j == i else 0 for j in range(k)): 1} for i in range(k)
    )
    return ClassicalSeed(rows=qseed.bmat.rows, ex=qseed.bmat.ex, vars=gens)


def _mutate_rows(rows, ex, k):
    kpos = ex.index(k)
    out = []
    for i in range(len(rows)):
        if i != k and not rows[i][kpos]:
            # b_ik = 0 leaves row i as it is
            out.append(rows[i])
            continue
        row = []
        for jpos, j in enumerate(ex):
            b = rows[i][jpos]
            if i == k or j == k:
                row.append(-b)
            else:
                bik = rows[i][kpos]
                bkj = rows[k][jpos]
                sign = -1 if bik < 0 else 1
                row.append(b + sign * max(bik * bkj, 0))
        out.append(tuple(row))
    return tuple(out)


def _times(acc, f: dict) -> dict:
    return f if acc is None else cl_mul(acc, f)


def classical_mutate(cs: ClassicalSeed, k: int) -> ClassicalSeed:
    if k not in cs.ex:
        raise ValueError("direction %d is frozen" % (k + 1))
    kpos = cs.ex.index(k)
    # each monomial starts from its first factor (None before it)
    plus = minus = None
    for i in range(cs.k):
        b = cs.rows[i][kpos]
        if b > 0:
            plus = _times(plus, cl_pow(cs.vars[i], b))
        elif b < 0:
            minus = _times(minus, cl_pow(cs.vars[i], -b))
    one = {(0,) * cs.k: 1}
    plus, minus = (one if m is None else m for m in (plus, minus))
    return with_new_var(cs, k, cl_div_exact(cl_add(plus, minus), cs.vars[k]))


def with_new_var(cs: ClassicalSeed, k: int, new_var: dict) -> ClassicalSeed:
    """mu_k(cs) given the new variable of its exchange, as classical_mutate
    divides it: the rows are mutated here and x_k is replaced."""
    new_vars = list(cs.vars)
    new_vars[k] = new_var
    return ClassicalSeed(
        rows=_mutate_rows(cs.rows, cs.ex, k), ex=cs.ex, vars=tuple(new_vars)
    )


def compare_q1(qseed, cs: ClassicalSeed) -> list:
    """Indices where specializing the quantum variable at v = 1 disagrees
    with the classical shadow (empty list = everything matches)."""
    bad = []
    for i in range(qseed.k):
        if qseed.vars[i].specialize_q1() != cs.vars[i]:
            bad.append(i)
    return bad
