"""Exact arithmetic in a based quantum torus over Z[v^{+-1}], v^2 = q.

The torus P(L) attached to a skew-symmetric integer matrix L = (lambda_ij)
has generators X_1..X_K with X_i X_j = q^{lambda_ij} X_j X_i and basis the
normalized monomials

    X^a = q^{(1/2) sum_{i>j} a_i a_j lambda_ij} X_1^{a_1} ... X_K^{a_K},

in which products close up as X^a X^b = v^{aT L b} X^{a+b} (the v-exponent
aT L b = sum_{i,j} lambda_ij a_i b_j is always an integer).  Everything in
this module is exact: coefficients are maps v-exponent -> Python int.

Elements are value-like; treat them as immutable.  ``terms`` is the
canonical form (a dict of coefficient dicts).  Products and exact division
work on a packed copy of it (``qca.coeffs``): each coefficient becomes one
Python int holding its balanced base-2^W digits (Kronecker substitution),
so a coefficient convolution is a single bigint multiply.  The digit width
W always comes from a proven bound on the result, so the packing is exact
for every input; a run of digits is encoded and decoded in one conversion
(offset binary through ``array``).

Every product is a PackedSum: a sum of products of elements, multiplied
on packed runs at one width W, fixed before any product from
B = sum prod_i ||x_i||_1^{c_i}, which bounds every partial sum of their
coefficients.  x * y is a PackedSum of one product of two factors, and
x.pow(n) one of a single factor taken n times.  The exchange
relation of seed mutation divides such a sum, v^{t'} prod_i x_i^{c'_i} +
v^{t''} prod_i x_i^{c''_i}, by X_k: exact_left_div peels the sum of its
runs as it is; a TorusElem numerator is packed as a PackedSum of one
product.  When the lead of X_k is a unit +-v^t (as for every cluster
variable), each quotient coefficient is the lead's run shifted and
signed.  q-commutation with a single-term side needs no product.

Inside a product or a division, an exponent vector is keyed by one int,
its components as balanced base-2^V digits, with V fixed with W from a
proven bound (see the comment on exponent keys).  One loop, _mul_packed,
adds the ordered run pairs of every product and of every peel step of the
division.  A run pair costs one int add for its key, one list read for
its twist (each term's twists against the whole other operand come from
one pass), one bigint multiply and one shift-add, which lands the piece
in its key's runs by the rule stated in _mul_packed.  A product that
opens with a power x^c, c >= 2, starts from x^2, which takes one pair per
unordered pair of x's n runs, n (n + 1) / 2 instead of n^2
(_square_packed): coefficients are central, and the twists of X^a X^b
and X^b X^a are s and -s, so the two ordered pairs give one multiply,
and one shift-add when their pieces join.  Each partial sum it forms is
a sum of some of the ordered product's contributions, so W holds it.
The peel drops a popped key held as one run that has cancelled to 0
before any other work on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import gcd
from operator import add, mul, neg, sub

from .coeffs import (
    _SPAN,
    add_piece,
    collect,
    digit_width,
    norm_and_stride,
    pack,
    qc_bar,
    qc_const,
    qc_div_exact,
    qc_is_nonneg,
    qc_mul,
    qc_neg,
    qc_shift,
    qc_str,
    qc_v,
    trim_run,
)
from .errors import NotDivisibleError, as_int

__all__ = [
    "LMatrix",
    "PackedSum",
    "TorusElem",
    "exact_left_div",
    "q_commute_exponent",
    "qc_const",
    "qc_v",
    "qc_mul",
    "qc_shift",
    "qc_div_exact",
]


# ---------------------------------------------------------------------------
# exponent keys
#
# Products and exact division key an exponent vector a = (a_1, ..., a_K)
# by the int E(a) = sum_i a_i M^(K-i), M = 2^V, whose balanced base-M
# digits are a_K (lowest) up to a_1.  E is linear, so E(a) + E(b) =
# E(a + b): the exponent of a product costs one int add.  Let every
# component of a and b lie in [-M/2, M/2), and let a < b in lex order,
# first differing at i.  Since |b_j - a_j| <= M - 1,
#
#     E(b) - E(a) >= M^(K-i) - (M - 1) sum_{j>i} M^(K-j) = 1,
#
# so E is injective and int order on keys is lex order on exponents: the
# max of the keys is the lex-leading exponent.  V = digit_width(e) for a
# bound e on every component met, so e < M/2:
# - an exponent of a product of factors x_j^{c_j}, or of a partial
#   product, has components at most sum_j c_j e(x_j) in absolute value,
#   e(x) = max |a_i| over supp x; a PackedSum takes the max over its
#   products;
# - exact_left_div keys its remainder at q's V.  The remainder's keys are
#   q's, and E(b + aq) = E(b) + E(aq) for b in supp p and a quotient
#   exponent aq that passed the Newton-box check, so b + aq lies in the
#   bounding box of q's support and within e(q).  p's keys and the
#   quotient keys E(ar) - E(ap) are only ever added, and E is linear over
#   all integers, so they need no bound; the lead ap is chosen by its
#   vector, not by its key.
#
# Every key is stored with its vector: a packed factor's entries hold
# both, and a product or a remainder maps E(a) -> (a, runs), where a new
# key gets the sum of the pair that made it.  The vectors go into
# TorusElem terms, the twists and the Newton box; no key is ever decoded.

def _sizes(x) -> tuple:
    """(||x||_1, stride, e(x)) of an element x, e(x) = max |a_i| over its
    exponents a; computed once per element."""
    try:
        return x._sizes
    except AttributeError:
        terms = x.terms
        e = max(max(map(max, terms)), -min(map(min, terms))) if terms and x.ambient.k else 0
        sizes = (*norm_and_stride(terms), e)
        object.__setattr__(x, "_sizes", sizes)
        return sizes


def _packed(x, w: int, g: int, v: int) -> list:
    """[(E(a), a, L a, lo, n), ...], one entry per run [lo, n] of the
    coefficient of each term a of x at (W, g), keyed at width V; computed
    once per element and widths, so each twist vector L a is too.
    Nothing changes the cached entries: products read them."""
    cached = getattr(x, "_packed", None)
    if cached is None or cached[0] != (w, g, v):
        lam, weights = x.ambient.rows, _weights(v, x.ambient.k)
        entries = []
        for a, cf in x.terms.items():
            # L a = -(aT L), since L is skew-symmetric
            ka, la = sum(map(mul, a, weights)), _combine_rows(lam, map(neg, a))
            entries += [(ka, a, la, lo, n) for lo, n in pack(cf, w, g)]
        cached = (w, g, v), entries
        object.__setattr__(x, "_packed", cached)
    return cached[1]


@lru_cache(maxsize=64)
def _weights(v: int, k: int) -> tuple:
    """(M^(K-1), ..., M, 1) for M = 2^V, so that E(a) = sum(map(mul, a, weights))."""
    return tuple([1 << (v * i) for i in range(k - 1, -1, -1)])


# ---------------------------------------------------------------------------
# products on packed coefficients

def _combine_rows(rows, a) -> list:
    """sum_i a_i rows[i] as a list, for rows of any common width.  With
    rows = L it is aT L, so that aT L b = sum(map(mul, _combine_rows(L, a), b))."""
    out = None
    for ai, ri in zip(a, rows):
        if ai:
            if ai != 1:
                ri = map(mul, repeat(ai), ri)
            out = list(ri) if out is None else list(map(add, out, ri))
    if out is None:
        return [0] * len(rows[0]) if rows else []
    return out


def _mul_packed(xs, ys: list, w: int, g: int, acc: dict) -> dict:
    """acc += x y, returned, for x given by pairs (E(a), (a, runs of a))
    and y by entries (E(b), b, vec_b, lo, n) as _packed gives them, at the
    same (W, g) and V; acc maps E(c) -> (c, runs of c).  The twist of a
    pair is v^{vec_b . a}: a product passes vec_b = L b, so the twist is
    aT L b, and exact_left_div passes bT L, so it is bT L aq.  Each pair
    of runs costs one int add for its key, one list read for its twist
    (those of a term of x against every run of y come from one pass), one
    bigint multiply and one shift-add into the runs of its key.

    The rule by which a piece lands, which _square_packed follows too: a
    new key gets the piece as its run.  When the key holds one run and
    the piece starts on its stride, at or above its lo and at most _SPAN
    strides above it, the piece is added to that run in line, as the
    first branch of add_piece would; any other piece goes through
    add_piece.  The caller's W bounds every partial sum of an output
    coefficient, and its V every exponent.  Neither operand is changed.
    """
    span = _SPAN * g
    for ka, (a, runs) in xs:
        twists = [lb + sum(map(mul, vb, a)) for _, _, vb, lb, _ in ys]
        for la, na in runs:
            if na:
                for (kb, b, _, _, nb), t in zip(ys, twists):
                    kc = ka + kb
                    into = acc.get(kc)
                    if into is None:
                        acc[kc] = (tuple(map(add, a, b)), [[la + t, na * nb]])
                        continue
                    target = into[1]
                    if len(target) == 1:
                        run = target[0]
                        d = la + t - run[0]
                        if 0 <= d <= span and not d % g:
                            run[1] += na * nb << (w * (d // g))
                            continue
                    add_piece(target, la + t, na * nb, w, g)
    return acc


def _square_packed(xs: list, t: int, w: int, g: int) -> dict:
    """v^t x^2 as E(c) -> (c, runs of c), for x given by its entries
    (E(a), a, L a, lo, n) as _packed gives them, one pair of runs per
    unordered pair.  A run paired with itself gives n^2 at X^{2a}, since
    aT L a = 0.  Coefficients are central, so the two ordered pairs of two
    runs give m v^s X^{a+b} and m v^-s X^{a+b}, m = n_a n_b, s = aT L b
    (0 when a = b): one piece m + m v^{2|s|} at v^-|s|, packed as one int
    when 2|s| is a multiple of g and at most _SPAN strides, else the two
    pieces, v^|s| first.  Each run's pieces land as in _mul_packed.  Every
    partial sum of an output coefficient is a sum of some of its
    contributions, as in _mul_packed, so the caller's W holds it.
    """
    span = _SPAN * g
    acc: dict = {}
    for i, (ka, a, _, la, na) in enumerate(xs):
        pieces = [(2 * ka, a, a, 2 * la + t, na * na)]
        la += t
        for kb, b, vb, lb, nb in xs[i + 1:]:
            s, m = abs(sum(map(mul, vb, a))), na * nb
            lo = la + lb - s
            if 2 * s % g or 2 * s > span:
                pieces.append((ka + kb, a, b, lo + 2 * s, m))
            else:
                m += m << (w * (2 * s // g))
            pieces.append((ka + kb, a, b, lo, m))
        for kc, a, b, lo, m in pieces:
            into = acc.get(kc)
            if into is None:
                acc[kc] = (tuple(map(add, a, b)), [[lo, m]])
                continue
            target = into[1]
            if len(target) == 1:
                run = target[0]
                d = lo - run[0]
                if 0 <= d <= span and not d % g:
                    run[1] += m << (w * (d // g))
                    continue
            add_piece(target, lo, m, w, g)
    return acc


# ---------------------------------------------------------------------------
# the based torus

@dataclass(frozen=True)
class LMatrix:
    """Skew-symmetric integer K x K matrix defining the torus."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k = len(self.rows)
        if any(len(row) != k for row in self.rows):
            raise ValueError("L matrix must be square")
        for i in range(k):
            for j in range(i, k):
                if self.rows[i][j] != -self.rows[j][i]:
                    raise ValueError(
                        "L matrix must be skew-symmetric (entries (%d, %d), (%d, %d))"
                        % (i + 1, j + 1, j + 1, i + 1)
                    )

    @classmethod
    def from_rows(cls, rows) -> "LMatrix":
        return cls(tuple(tuple(map(as_int, row)) for row in rows))

    @property
    def k(self) -> int:
        return len(self.rows)


def _checked_coeff(coeff) -> dict:
    """The coefficient dict of an int or a dict v-exponent -> int, its zero
    entries left out; ValueError for anything that is not an integer."""
    if isinstance(coeff, dict):
        return {as_int(e): c for e, c in coeff.items() if as_int(c)}
    return qc_const(as_int(coeff))


class TorusElem:
    """An element of the torus, stored on the normalized monomial basis.

    ``terms`` maps an exponent vector (tuple of K ints) to its coefficient
    dict.  Do not mutate either after construction.

    >>> L = LMatrix.from_rows([[0, 1], [-1, 0]])
    >>> x = TorusElem.monomial(L, (1, 0)) * TorusElem.monomial(L, (0, 1))
    >>> x == TorusElem.monomial(L, (1, 1), qc_v(1))
    True
    """

    # _sizes and _packed are filled when the element is first packed
    __slots__ = ("ambient", "terms", "_sizes", "_packed")

    def __init__(self, ambient: LMatrix, terms: dict, _trusted: bool = False):
        if not _trusted:
            k = ambient.k
            clean: dict = {}
            for a, cf in terms.items():
                a = tuple(map(as_int, a))
                if len(a) != k:
                    raise ValueError("exponent length does not match torus rank")
                cf = _checked_coeff(cf)
                if cf:
                    clean[a] = cf
            terms = clean
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("TorusElem is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ambient: LMatrix) -> "TorusElem":
        return cls(ambient, {}, _trusted=True)

    @classmethod
    def one(cls, ambient: LMatrix) -> "TorusElem":
        return cls.monomial(ambient, (0,) * ambient.k)

    @classmethod
    def monomial(cls, ambient: LMatrix, exp, coeff=None) -> "TorusElem":
        """c * X^exp; ``coeff`` is a coefficient dict or int (default 1)."""
        exp = tuple(map(as_int, exp))
        if len(exp) != ambient.k:
            raise ValueError("exponent length does not match torus rank")
        coeff = {0: 1} if coeff is None else _checked_coeff(coeff)
        if not coeff:
            return cls.zero(ambient)
        return cls(ambient, {exp: coeff}, _trusted=True)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def n_terms(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusElem):
            return NotImplemented
        return self.ambient == other.ambient and self.terms == other.terms

    __hash__ = None  # mutable dict payload; equality only

    def __repr__(self) -> str:
        if self.is_zero():
            return "TorusElem(0)"
        bits = []
        for a in sorted(self.terms, reverse=True):
            bits.append("(%s)*X^%s" % (qc_str(self.terms[a]), str(a)))
        return "TorusElem(%s)" % " + ".join(bits)

    # -- ring operations ---------------------------------------------------

    def _require_same(self, other: "TorusElem") -> None:
        if self.ambient != other.ambient:
            raise ValueError("torus elements live in different ambients")

    def __add__(self, other: "TorusElem") -> "TorusElem":
        self._require_same(other)
        out = {a: dict(cf) for a, cf in self.terms.items()}
        for a, cf in other.terms.items():
            acc = out.get(a)
            if acc is None:
                out[a] = dict(cf)
                continue
            for e, cv in cf.items():
                nv = acc.get(e, 0) + cv
                if nv:
                    acc[e] = nv
                else:
                    del acc[e]
            if not acc:
                del out[a]
        return TorusElem(self.ambient, out, _trusted=True)

    def __neg__(self) -> "TorusElem":
        out = {a: qc_neg(cf) for a, cf in self.terms.items()}
        return TorusElem(self.ambient, out, _trusted=True)

    def __sub__(self, other: "TorusElem") -> "TorusElem":
        return self + (-other)

    def __mul__(self, other: "TorusElem") -> "TorusElem":
        return PackedSum(self.ambient, [(0, [(self, 1), (other, 1)])])[0]

    def scaled(self, coeff) -> "TorusElem":
        """Multiply by a central coefficient (dict or int)."""
        coeff = _checked_coeff(coeff)
        out = {}
        for a, cf in self.terms.items():
            nf = qc_mul(cf, coeff)
            if nf:
                out[a] = nf
        return TorusElem(self.ambient, out, _trusted=True)

    def v_shift(self, e: int) -> "TorusElem":
        """Multiply by v^e."""
        if e == 0:
            return self
        out = {a: qc_shift(cf, e) for a, cf in self.terms.items()}
        return TorusElem(self.ambient, out, _trusted=True)

    def pow(self, n: int) -> "TorusElem":
        """n-th power; n < 0 needs an invertible monomial (+-v^k X^a), and
        a non-integer n raises ValueError.

        >>> lam = LMatrix.from_rows([[0, 1], [-1, 0]])
        >>> x = TorusElem.monomial(lam, (2, -1))
        >>> (x.pow(-1) * x) == TorusElem.one(lam)
        True
        """
        n = as_int(n)
        if n < 0:
            inv = None
            if len(self.terms) == 1:
                ((a, cf),) = self.terms.items()
                if len(cf) == 1:
                    ((k, c),) = cf.items()
                    if c in (1, -1):
                        # (c v^k X^a)^{-1} = c v^{-k} X^{-a}, since a^T L a = 0
                        exp = tuple(-e for e in a)
                        inv = TorusElem.monomial(self.ambient, exp, {-k: c})
            if inv is None:
                raise ValueError("negative powers only exist for invertible monomials")
            return inv.pow(-n)
        if n == 0:
            return TorusElem.one(self.ambient)
        return PackedSum(self.ambient, [(0, [(self, n)])])[0]

    # -- the extra structure the engine verifies ---------------------------

    def bar(self) -> "TorusElem":
        """The bar involution: v -> v^{-1}, X^a -> X^a (an anti-automorphism)."""
        out = {a: qc_bar(cf) for a, cf in self.terms.items()}
        return TorusElem(self.ambient, out, _trusted=True)

    def specialize_q1(self) -> dict:
        """Set v = 1: a commutative Laurent polynomial {exp: int}."""
        out = {}
        for a, cf in self.terms.items():
            s = sum(cf.values())
            if s:
                out[a] = s
        return out

    def is_nonneg(self) -> bool:
        """All coefficients in Z_{>=0}[v^{+-1}]?"""
        return all(qc_is_nonneg(cf) for cf in self.terms.values())


class PackedSum:
    """A sum of ordered products, sum_i v^{t_i} x_i1^{c_i1} x_i2^{c_i2} ...,
    computed on packed runs: every torus product (x * y, x.pow(n)) and
    every numerator of exact_left_div(p, .).

    products holds one (t_i, ((x_i1, c_i1), (x_i2, c_i2), ...)) per
    product, every c >= 1; a product with no factors is v^{t_i}, and one
    with a zero factor is zero.  Each factor has its norm and exponent
    bound taken once per element, and is packed, with the key E(a) and the
    twist vector L a of each exponent, once per element and widths (W, g,
    V), by the first nonzero product that holds it; a zero product packs
    nothing, since W need not cover its factors.  A product maps the key
    of each exponent a to (a, its runs [lo, n]) (``qca.coeffs``).  It
    starts from the runs of its first factor, or from the run [0, 1] when
    it has none, shifted by v^t (t added to every lo), and multiplies in
    the other factors from the left, one power at a time (_mul_packed).
    When it opens with a power x^c, c >= 2 (x.pow(n), x * x of one
    element, a squared variable of an exchange numerator), it starts from
    v^t x^2 instead, one pair per unordered pair of x's runs
    (_square_packed), and multiplies in x^(c-2) and the rest as above.
    exact_left_div takes the sum of the products' runs as its starting
    remainder, so the sum is never unpacked; an exponent whose runs cancel
    stays a key of that remainder.  s[i] is product i as a TorusElem,
    unpacked when it is first read, and s.total their sum, collected once
    from that remainder.

    One width W serves the products and their sum, fixed before any
    product.  A partial sum of a coefficient of product i is at most
    B_i = prod_j ||x_ij||_1^{c_ij} (the norm is submultiplicative), so
    every partial sum of the sum is at most B = sum_i B_i (``bound``).  W
    covers 2 B, and the stride g divides that of every factor; the divisor
    sets neither, so any divisor can use one PackedSum (see exact_left_div).
    In the same pass, e = max_i sum_j c_ij e(x_ij), e(x) = max |a_k| over
    supp x, bounds every component of every exponent of a product or a
    partial product, and the key width V = digit_width(e) makes e < 2^(V-1)
    = M/2, so E is additive, injective and lex-ordered on all of them.

    >>> lam = LMatrix.from_rows([[0, 1], [-1, 0]])
    >>> PackedSum(lam, [(3, [])])[0]
    TorusElem((v^3)*X^(0, 0))
    >>> x = TorusElem.monomial(lam, (1, 0)) + TorusElem.monomial(lam, (0, 1))
    >>> s = PackedSum(lam, [(0, [(x, 2)]), (1, [(x, 1)])])
    >>> s[0] == x * x, s[1] == x.v_shift(1), s.total == x * x + x.v_shift(1)
    (True, True, True)
    """

    __slots__ = ("ambient", "bound", "w", "g", "v", "_runs", "_parts", "_total")

    def __init__(self, ambient: LMatrix, products):
        bounds = []
        e = g = 0
        for _, factors in products:
            b = 1
            ei = 0
            for x, c in factors:
                if x.ambient != ambient:
                    raise ValueError("torus elements live in different ambients")
                l1, stride, ex = _sizes(x)
                b *= l1 ** c
                ei += c * ex
                g = gcd(g, stride)
            bounds.append(b)
            e = max(e, ei)
        bound = sum(bounds)
        g = g or 1
        w, v = digit_width(2 * bound), digit_width(e)
        self._runs = []
        for (t, factors), b in zip(products, bounds):
            out = {}
            if b:
                powers = []
                for x, c in factors:
                    powers += [_packed(x, w, g, v)] * c
                if len(powers) > 1 and powers[0] is powers[1]:
                    # a power x^c, c >= 2, opens the product: x^2 first
                    out, powers = _square_packed(powers[0], t, w, g), powers[1:]
                elif powers:
                    for ka, a, _, lo, n in powers[0]:
                        out.setdefault(ka, (a, []))[1].append([lo + t, n])
                else:
                    out[0] = ((0,) * ambient.k, [[t, 1]])
                for ys in powers[1:]:
                    out = _mul_packed(out.items(), ys, w, g, {})
            self._runs.append(out)
        self.ambient, self.bound, self.w, self.g, self.v = ambient, bound, w, g, v
        self._parts = [None] * len(products)
        self._total = None

    def __getitem__(self, i: int) -> TorusElem:
        """Product i; an exponent whose runs cancel is left out."""
        if self._parts[i] is None:
            self._parts[i] = self._collected(self._runs[i])
        return self._parts[i]

    @property
    def total(self) -> TorusElem:
        """The sum of the products; an exponent whose runs cancel is left
        out."""
        if self._total is None:
            self._total = self._collected(self._remainder())
        return self._total

    def _collected(self, runs: dict) -> TorusElem:
        w, g = self.w, self.g
        terms = {a: cf for a, rs in runs.values() if (cf := collect(rs, w, g))}
        return TorusElem(self.ambient, terms, _trusted=True)

    def _remainder(self) -> dict:
        """The sum of the products' runs, E(a) -> (a, runs), in lists of
        its own."""
        rem: dict = {}
        for r in self._runs:
            for ka, (a, runs) in r.items():
                into = rem.get(ka)
                if into is None:
                    rem[ka] = (a, [[lo, n] for lo, n in runs])
                else:
                    for lo, n in runs:
                        add_piece(into[1], lo, n, self.w, self.g)
        return rem


def exact_left_div(p: TorusElem, q) -> TorusElem:
    """The unique s with p * s = q, if it exists in the torus; q is a
    TorusElem or a PackedSum.

    Peels the lex-leading term of the remainder: lex order on exponent
    vectors is a group order, so LT(p * s) = LT(p) * LT(s) and each quotient
    term is forced.  Raises NotDivisibleError with reason "coefficient" when
    a forced coefficient division leaves Z[v^{+-1}], or "newton_box" when a
    forced quotient exponent leaves the Newton box below.

    The torus is a domain, so the Newton polytope of p * s is the Minkowski
    sum of those of p and s: in every coordinate i, min_i q = min_i p +
    min_i s and max_i q = max_i p + max_i s.  Every exponent of s therefore
    lies in the box [min q - min p, max q - max p], taken over the nonzero
    terms of q.  The peeled exponents strictly decrease in lex order inside
    that finite box, so the loop ends.

    The remainder stays packed: a TorusElem q is packed once as a PackedSum
    of one product, and the sum of a PackedSum's runs is the remainder as
    it is.  A popped key held as one run that has cancelled to 0 is
    dropped before anything else is done with it; otherwise only the
    remainder's leading coefficient is unpacked (collect), once per peel.
    Every partial sum of a remainder coefficient is bounded by
    ||q||_1 + ||p||_1 ||s_partial||_1 (the PackedSum's bound standing for
    ||q||_1), so W starts from the PackedSum's 2 ||q||_1, and it is widened
    when that bound grows.  p is packed only once s_partial has a term,
    when the bound already covers p's entries; an entry off the stride g
    packs into a run of its own.  When the leading coefficient of p is a
    unit +-v^t, as for every cluster variable, the quotient coefficient is
    the lead's run itself, shifted and signed, and it is subtracted without
    being packed again.

    The remainder is keyed by E at q's own width V, which bounds every
    exponent it holds (see the comment on exponent keys), so its largest
    key is its lex-leading exponent.  Each peel step subtracts p less its
    lead times the new quotient term c X^aq through the product loop
    (_mul_packed), with -c X^aq as the outer operand and p's runs, each
    with bT L, packed once per width as the inner one.

    >>> L = LMatrix.from_rows([[0, 1], [-1, 0]])
    >>> q = TorusElem.monomial(L, (2, 1), qc_v(3))
    >>> s = exact_left_div(TorusElem.monomial(L, (1, 0)), q)
    >>> s == TorusElem.monomial(L, (1, 1), qc_v(2))
    True
    """
    p._require_same(q)
    if p.is_zero():
        raise ZeroDivisionError("left division by zero")
    if isinstance(q, TorusElem):
        q = PackedSum(p.ambient, [(0, [(q, 1)])])
    lam, pt = p.ambient.rows, p.terms
    ap = max(pt)
    cp = pt[ap]
    lead_row = _combine_rows(lam, ap)
    w, g, v, q_l1 = q.w, q.g, q.v, q.bound
    p_l1 = _sizes(p)[0]
    rem = q._remainder()
    support = [a for a, runs in rem.values()
               if (runs[0][1] if len(runs) == 1 else collect(runs, w, g))]
    if not support:
        return TorusElem.zero(p.ambient)
    box = [(min(qi) - min(pi), max(qi) - max(pi))
           for qi, pi in zip(zip(*support), zip(*pt))]
    # (t, c0) when cp = c0 v^t is a unit: the quotient coefficient that a
    # lead forces is then c0 v^{-t - shift} lead
    unit = None
    if len(cp) == 1:
        ((t, c0),) = cp.items()
        if c0 in (1, -1):
            unit = t, c0
    kp = sum(map(mul, ap, _weights(v, p.ambient.k)))
    pp = None
    s_l1 = 0
    out: dict = {}
    while rem:
        kr = max(rem)
        ar, runs = rem.pop(kr)
        if len(runs) == 1 and not runs[0][1]:
            continue
        aq = tuple(map(sub, ar, ap))
        shift = sum(map(mul, lead_row, aq))
        if unit:
            d = unit[0] + shift
            runs = [[lo - d, unit[1] * n] for lo, n in runs]
        lead = collect(runs, w, g)
        if not lead:
            continue
        for x, (lo, hi) in zip(aq, box):
            if not lo <= x <= hi:
                raise NotDivisibleError(
                    "newton_box",
                    "quotient exponent %s leaves the Newton box %s"
                    % (aq, [list(b) for b in box]),
                )
        if unit:
            # the shifted lead is c; its run is subtracted as it is, less the
            # low digits that cancelled, while a lead gathered in several
            # runs subtracts as fewer runs when it is packed again
            c = lead
            runs = [trim_run(runs[0], w, g)] if len(runs) == 1 else None
        else:
            c, runs = _quotient_coeff(ar, lead, shift, cp), None
        out[aq] = c
        s_l1 += sum(map(abs, c.values()))
        need = digit_width(q_l1 + p_l1 * s_l1)
        if need > w:
            rem, w = _repacked(rem, w, g, need)
            pp = runs = None
        if pp is None:
            # p's runs but its lead's, whose product with the quotient term
            # cancels the popped coefficient; the twist of X^b X^aq is
            # bT L aq, and bT L = -(L b) since L is skew-symmetric
            pp = [(kb, b, [-x for x in lb], lo, n)
                  for kb, b, lb, lo, n in _packed(p, w, g, v) if b != ap]
        if pp:
            # rem += (p less its lead) (-c X^aq), and kr - kp = E(aq)
            negated = [[lo, -n] for lo, n in runs or pack(c, w, g)]
            _mul_packed([(kr - kp, (aq, negated))], pp, w, g, rem)
    return TorusElem(p.ambient, out, _trusted=True)


def _quotient_coeff(ar, lead: dict, shift: int, cp: dict) -> dict:
    """The quotient coefficient that v^{-shift} lead / cp forces, for the
    remainder's leading coefficient lead at X^ar."""
    c = qc_div_exact(qc_shift(lead, -shift), cp)
    if c is None:
        raise NotDivisibleError(
            "coefficient", "leading coefficient at X^%s is not divisible" % (ar,))
    return c


def _repacked(rem: dict, w: int, g: int, need: int):
    """(rem at a width of at least need, with headroom, so that a growing
    quotient repacks only O(log) times; that width).  Exponents whose runs
    cancelled are dropped."""
    wider = max(need, 2 * w)
    return {ka: (a, pack(cf, wider, g)) for ka, (a, runs) in rem.items()
            if (cf := collect(runs, w, g))}, wider


def _is_bar_invariant(x: TorusElem) -> bool:
    for cf in x.terms.values():
        for e, c in cf.items():
            if cf.get(-e) != c:
                return False
    return True


def q_commute_exponent(x: TorusElem, y: TorusElem) -> int | None:
    """gamma with x y = q^gamma y x, or None if no single power works.

    When one side has a single term, the torus relation settles the pair
    without a product.  Take x = c X^a with c in Z[v^{+-1}] (coefficients
    are central) and y = sum_b d_b X^b.  Then

        x y = sum_b c d_b v^{aT L b} X^{a+b},
        y x = sum_b c d_b v^{-aT L b} X^{a+b},

    and the exponents a + b are distinct, while Z[v^{+-1}] is a domain, so
    every c d_b is nonzero.  Hence x y = v^{2 gamma} y x exactly when
    aT L b = gamma for every b in supp(y): gamma exists iff aT L b is the
    same for all of them, and it is that value.  In the mirror case
    y = d X^b, x = sum_a c_a X^a, gamma = aT L b over a in supp(x), which
    is -(bT L a) since L is skew-symmetric.  For two single-term elements
    this is gamma = aT L b.

    For other pairs, bar is an anti-automorphism, so when x and y are both
    bar-invariant (every quantum cluster variable is), y x = bar(x y) and
    one product suffices; if not, y x is computed as a second product.
    None is also returned when the uniform v-exponent comes out odd (a
    genuine half-integer q-power, which the engine treats as not
    q-commuting since gamma must be an integer).

    >>> L = LMatrix.from_rows([[0, 1], [-1, 0]])
    >>> x, y = TorusElem.monomial(L, (1, 0)), TorusElem.monomial(L, (0, 1))
    >>> q_commute_exponent(x, y + TorusElem.monomial(L, (2, 1)))
    1
    >>> q_commute_exponent(x, y + TorusElem.monomial(L, (1, 0))) is None
    True
    """
    if x.is_zero() or y.is_zero():
        raise ValueError("q-commutation is defined for nonzero elements")
    x._require_same(y)
    if len(x.terms) == 1 or len(y.terms) == 1:
        lam = x.ambient.rows
        if len(x.terms) == 1:
            (a,) = x.terms
            row, sign, others = _combine_rows(lam, a), 1, y.terms
        else:
            (b,) = y.terms
            row, sign, others = _combine_rows(lam, b), -1, x.terms
        gammas = {sum(map(mul, row, e)) for e in others}
        return sign * gammas.pop() if len(gammas) == 1 else None
    both_bar = _is_bar_invariant(x) and _is_bar_invariant(y)
    prod = x * y
    xy = prod.terms
    yx = prod.bar().terms if both_bar else (y * x).terms
    if set(xy) != set(yx):
        return None
    a = next(iter(xy))
    fa, ga = xy[a], yx[a]
    if len(fa) != len(ga):
        return None
    c = min(fa) - min(ga)
    for a, cf in xy.items():
        if qc_shift(yx[a], c) != cf:
            return None
    if c % 2:
        return None
    return c // 2
