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
(offset binary through ``array``).  A product with a monomial operand
c v^s X^a and exact division by a single-term divisor need no packing, and
q-commutation with a single-term side needs no product.

The exchange relation of seeds.mutate divides a sum of products of
variables, v^{t'} prod_i x_i^{c'_i} + v^{t''} prod_i x_i^{c''_i}, by X_k.
A PackedSum multiplies those products on packed runs at one width W, fixed
before any product from ||X_k||_1 and B = sum prod_i ||x_i||_1^{c_i}, which
bounds every partial sum of their coefficients.  exact_left_div peels the
sum of their runs as it is, so the numerator is never unpacked, and when
the lead of X_k is a unit +-v^t (as for every cluster variable), each
quotient coefficient is the lead's run shifted and signed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import add, mul, sub

from .coeffs import (
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

# the only arithmetic implementation; kept as a constant for callers that
# stamp results with it
KERNEL_BACKEND = "python"

__all__ = [
    "KERNEL_BACKEND",
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
# products on packed coefficients

def _combine_rows(rows, a) -> list:
    """sum_i a_i rows[i] as a list, for rows of any common width.  With
    rows = L it is aT L, so that aT L b = sum(map(mul, _combine_rows(L, a), b))."""
    out = [0] * len(rows[0]) if rows else []
    for ai, ri in zip(a, rows):
        if ai:
            out = [r + ai * x for r, x in zip(out, ri)]
    return out


def _pack_terms(terms: dict, w: int, g: int) -> dict:
    """exponent -> the runs of its coefficient, packed at (W, g)."""
    return {a: pack(cf, w, g) for a, cf in terms.items()}


def _unpack_terms(packed: dict, w: int, g: int) -> dict:
    """The terms of a packed element; an exponent whose runs cancel is
    left out."""
    return {a: cf for a, runs in packed.items() if (cf := collect(runs, w, g))}


def _mul_packed(xp: dict, yp: dict, lam, w: int, g: int) -> dict:
    """The product of two packed elements, packed at the same (W, g): each
    pair of runs contributes one bigint product, added into the runs of its
    output exponent.  The caller's W bounds every partial sum of an output
    coefficient.  Neither operand is changed.

    An operand with one term of one run, c X^m, gives each term of the
    other its own output exponent, as in _mul_terms: every run of it is
    multiplied by c and shifted, and nothing is added.
    """
    for one, other, sign in ((xp, yp, 1), (yp, xp, -1)):
        if len(one) == 1:
            ((m, runs),) = one.items()
            if len(runs) == 1:
                ((s, _, c),) = runs
                row = _combine_rows(lam, m)
                out = {}
                for b, b_runs in other.items():
                    t = s + sign * sum(map(mul, row, b))
                    out[tuple(map(add, m, b))] = [[lo + t, hi + t, c * n] for lo, hi, n in b_runs]
                return out
    ys = [(b, lo, n) for b, runs in yp.items() for lo, _, n in runs if n]
    acc: dict = {}
    for a, runs in xp.items():
        row = _combine_rows(lam, a)
        for la, _, na in runs:
            if na:
                for b, lb, nb in ys:
                    s = la + lb + sum(map(mul, row, b))
                    add_piece(acc.setdefault(tuple(map(add, a, b)), []), s, na * nb, w, g)
    return acc


def _mul_terms(xt: dict, yt: dict, lam) -> dict:
    """Product of two term dicts: (c X^a)(d X^b) = c d v^{aT L b} X^{a+b}.

    When one operand is a monomial c v^s X^m (one term, one coefficient
    entry), the exponents of the product are distinct, so each term of the
    other operand is only scaled by c and shifted: X^m X^b = v^{mT L b}
    X^{m+b} on the left, and X^a X^m = v^{aT L m} = v^{-mT L a} X^{a+m}
    on the right (L is skew-symmetric).  Nothing is packed.

    Otherwise both are packed and multiplied by _mul_packed.  An output
    coefficient is a sum of products of input coefficients, so every
    partial sum is at most ||x||_1 ||y||_1 in absolute value; that fixes W.
    A zero operand is settled first, since that bound would then not cover
    the other one.
    """
    if not xt or not yt:
        return {}
    for mono, other, sign in ((xt, yt, 1), (yt, xt, -1)):
        if len(mono) == 1:
            ((m, cf),) = mono.items()
            if len(cf) == 1:
                ((s, c),) = cf.items()
                row = _combine_rows(lam, m)
                out = {}
                for b, df in other.items():
                    t = s + sign * sum(map(mul, row, b))
                    out[tuple(map(add, m, b))] = {e + t: c * d for e, d in df.items()}
                return out
    x_l1, x_g = norm_and_stride(xt)
    y_l1, y_g = norm_and_stride(yt)
    g = gcd(x_g, y_g) or 1
    w = digit_width(x_l1 * y_l1)
    return _unpack_terms(_mul_packed(_pack_terms(xt, w, g), _pack_terms(yt, w, g), lam, w, g),
                         w, g)


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


class TorusElem:
    """An element of the torus, stored on the normalized monomial basis.

    ``terms`` maps an exponent vector (tuple of K ints) to its coefficient
    dict.  Do not mutate either after construction.

    >>> L = LMatrix.from_rows([[0, 1], [-1, 0]])
    >>> x = TorusElem.monomial(L, (1, 0)) * TorusElem.monomial(L, (0, 1))
    >>> x == TorusElem.monomial(L, (1, 1), qc_v(1))
    True
    """

    __slots__ = ("ambient", "terms")

    def __init__(self, ambient: LMatrix, terms: dict, _trusted: bool = False):
        if not _trusted:
            k = ambient.k
            clean: dict = {}
            for a, cf in terms.items():
                a = tuple(int(x) for x in a)
                if len(a) != k:
                    raise ValueError("exponent length does not match torus rank")
                cf = {int(e): int(cv) for e, cv in cf.items() if cv}
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
        exp = tuple(int(x) for x in exp)
        if len(exp) != ambient.k:
            raise ValueError("exponent length does not match torus rank")
        if coeff is None:
            coeff = {0: 1}
        elif isinstance(coeff, int):
            coeff = qc_const(coeff)
        else:
            coeff = {int(e): int(cv) for e, cv in coeff.items() if cv}
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
        self._require_same(other)
        prod = _mul_terms(self.terms, other.terms, self.ambient.rows)
        return TorusElem(self.ambient, prod, _trusted=True)

    def scaled(self, coeff) -> "TorusElem":
        """Multiply by a central coefficient (dict or int)."""
        if isinstance(coeff, int):
            coeff = qc_const(coeff)
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
        """n-th power; n < 0 needs an invertible monomial (+-v^k X^a).

        >>> lam = LMatrix.from_rows([[0, 1], [-1, 0]])
        >>> x = TorusElem.monomial(lam, (2, -1))
        >>> (x.pow(-1) * x) == TorusElem.one(lam)
        True
        """
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
        acc = self
        for _ in range(n - 1):
            acc = acc * self
        return acc

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
    computed on packed runs as the numerator of exact_left_div(divisor, .).

    products holds one (t_i, ((x_i1, c_i1), (x_i2, c_i2), ...)) per
    product, every x nonzero and every c >= 1.  Each distinct factor is
    packed, and its norm taken, once.  A product starts from v^t and takes
    its factors from the left, one power at a time, so a monomial factor
    shifts and scales the runs (_mul_packed) and is never multiplied out.
    exact_left_div takes the sum of the products' runs as its starting
    remainder, so the sum is never unpacked; an exponent whose runs cancel
    stays a key of that remainder.  s[i] is product i as a TorusElem,
    unpacked when it is first read.

    One width W serves the products, their sum and the division, fixed
    before any product.  A partial sum of a coefficient of product i is at
    most B_i = prod_j ||x_ij||_1^{c_ij} (the norm is submultiplicative),
    so every partial sum of the sum is at most B = sum_i B_i (``bound``).
    W covers 2 B and ||divisor||_1, as exact_left_div chooses it for a
    dividend of norm B.  The stride g divides that of every factor and of
    the divisor.
    """

    __slots__ = ("ambient", "bound", "w", "g", "_runs", "_parts")

    def __init__(self, divisor: TorusElem, products):
        ambient, lam = divisor.ambient, divisor.ambient.rows
        norms = {}  # id -> (factor, ||x||_1, stride)
        bound = 0
        for _, factors in products:
            b = 1
            for x, c in factors:
                f = norms.get(id(x))
                if f is None:
                    divisor._require_same(x)
                    f = norms[id(x)] = (x, *norm_and_stride(x.terms))
                b *= f[1] ** c
            bound += b
        d_l1, d_g = norm_and_stride(divisor.terms)
        g = gcd(d_g, *[f[2] for f in norms.values()]) or 1
        w = digit_width(max(2 * bound, d_l1))
        packed = {key: _pack_terms(x.terms, w, g) for key, (x, _, _) in norms.items()}
        self._runs = []
        for t, factors in products:
            acc = {(0,) * ambient.k: [[t, t, 1]]}
            for x, c in factors:
                for _ in range(c):
                    acc = _mul_packed(acc, packed[id(x)], lam, w, g)
            self._runs.append(acc)
        self.ambient, self.bound, self.w, self.g = ambient, bound, w, g
        self._parts = [None] * len(products)

    def __getitem__(self, i: int) -> TorusElem:
        if self._parts[i] is None:
            self._parts[i] = TorusElem(
                self.ambient, _unpack_terms(self._runs[i], self.w, self.g), _trusted=True)
        return self._parts[i]

    def _remainder(self) -> dict:
        """The sum of the products' runs, in lists of its own."""
        first, *rest = self._runs
        rem = {a: [run[:] for run in runs] for a, runs in first.items()}
        for r in rest:
            for a, runs in r.items():
                into = rem.setdefault(a, [])
                for lo, _, n in runs:
                    add_piece(into, lo, n, self.w, self.g)
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

    The remainder stays packed: a TorusElem q is packed here, and the sum
    of a PackedSum's runs is the remainder as it is.  Only the remainder's
    leading coefficient is unpacked, once per peel.  Every partial sum of a
    remainder coefficient is bounded by ||q||_1 + ||p||_1 ||s_partial||_1
    (a PackedSum's bound standing for ||q||_1), and W is widened when that
    grows.  When the leading coefficient of p is a unit +-v^t, as for every
    cluster variable, the quotient coefficient is the lead's run itself,
    shifted and signed, and it is subtracted without being packed again.

    A single-term divisor p = c X^a packs nothing: p * d X^b = c d
    v^{aT L b} X^{a+b}, so every term of q is one term of p * s, and it is
    shifted back and divided by c on its own.  The terms are taken in the
    descending lex order of the peeling, whose Newton box they never leave,
    so a failure names the same term.  For a monomial c = c0 v^t, the
    division is entry by entry.

    >>> L = LMatrix.from_rows([[0, 1], [-1, 0]])
    >>> q = TorusElem.monomial(L, (2, 1), qc_v(3))
    >>> s = exact_left_div(TorusElem.monomial(L, (1, 0)), q)
    >>> s == TorusElem.monomial(L, (1, 1), qc_v(2))
    True
    """
    p._require_same(q)
    if p.is_zero():
        raise ZeroDivisionError("left division by zero")
    lam, pt = p.ambient.rows, p.terms
    ap = max(pt)
    cp = pt[ap]
    lead_row = _combine_rows(lam, ap)
    if isinstance(q, PackedSum):
        w, g, q_l1 = q.w, q.g, q.bound
        rem = q._remainder()
        support = [a for a, runs in rem.items()
                   if (runs[0][2] if len(runs) == 1 else collect(runs, w, g))]
    else:
        support = q.terms
    if not support:
        return TorusElem.zero(p.ambient)
    if len(pt) == 1:
        qt = _unpack_terms(rem, w, g) if isinstance(q, PackedSum) else q.terms
        out = {}
        for ar in sorted(qt, reverse=True):
            aq = tuple(map(sub, ar, ap))
            out[aq] = _quotient_coeff(ar, qt[ar], sum(map(mul, lead_row, aq)), cp)
        return TorusElem(p.ambient, out, _trusted=True)
    p_l1, p_g = norm_and_stride(pt)
    if isinstance(q, PackedSum):
        if digit_width(p_l1) > w:
            rem, w = _repacked(rem, w, g, digit_width(p_l1))
    else:
        q_l1, q_g = norm_and_stride(q.terms)
        g = gcd(p_g, q_g) or 1
        # the bound reached at the end when p * s has no cancellation, as for
        # cluster variables; more cancellation only means widening below.  It
        # also covers the entries of p, which are packed at this width
        w = digit_width(max(2 * q_l1, p_l1))
        rem = _pack_terms(q.terms, w, g)
    box = [(min(qi) - min(pi), max(qi) - max(pi))
           for qi, pi in zip(zip(*support), zip(*pt))]
    # (t, c0) when cp = c0 v^t is a unit: the quotient coefficient that a
    # lead forces is then c0 v^{-t - shift} lead
    unit = None
    if len(cp) == 1:
        ((t, c0),) = cp.items()
        if c0 in (1, -1):
            unit = t, c0
    # the leading term of p is left out: its product with each quotient
    # term cancels the remainder's leading coefficient, which is popped
    p_rest = [(b, _combine_rows(lam, b), cf) for b, cf in pt.items() if b != ap]
    pp = [(b, row, lo, n) for b, row, cf in p_rest for lo, _, n in pack(cf, w, g)]
    s_l1 = 0
    out: dict = {}
    while rem:
        ar = max(rem)
        runs = rem.pop(ar)
        aq = tuple(map(sub, ar, ap))
        shift = sum(map(mul, lead_row, aq))
        if unit:
            d = unit[0] + shift
            runs = [[lo - d, hi - d, unit[1] * n] for lo, hi, n in runs]
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
            pp = [(b, row, lo, n)
                  for b, row, cf in p_rest for lo, _, n in pack(cf, w, g)]
            runs = None
        for lc, _, nc in runs or pack(c, w, g):
            for b, row, lb, nb in pp:
                s = lb + lc + sum(map(mul, row, aq))
                add_piece(rem.setdefault(tuple(map(add, b, aq)), []), s, -nb * nc, w, g)
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
    return {a: pack(cf, wider, g) for a, runs in rem.items()
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
