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
)
from .errors import NotDivisibleError, as_int

# the only arithmetic implementation; kept as a constant for callers that
# stamp results with it
KERNEL_BACKEND = "python"

__all__ = [
    "KERNEL_BACKEND",
    "LMatrix",
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


def _mul_terms(xt: dict, yt: dict, lam) -> dict:
    """Product of two term dicts: (c X^a)(d X^b) = c d v^{aT L b} X^{a+b}.

    When one operand is a monomial c v^s X^m (one term, one coefficient
    entry), the exponents of the product are distinct, so each term of the
    other operand is only scaled by c and shifted: X^m X^b = v^{mT L b}
    X^{m+b} on the left, and X^a X^m = v^{aT L m} = v^{-mT L a} X^{a+m}
    on the right (L is skew-symmetric).  Nothing is packed.

    Otherwise each pair of runs contributes one bigint product, added into
    the runs of its output monomial.  An output coefficient is a sum of
    products of input coefficients, so every partial sum is at most
    ||x||_1 ||y||_1 in absolute value; that fixes W.  A zero operand is
    settled first, since that bound would then not cover the other one.
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
    xs = [(a, _combine_rows(lam, a), lo, n)
          for a, cf in xt.items() for lo, _, n in pack(cf, w, g)]
    ys = [(b, lo, n) for b, cf in yt.items() for lo, _, n in pack(cf, w, g)]
    acc: dict = {}
    for a, row, la, na in xs:
        for b, lb, nb in ys:
            s = la + lb + sum(map(mul, row, b))
            add_piece(acc.setdefault(tuple(map(add, a, b)), []), s, na * nb, w, g)
    out = {}
    for key, runs in acc.items():
        cf = collect(runs, w, g)
        if cf:
            out[key] = cf
    return out


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


def exact_left_div(p: TorusElem, q: TorusElem) -> TorusElem:
    """The unique s with p * s = q, if it exists in the torus.

    Peels the lex-leading term of the remainder: lex order on exponent
    vectors is a group order, so LT(p * s) = LT(p) * LT(s) and each quotient
    term is forced.  Raises NotDivisibleError with reason "coefficient" when
    a forced coefficient division leaves Z[v^{+-1}], or "newton_box" when a
    forced quotient exponent leaves the Newton box below.

    The torus is a domain, so the Newton polytope of p * s is the Minkowski
    sum of those of p and s: in every coordinate i, min_i q = min_i p +
    min_i s and max_i q = max_i p + max_i s.  Every exponent of s therefore
    lies in the box [min q - min p, max q - max p].  The peeled exponents
    strictly decrease in lex order inside that finite box, so the loop ends.

    The remainder stays packed; only its leading coefficient is unpacked,
    once per peel.  Every partial sum of a remainder coefficient is bounded
    by ||q||_1 + ||p||_1 ||s_partial||_1, and W is widened when that grows.

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
    if q.is_zero():
        return TorusElem.zero(p.ambient)
    lam = p.ambient.rows
    pt, qt = p.terms, q.terms
    ap = max(pt)
    cp = pt[ap]
    lead_row = _combine_rows(lam, ap)

    def quotient_coeff(ar, aq, lead):
        """The coefficient of X^aq in s, forced by the remainder's leading
        coefficient lead at X^ar."""
        c = qc_div_exact(qc_shift(lead, -sum(map(mul, lead_row, aq))), cp)
        if c is None:
            raise NotDivisibleError(
                "coefficient",
                "leading coefficient at X^%s is not divisible" % (ar,),
            )
        return c

    if len(pt) == 1:
        out = {}
        for ar in sorted(qt, reverse=True):
            aq = tuple(map(sub, ar, ap))
            out[aq] = quotient_coeff(ar, aq, qt[ar])
        return TorusElem(p.ambient, out, _trusted=True)
    box = [(min(qi) - min(pi), max(qi) - max(pi))
           for qi, pi in zip(zip(*qt), zip(*pt))]
    # the leading term of p is left out: its product with each quotient
    # term cancels the remainder's leading coefficient, which is popped
    p_rest = [(b, _combine_rows(lam, b), cf) for b, cf in pt.items() if b != ap]
    (p_l1, p_g), (q_l1, q_g) = norm_and_stride(pt), norm_and_stride(qt)
    s_l1 = 0
    g = gcd(p_g, q_g) or 1
    # the bound reached at the end when p * s has no cancellation, as for
    # cluster variables; more cancellation only means widening below.  It
    # also covers the entries of p, which are packed at this width
    w = digit_width(max(2 * q_l1, p_l1))
    pp = [(b, row, lo, n) for b, row, cf in p_rest for lo, _, n in pack(cf, w, g)]
    rem = {a: pack(cf, w, g) for a, cf in qt.items()}  # exponent -> runs
    out: dict = {}
    while rem:
        ar = max(rem)
        lead = collect(rem.pop(ar), w, g)
        if not lead:
            continue
        aq = tuple(map(sub, ar, ap))
        for x, (lo, hi) in zip(aq, box):
            if not lo <= x <= hi:
                raise NotDivisibleError(
                    "newton_box",
                    "quotient exponent %s leaves the Newton box %s"
                    % (aq, [list(b) for b in box]),
                )
        c = out[aq] = quotient_coeff(ar, aq, lead)
        s_l1 += sum(map(abs, c.values()))
        need = digit_width(q_l1 + p_l1 * s_l1)
        if need > w:
            # repack at a width with headroom, so a growing quotient
            # repacks only O(log) times; entries that cancelled are dropped
            wider = max(need, 2 * w)
            rem = {a: pack(cf, wider, g)
                   for a, runs in rem.items() if (cf := collect(runs, w, g))}
            pp = [(b, row, lo, n)
                  for b, row, cf in p_rest for lo, _, n in pack(cf, wider, g)]
            w = wider
        for lc, _, nc in pack(c, w, g):
            for b, row, lb, nb in pp:
                s = lb + lc + sum(map(mul, row, aq))
                add_piece(rem.setdefault(tuple(map(add, b, aq)), []), s, -nb * nc, w, g)
    return TorusElem(p.ambient, out, _trusted=True)


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
