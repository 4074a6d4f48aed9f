"""Coefficients in Z[v^{+-1}], in dict form and in packed form.

The dict form maps a v-exponent to a nonzero Python int; it is what
``TorusElem.terms`` holds.  The packed form is what products and exact
division in the torus compute with (see the comment above ``digit_width``).
Everything is exact: fixed-width integers only carry digits that the
chosen width is proven to hold, and a digit outside it raises, never wraps.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from math import gcd

# ---------------------------------------------------------------------------
# coefficients: Z[v^{+-1}] as dict {v_exponent: nonzero int}

def qc_const(n: int) -> dict:
    """The constant coefficient n.

    >>> qc_const(3)
    {0: 3}
    >>> qc_const(0)
    {}
    """
    return {0: n} if n else {}


def qc_v(e: int, n: int = 1) -> dict:
    """n * v^e."""
    return {e: n} if n else {}


def qc_neg(a: dict) -> dict:
    return {e: -cv for e, cv in a.items()}


def qc_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e, cv in a.items():
        for f, dv in b.items():
            g = e + f
            nv = out.get(g, 0) + cv * dv
            if nv:
                out[g] = nv
            else:
                out.pop(g, None)
    return out


def qc_shift(a: dict, k: int) -> dict:
    """Multiply by v^k."""
    if k == 0:
        return dict(a)
    return {e + k: cv for e, cv in a.items()}


def qc_bar(a: dict) -> dict:
    """v -> v^{-1}."""
    return {-e: cv for e, cv in a.items()}


def qc_div_exact(num: dict, den: dict) -> dict | None:
    """num / den in Z[v^{+-1}] if the division is exact, else None.

    Top-down long division; the quotient is forced term by term, so the
    division is exact iff every forced leading coefficient divides and the
    quotient's lowest exponent min(num) - min(den) is reached cleanly.

    >>> qc_div_exact({3: 2, 1: 2}, {1: 2})
    {2: 1, 0: 1}
    >>> qc_div_exact({0: 1}, {0: 2}) is None
    True
    >>> qc_div_exact({0: 1}, {1: 1, 0: -1}) is None
    True
    """
    if not den:
        raise ZeroDivisionError("coefficient division by zero")
    if not num:
        return {}
    dmax = max(den)
    dc = den[dmax]
    emin = min(num) - min(den)
    nd = dict(num)
    out = {}
    while nd:
        t = max(nd)
        e = t - dmax
        if e < emin:
            return None
        c, r = divmod(nd[t], dc)
        if r:
            return None
        out[e] = c
        for de, dv in den.items():
            g = de + e
            nv = nd.get(g, 0) - dv * c
            if nv:
                nd[g] = nv
            else:
                nd.pop(g, None)
    return out


def qc_is_nonneg(a: dict) -> bool:
    return all(cv >= 0 for cv in a.values())


def qc_str(a: dict) -> str:
    if not a:
        return "0"
    parts = []
    for e in sorted(a, reverse=True):
        cv = a[e]
        if e == 0:
            parts.append("%d" % cv)
        else:
            head = "" if cv == 1 else ("-" if cv == -1 else "%d*" % cv)
            parts.append("%sv^%d" % (head, e))
    return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# packed coefficients
#
# A coefficient sum_e c_e v^e is held as a list of runs [lo, n] with
# n = sum_e c_e 2^{W (e - lo) / g} (Kronecker substitution): the stride g
# divides every e - lo of a run, and W is the digit width.  When every
# |c_e| < 2^(W-1), n holds the balanced base-2^W digits of the run, which
# determine it uniquely.  The product of two packed ints is the packed
# convolution, and a sum of shifted ones the packed sum, as long as the
# digits of the *result* obey the same bound; W is always derived from a
# proven bound on them.  A piece v^s m joins a run only if s - lo is a
# multiple of g and s lies within _SPAN strides of the run's other end,
# so no int grows with the gaps between exponents; a dense coefficient is
# one run.
#
# A run's top digit index j is not stored; _top_digit bounds it.  The
# digits below d_j add up to at most 2^(W-1) (2^(Wj) - 1) / (2^W - 1) <=
# (2/3) 2^(Wj) in absolute value, so |n| > 2^(Wj)/3 and Wj - 1 <=
# bit_length(n); and |n| < 2^(Wj + W).  So j is (bit_length(n) + 1) // W or
# one less.  bit_length(n) // W undercounts when every lower digit is
# -2^(W-1) and d_j = 1, where bit_length(n) = Wj - 1.
#
# Runs are encoded and decoded in offset binary: adding H(W, m) =
# sum_{i<m} 2^(W-1) 2^(W i) to a run of m balanced digits makes every digit
# c + 2^(W-1), in [0, 2^W), with no carry between digits.  The whole run
# then converts in one call between an int and its little-endian bytes,
# and the bytes to and from a list of digits in one ``array`` conversion
# at W = 8, 16, 32 and 64, or by slicing above that.  W is rounded up to
# one of those four widths while the bound allows it.

_SPAN = 512
_WIDTHS = (8,) * 8 + (16,) * 8 + (32,) * 16 + (64,) * 32  # by bit length
_TYPECODES = {8 * array(tc).itemsize: tc for tc in "BHILQ"}  # W -> unsigned
_BIG_ENDIAN = sys.byteorder == "big"


def digit_width(bound: int) -> int:
    """Digit width W for integers of absolute value at most ``bound``:
    bound < 2^(W-1), so one bit is left for the sign.  W is the least of
    8, 16, 32 and 64 that fits, so that runs convert through ``array``,
    and above 64 bits a whole number of bytes, so that unpack can slice
    digits out of bytes.

    >>> [digit_width((1 << bits) - 1) for bits in (7, 15, 16, 40, 63, 64)]
    [8, 16, 32, 64, 64, 72]
    """
    bits = bound.bit_length()
    return _WIDTHS[bits] if bits < 64 else (bits + 8) & ~7


@lru_cache(maxsize=1024)
def _offset(w: int, m: int) -> int:
    """H(W, m): the digit 2^(W-1) in each of m places of width W."""
    return int.from_bytes((bytes((w >> 3) - 1) + b"\x80") * m, "little")


def _digit_bytes(digits: list, w: int) -> bytes:
    """Little-endian bytes of unsigned W-bit digits; OverflowError if one
    of them lies outside [0, 2^W)."""
    tc = _TYPECODES.get(w)
    if tc is None:
        nb = w >> 3
        return b"".join([d.to_bytes(nb, "little") for d in digits])
    arr = array(tc, digits)
    if _BIG_ENDIAN:
        arr.byteswap()
    return arr.tobytes()


def _byte_digits(buf: bytes, w: int):
    """The unsigned W-bit digits of little-endian bytes."""
    tc = _TYPECODES.get(w)
    if tc is None:
        nb = w >> 3
        return [int.from_bytes(buf[i:i + nb], "little") for i in range(0, len(buf), nb)]
    arr = array(tc, buf)
    if _BIG_ENDIAN:
        arr.byteswap()
    return arr


def norm_and_stride(terms: dict) -> tuple[int, int]:
    """(||x||_1, g) for the terms of a torus element x.

    ||x||_1 is the sum of |c| over every coefficient of every term.  It
    bounds every coefficient of x, and it is submultiplicative
    (||xy||_1 <= ||x||_1 ||y||_1) and subadditive, which is what the digit
    width of products and remainders is derived from.  g is the gcd of
    e - min(cf) over every coefficient cf (0 if all are monomials); packing
    at stride g makes every packed int g times shorter.
    """
    l1 = g = 0
    for cf in terms.values():
        l1 += sum(map(abs, cf.values()))
        if len(cf) > 1 and g != 1:
            lo = min(cf)
            g = gcd(g, *[e - lo for e in cf])
    return l1, g


def _top_digit(n: int, w: int) -> int:
    """j or j + 1, for the index j of the top nonzero digit of a run."""
    return (n.bit_length() + 1) // w


def add_piece(runs: list, s: int, m: int, w: int, g: int) -> None:
    """runs += v^s m, where m is packed at (W, g).  Every digit of a run
    lies at most _SPAN strides plus the longest piece above its lo.  A
    piece is one run times another, or, in a square, two such products
    joined at most _SPAN strides apart (torus._square_packed).
    torus._mul_packed states which pieces the product loops add in line;
    they call this for every other piece.

    >>> runs = []
    >>> for e in (2, 0, 3):
    ...     add_piece(runs, e, 1, 8, 2)
    >>> runs
    [[0, 257], [3, 1]]
    """
    span = _SPAN * g
    for run in runs:
        lo = run[0]
        if (s - lo) % g:
            continue
        if s >= lo:
            if s - lo <= span:
                run[1] += m << (w * ((s - lo) // g))
                return
        elif lo - s + g * _top_digit(run[1], w) <= span:
            run[0], run[1] = s, m + (run[1] << (w * ((lo - s) // g)))
            return
    runs.append([s, m])


def trim_run(run: list, w: int, g: int) -> list:
    """A run [lo, n] with nonzero n, less its zero low digits.

    With every digit in [-2^(W-1), 2^(W-1)), the lowest nonzero digit
    holds the lowest set bit of n, so n's zero low digits are the whole
    W-bit digits below that bit.

    >>> trim_run([0, 5 << 16], 8, 2)
    [4, 5]
    """
    lo, n = run
    z = ((n & -n).bit_length() - 1) // w
    return [lo + z * g, n >> (w * z)] if z else run


def pack(cf: dict, w: int, g: int) -> list:
    """The runs of a nonzero coefficient dict.

    The caller's W bounds every entry: -2^(W-1) <= c < 2^(W-1).  A dense
    coefficient is encoded in offset binary, and an entry outside that
    bound raises OverflowError, as a single entry does; nothing wraps.

    >>> pack({0: 1, 2: -1}, 8, 2)
    [[0, -255]]
    >>> pack({0: 128, 1: 1}, 8, 1)  # doctest: +IGNORE_EXCEPTION_DETAIL
    Traceback (most recent call last):
    OverflowError: the digit 128 does not fit in 8 bits
    """
    if len(cf) == 1:
        ((e, c),) = cf.items()
        if not -(1 << (w - 1)) <= c < 1 << (w - 1):
            raise OverflowError("the digit %d does not fit in %d bits" % (c, w))
        return [[e, c]]
    lo, hi = min(cf), max(cf)
    if hi - lo <= _SPAN * g and gcd(*[e - lo for e in cf]) % g == 0:
        half = 1 << (w - 1)
        m = (hi - lo) // g + 1
        digits = [half] * m
        for e, c in cf.items():
            digits[(e - lo) // g] = c + half
        n = int.from_bytes(_digit_bytes(digits, w), "little") - _offset(w, m)
        return [[lo, n]]
    runs: list = []
    for e in sorted(cf):
        add_piece(runs, e, cf[e], w, g)
    return runs


def unpack(lo: int, n: int, w: int, g: int) -> dict:
    """The coefficient dict of a run starting at lo, every digit of n in
    [-2^(W-1), 2^(W-1)).

    n has at most m = _top_digit(n, W) + 1 such digits.  n + H(W, m) has
    the unsigned digits d + 2^(W-1), which are read in one conversion and
    shifted back; a zero digit reads 2^(W-1) and is left out.

    >>> unpack(-1, 5 - (7 << 16), 8, 2)
    {-1: 5, 3: -7}
    >>> unpack(0, 3 + (200 << 16) - (2**15 << 32), 16, 1)
    {0: 3, 1: 200, 2: -32768}
    >>> unpack(0, -128 - (128 << 8) + (1 << 16), 8, 1)
    {0: -128, 1: -128, 2: 1}
    """
    half = 1 << (w - 1)
    if -half <= n < half:
        return {lo: n} if n else {}
    m = _top_digit(n, w) + 1
    digits = _byte_digits((n + _offset(w, m)).to_bytes((w >> 3) * m, "little"), w)
    return {e: d - half for e, d in zip(range(lo, lo + g * m, g), digits) if d != half}


def collect(runs: list, w: int, g: int) -> dict:
    """The coefficient dict of a list of runs.

    Each run is decoded on its own, so the digits of every run's sum must
    lie in [-2^(W-1), 2^(W-1)); callers ensure it by bounding the sum of the
    absolute values of all contributions.
    """
    if len(runs) == 1:
        return unpack(*runs[0], w, g)
    out: dict = {}
    for lo, n in runs:
        for e, d in unpack(lo, n, w, g).items():
            t = out.get(e, 0) + d
            if t:
                out[e] = t
            else:
                del out[e]
    return out
