"""Coefficients in Z[v^{+-1}], in dict form and in packed form.

The dict form maps a v-exponent to a nonzero Python int; it is what
``TorusElem.terms`` holds.  The packed form is what products and exact
division in the torus compute with (see the comment above ``digit_width``).
Everything is exact: no fixed-width integer appears anywhere.
"""

from __future__ import annotations

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
# A coefficient sum_e c_e v^e is held as a list of runs [lo, hi, n] with
# n = sum_e c_e 2^{W (e - lo) / g} (Kronecker substitution): the stride g
# divides every e - lo of a run, and W is the digit width.  When every
# |c_e| < 2^(W-1), n holds the balanced base-2^W digits of the run, which
# determine it uniquely.  The product of two packed ints is the packed
# convolution, and a sum of shifted ones the packed sum, as long as the
# digits of the *result* obey the same bound; W is always derived from a
# proven bound on them.  A piece v^s m joins a run only if s - lo is a
# multiple of g and the starts lo..hi of its pieces stay within _SPAN
# strides, so no int grows with the gaps between exponents; a dense
# coefficient is one run.

_SPAN = 512


def digit_width(bound: int) -> int:
    """Digit width W for integers of absolute value at most ``bound``:
    bound < 2^(W-1), so one bit is left for the sign, and W is a whole
    number of bytes, so that unpack can slice digits out of bytes."""
    return (bound.bit_length() + 8) & ~7


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


def add_piece(runs: list, s: int, m: int, w: int, g: int) -> None:
    """runs += v^s m, where m is packed at (W, g).

    >>> runs = []
    >>> for e in (2, 0, 3):
    ...     add_piece(runs, e, 1, 8, 2)
    >>> runs
    [[0, 2, 257], [3, 3, 1]]
    """
    for run in runs:
        lo, hi = run[0], run[1]
        if (s - lo) % g == 0 and max(hi, s) - min(lo, s) <= _SPAN * g:
            if s >= lo:
                run[2] += m << (w * ((s - lo) // g))
                if s > hi:
                    run[1] = s
            else:
                run[2] = m + (run[2] << (w * ((lo - s) // g)))
                run[0] = s
            return
    runs.append([s, s, m])


def pack(cf: dict, w: int, g: int) -> list:
    """The runs of a nonzero coefficient dict."""
    if len(cf) == 1:
        ((e, c),) = cf.items()
        return [[e, e, c]]
    lo, hi = min(cf), max(cf)
    if hi - lo <= _SPAN * g and gcd(*[e - lo for e in cf]) % g == 0:
        return [[lo, hi, sum(c << (w * ((e - lo) // g)) for e, c in cf.items())]]
    runs: list = []
    for e in sorted(cf):
        add_piece(runs, e, cf[e], w, g)
    return runs


def unpack(lo: int, n: int, w: int, g: int) -> dict:
    """The coefficient dict of a run starting at lo, every digit of n in
    [-2^(W-1), 2^(W-1)).

    The digits of n mod 2^(W m) are read as unsigned bytes and then made
    balanced by carrying; m leaves at least one byte of headroom above n, so
    the balanced digits are those of n itself.

    >>> unpack(-1, 5 - (7 << 16), 8, 2)
    {-1: 5, 3: -7}
    """
    half = 1 << (w - 1)
    if -half <= n < half:
        return {lo: n} if n else {}
    nb = w >> 3
    m = n.bit_length() // w + 2
    buf = (n & ((1 << (w * m)) - 1)).to_bytes(nb * m, "little")
    full = 1 << w
    out = {}
    carry = 0
    for i in range(m):
        d = int.from_bytes(buf[i * nb:(i + 1) * nb], "little") + carry
        if d >= half:
            d -= full
            carry = 1
        else:
            carry = 0
        if d:
            out[lo + g * i] = d
    return out


def collect(runs: list, w: int, g: int) -> dict:
    """The coefficient dict of a list of runs.

    Each run is decoded on its own, so the digits of every run's sum must
    lie in [-2^(W-1), 2^(W-1)); callers ensure it by bounding the sum of the
    absolute values of all contributions.
    """
    if len(runs) == 1:
        lo, _, n = runs[0]
        return unpack(lo, n, w, g)
    out: dict = {}
    for lo, _, n in runs:
        for e, d in unpack(lo, n, w, g).items():
            t = out.get(e, 0) + d
            if t:
                out[e] = t
            else:
                del out[e]
    return out
