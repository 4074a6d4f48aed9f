"""Exactness of the packed torus arithmetic against a schoolbook oracle.

Products, exact division and q-commutation pack every Z[v^{+-1}]
coefficient into one integer (Kronecker substitution).  These tests compare
them with a plain dict-of-dicts product written out here, on inputs chosen
to break a packing whose digit width or span is wrong: coefficients at
machine-word boundaries, cancellation, digits at the edge of the width,
sparse and wide v-spans, and ranks above 64.  Packing is drawn at every
width the code can choose: 8, 16, 32 and 64 bits, which convert through
``array``, and 72 and 128 bits, which do not.  Every product keeps the
digits of each run within the span that add_piece keeps.  A square, which
adds one pair per unordered pair of runs, has a fixed case for each way a
pair adds its pieces.  A monomial
operand, a single-term divisor, which forces each quotient term from one
term of the dividend, and a single-term side of q-commutation, which
needs no product, are drawn on either side of every property.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qca.torus
from qca.coeffs import (
    _SPAN,
    add_piece,
    collect,
    digit_width,
    pack,
    qc_div_exact,
    qc_mul,
    unpack,
)
from qca.errors import NotDivisibleError
from qca.seeds import _exchange_terms, mutate, mutate_seq
from qca.torus import (
    LMatrix,
    PackedSum,
    TorusElem,
    _packed,
    exact_left_div,
    q_commute_exponent,
)

from conftest import make_seed

PROFILE = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# values that a fixed-width kernel wraps or truncates
WORD_EDGES = (
    2**31, -2**31, 2**31 - 1, 2**63, -2**63, 2**63 - 1,
    2**64 - 1, 2**64 + 1, -(2**64 + 1),
)

# the digit widths with an ``array`` type, and two above them
PACK_WIDTHS = (8, 16, 32, 64, 72, 128)


def schoolbook_mul(x: TorusElem, y: TorusElem) -> dict:
    """(c X^a)(d X^b) = c d v^{aT L b} X^{a+b}, one coefficient pair at a time."""
    rows = x.ambient.rows
    out: dict = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            twist = sum(
                ai * rows[i][j] * bj
                for i, ai in enumerate(a) if ai
                for j, bj in enumerate(b) if bj
            )
            acc = out.setdefault(tuple(ai + bi for ai, bi in zip(a, b)), {})
            for e, c in ca.items():
                for f, d in cb.items():
                    acc[e + f + twist] = acc.get(e + f + twist, 0) + c * d
    out = {a: {e: c for e, c in cf.items() if c} for a, cf in out.items()}
    return {a: cf for a, cf in out.items() if cf}


def two_product_gamma(x: TorusElem, y: TorusElem):
    """The definition: gamma with xy = v^{2 gamma} yx, from both products."""
    xy, yx = schoolbook_mul(x, y), schoolbook_mul(y, x)
    if set(xy) != set(yx):
        return None
    shifts = set()
    for a, cf in xy.items():
        other = yx[a]
        c = min(cf) - min(other)
        if {e + c: v for e, v in other.items()} != cf:
            return None
        shifts.add(c)
    if len(shifts) != 1:
        return None
    (c,) = shifts
    return c // 2 if c % 2 == 0 else None


def skew(rows_lower, k):
    rows = [[0] * k for _ in range(k)]
    for (i, j), e in rows_lower.items():
        rows[i][j], rows[j][i] = e, -e
    return LMatrix.from_rows(rows)


@st.composite
def ambients(draw):
    k = draw(st.sampled_from((1, 2, 3, 4, 66)))
    entries = st.one_of(st.integers(-3, 3), st.sampled_from((2**31, -2**33)))
    pairs = [(i, j) for i in range(k) for j in range(i)]
    if k > 4:
        pairs = draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True))
    return skew({ij: draw(entries) for ij in pairs}, k)


coeff_values = st.one_of(
    st.sampled_from(WORD_EDGES),
    st.integers(-3, 3),
    st.integers(-2**80, 2**80),
)
coeff_dicts = st.dictionaries(
    st.one_of(st.integers(-5, 5), st.integers(-200, 200)),
    coeff_values,
    min_size=1,
    max_size=5,
)


@st.composite
def exponents(draw, lam, span=3):
    k = lam.k
    if k > 4:
        exp = [0] * k
        for i in draw(st.lists(st.integers(0, k - 1), max_size=3)):
            exp[i] = draw(st.integers(-span, span))
    else:
        exp = [draw(st.integers(-span, span)) for _ in range(k)]
    return tuple(exp)


@st.composite
def elems(draw, lam, max_terms=4, span=3):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        terms[draw(exponents(lam, span))] = draw(coeff_dicts)
    return TorusElem(lam, terms)


@st.composite
def elem_pairs(draw):
    lam = draw(ambients())
    return draw(elems(lam)), draw(elems(lam))


@st.composite
def one_term(draw, lam, coeffs):
    """c X^a, with a nonzero coefficient c drawn from coeffs."""
    return TorusElem(lam, {draw(exponents(lam)): draw(coeffs)})


# a monomial c v^s X^a, and one term whose coefficient has several entries
monomial_coeffs = st.builds(lambda e, c: {e: c}, st.integers(-200, 200),
                            coeff_values.filter(bool))
wide_coeffs = st.dictionaries(st.integers(-200, 200), coeff_values.filter(bool),
                              min_size=2, max_size=5)


@st.composite
def operand_sets(draw):
    """Two general elements, a monomial and a single-term element with a
    multi-entry coefficient, in one ambient."""
    lam = draw(ambients())
    return (draw(elems(lam)), draw(elems(lam)),
            draw(one_term(lam, monomial_coeffs)), draw(one_term(lam, wide_coeffs)))


def v_span(x: TorusElem) -> int:
    """The widest v-span max(cf) - min(cf) of a coefficient cf of x."""
    return max((max(cf) - min(cf) for cf in x.terms.values()), default=0)


def assert_runs_hold_their_digits(x: TorusElem, y: TorusElem):
    """Every run [lo, n] stored for x * y has its digits on the stride,
    at or above lo and at most _SPAN strides plus the longest piece above
    it.  A piece of x * y, one run of x times one of y, spans at most
    v_span(x) + v_span(y).  x * x joins the two ordered pairs of two runs
    into one piece, which spans at most 2 v_span(x) + _SPAN strides."""
    s = PackedSum(x.ambient, [(0, [(x, 1), (y, 1)])])
    reach = _SPAN * s.g + v_span(x) + v_span(y) + (_SPAN * s.g if x is y else 0)
    for product in s._runs:
        for _, runs in product.values():
            for lo, n in runs:
                for e in unpack(lo, n, s.w, s.g):
                    assert (e - lo) % s.g == 0 and 0 <= e - lo <= reach


# over L = 0: (1 + v^2) X^(1,0) is one term of one run, which the product
# shifts the other's run by; and two elements whose product at X^(1,1)
# joins the piece (1 + v^2)^2 and the piece 1 in one run
ZERO_L = LMatrix.from_rows([[0, 0], [0, 0]])
ONE_RUN_PAIR = (TorusElem.monomial(ZERO_L, (1, 0), {0: 1, 2: 1}),
                TorusElem.monomial(ZERO_L, (0, 1)))
JOINED_PAIR = (ONE_RUN_PAIR[0] + ONE_RUN_PAIR[1],
               TorusElem.monomial(ZERO_L, (0, 1), {0: 1, 2: 1})
               + TorusElem.monomial(ZERO_L, (1, 0)))


@PROFILE
@given(operand_sets())
@example(ONE_RUN_PAIR)
@example(JOINED_PAIR)
def test_product_matches_schoolbook(ops):
    # every ordered pair: general operands, and a monomial or single-term
    # operand on the left and on the right; every product stores each run
    # with its digits within the span that add_piece keeps
    for x, y in itertools.permutations(ops, 2):
        assert (x * y).terms == schoolbook_mul(x, y)
        assert_runs_hold_their_digits(x, y)
    # an operand times itself, which the product packs once
    for x in ops:
        assert_runs_hold_their_digits(x, x)
        square = schoolbook_mul(x, x)
        assert (x * x).terms == x.pow(2).terms == square
        assert x.pow(3).terms == schoolbook_mul(TorusElem(x.ambient, square), x)


# x^2 adds one pair of runs per unordered pair: each case below takes one
# way in which a pair adds its pieces, at the digit width W it packs at
L_ONE = LMatrix.from_rows([[0, 1], [-1, 0]])
L_TWO = LMatrix.from_rows([[0, 2], [-2, 0]])
L_BIG = LMatrix.from_rows([[0, 2**31], [-(2**31), 0]])
SQUARES = [
    # X^(1,0)'s coefficient spans more than _SPAN strides and packs into
    # two runs, which pair at twist 0
    pytest.param(TorusElem(L_ONE, {(1, 0): {0: 1, 1: -2, 2 * _SPAN: 3}, (0, 1): 1}),
                 8, id="two_runs"),
    # stride g = 4 and twist 1: 2s is off the stride, so the two pieces of
    # a pair stay apart
    pytest.param(TorusElem(L_ONE, {(1, 0): {0: 1, 4: 1}, (0, 1): {8: 1, 0: -2}}),
                 8, id="odd_twist_stride_4"),
    # stride 4 and twist 2: they join, one digit apart
    pytest.param(TorusElem(L_TWO, {(1, 0): {0: 1, 4: 1}, (0, 1): {8: 1, 0: -2}}),
                 8, id="even_twist_stride_4"),
    # twists of 2 _SPAN and 2^31, past _SPAN strides: no joined piece is
    # built, which would hold digits past the reach of its run, or 2^35 bits
    pytest.param(TorusElem(LMatrix.from_rows([[0, 2 * _SPAN], [-2 * _SPAN, 0]]),
                           {(1, 0): {0: 1, 1: 1}, (0, 1): -1}),
                 8, id="twist_2_span"),
    pytest.param(TorusElem(L_BIG, {(1, 0): {0: 1, 1: 1}, (0, 1): {0: 2, 2: -1}, (1, 1): 1}),
                 8, id="twist_2^31"),
    # coefficients past 64 bits: pieces joined at W = 72 and 128
    pytest.param(TorusElem(L_TWO, {(1, 0): {0: 2**31, 2: -(2**31)}, (0, 1): {1: 3},
                                   (-1, 2): -1}), 72, id="w72"),
    pytest.param(TorusElem(L_TWO, {(1, 0): {0: 2**59, 2: -(2**59)}, (0, 1): {1: 3},
                                   (-1, 2): -1}), 128, id="w128"),
]


@pytest.mark.parametrize("x, w", SQUARES)
def test_square_matches_schoolbook(x, w):
    lam = x.ambient
    square = schoolbook_mul(x, x)
    assert PackedSum(lam, [(0, [(x, 2)])]).w == w
    assert (x * x).terms == x.pow(2).terms == square
    assert_runs_hold_their_digits(x, x)
    # the ordered loop: x times a copy of it, a power after the first
    # factor, and the square times x in a cube
    assert (x * TorusElem(lam, dict(x.terms))).terms == square
    y = TorusElem(lam, {(0, 1): {1: 1}, (2, 0): -1})
    s = PackedSum(lam, [(3, [(x, 2), (y, 1)]), (-1, [(y, 1), (x, 2)])])
    assert s[0].terms == schoolbook_mul(TorusElem(lam, square).v_shift(3), y)
    assert s[1].terms == schoolbook_mul(
        TorusElem(lam, schoolbook_mul(y.v_shift(-1), x)), x)
    assert x.pow(3).terms == schoolbook_mul(TorusElem(lam, square), x)


def test_a_square_opens_without_the_ordered_loop(monkeypatch):
    # x.pow(2) and x * x of one object never enter _mul_packed; x.pow(3)
    # enters it once, with the square on the left, and x times a copy of
    # x takes it too
    lefts = []
    mul_packed = qca.torus._mul_packed

    def spy(xs, ys, w, g, acc):
        xs = list(xs)
        lefts.append({a: cf for _, (a, runs) in xs if (cf := collect(runs, w, g))})
        return mul_packed(xs, ys, w, g, acc)

    monkeypatch.setattr(qca.torus, "_mul_packed", spy)
    x = SQUARES[0].values[0]
    square = schoolbook_mul(x, x)
    assert x.pow(2).terms == (x * x).terms == square
    assert lefts == []
    assert x.pow(3).terms == schoolbook_mul(TorusElem(x.ambient, square), x)
    assert lefts == [square]
    assert (x * TorusElem(x.ambient, dict(x.terms))).terms == square
    assert len(lefts) == 2


# pieces that land in their key's one run, on its stride, at or above its
# lo and at most _SPAN strides above it, are added in line: over L_NEG the
# pair X^(1,0) X^(0,1) gives v^-1 X^(1,1) before X^(0,1) X^(1,0) gives v;
# in the square of ALL_JOIN the pairs (X^(1,0), X^(0,1)) and (X^(1,1), 1)
# meet at X^(1,1), the second one stride above the first; in the square of
# DIAGONAL_JOIN, X^(1,0) paired with itself lands one stride above the
# pair (1, X^(2,0)) at X^(2,0)
L_NEG = LMatrix.from_rows([[0, -1], [1, 0]])
ALL_JOIN = TorusElem(L_ONE, {(1, 0): 1, (0, 1): 1, (1, 1): 1, (0, 0): 1})
DIAGONAL_JOIN = TorusElem(L_ONE, {(0, 0): 1, (2, 0): 1, (1, 0): {1: 1}})
# in the square of SPLIT_JOIN, stride 4 and twist 1 split the pairs among
# X^(1,1), X^(1,0) and X^(0,1) into a v^1 and a v^-1 piece: the v^1 piece
# of (X^(1,0), X^(0,1)) lands in line at X^(1,1), on the run of the pair
# (1, X^(1,1)), and the other two open new keys; each v^-1 piece starts
# two below its v^1 piece, off the stride
SPLIT_JOIN = TorusElem(L_ONE, {(0, 0): 1, (1, 1): {0: 1, 4: 1}, (1, 0): 1, (0, 1): {-1: 1}})


def test_pieces_in_one_run_are_added_without_add_piece(monkeypatch):
    starts = []
    real_add_piece = qca.torus.add_piece

    def spy(runs, s, m, w, g):
        starts.append(s)
        real_add_piece(runs, s, m, w, g)

    monkeypatch.setattr(qca.torus, "add_piece", spy)
    x = TorusElem(L_NEG, {(1, 0): {0: 1, 1: -2}, (0, 1): 3})
    assert (x * TorusElem(L_NEG, dict(x.terms))).terms == schoolbook_mul(x, x)
    for y in (ALL_JOIN, DIAGONAL_JOIN):
        assert (y * y).terms == schoolbook_mul(y, y)
    assert starts == []
    assert (SPLIT_JOIN * SPLIT_JOIN).terms == schoolbook_mul(SPLIT_JOIN, SPLIT_JOIN)
    assert starts == [-1, -2, -2]


# every other piece goes through add_piece: each case below takes one way
# out of the in-line add, for x * y in the ordered loop
FALLBACKS = [
    # over L_ONE, v X^(1,1) comes first and v^-1 X^(1,1) starts below it
    pytest.param(TorusElem(L_ONE, {(1, 0): 1, (0, 1): 1}),
                 TorusElem(L_ONE, {(1, 0): 1, (0, 1): 1}), id="below_lo"),
    # stride g = 4 and twist 1: the second piece starts two off the stride
    pytest.param(TorusElem(L_NEG, {(1, 0): {0: 1, 4: 1}, (0, 1): {0: 1, 4: -1}}),
                 TorusElem(L_NEG, {(1, 0): {0: 1, 4: 1}, (0, 1): {0: 2}}), id="off_stride"),
    # twist 300: the second piece starts 600 strides above the first
    pytest.param(TorusElem(LMatrix.from_rows([[0, -300], [300, 0]]), {(1, 0): 1, (0, 1): 1}),
                 TorusElem(LMatrix.from_rows([[0, -300], [300, 0]]), {(1, 0): 1, (0, 1): -1}),
                 id="past_span"),
    # at X^(1,1) the first two pieces cancel, and the run [0, 0] then takes
    # a piece three below it and one two above it
    pytest.param(TorusElem(ZERO_L, {(1, 0): 1, (0, 1): 1, (2, 0): 1, (3, 0): 1}),
                 TorusElem(ZERO_L, {(0, 1): 1, (1, 0): -1, (-1, 1): {-3: 1}, (-2, 1): {2: 1}}),
                 id="cancelled_run"),
    # the v^-1 pieces of SPLIT_JOIN's square, and its product with
    # DIAGONAL_JOIN
    pytest.param(SPLIT_JOIN, DIAGONAL_JOIN, id="split_square"),
]


@pytest.mark.parametrize("x, y", FALLBACKS)
def test_pieces_off_the_one_run_match_schoolbook(x, y):
    assert (x * y).terms == schoolbook_mul(x, y)
    assert_runs_hold_their_digits(x, y)
    for z in (x, y):
        assert (z * z).terms == schoolbook_mul(z, z)
        assert_runs_hold_their_digits(z, z)


def test_division_skips_cancelled_remainder_keys():
    # q = (X^(1,0) - 1) s: the peel cancels the keys X^(2,0) and X^(0,1),
    # one run each, and X^(0,2), two runs.  The dividend is a PackedSum of
    # q + Z and -Z, where Z puts c = 1 + v^1000, two runs, at X^(5,5),
    # outside supp q, and 1 at X^(3,0), whose coefficient in q is v^1000:
    # the first is another two-run key that cancels to 0, the second one
    # whose first run cancels and whose second does not
    p = TorusElem(L_ONE, {(1, 0): 1, (0, 0): -1})
    c = {0: 1, 1000: 1}
    s = TorusElem(L_ONE, {(2, 0): {1000: 1}, (2, 1): 1, (1, 1): 1, (0, 1): 1,
                          (2, 2): c, (1, 2): c, (0, 2): c})
    q = TorusElem(L_ONE, schoolbook_mul(p, s))
    assert q.terms[(3, 0)] == {1000: 1} and (5, 5) not in q.terms
    z = TorusElem(L_ONE, {(5, 5): c, (3, 0): 1})
    div = PackedSum(L_ONE, [(0, [(q + z, 1)]), (0, [(-z, 1)])])
    rem = div._remainder()
    runs = {a: runs for a, runs in rem.values()}
    assert [n for _, n in runs[(5, 5)]] == [0, 0]
    assert [n for _, n in runs[(3, 0)]] == [0, 1]
    assert exact_left_div(p, div) == exact_left_div(p, q) == s


def schoolbook_product(lam, t, factors) -> TorusElem:
    """v^t x_1^c_1 x_2^c_2 ..., one schoolbook product per power."""
    out = TorusElem.monomial(lam, (0,) * lam.k, {t: 1})
    for x, c in factors:
        for _ in range(c):
            out = TorusElem(lam, schoolbook_mul(out, x))
    return out


@st.composite
def product_lists(draw):
    """One to three products v^t x_1^c_1 ..., of zero to two factors, and
    the negatives of a drawn subset of them (a factor -1 in front), which
    cancel them: the sum is zero when every product is negated."""
    lam = draw(ambients())
    prods = [(draw(st.integers(-3, 3)),
              [(draw(elems(lam, max_terms=3)), draw(st.integers(1, 2)))
               for _ in range(draw(st.integers(0, 2)))])
             for _ in range(draw(st.integers(1, 3)))]
    minus_one = TorusElem.monomial(lam, (0,) * lam.k, {0: -1})
    negated = draw(st.sets(st.sampled_from(range(len(prods)))))
    return lam, prods + [(prods[i][0], [(minus_one, 1)] + prods[i][1]) for i in sorted(negated)]


X_PLUS_Y = TorusElem(L_ONE, {(1, 0): 1, (0, 1): {1: 2}})


@PROFILE
@given(product_lists())
@example((L_ONE, [(1, [(X_PLUS_Y, 2)]), (1, [(-X_PLUS_Y, 1), (X_PLUS_Y, 1)])]))
def test_packed_sum_total_is_the_sum_of_its_products(case):
    # total is collected once from the summed runs that exact_left_div
    # peels; entries of products that cancel are left out
    lam, prods = case
    s = PackedSum(lam, prods)
    expected = TorusElem.zero(lam)
    by_parts = TorusElem.zero(lam)
    for i, (t, factors) in enumerate(prods):
        expected = expected + schoolbook_product(lam, t, factors)
        by_parts = by_parts + s[i]
    assert s.total == by_parts == expected
    assert s.total is s.total


@PROFILE
@given(elem_pairs())
def test_division_recovers_factor(pair):
    p, s = pair
    if p.is_zero():
        return
    assert exact_left_div(p, p * s) == s


# coefficients of a monomial divisor: units, a non-unit, one past 64 bits
DIVISOR_COEFFS = (1, -1, 2, -2, 2**64 + 1)
divisor_coeffs = st.one_of(
    st.builds(lambda t, c: {t: c}, st.integers(-200, 200), st.sampled_from(DIVISOR_COEFFS)),
    wide_coeffs,
)


@PROFILE
@given(ambients().flatmap(lambda lam: st.tuples(elems(lam), one_term(lam, divisor_coeffs))))
def test_single_term_divisor_matches_schoolbook(case):
    # a monomial c v^t X^a, or one term with a multi-entry coefficient
    s, p = case
    q = TorusElem(s.ambient, schoolbook_mul(p, s))
    quo = exact_left_div(p, q)
    assert quo == s
    assert schoolbook_mul(p, quo) == q.terms


@pytest.mark.parametrize("key", ["a2", "a3", "aff", "d4"])
def test_monomial_divisor_on_seed_variables(key):
    # the initial cluster variables are monomials; divide their products
    # with every variable by each of them, times each divisor coefficient
    seed = make_seed(key)
    for p0, s in itertools.product(seed.vars, seed.vars):
        for c in DIVISOR_COEFFS:
            p = p0.scaled(c)
            q = TorusElem(p.ambient, schoolbook_mul(p, s))
            assert exact_left_div(p, q) == s


def test_monomial_divisor_failure_names_the_first_bad_term():
    # 2 v X^(1,0) divides the lex-leading term of q, not the next one: the
    # error names the lex-largest term whose entries 2 does not divide
    lam = LMatrix.from_rows([[0, 1], [-1, 0]])
    p = TorusElem.monomial(lam, (1, 0), {1: 2})
    q = TorusElem(lam, {(3, 0): {0: 4}, (2, 1): {0: 2, 5: 3}, (1, 2): {0: 1},
                        (0, -1): {2: 6}})
    with pytest.raises(NotDivisibleError) as info:
        exact_left_div(p, q)
    assert info.value.reason == "coefficient"
    assert str(info.value) == ("not exactly divisible (coefficient): "
                               "leading coefficient at X^(2, 1) is not divisible")


def commuting_with(m, y):
    """An element with terms d_t X^{b + t a} (t = 0, 1, 2) for m = c X^a and
    b, d_t taken from y: aT L (b + t a) = aT L b for every t, so it
    q-commutes with m."""
    (a,) = m.terms
    b = next(iter(y.terms))
    cfs = list(y.terms.values())
    return TorusElem(m.ambient, {tuple(bi + t * ai for ai, bi in zip(a, b)): cfs[t % len(cfs)]
                                 for t in range(3)})


@PROFILE
@given(operand_sets())
def test_q_commute_matches_two_product_definition(ops):
    x, y, m, s = ops
    if x.is_zero() or y.is_zero():
        return
    # a single-term side is settled by the torus relation, without a product
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TorusElem, "__mul__", None)
        for u in (m, s):
            for z in (x, y, commuting_with(u, x), m, s):
                assert q_commute_exponent(u, z) == two_product_gamma(u, z)
                assert q_commute_exponent(z, u) == two_product_gamma(z, u)
    # as drawn (rarely bar-invariant), and symmetrized (always bar-invariant)
    assert q_commute_exponent(x, y) == two_product_gamma(x, y)
    xb, yb = x + x.bar(), y + y.bar()
    if xb.is_zero() or yb.is_zero():
        return
    assert xb.bar() == xb and yb.bar() == yb
    assert q_commute_exponent(xb, yb) == two_product_gamma(xb, yb)
    # bar-invariant monomials do q-commute, with gamma = aT L b
    (a, ca), (b, cb) = next(iter(x.terms.items())), next(iter(y.terms.items()))
    mx = TorusElem.monomial(x.ambient, a, ca) + TorusElem.monomial(x.ambient, a, ca).bar()
    my = TorusElem.monomial(y.ambient, b, cb) + TorusElem.monomial(y.ambient, b, cb).bar()
    if mx.is_zero() or my.is_zero():
        return
    assert mx.bar() == mx and my.bar() == my
    gamma = two_product_gamma(mx, my)
    assert gamma == sum(ai * x.ambient.rows[i][j] * bj
                        for i, ai in enumerate(a) for j, bj in enumerate(b))
    assert q_commute_exponent(mx, my) == gamma


def test_q_commute_on_cluster_variables():
    # cluster variables are bar-invariant, so only one product is made
    seed = mutate_seq(make_seed("aff"), (0, 1, 0, 1, 0))
    for i, x in enumerate(seed.vars):
        assert x.bar() == x
        for j, y in enumerate(seed.vars):
            if i != j:
                gamma = q_commute_exponent(x, y)
                assert gamma == seed.lmat.rows[i][j]
                assert gamma == two_product_gamma(x, y)


@pytest.mark.parametrize("c", WORD_EDGES)
def test_word_boundary_coefficients(c):
    lam = LMatrix.from_rows([[0, 2**31], [-(2**31), 0]])
    x = TorusElem.monomial(lam, (2**31, 1), {0: c, 1: -c, 70: c})
    y = TorusElem.monomial(lam, (-3, 2**31), {-1: c, 5: 1})
    assert (x * y).terms == schoolbook_mul(x, y)
    # the twist alone is far outside 64 bits
    m = TorusElem.monomial(lam, (2**31, 0)) * TorusElem.monomial(lam, (0, 2**31))
    assert m.terms == {(2**31, 2**31): {2**93: 1}}
    assert exact_left_div(x, x * y) == y


def test_cancellation():
    lam = LMatrix.from_rows([[0, 1], [-1, 0]])
    one = TorusElem.one(lam)
    x1 = TorusElem.monomial(lam, (1, 0))
    # (1 + X1)(1 - X1) = 1 - X1^2: the cross terms cancel monomial-wise
    assert (one + x1) * (one - x1) == one - x1 * x1
    # (v + v^-1)(v - v^-1) = v^2 - v^-2: the middle digit cancels
    a = TorusElem.monomial(lam, (0, 0), {1: 1, -1: 1})
    b = TorusElem.monomial(lam, (0, 0), {1: 1, -1: -1})
    assert (a * b).terms == {(0, 0): {2: 1, -2: -1}}
    # everything cancels: x * 0 after regrouping
    big = TorusElem.monomial(lam, (1, 1), {0: 2**64 + 1, 3: -(2**63)})
    assert (big * (one - one)).is_zero()
    assert ((one - one) * big).is_zero()
    assert (big * one - one * big).is_zero()


@PROFILE
@given(coeff_dicts, st.sampled_from((1, 2, 3, 4, 1000)), st.sampled_from(PACK_WIDTHS))
def test_pack_collect_roundtrip(cf, g, w):
    # any stride: exponents off the stride, or too far apart, go to own runs
    cf = {e: c for e, c in cf.items() if c}
    if not cf:
        return
    wc = digit_width(max(abs(c) for c in cf.values()))
    assert collect(pack(cf, wc, g), wc, g) == cf
    # the drawn width, with every entry reduced into its balanced digits:
    # at W = 32 and 64 the word edges land on -2^(W-1) and 2^(W-1) - 1
    half = 1 << (w - 1)
    cf = {e: r for e, c in cf.items() if (r := (c + half) % (2 * half) - half)}
    if cf:
        assert collect(pack(cf, w, g), w, g) == cf


pieces = st.lists(
    st.tuples(
        # starts on and off the stride, near and far beyond one run's span
        st.integers(-3 * _SPAN, 3 * _SPAN),
        st.sampled_from((0, 1)),
        st.lists(coeff_values, min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=12,
)


@PROFILE
@given(pieces, st.sampled_from((1, 2, 4)))
def test_add_piece_keeps_runs_within_span(drawn, g):
    # runs built piece by piece keep their digits on the stride, at or
    # above lo and at most _SPAN strides plus the longest piece above it,
    # and collect to the schoolbook sum of the pieces
    w = digit_width(sum(abs(c) for _, _, digits in drawn for c in digits))
    reach = g * (_SPAN + max(len(digits) for _, _, digits in drawn) - 1)
    runs: list = []
    expected: dict = {}
    for k, off, digits in drawn:
        s = k * g + off
        m = sum(c << (w * i) for i, c in enumerate(digits))
        add_piece(runs, s, m, w, g)
        for i, c in enumerate(digits):
            expected[s + g * i] = expected.get(s + g * i, 0) + c
    for lo, n in runs:
        for e in unpack(lo, n, w, g):
            assert (e - lo) % g == 0 and 0 <= e - lo <= reach
    assert collect(runs, w, g) == {e: c for e, c in expected.items() if c}


def test_a_piece_below_a_full_run_opens_a_run():
    # two 4-digit pieces reach v^_SPAN from lo = 0; a piece at v^-2 lies
    # more than _SPAN strides below that run's top, so it opens its own,
    # while one at v^(4 - _SPAN) below a run of one piece joins it
    piece = sum(1 << (8 * i) for i in range(4))
    runs: list = []
    add_piece(runs, 0, piece, 8, 1)
    add_piece(runs, _SPAN - 3, piece, 8, 1)
    assert len(runs) == 1 and max(unpack(*runs[0], 8, 1)) == _SPAN
    add_piece(runs, -2, 1, 8, 1)
    assert len(runs) == 2 and runs[1] == [-2, 1]
    runs = [[0, piece]]
    add_piece(runs, 4 - _SPAN, 1, 8, 1)
    assert runs == [[4 - _SPAN, 1 + (piece << (8 * (_SPAN - 4)))]]


def test_digits_at_the_width_boundary():
    for w in PACK_WIDTHS:
        half = 1 << (w - 1)
        for digits in ({0: half - 1, 1: -half, 2: half - 1},
                       {0: -half, 3: -half},
                       {5: half - 1, 6: 1 - half},
                       {4: half - 1}, {4: -half},
                       # every digit below the top one at -2^(W-1): n has
                       # bit length W j - 1 for the top digit's index j
                       {0: -half, 1: -half, 2: 1},
                       {0: -half, 1: -half, 2: -half, 3: 1}):
            ((lo, n),) = pack(digits, w, 1)
            assert unpack(lo, n, w, 1) == digits
        # a digit outside the width raises, a single entry's too (at W = 8:
        # 127 and -128 pack, 128 raises); it never packs to a wrong int
        for bad in (half, -half - 1, 2**200, -2**200):
            for digits in ({0: bad, 1: 1}, {0: 1, 2: bad}, {0: bad}):
                with pytest.raises(OverflowError):
                    pack(digits, w, 1)
    # W is the least of 8, 16, 32, 64 with bound < 2^(W-1), else whole bytes
    for bits in range(140):
        assert digit_width((1 << bits) - 1) == next(
            w for w in (8, 16, 32, 64, *range(72, 160, 8)) if bits < w)
    # a product whose coefficient is exactly ||x||_1 ||y||_1 = 2^(W-1) - 1,
    # the largest value the chosen width holds
    lam = LMatrix.from_rows([[0, 1], [-1, 0]])
    widths = {7: 8, 8: 16, 15: 16, 16: 32, 31: 32, 40: 64, 63: 64, 64: 72}
    for bits, w in widths.items():
        c = (1 << bits) - 1
        x = TorusElem.monomial(lam, (1, 0), c)
        y = TorusElem.monomial(lam, (0, 1), 1)
        assert digit_width(c) == w
        assert (x * y).terms == {(1, 1): {1: c}}
        assert (x.scaled(-1) * y).terms == {(1, 1): {1: -c}}
        # two entries at that bound pack as one dense run of width W
        z = TorusElem.monomial(lam, (1, 0), {0: c, 1: -c})
        assert (z * y).terms == schoolbook_mul(z, y)
    # all contributions with one sign add up to the L1 bound itself
    x = TorusElem.monomial(lam, (0, 0), {0: 2**40 - 1, 1: 2**40 - 1})
    assert (x * x).terms == {(0, 0): {0: (2**40 - 1) ** 2, 1: 2 * (2**40 - 1) ** 2,
                                      2: (2**40 - 1) ** 2}}


def test_division_widens_for_large_quotients():
    # q = (1 - X1^41)^3 has L1 norm 8, but its quotient by (1 - X1)^3 is
    # (1 + X1 + ... + X1^40)^3, with coefficients up to 1261: the digit width
    # chosen from q alone is too narrow and has to grow during the division
    lam = LMatrix.from_rows([[0, 1], [-1, 0]])
    one = TorusElem.one(lam)
    x1 = TorusElem.monomial(lam, (1, 0))
    p = (one - x1).pow(3)
    s = TorusElem(lam, {(e, 0): {0: 1} for e in range(41)}).pow(3)
    q = p * s
    assert q == (one - x1.pow(41)).pow(3)
    assert max(c for cf in s.terms.values() for c in cf.values()) == 1261
    assert exact_left_div(p, q) == s


def test_division_widens_past_a_cancelled_entry():
    # p = X^2 + X + 1, q = p * 20 (X^2 - X + 1) = 20 (X^4 + X^2 + 1): the first
    # peel cancels the remainder at X^2, and the second peel widens the digit
    # width while that zero entry is still in the remainder
    lam = LMatrix.from_rows([[0]])
    p = TorusElem(lam, {(2,): {0: 1}, (1,): {0: 1}, (0,): {0: 1}})
    s = TorusElem(lam, {(2,): {0: 20}, (1,): {0: -20}, (0,): {0: 20}})
    q = p * s
    assert q == TorusElem(lam, {(4,): {0: 20}, (2,): {0: 20}, (0,): {0: 20}})
    assert exact_left_div(p, q) == s


def test_wide_and_sparse_v_spans():
    lam = LMatrix.from_rows([[0, 3], [-3, 0]])
    # 161 consecutive v-exponents; gaps far beyond one run; runs of
    # different residues mod the stride 4 of the first coefficient
    dense = TorusElem.monomial(lam, (1, 0), {e: (-1) ** (e % 2) * (e + 1) for e in range(-80, 81)})
    sparse = TorusElem.monomial(lam, (0, 1), {0: 1, 10**6: -2, -(10**9): 3})
    mixed = (TorusElem.monomial(lam, (1, 1), {0: 5, 4: -1, 2000: 2})
             + TorusElem.monomial(lam, (0, 1), {1: 7})
             + TorusElem.monomial(lam, (1, 0), {-3: 1}))
    cases = [(x, y) for x in (dense, sparse, mixed) for y in (dense, sparse, mixed)]
    for x, y in cases:
        assert (x * y).terms == schoolbook_mul(x, y)
        assert exact_left_div(x, x * y) == y


def test_rank_above_64():
    k = 70
    lam = skew({(69, 0): 5, (65, 3): -2, (40, 39): 1}, k)
    e = [0] * k
    e[0], e[3], e[39] = 2, -1, 4
    f = [0] * k
    f[69], f[65], f[40] = 1, 3, -2
    x = TorusElem.monomial(lam, e, {0: 2**64 + 1, 2: -1}) + TorusElem.monomial(lam, f, 7)
    y = TorusElem.monomial(lam, f, {-1: 3}) + TorusElem.one(lam)
    assert (x * y).terms == schoolbook_mul(x, y)
    assert exact_left_div(x, x * y) == y
    assert q_commute_exponent(x, y) == two_product_gamma(x, y)


# ---------------------------------------------------------------------------
# exponent keys: products and division key each exponent vector a by the
# int E(a) whose balanced base-2^V digits are a's components

@pytest.mark.parametrize("big", (2**31, 2**63, 2**70))
def test_exponents_past_machine_words(big):
    # components at +-big, of both signs within one exponent, so that the
    # keys need V > 32, > 64 and > 72 bits, and twists reach big^2
    lam = LMatrix.from_rows([[0, 1, -2], [-1, 0, 3], [2, -3, 0]])
    x = (TorusElem.monomial(lam, (big, -big, 1), {0: 2, 1: -1})
         + TorusElem.monomial(lam, (-big, 0, big), {3: 1})
         + TorusElem.monomial(lam, (0, 1, -1), 5))
    y = (TorusElem.monomial(lam, (big, big, -big), {-2: 1})
         + TorusElem.monomial(lam, (1, -big, 0), {0: -3, 4: 1}))
    # every component stays below 2^(V-1), the cube's included
    assert PackedSum(lam, [(0, [(x, 1), (y, 1)])]).v > (2 * big).bit_length()
    assert PackedSum(lam, [(0, [(x, 3)])]).v > (3 * big).bit_length()
    for a, b in ((x, y), (y, x), (x, x), (y, y)):
        assert (a * b).terms == schoolbook_mul(a, b)
        assert exact_left_div(a, a * b) == b
    assert x.pow(3).terms == schoolbook_mul(TorusElem(lam, schoolbook_mul(x, x)), x)


@PROFILE
@given(st.data())
def test_exponent_keys_sort_in_lex_order(data):
    # every component in [-M/2, M/2), M = 2^V: vectors that share a prefix
    # and differ further on, where only the lower digits decide
    k = data.draw(st.integers(1, 70))
    v = data.draw(st.sampled_from((8, 16, 32, 64, 72, 128)))
    half = 1 << (v - 1)
    comps = st.one_of(st.sampled_from((-half, -half + 1, -1, 0, 1, half - 2, half - 1)),
                      st.integers(-half, half - 1))
    base = data.draw(st.lists(comps, min_size=k, max_size=k))
    vecs = {tuple(base)}
    for _ in range(data.draw(st.integers(1, 8))):
        vec = list(base)
        for i in data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=3)):
            vec[i] = data.draw(comps)
        vecs.add(tuple(vec))
    x = TorusElem(skew({}, k), {a: 1 for a in vecs})
    by_key = {key: a for key, a, _, _, _ in _packed(x, 8, 1, v)}
    assert len(by_key) == len(vecs)
    assert [by_key[key] for key in sorted(by_key)] == sorted(vecs)


@pytest.mark.parametrize("sign", (1, -1))
def test_exponent_keys_at_the_edge_of_their_width(sign):
    # e(x) + e(y) = 100 + 27 = 127 = M/2 - 1 at V = 8, which the product
    # reaches at (127, .) and (-127, .)
    lam = LMatrix.from_rows([[0, 1], [-1, 0]])
    x = TorusElem.monomial(lam, (100, 0)) + TorusElem.monomial(lam, (-100, 1), {1: 2})
    y = TorusElem.monomial(lam, (27 * sign, -3)) + TorusElem.monomial(lam, (-27 * sign, 0), -1)
    s = PackedSum(lam, [(0, [(x, 1), (y, 1)])])
    assert s.v == 8 and digit_width(127) == 8
    assert {127, -127} <= {a[0] for a in s[0].terms}
    assert s[0].terms == schoolbook_mul(x, y)
    # q's exponents reach 100, so the division keys at q's V = 8; p's
    # exponents reach 27 and the quotient's 127 sign, keys that are only
    # ever added
    p = TorusElem.monomial(lam, (-27 * sign, 0)) + TorusElem.monomial(lam, (-27 * sign, -1), {2: 3})
    quo = (TorusElem.monomial(lam, (127 * sign, 0), {0: 1, 2: 1})
           + TorusElem.monomial(lam, (126 * sign, 1), -1))
    q = p * quo
    assert max(max(map(abs, a)) for a in q.terms) == 100
    assert exact_left_div(p, q) == quo
    # p's and the quotient's exponents reach 200 > M/2 while q's stay below
    # 3: keyed at q's V = 8, every exponent the remainder meets lies in
    # q's bounding box, and the lead of p is chosen by its vector
    p = TorusElem.monomial(lam, (200 * sign, 0)) + TorusElem.monomial(lam, (199 * sign, 1), {0: 2})
    quo = TorusElem.monomial(lam, (-200 * sign, 1)) + TorusElem.monomial(lam, (-199 * sign, 0), -1)
    q = p * quo
    assert PackedSum(lam, [(0, [(q, 1)])]).v == 8
    assert exact_left_div(p, q) == quo


def test_twist_vectors_are_computed_once_per_element(monkeypatch):
    # packing an element computes L a once for each of its terms, and a
    # second product of the same elements, at the same widths, reads them
    # from the packed copy
    calls = []
    combine_rows = qca.torus._combine_rows

    def spy(rows, a):
        calls.append(a)
        return combine_rows(rows, a)

    monkeypatch.setattr(qca.torus, "_combine_rows", spy)
    lam = skew({(1, 0): 1, (2, 0): -2, (2, 1): 3}, 3)
    x = TorusElem(lam, {(1, 0, 0): {0: 1, 2: 3}, (0, 1, 0): 2, (-1, 0, 2): {1: -1}})
    y = TorusElem(lam, {(0, 0, 1): 1, (2, -1, 0): {0: 1, 2: 1}})
    first = x * y
    assert len(calls) == len(x.terms) + len(y.terms)
    assert x * y == first == TorusElem(lam, schoolbook_mul(x, y))
    assert len(calls) == len(x.terms) + len(y.terms)


def schoolbook_left_div(p: TorusElem, q: dict) -> dict:
    """s with p s = q, for q divisible by p, peeled with dicts: the
    remainder's lex-leading coefficient at X^ar, less the twist
    v^{apT L aq}, divided by p's leading coefficient (qc_div_exact), is the
    coefficient of X^aq, aq = ar - ap."""
    rows, ap = p.ambient.rows, max(p.terms)
    rem = {a: dict(cf) for a, cf in q.items()}
    out = {}
    while rem:
        ar = max(rem)
        aq = tuple(r - e for r, e in zip(ar, ap))
        twist = sum(ai * rows[i][j] * bj for i, ai in enumerate(ap) for j, bj in enumerate(aq))
        c = qc_div_exact({e - twist: d for e, d in rem[ar].items()}, p.terms[ap])
        assert c is not None
        out[aq] = c
        for a, cf in schoolbook_mul(p, TorusElem(p.ambient, {aq: c})).items():
            acc = rem.setdefault(a, {})
            for e, d in cf.items():
                acc[e] = acc.get(e, 0) - d
                if not acc[e]:
                    del acc[e]
            if not acc:
                del rem[a]
    return out


def test_kronecker_exchange_against_the_schoolbook():
    # step 11 of the Kronecker chain: its numerator holds the square of
    # step 10's variable, and it is divided by step 9's
    seed = make_seed("aff")
    ks = [seed.ex[i % 2] for i in range(11)]
    made = {}
    for n, k in enumerate(ks[:10], 1):
        seed = mutate(seed, k)
        made[n] = seed.vars[k]
    k, lam = ks[10], seed.l_init
    assert seed.vars[k] is made[9]
    *_, prods = _exchange_terms(seed, k)
    assert any(x is made[10] and c == 2 for _, factors in prods for x, c in factors)
    packed = PackedSum(lam, prods)
    num: dict = {}
    for i, (t, factors) in enumerate(prods):
        term = {(0,) * lam.k: {t: 1}}
        for x, c in factors:
            for _ in range(c):
                term = schoolbook_mul(TorusElem(lam, term), x)
        assert packed[i].terms == term
        num = (TorusElem(lam, num) + TorusElem(lam, term)).terms
    quotient = exact_left_div(made[9], packed)
    assert quotient.terms == schoolbook_left_div(made[9], num)
    assert quotient == mutate(seed, k).vars[k]


def exact_quotient_over_q(num: dict, den: dict):
    """num / den in Z[v^{+-1}] or None, by long division of polynomials over
    Q: with P = num v^-min(num) and D = den v^-min(den), D(0) != 0, so the
    quotient is a Laurent polynomial iff D divides P in Q[v], and it must
    then have integer coefficients."""
    lo_n, lo_d = min(num), min(den)
    rem = [Fraction(0)] * (max(num) - lo_n + 1)
    for e, c in num.items():
        rem[e - lo_n] = Fraction(c)
    d = [0] * (max(den) - lo_d + 1)
    for e, c in den.items():
        d[e - lo_d] = c
    quo = {}
    for i in range(len(rem) - len(d), -1, -1):
        c = rem[i + len(d) - 1] / d[-1]
        if c:
            quo[i + lo_n - lo_d] = c
            for j, dj in enumerate(d):
                rem[i + j] -= c * dj
    if any(rem) or any(c.denominator != 1 for c in quo.values()):
        return None
    return {e: int(c) for e, c in quo.items()}


small_coeff_dicts = st.dictionaries(st.integers(-6, 6), coeff_values.filter(bool),
                                    min_size=1, max_size=4)


@PROFILE
@given(st.one_of(monomial_coeffs, small_coeff_dicts),
       small_coeff_dicts, small_coeff_dicts)
def test_coefficient_division_is_exact_or_none(den, s, noise):
    # single-entry and multi-entry divisors; exact dividends s * den and
    # perturbed ones, which usually do not divide
    exact = qc_mul(s, den)
    for num in (exact, qc_mul(s, {0: 1, 1: 1}), {**exact, **noise}):
        if not num:
            continue
        result = qc_div_exact(num, den)
        assert result == exact_quotient_over_q(num, den)
        if result is not None:
            assert qc_mul(result, den) == num
    if exact:
        assert qc_div_exact(exact, den) == s
