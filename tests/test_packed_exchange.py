"""The packed exchange against a reference built without it.

seeds._exchange_terms multiplies both monomials of every exchange on
packed runs (torus.PackedSum), and exact_left_div peels their summed runs
without unpacking the numerator; mutate and run_suite both divide what it
returns.  Here every step is compared with exact_left_div(X_k, m_pos +
m_neg) on monomials built by cluster_monomial: on random symmetric GCM
seeds, on both Kronecker chains, with an empty cluster monomial, with a
divisor whose lead is 2 or -v^2, and with a numerator whose runs cancel or
whose quotient outgrows the first width.  A product with a zero factor is
zero.  A PackedSum is built without its divisor, so the division is also
checked against divisors of another stride or a wider norm, and one stored
numerator against several divisors.  Deep in a Kronecker chain, where
the digits need more than 64 bits, mutate is checked against a linear
recurrence whose coefficients are written out as data.
"""

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qca
import qca.torus
from qca.classical import classical_mutate, classical_shadow, compare_q1
from qca.coeffs import digit_width
from qca.errors import NotDivisibleError
from qca.checks import _Walk
from qca.seeds import exchange_parts, exchange_term_bound, mutate
from qca.torus import LMatrix, PackedSum, TorusElem, exact_left_div

from conftest import exchange_reference, gcm_and_word, make_seed

# the largest exchange numerator, by exchange_term_bound, that the random
# walks below compare with the materialized route
MAX_TERMS = 1000


def materialized(seed, k):
    """(m_pos, m_neg, new_var) of the exchange in direction k, the
    monomials from cluster_monomial, added and divided as torus elements."""
    *_, m_pos, m_neg = exchange_reference(seed, k)
    return m_pos, m_neg, exact_left_div(seed.vars[k], m_pos + m_neg)


def packed_calls(monkeypatch):
    """A list that gets one entry per PackedSum that qca.seeds builds."""
    calls = []

    class Counted(PackedSum):
        __slots__ = ()

        def __init__(self, ambient, products):
            calls.append(len(products))
            super().__init__(ambient, products)

    monkeypatch.setattr(qca.seeds, "PackedSum", Counted)
    return calls


def assert_step(seed, k):
    """mutate and exchange_parts in direction k agree with the
    materialized route; returns the child."""
    m_pos, m_neg, new_var = materialized(seed, k)
    parts = exchange_parts(seed, k)
    assert (parts.m_pos, parts.m_neg, parts.new_var) == (m_pos, m_neg, new_var)
    child = mutate(seed, k)
    assert child.vars[k] == new_var
    return child


def kronecker_chain(first, steps):
    """The Kronecker seed and the alternating directions from first."""
    seed = make_seed("aff")
    a, b = seed.ex if first == seed.ex[0] else seed.ex[::-1]
    return seed, [a if i % 2 == 0 else b for i in range(steps)]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(gcm_and_word(2, 5), st.data())
def test_mutate_matches_the_materialized_route_on_random_gcms(case, data):
    seed = qca.build_initial_seed(*case)
    assume(seed.ex)
    for k in data.draw(st.lists(st.sampled_from(seed.ex), min_size=1, max_size=5)):
        if exchange_term_bound(seed, k) > MAX_TERMS:
            break
        seed = assert_step(seed, k)


@pytest.mark.parametrize("first", [0, 1])
def test_mutate_matches_the_materialized_route_on_kronecker_chains(monkeypatch, first):
    seed, ks = kronecker_chain(make_seed("aff").ex[first], 14)
    calls = packed_calls(monkeypatch)
    for k in ks:
        seed = assert_step(seed, k)
    # every numerator is packed: exchange_parts and mutate each build one
    # PackedSum per step
    assert len(calls) == 2 * 14


def test_an_exchange_with_an_empty_cluster_monomial():
    # column k of B~ has no positive entry, so M' is the empty product and
    # the numerator is 1 + v^{-2} X2: product 0 of the PackedSum has no
    # factors
    lam = LMatrix.from_rows([[0, -2], [2, 0]])
    seed = qca.QuantumSeed.initial(lam, qca.BMatrix.from_rows([[0], [-1]], (0,)),
                                   (qca.Weight.fundamental(1, 0), qca.Weight.zero(1)))
    parts = exchange_parts(seed, 0)
    assert (parts.a_pos, parts.a_neg, parts.shift_pos, parts.shift_neg,
            parts.m_pos, parts.m_neg) == exchange_reference(seed, 0)
    assert parts.m_pos + parts.m_neg == TorusElem.one(lam) + TorusElem.monomial(
        lam, (0, 1), {-2: 1})
    assert seed.vars[0] * parts.new_var == parts.m_pos + parts.m_neg
    assert mutate(mutate(seed, 0), 0) == seed


def scaled_var(seed, i, coeff):
    vars_ = list(seed.vars)
    vars_[i] = vars_[i].scaled(coeff)
    return replace(seed, vars=tuple(vars_))


def test_a_divisor_led_by_two_fails_as_exact_left_div_does(monkeypatch):
    seed, ks = kronecker_chain(make_seed("aff").ex[0], 5)
    for k in ks[:-1]:
        seed = mutate(seed, k)
    k = ks[-1]
    bad = scaled_var(seed, k, 2)  # validated in full, as a loaded seed is
    calls = packed_calls(monkeypatch)
    with pytest.raises(NotDivisibleError) as packed:
        mutate(bad, k)
    assert calls == [2]
    *_, m_pos, m_neg = exchange_reference(bad, k)
    with pytest.raises(NotDivisibleError) as plain:
        exact_left_div(bad.vars[k], m_pos + m_neg)
    assert packed.value.reason == plain.value.reason == "coefficient"
    assert str(packed.value) == str(plain.value)


def test_a_divisor_led_by_minus_v_squared_divides_as_exact_left_div_does(monkeypatch):
    seed, ks = kronecker_chain(make_seed("aff").ex[1], 6)
    for k in ks[:-1]:
        seed = mutate(seed, k)
    k = ks[-1]
    signed = scaled_var(seed, k, {2: -1})
    lead = signed.vars[k].terms[max(signed.vars[k].terms)]
    assert lead == {2: -1}
    calls = packed_calls(monkeypatch)
    child = mutate(signed, k)
    assert calls == [2]
    m_pos, m_neg, new_var = materialized(signed, k)
    assert child.vars[k] == new_var == mutate(seed, k).vars[k].scaled({-2: -1})


def commutative(k):
    return LMatrix.from_rows([[0] * k for _ in range(k)])


def test_runs_that_cancel_are_left_out_of_the_newton_box():
    # (X1 + X2)^2 + (-X1) X1 = 2 X1 X2 + X2^2: the packed runs at X1^2
    # cancel, and the box comes from the two exponents left.  Peeling by
    # X1 + X2 leaves -X2^2, whose quotient exponent (-1, 2) is outside it
    lam = commutative(2)
    x1, x2 = TorusElem.monomial(lam, (1, 0)), TorusElem.monomial(lam, (0, 1))
    s = PackedSum(lam, [(0, [(x1 + x2, 2)]), (0, [(-x1, 1), (x1, 1)])])
    assert (s[0], s[1]) == ((x1 + x2) * (x1 + x2), -(x1 * x1))
    assert (s[0] + s[1]).terms == {(1, 1): {0: 2}, (0, 2): {0: 1}}
    message = ("not exactly divisible (newton_box): quotient exponent (-1, 2) "
               "leaves the Newton box [[0, 0], [1, 1]]")
    for q in (s, s[0] + s[1]):
        with pytest.raises(NotDivisibleError) as info:
            exact_left_div(x1 + x2, q)
        assert info.value.reason == "newton_box"
        assert str(info.value) == message


def test_the_width_widens_in_the_middle_of_the_peel(monkeypatch):
    # 30 X1^6 - 30 X2^6 = (X1 - X2) * 30 (X1^5 + X1^4 X2 + ... + X2^5): the
    # products bound every coefficient by 60, so W starts at 8 bits, and
    # the quotient's norm passes that bound after its second term
    lam = commutative(2)
    x1, x2 = TorusElem.monomial(lam, (1, 0)), TorusElem.monomial(lam, (0, 1))
    p = x1 - x2
    s = PackedSum(lam, [(0, [(x1.scaled(30), 1), (x1, 5)]), (0, [(x2.scaled(-30), 1), (x2, 5)])])
    assert (s.bound, s.w) == (60, 8)
    widths = []
    repacked = qca.torus._repacked

    def spy(rem, w, g, need):
        widths.append((w, need))
        return repacked(rem, w, g, need)

    monkeypatch.setattr(qca.torus, "_repacked", spy)
    quotient = exact_left_div(p, s)
    expected = TorusElem(lam, {(i, 5 - i): {0: 30} for i in range(6)})
    assert quotient == expected == exact_left_div(p, s[0] + s[1])
    assert widths[0] == (8, digit_width(60 + 2 * 60))


def test_a_divisor_wider_than_the_packed_width_widens_it_first():
    # X1 X2 packs in 8 bits; X1 + (300 + 300 v^2) X2 does not, so the
    # remainder is repacked before that divisor's entries are packed, which
    # would otherwise overflow
    lam = commutative(2)
    x1, x2 = TorusElem.monomial(lam, (1, 0)), TorusElem.monomial(lam, (0, 1))
    s = PackedSum(lam, [(0, [(x1, 1), (x2, 1)])])
    p = x1 + x2.scaled({0: 300, 2: 300})
    assert s.w == 8 < digit_width(300)
    for q in (s, s[0]):
        with pytest.raises(NotDivisibleError) as info:
            exact_left_div(p, q)
        assert str(info.value) == ("not exactly divisible (newton_box): quotient exponent "
                                   "(0, 1) leaves the Newton box [[1, 0], [1, 0]]")


def test_a_divisor_off_the_packed_stride_divides_as_exact_left_div_does():
    # the factors' coefficients have stride 2, so the sum packs at g = 2,
    # while each divisor, X1 + (1 + v) X2 with a unit lead and (1 + v) X1 +
    # (1 + v) X2 without, has stride 1: its entries pack into runs of both
    # residues mod 2
    lam = commutative(2)
    x1, x2 = TorusElem.monomial(lam, (1, 0)), TorusElem.monomial(lam, (0, 1))
    for p, q in ((x1 + x2.scaled({0: 1, 1: 1}), x1 + x2.scaled({0: 1, 1: -1})),
                 ((x1 + x2).scaled({0: 1, 1: 1}), (x1 + x2).scaled({0: 1, 1: -1}))):
        f = p * q
        s = PackedSum(lam, [(0, [(f, 1)]), (3, [(f, 1), (x1, 1)])])
        assert s.g == 2
        expected = q * (TorusElem.one(lam) + x1.v_shift(3))
        assert exact_left_div(p, s) == exact_left_div(p, s[0] + s[1]) == expected
    # the factors name the torus, and all must live in it
    with pytest.raises(ValueError):
        PackedSum(commutative(3), [(0, [(f, 1)])])


def test_a_zero_factor_makes_a_zero_product_and_packs_nothing():
    # a product's bound is 0 when one of its factors is zero, and a width
    # fixed from it (8 bits) holds no coefficient of x; such a product is
    # zero, and next to a nonzero product it adds nothing to the sum
    lam = LMatrix.from_rows([[0, 1], [-1, 0]])
    x = TorusElem(lam, {(1, 1): {0: 2**64 + 1, 3: -2**63}})
    zero = TorusElem.zero(lam)
    for factors in ([(x, 1), (zero, 1)], [(zero, 1), (x, 2)]):
        assert PackedSum(lam, [(0, factors)])[0] == zero
    assert x * zero == zero * x == zero.pow(2) == zero
    s = PackedSum(lam, [(0, [(x, 1), (zero, 1)]), (1, [(x, 1)])])
    assert (s[0], s[1]) == (zero, x.v_shift(1))
    assert exact_left_div(x, s) == TorusElem.one(lam).v_shift(1)
    # the factors of a zero product must still live in the torus
    with pytest.raises(ValueError):
        PackedSum(commutative(2), [(0, [(x, 1), (zero, 1)])])


def test_a_divisor_that_needs_a_wider_width_divides_as_exact_left_div_does():
    # (1 - v^200)(X1^2 - X2^2) = c (X1 + X2) * (1 - v)(X1 - X2) with
    # c = 1 + v + ... + v^199: the products bound the sum by B = 4, so W
    # starts at 8 bits, below the 400 of the divisor's norm
    lam = commutative(2)
    x1, x2 = TorusElem.monomial(lam, (1, 0)), TorusElem.monomial(lam, (0, 1))
    c = dict.fromkeys(range(200), 1)
    p = (x1 + x2).scaled(c)
    s = PackedSum(lam, [(0, [(x1.scaled({0: 1, 200: -1}), 1), (x1, 1)]),
                        (0, [(x2.scaled({0: -1, 200: 1}), 1), (x2, 1)])])
    assert (s.bound, s.w, s.g) == (4, 8, 200) and digit_width(400) == 16
    expected = (x1 - x2).scaled({0: 1, 1: -1})
    assert exact_left_div(p, s) == exact_left_div(p, s[0] + s[1]) == expected
    # (1 - v^200) X1^2 + X1 X2 + X2^2 is not divisible: the first quotient
    # term (1 - v) X1 widens W and packs p, and the remainder v^200 X1 X2 is
    # not a multiple of c
    s = PackedSum(lam, [(0, [(x1.scaled({0: 1, 200: -1}), 1), (x1, 1)]),
                        (0, [(x1, 1), (x2, 1)]), (0, [(x2, 2)])])
    assert (s.bound, s.w) == (4, 8)
    for q in (s, s[0] + s[1] + s[2]):
        with pytest.raises(NotDivisibleError) as info:
            exact_left_div(p, q)
        assert (info.value.reason, str(info.value)) == (
            "coefficient", "not exactly divisible (coefficient): leading "
            "coefficient at X^(1, 1) is not divisible")


def test_one_stored_numerator_serves_every_divisor():
    # copies of the seed whose X_k is v^2 X_k or 2 X_k have its terms key:
    # the walk divides the one PackedSum it stored by all three X_k, as
    # exact_left_div divides the sum of the reference monomials
    seed, ks = kronecker_chain(make_seed("aff").ex[0], 3)
    for k in ks[:-1]:
        seed = mutate(seed, k)
    k = ks[-1]
    walk = _Walk(())
    num = walk.terms(seed, k)[1][4]
    assert isinstance(num, PackedSum)
    *_, m_pos, m_neg = exchange_reference(seed, k)
    for coeff in ({0: 1}, {2: 1}, {0: 2}):
        other = scaled_var(seed, k, coeff)
        assert walk.terms(other, k)[1][4] is num
        try:
            expected = exact_left_div(other.vars[k], m_pos + m_neg)
        except NotDivisibleError as e:
            with pytest.raises(NotDivisibleError) as info:
                walk.exchange(other, k)
            assert str(info.value) == str(e)
        else:
            assert walk.exchange(other, k).new_var == expected
    assert walk.counts["terms"] == [1, 6]
    assert walk.counts["divisions"] == [3, 0]


@pytest.mark.slow
@pytest.mark.parametrize("first", [0, 1])
def test_deep_kronecker_steps_match_the_classical_oracle(first):
    # steps 12-16 of each chain against the q = 1 shadow and the
    # materialized route
    seed, ks = kronecker_chain(make_seed("aff").ex[first], 16)
    shadow = classical_shadow(seed)
    for step, k in enumerate(ks, 1):
        if step >= 12:
            _, _, new_var = materialized(seed, k)
        seed, shadow = mutate(seed, k), classical_mutate(shadow, k)
        if step >= 12:
            assert seed.vars[k] == new_var
            assert compare_q1(seed, shadow) == []


def kronecker_recurrence(lam, twist):
    """(z, c) of the recurrence y_n = y_{n-1} z - c y_{n-2} of the
    Kronecker chain whose first direction has the given twist."""
    z = TorusElem(lam, {(-1, -1, 2, 0): {-2 * twist: 1}, (-1, 1, 1, 0): {-2 * twist: 1},
                        (1, -1, 0, 1): {-2 * twist: 1}})
    c = TorusElem.monomial(lam, (0, 0, 1, 1), {8 * twist: 1})
    return z, c


@pytest.mark.slow
@pytest.mark.parametrize("first, twist", [(0, 1), (1, -1)])
def test_the_kronecker_chain_keeps_its_recurrence_past_64_bit_digits(first, twist):
    # rank-2 affine cluster variables satisfy a three-term linear
    # recurrence (Sherman-Zelevinsky, Mosc. Math. J. 2004, at q = 1): from
    # either first direction, the variable y_n made at step n satisfies
    # y_n = y_{n-1} z - c y_{n-2} for n >= 4, with z and c written out here
    # rather than taken from the engine: z = v^{-2 twist} (X^(1,-1,0,1) +
    # X^(-1,1,1,0) + X^(-1,-1,2,0)) and c = v^{8 twist} X^(0,0,1,1); at
    # step 24 the numerator's digits need more than 64 bits, so checked
    # mutate runs at W = 72, and the chain goes on to step 28
    seed, ks = kronecker_chain(make_seed("aff").ex[first], 28)
    z, c = kronecker_recurrence(seed.l_init, twist)
    y = {}
    for n, k in enumerate(ks, 1):
        if n == 24:
            assert exchange_parts(seed, k).monomials.w > 64
        seed = mutate(seed, k)
        y[n] = seed.vars[k]
        if n >= 4:
            assert y[n] == y[n - 1] * z - c * y[n - 2]


@pytest.mark.slow
@pytest.mark.parametrize("first, twist", [(0, 1), (1, -1)])
def test_exact_division_past_a_thousand_terms(first, twist):
    # y_1..y_4 from checked mutate, then the recurrence alone, up to the
    # first y_n of 1,000 terms or more (step 45: 1,036 terms, 50-bit
    # coefficients).  y_{n-1} divides y_n + c y_{n-2} = y_{n-1} z: a
    # 991-term divisor, a 1,037-term dividend and three quotient terms,
    # while the peel drops over 1,000 cancelled remainder keys
    seed, ks = kronecker_chain(make_seed("aff").ex[first], 4)
    z, c = kronecker_recurrence(seed.l_init, twist)
    y = []
    for k in ks:
        seed = mutate(seed, k)
        y.append(seed.vars[k])
    while y[-1].n_terms() < 1000:
        y.append(y[-1] * z - c * y[-2])
    assert len(y) == 45
    assert exact_left_div(y[-2], y[-1] + c * y[-3]) == z
