"""The packed exchange of mutate against the materialized route.

mutate multiplies the two cluster monomials of an exchange on packed runs
(torus.PackedSum) and peels their summed runs without unpacking the
numerator.  Here every such step is compared with exact_left_div(X_k,
m_pos + m_neg) on the monomials that run_suite materializes: on random
symmetric GCM seeds, on both Kronecker chains, with a divisor whose lead
is 2 or -v^2, and with a numerator whose runs cancel or whose quotient
outgrows the first width.
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
from qca.seeds import _exchange_terms, exchange_parts, exchange_term_bound, mutate
from qca.torus import LMatrix, PackedSum, TorusElem, exact_left_div

from conftest import gcm_and_word, make_seed

# the largest exchange numerator, by exchange_term_bound, that the random
# walks below compare with the materialized route
MAX_TERMS = 1000


def materialized(seed, k):
    """(m_pos, m_neg, new_var) of the exchange in direction k, by the route
    run_suite takes: the monomials as torus elements, added and divided."""
    *_, m_pos, m_neg = _exchange_terms(seed, k)
    return m_pos, m_neg, exact_left_div(seed.vars[k], m_pos + m_neg)


def packed_calls(monkeypatch):
    """A list that gets one entry per PackedSum that qca.seeds builds."""
    calls = []

    class Counted(PackedSum):
        __slots__ = ()

        def __init__(self, divisor, products):
            calls.append(len(products))
            super().__init__(divisor, products)

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
    # from the third step on a monomial squares a variable of several
    # terms: exchange_parts and mutate each pack those 12 steps
    assert len(calls) == 2 * 12


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
    *_, m_pos, m_neg = _exchange_terms(bad, k)
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
    s = PackedSum(x1 + x2, [(0, [(x1 + x2, 2)]), (0, [(-x1, 1), (x1, 1)])])
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
    s = PackedSum(p, [(0, [(x1.scaled(30), 1), (x1, 5)]), (0, [(x2.scaled(-30), 1), (x2, 5)])])
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
    # X1 X2 packed for X1 + X2 fits in 8 bits; X1 + (300 + 300 v^2) X2
    # does not, so the remainder is repacked before that divisor's entries
    # are packed, which would otherwise overflow
    lam = commutative(2)
    x1, x2 = TorusElem.monomial(lam, (1, 0)), TorusElem.monomial(lam, (0, 1))
    s = PackedSum(x1 + x2, [(0, [(x1, 1), (x2, 1)])])
    p = x1 + x2.scaled({0: 300, 2: 300})
    assert s.w == 8 < digit_width(300)
    for q in (s, s[0]):
        with pytest.raises(NotDivisibleError) as info:
            exact_left_div(p, q)
        assert str(info.value) == ("not exactly divisible (newton_box): quotient exponent "
                                   "(0, 1) leaves the Newton box [[1, 0], [1, 0]]")


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
