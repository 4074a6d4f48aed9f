"""Quantum torus arithmetic: products, division, bar, q=1, serialization."""

import random

import pytest

import qca
from qca.classical import cl_mul
from qca.errors import NotDivisibleError
from qca.serialize import torus_from_json, torus_to_json
from qca.torus import (
    LMatrix,
    PackedSum,
    TorusElem,
    exact_left_div,
    q_commute_exponent,
    qc_v,
)

from conftest import rand_elem, rand_skew

LAM2 = LMatrix.from_rows([[0, 1], [-1, 0]])
LAM3 = LMatrix.from_rows([[0, -1, 1], [1, 0, 0], [-1, 0, 0]])  # the A2 seed form
ZERO3 = LMatrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 0]])


def norm_vexp(lam, c):
    """v-exponent folded into the normalized monomial X^c."""
    return sum(
        c[i] * c[j] * lam.rows[i][j] for i in range(len(c)) for j in range(i)
    )


def word_mul_oracle(lam, a, b):
    """Multiply X^a X^b by sorting a free word letter by letter.

    Each swap X_i^e X_j^f -> X_j^f X_i^e with i > j costs v^{2 e f lam_ij}.
    Completely independent of the kernel code path.
    """
    word = []
    for c in (a, b):
        for i, ci in enumerate(c):
            word += [(i, 1 if ci > 0 else -1)] * abs(ci)
    vexp = norm_vexp(lam, a) + norm_vexp(lam, b)
    changed = True
    while changed:
        changed = False
        for t in range(len(word) - 1):
            (i, e), (j, f) = word[t], word[t + 1]
            if i > j:
                vexp += 2 * e * f * lam.rows[i][j]
                word[t], word[t + 1] = word[t + 1], word[t]
                changed = True
    csum = tuple(x + y for x, y in zip(a, b))
    return vexp - norm_vexp(lam, csum), csum


def test_lmatrix_validation():
    with pytest.raises(ValueError):
        LMatrix.from_rows([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        LMatrix.from_rows([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        LMatrix.from_rows([[0, 1], [-1, 0], [0, 0]])


def test_monomial_product_golden():
    x1 = TorusElem.monomial(LAM2, (1, 0))
    x2 = TorusElem.monomial(LAM2, (0, 1))
    assert (x1 * x2).terms == {(1, 1): {1: 1}}
    assert (x2 * x1).terms == {(1, 1): {-1: 1}}
    # X^(1,1) is the normalized product: v^{-1} X_1 X_2
    assert TorusElem.monomial(LAM2, (1, 1)).terms == {(1, 1): {0: 1}}
    assert (x1 * x2) == TorusElem.monomial(LAM2, (1, 1)).v_shift(1)


def test_monomial_inverse_cancels():
    x = TorusElem.monomial(LAM2, (2, -3))
    assert (x * x.pow(-1)) == TorusElem.one(LAM2)
    assert (x.pow(-1) * x) == TorusElem.one(LAM2)
    with pytest.raises(ValueError):
        (x + TorusElem.one(LAM2)).pow(-1)
    with pytest.raises(ValueError):
        x.scaled(2).pow(-1)


def test_product_matches_word_oracle():
    rng = random.Random(10)
    for lam in (LAM2, LAM3, ZERO3, rand_skew(rng, 4)):
        r = len(lam.rows)
        for _ in range(60):
            a = tuple(rng.randint(-2, 2) for _ in range(r))
            b = tuple(rng.randint(-2, 2) for _ in range(r))
            vexp, csum = word_mul_oracle(lam, a, b)
            prod = TorusElem.monomial(lam, a) * TorusElem.monomial(lam, b)
            assert prod.terms == {csum: {vexp: 1}}


def test_sum_product_matches_word_oracle():
    rng = random.Random(11)
    for lam in (LAM3, rand_skew(rng, 3)):
        for _ in range(40):
            x = rand_elem(rng, lam)
            y = rand_elem(rng, lam)
            expect = {}
            for a, ca in x.terms.items():
                for b, cb in y.terms.items():
                    vexp, csum = word_mul_oracle(lam, a, b)
                    bucket = expect.setdefault(csum, {})
                    for ka, va in ca.items():
                        for kb, vb in cb.items():
                            k = ka + kb + vexp
                            bucket[k] = bucket.get(k, 0) + va * vb
            expect = {
                a: {k: v for k, v in cf.items() if v}
                for a, cf in expect.items()
            }
            expect = {a: cf for a, cf in expect.items() if cf}
            assert (x * y).terms == expect


def test_ring_axioms_random():
    rng = random.Random(12)
    for lam in (LAM2, LAM3, rand_skew(rng, 4)):
        one = TorusElem.one(lam)
        zero = TorusElem.zero(lam)
        for _ in range(40):
            x, y, z = (rand_elem(rng, lam) for _ in range(3))
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x + y) * z == x * z + y * z
            assert x * one == x and one * x == x
            assert x + zero == x and x * zero == zero
            assert x - x == zero
            assert x + y == y + x


def test_scaling_and_shift():
    rng = random.Random(13)
    x = rand_elem(rng, LAM3)
    assert x.scaled(1) == x
    assert x.scaled(0).is_zero()
    assert x.scaled(2) == x + x
    assert x.v_shift(0) is x
    assert x.v_shift(3).v_shift(-3) == x
    assert x.v_shift(1) == x.scaled(qc_v(1))
    assert x.v_shift(2) * x == (x * x).v_shift(2)


def test_bar_involution():
    rng = random.Random(14)
    for lam in (LAM3, rand_skew(rng, 3)):
        r = len(lam.rows)
        # bar fixes every normalized monomial
        for _ in range(20):
            a = tuple(rng.randint(-3, 3) for _ in range(r))
            m = TorusElem.monomial(lam, a)
            assert m.bar() == m
        # bar is an involutive anti-automorphism
        for _ in range(40):
            x, y = rand_elem(rng, lam), rand_elem(rng, lam)
            assert x.bar().bar() == x
            assert (x * y).bar() == y.bar() * x.bar()
            assert (x + y).bar() == x.bar() + y.bar()
        assert TorusElem.monomial(lam, (0,) * r, qc_v(2)).bar() == TorusElem.monomial(
            lam, (0,) * r, qc_v(-2)
        )


def test_specialize_q1_is_ring_map():
    rng = random.Random(15)
    for lam in (LAM3, rand_skew(rng, 3)):
        for _ in range(40):
            x, y = rand_elem(rng, lam), rand_elem(rng, lam)
            assert (x * y).specialize_q1() == cl_mul(x.specialize_q1(), y.specialize_q1())
    # v-powers vanish at q = 1
    x = TorusElem.monomial(LAM3, (1, 0, 0), qc_v(5))
    assert x.specialize_q1() == {(1, 0, 0): 1}
    # cancellation at q = 1 prunes the zero
    y = TorusElem.monomial(LAM3, (1, 0, 0), qc_v(1)) - TorusElem.monomial(
        LAM3, (1, 0, 0), qc_v(3)
    )
    assert y.specialize_q1() == {}


def test_is_nonneg():
    x = TorusElem.monomial(LAM2, (1, 0), {2: 3}) + TorusElem.monomial(LAM2, (0, 1))
    assert x.is_nonneg()
    assert not (x - TorusElem.one(LAM2)).is_nonneg()
    assert TorusElem.zero(LAM2).is_nonneg()


def test_elements_immutable_and_hashless():
    x = TorusElem.monomial(LAM2, (1, 0))
    with pytest.raises(AttributeError):
        x.terms = {}
    with pytest.raises(TypeError):
        hash(x)


def test_division_roundtrip_random():
    rng = random.Random(16)
    for lam in (LAM2, LAM3, rand_skew(rng, 3), rand_skew(rng, 4)):
        for _ in range(60):
            p = rand_elem(rng, lam)
            s = rand_elem(rng, lam)
            assert exact_left_div(p, p * s) == s


def test_division_identities():
    x = TorusElem.monomial(LAM2, (1, 0))
    assert exact_left_div(x, x) == TorusElem.one(LAM2)
    assert exact_left_div(TorusElem.one(LAM2), x) == x
    assert exact_left_div(x, TorusElem.zero(LAM2)).is_zero()
    assert exact_left_div(x, PackedSum(LAM2, [])).is_zero()
    with pytest.raises(ZeroDivisionError):
        exact_left_div(TorusElem.zero(LAM2), x)


def test_division_failure_coefficient():
    x = TorusElem.monomial(LAM2, (1, 0))
    with pytest.raises(NotDivisibleError) as info:
        exact_left_div(x.scaled(2), x)
    assert info.value.reason == "coefficient"
    assert "coefficient" in str(info.value)


def test_division_failure_newton_box():
    # (X^{e1} + X^{e2}) divides no single monomial: the leading term forces
    # quotient exponent 0 while the trailing term forces e1 - e2.  The Newton
    # box [min q - min p, max q - max p] = [(1, 0), (0, -1)] is empty.
    p = TorusElem.monomial(LAM2, (1, 0)) + TorusElem.monomial(LAM2, (0, 1))
    q = TorusElem.monomial(LAM2, (1, 0))
    with pytest.raises(NotDivisibleError) as info:
        exact_left_div(p, q)
    assert info.value.reason == "newton_box"
    # exhaustive refutation over small single-term candidates
    for a0 in range(-3, 4):
        for a1 in range(-3, 4):
            for k in range(-4, 5):
                for c in (-2, -1, 1, 2):
                    s = TorusElem.monomial(LAM2, (a0, a1), {k: c})
                    assert p * s != q


def test_division_long_quotient():
    # a true quotient with many more terms than the dividend must be found:
    # (1 - X1) * (1 + X1 + ... + X1^1200) = 1 - X1^1201
    one = TorusElem.one(LAM2)
    x1 = TorusElem.monomial(LAM2, (1, 0))
    p = one - x1
    s = TorusElem(LAM2, {(e, 0): {0: 1} for e in range(1201)})
    q = p * s
    assert q.n_terms() == 2
    got = exact_left_div(p, q)
    assert got.n_terms() == 1201
    assert got == s


def test_division_respects_side():
    # left division: p * result == q, with noncommuting p this differs from
    # any right-sided convention.
    rng = random.Random(17)
    for _ in range(30):
        p = rand_elem(rng, LAM2)
        s = rand_elem(rng, LAM2)
        q = p * s
        got = exact_left_div(p, q)
        assert p * got == q


def test_q_commute_exponent_monomials():
    rng = random.Random(18)
    for lam in (LAM2, LAM3, rand_skew(rng, 4)):
        r = len(lam.rows)
        for _ in range(50):
            a = tuple(rng.randint(-3, 3) for _ in range(r))
            b = tuple(rng.randint(-3, 3) for _ in range(r))
            x, y = TorusElem.monomial(lam, a), TorusElem.monomial(lam, b)
            gamma = sum(
                a[i] * lam.rows[i][j] * b[j] for i in range(r) for j in range(r)
            )
            assert q_commute_exponent(x, y) == gamma
            # x y = v^{2 gamma} y x by definition of the exponent
            assert x * y == (y * x).v_shift(2 * gamma)


def test_q_commute_exponent_failures():
    x1 = TorusElem.monomial(LAM2, (1, 0))
    x2 = TorusElem.monomial(LAM2, (0, 1))
    mixed = x1 + x2
    assert q_commute_exponent(mixed, x1) is None
    assert q_commute_exponent(mixed, mixed) == 0
    assert q_commute_exponent(x1, x1.pow(2)) == 0
    with pytest.raises(ValueError):
        q_commute_exponent(TorusElem.zero(LAM2), x1)
    # different supports can never balance uniformly
    assert q_commute_exponent(x1, mixed) is None


def test_serialization_roundtrip():
    rng = random.Random(19)
    for _ in range(30):
        x = rand_elem(rng, LAM3)
        data = torus_to_json(x)
        assert torus_from_json(LAM3, data) == x
        # canonical ordering: exponents sorted lex, coefficient pairs by v-power
        assert [item["exp"] for item in data] == sorted(item["exp"] for item in data)
        for item in data:
            assert item["coeff"] == sorted(item["coeff"])
            assert all(c != 0 for _, c in item["coeff"])


def test_serialization_rejects_duplicates():
    dup_exp = [
        {"exp": [1, 0], "coeff": [[0, 1]]},
        {"exp": [1, 0], "coeff": [[2, 1]]},
    ]
    with pytest.raises(ValueError):
        torus_from_json(LAM2, dup_exp)
    with pytest.raises(ValueError):
        torus_from_json(LAM2, [{"exp": [1, 0], "coeff": [[0, 1], [0, 2]]}])


def test_backend_constant():
    # one arithmetic implementation, with no switch to select another; the
    # constant has one home, the package
    assert qca.KERNEL_BACKEND == "python"
    assert not hasattr(qca.torus, "KERNEL_BACKEND")
