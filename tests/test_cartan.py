"""Cartan data, weights, reflections, and reduced words."""

import random

import pytest

import qca
from qca.cartan import (
    CartanDatum,
    Weight,
    WeylWord,
    check_reduced,
    coroot_pair,
    coroot_vector,
    inversion_roots,
    pair_weight_root,
    reflect,
    weyl_apply,
)
from qca.errors import NotReducedError

from conftest import A2_ROWS, A3_ROWS, AFF_ROWS, D4_ROWS, SEED_CASES

ALL_ROWS = [A2_ROWS, A3_ROWS, D4_ROWS, AFF_ROWS]


def rand_weight(rng, n, span=4):
    return Weight(
        tuple(rng.randint(-span, span) for _ in range(n)),
        tuple(rng.randint(-span, span) for _ in range(n)),
    )


def rand_root(rng, n, span=4):
    return Weight((0,) * n, tuple(rng.randint(-span, span) for _ in range(n)))


def rand_cartan(rng, n):
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            e = rng.choice([0, 0, -1, -1, -2, -3])
            rows[i][j] = rows[j][i] = e
    return CartanDatum.from_rows(rows)


def test_cartan_validation():
    CartanDatum.from_rows(A2_ROWS)
    with pytest.raises(ValueError, match="diagonal"):
        CartanDatum.from_rows([[1, 0], [0, 2]])
    with pytest.raises(ValueError, match="symmetric"):
        CartanDatum.from_rows([[2, -1], [0, 2]])
    with pytest.raises(ValueError, match=r"Cartan entry sign error at \(1, 2\)"):
        CartanDatum.from_rows([[2, 1], [1, 2]])


def test_weight_arithmetic():
    w = Weight((1, 0), (0, 2))
    z = Weight.zero(2)
    assert w + z == w and w - w == z
    assert (-w).m == (-1, 0) and (-w).c == (0, -2)
    assert w.row == (1, 0, 0, 2) and Weight.from_row(w.row) == w
    assert Weight.from_row(tuple(3 * x for x in w.row)) == w + w + w
    assert Weight.fundamental(2, 1).m == (0, 1)
    # a root sum_j b_j alpha_j is the Weight with m = 0 and c = -b
    a1, a2 = Weight.simple_root(2, 0), Weight.simple_root(2, 1)
    assert a1 + a2 + a2 == Weight((0, 0), (-1, -2))
    assert not w.is_root_lattice()
    assert (a1 + a2 + a2).is_root_lattice()


def test_positive_roots():
    beta = Weight.simple_root(3, 1)
    assert beta.c == (0, -1, 0) and beta.is_positive_root()
    assert not (-beta).is_positive_root()
    assert not Weight((0, 0, 0), (-1, 1, 0)).is_positive_root()
    assert not Weight.zero(3).is_positive_root()
    assert not (Weight.fundamental(3, 0) + beta).is_positive_root()


def test_coroot_pairing_basics():
    d = CartanDatum.from_rows(A2_ROWS)
    for i in range(2):
        for j in range(2):
            assert coroot_pair(d, i, Weight.fundamental(2, j)) == (1 if i == j else 0)
            alpha_j = Weight.simple_root(2, j)
            assert coroot_pair(d, i, alpha_j) == d.a[i][j]


def test_coroot_vector_is_every_coroot_pair():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 4)
        d = rand_cartan(rng, n)
        mu = rand_weight(rng, n)
        assert coroot_vector(d, mu) == tuple(coroot_pair(d, j, mu) for j in range(n))


def test_pairing_gram_oracle():
    # pair_weight_root(mu, beta) must equal m.e - c^T A e for mu = sum m_i w_i
    # - sum c_k alpha_k and beta = sum e_j alpha_j, stored as beta.c = -e.
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 4)
        d = rand_cartan(rng, n)
        mu = rand_weight(rng, n)
        beta = rand_root(rng, n)
        e = [-x for x in beta.c]
        expect = sum(mu.m[j] * e[j] for j in range(n)) - sum(
            mu.c[k] * d.a[j][k] * e[j] for j in range(n) for k in range(n)
        )
        assert pair_weight_root(d, mu, beta) == expect


def test_pairing_bilinear():
    rng = random.Random(1)
    d = rand_cartan(rng, 3)
    for _ in range(50):
        mu, nu = rand_weight(rng, 3), rand_weight(rng, 3)
        beta = rand_root(rng, 3)
        assert pair_weight_root(d, mu + nu, beta) == pair_weight_root(
            d, mu, beta
        ) + pair_weight_root(d, nu, beta)


def test_pairing_refuses_a_weight_outside_the_root_lattice():
    d = CartanDatum.from_rows(A2_ROWS)
    mu = Weight.simple_root(2, 0)
    for beta in (Weight.fundamental(2, 1), Weight((1, -1), (0, 0)), mu + Weight.fundamental(2, 0)):
        with pytest.raises(ValueError, match="fundamental part"):
            pair_weight_root(d, mu, beta)


def test_reflect_involution_and_fixed_points():
    rng = random.Random(2)
    for rows in ALL_ROWS:
        d = CartanDatum.from_rows(rows)
        n = d.n
        for i in range(n):
            w = Weight.fundamental(n, i)
            assert reflect(d, i, w) == w - Weight.simple_root(n, i)
            for j in range(n):
                if j != i:
                    assert reflect(d, i, Weight.fundamental(n, j)) == Weight.fundamental(n, j)
        for _ in range(20):
            mu = rand_weight(rng, n)
            i = rng.randrange(n)
            assert reflect(d, i, reflect(d, i, mu)) == mu
            beta = rand_root(rng, n)
            assert reflect(d, i, reflect(d, i, beta)) == beta


def test_weyl_apply_is_iterated_reflection():
    # The word acts as s_{i_1} s_{i_2} ... s_{i_r}, rightmost letter first.
    rng = random.Random(4)
    for rows in ALL_ROWS:
        d = CartanDatum.from_rows(rows)
        n = d.n
        for _ in range(25):
            letters = tuple(rng.randrange(n) for _ in range(rng.randint(0, 6)))
            mu = rand_weight(rng, n)
            expect = mu
            for i in reversed(letters):
                expect = reflect(d, i, expect)
            assert weyl_apply(d, WeylWord(letters), mu) == expect


def test_pairing_weyl_invariance():
    rng = random.Random(5)
    for rows in ALL_ROWS:
        d = CartanDatum.from_rows(rows)
        n = d.n
        for _ in range(25):
            letters = tuple(rng.randrange(n) for _ in range(rng.randint(0, 5)))
            mu, beta = rand_weight(rng, n), rand_root(rng, n)
            wmu = weyl_apply(d, WeylWord(letters), mu)
            wbeta = weyl_apply(d, WeylWord(letters), beta)
            assert pair_weight_root(d, wmu, wbeta) == pair_weight_root(d, mu, beta)


def test_word_indexing_and_validation():
    w = WeylWord.from_one_based((1, 2, 1))
    assert w.letters == (0, 1, 0)
    assert w.to_one_based() == (1, 2, 1)
    assert w.r == 3
    with pytest.raises(ValueError):
        WeylWord.from_one_based((0, 1))
    with pytest.raises(ValueError):
        WeylWord((0, 2)).validate(CartanDatum.from_rows(A2_ROWS))
    WeylWord((0, 1)).validate(CartanDatum.from_rows(A2_ROWS))


def test_inversion_roots_a2():
    d = CartanDatum.from_rows(A2_ROWS)
    roots = inversion_roots(d, WeylWord.from_one_based((1, 2, 1)))
    a1, a2 = Weight.simple_root(2, 0), Weight.simple_root(2, 1)
    assert roots == (a1, a1 + a2, a2)


def test_inversion_roots_distinct_and_positive():
    for rows, word in SEED_CASES.values():
        d = CartanDatum.from_rows(rows)
        roots = inversion_roots(d, WeylWord.from_one_based(word))
        assert len(set(roots)) == len(roots)
        assert all(b.is_positive_root() for b in roots)


@pytest.mark.parametrize(
    "rows,word,ok",
    [
        (A2_ROWS, (1, 2, 1), True),
        (A2_ROWS, (2, 1, 2), True),
        (A2_ROWS, (1, 1), False),
        (A2_ROWS, (1, 2, 1, 2), False),
        (A2_ROWS, (), True),
        (AFF_ROWS, (1, 2, 1, 2), True),
        (AFF_ROWS, (1, 2, 1, 2, 1, 2, 1, 2), True),
        (AFF_ROWS, (2, 2), False),
        (A3_ROWS, (1, 2, 1, 3, 2, 1), True),
        (A3_ROWS, (1, 2, 3, 1, 2, 1), True),
        (A3_ROWS, (1, 2, 1, 3, 2, 1, 1), False),
        (D4_ROWS, (2, 1, 3, 4, 2, 1), True),
    ],
)
def test_is_reduced(rows, word, ok):
    d = CartanDatum.from_rows(rows)
    w = WeylWord.from_one_based(word)
    if ok:
        assert check_reduced(d, w) == inversion_roots(d, w)
    else:
        with pytest.raises(NotReducedError):
            check_reduced(d, w)


def test_reduced_words_of_same_element_agree():
    # (1,2,1) and (2,1,2) both give the longest element of the rank-2 group.
    d = CartanDatum.from_rows(A2_ROWS)
    rng = random.Random(6)
    for _ in range(20):
        mu = rand_weight(rng, 2)
        a = weyl_apply(d, WeylWord.from_one_based((1, 2, 1)), mu)
        b = weyl_apply(d, WeylWord.from_one_based((2, 1, 2)), mu)
        assert a == b


def test_package_reexports_cartan_ops():
    assert qca.check_reduced is check_reduced
    assert qca.reflect is reflect
    assert qca.inversion_roots is inversion_roots
