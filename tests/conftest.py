"""Shared fixtures: Cartan matrices, reduced words, and prebuilt seeds."""

import random
from dataclasses import replace

import pytest
from hypothesis import strategies as st

import qca
from qca.cartan import Weight, weyl_apply
from qca.seeds import cluster_monomial, exchange_exponents
from qca.torus import TorusElem

A2_ROWS = ((2, -1), (-1, 2))
A3_ROWS = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
D4_ROWS = ((2, -1, -1, -1), (-1, 2, 0, 0), (-1, 0, 2, 0), (-1, 0, 0, 2))
AFF_ROWS = ((2, -2), (-2, 2))

A2_WORD = (1, 2, 1)
A3_WORD = (1, 2, 1, 3, 2, 1)
D4_WORD = (2, 1, 3, 4, 2, 1)
AFF_WORD = (1, 2, 1, 2)

SEED_CASES = {
    "a2": (A2_ROWS, A2_WORD),
    "a3": (A3_ROWS, A3_WORD),
    "d4": (D4_ROWS, D4_WORD),
    "aff": (AFF_ROWS, AFF_WORD),
}


def make_seed(key):
    rows, word = SEED_CASES[key]
    cartan = qca.CartanDatum.from_rows(rows)
    return qca.build_initial_seed(cartan, qca.WeylWord.from_one_based(word))


A4_ROWS = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))
A4_WORD = (1, 2, 1, 3, 2, 1, 4, 3, 2, 1)


def a4_seed():
    """The A4 longest-word seed: 10 indices, 6 exchangeable."""
    return qca.build_initial_seed(qca.CartanDatum.from_rows(A4_ROWS),
                                  qca.WeylWord.from_one_based(A4_WORD))


def exchange_reference(seed, k):
    """(a', a'', p', p'', v^{p'} M', v^{p''} M'') of the exchange in
    direction k, from cluster_monomial and the commuting shifts
    p = a^T (row k of L): products of torus elements, independent of the
    packed runs on which seeds._exchange_terms multiplies them."""
    a_pos, a_neg = exchange_exponents(seed.bmat, k)
    shifts = [sum(x * y for x, y in zip(seed.lmat.rows[k], a)) for a in (a_pos, a_neg)]
    monomials = [cluster_monomial(seed, a[:k] + (0,) + a[k + 1:]).v_shift(p)
                 for a, p in zip((a_pos, a_neg), shifts)]
    return (a_pos, a_neg, *shifts, *monomials)


def scale_weight(w, k):
    """k * w."""
    return qca.Weight(tuple(k * x for x in w.m), tuple(k * x for x in w.c))


def corrupt_a3():
    """The A3 longest-word seed with X^(0,-1,1,0,0,1) added to its frozen
    variable 6: still homogeneous, but no longer q-commuting with variable 1."""
    seed = make_seed("a3")
    vars_ = list(seed.vars)
    vars_[5] = vars_[5] + TorusElem.monomial(seed.l_init, (0, -1, 1, 0, 0, 1))
    return replace(seed, vars=tuple(vars_))


@pytest.fixture
def a2_seed():
    return make_seed("a2")


@pytest.fixture
def a3_seed():
    return make_seed("a3")


@pytest.fixture(params=sorted(SEED_CASES))
def any_seed(request):
    return make_seed(request.param)


def rand_elem(rng, lam, n_terms=3, span=3, vspan=4):
    """A random torus element: up to n_terms exponents in [-span, span]^r."""
    r = len(lam.rows)
    acc = TorusElem.zero(lam)
    for _ in range(rng.randint(1, n_terms)):
        exp = tuple(rng.randint(-span, span) for _ in range(r))
        coeff = {rng.randint(-vspan, vspan): rng.choice([-2, -1, 1, 2, 3])}
        acc = acc + TorusElem.monomial(lam, exp, coeff)
    return acc


def rand_skew(rng, r, bound=3):
    rows = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i):
            e = rng.randint(-bound, bound)
            rows[i][j], rows[j][i] = e, -e
    return qca.LMatrix.from_rows(rows)


@pytest.fixture
def rng():
    return random.Random(0)


@st.composite
def gcm_and_word(draw, min_rank=2, max_rank=4):
    """A random symmetric GCM of rank min_rank to max_rank, off-diagonal entries
    in {0, -1, -2, -3}, and a reduced word of length n + 1 to max(n + 1, 6)
    (shorter when a finite Weyl group runs out of longer reduced words).
    With n + 1 letters some letter repeats, so the seed has an exchangeable
    index; shorter words left most rank-4 and rank-5 draws with none."""
    n = draw(st.integers(min_rank, max_rank))
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            rows[i][j] = rows[j][i] = draw(st.sampled_from((0, -1, -2, -3)))
    cartan = qca.CartanDatum.from_rows(rows)
    letters = ()
    for _ in range(draw(st.integers(n + 1, max(n + 1, 6)))):
        # a reduced word stays reduced iff its new inversion root is positive
        u = qca.WeylWord(letters)
        keep = [a for a in range(n)
                if weyl_apply(cartan, u, Weight.simple_root(n, a)).is_positive_root()]
        if not keep:
            break  # the longest element of a finite Weyl group
        letters += (draw(st.sampled_from(keep)),)
    return cartan, qca.WeylWord(letters)
