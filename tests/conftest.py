"""Shared fixtures: Cartan matrices, reduced words, and prebuilt seeds."""

import random
from dataclasses import replace

import pytest

import qca
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
