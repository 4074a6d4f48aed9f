"""The initial seed construction from a Cartan matrix and reduced word."""

import pytest

import qca
from qca.cartan import CartanDatum, Weight, WeylWord, weyl_apply
from qca.errors import NotReducedError
from qca.gls import (
    analyze_word,
    build_initial_seed,
    build_quiver,
    lambda_matrix,
    quiver_to_b,
)
from qca.seeds import check_compatible
from qca.torus import LMatrix

from conftest import A2_ROWS, A3_ROWS, AFF_ROWS, D4_ROWS, SEED_CASES, make_seed, scale_weight


def _analyze(rows, word):
    c = CartanDatum.from_rows(rows)
    return c, analyze_word(c, WeylWord.from_one_based(word))


def test_rejects_non_reduced_word():
    c = CartanDatum.from_rows(A2_ROWS)
    with pytest.raises(NotReducedError):
        analyze_word(c, WeylWord.from_one_based((1, 1)))
    with pytest.raises(NotReducedError):
        build_initial_seed(c, WeylWord.from_one_based((1, 2, 1, 2)))


def test_combinatorics_a2():
    _, g = _analyze(A2_ROWS, (1, 2, 1))
    assert g.succ == (2, 3, 3)
    assert g.pred == (-1, -1, 0)
    assert g.frozen == (1, 2)
    assert g.exchangeable == (0,)


def test_combinatorics_affine():
    _, g = _analyze(AFF_ROWS, (1, 2, 1, 2))
    assert g.succ == (2, 3, 4, 4)
    assert g.pred == (-1, -1, 0, 1)
    assert g.frozen == (2, 3)
    assert g.exchangeable == (0, 1)


def test_combinatorics_a3_d4():
    _, g3 = _analyze(A3_ROWS, (1, 2, 1, 3, 2, 1))
    assert g3.succ == (2, 4, 5, 6, 6, 6)
    assert g3.pred == (-1, -1, 0, -1, 1, 2)
    assert g3.frozen == (3, 4, 5)
    assert g3.exchangeable == (0, 1, 2)
    _, g4 = _analyze(D4_ROWS, (2, 1, 3, 4, 2, 1))
    assert g4.succ == (4, 5, 6, 6, 6, 6)
    assert g4.pred == (-1, -1, -1, -1, 0, 1)
    assert g4.frozen == (2, 3, 4, 5)
    assert g4.exchangeable == (0, 1)


def test_succ_pred_consistency():
    for rows, word in SEED_CASES.values():
        _, g = _analyze(rows, word)
        r = len(word)
        letters = WeylWord.from_one_based(word).letters
        for s in range(r):
            back = [t for t in range(s - 1, -1, -1) if letters[t] == letters[s]]
            assert g.pred[s] == (back[0] if back else -1)
            if g.succ[s] < r:
                assert g.pred[g.succ[s]] == s
                assert letters[g.succ[s]] == letters[s]
        assert g.frozen == tuple(s for s in range(r) if g.succ[s] == r)
        assert sorted(g.frozen + g.exchangeable) == list(range(r))


def test_lambda_weights_are_prefix_images():
    for rows, word in SEED_CASES.values():
        c, g = _analyze(rows, word)
        letters = WeylWord.from_one_based(word).letters
        for s in range(len(letters)):
            prefix = WeylWord(letters[: s + 1])
            expect = weyl_apply(c, prefix, Weight.fundamental(c.n, letters[s]))
            assert g.lambda_wts[s] == expect
            d = g.lambda_wts[s] - Weight.fundamental(c.n, letters[s])
            assert g.d[s] == d
            assert d.is_root_lattice()
            assert d != Weight.zero(c.n)
            assert all(x >= 0 for x in d.c)


def test_golden_weights_a2():
    _, g = _analyze(A2_ROWS, (1, 2, 1))
    # lambda = (w1 - a1, w2 - a1 - a2, w1 - a1 - a2)
    assert [(w.m, w.c) for w in g.lambda_wts] == [
        ((1, 0), (1, 0)),
        ((0, 1), (1, 1)),
        ((1, 0), (1, 1)),
    ]
    assert [w.c for w in g.d] == [(1, 0), (1, 1), (1, 1)]


def test_golden_weights_affine():
    _, g = _analyze(AFF_ROWS, (1, 2, 1, 2))
    assert [(w.m, w.c) for w in g.lambda_wts] == [
        ((1, 0), (1, 0)),
        ((0, 1), (2, 1)),
        ((1, 0), (4, 2)),
        ((0, 1), (6, 4)),
    ]


def test_quiver_golden():
    c2, g2 = _analyze(A2_ROWS, (1, 2, 1))
    assert build_quiver(c2, g2).arrows == ((0, 1, 1), (2, 0, 1))
    ca, ga = _analyze(AFF_ROWS, (1, 2, 1, 2))
    assert build_quiver(ca, ga).arrows == (
        (0, 1, 2),
        (1, 2, 2),
        (2, 0, 1),
        (3, 1, 1),
    )


def test_quiver_shape():
    for rows, word in SEED_CASES.values():
        c, g = _analyze(rows, word)
        q = build_quiver(c, g)
        seen = set()
        frozen = set(g.frozen)
        for s, t, mult in q.arrows:
            assert s != t and mult >= 1
            assert (s, t) not in seen and (t, s) not in seen
            seen.add((s, t))
            assert not (s in frozen and t in frozen)


def test_b_from_quiver_golden():
    c, g = _analyze(AFF_ROWS, (1, 2, 1, 2))
    b = quiver_to_b(build_quiver(c, g), 4, g.exchangeable)
    assert b.rows == ((0, 2), (-2, 0), (1, -2), (0, 1))
    assert b.ex == (0, 1)


def test_b_matches_arrow_counts():
    for rows, word in SEED_CASES.values():
        c, g = _analyze(rows, word)
        q = build_quiver(c, g)
        b = quiver_to_b(q, len(word), g.exchangeable)
        counts = {}
        for s, t, mult in q.arrows:
            counts[(s, t)] = mult
        for i in range(len(word)):
            for jpos, j in enumerate(g.exchangeable):
                expect = counts.get((i, j), 0) - counts.get((j, i), 0)
                assert b.rows[i][jpos] == expect


def test_lambda_matrix_golden_a2():
    c, g = _analyze(A2_ROWS, (1, 2, 1))
    lam = lambda_matrix(c, g)
    assert lam.rows == ((0, -1, 1), (1, 0, 0), (-1, 0, 0))
    # the spec values lambda_21 = 1, lambda_31 = -1, lambda_32 = 0
    assert (lam.rows[1][0], lam.rows[2][0], lam.rows[2][1]) == (1, -1, 0)


def test_lambda_matrix_golden_affine():
    c, g = _analyze(AFF_ROWS, (1, 2, 1, 2))
    assert lambda_matrix(c, g).rows == (
        (0, -2, -2, -4),
        (2, 0, 0, -2),
        (2, 0, 0, -4),
        (4, 2, 4, 0),
    )


def test_lambda_matrix_regression_a3_d4():
    c, g = _analyze(A3_ROWS, (1, 2, 1, 3, 2, 1))
    assert lambda_matrix(c, g).rows == (
        (0, -1, 1, -1, 0, 1),
        (1, 0, 0, -1, 0, 1),
        (-1, 0, 0, -1, 0, 1),
        (1, 1, 1, 0, 0, 0),
        (0, 0, 0, 0, 0, 0),
        (-1, -1, -1, 0, 0, 0),
    )
    c, g = _analyze(D4_ROWS, (2, 1, 3, 4, 2, 1))
    assert lambda_matrix(c, g).rows == (
        (0, -1, -1, -1, 1, -1),
        (1, 0, -1, -1, 0, -1),
        (1, 1, 0, 0, 1, 0),
        (1, 1, 0, 0, 1, 0),
        (-1, 0, -1, -1, 0, -1),
        (1, 1, 0, 0, 1, 0),
    )


def test_lambda_entries_from_pairing():
    # lambda_st = (lambda_s + w_{i_s}, d_t) for s > t, zero on the diagonal
    for rows, word in SEED_CASES.values():
        c, g = _analyze(rows, word)
        lam = lambda_matrix(c, g)
        letters = WeylWord.from_one_based(word).letters
        for s in range(len(word)):
            assert lam.rows[s][s] == 0
            for t in range(s):
                mu = g.lambda_wts[s] + Weight.fundamental(c.n, letters[s])
                expect = qca.pair_weight_root(c, mu, g.d[t])
                assert lam.rows[s][t] == expect
                assert lam.rows[t][s] == -expect


def test_seed_assembly_properties():
    for key in SEED_CASES:
        seed = make_seed(key)
        r = seed.bmat.k
        if seed.bmat.ex:
            assert check_compatible(seed.lmat, seed.bmat) == 2
        # parity: lambda_ij = (d_i, d_j) mod 2
        for i in range(r):
            for j in range(r):
                pairing = qca.pair_weight_root(seed.cartan, seed.dvec[i], seed.dvec[j])
                assert (seed.lmat.rows[i][j] - pairing) % 2 == 0
        # weight balance: sum_i b_ik d_i = 0 per exchangeable column
        for jpos in range(len(seed.bmat.ex)):
            total = Weight.zero(seed.cartan.n)
            for i in range(r):
                total = total + scale_weight(seed.dvec[i], seed.bmat.rows[i][jpos])
            assert total == Weight.zero(seed.cartan.n)


def test_rank_one_word():
    c = CartanDatum.from_rows([[2]])
    seed = build_initial_seed(c, WeylWord.from_one_based((1,)))
    assert seed.bmat.ex == ()
    assert seed.lmat.rows == ((0,),)
    assert len(seed.vars) == 1
    assert seed.dvec[0] == -Weight.simple_root(1, 0)


def test_off_support_cartan_entries_are_irrelevant():
    # a word in letters {1, 2} never touches row or column 3
    base = CartanDatum.from_rows([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    moved = CartanDatum.from_rows([[2, -1, -1], [-1, 2, 0], [-1, 0, 2]])
    w = WeylWord.from_one_based((1, 2, 1))
    a = build_initial_seed(base, w)
    b = build_initial_seed(moved, w)
    assert a.lmat == b.lmat and a.bmat == b.bmat and a.dvec == b.dvec
    assert a.vars == b.vars


def test_seed_records_cartan():
    seed = make_seed("a2")
    assert seed.cartan == CartanDatum.from_rows(A2_ROWS)
    direct = qca.QuantumSeed.initial(seed.lmat, seed.bmat, seed.dvec)
    assert direct.cartan is None
    assert direct == seed  # equality ignores the cartan tag
