"""Quantum seeds: compatibility, E/F mutation, exchange, involutivity."""

import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qca
from qca.cartan import Weight
from qca.checks import ef_matrices
from qca.errors import EngineInvariantError, IncompatibleError
from qca.serialize import seed_from_json, seed_to_json, weight_to_json
from qca.seeds import (
    BMatrix,
    QuantumSeed,
    check_compatible,
    cluster_monomial,
    exchange_exponents,
    exchange_parts,
    homogeneous_weight,
    mutate,
    mutate_dvector,
    mutate_matrices,
    mutate_seq,
    mutate_variable,
)
from qca.torus import LMatrix, TorusElem

from conftest import SEED_CASES, a4_seed, make_seed, scale_weight

# the A2 word (1,2,1) seed, written out by hand
A2_L = LMatrix.from_rows([[0, -1, 1], [1, 0, 0], [-1, 0, 0]])
A2_B = BMatrix.from_rows([[0], [-1], [1]], (0,))
A2_D = (
    Weight((0, 0), (1, 0)),  # -alpha_1
    Weight((0, 0), (1, 1)),  # -alpha_1 - alpha_2
    Weight((0, 0), (1, 1)),
)


def matmul(a, b):
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def test_bmatrix_validation():
    BMatrix.from_rows([[0], [-1], [1]], (0,))
    with pytest.raises(ValueError):
        BMatrix.from_rows([[1], [-1], [1]], (0,))  # nonzero diagonal
    with pytest.raises(ValueError):
        BMatrix.from_rows([[0, -1], [-1, 0], [1, 1]], (0, 1))  # not skew
    with pytest.raises(ValueError):
        BMatrix.from_rows([[0], [-1]], (1,))  # ex index out of range


def l_skew_message(rows):
    """The message LMatrix validation must give for square rows: the first
    pair (i, j), j >= i, in row order, with l_ij != -l_ji; None if there
    is none."""
    k = len(rows)
    for i in range(k):
        for j in range(i, k):
            if rows[i][j] != -rows[j][i]:
                return "L matrix must be skew-symmetric (entries (%d, %d), (%d, %d))" % (
                    i + 1, j + 1, j + 1, i + 1)
    return None


def b_skew_message(rows, ex):
    """The same for the principal part of a BMatrix, its pairs taken
    column by column."""
    for jpos, j in enumerate(ex):
        for ipos, i in enumerate(ex):
            if rows[i][jpos] != -rows[j][ipos]:
                return ("principal part of B must be skew-symmetric "
                        "(entries (%d, %d), (%d, %d))" % (i + 1, j + 1, j + 1, i + 1))
    return None


@st.composite
def square_rows(draw, n):
    """An n x n integer matrix: random, or skew-symmetric, or skew-symmetric
    with one entry perturbed."""
    entries = st.integers(-3, 3)
    mode = draw(st.sampled_from(("random", "skew", "perturbed")))
    if mode == "random":
        return [[draw(entries) for _ in range(n)] for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            rows[i][j] = draw(entries)
            rows[j][i] = -rows[i][j]
    if mode == "perturbed":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] += draw(st.sampled_from((-2, -1, 1, 2)))
    return rows


def assert_validates_as(build, message):
    if message is None:
        build()
    else:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(1, 5).flatmap(square_rows))
def test_l_validation_names_the_first_failing_pair(rows):
    assert_validates_as(lambda: LMatrix.from_rows(rows), l_skew_message(rows))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_b_validation_names_the_first_failing_pair(data):
    # the principal part is drawn like L; the frozen rows are arbitrary,
    # which must not matter
    k = data.draw(st.integers(1, 6))
    ex = sorted(data.draw(st.sets(st.integers(0, k - 1), min_size=1)))
    principal = data.draw(square_rows(len(ex)))
    rows = [principal[ex.index(i)] if i in ex
            else data.draw(st.lists(st.integers(-3, 3), min_size=len(ex), max_size=len(ex)))
            for i in range(k)]
    assert_validates_as(lambda: BMatrix.from_rows(rows, ex), b_skew_message(rows, ex))


def test_check_compatible_a2():
    assert check_compatible(A2_L, A2_B) == 2


def test_check_compatible_empty_exchange():
    lam = LMatrix.from_rows([[0]])
    b = BMatrix.from_rows([[]], ())
    assert check_compatible(lam, b) is None


def test_check_compatible_witness():
    bad = LMatrix.from_rows([[0, 1, 1], [-1, 0, 0], [-1, 0, 0]])
    with pytest.raises(IncompatibleError) as info:
        check_compatible(bad, A2_B)
    assert info.value.witness == (0, 0)
    assert "(1, 1)" in str(info.value)
    # full texts, so that a sign slip in (L B~)_ij shows
    for rows, text in (
        ([[0, -1, 1], [1, 0, -1], [-1, 1, 0]],
         "compatibility fails at (2, 1): off-diagonal value -1"),
        ([[0, -1, 2], [1, 0, 0], [-2, 0, 0]],
         "compatibility fails at (1, 1): diagonal value 3, not 2"),
    ):
        with pytest.raises(IncompatibleError) as info:
            check_compatible(LMatrix.from_rows(rows), A2_B)
        assert str(info.value) == text


def test_check_compatible_all_seeds():
    for key in SEED_CASES:
        seed = make_seed(key)
        assert check_compatible(seed.lmat, seed.bmat) == 2


def test_ef_matrices_golden():
    e, f = ef_matrices(A2_B, 0)
    assert e == ((-1, 0, 0), (1, 1, 0), (0, 0, 1))
    assert f == ((-1,),)


def test_e_squared_is_identity():
    for key in SEED_CASES:
        seed = make_seed(key)
        r = seed.bmat.k
        ident = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
        for k in seed.bmat.ex:
            e, _ = ef_matrices(seed.bmat, k)
            assert matmul(e, e) == ident


def test_mutate_matrices_golden():
    l2, b2 = mutate_matrices(A2_L, A2_B, 0, exchange_exponents(A2_B, 0)[1])
    assert l2.rows == ((0, 1, -1), (-1, 0, 0), (1, 0, 0))
    assert b2.rows == ((0,), (1,), (-1,))
    assert b2.ex == (0,)


def test_mutate_matrices_is_et_l_e():
    # the matrix route: mu_k(L) = E^T L E, checked against the library
    for key in SEED_CASES:
        seed = make_seed(key)
        for k in seed.bmat.ex:
            e, _ = ef_matrices(seed.bmat, k)
            et = tuple(zip(*e))
            expect = matmul(matmul(et, seed.lmat.rows), e)
            l2, _ = mutate_matrices(seed.lmat, seed.bmat, k, exchange_exponents(seed.bmat, k)[1])
            assert l2.rows == expect


def test_mutate_matrices_is_e_b_f():
    # the matrix route for B: mu_k(B~) = E B~ F, along every path of depth <= 3
    for key in SEED_CASES:
        seed = make_seed(key)
        level = [(seed.lmat, seed.bmat)]
        for _ in range(3):
            nxt = []
            for lmat, bmat in level:
                for k in bmat.ex:
                    e, f = ef_matrices(bmat, k)
                    l2, b2 = mutate_matrices(lmat, bmat, k, exchange_exponents(bmat, k)[1])
                    assert b2.rows == matmul(matmul(e, bmat.rows), f)
                    assert l2.rows == matmul(matmul(tuple(zip(*e)), lmat.rows), e)
                    nxt.append((l2, b2))
            level = nxt


def test_mutate_matrices_involutive():
    for key in SEED_CASES:
        seed = make_seed(key)
        for k in seed.bmat.ex:
            l2, b2 = mutate_matrices(seed.lmat, seed.bmat, k, exchange_exponents(seed.bmat, k)[1])
            l3, b3 = mutate_matrices(l2, b2, k, exchange_exponents(b2, k)[1])
            assert l3 == seed.lmat and b3 == seed.bmat


def test_mutate_matrices_refuses_an_a_neg_that_is_not_its_directions():
    # a short a'' used to be cut by zip, and one of another direction used,
    # giving a skew-symmetric but wrong mu_k(L) with no error
    seed = mutate_seq(a4_seed(), (0, 3, 5))
    for k in seed.ex:
        a_neg = exchange_exponents(seed.bmat, k)[1]
        others = [exchange_exponents(seed.bmat, j)[1] for j in seed.ex if j != k]
        for wrong in [a_neg[:-1], a_neg + (0,), a_neg[:-1] + (a_neg[-1] + 1,), *others]:
            with pytest.raises(ValueError, match="a_neg must be a'' = exchange_exponents"):
                mutate_matrices(seed.lmat, seed.bmat, k, wrong)
        # a list is the same a''
        lp, bp = mutate_matrices(seed.lmat, seed.bmat, k, list(a_neg))
        assert (lp, bp) == mutate_matrices(seed.lmat, seed.bmat, k, a_neg)
    # in direction 6 the short a'' drops a nonzero entry
    a_neg = exchange_exponents(seed.bmat, 5)[1]
    assert a_neg[-1] == 1
    assert (qca.seeds._mutate_rows(seed.lmat, seed.bmat, 5, a_neg[:-1])[0]
            != qca.seeds._mutate_rows(seed.lmat, seed.bmat, 5, a_neg)[0])


def test_a_frozen_direction_is_named():
    seed = a4_seed()
    frozen = [k for k in range(seed.k) if k not in seed.ex]
    assert frozen == [6, 7, 8, 9]
    for k in frozen:
        message = "direction %d is frozen" % (k + 1)
        with pytest.raises(ValueError, match=message):
            mutate_matrices(seed.lmat, seed.bmat, k, (0,) * seed.k)
        with pytest.raises(ValueError, match=message):
            ef_matrices(seed.bmat, k)


def test_mutated_pair_stays_compatible():
    for key in SEED_CASES:
        seed = make_seed(key)
        for k in seed.bmat.ex:
            l2, b2 = mutate_matrices(seed.lmat, seed.bmat, k, exchange_exponents(seed.bmat, k)[1])
            assert check_compatible(l2, b2) == 2


def test_mutate_dvector_golden():
    d2 = mutate_dvector(A2_D, 0, exchange_exponents(A2_B, 0)[0])
    assert d2[0] == Weight((0, 0), (0, 1))  # -alpha_2
    assert d2[1] == A2_D[1] and d2[2] == A2_D[2]


def test_mutate_dvector_oracle():
    # mu_k(D)_k = -d_k + sum_{b_ik > 0} b_ik d_i must agree with the balance
    # identity's complementary form -d_k + sum_{b_ik < 0} (-b_ik) d_i.
    for key in SEED_CASES:
        seed = make_seed(key)
        for kpos, k in enumerate(seed.bmat.ex):
            d2 = mutate_dvector(seed.dvec, k, exchange_exponents(seed.bmat, k)[0])
            alt = -seed.dvec[k]
            for i in range(seed.bmat.k):
                b = seed.bmat.rows[i][kpos]
                if b < 0:
                    alt = alt + scale_weight(seed.dvec[i], -b)
            assert d2[k] == alt


def test_exchange_exponents_golden():
    a_pos, a_neg = exchange_exponents(A2_B, 0)
    assert a_pos == (-1, 0, 1)
    assert a_neg == (-1, 1, 0)


def test_exchange_prefactors_differ_by_two():
    for key in SEED_CASES:
        seed = make_seed(key)
        for k in seed.bmat.ex:
            parts = exchange_parts(seed, k)
            assert parts.shift_pos - parts.shift_neg == 2


def test_initial_seed_validates():
    seed = QuantumSeed.initial(A2_L, A2_B, A2_D)
    assert seed.validate_full() is None
    assert seed.vars == tuple(
        TorusElem.monomial(A2_L, tuple(int(i == t) for t in range(3)))
        for i in range(3)
    )
    assert seed.history == ()


def test_initial_seed_rejects_incompatible():
    bad = LMatrix.from_rows([[0, 1, 1], [-1, 0, 0], [-1, 0, 0]])
    with pytest.raises(IncompatibleError):
        QuantumSeed.initial(bad, A2_B, A2_D)


def test_validate_full_catches_corruption():
    seed = QuantumSeed.initial(A2_L, A2_B, A2_D)
    # wrong exponent: commutation with the other variables contradicts L
    swapped = replace(seed, vars=(seed.vars[1], *seed.vars[1:]))
    with pytest.raises(EngineInvariantError):
        swapped.validate_full()
    # inhomogeneous variable: no single weight fits
    mixed = replace(seed, vars=(seed.vars[0] + seed.vars[1], *seed.vars[1:]))
    with pytest.raises(EngineInvariantError):
        mixed.validate_full()


def test_initial_certifies_the_generators_by_construction(monkeypatch):
    # the torus relation and the one exponent of each X^{e_i} prove
    # validate_full's q-commutation and homogeneity, so initial computes
    # neither; an uncertified copy of each fixture passes both
    seeds = [make_seed(key) for key in sorted(SEED_CASES)]
    with monkeypatch.context() as m:
        m.setattr(qca.seeds, "q_commute_exponent", None)
        m.setattr(qca.seeds, "homogeneous_weight", None)
        for seed in seeds:
            again = QuantumSeed.initial(seed.lmat, seed.bmat, seed.dvec, cartan=seed.cartan)
            assert again._certified and again == seed
    for seed in seeds:
        copy = replace(seed)
        assert not copy._certified
        copy.validate_full()
        assert copy._certified


@pytest.mark.parametrize("field, error, text", [
    ("Linit", EngineInvariantError, "q-commutation of variables (1, 2): got -3, L says -1"),
    ("L", IncompatibleError, "compatibility fails at (1, 1)"),
    ("Dinit", EngineInvariantError, "variable 2 is not homogeneous"),
    ("D", EngineInvariantError, "variable 2 is not homogeneous"),
])
def test_a_loaded_seed_with_one_wrong_entry_is_refused(field, error, text):
    # a loaded seed is not certified, so mutate validates it in full first
    seed = make_seed("a3")
    obj = seed_to_json(seed)
    if field in ("Linit", "L"):
        obj[field][1][0] += 2
        obj[field][0][1] -= 2
    else:
        obj[field][1] = weight_to_json(seed.dvec[1] + Weight.simple_root(3, 0))
    loaded = seed_from_json(obj)
    with pytest.raises(error, match=re.escape(text)):
        mutate(loaded, seed.ex[0])


def test_cluster_monomial_initial_is_plain_monomial():
    rng = random.Random(30)
    for key in SEED_CASES:
        seed = make_seed(key)
        r = seed.bmat.k
        for _ in range(20):
            a = tuple(rng.randint(0, 3) for _ in range(r))
            assert cluster_monomial(seed, a) == TorusElem.monomial(seed.lmat, a)
    with pytest.raises(ValueError):
        cluster_monomial(make_seed("a2"), (-1, 0, 0))


# public entry points given a non-integer; each takes the A2 seed
NON_INTEGER_CALLS = {
    "torus_exponent": lambda seed: TorusElem(seed.l_init, {(1.5, 0, 0): {0: 1}}),
    "torus_v_exponent": lambda seed: TorusElem(seed.l_init, {(1, 0, 0): {0.5: 1}}),
    "torus_coefficient": lambda seed: TorusElem(seed.l_init, {(1, 0, 0): {0: 0.5}}),
    "monomial_exponent": lambda seed: TorusElem.monomial(seed.l_init, (1.5, 0, 0)),
    "monomial_coefficient": lambda seed: TorusElem.monomial(seed.l_init, (1, 0, 0), 2.5),
    "monomial_coefficient_dict": lambda seed: TorusElem.monomial(
        seed.l_init, (1, 0, 0), {0: 0.5}),
    "scaled_coefficient": lambda seed: seed.vars[0].scaled({0: 0.5}),
    "scaled_v_exponent": lambda seed: seed.vars[0].scaled({0.5: 1}),
    "scaled_int": lambda seed: seed.vars[0].scaled(0.5),
    "cluster_monomial": lambda seed: cluster_monomial(seed, (0.5, 1, 1.9)),
    "pow_float": lambda seed: seed.vars[0].pow(2.0),
    "pow_bool": lambda seed: seed.vars[0].pow(True),
    "run_suite_float": lambda seed: qca.run_suite(seed, [(0.9,), (0, 0.2)]),
    "run_suite_bool": lambda seed: qca.run_suite(seed, [(False,)]),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_CALLS))
def test_a_non_integer_is_refused_not_truncated(name):
    with pytest.raises(ValueError):
        NON_INTEGER_CALLS[name](make_seed("a2"))


def test_cluster_monomial_q_commutation_after_mutation():
    # realized monomials must keep multiplying by the current L matrix
    rng = random.Random(31)
    for key in ("a2", "a3", "aff"):
        seed = make_seed(key)
        cur = seed
        for k in list(cur.bmat.ex)[:2]:
            cur = mutate(cur, k)
        r = cur.bmat.k
        for _ in range(15):
            a = tuple(rng.randint(0, 2) for _ in range(r))
            b = tuple(rng.randint(0, 2) for _ in range(r))
            gamma = sum(
                a[i] * cur.lmat.rows[i][j] * b[j]
                for i in range(r)
                for j in range(r)
            )
            left = cluster_monomial(cur, a) * cluster_monomial(cur, b)
            right = cluster_monomial(
                cur, tuple(x + y for x, y in zip(a, b))
            ).v_shift(gamma)
            assert left == right


def test_mutate_variable_golden():
    seed = QuantumSeed.initial(A2_L, A2_B, A2_D)
    new = mutate_variable(seed, 0)
    assert new.terms == {(-1, 0, 1): {0: 1}, (-1, 1, 0): {0: 1}}


def test_mutate_rejects_frozen_direction():
    seed = QuantumSeed.initial(A2_L, A2_B, A2_D)
    with pytest.raises(ValueError):
        mutate(seed, 1)
    with pytest.raises(ValueError):
        mutate(seed, 3)


def test_mutation_involutive_on_everything():
    for key in SEED_CASES:
        seed = make_seed(key)
        for k in seed.bmat.ex:
            back = mutate(mutate(seed, k), k)
            assert back == seed
            assert back.history == (k, k)


def test_mutate_seq_composes():
    seed = make_seed("a3")
    ks = (0, 1, 0, 2)
    step = seed
    for k in ks:
        step = mutate(step, k)
    assert mutate_seq(seed, ks) == step
    assert mutate_seq(seed, ks).history == ks
    assert mutate_seq(seed, ()) == seed


def test_mutation_preserves_initial_frame():
    seed = make_seed("a3")
    m = mutate_seq(seed, (0, 1))
    assert m.l_init == seed.l_init
    assert m.d_init == seed.d_init
    assert m.bmat.ex == seed.bmat.ex
    # variables stay elements of the one fixed ambient torus
    assert all(v.ambient == seed.l_init for v in m.vars)


def test_exchange_parts_shape():
    seed = make_seed("a2")
    parts = exchange_parts(seed, 0)
    assert parts.k == 0
    assert parts.a_pos == (-1, 0, 1) and parts.a_neg == (-1, 1, 0)
    assert seed.vars[0] * parts.new_var == parts.m_pos + parts.m_neg


def test_one_exchange_exponents_call_per_mutate(monkeypatch):
    # a' and a'' are computed once and shared by the exchange, mu_k(L, B~)
    # and mu_k(D)
    seed = make_seed("a3")
    calls = []
    exact = qca.seeds.exchange_exponents

    def counted(bmat, k):
        calls.append(k)
        return exact(bmat, k)

    monkeypatch.setattr(qca.seeds, "exchange_exponents", counted)
    for k in seed.ex:
        calls.clear()
        mutate(seed, k)
        assert calls == [k]


def test_homogeneous_weight():
    seed = make_seed("a2")
    for i in range(3):
        assert homogeneous_weight(seed.vars[i], seed.d_init) == seed.dvec[i]
    mixed = seed.vars[0] + seed.vars[1]
    assert homogeneous_weight(mixed, seed.d_init) is None
    zero = TorusElem.zero(seed.l_init)
    assert homogeneous_weight(zero, seed.d_init) is None


def test_seed_equality_ignores_history():
    seed = make_seed("a2")
    again = replace(seed, history=(0, 0))
    assert seed == again
    other = replace(seed, dvec=(seed.dvec[0], seed.dvec[1], Weight((0, 0), (9, 9))))
    assert seed != other


def test_deep_walk_stays_consistent():
    # a longer A3 walk: every intermediate seed passes the full validator
    seed = make_seed("a3")
    cur = seed
    for k in (0, 1, 2, 1, 0, 2):
        cur = mutate(cur, k)
        assert cur.validate_full() is None
        assert check_compatible(cur.lmat, cur.bmat) == 2
