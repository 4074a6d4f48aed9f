"""The commutative q = 1 oracle and its agreement with the quantum engine."""

import random

import pytest

from qca.classical import (
    cl_add,
    cl_div_exact,
    cl_mul,
    cl_pow,
    classical_mutate,
    classical_shadow,
    compare_q1,
)
from qca.seeds import mutate_seq

from conftest import SEED_CASES, make_seed


def rand_poly(rng, r, n_terms=3, span=3):
    out = {}
    for _ in range(rng.randint(1, n_terms)):
        a = tuple(rng.randint(-span, span) for _ in range(r))
        out[a] = out.get(a, 0) + rng.choice([-2, -1, 1, 2, 3])
    return {a: c for a, c in out.items() if c} or {(0,) * r: 1}


def test_cl_arithmetic_basics():
    x = {(1, 0): 1}
    y = {(0, 1): 2}
    assert cl_add(x, y) == {(1, 0): 1, (0, 1): 2}
    assert cl_add(x, {(1, 0): -1}) == {}
    assert cl_mul(x, y) == {(1, 1): 2}
    assert cl_mul(x, {}) == {}
    assert cl_pow(y, 3) == {(0, 3): 8}
    assert cl_pow(x, 0) == {(0, 0): 1}


def test_cl_mul_commutative_ring():
    rng = random.Random(40)
    for _ in range(60):
        r = rng.randint(1, 4)
        f, g, h = (rand_poly(rng, r) for _ in range(3))
        assert cl_mul(f, g) == cl_mul(g, f)
        assert cl_mul(cl_mul(f, g), h) == cl_mul(f, cl_mul(g, h))
        assert cl_mul(f, cl_add(g, h)) == cl_add(cl_mul(f, g), cl_mul(f, h))


def test_cl_div_roundtrip():
    rng = random.Random(41)
    for _ in range(80):
        r = rng.randint(1, 4)
        f = rand_poly(rng, r)
        g = rand_poly(rng, r)
        assert cl_div_exact(cl_mul(f, g), g) == f


def test_cl_div_long_quotient():
    # (1 - x1) * (1 + x1 + ... + x1^1200) = 1 - x1^1201: a two-term dividend
    # with a 1201-term quotient
    den = {(0, 0): 1, (1, 0): -1}
    quo = {(e, 0): 1 for e in range(1201)}
    num = cl_mul(den, quo)
    assert num == {(0, 0): 1, (1201, 0): -1}
    assert cl_div_exact(num, den) == quo


def test_cl_div_failure():
    with pytest.raises(ValueError):
        cl_div_exact({(1, 0): 1}, {(1, 0): 2})
    with pytest.raises(ValueError):
        cl_div_exact({(1, 0): 1}, {(1, 0): 1, (0, 1): 1})
    with pytest.raises(ZeroDivisionError):
        cl_div_exact({(1, 0): 1}, {})


def test_shadow_of_initial_seed():
    seed = make_seed("a2")
    cs = classical_shadow(seed)
    assert cs.rows == seed.bmat.rows
    assert cs.ex == seed.bmat.ex
    assert cs.vars == tuple(
        {tuple(int(i == t) for t in range(3)): 1} for i in range(3)
    )
    assert compare_q1(seed, cs) == []


def test_classical_mutation_golden_a2():
    cs = classical_shadow(make_seed("a2"))
    m = classical_mutate(cs, 0)
    # x1' = (x2 + x3) / x1
    assert m.vars[0] == {(-1, 1, 0): 1, (-1, 0, 1): 1}
    assert m.vars[1] == cs.vars[1] and m.vars[2] == cs.vars[2]
    assert m.rows == ((0,), (1,), (-1,))


def test_classical_mutation_involutive():
    for key in SEED_CASES:
        cs = classical_shadow(make_seed(key))
        for k in cs.ex:
            back = classical_mutate(classical_mutate(cs, k), k)
            assert back.vars == cs.vars and back.rows == cs.rows


def test_classical_rejects_frozen():
    cs = classical_shadow(make_seed("a2"))
    with pytest.raises(ValueError):
        classical_mutate(cs, 1)


def test_quantum_specializes_to_classical():
    # the independent commutative walk matches specialize_q1 along real walks
    for key, seqs in (
        ("a2", [(0,), (0, 0, 0)]),
        ("a3", [(0, 1, 2), (1, 2, 3 - 1, 1), (0, 1, 0, 2, 1, 0)]),
        ("aff", [(0, 1), (0, 1, 0), (1, 0, 1, 0)]),
    ):
        seed = make_seed(key)
        shadow = classical_shadow(seed)
        for ks in seqs:
            q = mutate_seq(seed, ks)
            c = shadow
            for k in ks:
                c = classical_mutate(c, k)
            assert q.bmat.rows == c.rows
            assert compare_q1(q, c) == []
            assert tuple(v.specialize_q1() for v in q.vars) == c.vars


def test_compare_q1_reports_indices():
    seed = make_seed("a2")
    cs = classical_shadow(seed)
    wrong = cs.vars[:1] + ({(5, 0, 0): 1},) + cs.vars[2:]
    import dataclasses

    broken = dataclasses.replace(cs, vars=wrong)
    assert compare_q1(seed, broken) == [1]
