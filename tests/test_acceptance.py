"""Acceptance suite: the ten headline guarantees, one test and one printed
pass/fail line each.  Every identity is exact integer equality; the stated
wall-clock budgets are asserted where the guarantee includes one."""

import random
import time

import pytest

import qca
from qca.cartan import Weight
from qca.classical import classical_mutate, classical_shadow, compare_q1
from qca.seeds import check_compatible, exchange_parts, homogeneous_weight
from qca.torus import TorusElem, exact_left_div, q_commute_exponent

from conftest import SEED_CASES, make_seed, rand_elem, rand_skew, scale_weight

TREE_DEPTH = {"a2": 4, "a3": 4, "aff": 3}


def _line(num, name, ok, detail=""):
    suffix = " (%s)" % detail if detail else ""
    print("[criterion %02d] %s: %s%s" % (num, name, "pass" if ok else "FAIL", suffix))


def iter_tree(seed, depth):
    """Every mutation edge of the full |K_ex|-ary tree, prefixes shared."""
    stack = [(seed, depth)]
    while stack:
        node, d = stack.pop()
        if d == 0:
            continue
        for k in node.bmat.ex:
            child = qca.mutate(node, k)
            yield node, k, child
            stack.append((child, d - 1))


def palindromes_a3(n=32, half=5, rng_seed=0):
    rng = random.Random(rng_seed)
    out = []
    for _ in range(n):
        s = [rng.choice((0, 1, 2)) for _ in range(rng.randint(1, half))]
        out.append(tuple(s + s[::-1]))
    return out


def test_criterion_01_seed_integrity():
    t0 = time.perf_counter()
    bad = []
    for key in SEED_CASES:
        seed = make_seed(key)
        r = seed.bmat.k
        if check_compatible(seed.lmat, seed.bmat) != 2:
            bad.append((key, "compatibility"))
        for i in range(r):
            for j in range(r):
                pairing = qca.pair_weight_root(seed.cartan, seed.dvec[i], seed.dvec[j])
                if (seed.lmat.rows[i][j] - pairing) % 2:
                    bad.append((key, "parity", i, j))
        for jpos in range(len(seed.bmat.ex)):
            total = Weight.zero(seed.cartan.n)
            for i in range(r):
                total = total + scale_weight(seed.dvec[i], seed.bmat.rows[i][jpos])
            if total != Weight.zero(seed.cartan.n):
                bad.append((key, "balance", jpos))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    _line(1, "GLS seed integrity, 4 seeds", ok, "%.2fs < 1s" % elapsed)
    assert not bad, bad
    assert elapsed < 1.0


def test_criterion_02_a2_golden_values():
    seed = make_seed("a2")
    bad = []
    lam_expect = [
        Weight((1, 0), (1, 0)),   # w1 - a1
        Weight((0, 1), (1, 1)),   # w2 - a1 - a2
        Weight((1, 0), (1, 1)),   # w1 - a1 - a2
    ]
    for s in range(3):
        if seed.dvec[s] + Weight.fundamental(2, (0, 1, 0)[s]) != lam_expect[s]:
            bad.append(("lambda", s))
    L = seed.lmat.rows
    if (L[1][0], L[2][0], L[2][1]) != (1, -1, 0):
        bad.append(("L", L))
    if tuple(row[0] for row in seed.bmat.rows) != (0, -1, 1):
        bad.append(("B", seed.bmat.rows))
    m = qca.mutate(seed, 0)
    L2 = m.lmat.rows
    if (L2[1][0], L2[2][0]) != (-1, 1):
        bad.append(("muL", L2))
    if tuple(row[0] for row in m.bmat.rows) != (0, 1, -1):
        bad.append(("muB", m.bmat.rows))
    if m.vars[0].terms != {(-1, 0, 1): {0: 1}, (-1, 1, 0): {0: 1}}:
        bad.append(("X'", m.vars[0].terms))
    if m.dvec[0] != Weight((0, 0), (0, 1)):  # -alpha_2
        bad.append(("muD", m.dvec[0]))
    _line(2, "A2 golden values", not bad)
    assert not bad, bad


def test_criterion_03_mutation_involutivity():
    t0 = time.perf_counter()
    bad = []
    for key in SEED_CASES:
        seed = make_seed(key)
        for k in seed.bmat.ex:
            if qca.mutate(qca.mutate(seed, k), k) != seed:
                bad.append((key, k))
    a3 = make_seed("a3")
    pals = palindromes_a3()
    for ks in pals:
        if qca.mutate_seq(a3, ks) != a3:
            bad.append(("palindrome", ks))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 10.0
    _line(
        3,
        "mutation involutivity, all directions + %d palindromes" % len(pals),
        ok,
        "%.2fs < 10s" % elapsed,
    )
    assert not bad, bad
    assert elapsed < 10.0


def test_criterion_04_compatibility_preserved():
    t0 = time.perf_counter()
    bad = []
    n_nodes = 0
    for key, depth in TREE_DEPTH.items():
        for node, k, child in iter_tree(make_seed(key), depth):
            n_nodes += 1
            if check_compatible(child.lmat, child.bmat) != 2:
                bad.append((key, child.history))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30.0
    _line(
        4,
        "d = 2 along %d enumerated mutations" % n_nodes,
        ok,
        "%.2fs < 30s" % elapsed,
    )
    assert not bad, bad
    assert elapsed < 30.0


def test_criterion_05_laurent_positivity():
    t0 = time.perf_counter()
    bad = []
    n_vars = 0
    for key, depth in TREE_DEPTH.items():
        seed = make_seed(key)
        for v in seed.vars:
            if not v.is_nonneg():
                bad.append((key, "initial"))
        try:
            for node, k, child in iter_tree(seed, depth):
                n_vars += 1
                if not child.vars[k].is_nonneg():
                    bad.append((key, child.history, "negative"))
        except qca.NotDivisibleError as e:
            bad.append((key, "division", str(e)))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    _line(
        5,
        "Laurent + positivity over %d cluster variables" % n_vars,
        ok,
        "%.2fs < 60s" % elapsed,
    )
    assert not bad, bad
    assert elapsed < 60.0


def test_criterion_06_q1_oracle():
    t0 = time.perf_counter()
    bad = []
    n_steps = 0

    def rec(key, qnode, cnode, d):
        nonlocal n_steps
        if d == 0:
            return
        for k in qnode.bmat.ex:
            qchild = qca.mutate(qnode, k)
            cchild = classical_mutate(cnode, k)
            n_steps += 1
            if qchild.bmat.rows != cchild.rows:
                bad.append((key, qchild.history, "B"))
            if compare_q1(qchild, cchild):
                bad.append((key, qchild.history, "vars"))
            rec(key, qchild, cchild, d - 1)

    for key in ("a2", "a3"):
        seed = make_seed(key)
        rec(key, seed, classical_shadow(seed), 5)
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    _line(
        6,
        "q = 1 classical oracle, depth 5, %d steps" % n_steps,
        ok,
        "%.2fs < 60s" % elapsed,
    )
    assert not bad, bad
    assert elapsed < 60.0


def _edges_for_identities():
    for key, depth in TREE_DEPTH.items():
        yield from iter_tree(make_seed(key), depth)
    a3 = make_seed("a3")
    for ks in palindromes_a3():
        node = a3
        for k in ks:
            child = qca.mutate(node, k)
            yield node, k, child
            node = child


def test_criterion_07_exchange_identity():
    bad = []
    n_steps = 0
    for node, k, child in _edges_for_identities():
        n_steps += 1
        parts = exchange_parts(node, k)
        lhs = node.vars[k] * parts.new_var
        m_plus = parts.m_pos.v_shift(-parts.shift_pos)
        m_minus = parts.m_neg.v_shift(-parts.shift_neg)
        rhs = (m_plus.v_shift(2) + m_minus).v_shift(parts.shift_neg)
        if lhs != rhs:
            bad.append((node.history, k))
    _line(7, "exchange identity at %d mutation steps" % n_steps, not bad)
    assert not bad, bad


def test_criterion_08_lambda_mutation_consistency():
    bad = []
    n_checked = 0
    for node, k, child in _edges_for_identities():
        for j in range(node.bmat.k):
            if j == k:
                continue
            n_checked += 1
            got = q_commute_exponent(node.vars[j], child.vars[k])
            if got != child.lmat.rows[j][k]:
                bad.append((node.history, k, j, got))
    _line(8, "q-commutation vs mutated L, %d pairs" % n_checked, not bad)
    assert not bad, bad


def test_criterion_09_torus_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(90)
    ambients = [
        make_seed("a2").l_init,
        make_seed("aff").l_init,
        rand_skew(rng, 4),
    ]
    bad = []
    for i in range(500):
        lam = ambients[i % len(ambients)]
        x, y, z = (rand_elem(rng, lam) for _ in range(3))
        if (x * y) * z != x * (y * z):
            bad.append(("assoc", i))
    for i in range(200):
        lam = ambients[i % len(ambients)]
        x, y = rand_elem(rng, lam), rand_elem(rng, lam)
        if (x * y).bar() != y.bar() * x.bar() or x.bar().bar() != x:
            bad.append(("bar", i))
    for i in range(500):
        lam = ambients[i % len(ambients)]
        p, s = rand_elem(rng, lam), rand_elem(rng, lam)
        if exact_left_div(p, p * s) != s:
            bad.append(("division", i))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30.0
    _line(
        9,
        "torus algebra: 500 assoc + 200 bar + 500 division",
        ok,
        "%.2fs < 30s" % elapsed,
    )
    assert not bad, bad
    assert elapsed < 30.0


def test_criterion_10_homogeneity():
    bad = []
    n_checked = 0
    for key, depth in TREE_DEPTH.items():
        seed = make_seed(key)
        seen = set()
        for node in [seed] + [c for _, _, c in iter_tree(seed, depth)]:
            for i, v in enumerate(node.vars):
                if id(v) in seen:
                    continue
                seen.add(id(v))
                n_checked += 1
                if homogeneous_weight(v, seed.d_init) != node.dvec[i]:
                    bad.append((key, node.history, i))
    _line(10, "homogeneity of %d cluster variables" % n_checked, not bad)
    assert not bad, bad
