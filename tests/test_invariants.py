"""One home per seed invariant: the witness functions that mutate, verify
and the GLS build share, and a property sweep over random symmetric GCMs."""

import json
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qca
from qca.cartan import Weight, check_reduced, pair_weight_root, weyl_apply
from qca.checks import _matrix_route_witness, default_sequences, run_suite
from qca.errors import EngineInvariantError, IncompatibleError, NotReducedError
from qca.gls import analyze_word, build_quiver
from qca.seeds import (
    QuantumSeed,
    _pairs,
    balance_witness,
    check_compatible,
    exchange_term_bound,
    homogeneity_witness,
    mutate,
    mutate_seq,
    parity_witness,
    qcommute_witness,
)
from qca.serialize import pretty_dumps, seed_from_json, seed_to_json
from qca.torus import LMatrix, exact_left_div

from conftest import SEED_CASES, corrupt_a3, gcm_and_word, make_seed

WITNESSES = (qcommute_witness, homogeneity_witness, parity_witness, balance_witness)


def doubled_l(seed):
    return LMatrix.from_rows([[2 * x for x in row] for row in seed.lmat.rows])


def step_failure(report, check, sequence):
    return next(e for e in report.entries if e.check == check and e.sequence == sequence)


def test_degree_four_pair_is_incompatible():
    # 2L still satisfies sum_t lambda_it b_tj = delta_ij d, but with d = 4;
    # the exchange relation v^{p''}(v^2 M' + M'') needs d = 2
    seed = make_seed("a2")
    lam = doubled_l(seed)
    with pytest.raises(IncompatibleError) as info:
        check_compatible(lam, seed.bmat)
    assert info.value.witness == (0, 0)
    assert "diagonal value 4" in str(info.value)
    with pytest.raises(IncompatibleError):
        QuantumSeed.initial(lam, seed.bmat, seed.dvec, cartan=seed.cartan)
    report = run_suite(replace(seed, lmat=lam), [(0,)], checks=["compatible"])
    entry = step_failure(report, "compatible", ())
    assert entry.status == "fail" and "diagonal value 4" in entry.witness


def test_witnesses_pass_on_fixture_seeds():
    for key in SEED_CASES:
        seed = make_seed(key)
        every = range(seed.k)
        assert check_compatible(seed.lmat, seed.bmat) == 2
        assert all(w(seed, every) is None for w in WITNESSES)
        for k in seed.ex:
            child = mutate(seed, k)
            assert all(w(child, (k,)) is None for w in WITNESSES)


def test_witness_texts():
    seed = make_seed("a2")
    every = range(seed.k)
    swapped = replace(seed, vars=(seed.vars[1], *seed.vars[1:]))
    assert "q-commutation of variables (1, 2)" in qcommute_witness(swapped, every)
    rows = [list(r) for r in seed.lmat.rows]
    rows[1][2], rows[2][1] = 2, -2
    bad_l = replace(seed, lmat=LMatrix.from_rows(rows))
    assert qcommute_witness(bad_l, every) == (
        "q-commutation of variables (2, 3): got 0, L says 2")
    # only the pairs involving an index of idx are examined
    assert qcommute_witness(bad_l, (0,)) is None
    dvec = list(seed.dvec)
    dvec[1] = Weight((0, 0), (2, 0))
    bad_d = replace(seed, dvec=tuple(dvec))
    assert homogeneity_witness(bad_d, every) == "variable 2 is not homogeneous of weight D_2"
    assert balance_witness(bad_d, every) == "column 1 does not balance"
    assert balance_witness(bad_d, (1,)) == "column 1 does not balance"  # b_21 != 0
    rows = [list(r) for r in seed.lmat.rows]
    rows[1][2], rows[2][1] = 1, -1
    assert parity_witness(replace(seed, lmat=LMatrix.from_rows(rows)), every).startswith(
        "lambda_32 = -1")
    assert "Cartan" in parity_witness(replace(seed, cartan=None), every)


def parity_by_pairs(seed, idx):
    """parity_witness with each pairing and membership test done per pair."""
    for i, j in _pairs(seed.k, idx):
        if not (seed.dvec[i].is_root_lattice() and seed.dvec[j].is_root_lattice()):
            return "D entries outside the root lattice at (%d, %d)" % (i + 1, j + 1)
        pairing = pair_weight_root(seed.cartan, seed.dvec[i], seed.dvec[j])
        if (seed.lmat.rows[i][j] - pairing) % 2:
            return "lambda_%d%d = %d but (d_i, d_j) = %d" % (
                i + 1, j + 1, seed.lmat.rows[i][j], pairing)
    return None


@pytest.mark.parametrize("key", sorted(SEED_CASES))
def test_parity_witness_agrees_with_pairwise_pairings(key):
    # the fixture seed and a step on, each with one L entry of the wrong
    # parity or one D entry off the root lattice, for every idx mutate,
    # verify and the GLS build pass
    base = make_seed(key)
    seeds = [base] + [mutate(base, k) for k in base.ex]
    cases = []
    for seed in seeds:
        cases.append(seed)
        for i in range(seed.k):
            for j in range(i):
                rows = [list(r) for r in seed.lmat.rows]
                rows[i][j] += 1
                rows[j][i] -= 1
                cases.append(replace(seed, lmat=LMatrix.from_rows(rows)))
            dvec = list(seed.dvec)
            dvec[i] = Weight.fundamental(seed.cartan.n, 0) + dvec[i]
            cases.append(replace(seed, dvec=tuple(dvec)))
    for seed in cases:
        for idx in [range(seed.k)] + [(i,) for i in range(seed.k)]:
            assert parity_witness(seed, idx) == parity_by_pairs(seed, idx)
    assert sum(parity_witness(seed, range(seed.k)) is not None for seed in cases) > len(seeds)


def test_mutate_and_verify_share_the_homogeneity_witness():
    seed = make_seed("a2")
    dvec = list(seed.dvec)
    dvec[0] = Weight((0, 0), (2, 0))
    bad = replace(seed, dvec=tuple(dvec))
    report = run_suite(bad, [(0,)], checks=["homogeneity"])
    at_root = step_failure(report, "homogeneity", ()).witness
    at_step = step_failure(report, "homogeneity", (1,)).witness
    prefix = "step 1 (direction 1): "
    assert at_step.startswith(prefix)
    with pytest.raises(EngineInvariantError) as info:
        mutate(bad, 0)
    assert at_step[len(prefix):] in str(info.value)
    assert at_root in str(info.value)


def test_mutate_certifies_q_commutation():
    # X_3 replaced by X_3 X_2: the division still succeeds, but the new
    # variable no longer q-commutes with it as mu_1(L) says
    seed = make_seed("a2")
    bad = replace(seed, vars=(seed.vars[0], seed.vars[1], seed.vars[2] * seed.vars[1]))
    with pytest.raises(EngineInvariantError, match="q-commutation of variables"):
        mutate(bad, 0)


def test_lambda_mutation_checks_every_pair_at_the_root():
    bad = corrupt_a3()
    witness = "q-commutation of variables (1, 6)"
    assert homogeneity_witness(bad, range(bad.k)) is None
    assert qcommute_witness(bad, range(bad.k)).startswith(witness)
    report = run_suite(bad, [], checks=["lambda_mutation"])
    entry = step_failure(report, "lambda_mutation", ())
    assert entry.status == "fail" and entry.witness.startswith(witness)


def test_mutate_validates_an_uncertified_seed():
    # mutate proves a step's q-commutation from a certified parent; a seed
    # from replace() or the JSON loader is validated in full first
    bad = corrupt_a3()
    loaded = seed_from_json(json.loads(pretty_dumps(seed_to_json(bad))))
    for k in bad.ex:
        for seed in (bad, loaded):
            with pytest.raises(EngineInvariantError, match=r"variables \(1, 6\)"):
                qca.mutate(seed, k)


def test_mutate_rechecks_compatibility(monkeypatch):
    # with q-commutation proved, check_compatible is the only guard on
    # mu_k(L): an off-diagonal drift of row k must not get through
    seed = make_seed("a3")
    closed = qca.seeds.mutate_matrices

    def drifted(lmat, bmat, k, a_neg):
        lp, bp = closed(lmat, bmat, k, a_neg)
        rows = [list(r) for r in lp.rows]
        m = (k + 1) % len(rows)
        rows[k][m] += 2
        rows[m][k] -= 2
        return LMatrix.from_rows(rows), bp

    monkeypatch.setattr(qca.seeds, "mutate_matrices", drifted)
    for k in seed.ex:
        with pytest.raises(IncompatibleError):
            mutate(seed, k)


def test_gls_build_raises_on_a_witness(monkeypatch):
    # the build asserts parity and balance through the shared functions
    monkeypatch.setattr(qca.gls, "balance_witness", lambda seed, idx: "column 9 does not balance")
    with pytest.raises(EngineInvariantError, match="column 9"):
        make_seed("a2")


@settings(max_examples=30, derandomize=True, deadline=None)
@given(gcm_and_word(2, 5))
def test_random_symmetric_gcms(case):
    cartan, word = case
    seed = qca.build_initial_seed(cartan, word)
    every = range(seed.k)
    assert check_compatible(seed.lmat, seed.bmat) == (2 if seed.ex else None)
    assert all(w(seed, every) is None for w in WITNESSES)
    sequences = default_sequences(seed, depth=3, n_random=0)
    report = run_suite(seed, sequences)
    # only a step over the exchange-size bound may keep an entry from passing
    assert all(e.witness.startswith("not evaluated: step ")
               and "exchange numerator could have up to" in e.witness
               for e in report.failures()), [
        (e.check, e.sequence, e.witness) for e in report.failures()]
    # run_suite evaluates a step once however many paths take it; the last
    # step of (k, k, j) repeats (j), since mu_k mu_k = id.  A sequence must
    # still read exactly as it does alone
    for s in (s for s in sequences if len(s) <= 2 or s[0] == s[1]):
        alone = run_suite(seed, [s]).entries
        ours = (), tuple(k + 1 for k in s)
        assert tuple(e for e in report.entries if e.sequence in ours) == alone
    for k in seed.ex:
        child = mutate(seed, k)
        text = pretty_dumps(seed_to_json(child))
        assert pretty_dumps(seed_to_json(seed_from_json(json.loads(text)))) == text
        assert exact_left_div(seed.vars[k], seed.vars[k] * child.vars[k]) == child.vars[k]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(gcm_and_word(2, 5))
def test_word_layer(case):
    # the inversion roots are the prefix images of the simple roots, positive,
    # and the prefix preserves the pairing; the weights read off them are the
    # prefix images, every quiver arrow has an exchangeable end, and a doubled
    # last letter is not reduced
    cartan, word = case
    g = analyze_word(cartan, word)
    letters = word.letters
    n = cartan.n
    for s, (i, beta) in enumerate(zip(letters, check_reduced(cartan, word))):
        u = qca.WeylWord(letters[:s])
        alpha = Weight.simple_root(n, i)
        assert beta == weyl_apply(cartan, u, alpha) and beta.is_positive_root()
        for j in range(n):
            fund = Weight.fundamental(n, j)
            assert pair_weight_root(cartan, weyl_apply(cartan, u, fund), beta) == (
                pair_weight_root(cartan, fund, alpha))
        fund = Weight.fundamental(n, i)
        lam = weyl_apply(cartan, qca.WeylWord(letters[: s + 1]), fund)
        assert (g.lambda_wts[s], g.d[s]) == (lam, lam - fund)
    ex = set(g.exchangeable)
    assert all(s in ex or t in ex for s, t, _ in build_quiver(cartan, g).arrows)
    with pytest.raises(NotReducedError):
        analyze_word(cartan, qca.WeylWord(letters + letters[-1:]))


# the largest exchange numerator, by seeds.exchange_term_bound, of a step
# that the product oracle below re-derives
ORACLE_MAX_TERMS = 1000


@settings(max_examples=100, derandomize=True, deadline=None)
@given(gcm_and_word(2, 5), st.data())
def test_mutate_proof_agrees_with_the_product_oracle(case, data):
    # mutate proves q-commutation; the torus products re-derive it
    cartan, word = case
    seed = qca.build_initial_seed(cartan, word)
    assume(seed.ex)
    seq, final = [], seed
    for k in data.draw(st.lists(st.sampled_from(seed.ex), min_size=1, max_size=4)):
        # wild types grow exponentially: a step raises variables to the
        # powers |b_ik|, which reach 55 within four steps of a rank-2 wild
        # seed, so a sequence stops before its numerator could be too large
        if exchange_term_bound(final, k) > ORACLE_MAX_TERMS:
            break
        final = mutate(final, k)
        seq.append(k)
    assert qcommute_witness(final, range(final.k)) is None
    uncertified = replace(seed)
    assert not uncertified._certified
    assert mutate_seq(uncertified, seq) == final


def dense_route(parent, k):
    """(E^T L E, E B~ F) of parent in direction k, every entry a full sum
    over the inner index; E and F written out from column and row k of B~."""
    lrows, brows, ex = parent.lmat.rows, parent.bmat.rows, parent.ex
    n, m, kpos = len(lrows), len(ex), ex.index(k)
    e = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        e[i][k] = -1 if i == k else max(0, -brows[i][kpos])
    f = [[int(i == j) for j in range(m)] for i in range(m)]
    f[kpos] = [-1 if j == kpos else max(0, brows[k][j]) for j in range(m)]

    def prod(a, b):
        return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(len(b)))
                           for j in range(len(b[0]))) for i in range(len(a)))

    return prod(prod(list(zip(*e)), lrows), e), prod(prod(e, brows), f)


def assert_matrix_route(parent):
    def node(lrows, brows):
        return SimpleNamespace(lmat=SimpleNamespace(rows=lrows),
                               bmat=SimpleNamespace(rows=brows))

    def bumped(rows):
        return (tuple(x + 1 if j == 0 else x for j, x in enumerate(rows[0])),) + rows[1:]

    for k in parent.ex:
        lp, bp = dense_route(parent, k)
        child = mutate(parent, k)
        assert (child.lmat.rows, child.bmat.rows) == (lp, bp)
        assert _matrix_route_witness(parent, child, k) is None
        # one entry off in either product is seen, and attributed to it
        assert "E^T L E differs, E B F agrees" in _matrix_route_witness(
            parent, node(bumped(lp), bp), k)
        assert "E^T L E agrees, E B F differs" in _matrix_route_witness(
            parent, node(lp, bumped(bp)), k)


def parents(seed):
    """seed and its children within the product oracle's size bound."""
    yield seed
    for k in seed.ex:
        if exchange_term_bound(seed, k) <= ORACLE_MAX_TERMS:
            yield mutate(seed, k)


@pytest.mark.parametrize("key", sorted(SEED_CASES))
def test_matrix_route_is_the_full_triple_product(key):
    for parent in parents(make_seed(key)):
        assert_matrix_route(parent)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(gcm_and_word(2, 5))
def test_matrix_route_is_the_full_triple_product_on_random_gcms(case):
    for parent in parents(qca.build_initial_seed(*case)):
        assert_matrix_route(parent)
