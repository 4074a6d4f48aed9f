"""The verification suite: full passes, fault injection, determinism."""

import hashlib
import itertools
from dataclasses import replace

import pytest

import qca
from qca.cartan import Weight
from qca.checks import (
    ALL_CHECKS,
    EXTENDED_CHECKS,
    STANDARD_CHECKS,
    check_tier,
    default_sequences,
    run_suite,
)
from qca.seeds import _exchange_terms
from qca.serialize import canonical_dumps, report_to_json
from qca.torus import LMatrix, TorusElem, qc_v

from conftest import SEED_CASES, make_seed


def corrupted(seed, **kw):
    return replace(seed, **kw)


def flip_l(seed, i, j, value):
    rows = [list(r) for r in seed.lmat.rows]
    rows[i][j], rows[j][i] = value, -value
    return replace(seed, lmat=LMatrix.from_rows(rows))


def first_failure(report, name):
    for e in report.failures():
        if e.check == name:
            return e
    return None


def test_tiers():
    assert set(STANDARD_CHECKS) | set(EXTENDED_CHECKS) == set(ALL_CHECKS)
    assert check_tier("compatible") == "standard"
    assert check_tier("bar_invariance") == "extended"
    with pytest.raises(ValueError):
        check_tier("nonsense")


def test_default_sequences_shape(a2_seed, a3_seed):
    seqs = default_sequences(a2_seed)
    assert seqs == sorted(set(seqs), key=lambda s: (len(s), s))
    assert all(all(k in a2_seed.bmat.ex for k in s) for s in seqs)
    assert (0,) in seqs and (0, 0, 0, 0) in seqs
    # enumerated tree depth 4 over three directions plus the random batch
    seqs3 = default_sequences(a3_seed, depth=2, n_random=0)
    assert seqs3 == [
        (0,),
        (1,),
        (2,),
        (0, 0),
        (0, 1),
        (0, 2),
        (1, 0),
        (1, 1),
        (1, 2),
        (2, 0),
        (2, 1),
        (2, 2),
    ]
    assert default_sequences(a3_seed, depth=1, n_random=5, rng_seed=1) != default_sequences(
        a3_seed, depth=1, n_random=5, rng_seed=2
    )


def test_default_sequences_cap(a2_seed, a3_seed):
    # the enumeration size is computed first, so huge depths return at once
    assert len(default_sequences(a3_seed, depth=6, n_random=0)) == 3 ** 7 // 2 - 1
    for seed in (a2_seed, a3_seed):
        with pytest.raises(ValueError, match="enumerates more than"):
            default_sequences(seed, depth=10 ** 9)
    with pytest.raises(ValueError, match="depth"):
        default_sequences(a3_seed, depth=-1)


def test_full_suite_passes(a2_seed):
    report = run_suite(a2_seed, default_sequences(a2_seed))
    assert report.passed
    assert report.failures() == ()
    n_seqs = len(default_sequences(a2_seed))
    assert len(report.entries) == len(ALL_CHECKS) * (n_seqs + 1)
    assert report.meta["checks"] == list(ALL_CHECKS)
    assert report.meta["n_sequences"] == n_seqs
    assert all(e.status == "pass" for e in report.entries)
    assert "total" in report.timings


def test_suite_passes_other_seeds():
    for key in ("a3", "aff"):
        seed = make_seed(key)
        report = run_suite(seed, default_sequences(seed, depth=3, n_random=8))
        assert report.passed, [
            (e.check, e.sequence, e.witness) for e in report.failures()
        ]


def test_entry_ordering(a2_seed):
    # entries group by check and report sequences as 1-based directions
    report = run_suite(a2_seed, [(0,), (0, 0)], checks=["compatible", "laurent"])
    got = [(e.check, e.sequence) for e in report.entries]
    assert got == [
        ("compatible", ()),
        ("compatible", (1,)),
        ("compatible", (1, 1)),
        ("laurent", ()),
        ("laurent", (1,)),
        ("laurent", (1, 1)),
    ]


def test_an_empty_sequence_is_the_starting_seed_entry(a2_seed):
    # () is the starting seed, which always has its own entry; it is not a
    # second sequence
    report = run_suite(a2_seed, [(), (0,)], checks=["compatible"])
    assert [e.sequence for e in report.entries] == [(), (1,)]
    assert report.meta["n_sequences"] == 1
    assert report_to_json(report, "x") == report_to_json(
        run_suite(a2_seed, [(0,)], checks=["compatible"]), "x")


def test_unknown_check_name(a2_seed):
    with pytest.raises(ValueError, match="compatible"):
        run_suite(a2_seed, [(0,)], checks=["compatible", "bogus"])


def test_an_empty_check_selection_is_refused(a2_seed, monkeypatch):
    # before any step: an empty selection would pass vacuously
    monkeypatch.setattr(qca.checks, "_evaluate_step", None)
    with pytest.raises(ValueError, match="no checks selected"):
        run_suite(a2_seed, [(0,)], checks=[])


def test_invalid_direction(a2_seed):
    with pytest.raises(ValueError):
        run_suite(a2_seed, [(1,)])


def test_report_json_is_deterministic(a2_seed):
    a = report_to_json(run_suite(a2_seed, default_sequences(a2_seed)), "x")
    b = report_to_json(run_suite(a2_seed, default_sequences(a2_seed)), "x")
    assert canonical_dumps(a) == canonical_dumps(b)
    assert "timings" not in canonical_dumps(a)
    assert a["summary"] == {"pass": len(a["entries"]), "fail": 0}


# -- fault injection: each check must catch its own corruption ---------------


def test_fault_compatible(a2_seed):
    bad = flip_l(a2_seed, 0, 1, 1)
    report = run_suite(bad, [(0,)], checks=["compatible"])
    assert not report.passed
    entry = first_failure(report, "compatible")
    assert entry.sequence == ()
    assert "(1, 1)" in entry.witness


def test_fault_parity(a2_seed):
    bad = flip_l(a2_seed, 1, 2, 1)
    report = run_suite(bad, [], checks=["parity"])
    assert not report.passed
    assert "lambda_32" in first_failure(report, "parity").witness


def test_fault_weight_balance(a2_seed):
    dvec = list(a2_seed.dvec)
    dvec[1] = Weight((0, 0), (2, 0))
    bad = corrupted(a2_seed, dvec=tuple(dvec))
    report = run_suite(bad, [], checks=["weight_balance"])
    assert not report.passed
    assert "column 1" in first_failure(report, "weight_balance").witness


def test_fault_exchange_identity(a2_seed):
    bad = flip_l(a2_seed, 0, 1, 1)
    report = run_suite(bad, [(0,)], checks=["exchange_identity"])
    assert not report.passed
    entry = first_failure(report, "exchange_identity")
    assert entry.sequence == (1,)
    assert "v^2 M'" in entry.witness


def test_fault_lambda_mutation(a2_seed):
    bad = flip_l(a2_seed, 1, 2, 4)
    report = run_suite(bad, [(0,)], checks=["lambda_mutation"])
    assert not report.passed
    assert "q-commutation" in first_failure(report, "lambda_mutation").witness


def test_fault_matrix_route(a2_seed, monkeypatch):
    # a closed form that drifts from E B~ F in a frozen row is caught by the
    # independent matrix route that lambda_mutation evaluates at each step
    closed = qca.seeds.mutate_matrices

    def drifted(lmat, bmat, k, a_neg):
        lp, bp = closed(lmat, bmat, k, a_neg)
        rows = [list(r) for r in bp.rows]
        rows[-1][0] += 1
        return lp, qca.BMatrix.from_rows(rows, bp.ex)

    monkeypatch.setattr(qca.seeds, "mutate_matrices", drifted)
    report = run_suite(a2_seed, [(0,)], checks=["lambda_mutation"])
    assert "E B F differs" in first_failure(report, "lambda_mutation").witness


def test_fault_homogeneity(a2_seed):
    dvec = list(a2_seed.dvec)
    dvec[0] = Weight((0, 0), (2, 0))
    bad = corrupted(a2_seed, dvec=tuple(dvec))
    report = run_suite(bad, [(0,)], checks=["homogeneity"])
    assert not report.passed
    assert "homogeneous" in first_failure(report, "homogeneity").witness


def test_fault_laurent(a2_seed):
    mixed = a2_seed.vars[0] + a2_seed.vars[1]
    bad = corrupted(a2_seed, vars=(mixed, *a2_seed.vars[1:]))
    report = run_suite(bad, [(0,)], checks=["laurent"])
    assert not report.passed
    entry = first_failure(report, "laurent")
    assert entry.sequence == (1,)
    assert "newton_box" in entry.witness


def test_fault_positivity(a2_seed):
    neg = a2_seed.vars[0].scaled(-1)
    bad = corrupted(a2_seed, vars=(neg, *a2_seed.vars[1:]))
    report = run_suite(bad, [(0,)], checks=["positivity"])
    assert not report.passed
    entry = first_failure(report, "positivity")
    assert entry.sequence == ()
    assert "negative coefficient" in entry.witness


def test_fault_q1_oracle(a2_seed):
    doubled = a2_seed.vars[1].scaled(2)
    bad = corrupted(a2_seed, vars=(a2_seed.vars[0], doubled, a2_seed.vars[2]))
    report = run_suite(bad, [(0,)], checks=["q1_oracle"])
    assert not report.passed
    assert "classical" in first_failure(report, "q1_oracle").witness


def test_fault_involutivity(a2_seed, a3_seed, monkeypatch):
    # an unbalanced D column makes the d-vector round trip drift
    dvec = list(a2_seed.dvec)
    dvec[1] = Weight((0, 0), (2, 0))
    bad = corrupted(a2_seed, dvec=tuple(dvec))
    report = run_suite(bad, [(0,)], checks=["involutivity"])
    assert not report.passed
    assert "restore" in first_failure(report, "involutivity").witness
    # a new variable off by a factor v passes the matrix and D round trip and
    # is caught by the one product against the back numerator
    exact = qca.checks.exchange_parts

    def off_by_v(seed, k, terms=None):
        parts = exact(seed, k, terms)
        return replace(parts, new_var=parts.new_var.v_shift(1))

    # a forward closed form that drifts in a frozen row of another column
    # leaves the back numerator in direction 1 alone but does not round-trip
    closed = qca.seeds.mutate_matrices

    def drifted(lmat, bmat, k, a_neg):
        lp, bp = closed(lmat, bmat, k, a_neg)
        rows = [list(r) for r in bp.rows]
        rows[-1][-1] += 1
        return lp, qca.BMatrix.from_rows(rows, bp.ex)

    for module, name, fault, seed in ((qca.checks, "exchange_parts", off_by_v, a2_seed),
                                      (qca.seeds, "mutate_matrices", drifted, a3_seed)):
        with monkeypatch.context() as m:
            m.setattr(module, name, fault)
            report = run_suite(seed, [(0,)], checks=["involutivity"])
        assert not report.passed
        assert "restore" in first_failure(report, "involutivity").witness


def test_fault_bar_invariance(a2_seed):
    shifted = a2_seed.vars[1].scaled(qc_v(1))
    bad = corrupted(a2_seed, vars=(a2_seed.vars[0], shifted, a2_seed.vars[2]))
    report = run_suite(bad, [(0,)], checks=["bar_invariance"])
    assert not report.passed
    assert "bar" in first_failure(report, "bar_invariance").witness


def test_aborted_walk_marks_descendants(a2_seed):
    # with X1 + X2 as variable 1 the first division fails; the selected checks
    # that never got to run on that prefix must fail as "not evaluated"
    mixed = a2_seed.vars[0] + a2_seed.vars[1]
    bad = corrupted(a2_seed, vars=(mixed, *a2_seed.vars[1:]))
    report = run_suite(bad, [(0,), (0, 0)], checks=["compatible", "laurent"])
    assert not report.passed
    by_key = {(e.check, e.sequence): e for e in report.entries}
    assert "not evaluated" in by_key[("compatible", (1,))].witness
    assert "not evaluated" in by_key[("compatible", (1, 1))].witness
    assert by_key[("laurent", ())].status == "pass"


def test_seed_without_cartan():
    # a seed built directly from (L, B, D) carries no Cartan matrix, so the
    # parity check cannot be evaluated and reports an honest failure; every
    # other check still runs and passes
    a2_seed = make_seed("a2")
    seed = qca.QuantumSeed.initial(a2_seed.lmat, a2_seed.bmat, a2_seed.dvec)
    report = run_suite(seed, [(0,)])
    assert not report.passed
    assert {e.check for e in report.failures()} == {"parity"}
    assert "Cartan" in first_failure(report, "parity").witness
    rest = [c for c in ALL_CHECKS if c != "parity"]
    assert run_suite(seed, [(0,)], checks=rest).passed


def _with_var(seed, i, x):
    return corrupted(seed, vars=seed.vars[:i] + (x,) + seed.vars[i + 1:])


def _with_d(seed, i, w):
    return corrupted(seed, dvec=seed.dvec[:i] + (w,) + seed.dvec[i + 1:])


# the sha256 of canonical_dumps(report_to_json(report, "x")) of every check
# over default_sequences, with the report's (steps, evaluated)
FAILING_REPORTS = {
    "flip_l_01": ("3f8ec746d132737a3137dc89b72f065ef98d0bcc7ddd787cf6663de18e5cf876", 2, 2),
    "flip_l_12": ("9a139d4ea58a05f3ba4956352b583ff49fd1837cd78dec3d63712841373fe616", 2, 2),
    "flip_l_12_4": ("5883485a6a09794b66d9cbbad4a7429e6b22384337612beffb80f86be6aeaec0", 2, 2),
    "bad_d": ("62dcb31cbd373913de7837a44e3f3e6284b6d667848dd0faeb88bafd0222a404", 6, 6),
    "x1_plus_x2": ("c1e10b6cd3b632412fbdbc498206f40a61bedc3aa76f1a5ae85b4df33df0ae71", 1, 1),
    "negated": ("6d96be1a6bb61085b25e50a26efa0f5766c5ae5aaa5f915ccba66a52b1e50bc4", 6, 2),
    "doubled": ("09421a211e437e6490e82db263057780f4d6908ee6788056d9dad5eeb1d7595c", 6, 2),
    "no_cartan": ("cde8ba8fbf9b93cd9f0f6509622524105d45aaa33707eedca34dd834df730d63", 6, 2),
    "wild": ("02ced00944bbfeb3c28643f0e127304beb3e020248a214d28df06d56ad98a7e4", 64, 55),
}


def _wild_seed():
    return qca.build_initial_seed(qca.CartanDatum.from_rows(((2, -3), (-3, 2))),
                                  qca.WeylWord.from_one_based((1, 2, 1, 2, 1, 2)))


# each from the A2 seed but the wild one, whose 33 "not evaluated" entries
# lie past steps over the exchange-size bound
FAILING_SEEDS = {
    "flip_l_01": lambda a2: flip_l(a2, 0, 1, 1),
    "flip_l_12": lambda a2: flip_l(a2, 1, 2, 1),
    "flip_l_12_4": lambda a2: flip_l(a2, 1, 2, 4),
    "bad_d": lambda a2: _with_d(a2, 1, Weight((0, 0), (2, 0))),
    "x1_plus_x2": lambda a2: _with_var(a2, 0, a2.vars[0] + a2.vars[1]),
    "negated": lambda a2: _with_var(a2, 0, a2.vars[0].scaled(-1)),
    "doubled": lambda a2: _with_var(a2, 1, a2.vars[1].scaled(2)),
    "no_cartan": lambda a2: qca.QuantumSeed.initial(a2.lmat, a2.bmat, a2.dvec),
    "wild": lambda a2: _wild_seed(),
}


@pytest.mark.parametrize("name", sorted(FAILING_REPORTS))
def test_failing_reports_keep_their_bytes(name):
    # pins every witness, status and entry order of reports that fail
    seed = FAILING_SEEDS[name](make_seed("a2"))
    report = run_suite(seed, default_sequences(seed, depth=0 if name == "wild" else 4))
    assert not report.passed
    text = canonical_dumps(report_to_json(report, "x"))
    got = hashlib.sha256(text.encode()).hexdigest(), report.steps, report.evaluated
    assert got == FAILING_REPORTS[name]


def test_entries_carry_tier(a2_seed):
    report = run_suite(a2_seed, [(0,)])
    tiers = {e.check: e.tier for e in report.entries}
    assert tiers["compatible"] == "standard"
    assert tiers["bar_invariance"] == "extended"


A4_ROWS = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))
A4_WORD = (1, 2, 1, 3, 2, 1, 4, 3, 2, 1)


def a4_seed():
    return qca.build_initial_seed(qca.CartanDatum.from_rows(A4_ROWS),
                                  qca.WeylWord.from_one_based(A4_WORD))


def test_each_distinct_step_is_evaluated_once(monkeypatch):
    # the tree reaches one seed by many paths (mu_k mu_k = id, commuting
    # directions); of the 302 steps of this tree 216 are distinct
    seed = a4_seed()
    child_of = qca.checks._child
    calls = []

    def counted(cur, parts):
        calls.append(parts.k)
        return child_of(cur, parts)

    monkeypatch.setattr(qca.checks, "_child", counted)
    report = run_suite(seed, default_sequences(seed, depth=3, rng_seed=0))
    assert report.passed
    assert (report.steps, report.evaluated, len(calls)) == (302, 216, 216)


def test_each_exchange_key_is_computed_once_per_look_up(monkeypatch):
    # a division miss passes its key on to the terms entry, so the key is
    # computed once for each look-up of divisions and for each of
    # involutivity's look-ups of terms: 216 + 216 on this tree
    seed = a4_seed()
    key_of = qca.checks._Walk._exchange_key
    calls = []

    def counted(walk, cur, k):
        calls.append(k)
        return key_of(walk, cur, k)

    monkeypatch.setattr(qca.checks._Walk, "_exchange_key", counted)
    report = run_suite(seed, default_sequences(seed, depth=3, rng_seed=0))
    divisions, terms = report.oracles["divisions"], report.oracles["terms"]
    assert len(calls) == sum(divisions) + sum(terms) - divisions[0] == 432


def test_a_step_from_equal_matrices_and_weights_is_reused():
    # L, B~ and the D weights enter the steps key by the id of the first
    # equal one met, so distinct objects with equal content still hit
    seed = a4_seed()
    walk = qca.checks._Walk(())
    k = seed.ex[0]
    first = walk.step(seed, None, k)
    copy = replace(seed, lmat=LMatrix(seed.lmat.rows), bmat=qca.BMatrix(seed.bmat.rows, seed.ex),
                   dvec=tuple(Weight(w.m, w.c) for w in seed.dvec))
    assert copy.lmat is not seed.lmat and copy.bmat is not seed.bmat
    assert all(a is not b for a, b in zip(copy.dvec, seed.dvec))
    assert walk.step(copy, None, k) is first
    assert walk.counts["steps"] == [1, 1]
    # an L entry changed, even outside the exchange, is another step
    walk.step(flip_l(seed, 0, 1, seed.lmat.rows[0][1] + 2), None, k)
    assert walk.counts["steps"] == [2, 1]


def test_a_shared_step_is_reported_under_each_path(monkeypatch):
    # mu_j mu_k = mu_k mu_j when b_jk = 0: (j, k), (k, j) and (j, j, k, j)
    # reach one seed, the last two by the same step from mu_k(S); a fault
    # there is reported under every sequence with that sequence's step text
    seed = a4_seed()
    j, k = 0, 3
    assert seed.bmat.rows[j][seed.bmat.pos(k)] == 0
    target = qca.mutate_seq(seed, (j, k))
    assert qca.mutate_seq(seed, (k, j)) == target
    real = qca.checks._node_failures

    def faulty(node, idx, selected, shadow, parent=None, parts=None):
        out = real(node, idx, selected, shadow, parent, parts)
        if node == target:
            out["positivity"] = "injected"
        return out

    monkeypatch.setattr(qca.checks, "_node_failures", faulty)
    report = run_suite(seed, [(j, k), (k, j), (j, j, k, j)], checks=["positivity"])
    got = {e.sequence: e.witness for e in report.failures()}
    assert got == {
        (j + 1, k + 1): "step 2 (direction %d): injected" % (k + 1),
        (k + 1, j + 1): "step 2 (direction %d): injected" % (j + 1),
        (j + 1, j + 1, k + 1, j + 1): "step 4 (direction %d): injected" % (j + 1),
    }
    # (j), (k), (j, k), (k, j), (j, j) are distinct; (j, j, k) and
    # (j, j, k, j) repeat (k) and (k, j)
    assert (report.steps, report.evaluated) == (7, 5)


def test_a_step_from_a_different_shadow_is_evaluated_again(a2_seed, monkeypatch):
    # (1, 1) returns to the starting seed, but with a shadow whose exchange
    # matrix is corrupted (its variables still agree); the step (1, 1, 1)
    # from there is not the step (1) and the q = 1 oracle must see it
    real = qca.checks.classical_mutate
    calls = []

    def corrupt_second(cs, k):
        calls.append(k)
        out = real(cs, k)
        if len(calls) == 2:
            out = replace(out, rows=tuple((0,) * len(r) for r in out.rows))
        return out

    monkeypatch.setattr(qca.checks, "classical_mutate", corrupt_second)
    report = run_suite(a2_seed, [(0,), (0, 0, 0)], checks=["q1_oracle"])
    got = {e.sequence: e.witness for e in report.failures()}
    assert got == {(1, 1, 1): "step 3 (direction 1): variables [1] disagree "
                                "with the classical shadow"}
    assert report.evaluated == 3


def test_a_step_from_a_different_d_is_evaluated_again(a2_seed, monkeypatch):
    # (1, 1) returns to the starting L, B~ and variables, but the corrupted
    # second d-vector step shifts the frozen weights; mu_1 of that D is not
    # the weight of the new variable, so (1, 1, 1) fails homogeneity
    real = qca.seeds.mutate_dvector
    calls = []

    def corrupt_second(dvec, k, a_pos):
        calls.append(k)
        out = real(dvec, k, a_pos)
        if len(calls) == 2:
            shift = Weight.fundamental(out[0].n, 0)
            out = tuple(d if i == k else d + shift for i, d in enumerate(out))
        return out

    monkeypatch.setattr(qca.seeds, "mutate_dvector", corrupt_second)
    report = run_suite(a2_seed, [(0,), (0, 0, 0)], checks=["homogeneity"])
    got = {e.sequence: e.witness for e in report.failures()}
    assert got == {(1, 1, 1): "step 3 (direction 1): variable 1 is not "
                                "homogeneous of weight D_1"}


@pytest.mark.parametrize("i, scale, witness", [
    (2, -1, "step 3 (direction 1): variable 1 has a negative coefficient"),
    (0, 2, "not evaluated: division failed at step 3"),
], ids=["support", "x_k"])
def test_a_step_from_other_variables_is_evaluated_again(a2_seed, monkeypatch, i, scale,
                                                        witness):
    # (1, 1) returns to the starting L, B~ and D, but the corrupted second
    # step scales variable i + 1, which positivity at step 2 does not look
    # at; the step (1, 1, 1) from there reads it in its exchange terms (i in
    # the support of column 1) or in its division (X_1)
    real = qca.checks._child
    calls = []

    def corrupt_second(cur, parts):
        calls.append(parts.k)
        out = real(cur, parts)
        if len(calls) == 2:
            out = _with_var(out, i, out.vars[i].scaled(scale))
        return out

    monkeypatch.setattr(qca.checks, "_child", corrupt_second)
    report = run_suite(a2_seed, [(0,), (0, 0, 0)], checks=["positivity"])
    assert {e.sequence: e.witness for e in report.failures()} == {(1, 1, 1): witness}
    assert (report.steps, report.evaluated) == (3, 3)


def test_a_step_from_a_shadow_with_other_variables_is_evaluated_again(a2_seed, monkeypatch):
    # (1, 1) returns to the starting seed and shadow rows, but the corrupted
    # second step doubles a shadow variable; the q = 1 oracle fails there,
    # and the step (1, 1, 1) from that shadow is not the step (1), though
    # only the count of evaluated steps can tell
    real = qca.checks.classical_mutate
    calls = []

    def corrupt_second(cs, k):
        calls.append(k)
        out = real(cs, k)
        if len(calls) == 2:
            out = replace(out, vars=(out.vars[0], {a: 2 * c for a, c in out.vars[1].items()},
                                     out.vars[2]))
        return out

    monkeypatch.setattr(qca.checks, "classical_mutate", corrupt_second)
    report = run_suite(a2_seed, [(0,), (0, 0, 0)], checks=["q1_oracle"])
    got = {e.sequence: e.witness for e in report.failures()}
    assert got == {(1, 1, 1): "step 2 (direction 1): variables [2] disagree "
                              "with the classical shadow"}
    assert report.evaluated == 3


def _content(x):
    return tuple(sorted((a, tuple(sorted(cf.items()))) for a, cf in x.terms.items()))


def test_each_ordered_pair_is_computed_once_per_call(monkeypatch):
    # the 1,989 q-commutations of this tree cover 480 ordered pairs of
    # variables by content; a second call computes them all again
    seed = a4_seed()
    seqs = default_sequences(seed, depth=3, rng_seed=0)
    real = qca.checks.q_commute_exponent
    calls = []

    def counted(x, y):
        calls.append((_content(x), _content(y)))
        return real(x, y)

    monkeypatch.setattr(qca.checks, "q_commute_exponent", counted)
    reports = []
    for _ in range(2):
        calls.clear()
        reports.append(run_suite(seed, seqs))
        assert len(calls) == len(set(calls)) == 480
    first, second = reports
    assert first.oracles == second.oracles == {
        "pairs": (480, 1509), "terms": (188, 149),
        "divisions": (121, 95), "products": (144, 288)}
    assert canonical_dumps(report_to_json(first, "x")) == canonical_dumps(
        report_to_json(second, "x"))


def test_a_reused_pair_is_compared_with_each_nodes_own_l(monkeypatch):
    # mu_k from S and from mu_j S (b_jk = 0) make the same exchange, so the
    # new variable's pair with X_i is computed at (k) and reused at (j, k).
    # L is corrupted at (j, k) only: the reused exponent must disagree there
    # and nowhere else.  The matrix route, which would catch the corrupted
    # L first, is switched off to test the torus oracle alone.
    seed = a4_seed()
    j, k, i = 0, 3, 1
    assert seed.bmat.rows[j][seed.bmat.pos(k)] == 0
    child_of = qca.checks._child
    truth = qca.mutate_seq(seed, (j, k)).lmat.rows[i][k]

    def corrupting(cur, parts):
        child = child_of(cur, parts)
        if cur.history == (j,) and parts.k == k:
            child = flip_l(child, i, k, truth + 2)
        return child

    real = qca.checks.q_commute_exponent
    calls = []

    def counted(x, y):
        calls.append((_content(x), _content(y)))
        return real(x, y)

    monkeypatch.setattr(qca.checks, "_child", corrupting)
    monkeypatch.setattr(qca.checks, "_matrix_route_witness", lambda *_: None)
    monkeypatch.setattr(qca.checks, "q_commute_exponent", counted)
    report = run_suite(seed, [(k,), (j, k)], checks=["lambda_mutation"])
    got = {e.sequence: (e.status, e.witness) for e in report.entries}
    assert got[(k + 1,)] == ("pass", None)
    assert got[(j + 1, k + 1)] == (
        "fail", "step 2 (direction %d): q-commutation of variables (%d, %d): "
                "got %d, L says %d" % (k + 1, i + 1, k + 1, truth, truth + 2))
    new_var = qca.mutate(seed, k).vars[k]
    assert calls.count((_content(seed.vars[i]), _content(new_var))) == 1
    assert report.oracles["divisions"] == (2, 1)


@pytest.mark.parametrize("entry", ["support", "row_k"])
def test_an_exchange_is_reused_only_under_the_same_l(monkeypatch, entry):
    # (k) and (j, k) make one exchange when b_jk = 0.  An L entry of mu_j S
    # corrupted between two indices of one monomial of the exchange, or in
    # row k (which moves a shift), makes (j, k) another exchange, and its
    # entries read as if (k) had not been walked first
    seed = a4_seed()
    j, k = 0, 3
    pos = [i for i, b in enumerate(seed.bmat.column(k)) if b > 0]
    a, b = pos[:2] if entry == "support" else (k, pos[0])
    child_of = qca.checks._child

    def corrupting(cur, parts):
        child = child_of(cur, parts)
        if cur.history == () and parts.k == j:
            child = flip_l(child, a, b, child.lmat.rows[a][b] + 2)
        return child

    monkeypatch.setattr(qca.checks, "_child", corrupting)
    alone = run_suite(seed, [(j, k)])
    walked = run_suite(seed, [(k,), (j, k)])
    assert walked.oracles["divisions"] == (3, 0)

    def at_jk(report):
        return [e for e in report.entries if e.sequence == (j + 1, k + 1)]

    assert at_jk(walked) == at_jk(alone)
    assert any(e.witness and e.witness.startswith("step 2") for e in at_jk(alone))


def _outside_the_exchange_key(seed, k):
    """Copies of seed that differ from it only where the exchange key of
    direction k does not look: one L entry not among the support of column
    k nor between k and the support, two entries of row k within one
    monomial moved so that its shift stays, or one variable off the
    support, X_k among them."""
    col = seed.bmat.column(k)
    supp = {i for i, b in enumerate(col) if b}
    rows = seed.lmat.rows
    for i, j in itertools.combinations(range(seed.k), 2):
        if not ({i, j} <= supp or (k in (i, j) and {i, j} - {k} <= supp)):
            yield flip_l(seed, i, j, rows[i][j] + 2)
    for sign in (1, -1):
        same = sorted(i for i in supp if sign * col[i] > 0)
        for i, j in zip(same, same[1:]):
            # the shift sum_i lambda_ki |b_ik| over the monomial stays
            moved = flip_l(seed, k, i, rows[k][i] + col[j])
            yield flip_l(moved, k, j, rows[k][j] - col[i])
    for i in range(seed.k):
        if i not in supp:
            yield _with_var(seed, i, seed.vars[i].v_shift(1))


@pytest.mark.parametrize("case", sorted(SEED_CASES))
def test_the_exchange_key_covers_what_the_exchange_terms_read(case):
    # the table shares the terms of two exchanges with one key, so nothing
    # that _exchange_terms reads may lie outside the key
    start = make_seed(case)
    seeds = [start] + [qca.mutate_seq(start, s) for n in (1, 2)
                       for s in itertools.product(start.ex, repeat=n)]
    walk = qca.checks._Walk(())
    for seed in seeds:
        for k in seed.ex:
            key, terms = walk._exchange_key(seed, k), _exchange_terms(seed, k)
            for variant in _outside_the_exchange_key(seed, k):
                assert walk._exchange_key(variant, k) == key
                assert _exchange_terms(variant, k) == terms


# sha256 of canonical_dumps(report_to_json(report, "x")) over
# default_sequences, (steps, evaluated), and the distinct exchanges whose
# terms the table computes, forward and back
SHARED_TERMS = {
    "a4": (a4_seed, 3, "05d1e5fa72d336de829cf97dbc2ddf1cbf019ba05047e8b6a5b5ffa664e4c78e",
           302, 216, 188),
    "wild": (_wild_seed, 4, "86d2657964bb80556070e7de0bf26a329c2036db1d9ca1a9173694d24cac0e41",
             352, 170, 172),
}


@pytest.mark.parametrize("name", sorted(SHARED_TERMS))
def test_the_exchange_terms_are_computed_once_per_distinct_key(monkeypatch, name):
    # a step's exchange and involutivity's exchange back from its child
    # read one terms entry; the report keeps its bytes
    make, depth, digest, steps, evaluated, distinct = SHARED_TERMS[name]
    seed = make()
    probe = qca.checks._Walk(())
    real = qca.checks._exchange_terms
    keys = []

    def counted(cur, k):
        keys.append(probe._exchange_key(cur, k))
        return real(cur, k)

    monkeypatch.setattr(qca.checks, "_exchange_terms", counted)
    report = run_suite(seed, default_sequences(seed, depth=depth))
    text = canonical_dumps(report_to_json(report, "x"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert (report.steps, report.evaluated) == (steps, evaluated)
    assert len(keys) == len(set(keys)) == report.oracles["terms"][0] == distinct
