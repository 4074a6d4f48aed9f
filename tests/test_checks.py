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
from qca.classical import ClassicalSeed, classical_mutate, classical_shadow
from qca.serialize import canonical_dumps, report_to_json
from qca.torus import LMatrix, PackedSum, TorusElem, exact_left_div, q_commute_exponent, qc_v

from conftest import SEED_CASES, a4_seed, exchange_reference, make_seed


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


def test_a_string_check_selection_is_refused(a2_seed):
    # iterated, "compatible" would be a selection of its letters
    with pytest.raises(ValueError, match="^checks must be a list of names, not the string "
                                         "'compatible'$"):
        run_suite(a2_seed, [(0,)], checks="compatible")


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
    "v_shifted": ("43668230c71b09075b1862b5aaed89f17d2fb757640aa7bbef67f75b0e907335", 6, 2),
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
    # X_1, the variable direction 1 exchanges, is not bar-invariant
    "v_shifted": lambda a2: _with_var(a2, 0, a2.vars[0].scaled(qc_v(1))),
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
    # each step's exchange and each of involutivity's exchanges back looks
    # up terms once, keyed by the product list of one derivation, and a
    # division miss takes its numerator from that look-up: 216 + 216 on
    # this tree.  The size bound of a step reads the list of its look-up,
    # so no exchange is derived anywhere else
    seed = a4_seed()
    real = qca.seeds._exchange_terms
    calls = []

    def counted(cur, k):
        calls.append(k)
        return real(cur, k)

    monkeypatch.setattr(qca.checks, "_exchange_terms", counted)
    monkeypatch.setattr(qca.seeds, "_exchange_terms", counted)
    report = run_suite(seed, default_sequences(seed, depth=3, rng_seed=0))
    assert len(calls) == sum(report.oracles["terms"]) == 432


def test_a_step_from_equal_matrices_and_weights_is_reused():
    # L, B~, the D weights and the shadow's rows enter the steps key by
    # the id of the first equal one met, so distinct objects with equal
    # content still hit
    seed = a4_seed()
    shadow = classical_shadow(seed)
    walk = qca.checks._Walk(())
    k = seed.ex[0]
    first = walk.step(seed, shadow, k)
    copy = replace(seed, lmat=LMatrix(seed.lmat.rows), bmat=qca.BMatrix(seed.bmat.rows, seed.ex),
                   dvec=tuple(Weight(w.m, w.c) for w in seed.dvec))
    cs_copy = replace(shadow, rows=tuple(tuple(list(r)) for r in shadow.rows))
    assert copy.lmat is not seed.lmat and copy.bmat is not seed.bmat
    assert all(a is not b for a, b in zip(copy.dvec, seed.dvec))
    assert cs_copy.rows is not shadow.rows
    assert walk.step(copy, cs_copy, k) is first
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
    # variables by content, 352 unordered ones: a pair whose reverse is
    # stored is answered from it.  A second call computes them all again
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
        assert len(calls) == len({frozenset(c) for c in calls}) == 352
    first, second = reports
    assert first.oracles == second.oracles == {
        "pairs": (352, 1637), "terms": (152, 280),
        "divisions": (76, 140), "products": (72, 360), "shadows": (110, 106)}
    assert canonical_dumps(report_to_json(first, "x")) == canonical_dumps(
        report_to_json(second, "x"))


def _answered_by_reverse(monkeypatch, method, entry):
    """{key: [(x, y, answer), ...]} of the look-ups by _Walk.<method> on
    A4's longest word at depth 3 that the table answered from the reversed
    key, which it stores under key, so that no later look-up of key goes
    back to the reverse."""
    real = getattr(qca.checks._Walk, method)
    answered = {}

    def recorded(walk, x, y):
        table = walk._tables[entry]
        key = (walk._id(x), walk._id(y))
        from_reverse = key not in table and key[::-1] in table
        got = real(walk, x, y)
        if from_reverse:
            assert table[key] is got
            answered.setdefault(key, []).append((x, y, got))
        return got

    monkeypatch.setattr(qca.checks._Walk, method, recorded)
    seed = a4_seed()
    assert run_suite(seed, default_sequences(seed, depth=3, rng_seed=0)).passed
    return answered


def test_a_pair_answered_from_its_reverse_is_its_own_exponent(monkeypatch):
    # y x = q^-gamma x y, so the table answers (x, y) from a stored (y, x)
    answered = _answered_by_reverse(monkeypatch, "q_commute_exponent", "pairs")
    # 128 keys whose reverse is stored, each answered from it once
    assert len(answered) == 480 - 352
    assert sum(map(len, answered.values())) == 128
    assert all(got == q_commute_exponent(x, y)
               for looked_up in answered.values() for x, y, got in looked_up)


def test_a_product_answered_by_bar_is_the_product(monkeypatch):
    # bar is an anti-automorphism: y x = bar(x y) for bar-invariant x, y
    answered = _answered_by_reverse(monkeypatch, "product", "products")
    assert len(answered) == 144 - 72
    assert sum(map(len, answered.values())) == 72
    assert all(got == x * y for looked_up in answered.values() for x, y, got in looked_up)


@pytest.mark.parametrize("key, depth", [("a4", 3), ("aff", 5)])
def test_a_division_proved_by_involutivity_is_the_quotient(monkeypatch, key, depth):
    # X'_k X_k = N_b and the torus is a domain, so the X_k that involutivity
    # stores is exact_left_div(X'_k, N_b); the back steps read it
    seed = a4_seed() if key == "a4" else make_seed(key)
    proved, read = {}, []
    store, lookup = qca.checks._Walk.proved_division, qca.checks._Walk._lookup

    def recorded_store(walk, terms_key, den, quotient):
        key = (terms_key, walk._id(den))
        if key not in walk._tables["divisions"]:
            proved[key] = (den, walk._tables["terms"][terms_key], quotient)
        store(walk, terms_key, den, quotient)

    def recorded_lookup(walk, entry, key, *args):
        if entry == "divisions" and key in proved:
            read.append(key)
        return lookup(walk, entry, key, *args)

    monkeypatch.setattr(qca.checks._Walk, "proved_division", recorded_store)
    monkeypatch.setattr(qca.checks._Walk, "_lookup", recorded_lookup)
    assert run_suite(seed, default_sequences(seed, depth=depth)).passed
    assert read
    for den, num, quotient in proved.values():
        assert exact_left_div(den, num) == quotient


def test_a_shadow_exchange_read_from_the_table_is_classical_mutate(monkeypatch):
    # the shadows entry keys the q = 1 exchange by ((x_i, b_ik), x_k): a
    # child built from a stored new variable is classical_mutate's own
    real = qca.checks._Walk.shadow
    read = []

    def recorded(walk, cs, k):
        reused = walk.counts["shadows"][1]
        child = real(walk, cs, k)
        if walk.counts["shadows"][1] > reused:
            read.append(child == classical_mutate(cs, k))
        return child

    monkeypatch.setattr(qca.checks._Walk, "shadow", recorded)
    seed = a4_seed()
    report = run_suite(seed, default_sequences(seed, depth=3, rng_seed=0))
    assert report.passed and all(read)
    assert len(read) == report.oracles["shadows"][1] > 0


def test_a_shadow_exchange_is_keyed_by_each_b_ik():
    # one x_k and the same x_2, x_3 in column k, with other signs or sizes
    # of b_2k, b_3k: x_2 + x_3, x_2 x_3 + 1 and x_2^2 x_3 + 1 over x_1
    gens = tuple({tuple(int(i == j) for j in range(3)): 1} for i in range(3))
    walk = qca.checks._Walk(())
    for column in ((1, 1), (1, -1), (2, -1), (1, 1)):
        cs = ClassicalSeed(rows=((0,), *((b,) for b in column)), ex=(0,), vars=gens)
        assert walk.shadow(cs, 0) == classical_mutate(cs, 0)
    assert walk.counts["shadows"] == [3, 1]


def test_a_pair_that_does_not_q_commute_stays_none_both_ways(a2_seed):
    # X_1 + v X_2 q-commutes neither with X_3 (settled by the torus
    # relation) nor with the new variable of direction 1 (by products)
    shifted = a2_seed.vars[0] + a2_seed.vars[1].scaled(qc_v(1))
    for other in (a2_seed.vars[2], qca.mutate(a2_seed, 0).vars[0]):
        assert q_commute_exponent(shifted, other) is q_commute_exponent(other, shifted) is None
        walk = qca.checks._Walk(())
        assert walk.q_commute_exponent(shifted, other) is None
        assert walk.q_commute_exponent(other, shifted) is None
        assert walk.counts["pairs"] == [1, 1]


def test_a_product_with_an_operand_off_bar_is_multiplied(a2_seed):
    # v X_1 is not bar-invariant, so X_2 (v X_1) is not bar((v X_1) X_2):
    # both orders are multiplied, whichever comes first.  So are X_1 X'_1
    # and X'_1 X_1 in the v_shifted report, pinned in FAILING_REPORTS
    shifted, other = a2_seed.vars[0].scaled(qc_v(1)), a2_seed.vars[1]
    for x, y in ((shifted, other), (other, shifted)):
        walk = qca.checks._Walk(())
        assert walk.product(x, y) == x * y
        assert walk.product(y, x) == y * x != (x * y).bar()
        assert walk.counts["products"] == [2, 0]
    bad = FAILING_SEEDS["v_shifted"](a2_seed)
    assert run_suite(bad, default_sequences(bad)).oracles["products"] == (2, 2)


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
    """Copies of seed whose exchange in direction k has the product list of
    seed's: one L entry neither within one monomial nor between k and the
    support of column k (an entry between an index of M' and one of M''
    among them), two entries of row k within one monomial moved so that
    its shift stays, an entry within one monomial and one of row k moved
    so that its v-power t stays, or one variable off the support, X_k
    among them."""
    col = seed.bmat.column(k)
    supp = {i for i, b in enumerate(col) if b}
    rows = seed.lmat.rows
    for i, j in itertools.combinations(range(seed.k), 2):
        if col[i] * col[j] <= 0 and not (k in (i, j) and {i, j} - {k} <= supp):
            yield flip_l(seed, i, j, rows[i][j] + 2)
    for sign in (1, -1):
        same = sorted(i for i in supp if sign * col[i] > 0)
        for i, j in zip(same, same[1:]):
            # the shift sum_i lambda_ki |b_ik| over the monomial stays
            moved = flip_l(seed, k, i, rows[k][i] + col[j])
            yield flip_l(moved, k, j, rows[k][j] - col[i])
            # the prefactor gains 2 |b_ik b_jk| from lambda_ji, and the
            # shift loses it from lambda_ki
            moved = flip_l(seed, j, i, rows[j][i] + 2)
            yield flip_l(moved, k, i, rows[k][i] - 2 * abs(col[j]))
    for i in range(seed.k):
        if i not in supp:
            yield _with_var(seed, i, seed.vars[i].v_shift(1))


@pytest.mark.parametrize("case", sorted(SEED_CASES))
def test_the_exchange_key_covers_what_the_exchange_terms_read(case):
    # the table shares the numerator of two exchanges with one product
    # list, so every copy that keeps the list must get the stored numerator,
    # and it must be that copy's own, with that copy's exponents and shifts
    start = make_seed(case)
    seeds = [start] + [qca.mutate_seq(start, s) for n in (1, 2)
                       for s in itertools.product(start.ex, repeat=n)]
    walk = qca.checks._Walk(())
    for seed in seeds:
        for k in seed.ex:
            key, (*_, num) = walk.terms(seed, k)
            for variant in _outside_the_exchange_key(seed, k):
                variant_key, (*head, variant_num) = walk.terms(variant, k)
                assert variant_key == key and variant_num is num
                assert (*head, num[0], num[1]) == exchange_reference(variant, k)


# sha256 of canonical_dumps(report_to_json(report, "x")) over
# default_sequences, (steps, evaluated), and the distinct product lists
# whose numerators the table computes, forward and back
SHARED_TERMS = {
    "a4": (a4_seed, 3, "05d1e5fa72d336de829cf97dbc2ddf1cbf019ba05047e8b6a5b5ffa664e4c78e",
           302, 216, 152),
    "wild": (_wild_seed, 4, "86d2657964bb80556070e7de0bf26a329c2036db1d9ca1a9173694d24cac0e41",
             352, 170, 140),
}


@pytest.mark.parametrize("name", sorted(SHARED_TERMS))
def test_the_exchange_terms_are_computed_once_per_distinct_key(monkeypatch, name):
    # exchanges with one product list, by the content of its factors, read
    # one terms entry, whatever their direction; the report keeps its
    # bytes, and every numerator that run_suite divides is a PackedSum, as
    # mutate's is
    make, depth, digest, steps, evaluated, distinct = SHARED_TERMS[name]
    seed = make()
    real_terms, real_parts = qca.checks._exchange_terms, qca.checks.exchange_parts
    real_size = qca.checks._size_witness
    keys, refused, forms = [], [], []

    def content_key(prods):
        return tuple((t, tuple((_content(x), c) for x, c in factors)) for t, factors in prods)

    def counted(cur, k):
        terms = real_terms(cur, k)
        keys.append(content_key(terms[4]))
        return terms

    def sized(prods):
        refusal = real_size(prods)
        if refusal:
            refused.append(content_key(prods))
        return refusal

    def divided(cur, k, terms=None):
        forms.append(isinstance(terms[4], PackedSum))
        return real_parts(cur, k, terms)

    monkeypatch.setattr(qca.checks, "_exchange_terms", counted)
    monkeypatch.setattr(qca.checks, "exchange_parts", divided)
    monkeypatch.setattr(qca.checks, "_size_witness", sized)
    report = run_suite(seed, default_sequences(seed, depth=depth))
    text = canonical_dumps(report_to_json(report, "x"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert (report.steps, report.evaluated) == (steps, evaluated)
    # a refused step derives its exchange for the size bound alone
    assert len(keys) == sum(report.oracles["terms"]) + len(refused)
    assert len(set(keys) - set(refused)) == report.oracles["terms"][0] == distinct
    assert len(forms) == report.oracles["divisions"][0] and all(forms)
    assert all(forms)
