"""JSON serialization: canonical forms, round trips, refusal rules."""

import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qca
from qca.cartan import Weight
from qca.checks import default_sequences, run_suite
from qca.errors import as_int
from qca.gls import analyze_word, build_quiver
from qca.serialize import (
    atomic_write_text,
    canonical_dumps,
    gls_block,
    pretty_dumps,
    report_to_json,
    seed_for_dumps,
    seed_from_json,
    seed_to_json,
    torus_from_json,
    torus_to_json,
    weight_from_json,
    weight_to_json,
)
from qca.torus import LMatrix, TorusElem

from conftest import SEED_CASES, corrupt_a3, make_seed


def test_canonical_dumps_is_sorted_and_compact():
    s = canonical_dumps({"b": 1, "a": [1, 2]})
    assert s == '{"a":[1,2],"b":1}'
    assert canonical_dumps({"a": 1, "b": 2}) == canonical_dumps({"b": 2, "a": 1})


def test_pretty_dumps_stable():
    s = pretty_dumps({"b": 1, "a": 2})
    assert s.endswith("\n")
    assert s.index('"a"') < s.index('"b"')
    assert json.loads(s) == {"a": 2, "b": 1}


def json_oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


TRICKY = ('"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028",
          "\U0001f600", "\ud800", "], [", ", ")
ints = st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-2**64)
texts = st.text() | st.lists(st.sampled_from(TRICKY)).map("".join)
# lists of int rows, empty rows and bools included, reach the writer's row
# path; floats, tuples and int keys reach its hand-off to json.dumps
json_trees = st.recursive(
    st.none() | st.booleans() | ints | texts | st.floats(),
    lambda kids: (st.lists(kids) | st.lists(st.lists(ints | st.booleans()))
                  | st.dictionaries(texts, kids) | st.lists(kids).map(tuple)
                  | st.dictionaries(st.integers(), kids)),
    max_leaves=20,
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(json_trees)
@example([[-1, 2**70], [3]])
@example([[1], []])
@example([[]])
@example([[1, True], [2]])
@example([1, False])
@example({"b": [[0, 1]], "a": {"": None, "2": 1.5}, "c": {3: "x", -1: (True,)}})
def test_pretty_dumps_is_json_dumps(obj):
    assert pretty_dumps(obj) == json_oracle(obj)


@pytest.mark.parametrize("key", sorted(SEED_CASES))
def test_pretty_dumps_is_json_dumps_on_qca_output(key):
    # qca build output with its gls block, and a mutated seed
    rows, letters = SEED_CASES[key]
    cartan = qca.CartanDatum.from_rows(rows)
    word = qca.WeylWord.from_one_based(letters)
    g = analyze_word(cartan, word)
    seed = make_seed(key)
    built = seed_to_json(seed)
    built["gls"] = gls_block(word, g, build_quiver(cartan, g))
    mutated = seed_to_json(qca.mutate(seed, seed.bmat.ex[-1]))
    for obj in (built, mutated):
        assert pretty_dumps(obj) == json_oracle(obj)


def test_pretty_dumps_is_json_dumps_on_a_failing_report():
    seed = corrupt_a3()
    report = run_suite(seed, default_sequences(seed, depth=1),
                       meta={"depth": 1, "rng_seed": 0})
    assert not report.passed
    obj = report_to_json(report, qca.__version__)
    assert pretty_dumps(obj) == json_oracle(obj)


def test_atomic_write(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_text(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    atomic_write_text(str(target), "replaced\n")
    assert target.read_text() == "replaced\n"
    assert os.listdir(tmp_path) == ["out.json"]


def test_weight_roundtrip():
    w = Weight((1, -2), (0, 3))
    assert weight_from_json(weight_to_json(w)) == w
    assert weight_to_json(w) == {"m": [1, -2], "c": [0, 3]}


def test_seed_roundtrip_initial_and_mutated():
    for key in SEED_CASES:
        seed = make_seed(key)
        again = seed_from_json(seed_to_json(seed))
        assert again == seed
        assert again.cartan == seed.cartan
        assert again.history == seed.history
        if seed.bmat.ex:
            m = qca.mutate_seq(seed, (seed.bmat.ex[0], seed.bmat.ex[0]))
            m2 = seed_from_json(seed_to_json(m))
            assert m2 == m and m2.history == m.history
            deep = qca.mutate(seed, seed.bmat.ex[-1])
            assert seed_from_json(seed_to_json(deep)) == deep


def test_seed_json_uses_one_based_indices():
    seed = make_seed("a2")
    js = seed_to_json(seed)
    assert js["Kex"] == [1]
    m = qca.mutate(seed, 0)
    assert seed_to_json(m)["history"] == [1]


def test_seed_json_bytes_are_stable():
    a = pretty_dumps(seed_to_json(make_seed("a3")))
    b = pretty_dumps(seed_to_json(make_seed("a3")))
    assert a == b


def test_seed_from_json_refuses_normalized_exports():
    js = seed_to_json(make_seed("a2"))
    js["normalization"] = "global-basis"
    with pytest.raises(ValueError, match="normaliz"):
        seed_from_json(js)


def test_seed_from_json_validates():
    js = seed_to_json(make_seed("a2"))
    js["L"][0][1] = 5  # breaks skew-symmetry
    with pytest.raises(ValueError):
        seed_from_json(js)


def test_gls_block_conventions():
    c = qca.CartanDatum.from_rows(SEED_CASES["a2"][0])
    w = qca.WeylWord.from_one_based((1, 2, 1))
    g = analyze_word(c, w)
    blk = gls_block(w, g, build_quiver(c, g))
    assert blk["word"] == [1, 2, 1]
    # positions are 1-based; succ past the end is r+1, missing pred is 0
    assert blk["succ"] == [3, 4, 4]
    assert blk["pred"] == [0, 0, 1]
    assert blk["frozen"] == [2, 3]
    assert blk["quiver"] == [[1, 2, 1], [3, 1, 1]]
    assert blk["lambdaWeights"][0] == {"m": [1, 0], "c": [1, 0]}
    assert blk["d"][2] == {"m": [0, 0], "c": [1, 1]}


def test_torus_json_in_seed_is_ordered():
    js = seed_to_json(make_seed("a3"))
    for var in js["vars"]:
        exps = [item["exp"] for item in var]
        assert exps == sorted(exps)


def test_seed_for_dumps_writes_seed_to_json_bytes():
    # the fixture seeds, one step on, and a 9-step Kronecker chain whose
    # variables reach dozens of terms with wide coefficients
    seeds = [make_seed(key) for key in sorted(SEED_CASES)]
    seeds += [qca.mutate(s, s.bmat.ex[-1]) for s in seeds if s.bmat.ex]
    seeds.append(qca.mutate_seq(make_seed("aff"), (0, 1) * 4 + (0,)))
    assert max(len(x.terms) for x in seeds[-1].vars) > 20
    for seed in seeds:
        assert pretty_dumps(seed_for_dumps(seed)) == json_oracle(seed_to_json(seed))


TORUS_L = LMatrix.from_rows([[0, 1, -2], [-1, 0, 3], [2, -3, 0]])
torus_elems = st.dictionaries(
    st.tuples(*[st.integers(-5, 5)] * 3),
    st.dictionaries(st.integers(-40, 40),
                    st.integers(-2**70, 2**70).filter(bool), min_size=1, max_size=40),
    max_size=6,
).map(lambda terms: TorusElem(TORUS_L, terms))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(torus_elems)
def test_pretty_dumps_writes_a_torus_elem_as_its_json(x):
    for obj, as_json in ((x, torus_to_json(x)),
                         ({"vars": [x, x], "k": 3}, {"vars": [torus_to_json(x)] * 2, "k": 3})):
        assert pretty_dumps(obj) == json_oracle(as_json)


def torus_from_json_by_pairs(ambient, data):
    """The reference loader: as_int on every value, one pair at a time."""
    terms = {}
    for item in data:
        exp = tuple(map(as_int, item["exp"]))
        if len(exp) != ambient.k:
            raise ValueError("exponent length does not match torus rank")
        cf = {}
        for e, c in item["coeff"]:
            e, c = as_int(e), as_int(c)
            if c:
                if e in cf:
                    raise ValueError("duplicate v-exponent in coefficient")
                cf[e] = c
        if not cf:
            continue
        if exp in terms:
            raise ValueError("duplicate exponent vector in torus element")
        terms[exp] = cf
    return TorusElem(ambient, terms, _trusted=True)


def load_outcome(loader, data):
    try:
        x = loader(TORUS_L, data)
    except Exception as e:
        return type(e), str(e)
    return x.terms


# small ranges make repeated exponents and zero coefficients common
json_ints = st.integers(-2, 2)
json_values = json_ints | st.booleans() | st.sampled_from(["1", "x", None, 2**70])
json_pairs = (st.tuples(json_ints, json_ints).map(list)
              | st.lists(json_values, max_size=3) | json_ints)
json_terms = st.fixed_dictionaries({
    "exp": st.lists(json_ints, min_size=3, max_size=3)
    | st.lists(json_values, min_size=2, max_size=4),
    "coeff": st.lists(json_pairs, max_size=4),
}) | st.just({"exp": [0, 0, 0]}) | st.just([0, 0, 0])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(json_terms, max_size=4))
@example([{"exp": [0, 0, 0], "coeff": [[1, 0], [1, 5]]}])
@example([{"exp": [0, 0, 0], "coeff": [[1, 5], [1, 0]]}])
@example([{"exp": [0, 0, 0], "coeff": [[1, 2], [1, 3]]}])
@example([{"exp": [0, 0, 0], "coeff": [[1, 0], [2, 0]]},
          {"exp": [0, 0, 0], "coeff": [[0, 1]]}])
@example([{"exp": [0, 0, 0], "coeff": [[0, 1]]}, {"exp": [0, 0, 0], "coeff": [[0, 1]]}])
@example([{"exp": [True, 0, 0], "coeff": [[0, 1]]}])
@example([{"exp": [0, 0, 0], "coeff": [[0, True]]}])
@example([{"exp": [0, 0, 0], "coeff": [[0, "1"]]}])
@example([{"exp": [0, 0], "coeff": [[0, 1]]}])
@example([{"exp": [0, 0, 0, 0], "coeff": [[0, 1]]}])
@example([{"exp": [0, 0, 0], "coeff": [[0]]}])
@example([{"exp": [0, 0, 0], "coeff": [[0, 1, 2]]}])
@example([{"exp": [0, 0, 0], "coeff": [[0, 1], [1, 1, 1], [2, "x"]]}])
def test_torus_from_json_agrees_with_the_pairwise_loader(data):
    assert load_outcome(torus_from_json, data) == load_outcome(torus_from_json_by_pairs, data)
