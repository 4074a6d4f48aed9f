"""The command line interface, driven in process through cli.main."""

import argparse
import hashlib
import json
import os
import re
from pathlib import Path

import pytest

import qca
from qca.checks import ALL_CHECKS
from qca.cli import main
from qca.serialize import pretty_dumps, seed_from_json, seed_to_json, torus_to_json

from conftest import SEED_CASES, corrupt_a3, make_seed


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("QCA_CACHE_DIR", str(tmp_path / "cache"))


def write_input(tmp_path, rows, word):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"cartan": [list(r) for r in rows], "word": list(word)}))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def entry_text(entry, out):
    """The cache entry for stdout `out`: sha256 of (key, newline, out), then out."""
    digest = hashlib.sha256((entry.stem + "\n" + out).encode()).hexdigest()
    return digest + "\n" + out


def test_build_roundtrip(tmp_path, capsys):
    inp = write_input(tmp_path, *SEED_CASES["a2"])
    out = tmp_path / "seed.json"
    code, _, err = run(capsys, ["build", "--cartan", inp, "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert seed_from_json(data) == make_seed("a2")
    assert data["gls"]["word"] == [1, 2, 1]
    assert data["gls"]["frozen"] == [2, 3]
    assert "rank 2" in err


def test_build_analyzes_the_word_once(tmp_path, capsys, monkeypatch):
    # the seed and the printed gls block come from one analysis of the word
    calls = {"analyze_word": 0, "build_quiver": 0}

    def counted(name):
        fn = getattr(qca.gls, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        wrapper = counted(name)
        for module in (qca.gls, qca.cli):
            monkeypatch.setattr(module, name, wrapper, raising=False)
    inp = write_input(tmp_path, *SEED_CASES["a3"])
    code, out, _ = run(capsys, ["build", "--cartan", inp])
    assert code == 0 and json.loads(out)["gls"]["word"] == list(SEED_CASES["a3"][1])
    assert calls == {"analyze_word": 1, "build_quiver": 1}


def test_build_word_flag_overrides(tmp_path, capsys):
    inp = write_input(tmp_path, SEED_CASES["a2"][0], (1, 2, 1))
    code, out, _ = run(capsys, ["build", "--cartan", inp, "--word", "2,1,2"])
    assert code == 0
    assert json.loads(out)["gls"]["word"] == [2, 1, 2]


def test_build_rejects_non_reduced(tmp_path, capsys):
    inp = write_input(tmp_path, SEED_CASES["a2"][0], (1, 1))
    code, _, err = run(capsys, ["build", "--cartan", inp])
    assert code == 2
    assert "not reduced" in err


def test_build_rejects_bad_cartan(tmp_path, capsys):
    inp = write_input(tmp_path, ((2, 1), (1, 2)), (1, 2))
    code, _, err = run(capsys, ["build", "--cartan", inp])
    assert code == 2
    assert "Cartan entry sign error" in err


def test_build_rejects_missing_key(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"word": [1]}))
    code, _, err = run(capsys, ["build", "--cartan", str(path)])
    assert code == 2


def test_mutate_golden(tmp_path, capsys):
    inp = write_input(tmp_path, *SEED_CASES["a2"])
    code, out, _ = run(capsys, ["mutate", "--cartan", inp, "--seq", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["history"] == [1]
    assert data["vars"][0] == [
        {"exp": [-1, 0, 1], "coeff": [[0, 1]]},
        {"exp": [-1, 1, 0], "coeff": [[0, 1]]},
    ]
    assert seed_from_json(data) == qca.mutate(make_seed("a2"), 0)


def test_mutate_from_seed_file(tmp_path, capsys):
    seed_path = tmp_path / "seed.json"
    seed_path.write_text(json.dumps(seed_to_json(make_seed("a3"))))
    code, out, _ = run(
        capsys, ["mutate", "--seed", str(seed_path), "--seq", "1,2", "--no-cache"]
    )
    assert code == 0
    assert seed_from_json(json.loads(out)) == qca.mutate_seq(make_seed("a3"), (0, 1))


def test_mutate_cache_hit_is_identical(tmp_path, capsys):
    inp = write_input(tmp_path, *SEED_CASES["a2"])
    argv = ["mutate", "--cartan", inp, "--seq", "1,1,1"]
    code1, out1, err1 = run(capsys, argv)
    code2, out2, err2 = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "cache store" in err1
    assert "cache hit" in err2


def test_mutate_corrupt_cache_entry_is_a_miss(tmp_path, capsys):
    inp = write_input(tmp_path, *SEED_CASES["aff"])
    argv = ["mutate", "--cartan", inp, "--seq", "1,2,1"]
    code1, out1, _ = run(capsys, argv)
    assert code1 == 0
    (entry,) = (tmp_path / "cache").iterdir()
    entry.write_text(entry.read_text()[: len(out1) // 2])
    code2, out2, err2 = run(capsys, argv)
    assert code2 == 0
    assert out2 == out1
    evicted = [line for line in err2.splitlines() if "unreadable" in line]
    assert len(evicted) == 1
    assert str(tmp_path / "cache") in evicted[0]
    # the entry was recomputed and stored again, so the next run hits
    assert entry.read_text() == entry_text(entry, out1)
    code3, out3, err3 = run(capsys, argv)
    assert (code3, out3) == (0, out1)
    assert "cache hit" in err3


@pytest.mark.parametrize("damage", ["edited", "other_key", "headerless"])
def test_mutate_cache_entry_failing_its_digest_is_evicted(tmp_path, capsys, damage):
    # each damaged entry still holds a valid seed: one coefficient changed
    # from 1 to 5, another key's entry, or the output without its digest line
    inp = write_input(tmp_path, *SEED_CASES["a3"])
    argv = ["mutate", "--cartan", inp, "--seq", "1"]
    _, expected, _ = run(capsys, argv + ["--no-cache"])
    run(capsys, argv)
    cache = tmp_path / "cache"
    (entry,) = cache.iterdir()
    text = entry.read_text()
    assert text.endswith(expected)
    if damage == "edited":
        data = json.loads(expected)
        assert data["vars"][0][0]["coeff"] == [[0, 1]]
        data["vars"][0][0]["coeff"] = [[0, 5]]
        entry.write_text(text[: -len(expected)] + pretty_dumps(data))
    elif damage == "other_key":
        run(capsys, ["mutate", "--cartan", inp, "--seq", "2"])
        (other,) = set(cache.iterdir()) - {entry}
        entry.write_bytes(other.read_bytes())
    else:
        entry.write_text(expected)
    code, out, err = run(capsys, argv)
    assert (code, out) == (0, expected)
    assert len([line for line in err.splitlines() if "unreadable" in line]) == 1
    assert entry.read_text() == entry_text(entry, expected)
    code, out, err = run(capsys, argv)
    assert (code, out) == (0, expected)
    assert "cache hit" in err and "unreadable" not in err


def test_mutate_no_cache_skips_store(tmp_path, capsys):
    inp = write_input(tmp_path, *SEED_CASES["a2"])
    argv = ["mutate", "--cartan", inp, "--seq", "1", "--no-cache"]
    _, _, err1 = run(capsys, argv)
    _, _, err2 = run(capsys, argv)
    assert "cache" not in err1 and "cache" not in err2


@pytest.mark.parametrize("blocker", ["file_for_dir", "dir_for_entry"])
def test_mutate_survives_a_failed_cache_store(tmp_path, capsys, monkeypatch, blocker):
    # a regular file where the cache directory should be, or a directory
    # where the entry should be: the store fails, but the result is correct,
    # so it is still emitted with exit 0 and no temp file is left behind
    inp = write_input(tmp_path, *SEED_CASES["a2"])
    argv = ["mutate", "--cartan", inp, "--seq", "1"]
    _, expected, _ = run(capsys, argv + ["--no-cache"])
    cache = tmp_path / "cache"
    if blocker == "file_for_dir":
        cache.write_text("not a directory")
    else:
        run(capsys, argv)
        (entry,) = cache.iterdir()
        entry.unlink()
        entry.mkdir()

    def contents():
        return sorted(os.listdir(cache)) if cache.is_dir() else cache.read_text()

    before = contents()
    code, out, err = run(capsys, argv)
    assert (code, out) == (0, expected)
    assert "cache store failed (" in err and "); result not cached" in err
    assert contents() == before


def test_mutate_rejects_frozen_direction(tmp_path, capsys):
    inp = write_input(tmp_path, *SEED_CASES["a2"])
    code, _, err = run(capsys, ["mutate", "--cartan", inp, "--seq", "2"])
    assert code == 2
    assert "frozen" in err or "exchangeable" in err


def test_mutate_rejects_out_of_range(tmp_path, capsys):
    inp = write_input(tmp_path, *SEED_CASES["a2"])
    code, _, err = run(capsys, ["mutate", "--cartan", inp, "--seq", "9"])
    assert code == 2
    assert "direction 9 outside 1..3" in err
    assert not (tmp_path / "cache").exists()
    code, _, _ = run(capsys, ["mutate", "--cartan", inp, "--seq", "0"])
    assert code == 2


@pytest.mark.parametrize("argv", [["mutate", "--seq", "1"], ["verify", "--depth", "1"]],
                         ids=["mutate", "verify"])
@pytest.mark.parametrize("extra", [["--cartan", "CARTAN"], ["--word", "2,1,2"]],
                         ids=["cartan", "word"])
def test_a_seed_with_cartan_or_word_is_refused(tmp_path, capsys, monkeypatch, argv, extra):
    # a seed file holds its own matrix and word: either flag beside it is
    # refused before any file is read or any cache entry is looked up
    seed_path = tmp_path / "seed.json"
    seed_path.write_text(json.dumps(seed_to_json(make_seed("a2"))))
    inp = write_input(tmp_path, *SEED_CASES["aff"])
    extra = [inp if arg == "CARTAN" else arg for arg in extra]

    def refuse(*args, **kwargs):
        raise AssertionError("a file was opened")

    monkeypatch.setattr("builtins.open", refuse)
    code, out, err = run(capsys, [*argv, "--seed", str(seed_path), *extra])
    assert (code, out) == (2, "")
    assert "--seed and %s cannot be given together" % extra[0] in err
    assert not (tmp_path / "cache").exists()


def test_mutate_refuses_an_exploding_exchange(tmp_path, capsys):
    # on this wild rank-2 word the fourth step would raise a 19-term variable
    # to the power 55; the term bound refuses it before any product
    inp = write_input(tmp_path, ((2, -3), (-3, 2)), (1, 2, 1, 2, 1, 2))
    code, out, err = run(capsys, ["mutate", "--cartan", inp, "--seq", "3,4,3,2"])
    assert (code, out) == (2, "")
    assert "step 4" in err
    assert not (tmp_path / "cache").exists()
    code, _, _ = run(capsys, ["mutate", "--cartan", inp, "--seq", "3,4,3"])
    assert code == 0


def test_mutate_derives_each_exchange_once(tmp_path, capsys, monkeypatch):
    # the refusal is read from the product list that the step multiplies,
    # so 8 Kronecker steps derive 8 exchanges, not 16
    calls = []
    derive = qca.seeds._exchange_terms

    def counted(seed, k):
        calls.append(k)
        return derive(seed, k)

    monkeypatch.setattr(qca.seeds, "_exchange_terms", counted)
    seed = make_seed("aff")
    seq = ",".join(str(seed.ex[i % 2] + 1) for i in range(8))
    inp = write_input(tmp_path, *SEED_CASES["aff"])
    code, out, _ = run(capsys, ["mutate", "--no-cache", "--cartan", inp, "--seq", seq])
    assert code == 0 and json.loads(out)["history"] == [int(k) for k in seq.split(",")]
    assert len(calls) == 8


def test_mutate_cache_hit_builds_no_seed(tmp_path, capsys, monkeypatch):
    # the key comes from the file's bytes, --word and seq, and a hit checks
    # the entry's digest and emits its bytes, so it neither parses the input
    # nor builds a Cartan datum or a seed
    inp = write_input(tmp_path, *SEED_CASES["a3"])
    argv = ["mutate", "--cartan", inp, "--seq", "1,2"]
    code1, out1, err1 = run(capsys, argv)

    def refuse(*args):
        raise AssertionError("seed built or parsed on a cache hit")

    monkeypatch.setattr(qca.cli, "build_initial_seed", refuse)
    monkeypatch.setattr(qca.cli, "seed_from_json", refuse)
    monkeypatch.setattr(qca.cli, "_parse_json", refuse)
    monkeypatch.setattr(qca.cartan.CartanDatum, "from_rows", refuse)
    code2, out2, err2 = run(capsys, argv)
    assert (code1, code2) == (0, 0)
    assert out2 == out1
    assert "cache store" in err1 and "cache hit" in err2


def test_mutate_seed_cache_hit_parses_no_seed(tmp_path, capsys, monkeypatch):
    # a --seed key is the sha256 of the file's bytes plus the sequence, so
    # a hit reads the file but neither parses nor re-serializes it
    seed_path = tmp_path / "seed.json"
    seed_path.write_text(pretty_dumps(seed_to_json(make_seed("aff"))))
    argv = ["mutate", "--seed", str(seed_path), "--seq", "1,2"]
    code1, out1, err1 = run(capsys, argv)

    def refuse(*args):
        raise AssertionError("seed parsed on a cache hit")

    monkeypatch.setattr(qca.cli, "seed_from_json", refuse)
    code2, out2, err2 = run(capsys, argv)
    assert (code1, code2) == (0, 0)
    assert out2 == out1
    assert "cache store" in err1 and "cache hit" in err2


@pytest.mark.parametrize("edit", ["history", "variable"])
def test_mutate_seed_key_follows_the_file_bytes(tmp_path, capsys, edit):
    seed = make_seed("a3")
    original = tmp_path / "seed.json"
    original.write_text(pretty_dumps(seed_to_json(seed)))
    code1, out1, err1 = run(capsys, ["mutate", "--seed", str(original), "--seq", "1,2"])
    assert code1 == 0 and "cache store" in err1
    # the same seed re-indented is another key: a miss with the same output
    compact = tmp_path / "compact.json"
    compact.write_text(json.dumps(seed_to_json(seed)))
    code2, out2, err2 = run(capsys, ["mutate", "--seed", str(compact), "--seq", "1,2"])
    assert (code2, out2) == (0, out1)
    assert "cache store" in err2
    # an edited copy in the same layout never hits the original's entry
    data = seed_to_json(seed)
    if edit == "history":
        data["history"] = [1, 1]
    else:
        data["vars"] = seed_to_json(corrupt_a3())["vars"]
    edited = tmp_path / "edited.json"
    edited.write_text(pretty_dumps(data))
    code3, out3, err3 = run(capsys, ["mutate", "--seed", str(edited), "--seq", "1,2"])
    assert "cache hit" not in err3
    if edit == "history":
        assert code3 == 0 and "cache store" in err3
        assert json.loads(out3)["history"] == [1, 1, 1, 2]
        assert json.loads(out3)["vars"] == json.loads(out1)["vars"]
    else:
        assert (code3, out3) == (1, "")
        assert "q-commutation of variables (1, 6)" in err3


def test_mutate_cartan_key_follows_the_file_bytes(tmp_path, capsys):
    rows, word = SEED_CASES["a3"]
    original = write_input(tmp_path, rows, word)

    def fresh(argv):
        # the uncached result, then a cached run that must miss and agree
        _, expected, _ = run(capsys, argv + ["--no-cache"])
        code, out, err = run(capsys, argv)
        assert (code, out) == (0, expected)
        assert "cache store" in err and "cache hit" not in err
        return out

    out1 = fresh(["mutate", "--cartan", original, "--seq", "1,2"])
    # the same input re-indented is another key: a miss with the same output
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps({"cartan": [list(r) for r in rows], "word": list(word)},
                                   indent=2))
    assert fresh(["mutate", "--cartan", str(indented), "--seq", "1,2"]) == out1
    # another Cartan matrix in the same layout never hits the original's entry
    other = tmp_path / "other"
    other.mkdir()
    affine_a2 = write_input(other, ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)), word)
    assert fresh(["mutate", "--cartan", affine_a2, "--seq", "1,2"]) != out1
    # --word equal to the file's own word is a separate entry
    csv = ",".join(map(str, word))
    assert fresh(["mutate", "--cartan", original, "--word", csv, "--seq", "1,2"]) == out1
    # a built seed with a top-level word reads as a --seed file and as a
    # --cartan file: the same bytes and output, but two entries
    built = tmp_path / "built.json"
    assert main(["build", "--cartan", original, "--out", str(built)]) == 0
    data = json.loads(built.read_text())
    data["word"] = list(word)
    built.write_text(pretty_dumps(data))
    assert fresh(["mutate", "--seed", str(built), "--seq", "1,2"]) == out1
    assert fresh(["mutate", "--cartan", str(built), "--seq", "1,2"]) == out1
    assert len(list((tmp_path / "cache").iterdir())) == 6


def test_summary_trusts_a_certified_seed(tmp_path, capsys, monkeypatch):
    # build and a mutate miss print d = 2 off the certified seed; only an
    # uncertified seed read from a file is checked again
    def refuse(*args):
        raise AssertionError("compatibility re-checked for the summary")

    inp = write_input(tmp_path, *SEED_CASES["a3"])
    monkeypatch.setattr(qca.cli, "check_compatible", refuse)
    for argv in (["build", "--cartan", inp], ["mutate", "--cartan", inp, "--seq", "1"]):
        code, _, err = run(capsys, argv)
        assert code == 0
        assert "compatibility d = 2\n" in err
    inp = write_input(tmp_path, ((2,),), (1,))
    code, _, err = run(capsys, ["build", "--cartan", inp])
    assert code == 0
    assert "compatibility d = none (no exchangeable indices)" in err


def test_info_reports_an_incompatible_seed(tmp_path, capsys):
    data = seed_to_json(make_seed("a2"))
    assert data["Kex"] == [1]
    data["B"][2][0] += 1  # a frozen row: B stays valid, (L, B) does not
    seed_path = tmp_path / "bad.json"
    seed_path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["info", "--seed", str(seed_path)])
    assert (code, out) == (0, "")
    assert "compatibility d = INCOMPATIBLE (compatibility fails at (" in err


def test_mutate_rejects_non_reduced_word(tmp_path, capsys):
    inp = write_input(tmp_path, SEED_CASES["a2"][0], (1, 1))
    code, out, err = run(capsys, ["mutate", "--cartan", inp, "--seq", "1"])
    assert code == 2 and out == ""
    assert "not reduced" in err


@pytest.mark.parametrize("zero", [0, 1])
def test_zero_cluster_variable_is_refused(tmp_path, capsys, zero):
    # variable 1 is the exchangeable direction of A2, variable 2 is frozen
    js = seed_to_json(make_seed("a2"))
    js["vars"][zero] = []
    seed_path = tmp_path / "z.json"
    seed_path.write_text(json.dumps(js))
    for argv in (["mutate", "--seed", str(seed_path), "--seq", "1"],
                 ["verify", "--seed", str(seed_path), "--depth", "1"]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert "cluster variable %d is zero" % (zero + 1) in err


@pytest.mark.parametrize("argv", [["verify", "--depth", "1"], ["mutate", "--seq", "1"],
                                  ["export", "--global-basis-normalization"]],
                         ids=["verify", "mutate", "export"])
@pytest.mark.parametrize("misfit", ["one_longer", "all_longer", "all_shorter"])
def test_weights_of_mismatched_length_are_refused(tmp_path, capsys, misfit, argv):
    # A2 has Cartan rank 2: one D weight a coordinate longer than the rest,
    # every D and Dinit weight one longer, or every one shorter
    js = seed_to_json(make_seed("a2"))
    for key in ("D", "Dinit"):
        for pos, w in enumerate(js[key]):
            if misfit == "all_shorter":
                js[key][pos] = {"m": w["m"][:-1], "c": w["c"][:-1]}
            elif misfit == "all_longer" or (key, pos) == ("D", 0):
                js[key][pos] = {"m": w["m"] + [0], "c": w["c"] + [0]}
    seed_path = tmp_path / "w.json"
    seed_path.write_text(json.dumps(js))
    code, out, err = run(capsys, [argv[0], "--seed", str(seed_path), *argv[1:]])
    assert code == 2 and out == ""
    assert "D weights must all have one length" in err


def test_non_integer_json_numbers_are_refused(tmp_path, capsys):
    inp = write_input(tmp_path, ((2, -1.5), (-1.5, 2)), (1, 2, 1))
    code, out, err = run(capsys, ["build", "--cartan", inp])
    assert code == 2 and out == ""
    assert "non-integer number -1.5 in JSON input" in err
    js = seed_to_json(make_seed("a2"))
    js["L"][0][1], js["L"][1][0] = -0.5, 0.5
    seed_path = tmp_path / "half.json"
    seed_path.write_text(json.dumps(js))
    code, out, err = run(capsys, ["verify", "--seed", str(seed_path), "--depth", "1"])
    assert code == 2 and out == ""
    assert "non-integer number -0.5 in JSON input" in err


@pytest.mark.parametrize("argv", [["verify", "--depth", "1"], ["mutate", "--seq", "1"],
                                  ["export"]], ids=["verify", "mutate", "export"])
@pytest.mark.parametrize("col, value", [(1, "-1"), (2, True)], ids=["string", "bool"])
def test_json_booleans_and_numeric_strings_are_refused(tmp_path, capsys, argv, col, value):
    # A2: L[0][1] = -1 and L[0][2] = 1, so int() would read the same seed
    js = seed_to_json(make_seed("a2"))
    js["L"][0][col] = value
    seed_path = tmp_path / "typed.json"
    seed_path.write_text(json.dumps(js))
    code, out, err = run(capsys, [argv[0], "--seed", str(seed_path), *argv[1:]])
    assert code == 2 and out == ""
    assert "expected an integer, got %r" % (value,) in err


@pytest.mark.parametrize("key", ["cartan", "word"])
def test_json_booleans_in_cartan_input_are_refused(tmp_path, capsys, key):
    rows, word = [list(r) for r in SEED_CASES["a2"][0]], list(SEED_CASES["a2"][1])
    if key == "cartan":
        rows[0][0] = "2"
    else:
        word[0] = True
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"cartan": rows, "word": word}))
    code, out, err = run(capsys, ["build", "--cartan", str(path)])
    assert code == 2 and out == ""
    assert "expected an integer, got" in err


def test_mutate_refuses_a_seed_file_that_fails_q_commutation(tmp_path, capsys):
    seed_path = tmp_path / "bad.json"
    seed_path.write_text(json.dumps(seed_to_json(corrupt_a3())))
    code, out, err = run(capsys, ["mutate", "--seed", str(seed_path), "--seq", "1"])
    assert code == 1 and out == ""
    assert "q-commutation of variables (1, 6)" in err


def test_verify_passes(tmp_path, capsys):
    inp = write_input(tmp_path, *SEED_CASES["a2"])
    code, out, err = run(capsys, ["verify", "--cartan", inp, "--depth", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["fail"] == 0
    assert report["summary"]["pass"] > 0
    for name in qca.ALL_CHECKS:
        assert ("%s: pass" % name) in err
    # every sequence is a power of the one direction: mu_1 mu_1 = id
    assert "6 steps, 2 evaluated" in err


def test_verify_summary_counts_the_oracle_table(tmp_path, capsys):
    # the counters go to stderr only: stdout is the report's bytes
    inp = write_input(tmp_path, *SEED_CASES["a3"])
    code, out, err = run(capsys, ["verify", "--cartan", inp, "--depth", "2"])
    assert code == 0
    seed = make_seed("a3")
    rows, word = SEED_CASES["a3"]
    report = qca.run_suite(seed, qca.default_sequences(seed, depth=2),
                           meta={"depth": 2, "rng_seed": 0,
                                 "cartan": [list(r) for r in rows], "word": list(word)})
    assert out == pretty_dumps(qca.serialize.report_to_json(report, qca.__version__))
    oracles = ", ".join("%s %d/%d" % (name, *n) for name, n in report.oracles.items())
    assert oracles.startswith("pairs ") and ", terms " in oracles and ", divisions " in oracles
    assert re.fullmatch(r"total \d+\.\d\ds, %d steps, %d evaluated; oracles "
                        r"computed/reused: %s" % (report.steps, report.evaluated, oracles),
                        err.splitlines()[-1])


def test_verify_report_names_its_input(tmp_path, capsys):
    # the Kronecker and the wild rank-2 word give the same entries at depth
    # 4, so only the meta's Cartan rows tell the two reports apart
    reports = []
    for rows in (((2, -2), (-2, 2)), ((2, -3), (-3, 2))):
        inp = write_input(tmp_path, rows, (2, 1))
        code, out, _ = run(capsys, ["verify", "--cartan", inp, "--word", "1,2,1,2",
                                    "--depth", "4"])
        assert code == 0
        reports.append(json.loads(out))
        assert reports[-1]["meta"]["cartan"] == [list(r) for r in rows]
        assert reports[-1]["meta"]["word"] == [1, 2, 1, 2]
    kron, wild = reports
    assert kron != wild
    del kron["meta"]["cartan"], wild["meta"]["cartan"]
    assert kron == wild
    # a seed file is named by the sha256 of its bytes, as the mutate cache keys it
    seed_path = tmp_path / "seed.json"
    seed_path.write_text(pretty_dumps(seed_to_json(make_seed("a2"))))
    code, out, _ = run(capsys, ["verify", "--seed", str(seed_path), "--depth", "1"])
    assert code == 0
    meta = json.loads(out)["meta"]
    assert meta["seed_sha256"] == hashlib.sha256(seed_path.read_bytes()).hexdigest()
    assert "cartan" not in meta and "word" not in meta


def test_verify_subset_of_checks(tmp_path, capsys):
    inp = write_input(tmp_path, *SEED_CASES["a2"])
    code, out, _ = run(
        capsys,
        ["verify", "--cartan", inp, "--checks", "compatible,laurent", "--depth", "2"],
    )
    assert code == 0
    names = {e["check"] for e in json.loads(out)["entries"]}
    assert names == {"compatible", "laurent"}


def test_verify_fails_on_corrupted_seed(tmp_path, capsys):
    js = seed_to_json(make_seed("a2"))
    rows = js["L"]
    rows[0][1], rows[1][0] = 1, -1
    seed_path = tmp_path / "bad.json"
    seed_path.write_text(json.dumps(js))
    code, _, err = run(capsys, ["verify", "--seed", str(seed_path), "--depth", "2"])
    assert code == 1
    assert "compatible: FAIL" in err


def test_verify_unknown_check(tmp_path, capsys):
    inp = write_input(tmp_path, *SEED_CASES["a2"])
    code, _, err = run(capsys, ["verify", "--cartan", inp, "--checks", "bogus"])
    assert code == 2
    assert "bogus" in err


@pytest.mark.parametrize("spelling", ["", " , "])
def test_verify_refuses_an_empty_check_selection(tmp_path, capsys, monkeypatch, spelling):
    # refused before any step, instead of running every check or none
    monkeypatch.setattr(qca.checks, "_evaluate_step", None)
    inp = write_input(tmp_path, *SEED_CASES["a2"])
    code, out, err = run(capsys, ["verify", "--cartan", inp, "--checks", spelling])
    assert (code, out) == (2, "")
    assert "no checks selected" in err


@pytest.mark.parametrize("argv", [["mutate", "--seq", "1", "--no-cache"], ["info"]])
def test_a_seed_with_an_impossible_history_is_refused(tmp_path, capsys, argv):
    # mutation only takes exchangeable directions: A2's K_ex is {1}
    js = seed_to_json(make_seed("a2"))
    js["history"] = [99, 1, -5]
    seed_path = tmp_path / "seed.json"
    seed_path.write_text(json.dumps(js))
    code, out, err = run(capsys, [argv[0], "--seed", str(seed_path), *argv[1:]])
    assert (code, out) == (2, "")
    assert "history has non-exchangeable direction(s) [99, -5]" in err


def _names_after(text, lead):
    # the comma-separated check names that follow lead, across line breaks
    tail = " ".join(text.split()).split(lead, 1)[1]
    return tuple(re.match(r" *(\w+(?:, \w+)*)", tail).group(1).split(", "))


def test_every_check_is_documented_in_order(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert _names_after(readme, "`--checks` selects a subset of:") == ALL_CHECKS
    code, out, _ = run(capsys, ["verify", "--help"])
    assert code == 0
    assert _names_after(out, "CSV subset of:") == ALL_CHECKS


def test_verify_refuses_explosive_depth(tmp_path, capsys):
    # the enumeration size is computed before anything is enumerated:
    # 2^64 Kronecker sequences, or 64 * 65 / 2 * 10^3 directions on A2's
    # single exchangeable direction, are refused at once with exit 2
    kron = write_input(tmp_path, *SEED_CASES["aff"])
    code, out, err = run(capsys, ["verify", "--cartan", kron, "--depth", "64"])
    assert code == 2 and out == ""
    assert "enumerates more than" in err
    a2 = write_input(tmp_path, *SEED_CASES["a2"])
    code, _, err = run(capsys, ["verify", "--cartan", a2, "--depth", "2000"])
    assert code == 2 and "enumerates more than" in err
    code, _, err = run(capsys, ["verify", "--cartan", a2, "--depth", "-1"])
    assert code == 2 and "depth" in err


def test_verify_refuses_an_exploding_exchange(tmp_path, capsys, monkeypatch):
    # the wild rank-2 word of test_mutate_refuses_an_exploding_exchange: a
    # random sequence reaches the step that would raise a 19-term variable to
    # the power 55; run_suite refuses it before any product and reports the
    # sequences through it as not evaluated, keeping the rest of the report
    pow_ = qca.TorusElem.pow

    def guarded(x, n):
        if n >= 20 and len(x.terms) >= 10:
            raise AssertionError("power %d of a %d-term variable" % (n, len(x.terms)))
        return pow_(x, n)

    monkeypatch.setattr(qca.TorusElem, "pow", guarded)
    inp = write_input(tmp_path, ((2, -3), (-3, 2)), (1, 2, 1, 2, 1, 2))
    code, out, err = run(capsys, ["verify", "--cartan", inp, "--depth", "0"])
    assert code == 1
    entries = json.loads(out)["entries"]
    refused = [e for e in entries if e["status"] == "fail"]
    assert refused and all(
        e["witness"].startswith("not evaluated: step 4 (direction ")
        and "exchange numerator could have up to" in e["witness"] for e in refused)
    assert all(e["status"] == "pass" for e in entries if e["sequence"] == [])
    assert {e["witness"] for e in refused if e["sequence"][:4] == [2, 3, 2, 1]} == {
        "not evaluated: step 4 (direction 1): the exchange numerator could have "
        "up to 62359599116 terms, over the limit of 1000000"}
    assert "exchange numerator" in err and "step 4" in err


def test_export_roundtrip(tmp_path, capsys):
    seed_path = tmp_path / "seed.json"
    seed_path.write_text(json.dumps(seed_to_json(make_seed("a2"))))
    code, out, _ = run(capsys, ["export", "--seed", str(seed_path)])
    assert code == 0
    data = json.loads(out)
    assert "normalization" not in data
    assert seed_from_json(data) == make_seed("a2")


def test_export_global_basis_normalization(tmp_path, capsys):
    seed_path = tmp_path / "seed.json"
    seed_path.write_text(json.dumps(seed_to_json(make_seed("a2"))))
    code, out, _ = run(
        capsys, ["export", "--seed", str(seed_path), "--global-basis-normalization"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["normalization"] == "global-basis"
    # (d_1, d_1) = (alpha_1, alpha_1) = 2, so X_1 picks up v^-1
    assert data["vars"][0] == [{"exp": [1, 0, 0], "coeff": [[-1, 1]]}]
    # normalized exports are display artifacts and refuse re-import
    reload_path = tmp_path / "norm.json"
    reload_path.write_text(json.dumps(data))
    code3, _, err3 = run(capsys, ["mutate", "--seed", str(reload_path), "--seq", "1"])
    assert code3 == 2
    assert "normaliz" in err3


def test_export_bytes_are_json_dumps(tmp_path, capsys):
    # export writes the variables straight from the seed; its bytes are
    # those of json.dumps on the torus_to_json form
    seed = qca.mutate_seq(make_seed("aff"), (0, 1, 0, 1))
    seed_path = tmp_path / "seed.json"
    seed_path.write_text(json.dumps(seed_to_json(seed)))
    expected = seed_to_json(seed)
    code, out, _ = run(capsys, ["export", "--seed", str(seed_path)])
    assert (code, out) == (0, json.dumps(expected, sort_keys=True, indent=2) + "\n")
    expected["vars"] = [
        torus_to_json(x.v_shift(-qca.pair_weight_root(seed.cartan, w, w) // 2))
        for x, w in zip(seed.vars, seed.dvec)
    ]
    expected["normalization"] = "global-basis"
    code, out, _ = run(
        capsys, ["export", "--seed", str(seed_path), "--global-basis-normalization"])
    assert (code, out) == (0, json.dumps(expected, sort_keys=True, indent=2) + "\n")


def test_info(tmp_path, capsys):
    # stdout stays reserved for JSON artifacts; info talks on stderr
    code, out, err = run(capsys, ["info"])
    assert code == 0
    assert out == ""
    assert qca.__version__ in err
    assert "arithmetic" in err and "packed" in err
    seed_path = tmp_path / "seed.json"
    seed_path.write_text(json.dumps(seed_to_json(make_seed("aff"))))
    code, _, err = run(capsys, ["info", "--seed", str(seed_path)])
    assert code == 0
    assert "4" in err


def test_info_reports_cache_usage(tmp_path, capsys):
    code, _, err = run(capsys, ["info"])
    assert code == 0 and "cache: 0 entries, 0 bytes" in err  # no directory yet
    inp = write_input(tmp_path, *SEED_CASES["a2"])
    for seq in ("1", "1,1"):
        code, _, _ = run(capsys, ["mutate", "--cartan", inp, "--seq", seq])
        assert code == 0
    cache = tmp_path / "cache"
    n_bytes = sum(p.stat().st_size for p in cache.iterdir())
    (cache / ".tmp-unfinished.json").write_text("{")  # an interrupted write
    code, _, err = run(capsys, ["info"])
    assert code == 0
    assert "cache: 2 entries, %d bytes" % n_bytes in err


def test_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, ["build", "--cartan", str(tmp_path / "nope.json")])
    assert code == 2


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["build", "--cartan", str(path)])
    assert code == 2


def test_the_parser_is_built_once_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    # main reuses one parser per process; a failed parse, --help and each
    # subcommand's flags must leave nothing behind for the next call
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    qca.cli._build_parser.cache_clear()
    inp = write_input(tmp_path, *SEED_CASES["a2"])
    code, out, err = run(capsys, ["info", "--bogus-flag"])
    assert (code, out) == (2, "") and "unrecognized arguments: --bogus-flag" in err
    code1, help1, _ = run(capsys, ["--help"])
    code2, help2, _ = run(capsys, ["--help"])
    assert (code1, code2) == (0, 0) and help1 == help2 and help1.startswith("usage: qca")
    expected = pretty_dumps(seed_to_json(qca.mutate(make_seed("a2"), 0)))
    argv = ["mutate", "--cartan", inp, "--seq", "1"]
    code, out, _ = run(capsys, argv + ["--no-cache"])
    assert (code, out) == (0, expected)
    assert not (tmp_path / "cache").exists()
    code, out, err = run(capsys, argv)  # --no-cache must not carry over
    assert (code, out) == (0, expected) and "cache store" in err
    assert len(os.listdir(tmp_path / "cache")) == 1
    code, out, _ = run(capsys, ["verify", "--cartan", inp, "--depth", "1"])
    report = json.loads(out)
    assert code == 0 and report["summary"]["fail"] == 0
    assert (report["meta"]["depth"], report["meta"]["rng_seed"]) == (1, 0)
    # the root parser and one per subcommand: build, mutate, verify, export, info
    assert len(built) == 6


def test_argparse_exit_codes(capsys):
    # main converts argparse exits into plain return codes
    assert main(["--help"]) == 0
    assert main(["build", "--bogus-flag"]) == 2
    assert main(["mutate"]) == 2  # --seq is required
    capsys.readouterr()


def test_readme_quotes_the_oracle_counts_that_verify_prints(tmp_path, capsys):
    # README quotes the stderr summary of A4's longest word at depth 3
    rows = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))
    inp = write_input(tmp_path, rows, (1, 2, 1, 3, 2, 1, 4, 3, 2, 1))
    code, _, err = run(capsys, ["verify", "--cartan", inp, "--depth", "3"])
    assert code == 0
    line = err.splitlines()[-1]
    assert "302 steps, 216 evaluated; " in line
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    assert "`%s`" % line.split("; ", 1)[1] in readme
