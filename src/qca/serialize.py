"""Canonical JSON forms and atomic file writes.

All user-facing indices are 1-based; sentinels follow the display
convention (successor r + 1 and predecessor 0 mean "none").  Serialized
objects use sorted keys and deterministic list orders so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import chain
from json.encoder import encode_basestring_ascii

from .cartan import CartanDatum, Weight, WeylWord
from .checks import CheckReport
from .errors import as_int
from .gls import GLSData, QuiverArrows
from .seeds import BMatrix, QuantumSeed
from .torus import LMatrix, TorusElem

__all__ = [
    "canonical_dumps",
    "pretty_dumps",
    "atomic_write_text",
    "weight_to_json",
    "weight_from_json",
    "torus_to_json",
    "torus_from_json",
    "seed_to_json",
    "seed_for_dumps",
    "seed_from_json",
    "gls_block",
    "report_to_json",
]


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def pretty_dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) plus a newline, byte for byte.

    json only uses its C encoder when there is no indent, so this writes the
    indented form directly; what it does not know how to write (floats,
    tuples, subclasses, dicts with non-str keys) it hands to json.dumps.
    A TorusElem anywhere in obj is written as its torus_to_json would be,
    so seed_for_dumps needs no list of term dicts per variable.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


_INT = {int}
_LIST = {list}
_STR = {str}


def _write(o, nl: str, out: list) -> None:
    """Append the indented JSON of o; nl is a newline plus o's indent."""
    t = type(o)
    if t is list:
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        kinds = {*map(type, o)}
        # repr of a list of plain ints is "[1, -2]", so the JSON separators
        # are one replace away; bool and int subclasses never get here
        if kinds == _INT:
            out.append("[" + inner + repr(o)[1:-1].replace(", ", "," + inner) + nl + "]")
            return
        if kinds == _LIST and all(o) and {*map(type, chain.from_iterable(o))} == _INT:
            # non-empty rows of plain ints: "[[1, 2], [3]]"
            deeper = inner + "  "
            body = repr(o)[2:-2].replace("], [", inner + "]," + inner + "[" + deeper)
            out.append("[" + inner + "[" + deeper + body.replace(", ", "," + deeper)
                       + inner + "]" + nl + "]")
            return
        sep = "[" + inner
        for x in o:
            out.append(sep)
            sep = "," + inner
            _write(x, inner, out)
        out.append(nl + "]")
    elif t is dict and {*map(type, o)} <= _STR:
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(o):
            out.append(sep + encode_basestring_ascii(k) + ": ")
            sep = "," + inner
            _write(o[k], inner, out)
        out.append(nl + "}")
    elif t is int:
        out.append(int.__repr__(o))
    elif t is str:
        out.append(encode_basestring_ascii(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif t is TorusElem:
        _write_torus(o, nl, out)
    else:
        # json escapes every newline inside a string, so each one it emits
        # starts a line and takes o's indent
        out.append(json.dumps(o, sort_keys=True, indent=2).replace("\n", nl))


def _write_torus(x: TorusElem, nl: str, out: list) -> None:
    """Append the indented JSON of torus_to_json(x) without building it:
    one string per term, its coefficient pairs formatted in one join."""
    if not x.terms:
        out.append("[]")
        return
    i1 = nl + "  "  # a term
    i2 = i1 + "  "  # its keys
    i3 = i2 + "  "  # coefficient pairs and exponent entries
    i4 = i3 + "  "  # the two numbers of a pair
    pair_sep, num_sep, exp_sep = i3 + "]," + i3 + "[" + i4, "," + i4, "," + i3
    head = "{" + i2 + '"coeff": [' + i3 + "[" + i4
    mid = i3 + "]" + i2 + "]," + i2 + '"exp": '
    parts = []
    for a in sorted(x.terms):
        coeff = pair_sep.join([f"{e}{num_sep}{c}" for e, c in sorted(x.terms[a].items())])
        exp = "[" + i3 + exp_sep.join(map(str, a)) + i2 + "]" if a else "[]"
        parts.append(head + coeff + mid + exp + i1 + "}")
    out.append("[" + i1 + ("," + i1).join(parts) + nl + "]")


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory plus rename, so failed
    runs never leave partial output behind."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def weight_to_json(w: Weight) -> dict:
    return {"m": list(w.m), "c": list(w.c)}


def weight_from_json(obj) -> Weight:
    return Weight(tuple(map(as_int, obj["m"])), tuple(map(as_int, obj["c"])))


def torus_to_json(x: TorusElem) -> list:
    """List of {"exp": [...], "coeff": [[v_exp, int], ...]}, terms sorted
    lex by exponent, coefficient pairs sorted by v-exponent."""
    out = []
    for a in sorted(x.terms):
        cf = x.terms[a]
        out.append({
            "exp": list(a),
            "coeff": [[e, cf[e]] for e in sorted(cf)],
        })
    return out


def torus_from_json(ambient: LMatrix, data) -> TorusElem:
    """The TorusElem of a torus_to_json list.

    A value that is not a plain int, an exponent of the wrong length and a
    repeated v-exponent or exponent vector raise ValueError (a misshapen
    item KeyError or TypeError).  A zero coefficient entry is dropped, and
    a term left empty with it.  A pair's types are tested inline; as_int
    is called only to raise, naming the first bad value.
    """
    terms = {}
    for item in data:
        exp = tuple(map(as_int, item["exp"]))
        if len(exp) != ambient.k:
            raise ValueError("exponent length does not match torus rank")
        cf = {}
        for e, c in item["coeff"]:
            if type(e) is not int or type(c) is not int:
                as_int(e), as_int(c)
            if c:
                if e in cf:
                    raise ValueError("duplicate v-exponent in coefficient")
                cf[e] = c
        if not cf:
            continue
        if exp in terms:
            raise ValueError("duplicate exponent vector in torus element")
        terms[exp] = cf
    return TorusElem(ambient, terms, _trusted=True)  # checked above


def _matrix_to_json(rows) -> list:
    return [list(row) for row in rows]


def seed_to_json(seed: QuantumSeed) -> dict:
    """Current data plus the initial torus data needed to reload the seed."""
    obj = seed_for_dumps(seed)
    obj["vars"] = [torus_to_json(x) for x in seed.vars]
    return obj


def seed_for_dumps(seed: QuantumSeed) -> dict:
    """seed_to_json's dict with the variables left as TorusElem, which
    pretty_dumps writes byte for byte as it writes their torus_to_json."""
    obj = {
        "L": _matrix_to_json(seed.lmat.rows),
        "B": _matrix_to_json(seed.bmat.rows),
        "Kex": [k + 1 for k in seed.bmat.ex],
        "D": [weight_to_json(w) for w in seed.dvec],
        "vars": list(seed.vars),
        "history": [k + 1 for k in seed.history],
        "Linit": _matrix_to_json(seed.l_init.rows),
        "Dinit": [weight_to_json(w) for w in seed.d_init],
    }
    if seed.cartan is not None:
        obj["cartan"] = _matrix_to_json(seed.cartan.a)
    return obj


def seed_from_json(obj) -> QuantumSeed:
    """Structural inverse of seed_to_json.  Semantic validity (compatibility
    and friends) is deliberately not enforced here; the verify checks and
    mutation re-checks own that.  A history direction outside K_ex, which no
    mutation takes, is refused with ValueError, and so is a missing key."""
    if "normalization" in obj:
        raise ValueError(
            "normalized exports are display artifacts, not loadable seeds"
        )
    for key in ("Linit", "L", "Kex", "B", "D", "Dinit", "vars", "history"):
        if key not in obj:
            raise ValueError("seed file has no \"%s\" key" % key)
    l_init = LMatrix.from_rows(obj["Linit"])
    lmat = LMatrix.from_rows(obj["L"])
    ex = tuple(as_int(k) - 1 for k in obj["Kex"])
    bmat = BMatrix.from_rows(obj["B"], ex)
    dvec = tuple(weight_from_json(w) for w in obj["D"])
    d_init = tuple(weight_from_json(w) for w in obj["Dinit"])
    vars_ = tuple(torus_from_json(l_init, v) for v in obj["vars"])
    history = tuple(as_int(k) - 1 for k in obj["history"])
    # mutation only takes exchangeable directions, and K_ex never changes
    off = [k + 1 for k in history if k not in ex]
    if off:
        raise ValueError("history has non-exchangeable direction(s) %s" % off)
    cartan = None
    if "cartan" in obj:
        cartan = CartanDatum.from_rows(obj["cartan"])
    return QuantumSeed(
        l_init=l_init,
        d_init=d_init,
        lmat=lmat,
        bmat=bmat,
        dvec=dvec,
        vars=vars_,
        history=history,
        cartan=cartan,
    )


def gls_block(word: WeylWord, g: GLSData, quiver: QuiverArrows) -> dict:
    """The reduced-word combinatorics in display (1-based) convention."""
    r = g.r
    return {
        "word": list(word.to_one_based()),
        "succ": [s + 1 if s < r else r + 1 for s in g.succ],
        "pred": [s + 1 for s in g.pred],  # -1 -> 0 sentinel via +1
        "frozen": [s + 1 for s in g.frozen],
        "quiver": [[s + 1, t + 1, m] for s, t, m in quiver.arrows],
        "lambdaWeights": [weight_to_json(w) for w in g.lambda_wts],
        "d": [weight_to_json(w) for w in g.d],
    }


def report_to_json(report: CheckReport, engine_version: str) -> dict:
    """Deterministic report serialization; timings intentionally excluded."""
    entries = []
    for e in report.entries:
        entries.append({
            "check": e.check,
            "tier": e.tier,
            "sequence": list(e.sequence),
            "status": e.status,
            "witness": e.witness,
        })
    n_fail = sum(1 for e in report.entries if e.status == "fail")
    return {
        "engine": {"name": "qca", "version": engine_version},
        "meta": report.meta,
        "summary": {
            "pass": len(report.entries) - n_fail,
            "fail": n_fail,
        },
        "entries": entries,
    }
