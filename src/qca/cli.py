"""Command-line interface.

Subcommands: build, mutate, verify, export, info.  JSON results go to
--out (atomic write) or stdout; human summaries go to stderr.  Exit codes:
0 all good, 1 a verified identity or mutation invariant failed, 2 bad
input / parse / IO / unknown names, a word longer than gls.MAX_WORD_LENGTH,
or a mutate step whose exchange numerator could exceed
seeds.MAX_EXCHANGE_TERMS terms, or has a product of more than
seeds.MAX_EXCHANGE_TERMS factors counted with their powers.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys

from . import __version__
from .cartan import CartanDatum, WeylWord, pair_weight_root
from .checks import ALL_CHECKS, default_sequences, run_suite
from .errors import (
    EngineInvariantError,
    IncompatibleError,
    NotDivisibleError,
    NotReducedError,
)
from .gls import MAX_WORD_LENGTH, _assemble, build_initial_seed
from .seeds import check_compatible, mutate
from .serialize import (
    atomic_write_text,
    canonical_dumps,
    gls_block,
    pretty_dumps,
    report_to_json,
    seed_for_dumps,
    seed_from_json,
)

CACHE_ENV = "QCA_CACHE_DIR"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _say(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _parse_csv_ints(text: str, what: str) -> tuple[int, ...]:
    """The integers of a comma-separated list; a blank text is the empty
    list, and an empty field anywhere else is refused."""
    if not text.strip():
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError("%s must be a comma-separated integer list" % what)


def _refuse_non_integer(text: str):
    raise ValueError("non-integer number %s in JSON input" % text)


def _parse_json(text: str):
    # the loaders refuse any non-int; this names the offending number
    return json.loads(text, parse_float=_refuse_non_integer,
                      parse_constant=_refuse_non_integer)


def _load_json(path: str):
    with open(path) as fh:
        return _parse_json(fh.read())


def _word_letters(args) -> tuple[int, ...] | None:
    """The --word list, or None when the word is to come from the file."""
    return _parse_csv_ints(args.word, "--word") if args.word is not None else None


def _cartan_word(obj, args) -> tuple[CartanDatum, WeylWord]:
    """The Cartan datum and reduced word of a parsed --cartan file: the word
    of --word if given, else of the file's "word" key.  A word longer than
    gls.MAX_WORD_LENGTH is refused before anything is built from it."""
    if "cartan" not in obj:
        raise ValueError("input file has no \"cartan\" key")
    cartan = CartanDatum.from_rows(obj["cartan"])
    letters = _word_letters(args)
    if letters is None:
        if "word" not in obj:
            raise ValueError("no word given (pass --word or a \"word\" key)")
        letters = obj["word"]
    word = WeylWord.from_one_based(letters)
    if word.r > MAX_WORD_LENGTH:
        raise ValueError("word of length %d is longer than the limit of %d letters"
                         % (word.r, MAX_WORD_LENGTH))
    word.validate(cartan)
    return cartan, word


def _read_input(args) -> tuple[str, bytes]:
    """The kind of input, "seed" or "cartan", and the bytes of its file.
    A seed file holds its own matrix and word, so --seed with --cartan or
    --word is refused before any file is read."""
    for flag in ("cartan", "word"):
        if args.seed and getattr(args, flag) is not None:
            raise ValueError("--seed and --%s cannot be given together" % flag)
    source = "seed" if args.seed else "cartan"
    if not getattr(args, source):
        raise ValueError("pass --seed PATH, or --cartan PATH (with --word)")
    with open(getattr(args, source), "rb") as fh:
        return source, fh.read()


def _start_seed(args, source: str, data: bytes):
    """The seed that a --seed file holds or a --cartan file builds, and the
    report meta naming that input: the sha256 of a seed file's bytes (the
    identity that the mutate cache keys), or the Cartan rows and word."""
    obj = _parse_json(data.decode("utf-8"))
    if source == "seed":
        return seed_from_json(obj), {"seed_sha256": hashlib.sha256(data).hexdigest()}
    cartan, word = _cartan_word(obj, args)
    return build_initial_seed(cartan, word), {
        "cartan": [list(r) for r in cartan.a], "word": list(word.to_one_based())}


def _seed_summary(seed) -> None:
    try:
        if seed._certified:  # built or mutated: compatible of degree 2 already
            d_val = 2 if seed.ex else None
        else:
            d_val = check_compatible(seed.lmat, seed.bmat)
        d_txt = str(d_val) if d_val is not None else "none (no exchangeable indices)"
    except IncompatibleError as e:
        d_txt = "INCOMPATIBLE (%s)" % e
    _say("indices %d, exchangeable %d, frozen %d, history %s"
         % (seed.k, len(seed.ex), seed.k - len(seed.ex),
            [k + 1 for k in seed.history]))
    _say("compatibility d = %s" % d_txt)


def cmd_build(args) -> int:
    cartan, word = _cartan_word(_load_json(args.cartan), args)
    seed, g, quiver = _assemble(cartan, word)
    obj = seed_for_dumps(seed)
    obj["gls"] = gls_block(word, g, quiver)
    _emit(pretty_dumps(obj), args.out)
    _say("rank %d, word length %d" % (cartan.n, word.r))
    _seed_summary(seed)
    _say("parity ok, weight balance ok, q-commutation ok, homogeneity ok")
    return 0


def _cache_dir() -> str:
    return os.environ.get(CACHE_ENV) or os.path.join(
        os.path.expanduser("~"), ".cache", "qca"
    )


def _cache_usage(path: str) -> tuple[int, int]:
    """(entries, total bytes) of the result cache; (0, 0) if it is missing."""
    try:
        with os.scandir(path) as it:
            sizes = [e.stat().st_size for e in it
                     if e.name.endswith(".json") and not e.name.startswith(".")]
    except (FileNotFoundError, NotADirectoryError):
        return 0, 0
    return len(sizes), sum(sizes)


def _cache_key(payload: dict) -> str:
    payload = dict(payload)
    payload["engine"] = __version__
    return hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()


def _entry_digest(key: str, body: bytes) -> str:
    """The first line of a cache entry: the hex sha256 of the key, a newline
    and the body, which is the exact output bytes that follow that line."""
    return hashlib.sha256(key.encode() + b"\n" + body).hexdigest()


def _check_directions(seq, n: int) -> None:
    for k in seq:
        if not 1 <= k <= n:
            raise ValueError("direction %d outside 1..%d" % (k, n))


def cmd_mutate(args) -> int:
    seq = _parse_csv_ints(args.seq, "--seq")
    source, data = _read_input(args)
    # the key names the input by the sha256 of its bytes, so a hit parses no
    # JSON and builds no seed.  An entry exists only if a miss on these very
    # inputs succeeded, so a hit needs no direction check either.
    key_payload = {source + "_sha256": hashlib.sha256(data).hexdigest(), "seq": seq}
    if source == "cartan":
        key_payload["word"] = _word_letters(args)

    key = _cache_key(key_payload)
    cache_path = os.path.join(_cache_dir(), key + ".json")
    if not args.no_cache:
        try:
            with open(cache_path, "rb") as fh:
                header, _, body = fh.read().partition(b"\n")
            if header != _entry_digest(key, body).encode():
                raise ValueError("header does not match the key and body")
        except FileNotFoundError:
            pass
        except (OSError, ValueError) as e:
            # an entry that cannot be read or fails its digest (edited,
            # truncated, headerless or another key's) is a miss, never an error
            _say("cache entry %s in %s is unreadable (%s: %s); evicted"
                 % (key[:16], _cache_dir(), type(e).__name__, e))
            with contextlib.suppress(OSError):
                os.remove(cache_path)
        else:
            _emit(body.decode("ascii"), args.out)
            _say("cache hit %s" % key[:16])
            return 0

    start, _ = _start_seed(args, source, data)
    _check_directions(seq, start.k)
    result = start
    for step, k in enumerate(seq, 1):
        result = mutate(result, k - 1, _refusal=lambda witness: ValueError(
            "step %d (direction %d): %s" % (step, k, witness)))
    text = pretty_dumps(seed_for_dumps(result))
    if not args.no_cache:
        try:
            os.makedirs(_cache_dir(), exist_ok=True)
            atomic_write_text(cache_path, _entry_digest(key, text.encode()) + "\n" + text)
        except OSError as e:
            # the result is correct; an unusable cache only loses the entry
            _say("cache store failed (%s); result not cached" % e)
        else:
            _say("cache store %s" % key[:16])
    _emit(text, args.out)
    _seed_summary(result)
    return 0


def cmd_verify(args) -> int:
    source, data = _read_input(args)
    seed, named = _start_seed(args, source, data)
    checks = None
    if args.checks is not None:
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    sequences = default_sequences(seed, depth=args.depth, rng_seed=args.rng_seed)
    report = run_suite(
        seed,
        sequences,
        checks=checks,
        meta={"depth": args.depth, "rng_seed": args.rng_seed, **named},
    )
    _emit(pretty_dumps(report_to_json(report, __version__)), args.out)
    by_check: dict = {}
    for e in report.entries:
        by_check.setdefault(e.check, []).append(e)
    for name, ents in by_check.items():
        n_fail = sum(1 for e in ents if e.status == "fail")
        if n_fail:
            first = next(e for e in ents if e.status == "fail")
            _say("%s: FAIL (%d of %d; first witness: %s)"
                 % (name, n_fail, len(ents), first.witness))
        else:
            _say("%s: pass (%d entries)" % (name, len(ents)))
    _say("total %.2fs, %d steps, %d evaluated; oracles computed/reused: %s"
         % (report.timings.get("total", 0.0), report.steps, report.evaluated,
            ", ".join("%s %d/%d" % (name, *n) for name, n in report.oracles.items())))
    return 0 if report.passed else 1


def cmd_export(args) -> int:
    seed = seed_from_json(_load_json(args.seed))
    obj = seed_for_dumps(seed)
    if args.global_basis_normalization:
        if seed.cartan is None:
            raise ValueError("normalization needs a seed carrying its Cartan datum")
        rescaled = []
        for i, x in enumerate(seed.vars):
            w = seed.dvec[i]
            if not w.is_root_lattice():
                raise ValueError(
                    "normalization needs root-lattice D entries (index %d)" % (i + 1)
                )
            norm = pair_weight_root(seed.cartan, w, w)
            if norm % 2:
                raise ValueError("(d_i, d_i) is odd at index %d" % (i + 1))
            rescaled.append(x.v_shift(-norm // 2))
        obj["vars"] = rescaled
        obj["normalization"] = "global-basis"
    _emit(pretty_dumps(obj), args.out)
    _say("exported %d variables%s" % (
        seed.k, " (global-basis normalized)" if args.global_basis_normalization else ""))
    return 0


def cmd_info(args) -> int:
    _say("qca %s" % __version__)
    _say("arithmetic: python; Z[v^+-1] coefficients packed into integers "
         "(Kronecker substitution, digit width from a proven L1 bound)")
    _say("cache dir: %s" % _cache_dir())
    n_entries, n_bytes = _cache_usage(_cache_dir())
    _say("cache: %d entries, %d bytes" % (n_entries, n_bytes))
    if getattr(args, "seed", None):
        seed = seed_from_json(_load_json(args.seed))
        _seed_summary(seed)
    return 0


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The root parser and each subcommand's own parser by name, built once
    per process; main never changes them."""
    p = argparse.ArgumentParser(
        prog="qca",
        description="Exact quantum cluster algebra engine "
                    "(GLS initial seeds, torus mutation, identity checks)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="initial seed from a Cartan matrix and reduced word")
    b.add_argument("--cartan", required=True, help="JSON file with a \"cartan\" key")
    b.add_argument("--word", help="reduced word, 1-based CSV (else \"word\" key)")
    b.add_argument("--out", help="write JSON here instead of stdout")
    b.set_defaults(func=cmd_build)

    m = sub.add_parser("mutate", help="apply a mutation sequence")
    m.add_argument("--seed", help="seed JSON file")
    m.add_argument("--cartan", help="JSON file with a \"cartan\" key")
    m.add_argument("--word", help="reduced word, 1-based CSV")
    m.add_argument("--seq", required=True, help="mutation directions, 1-based CSV")
    m.add_argument("--out", help="write JSON here instead of stdout")
    m.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    m.set_defaults(func=cmd_mutate)

    v = sub.add_parser("verify", help="run identity checks over mutation sequences")
    v.add_argument("--seed", help="seed JSON file")
    v.add_argument("--cartan", help="JSON file with a \"cartan\" key")
    v.add_argument("--word", help="reduced word, 1-based CSV")
    v.add_argument("--checks", help="CSV subset of: %s" % ", ".join(ALL_CHECKS))
    v.add_argument("--depth", type=int, default=4,
                   help="enumerate all sequences up to this length (default 4)")
    v.add_argument("--rng-seed", type=int, default=0,
                   help="seed for the random sequence sample (default 0)")
    v.add_argument("--out", help="write the JSON report here instead of stdout")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("export", help="re-emit a seed's variables as JSON")
    e.add_argument("--seed", required=True, help="seed JSON file")
    e.add_argument("--global-basis-normalization", action="store_true",
                   help="rescale each variable by v^(-(d_i, d_i)/2)")
    e.add_argument("--out", help="write JSON here instead of stdout")
    e.set_defaults(func=cmd_export)

    i = sub.add_parser("info", help="engine and environment information")
    i.add_argument("--seed", help="seed JSON file to summarize")
    i.set_defaults(func=cmd_info)

    return p, sub.choices


def main(argv=None) -> int:
    """Run one command on argv (sys.argv[1:] when None); return its exit code.

    An argv that names a command is parsed once, by that command's own
    parser.  The root parser would run argparse twice on it, its own parse
    and then the subcommand's parse of the rest, which more than doubles
    what a mutate cache hit spends in argparse.  Any other argv (none, -h,
    an unknown command, a leading --) goes to the root parser, whose parse
    of it ends in its help or a usage error.
    """
    parser, commands = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        if argv and argv[0] in commands:
            args = commands[argv[0]].parse_args(argv[1:])
            args.command = argv[0]
        else:
            args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad usage, 0 on --help; keep its codes
        return int(e.code or 0)
    try:
        return args.func(args)
    except (EngineInvariantError, NotDivisibleError, IncompatibleError) as e:
        _say("invariant failure: %s" % e)
        return 1
    except NotReducedError as e:
        _say("error: %s" % e)
        return 2
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as e:
        _say("error: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
