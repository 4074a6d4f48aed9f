"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Writes perfbench/data/digests.json (sha256 of each output the workloads
check) and the stored Kronecker seeds that cli_cache exports.  Every output
is produced through `qca.cli.main` without the cache, so the digests are of
the bytes `qca verify`, `qca mutate` and `qca export` print.  Run it only
at a commit whose outputs are known to be right: a later change that alters
any of these bytes then shows up as a failed operation in the benchmark.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import sys
import tempfile

from run import OUT, import_qca


# finite_verify reports are recorded for seeds 0..FINITE_SEEDS-1; other
# seeds are checked against the all-pass report oracle only
FINITE_SEEDS = 32


def main() -> int:
    import_qca()
    import workloads as w

    os.makedirs(w.DATA, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="record-", dir=OUT)
    try:
        files = {}
        for fam, (rows, word, _) in w.FAMILIES.items():
            files[fam] = os.path.join(tmp, fam + ".json")
            with open(files[fam], "w") as fh:
                json.dump({"cartan": [list(r) for r in rows], "word": list(word)}, fh)

        def stdout(argv):
            code, out, err, _ = w.call_cli(argv)
            if code != 0:
                raise SystemExit("record: %s exited %d: %s" % (argv, code, err))
            return out

        finite = {}
        for s in range(FINITE_SEEDS):
            finite[str(s)] = w.sha256(stdout(
                ["verify", "--cartan", files["a4"], "--depth", str(w.VERIFY_DEPTH),
                 "--rng-seed", str(s)]))

        kron = w.build_seed(w.KRONECKER, w.KRONECKER_WORD)
        affine = {}
        cli = {}
        for first in (1, 2):
            seq = [k + 1 for k in w.chain_directions(kron.ex, kron.ex[first - 1],
                                                     w.CHAIN_STEPS)]
            affine[str(first)] = w.sha256(stdout(
                ["mutate", "--no-cache", "--cartan", files["kron"],
                 "--seq", ",".join(map(str, seq))]))
            for f, steps in w.STORED_SEEDS:
                if f != first:
                    continue
                text = stdout(["mutate", "--no-cache", "--cartan", files["kron"],
                               "--seq", ",".join(map(str, seq[:steps]))])
                name = w.stored_seed_name(first, steps)
                path = os.path.join(w.DATA, name + ".json.gz")
                with gzip.GzipFile(path, "wb", compresslevel=9, mtime=0) as fh:
                    fh.write(text.encode())
                plain = os.path.join(tmp, name + ".json")
                with open(plain, "w") as fh:
                    fh.write(text)
                cli[name] = w.sha256(stdout(["export", "--seed", plain]))

        for fam, (rows, word, max_len) in w.FAMILIES.items():
            ex = [k + 1 for k in w.build_seed(rows, word).ex]
            for length in range(1, max_len + 1):
                for seq in w.reduced_sequences(ex, length):
                    key = w.mutate_key(fam, seq)
                    cli[key] = w.sha256(stdout(
                        ["mutate", "--no-cache", "--cartan", files[fam],
                         "--seq", key.split(":")[1]]))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    digests = {"finite_verify": finite, "affine_chain": affine, "cli_cache": cli}
    with open(os.path.join(w.DATA, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("recorded %d finite_verify, %d affine_chain and %d cli_cache digests"
          % (len(finite), len(affine), len(cli)), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
