"""The initial quantum seed attached to a reduced word (GLS construction).

Given a symmetric Cartan datum and a reduced word (i_1, ..., i_r), positions
1..r index the initial cluster.  The combinatorics below produce, in exact
integer arithmetic:

- successor / predecessor positions with the same letter (s_+, s_-),
- the frozen set {s : s_+ = r + 1},
- the weights lambda_s = s_{i_1} ... s_{i_s}(varpi_{i_s}) and
  d_s = lambda_s - varpi_{i_s} (each d_s lies in the root lattice),
- the seed quiver, its exchange matrix B~, and the skew form
  lambda_{s,t} = (lambda_s + varpi_{i_s}, d_t) for s >= t,

and assemble the initial QuantumSeed, asserting the three integer
conditions that make it a valid compatible pair of degree 2: the
compatibility equation itself, the parity congruence
lambda_{ij} = (d_i, d_j) mod 2, and the column weight balance
sum_i b_ik d_i = 0.

Positions are 0-based internally; serialization restores the 1-based
convention (with s_+ = r + 1 and s_- = 0 as "none" sentinels).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .cartan import (
    CartanDatum,
    Weight,
    WeylWord,
    check_reduced,
    pair_weight_root,
    weyl_apply,
)
from .errors import EngineInvariantError
from .seeds import BMatrix, QuantumSeed, balance_witness, parity_witness
from .torus import LMatrix

__all__ = [
    "GLSData",
    "QuiverArrows",
    "analyze_word",
    "build_quiver",
    "quiver_to_b",
    "lambda_matrix",
    "build_initial_seed",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GLSData:
    """Combinatorial data of a reduced word.

    succ[s] is the next position with the same letter (value r = none),
    pred[s] the previous one (-1 = none), last_before[s][j] the largest
    position < s carrying letter j (-1 = none).  frozen lists the positions
    without a successor.
    """

    word: WeylWord
    succ: tuple[int, ...]
    pred: tuple[int, ...]
    last_before: tuple[tuple[int, ...], ...]
    frozen: tuple[int, ...]
    lambda_wts: tuple[Weight, ...]
    d: tuple[Weight, ...]

    @property
    def r(self) -> int:
        return self.word.r

    @property
    def exchangeable(self) -> tuple[int, ...]:
        fr = set(self.frozen)
        return tuple(s for s in range(self.r) if s not in fr)


def analyze_word(cartan: CartanDatum, word: WeylWord) -> GLSData:
    """Combinatorics and weights of a reduced word; NotReducedError otherwise."""
    word.validate(cartan)
    check_reduced(cartan, word)
    letters = word.letters
    r = len(letters)

    succ = []
    for s in range(r):
        nxt = r
        for t in range(s + 1, r):
            if letters[t] == letters[s]:
                nxt = t
                break
        succ.append(nxt)
    pred = []
    last_before = []
    for s in range(r):
        row = []
        for j in range(cartan.n):
            prv = -1
            for t in range(s - 1, -1, -1):
                if letters[t] == j:
                    prv = t
                    break
            row.append(prv)
        last_before.append(tuple(row))
        pred.append(row[letters[s]])
    frozen = tuple(s for s in range(r) if succ[s] == r)

    lambda_wts = []
    d = []
    for s in range(r):
        lam = weyl_apply(
            cartan, WeylWord(letters[: s + 1]), Weight.fundamental(cartan.n, letters[s])
        )
        lambda_wts.append(lam)
        ds = lam - Weight.fundamental(cartan.n, letters[s])
        if not ds.is_root_lattice():
            raise EngineInvariantError(
                "d weight at position %d left the root lattice" % (s + 1)
            )
        if not any(ds.c):
            raise EngineInvariantError("d weight at position %d vanishes" % (s + 1))
        if any(x < 0 for x in ds.c):
            raise EngineInvariantError(
                "d weight at position %d has a positive alpha part" % (s + 1)
            )
        d.append(ds)

    return GLSData(
        word=word,
        succ=tuple(succ),
        pred=tuple(pred),
        last_before=tuple(last_before),
        frozen=frozen,
        lambda_wts=tuple(lambda_wts),
        d=tuple(d),
    )


@dataclass(frozen=True)
class QuiverArrows:
    """Aggregated arrows (source, target, multiplicity), 0-based positions."""

    arrows: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        seen = {}
        for s, t, m in self.arrows:
            if s == t:
                raise ValueError("quiver has a loop at %d" % (s + 1))
            if m <= 0:
                raise ValueError("arrow multiplicities must be positive")
            if (s, t) in seen:
                raise ValueError("duplicate arrow (%d, %d)" % (s + 1, t + 1))
            seen[(s, t)] = m
        for s, t in seen:
            if (t, s) in seen:
                raise ValueError("quiver has a 2-cycle between %d and %d" % (s + 1, t + 1))


def build_quiver(cartan: CartanDatum, g: GLSData) -> QuiverArrows:
    """Seed quiver of the word.

    Ordinary arrows s -> t with multiplicity |a_{i_s, i_t}| whenever
    s < t < s_+ < t_+, horizontal arrows s -> s_- with multiplicity 1.
    Arrows between two frozen vertices cannot arise from either rule; they
    are filtered defensively anyway (with a log line) because downstream
    code relies on their absence.
    """
    letters = g.word.letters
    r = g.r
    frozen = set(g.frozen)
    arrows = []
    for s in range(r):
        for t in range(s + 1, r):
            if t < g.succ[s] < g.succ[t]:
                mult = abs(cartan.a[letters[s]][letters[t]])
                if mult:
                    arrows.append((s, t, mult))
    for s in range(r):
        if g.pred[s] >= 0:
            arrows.append((s, g.pred[s], 1))
    kept = []
    for s, t, m in arrows:
        if s in frozen and t in frozen:
            logger.warning(
                "dropping frozen-frozen arrow (%d, %d); this should be impossible",
                s + 1,
                t + 1,
            )
            continue
        kept.append((s, t, m))
    return QuiverArrows(tuple(sorted(kept)))


def quiver_to_b(quiver: QuiverArrows, r: int, ex) -> BMatrix:
    """b_ij = (arrows i -> j) - (arrows j -> i), columns j exchangeable."""
    ex = tuple(ex)
    counts = {}
    for s, t, m in quiver.arrows:
        counts[(s, t)] = counts.get((s, t), 0) + m
    rows = []
    for i in range(r):
        rows.append(
            tuple(
                counts.get((i, j), 0) - counts.get((j, i), 0)
                for j in ex
            )
        )
    return BMatrix(tuple(rows), ex)


def lambda_matrix(cartan: CartanDatum, g: GLSData) -> LMatrix:
    """lambda_{s,t} = (lambda_s + varpi_{i_s}, d_t) for s >= t, extended
    skew-symmetrically; the diagonal value vanishes identically (checked in
    the test-suite), so it is set to zero outright."""
    r = g.r
    letters = g.word.letters
    rows = [[0] * r for _ in range(r)]
    for s in range(r):
        mu = g.lambda_wts[s] + Weight.fundamental(cartan.n, letters[s])
        for t in range(s):
            val = pair_weight_root(cartan, mu, g.d[t].as_root())
            rows[s][t] = val
            rows[t][s] = -val
    return LMatrix(tuple(tuple(row) for row in rows))


def build_initial_seed(cartan: CartanDatum, word: WeylWord) -> QuantumSeed:
    """The initial quantum seed of a reduced word, fully validated.

    QuantumSeed.initial checks compatibility, q-commutation and homogeneity;
    parity and weight balance use the witness functions that verify uses.
    Raises NotReducedError for a non-reduced word, IncompatibleError or
    EngineInvariantError if an integer condition fails (they never do; each
    is also exercised separately in the test-suite).
    """
    g = analyze_word(cartan, word)
    quiver = build_quiver(cartan, g)
    bmat = quiver_to_b(quiver, g.r, g.exchangeable)
    lmat = lambda_matrix(cartan, g)

    seed = QuantumSeed.initial(lmat, bmat, g.d, cartan=cartan)
    witness = parity_witness(seed, range(g.r)) or balance_witness(seed, range(g.r))
    if witness:
        raise EngineInvariantError(witness)
    return seed
