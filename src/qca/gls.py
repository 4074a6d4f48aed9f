"""The initial quantum seed attached to a reduced word (GLS construction).

Given a symmetric Cartan datum and a reduced word (i_1, ..., i_r), positions
1..r index the initial cluster.  The combinatorics below produce, in exact
integer arithmetic:

- successor / predecessor positions with the same letter (s_+, s_-),
- the frozen set {s : s_+ = r + 1},
- the weights lambda_s = s_{i_1} ... s_{i_s}(varpi_{i_s}) and
  d_s = lambda_s - varpi_{i_s} = -(sum of the inversion roots beta_t with
  t <= s and i_t = i_s), read off the same inversion roots whose
  positivity certifies that the word is reduced,
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

from dataclasses import dataclass
from operator import mul

from .cartan import CartanDatum, Weight, WeylWord, check_reduced, coroot_vector
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


@dataclass(frozen=True)
class GLSData:
    """Combinatorial data of a reduced word.

    succ[s] is the next position with the same letter (value r = none),
    pred[s] the previous one (-1 = none).  frozen lists the positions
    without a successor.
    """

    word: WeylWord
    succ: tuple[int, ...]
    pred: tuple[int, ...]
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
    """Combinatorics and weights of a reduced word; NotReducedError otherwise.

    One forward scan over the letters and the inversion roots
    beta_s = u_{s-1}(alpha_{i_s}) returned by check_reduced, where
    u_s = s_{i_1} ... s_{i_s}, gives

        d_s = d_{s_-} - beta_s   (d_{s_-} = 0 when s has no predecessor),
        lambda_s = d_s + varpi_{i_s}.

    Proof: lambda_s = u_{s-1} s_{i_s} varpi_{i_s} = u_{s-1} varpi_{i_s} - beta_s.
    The letters strictly between s_- and s differ from i_s, and their
    reflections fix varpi_{i_s}, so u_{s-1} varpi_{i_s} = u_{s_-} varpi_{i_s}
    = lambda_{s_-} (or varpi_{i_s} without a predecessor).  Unrolled,
    d_s = -sum_{t <= s, i_t = i_s} beta_t is minus a nonempty sum of
    positive roots: it lies in the root lattice, is nonzero and has no
    positive alpha coefficient, with nothing left to check.
    """
    roots = check_reduced(cartan, word)
    r = word.r
    zero = Weight.zero(cartan.n)
    succ, pred, last = [r] * r, [], {}
    lambda_wts, d = [], []
    for s, (i, beta) in enumerate(zip(word.letters, roots)):
        p = last.get(i, -1)
        if p >= 0:
            succ[p] = s
        pred.append(p)
        last[i] = s
        ds = (d[p] if p >= 0 else zero) - beta
        d.append(ds)
        lambda_wts.append(ds + Weight.fundamental(cartan.n, i))

    return GLSData(
        word=word,
        succ=tuple(succ),
        pred=tuple(pred),
        frozen=tuple(sorted(last.values())),
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
    Every arrow has an exchangeable end, so no two frozen vertices are
    joined: an ordinary arrow s -> t needs s_+ < t_+ <= r, so s has a
    successor, and s_- has the successor s.
    """
    letters = g.word.letters
    r = g.r
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
    return QuiverArrows(tuple(sorted(arrows)))


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
    # every d_t lies in the root lattice, so each pairing is -d_t.c . h(mu)
    dc = [w.c for w in g.d]
    rows = [[0] * r for _ in range(r)]
    for s in range(r):
        h = coroot_vector(cartan, g.lambda_wts[s] + Weight.fundamental(cartan.n, letters[s]))
        for t in range(s):
            val = -sum(map(mul, dc[t], h))
            rows[s][t] = val
            rows[t][s] = -val
    return LMatrix(tuple(tuple(row) for row in rows))


def build_initial_seed(cartan: CartanDatum, word: WeylWord) -> QuantumSeed:
    """The initial quantum seed of a reduced word, fully validated.

    QuantumSeed.initial checks compatibility, and q-commutation and
    homogeneity hold by construction (see there); parity and weight balance
    use the witness functions that verify uses.
    Raises NotReducedError for a non-reduced word, IncompatibleError or
    EngineInvariantError if an integer condition fails (they never do; each
    is also exercised separately in the test-suite).
    """
    return _assemble(cartan, word)[0]


def _assemble(cartan: CartanDatum, word: WeylWord):
    """(seed, GLSData, quiver): build_initial_seed's seed together with the
    word data it was built from, which `qca build` also prints."""
    g = analyze_word(cartan, word)
    quiver = build_quiver(cartan, g)
    bmat = quiver_to_b(quiver, g.r, g.exchangeable)
    lmat = lambda_matrix(cartan, g)

    seed = QuantumSeed.initial(lmat, bmat, g.d, cartan=cartan)
    witness = parity_witness(seed, range(g.r)) or balance_witness(seed, range(g.r))
    if witness:
        raise EngineInvariantError(witness)
    return seed, g, quiver
