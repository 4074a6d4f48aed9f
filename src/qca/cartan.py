"""Symmetric Cartan data, weights and the Weyl group action, in exact integers.

A weight is stored in hybrid coordinates

    mu = sum_i m_i varpi_i - sum_j c_j alpha_j

(fundamental-weight part and a subtracted root part).  The root lattice is
the subset m = 0, so roots are Weights too and one reflection serves both:
beta = sum_j b_j alpha_j is stored with c = -b, and a positive root has
every c_j <= 0, not all zero.  Every pairing the engine needs puts a
root-lattice weight in the second slot, where

    (mu, alpha_j) = <h_j, mu> = m_j - (A c)_j

so all values are exact integers and the inverse Cartan matrix never appears.
That matters: the inverse is rational in finite type and singular in affine
type, while the formulas below work uniformly for every symmetric
generalized Cartan matrix.

Indices are 0-based everywhere in this module; the command-line layer
converts to the 1-based convention used in displays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .errors import NotReducedError, as_int

__all__ = [
    "CartanDatum",
    "Weight",
    "WeylWord",
    "coroot_pair",
    "coroot_vector",
    "pair_weight_root",
    "reflect",
    "weyl_apply",
    "inversion_roots",
    "check_reduced",
]


@dataclass(frozen=True)
class CartanDatum:
    """A symmetric generalized Cartan matrix with index set 0..n-1.

    >>> CartanDatum.from_rows([[2, -1], [-1, 2]]).n
    2
    >>> CartanDatum.from_rows([[2, 1], [1, 2]])
    Traceback (most recent call last):
        ...
    ValueError: Cartan entry sign error at (1, 2): off-diagonal entries must be <= 0
    """

    n: int
    a: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("Cartan rank must be positive")
        if len(self.a) != self.n or any(len(row) != self.n for row in self.a):
            raise ValueError("Cartan matrix must be square of size n")
        for i in range(self.n):
            if self.a[i][i] != 2:
                raise ValueError(
                    "Cartan diagonal entry at (%d, %d) must be 2" % (i + 1, i + 1)
                )
            for j in range(self.n):
                if i != j and self.a[i][j] > 0:
                    raise ValueError(
                        "Cartan entry sign error at (%d, %d): "
                        "off-diagonal entries must be <= 0" % (i + 1, j + 1)
                    )
                if self.a[i][j] != self.a[j][i]:
                    raise ValueError(
                        "Cartan matrix must be symmetric (entries (%d, %d), (%d, %d))"
                        % (i + 1, j + 1, j + 1, i + 1)
                    )

    @classmethod
    def from_rows(cls, rows) -> "CartanDatum":
        a = tuple(tuple(map(as_int, row)) for row in rows)
        return cls(n=len(a), a=a)


@dataclass(frozen=True)
class Weight:
    """mu = sum_i m_i varpi_i - sum_j c_j alpha_j, both parts integer vectors.

    The representation is not unique as an abstract weight (varpi and alpha
    overlap in finite type), but the engine never needs to decide that:
    weights are compared coordinate-wise, and all GLS weights are produced
    in a canonical way from fundamental weights by reflections, which touch
    only the c part.

    >>> w = Weight.fundamental(2, 0) - Weight.simple_root(2, 0)
    >>> (w.m, w.c)
    ((1, 0), (1, 0))
    """

    m: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self):
        if len(self.m) != len(self.c):
            raise ValueError("weight parts must have equal length")

    @property
    def n(self) -> int:
        return len(self.m)

    @classmethod
    def zero(cls, n: int) -> "Weight":
        return cls((0,) * n, (0,) * n)

    @classmethod
    def fundamental(cls, n: int, i: int) -> "Weight":
        m = [0] * n
        m[i] = 1
        return cls(tuple(m), (0,) * n)

    @classmethod
    def simple_root(cls, n: int, i: int) -> "Weight":
        """alpha_i: zero m part, c = -e_i."""
        c = [0] * n
        c[i] = -1
        return cls((0,) * n, tuple(c))

    @classmethod
    def from_row(cls, row) -> "Weight":
        """The weight whose flattened row (see row) is row."""
        n = len(row) // 2
        return cls(tuple(row[:n]), tuple(row[n:]))

    @cached_property
    def row(self) -> tuple[int, ...]:
        """The integer row m + c, on which weights add like vectors; built
        once per weight (not a field, so == and hash ignore it)."""
        return self.m + self.c

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(
            tuple(x + y for x, y in zip(self.m, other.m)),
            tuple(x + y for x, y in zip(self.c, other.c)),
        )

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(
            tuple(x - y for x, y in zip(self.m, other.m)),
            tuple(x - y for x, y in zip(self.c, other.c)),
        )

    def __neg__(self) -> "Weight":
        return Weight(tuple(-x for x in self.m), tuple(-x for x in self.c))

    def is_root_lattice(self) -> bool:
        return not any(self.m)

    def is_positive_root(self) -> bool:
        """In the root lattice with every alpha coefficient >= 0, not all 0."""
        return self.is_root_lattice() and any(self.c) and all(x <= 0 for x in self.c)


@dataclass(frozen=True)
class WeylWord:
    """A word (i_1, ..., i_r) in the simple reflections, letters 0-based."""

    letters: tuple[int, ...]

    def __post_init__(self):
        for k, i in enumerate(self.letters):
            if i < 0:
                raise ValueError(
                    "word letter %d at position %d outside Cartan index range"
                    % (i + 1, k + 1)
                )

    @classmethod
    def from_one_based(cls, letters) -> "WeylWord":
        return cls(tuple(as_int(x) - 1 for x in letters))

    def to_one_based(self) -> tuple[int, ...]:
        return tuple(x + 1 for x in self.letters)

    @property
    def r(self) -> int:
        return len(self.letters)

    def validate(self, d: CartanDatum) -> None:
        for k, i in enumerate(self.letters):
            if not 0 <= i < d.n:
                raise ValueError(
                    "word letter %d at position %d outside Cartan index range"
                    % (i + 1, k + 1)
                )


def coroot_pair(d: CartanDatum, i: int, mu: Weight) -> int:
    """<h_i, mu> = m_i - (A c)_i.

    >>> d = CartanDatum.from_rows([[2, -1], [-1, 2]])
    >>> coroot_pair(d, 0, Weight.fundamental(2, 0))
    1
    >>> coroot_pair(d, 1, Weight((1, 0), (1, 0)))
    1
    """
    return mu.m[i] - sum(d.a[i][j] * mu.c[j] for j in range(d.n) if mu.c[j])


def coroot_vector(d: CartanDatum, mu: Weight) -> tuple[int, ...]:
    """h(mu) = (<h_j, mu>)_j = m - A c, every coroot_pair of mu at once.

    A weight paired with many roots costs one h(mu), and then
    (mu, beta) = -beta.c . h(mu) for each (see pair_weight_root).

    >>> d = CartanDatum.from_rows([[2, -1], [-1, 2]])
    >>> coroot_vector(d, Weight((1, 0), (1, 0)))
    (-1, 1)
    """
    return tuple(m - sum(map(mul, row, mu.c)) for m, row in zip(mu.m, d.a))


def pair_weight_root(d: CartanDatum, mu: Weight, beta: Weight) -> int:
    """(mu, beta) for beta in the root lattice; exact integer.

    With all symmetrizers equal to 1, (mu, alpha_i) = <h_i, mu>, so
    (mu, sum b_j alpha_j) = sum_j b_j <h_j, mu>, where b = -beta.c.
    ValueError if beta has a fundamental part.

    >>> d = CartanDatum.from_rows([[2, -1], [-1, 2]])
    >>> pair_weight_root(d, Weight.simple_root(2, 0), Weight.simple_root(2, 0))
    2
    >>> pair_weight_root(d, Weight.fundamental(2, 0), Weight.simple_root(2, 1))
    0
    """
    if not beta.is_root_lattice():
        raise ValueError("second argument of the pairing has a nonzero fundamental part")
    return -sum(map(mul, beta.c, coroot_vector(d, mu)))


def reflect(d: CartanDatum, i: int, mu: Weight) -> Weight:
    """s_i(mu) = mu - <h_i, mu> alpha_i; only c_i changes.

    >>> d = CartanDatum.from_rows([[2, -1], [-1, 2]])
    >>> w = reflect(d, 0, Weight.fundamental(2, 0))
    >>> (w.m, w.c)
    ((1, 0), (1, 0))
    """
    k = coroot_pair(d, i, mu)
    if k == 0:
        return mu
    c = list(mu.c)
    c[i] += k
    return Weight(mu.m, tuple(c))


def weyl_apply(d: CartanDatum, word: WeylWord, mu: Weight) -> Weight:
    """Apply u = s_{i_1} s_{i_2} ... s_{i_r} to mu (rightmost letter first).

    >>> d = CartanDatum.from_rows([[2, -1], [-1, 2]])
    >>> w = weyl_apply(d, WeylWord.from_one_based((1, 2)), Weight.fundamental(2, 1))
    >>> (w.m, w.c)
    ((0, 1), (1, 1))
    """
    word.validate(d)
    for i in reversed(word.letters):
        mu = reflect(d, i, mu)
    return mu


def inversion_roots(d: CartanDatum, word: WeylWord) -> tuple[Weight, ...]:
    """beta_k = s_{i_1} ... s_{i_{k-1}} (alpha_{i_k}) for k = 1..r.

    The word is reduced exactly when every beta_k is a positive root; for a
    reduced word the beta_k are pairwise distinct.
    """
    word.validate(d)
    out = []
    for k, i in enumerate(word.letters):
        beta = Weight.simple_root(d.n, i)
        for j in reversed(word.letters[:k]):
            beta = reflect(d, j, beta)
        out.append(beta)
    return tuple(out)


def check_reduced(d: CartanDatum, word: WeylWord) -> tuple[Weight, ...]:
    """The inversion roots of a reduced word; NotReducedError otherwise.

    The length of u_k = s_{i_1}...s_{i_k} grows at each step iff
    u_{k-1}(alpha_{i_k}) is positive, so the word is reduced iff every
    inversion root is positive.  The roots are returned because the GLS
    weights are sums of them (gls.analyze_word).

    >>> d = CartanDatum.from_rows([[2, -1], [-1, 2]])
    >>> [b.c for b in check_reduced(d, WeylWord.from_one_based((1, 2, 1)))]
    [(-1, 0), (-1, -1), (0, -1)]
    """
    roots = inversion_roots(d, word)
    if not all(beta.is_positive_root() for beta in roots):
        raise NotReducedError(
            "word %s is not reduced" % (word.to_one_based(),)
        )
    return roots
