"""Exception types shared across the engine, and the integer check for input."""

from __future__ import annotations


def as_int(x) -> int:
    """x itself if it is an int; ValueError otherwise.

    Loaders of JSON input use this instead of int(), which would turn true
    into 1 and "-1" into -1.
    """
    if type(x) is not int:
        raise ValueError("expected an integer, got %r" % (x,))
    return x


class NotReducedError(ValueError):
    """Raised when a word is passed where a reduced word is required."""


class IncompatibleError(Exception):
    """(L, B) fails the compatibility equation sum_k lambda_ik b_kj = delta_ij d.

    ``witness`` is the first failing (row, column) pair, 0-based.
    """

    def __init__(self, witness: tuple[int, int], detail: str = ""):
        self.witness = witness
        i, j = witness
        msg = "compatibility fails at (%d, %d)" % (i + 1, j + 1)
        if detail:
            msg += ": " + detail
        super().__init__(msg)


class NotDivisibleError(Exception):
    """Exact left division failed.

    ``reason`` is "coefficient" (a forced leading-coefficient division left
    Z[v^{+-1}]) or "newton_box" (a forced quotient exponent lies outside
    the box that the Newton polytopes of divisor and dividend allow).
    """

    def __init__(self, reason: str, detail: str = ""):
        assert reason in ("coefficient", "newton_box")
        self.reason = reason
        msg = "not exactly divisible (%s)" % reason
        if detail:
            msg += ": " + detail
        super().__init__(msg)


class EngineInvariantError(Exception):
    """An internal identity the engine re-checks after every step failed.

    This always indicates a bug (or a hand-corrupted seed), never expected
    user input, so it carries a full diagnostic string.
    """
