"""Lyndon-word basis of the free Lie algebra truncated at a fixed degree.

Basis words are ordered by length and then lexicographically; this ordering
fixes the public coordinate layout of every log-signature vector produced
by the library.  Each Lyndon word carries the tensor expansion of its
standard right bracketing, which is unitriangular against the words
themselves, so each level has an exact integer inverse, built once by
substitution over the expansions' nonzeros.  That inverse is the one change
of basis: the log-signature layer, the Lie map and the reference
``project_to_basis`` all apply it through ``LyndonBasis.to_lyndon``.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .tensor_algebra import TruncatedTensor, Word, word_index

__all__ = [
    "LyndonBasis",
    "enumerate_lyndon",
    "lyndon_words",
    "logsig_dim",
    "sig_dim",
    "check_basis_size",
    "check_array_size",
    "witt_number",
    "project_to_basis",
    "expand_from_basis",
]


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def witt_number(width: int, n: int) -> int:
    """Dimension of the degree-n component of the free Lie algebra on ``width`` letters."""
    total = 0
    for k in range(1, n + 1):
        if n % k == 0:
            total += _mobius(k) * width ** (n // k)
    assert total % n == 0
    return total // n


def logsig_dim(width: int, degree: int) -> int:
    """Dimension of the truncated log-signature: cumulative Witt numbers."""
    if width < 1 or degree < 1:
        raise ValueError("width and degree must be positive")
    if width == 1:  # the one letter; no longer word is Lyndon
        return 1
    return sum(witt_number(width, n) for n in range(1, degree + 1))


def sig_dim(width: int, degree: int) -> int:
    """Storage size of a truncated signature, degree-0 scalar included."""
    if width < 1:
        raise ValueError("width must be positive")
    if width == 1:
        return degree + 1
    return (width ** (degree + 1) - 1) // (width - 1)


# The largest basis any build makes, checked by ``LyndonBasis`` (and first by
# the model and the commands, naming their key or flag) from the closed forms
# before any word is enumerated: the layer holds a (increments, width**n) array
# per level n and the basis a dense correction block per level (up to one
# entry per pair of words of that length), so past these sizes a build takes
# minutes and gigabytes, or never ends (width 9 at degree 40 has about 4.2e36
# Lyndon words).
MAX_SIG_ENTRIES = 2**16
MAX_BASIS_WORDS = 2**13


def check_basis_size(width: int, degree: int) -> None:
    """Raise ``ValueError`` if the width-``width`` basis at ``degree`` is past the build budget.

    Reads only ``sig_dim`` and ``logsig_dim``: no word is enumerated.
    """
    if width < 1 or degree < 1:
        raise ValueError("width and degree must be positive")
    # sig_dim(width, degree) > degree, so a huge degree is refused before any power is formed
    if degree >= MAX_SIG_ENTRIES or sig_dim(width, degree) > MAX_SIG_ENTRIES:
        raise ValueError(
            f"width {width} at degree {degree} has more than {MAX_SIG_ENTRIES} signature "
            "entries, past the basis size budget"
        )
    words = logsig_dim(width, degree)
    if words > MAX_BASIS_WORDS:
        raise ValueError(
            f"width {width} at degree {degree} has {words} Lyndon words, more than "
            f"{MAX_BASIS_WORDS}, past the basis size budget"
        )


# The largest array a model, the layer or a command builds (256 MiB of float64):
# a parameter, one stream's rows, a path's kernel arrays or an upsampled stream.
MAX_ARRAY_ENTRIES = 2**25


def check_array_size(shape: tuple[int, ...], what: str, by: str) -> None:
    """Raise ``ValueError`` if ``what``, of ``shape``, has more than ``MAX_ARRAY_ENTRIES`` entries.

    ``by`` names the keys, flags or sizes that set the shape.
    """
    if math.prod(shape) > MAX_ARRAY_ENTRIES:
        raise ValueError(f"{by} makes {what} {shape}, past the array size budget of {MAX_ARRAY_ENTRIES} entries")


def lyndon_words(width: int, degree: int) -> list[Word]:
    """All Lyndon words of length <= degree over {1..width}, by length then lex.

    Uses Duval's generation algorithm, which emits the words in plain
    lexicographic order; the result is re-sorted into the public layout.
    """
    if width < 1 or degree < 1:
        raise ValueError("width and degree must be positive")
    words: list[Word] = []
    w = [1]
    while w:
        words.append(tuple(w))
        w = (w * (degree // len(w) + 1))[:degree]
        while w and w[-1] == width:
            w.pop()
        if w:
            w[-1] += 1
    words.sort(key=lambda word: (len(word), word))
    return words


def _standard_factorization(word: Word) -> tuple[Word, Word]:
    # right factor = lexicographically smallest proper suffix
    right = min(word[i:] for i in range(1, len(word)))
    return word[: len(word) - len(right)], right


@lru_cache(maxsize=None)
def _bracket_expansion(word: Word) -> dict[Word, int]:
    """Tensor expansion of the standard bracketing of a Lyndon word."""
    if len(word) == 1:
        return {word: 1}
    left, right = _standard_factorization(word)
    a = _bracket_expansion(left)
    b = _bracket_expansion(right)
    out: dict[Word, int] = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            key = wa + wb
            out[key] = out.get(key, 0) + ca * cb
            key = wb + wa
            out[key] = out.get(key, 0) - ca * cb
    return {k: v for k, v in out.items() if v != 0}


class LyndonBasis:
    """Lyndon basis of the free Lie algebra on ``width`` letters up to ``degree``."""

    def __init__(self, width: int, degree: int):
        check_basis_size(width, degree)
        self.width = width
        self.degree = degree
        self.words: tuple[Word, ...] = tuple(lyndon_words(width, degree))
        self.expansions: tuple[dict[Word, int], ...] = tuple(
            _bracket_expansion(w) for w in self.words
        )
        self._word_pos = {w: i for i, w in enumerate(self.words)}
        # contiguous slice of self.words holding the words of each length
        self._level_slices: list[slice] = []
        start = 0
        for n in range(1, degree + 1):
            count = sum(1 for w in self.words[start:] if len(w) == n)
            self._level_slices.append(slice(start, start + count))
            start += count
        self._words_cache: dict[int, np.ndarray] = {}
        self._correction_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._expansion_cache: dict[int, np.ndarray] = {}
        self._letters_cache: dict[int, np.ndarray] = {}

    @cached_property
    def _flat(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per word: flat indices and coefficients of its expansion."""
        flat = []
        for exp in self.expansions:
            idx = np.array([word_index(u, self.width) for u in exp], dtype=np.intp)
            flat.append((idx, np.array(list(exp.values()), dtype=np.float64)))
        return flat

    @property
    def dim(self) -> int:
        return len(self.words)

    def words_of_length(self, n: int) -> tuple[Word, ...]:
        return self.words[self._level_slices[n - 1]]

    def word_position(self, word: Word) -> int:
        return self._word_pos[tuple(word)]

    def letter_positions(self, letters) -> np.ndarray:
        """Positions of the Lyndon words over the channels ``letters`` (increasing, from 0).

        Entry i is the position of the i-th word of the width-``len(letters)``
        basis at this degree, with its letter ``a`` relabelled to channel
        ``letters[a - 1]``.  Dropping the other channels is a Lie algebra map
        that keeps every bracket over ``letters`` and sends all others to 0, and
        Lyndon words and their standard bracketing depend only on the order of
        their letters; so a path's rows at these positions are the rows of its
        channels ``letters`` alone.
        """
        channels = [int(c) for c in letters]
        if not channels or sorted(set(channels)) != channels or channels[0] < 0 or channels[-1] >= self.width:
            raise ValueError(f"letters must be increasing channels of a width-{self.width} basis, got {channels}")
        return np.array(
            [self._word_pos[tuple(channels[a - 1] + 1 for a in w)] for w in lyndon_words(len(channels), self.degree)],
            dtype=np.intp,
        )

    def level_words(self, n: int) -> np.ndarray:
        """Flat indices of the Lyndon words of length n, in basis order.  Built once per basis and level."""
        if n not in self._words_cache:
            self._words_cache[n] = np.array(
                [word_index(w, self.width) for w in self.words_of_length(n)], dtype=np.intp
            )
        return self._words_cache[n]

    def level_letters(self, n: int) -> np.ndarray:
        """``(n, words of length n)`` table whose entry ``[k, i]`` is letter k (from 0) of the i-th such Lyndon word.

        Built once per basis and level.
        """
        if n not in self._letters_cache:
            self._letters_cache[n] = np.array(np.unravel_index(self.level_words(n), (self.width,) * n))
        return self._letters_cache[n]

    def level_correction(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The exact inverse of level n's change of basis minus the identity, as ``(rows, cols, block)``.

        The change of basis is the level's ``system``: ``system[i, j]`` is
        the coefficient of Lyndon word i (as a plain word) in the bracket
        expansion of Lyndon word j, both of length n; it is lower triangular
        with unit diagonal in the lexicographic order.  ``x @ inverse.T``
        equals ``x`` with ``x[:, cols] @ block`` added to its columns
        ``rows`` (``to_lyndon``).  The block is empty at levels 1 and 2,
        where the inverse is the identity; at level 3 it holds one entry per
        row and per column.

        The system is integer and unitriangular, so its inverse is integer:
        with ``system = I + L``, column j of the inverse is ``e_j - sum_i
        L[i, j] * column i`` over the nonzeros of column j of ``L`` (read
        from the bracket expansions, ``i > j``), built from the last column
        back in exact integer arithmetic.  No dense (words x words) array is
        formed.  The product ``system @ inverse`` is checked to be exactly
        the identity, and every entry to be exact in float64, or
        ``RuntimeError`` is raised.  Built once per basis and level.
        """
        if n not in self._correction_cache:
            sl = self._level_slices[n - 1]
            pos = {w: i for i, w in enumerate(self.words[sl])}
            # system[j]: the nonzeros (i, system[i, j]) of column j, the diagonal first
            system = [
                sorted((pos[u], c) for u, c in exp.items() if u in pos) for exp in self.expansions[sl]
            ]
            columns: list[dict[int, int]] = [{}] * len(system)
            for j in range(len(system) - 1, -1, -1):  # from the columns i > j, already built
                col = {j: 1}
                for i, c in system[j][1:]:
                    for k, v in columns[i].items():
                        col[k] = col.get(k, 0) - c * v
                columns[j] = {k: v for k, v in col.items() if v}
            for j, col in enumerate(columns):  # system @ column j must be e_j
                product: dict[int, int] = {}
                for k, v in col.items():
                    for i, c in system[k]:
                        product[i] = product.get(i, 0) + c * v
                if {k: v for k, v in product.items() if v} != {j: 1} or any(
                    int(float(v)) != v for v in col.values()
                ):
                    raise RuntimeError(f"the inverse of the degree-{n} Lyndon change of basis is not exact")
            off = [(i, j, v) for j, col in enumerate(columns) for i, v in col.items() if i != j]
            rows = np.array(sorted({i for i, _, _ in off}), dtype=np.intp)
            cols = np.array(sorted({j for _, j, _ in off}), dtype=np.intp)
            block = np.zeros((cols.size, rows.size))
            if off:
                i, j, v = (np.array(x) for x in zip(*off))
                block[np.searchsorted(cols, j), np.searchsorted(rows, i)] = v
            self._correction_cache[n] = (rows, cols, block)
        return self._correction_cache[n]

    def to_lyndon(self, level: np.ndarray, n: int) -> np.ndarray:
        """Lyndon coordinates from a Lie element's level-n entries at the Lyndon words.

        That is ``level @ inverse.T`` for the exact level inverse, applied as
        the identity plus its correction block; ``level`` is updated in place.
        """
        hit, cols, block = self.level_correction(n)
        if block.size:
            level[..., hit] = level.take(hit, axis=-1) + level.take(cols, axis=-1) @ block
        return level

    def to_lyndon_backward(self, upstream: np.ndarray, n: int) -> np.ndarray:
        """Adjoint of ``to_lyndon``: ``upstream @ inverse``."""
        hit, cols, block = self.level_correction(n)
        if not block.size:
            return upstream
        g = upstream.copy()
        g[..., cols] += upstream[..., hit] @ block.T
        return g

    def level_expansion(self, n: int) -> np.ndarray:
        """Dense ``(words of length n, width**n)`` matrix of their bracket expansions.

        Row i holds the flat tensor of the i-th Lyndon word of length n, so
        coordinates ``c`` expand to the level-n tensor ``c @ matrix``.  Built
        once per basis and level.
        """
        if n not in self._expansion_cache:
            sl = self._level_slices[n - 1]
            matrix = np.zeros((sl.stop - sl.start, self.width**n))
            for row, (idx, coef) in enumerate(self._flat[sl]):
                matrix[row, idx] = coef
            self._expansion_cache[n] = matrix
        return self._expansion_cache[n]

    def __repr__(self) -> str:
        return f"LyndonBasis(width={self.width}, degree={self.degree}, dim={self.dim})"


@lru_cache(maxsize=64)
def enumerate_lyndon(width: int, degree: int) -> LyndonBasis:
    """Construct (and cache) the Lyndon basis for the given width and degree."""
    return LyndonBasis(width, degree)


def project_to_basis(t: TruncatedTensor, basis: LyndonBasis) -> np.ndarray:
    """Coordinates of a Lie element ``t`` in the Lyndon basis.

    Level by level, the entries at the Lyndon words through the basis's
    exact level inverse (``LyndonBasis.to_lyndon``), as in the layer.  The
    reconstruction residual is verified, so a non-Lie or non-finite input
    raises ``ValueError`` instead of being silently approximated.
    """
    if t.width != basis.width or t.degree != basis.degree:
        raise ValueError("tensor and basis have mismatched width or degree")
    tol = 1e-10
    if not abs(t.scalar()) <= tol:
        raise ValueError("not a Lie element: nonzero degree-0 coefficient")
    coords = np.zeros(basis.dim)
    for n in range(1, basis.degree + 1):
        if not np.isfinite(t.levels[n]).all():
            raise ValueError(f"not a Lie element: degree-{n} block is not finite")
        coords[basis._level_slices[n - 1]] = basis.to_lyndon(t.levels[n][basis.level_words(n)], n)
    recon = expand_from_basis(coords, basis)
    for n in range(1, basis.degree + 1):
        block = t.levels[n]
        scale = max(1.0, float(np.max(np.abs(block), initial=0.0)))
        if not np.all(np.abs(recon.levels[n] - block) <= tol * scale):  # a NaN fails too
            raise ValueError(
                f"not a Lie element: degree-{n} block is outside the free Lie algebra"
            )
    return coords


def expand_from_basis(coords, basis: LyndonBasis) -> TruncatedTensor:
    """Lie element with the given Lyndon-basis coordinates."""
    coords = np.asarray(coords, dtype=np.float64).reshape(-1)
    if coords.size != basis.dim:
        raise ValueError(
            f"expected {basis.dim} coordinates for {basis!r}, got {coords.size}"
        )
    out = TruncatedTensor.zero(basis.width, basis.degree)
    for j, w in enumerate(basis.words):
        if coords[j] == 0.0:
            continue
        idx, coef = basis._flat[j]
        out.levels[len(w)][idx] += coords[j] * coef
    return out
