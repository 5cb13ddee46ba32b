"""Lyndon-word basis of the free Lie algebra truncated at a fixed degree.

Basis words are ordered by length and then lexicographically; this ordering
fixes the public coordinate layout of every log-signature vector produced
by the library.  Each Lyndon word carries the tensor expansion of its
standard right bracketing, which is unitriangular against the words
themselves, so each level has an exact integer inverse, built once by
substitution over the expansions' nonzeros.  That inverse is the one change
of basis: the log-signature layer, the Lie map and the reference
``project_to_basis`` all apply it through ``LyndonBasis.to_lyndon``.

Each basis instance builds the index tables its hot paths read once, with
array operations, and holds each level's in its one per-level memo
(``_per_level``); a level's letters are read once from its words, and its
flat indices are their ``np.ravel_multi_index``, so no call re-derives one:

* ``level_correction``: each corrected word's source words and integer
  coefficients, and the transposed tables for the adjoint, in place of a
  dense (words x words) block; at level 3 each word has one ``+1`` source,
  so ``to_lyndon`` is a gather and an add;
* ``log_series``: the layer's log power series at the Lyndon words as
  gathers from concatenated tensor levels, one pair of tables per power
  (each word's prefixes in the power below and its tails in the
  signature), in place of per-call ``divmod`` splits and per-level,
  per-power product chains;
* ``level_one_hots``: each letter position's one-hot matrix, which turns
  ``lie_map_backward``'s scatters onto the matrix's columns into products.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from functools import cached_property, lru_cache, update_wrapper
from itertools import accumulate

import numpy as np

from .tensor_algebra import TruncatedTensor, Word

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
# per level n, and the basis correction tables per level (up to one entry
# per pair of words of that length) and log series tables (two entries per
# word, power and prefix length: under 2**20 in all at width 2, degree 15,
# the largest in the budget), so past these sizes a build takes
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


def _gather_tables(rows: np.ndarray, sources: np.ndarray, values: np.ndarray) -> tuple:
    """The gather table ``(rows, sources, coefficients)`` adding ``values[t] * x[sources[t]]`` to ``x[rows[t]]``.

    See ``LyndonBasis.level_correction``.  Array operations only: the terms
    are sorted by row and source, and each row's terms fill one table row.
    """
    if not rows.size:
        return rows, sources, None
    order = np.lexsort((sources, rows))
    rows, sources, values = rows[order], sources[order], values[order]
    new = np.ones(rows.size, dtype=bool)
    new[1:] = rows[1:] != rows[:-1]
    if new.all() and (values == 1).all():
        return rows, sources, None
    first = np.flatnonzero(new)  # each row's first term
    targets, counts = rows[first], np.diff(first, append=rows.size)
    slot = np.arange(rows.size) - first.repeat(counts)
    row = np.arange(targets.size).repeat(counts)
    table = sources[first].repeat(counts.max()).reshape(targets.size, -1)
    table[row, slot] = sources
    coefficients = np.zeros(table.shape)
    coefficients[row, slot] = values
    return targets, table, coefficients


def _apply_correction(x: np.ndarray, table: tuple) -> np.ndarray:
    """Add a gather table of ``LyndonBasis.level_correction`` to ``x`` along its last axis, in place.

    Every gathered entry is read before any is written.
    """
    rows, sources, coefficients = table
    if rows.size:
        gathered = x.take(sources, axis=-1)
        if coefficients is not None:  # several sources or other coefficients: one signed sum
            gathered *= coefficients
            gathered = gathered.sum(axis=-1)
        x[..., rows] = x.take(rows, axis=-1) + gathered
    return x


def _log_series_tables(basis: "LyndonBasis") -> tuple:
    """``LyndonBasis.log_series``, from ``level_words`` by divmod: one array expression per level and prefix length."""
    width, degree = basis.width, basis.degree
    offsets = list(accumulate((width**k for k in range(1, degree)), initial=0))  # level k < degree at offsets[k - 1]
    zero = offsets[-1]  # the 0.0 entry, followed in a signature's concatenation by its top level
    # the longest Lyndon word: the degree, but 1 at width 1
    words = [basis.level_words(n) for n in range(1, (degree if width > 1 else 1) + 1)]
    linear = np.concatenate([offsets[n - 1] + w if n < degree else zero + 1 + w for n, w in enumerate(words, start=1)])
    powers = []
    for m in range(2, len(words) + 1):
        # t^m = t^(m-1) (x) t: word w of length n sums, over prefix lengths
        # i = m-1 .. n-1, its prefix's entry of t^(m-1) times its tail's of t
        terms = len(words) - m + 1  # at the longest words, the most of any word
        heads = np.full((terms, sum(w.size for w in words[m - 1 :])), zero, dtype=np.intp)
        tails = heads.copy()
        start = 0
        for n, w in enumerate(words[m - 1 :], start=m):
            for r, i in enumerate(range(m - 1, n)):
                head, tail = np.divmod(w, width ** (n - i))
                heads[r, start : start + w.size] = offsets[i - 1] + head
                tails[r, start : start + w.size] = offsets[n - i - 1] + tail
            start += w.size
        powers.append((heads, tails) if terms > 1 else (heads[0], tails[0]))
    return offsets, linear, tuple(powers)


def _one_hots(letters: np.ndarray, width: int) -> np.ndarray:
    """``LyndonBasis.level_one_hots`` from the level's ``(n, words)`` letter table."""
    n, count = letters.shape
    out = np.zeros((n, count, width))
    out[np.arange(n)[:, None], np.arange(count), letters] = 1.0
    return out


def _letter_table(words, n: int) -> np.ndarray:
    """``(n, len(words))`` table whose entry ``[k, i]`` is letter k (from 0) of ``words[i]``, each of length n."""
    return (np.array(words, dtype=np.intp).reshape(-1, n) - 1).T.copy()


def _flat_indices(letters: np.ndarray, width: int) -> np.ndarray:
    """Row-major positions in their level of the words of a ``_letter_table``.

    An empty level, as is every level past 1 at width 1, may have more than ``np.ravel_multi_index``'s 64 axes.
    """
    return np.ravel_multi_index(letters, (width,) * len(letters)) if letters.size else np.zeros(0, dtype=np.intp)


def _per_level(build):
    """The ``LyndonBasis`` table ``build(basis, n)``, built once per level and held in the basis's memo ``_levels``."""
    def table(self, n: int):
        try:  # as cheap as ``n in dict`` when the table is built
            return self._levels[build][n]
        except KeyError:
            pass
        value = self._levels[build][n] = build(self, n)  # outside the handler: a failed build chains no KeyError
        return value
    return update_wrapper(table, build)


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
        lengths = [len(w) for w in self.words]
        self._level_slices = [slice(bisect_left(lengths, n), bisect_left(lengths, n + 1)) for n in range(1, degree + 1)]
        self._levels: defaultdict = defaultdict(dict)  # {table build: {level: table}}, see ``_per_level``

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

    @_per_level
    def level_words(self, n: int) -> np.ndarray:
        """Flat indices of the Lyndon words of length n, in basis order.  Built once per basis and level."""
        return _flat_indices(self.level_letters(n), self.width)

    @_per_level
    def level_letters(self, n: int) -> np.ndarray:
        """``(n, words of length n)`` table whose entry ``[k, i]`` is letter k (from 0) of the i-th such Lyndon word.

        Built once per basis and level.
        """
        return _letter_table(self.words_of_length(n), n)

    @_per_level
    def level_correction(self, n: int) -> tuple[tuple, tuple]:
        """The exact inverse of level n's change of basis minus the identity, as gather tables ``(forward, adjoint)``.

        The change of basis is the level's ``system``: ``system[i, j]`` is
        the coefficient of Lyndon word i (as a plain word) in the bracket
        expansion of Lyndon word j, both of length n; it is lower triangular
        with unit diagonal in the lexicographic order.  Each table is
        ``(rows, sources, coefficients)``, applied by ``_apply_correction``:
        entry ``rows[r]`` gains ``sum_s coefficients[r, s] *
        x[sources[r, s]]``, each row's sources in increasing order and
        filled to the level's largest count with a repeat of its first
        source at coefficient 0.  Where every row has one source of
        coefficient ``+1`` (level 3), ``sources`` is one index per row and
        ``coefficients`` None.  ``forward`` turns ``x`` into ``x @
        inverse.T`` (``to_lyndon``), ``adjoint`` into ``x @ inverse``
        (``to_lyndon_backward``).  Both are empty at levels 1 and 2, where
        the inverse is the identity.

        The system is integer and unitriangular, so its inverse is integer:
        with ``system = I + L``, column j of the inverse is ``e_j - sum_i
        L[i, j] * column i`` over the nonzeros of column j of ``L`` (read
        from the bracket expansions, ``i > j``), built from the last column
        back in exact integer arithmetic.  No dense (words x words) array is
        formed.  The product ``system @ inverse`` is checked to be exactly
        the identity, and every entry to be exact in float64, or
        ``RuntimeError`` is raised.  Built once per basis and level.
        """
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
        i, j, v = np.array(off, dtype=np.intp).reshape(-1, 3).T
        v = v.astype(np.float64)
        return _gather_tables(i, j, v), _gather_tables(j, i, v)

    def to_lyndon(self, level: np.ndarray, n: int) -> np.ndarray:
        """Lyndon coordinates from a Lie element's level-n entries at the Lyndon words.

        That is ``level @ inverse.T`` for the exact level inverse, applied as
        the identity plus the forward gather table of ``level_correction``;
        ``level`` is updated in place.
        """
        return _apply_correction(level, self.level_correction(n)[0])

    def to_lyndon_backward(self, upstream: np.ndarray, n: int) -> np.ndarray:
        """Adjoint of ``to_lyndon``: ``upstream @ inverse``, through the transposed tables."""
        table = self.level_correction(n)[1]
        return _apply_correction(upstream.copy(), table) if table[0].size else upstream

    @cached_property
    def log_series(self) -> tuple[list[int], np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
        """Gather tables of the log power series at the Lyndon words, ``(offsets, linear, powers)``.

        They index concatenations of tensor levels: level k < degree from
        ``offsets[k - 1]`` to ``offsets[k]``, then at ``offsets[-1]`` one
        entry that holds 0.0, then, in a signature's, its top level.
        ``linear`` is each Lyndon word's own entry in a signature's.
        ``powers[m - 2]`` is ``(heads, tails)`` for the m-th tensor power
        at the Lyndon words of length >= m (in basis order), formed from
        the whole (m-1)-th power below the top level as ``t^m = t^(m-1)
        (x) t``: word w of length n has one term per prefix length i = m-1
        .. n-1, in that order, the product of its prefix's entry
        ``heads[r, w]`` in the (m-1)-th power's concatenation and its
        tail's entry ``tails[r, w]`` in the signature's.  Both are
        ``(terms, words)``, the words with fewer terms than the longest
        filling the rest with the 0.0 entry; a power with one term per
        word (m = degree) is ``(words,)``.  Built once per basis.
        """
        return _log_series_tables(self)

    @cached_property
    def _gather_entries(self) -> int:
        """Entries per segment row of the layer's largest gather: a log series or level inverse table's."""
        if self.dim == self.width:  # every Lyndon word is a letter: the layer's rows are the increments
            return 0
        tables = [heads for heads, _ in self.log_series[2]]
        return max(t.size for t in tables + [t[1] for n in range(3, self.degree + 1) for t in self.level_correction(n)])

    @_per_level
    def level_one_hots(self, n: int) -> np.ndarray:
        """``(n, words of length n, width)`` table whose slice k is the one-hot matrix of each word's letter k.

        ``x @ level_one_hots(n)[k]`` adds column i of ``x`` onto column
        ``level_letters(n)[k, i]``.  Built once per basis and level.
        """
        return _one_hots(self.level_letters(n), self.width)

    @_per_level
    def _expansion_table(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Level n's bracket expansions, one ``(word, flat index, coefficient)`` entry per term, in basis order."""
        expansions = self.expansions[self._level_slices[n - 1]]
        word = np.repeat(np.arange(len(expansions)), [len(e) for e in expansions])
        flat = _flat_indices(_letter_table([u for e in expansions for u in e], n), self.width)
        return word, flat, np.array([c for e in expansions for c in e.values()], dtype=np.float64)

    @_per_level
    def level_expansion(self, n: int) -> np.ndarray:
        """Dense ``(words of length n, width**n)`` matrix of their bracket expansions.

        Row i holds the flat tensor of the i-th Lyndon word of length n, so
        coordinates ``c`` expand to the level-n tensor ``c @ matrix``.  Built
        once per basis and level.
        """
        word, flat, coefficients = self._expansion_table(n)
        matrix = np.zeros((len(self.words_of_length(n)), self.width**n))
        matrix[word, flat] = coefficients
        return matrix

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
    for n in range(1, len(basis.words[-1]) + 1):  # to the longest word: 1 at width 1
        word, flat, coefficients = basis._expansion_table(n)
        # term by term in basis order, as a loop over the words would add them
        np.add.at(out.levels[n], flat, coords[basis._level_slices[n - 1]][word] * coefficients)
    return out
