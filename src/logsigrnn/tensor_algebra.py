"""Arithmetic in the truncated tensor algebra.

An element of the width-``d`` tensor algebra truncated at degree ``M`` is
stored densely, one flat float64 block per degree: the block for degree
``k`` has length ``d**k`` and is indexed row-major by words
``(i_1, ..., i_k)`` over the alphabet ``{1, ..., d}``.  Degree 0 is a
single scalar.  All operations are pure; degrees above the truncation
order are silently discarded.
"""

from __future__ import annotations

import numpy as np

Word = tuple[int, ...]

__all__ = [
    "Word",
    "TruncatedTensor",
    "tensor_mul",
    "tensor_exp",
    "tensor_log",
    "exp_level_one",
    "word_index",
    "shuffle",
]


class TruncatedTensor:
    """Element of the width-``d`` tensor algebra truncated at ``degree``."""

    __slots__ = ("width", "degree", "levels")

    def __init__(self, width: int, degree: int, levels):
        if width < 1:
            raise ValueError(f"width must be positive, got {width}")
        if degree < 0:
            raise ValueError(f"degree must be nonnegative, got {degree}")
        levels = [np.asarray(block, dtype=np.float64).reshape(-1) for block in levels]
        if len(levels) != degree + 1:
            raise ValueError(f"expected {degree + 1} level blocks, got {len(levels)}")
        for k, block in enumerate(levels):
            if block.size != width**k:
                raise ValueError(
                    f"degree-{k} block must have {width ** k} entries, got {block.size}"
                )
        self.width = width
        self.degree = degree
        self.levels = levels

    @classmethod
    def zero(cls, width: int, degree: int) -> "TruncatedTensor":
        return cls(width, degree, [np.zeros(width**k) for k in range(degree + 1)])

    @classmethod
    def unit(cls, width: int, degree: int) -> "TruncatedTensor":
        out = cls.zero(width, degree)
        out.levels[0][0] = 1.0
        return out

    @classmethod
    def from_level_one(cls, vector, degree: int) -> "TruncatedTensor":
        vector = np.asarray(vector, dtype=np.float64).reshape(-1)
        out = cls.zero(vector.size, degree)
        if degree >= 1:
            out.levels[1][:] = vector
        return out

    def copy(self) -> "TruncatedTensor":
        return TruncatedTensor(self.width, self.degree, [b.copy() for b in self.levels])

    def scalar(self) -> float:
        """The degree-0 coefficient."""
        return float(self.levels[0][0])

    def ravel(self) -> np.ndarray:
        """All coefficients concatenated in degree order (degree 0 first)."""
        return np.concatenate(self.levels)

    def storage_size(self) -> int:
        return sum(block.size for block in self.levels)

    def norm(self) -> float:
        return float(np.sqrt(sum(float(b @ b) for b in self.levels)))

    def coefficient(self, word: Word) -> float:
        """Coefficient of ``word`` (a tuple over 1..width)."""
        k = len(word)
        if k > self.degree:
            return 0.0
        return float(self.levels[k][word_index(word, self.width)])

    def allclose(self, other: "TruncatedTensor", atol: float = 1e-12) -> bool:
        _check_compatible(self, other)
        return all(
            np.allclose(a, b, rtol=0.0, atol=atol)
            for a, b in zip(self.levels, other.levels)
        )

    def __add__(self, other: "TruncatedTensor") -> "TruncatedTensor":
        _check_compatible(self, other)
        return TruncatedTensor(
            self.width, self.degree, [a + b for a, b in zip(self.levels, other.levels)]
        )

    def __sub__(self, other: "TruncatedTensor") -> "TruncatedTensor":
        _check_compatible(self, other)
        return TruncatedTensor(
            self.width, self.degree, [a - b for a, b in zip(self.levels, other.levels)]
        )

    def __mul__(self, scale: float) -> "TruncatedTensor":
        return TruncatedTensor(self.width, self.degree, [b * scale for b in self.levels])

    __rmul__ = __mul__

    def __neg__(self) -> "TruncatedTensor":
        return self * -1.0

    def __repr__(self) -> str:
        return f"TruncatedTensor(width={self.width}, degree={self.degree})"


def _check_compatible(a: TruncatedTensor, b: TruncatedTensor) -> None:
    if a.width != b.width or a.degree != b.degree:
        raise ValueError(
            f"incompatible tensors: width/degree ({a.width},{a.degree}) vs "
            f"({b.width},{b.degree})"
        )


def tensor_mul(a: TruncatedTensor, b: TruncatedTensor) -> TruncatedTensor:
    """Graded product: level k of the result is sum over i+j=k of a_i (x) b_j."""
    _check_compatible(a, b)
    d, M = a.width, a.degree
    out = TruncatedTensor.zero(d, M)
    for k in range(M + 1):
        acc = out.levels[k]
        for i in range(k + 1):
            j = k - i
            ai, bj = a.levels[i], b.levels[j]
            if i == 0:
                acc += ai[0] * bj
            elif j == 0:
                acc += ai * bj[0]
            else:
                acc += np.outer(ai, bj).reshape(-1)
    return out


def tensor_exp(a: TruncatedTensor) -> TruncatedTensor:
    """Tensor exponential, sum of a^(x)n / n! truncated at the degree of ``a``.

    Requires the degree-0 coefficient of ``a`` to vanish.
    """
    if abs(a.scalar()) > 1e-12:
        raise ValueError("tensor_exp requires a zero degree-0 coefficient")
    M = a.degree
    out = TruncatedTensor.unit(a.width, M)
    # Horner form: exp(a) = 1 + a(1 + a/2 (1 + a/3 (...)))
    for n in range(M, 0, -1):
        out = TruncatedTensor.unit(a.width, M) + tensor_mul(a * (1.0 / n), out)
    return out


def exp_level_one(vector, degree: int) -> TruncatedTensor:
    """Exponential of a pure degree-1 element: level k is v^(x)k / k!.

    This is the signature of a linear path with increment ``vector``.
    """
    vector = np.asarray(vector, dtype=np.float64).reshape(-1)
    out = TruncatedTensor.zero(vector.size, degree)
    out.levels[0][0] = 1.0
    for k in range(1, degree + 1):
        out.levels[k] = np.outer(out.levels[k - 1], vector).reshape(-1) / k
    return out


def tensor_log(a: TruncatedTensor) -> TruncatedTensor:
    """Tensor logarithm of an element with degree-0 coefficient 1.

    log(1 + t) with t = a - 1 is evaluated in Horner form
    t (1/1 - t (1/2 - t (1/3 - ...))).
    """
    if abs(a.scalar() - 1.0) > 1e-9:
        raise ValueError("tensor_log requires a degree-0 coefficient equal to 1")
    d, M = a.width, a.degree
    t = a.copy()
    t.levels[0][0] = 0.0
    if M == 0:
        return TruncatedTensor.zero(d, 0)
    inner = TruncatedTensor.unit(d, M) * (1.0 / M)
    for n in range(M - 1, 0, -1):
        inner = TruncatedTensor.unit(d, M) * (1.0 / n) - tensor_mul(t, inner)
    return tensor_mul(t, inner)


def word_index(word: Word, width: int) -> int:
    """Row-major position of a word inside its degree block."""
    idx = 0
    for letter in word:
        if not 1 <= letter <= width:
            raise ValueError(f"letter {letter} outside alphabet 1..{width}")
        idx = idx * width + (letter - 1)
    return idx


def shuffle(u: Word, v: Word, degree: int | None = None) -> dict[Word, int]:
    """Shuffle product of two words as a word -> integer coefficient map.

    If ``degree`` is given, the combined length must not exceed it: the
    shuffle of two words lives entirely in degree len(u)+len(v), so a
    truncated algebra of lower degree cannot represent it.
    """
    u, v = tuple(u), tuple(v)
    if degree is not None and len(u) + len(v) > degree:
        raise ValueError(
            f"shuffle of lengths {len(u)} and {len(v)} exceeds truncation degree {degree}"
        )
    return _shuffle(u, v)


def _shuffle(u: Word, v: Word) -> dict[Word, int]:
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out: dict[Word, int] = {}
    for w, c in _shuffle(u[:-1], v).items():
        key = w + (u[-1],)
        out[key] = out.get(key, 0) + c
    for w, c in _shuffle(u, v[:-1]).items():
        key = w + (v[-1],)
        out[key] = out.get(key, 0) + c
    return out
