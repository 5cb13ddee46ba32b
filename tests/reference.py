"""Reference computations, independent of the package's own.

The path transformation layers: the model computes the same things through
``StreamClassifier._block_matrix``, ``_mix`` and the layer's
``state.starts``.  The Lyndon oracles: the dense level system and its
inverse, the layer's log assembly level by level through the dense
correction block, and ``lie_map_backward`` with scatters; the package
computes them through each basis's gather tables.  The tests compare
against these.
"""

import numpy as np

from logsigrnn.neural import normalized_adjacency
from logsigrnn.paths import TimedPath, evaluate
from logsigrnn.tensor_algebra import word_index


def embedding_forward(frames, point_w, point_b, mix_w, mix_b) -> np.ndarray:
    """Pointwise per-joint linear map, then one joint-mixing linear map.

    The same two maps are applied at every frame, so the output at frame t
    depends only on the input at frame t.
    """
    n = frames.shape[0]
    hidden = frames @ point_w + point_b
    return hidden.reshape(n, -1) @ mix_w + mix_b


def add_start_points(rows: np.ndarray, path: TimedPath, boundaries: np.ndarray) -> np.ndarray:
    """Append the path value at each segment start to the matching row."""
    # a single sample spans no time, so every segment starts at that instant
    at = boundaries[:-1] if path.num_samples > 1 else np.full(boundaries.size - 1, path.times[0])
    starts = evaluate(path, at)
    if starts.shape[0] != rows.shape[0]:
        raise ValueError("one start point per row is required")
    return np.concatenate([rows, starts], axis=1)


def gcn_forward(frames: np.ndarray, adjacency: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Per-frame graph convolution: mix joints with the normalized adjacency, then map coords."""
    ahat = normalized_adjacency(adjacency)
    return np.einsum("fg,ngd,dc->nfc", ahat, frames, theta)


def dense_level_system(basis, n):
    """The dense oracle for level n's change of basis, apart from the basis's sparse build.

    Built from ``basis.expansions`` alone.  Returns the flat indices of the
    Lyndon words of length n, the unitriangular ``matrix`` (``matrix[i, j]``
    is the coefficient of Lyndon word i, as a plain word, in the bracket
    expansion of Lyndon word j) and its inverse, a dense float inverse
    rounded and asserted to be exact.
    """
    words = basis.words_of_length(n)
    pos = {w: i for i, w in enumerate(words)}
    matrix = np.zeros((len(words), len(words)))
    for j, w in enumerate(words):
        for u, c in basis.expansions[basis.word_position(w)].items():
            if u in pos:
                matrix[pos[u], j] = c
    inverse = np.rint(np.linalg.inv(matrix))
    assert np.array_equal(inverse @ matrix, np.eye(len(words)))
    idx = np.array([word_index(w, basis.width) for w in words], dtype=np.intp)
    return idx, matrix, inverse


def dense_correction(basis, n):
    """Level n's exact inverse minus the identity as a dense block ``(rows, cols, block)``.

    ``x @ inverse.T`` is ``x`` with ``x[:, cols] @ block`` added to its
    columns ``rows``.
    """
    inverse = dense_level_system(basis, n)[2]
    off = inverse - np.eye(inverse.shape[0])
    rows, cols = np.flatnonzero(off.any(axis=1)), np.flatnonzero(off.any(axis=0))
    return rows, cols, np.ascontiguousarray(off[np.ix_(rows, cols)].T)


def to_lyndon_dense(basis, level, n):
    """``LyndonBasis.to_lyndon`` through the dense correction block (in place)."""
    rows, cols, block = dense_correction(basis, n)
    if block.size:
        level[..., rows] = level.take(rows, axis=-1) + level.take(cols, axis=-1) @ block
    return level


def _outer(u, v):
    return (u[..., :, None] * v[..., None, :]).reshape(*u.shape[:-1], -1)


def log_rows(sig, basis):
    """Lyndon rows of ``log(1 + t)`` for the signature levels ``sig[1..M]`` ``(..., S, d**k)``, level by level.

    The layer's log assembly before its gather tables: the powers are
    built level by level, whole below the top level and at the Lyndon
    words at the top, each level's log is summed onto zeros and corrected
    through the dense block.
    """
    M, d = basis.degree, basis.width
    words = basis.level_words(M)
    split = [None] + [np.divmod(words, d**j) for j in range(1, M)]
    tails = [None] + [sig[j].take(split[j][1], axis=-1) for j in range(1, M)]

    def product(lower, i, k):  # lower[i] (x) sig[k - i]
        if k < M:
            return _outer(lower[i], sig[k - i])
        return lower[i].take(split[k - i][0], axis=-1) * tails[k - i]

    powers = [None, sig]
    for m in range(2, M + 1):
        level = [None] * m
        for k in range(m, M + 1):
            power = product(powers[m - 1], m - 1, k)
            for i in range(m, k):
                power += product(powers[m - 1], i, k)
            level.append(power)
        powers.append(level)
    rows = np.zeros((*sig[1].shape[:-1], basis.dim))
    for n in range(1, M + 1):
        idx = basis.level_words(n)
        log_n = rows[..., basis._level_slices[n - 1]]
        log_n += sig[n].take(idx, axis=-1)
        for m in range(2, n + 1):
            log_n += (-1) ** (m + 1) / m * (powers[m][n] if n == M else powers[m][n].take(idx, axis=-1))
        to_lyndon_dense(basis, log_n, n)
    return rows


def lie_map_backward_scatter(cache, g):
    """``logsig_layer.lie_map_backward`` with ``np.add.at`` scatters onto the matrix's columns."""
    source, target, levels = cache
    grad = g[: source.width, : target.width].copy()
    for n, (factors, powers) in enumerate(levels, start=2):
        level = g[source._level_slices[n - 1], target._level_slices[n - 1]]
        letters = target.level_letters(n)
        t = source.level_expansion(n).T @ target.to_lyndon_backward(level, n)
        for k in range(n - 1, 0, -1):
            t = t.reshape(-1, grad.shape[0], t.shape[-1])
            np.add.at(grad, (slice(None), letters[k]), (t * powers[k - 1][:, None, :]).sum(axis=0))
            t = (t * factors[None, :, k]).sum(axis=1)
        np.add.at(grad, (slice(None), letters[0]), t)
    return grad
