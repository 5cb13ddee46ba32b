"""Lyndon basis: enumeration, dimension formulas, projection/expansion."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from logsigrnn import datasets, lyndon, paths
from logsigrnn.logsig_layer import SegmentPartition, logsig_sequence_forward, logsig_stack_forward
from logsigrnn.lyndon import (
    check_array_size,
    check_basis_size,
    enumerate_lyndon,
    expand_from_basis,
    logsig_dim,
    lyndon_words,
    project_to_basis,
    sig_dim,
    witt_number,
)
from logsigrnn.tensor_algebra import TruncatedTensor, tensor_log, word_index
from reference import dense_level_system, expand_from_basis_by_word, to_lyndon_dense


def _dense_from_table(table, size):
    """The identity plus a gather table of ``LyndonBasis.level_correction``, as a dense matrix."""
    rows, sources, coefficients = table
    built = np.eye(size)
    if coefficients is None:
        coefficients = np.ones(sources.shape)
    np.add.at(built, (rows.reshape(-1, *(1,) * (sources.ndim - 1)), sources), coefficients)
    return built


def is_lyndon_by_rotation(word):
    """A word is Lyndon iff it is strictly smaller than all proper rotations."""
    n = len(word)
    return all(word < word[i:] + word[:i] for i in range(1, n))


class TestEnumeration:
    def test_small_alphabet(self):
        assert lyndon_words(2, 3) == [(1,), (2,), (1, 2), (1, 1, 2), (1, 2, 2)]

    def test_single_letter_alphabet(self):
        assert lyndon_words(1, 3) == [(1,)]

    def test_count_at_degree_two(self):
        words = lyndon_words(3, 2)
        assert len(words) == 6  # 3 letters + (9 - 3) / 2 pairs

    @pytest.mark.parametrize("width", [2, 3])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_matches_rotation_minimality(self, width, degree):
        expected = sorted(
            (
                w
                for n in range(1, degree + 1)
                for w in itertools.product(range(1, width + 1), repeat=n)
                if is_lyndon_by_rotation(w)
            ),
            key=lambda w: (len(w), w),
        )
        assert lyndon_words(width, degree) == expected

    def test_ordering_is_length_then_lex(self):
        words = lyndon_words(3, 4)
        keys = [(len(w), w) for w in words]
        assert keys == sorted(keys)


class TestDimensions:
    def test_degree_one_is_width(self):
        assert logsig_dim(2, 1) == 2

    def test_witt_sums(self):
        assert logsig_dim(2, 3) == 5
        assert logsig_dim(3, 2) == 6

    def test_sig_dim_values(self):
        assert sig_dim(2, 3) == 15
        assert sig_dim(1, 4) == 5
        assert sig_dim(3, 2) == 13

    @pytest.mark.parametrize("width", range(1, 6))
    @pytest.mark.parametrize("degree", range(1, 7))
    def test_dim_equals_enumeration(self, width, degree):
        assert logsig_dim(width, degree) == len(lyndon_words(width, degree))

    @pytest.mark.parametrize("width", range(2, 6))
    def test_logsig_below_signature(self, width):
        gaps = []
        for degree in range(1, 7):
            gap = sig_dim(width, degree) - 1 - logsig_dim(width, degree)
            assert gap >= 0
            gaps.append(gap)
        assert gaps == sorted(gaps)  # the saving grows with the degree

    def test_gap_grows_with_width(self):
        degree = 4
        gaps = [sig_dim(w, degree) - 1 - logsig_dim(w, degree) for w in range(2, 6)]
        assert gaps == sorted(gaps) and gaps[0] < gaps[-1]

    def test_witt_number_known_value(self):
        assert witt_number(5, 6) == 2580


class TestSizeBudget:
    """``check_basis_size`` reads the closed-form sizes only, before any word is enumerated."""

    @pytest.fixture(autouse=True)
    def no_enumeration(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a word was enumerated")

        monkeypatch.setattr(lyndon, "lyndon_words", refuse)
        monkeypatch.setattr(lyndon, "LyndonBasis", refuse)

    # the widest bases the models, scripts and benchmark build, and the budget's edges
    @pytest.mark.parametrize("width,degree", [(9, 3), (12, 4), (13, 4), (7, 3), (2, 15), (1, 65535), (4, 6)])
    def test_admits(self, width, degree):
        check_basis_size(width, degree)

    @pytest.mark.parametrize(
        "width,degree,reason",
        [
            (9, 40, "signature entries"),  # about 4.2e36 Lyndon words
            (1, 10**9, "signature entries"),
            (10**9, 3, "signature entries"),
            (16, 4, "signature entries"),  # 69905 entries
            (60000, 1, "Lyndon words"),  # 60000 words, 60001 entries
            (130, 2, "Lyndon words"),  # 8515 words, 17031 entries
        ],
    )
    def test_refuses_naming_the_size(self, width, degree, reason):
        if reason == "Lyndon words":
            assert sig_dim(width, degree) <= lyndon.MAX_SIG_ENTRIES
        with pytest.raises(ValueError, match=f"width {width} at degree {degree} .*{reason}"):
            check_basis_size(width, degree)


def _layer_on_the_digit(degree):
    path = datasets.digit_polyline()
    return logsig_sequence_forward(path, SegmentPartition.uniform(0.0, 1.0, 4), degree)


def _stack_on_the_digit(degree):
    path = datasets.digit_polyline()
    return logsig_stack_forward(path.times, path.points[None], SegmentPartition.uniform(0.0, 1.0, 4), degree)


@pytest.mark.parametrize(
    "build",
    [
        lambda degree: lyndon.LyndonBasis(2, degree),
        lambda degree: enumerate_lyndon(2, degree),
        lambda degree: paths.signature(datasets.digit_polyline(), degree),
        lambda degree: paths.log_signature(datasets.digit_polyline(), degree),
        _layer_on_the_digit,
        _stack_on_the_digit,
        lambda degree: datasets.mape_drop_study(degree=degree, trials=1),
    ],
    ids=["LyndonBasis", "enumerate_lyndon", "signature", "log_signature", "sequence", "stack", "mape_drop_study"],
)
def test_every_build_refuses_a_basis_past_the_budget_before_any_word(monkeypatch, build):
    def refuse(*args):
        raise AssertionError("a word was enumerated")

    monkeypatch.setattr(lyndon, "lyndon_words", refuse)
    with pytest.raises(ValueError, match="width 2 at degree 40 .*past the basis size budget"):
        build(40)


class TestArraySizeBudget:
    def test_admits_the_budget_and_refuses_one_entry_more(self):
        budget = lyndon.MAX_ARRAY_ENTRIES
        check_array_size((budget,), "each path's rows", "--segments 1")
        check_array_size((budget // 8, 8), "each path's rows", "--segments 1")
        with pytest.raises(ValueError) as refused:
            check_array_size((budget + 1, 1), "each path's rows", f"--segments {budget + 1}")
        assert str(refused.value) == (
            f"--segments {budget + 1} makes each path's rows ({budget + 1}, 1), "
            f"past the array size budget of {budget} entries"
        )

class TestLetterPositions:
    def test_example(self):
        # words (1,), (2,), (3,), (1, 2), (1, 3), (2, 3); channels 0 and 2 are letters 1 and 3
        assert list(enumerate_lyndon(3, 2).letter_positions([0, 2])) == [0, 2, 4]

    @pytest.mark.parametrize("width,degree", [(1, 3), (3, 3), (4, 2)])
    def test_all_channels_are_the_identity(self, width, degree):
        basis = enumerate_lyndon(width, degree)
        assert list(basis.letter_positions(range(width))) == list(range(basis.dim))

    @pytest.mark.parametrize("letters", [[], [1, 0], [0, 0], [-1], [3]])
    def test_bad_letters_rejected(self, letters):
        with pytest.raises(ValueError, match="increasing channels"):
            enumerate_lyndon(3, 2).letter_positions(letters)


class TestBasisStructure:
    def test_expansions_linearly_independent(self):
        for width, degree in [(2, 4), (3, 3)]:
            basis = enumerate_lyndon(width, degree)
            for n in range(1, degree + 1):
                words = basis.words_of_length(n)
                rows = np.zeros((len(words), width**n))
                for i, w in enumerate(words):
                    exp = basis.expansions[basis.word_position(w)]
                    for u, c in exp.items():
                        rows[i, word_index(u, width)] = c
                assert np.linalg.matrix_rank(rows) == len(words)

    def test_bracket_of_two_letters(self):
        basis = enumerate_lyndon(2, 2)
        exp = basis.expansions[basis.word_position((1, 2))]
        assert exp == {(1, 2): 1, (2, 1): -1}

    def test_level_system_unitriangular(self):
        basis = enumerate_lyndon(3, 4)
        for n in range(1, 5):
            _, matrix, _ = dense_level_system(basis, n)
            assert np.allclose(np.diag(matrix), 1.0)
            assert np.allclose(np.triu(matrix, k=1), 0.0)

    @pytest.mark.parametrize("width,degree", [(2, 6), (3, 5), (9, 3), (9, 4)])
    def test_level_inverse_is_exact_integer_and_cached(self, width, degree):
        # the reference inverse is dense and computed here, apart from the basis's sparse build
        basis = enumerate_lyndon(width, degree)
        for n in range(1, degree + 1):
            idx, matrix, inverse = dense_level_system(basis, n)
            assert np.array_equal(idx, basis.level_words(n))
            forward, adjoint = tables = basis.level_correction(n)
            assert np.array_equal(_dense_from_table(forward, matrix.shape[0]), inverse)
            assert np.array_equal(_dense_from_table(adjoint, matrix.shape[0]), inverse.T)
            for rows, sources, coefficients in tables:
                assert rows.dtype == sources.dtype == np.intp
                if coefficients is not None:
                    assert coefficients.dtype == np.float64 and np.array_equal(coefficients, np.rint(coefficients))
            assert basis.level_correction(n) is tables
            assert basis.level_words(n) is basis.level_words(n)

    @pytest.mark.parametrize(
        "width,degree",
        [(2, 4), (3, 3), (9, 3), pytest.param(11, 3, id="11-3"), pytest.param(16, 3, id="16-3"),
         pytest.param(6, 4, id="6-4")],
    )
    def test_level_correction_reproduces_the_inverse(self, width, degree):
        basis = enumerate_lyndon(width, degree)
        rng = np.random.default_rng(width + degree)
        for n in range(1, degree + 1):
            inverse = dense_level_system(basis, n)[2]
            forward, adjoint = tables = basis.level_correction(n)
            x = rng.normal(size=(3, inverse.shape[0]))
            assert np.allclose(basis.to_lyndon(x.copy(), n), x @ inverse.T, rtol=0.0, atol=1e-12)
            assert np.allclose(basis.to_lyndon_backward(x, n), x @ inverse, rtol=0.0, atol=1e-12)
            # the tables' rows are the inverse's rows and columns with off-diagonal nonzeros
            off = inverse - np.eye(inverse.shape[0])
            assert np.array_equal(forward[0], np.flatnonzero(off.any(axis=1)))
            assert np.array_equal(adjoint[0], np.flatnonzero(off.any(axis=0)))
            if n <= 2:
                assert forward[0].size == adjoint[0].size == 0
            assert basis.level_correction(n) is tables
        # level 3: one +1 source per corrected word and one corrected word per
        # source, one of each per triple a < b < c
        if degree == 3:
            for rows, sources, coefficients in basis.level_correction(3):
                assert coefficients is None
                assert rows.size == np.unique(sources).size == sources.size == math.comb(width, 3)

    @pytest.mark.parametrize("width,degree", [(3, 3), (9, 3), (11, 3), (16, 3), (4, 4), (9, 4), (3, 5), (2, 6)])
    def test_to_lyndon_matches_the_dense_block(self, width, degree):
        # byte-equal at level 3 but for the sign of a zero (x + 0.0 turns
        # -0.0 into 0.0); above it a coordinate sums several terms, in
        # another order than the dense product
        basis = enumerate_lyndon(width, degree)
        rng = np.random.default_rng(3 * width + degree)
        for n in range(3, degree + 1):
            x = rng.normal(size=(4, len(basis.words_of_length(n))))
            x[0, ::3] = 0.0
            x[1, ::5] = -0.0
            got = basis.to_lyndon(x.copy(), n)
            ref = to_lyndon_dense(basis, x.copy(), n)
            if n == 3:
                assert (got + 0.0).tobytes() == (ref + 0.0).tobytes()
            else:
                assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_wide_basis_builds_its_corrections_in_little_memory(self):
        # width 24 at degree 3 has 4600 words of length 3: a dense inverse of
        # that level is a 161 MiB array, and the dense correction block 31 MiB
        tracemalloc.start()
        try:
            basis = lyndon.LyndonBasis(24, 3)
            for n in range(1, 4):
                basis.level_correction(n)
                basis.level_one_hots(n)
            basis.log_series
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis.level_correction(3)[0][0].size == math.comb(24, 3)
        assert peak < 64 * 2**20, peak / 2**20

    @pytest.mark.parametrize("width,degree", [(2, 15), (1, 65535)])
    def test_log_series_tables_stay_small_at_the_budget_edges(self, width, degree):
        # two entries per word, power and prefix length: under 2**20 at width
        # 2, degree 15; at width 1 the letter is the only word, so no power
        offsets, linear, powers = lyndon.LyndonBasis(width, degree).log_series
        assert sum(heads.size + tails.size for heads, tails in powers) < 2**20
        if width == 1:
            assert linear.tolist() == [0] and powers == ()

    def test_an_inexact_inverse_raises(self, monkeypatch):
        # an expansion whose level system is not unitriangular has no exact integer inverse
        basis = lyndon.LyndonBasis(2, 3)
        expansions = list(basis.expansions)
        expansions[basis.word_position((1, 1, 2))] = {(1, 1, 2): 2}
        monkeypatch.setattr(basis, "expansions", tuple(expansions))
        with pytest.raises(RuntimeError, match="degree-3 Lyndon change of basis is not exact"):
            basis.level_correction(3)

    def test_level_expansion_rows_are_the_bracket_expansions(self):
        basis = enumerate_lyndon(3, 4)
        for n in range(1, 5):
            matrix = basis.level_expansion(n)
            for i, word in enumerate(basis.words_of_length(n)):
                coords = np.zeros(basis.dim)
                coords[basis.word_position(word)] = 1.0
                assert np.array_equal(matrix[i], expand_from_basis(coords, basis).levels[n])
            assert basis.level_expansion(n) is matrix


class TestProjection:
    def test_level_one_coordinates_are_letters(self):
        basis = enumerate_lyndon(3, 2)
        t = TruncatedTensor.from_level_one([2.0, -1.0, 0.5], 2)
        coords = project_to_basis(t, basis)
        assert np.allclose(coords[:3], [2.0, -1.0, 0.5])
        assert np.allclose(coords[3:], 0.0)

    def test_single_bracket_coordinate(self):
        basis = enumerate_lyndon(2, 2)
        coords = np.array([0.0, 0.0, 1.0])
        t = expand_from_basis(coords, basis)
        assert np.allclose(t.levels[2].reshape(2, 2), [[0.0, 1.0], [-1.0, 0.0]])

    def test_zero_coordinates_give_zero_tensor(self):
        basis = enumerate_lyndon(2, 3)
        t = expand_from_basis(np.zeros(basis.dim), basis)
        assert t.allclose(TruncatedTensor.zero(2, 3))

    def test_expansion_is_linear(self):
        rng = np.random.default_rng(0)
        basis = enumerate_lyndon(3, 3)
        c1, c2 = rng.normal(size=basis.dim), rng.normal(size=basis.dim)
        a, b = rng.normal(), rng.normal()
        combined = expand_from_basis(a * c1 + b * c2, basis)
        split = a * expand_from_basis(c1, basis) + b * expand_from_basis(c2, basis)
        assert combined.allclose(split, atol=1e-12)

    @pytest.mark.parametrize(
        "width,degree", [(w, d) for w in (1, 2, 3, 4, 9) for d in range(1, 6) if sig_dim(w, d) <= lyndon.MAX_SIG_ENTRIES]
    )
    def test_expansion_equals_the_word_by_word_sums(self, width, degree):
        # one np.add.at per level adds each entry's terms in basis order, as
        # the loop over the words does; a zero coordinate's terms add +-0.0,
        # which leaves every sum's bytes as they are
        basis = enumerate_lyndon(width, degree)
        rng = np.random.default_rng(10 * width + degree)
        for scale in (0.0, 1e-300, 1.0, 1e300):
            coords = rng.normal(size=basis.dim) * scale
            coords[rng.random(basis.dim) < 0.3] = 0.0
            coords[rng.random(basis.dim) < 0.1] = -0.0
            got, ref = expand_from_basis(coords, basis), expand_from_basis_by_word(coords, basis)
            assert [level.tobytes() for level in got.levels] == [level.tobytes() for level in ref.levels], scale

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_project_expand_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        basis = enumerate_lyndon(3, 4)
        coords = rng.uniform(-1, 1, basis.dim)
        back = project_to_basis(expand_from_basis(coords, basis), basis)
        assert np.max(np.abs(back - coords)) <= 1e-10

    def test_non_lie_input_rejected(self):
        basis = enumerate_lyndon(2, 2)
        t = TruncatedTensor.zero(2, 2)
        t.levels[2][:] = [1.0, 0.0, 0.0, 0.0]  # symmetric part only
        with pytest.raises(ValueError, match="not a Lie element"):
            project_to_basis(t, basis)
        t2 = TruncatedTensor.unit(2, 2)
        with pytest.raises(ValueError, match="not a Lie element"):
            project_to_basis(t2, basis)

    def test_non_finite_input_rejected(self):
        # the level is named before any coordinate or residual is formed
        basis = enumerate_lyndon(2, 2)
        t = TruncatedTensor.zero(2, 2)
        t.levels[2][:] = [0.0, np.nan, np.nan, 0.0]
        with pytest.raises(ValueError, match="degree-2 block is not finite"):
            project_to_basis(t, basis)
        t = TruncatedTensor.zero(2, 2)
        t.levels[1][:] = [np.inf, 0.0]
        with pytest.raises(ValueError, match="degree-1 block is not finite"):
            project_to_basis(t, basis)

    @pytest.mark.parametrize(
        "width,degree,rtol",
        [(3, 3, 0.0), (7, 3, 0.0), (9, 3, 0.0), (11, 3, 0.0), (16, 3, 0.0), (9, 4, 1e-15), (3, 5, 1e-15),
         (2, 6, 1e-15)],
    )
    def test_projection_agrees_with_the_dense_solve(self, width, degree, rtol):
        # byte-equal up to degree 3, where each corrected coordinate adds one
        # term; above it a coordinate sums several, in another order than the solve
        rng = np.random.default_rng(10 * width + degree)
        basis = enumerate_lyndon(width, degree)
        t = tensor_log(paths.signature(paths.TimedPath(np.linspace(0.0, 1.0, 30), rng.normal(size=(30, width))), degree))
        coords = project_to_basis(t, basis)
        start = 0
        for n in range(1, degree + 1):
            idx, matrix, _ = dense_level_system(basis, n)
            solved = np.linalg.solve(matrix, t.levels[n][idx])
            got, start = coords[start : start + idx.size], start + idx.size
            if rtol:
                assert np.max(np.abs(got - solved)) <= rtol * np.max(np.abs(solved))
            else:
                assert got.tobytes() == solved.tobytes()

    def test_wide_projection_runs_in_little_memory(self):
        # once the basis's level corrections are built, projecting reads them
        # only: a dense level-3 system at width 24 is a 161 MiB array
        rng = np.random.default_rng(24)
        basis = enumerate_lyndon(24, 3)
        for n in range(1, 4):
            basis.level_correction(n)
        t = tensor_log(paths.signature(paths.TimedPath(np.linspace(0.0, 1.0, 30), rng.normal(size=(30, 24))), 3))
        tracemalloc.start()
        try:
            coords = project_to_basis(t, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(coords[:24], t.levels[1])
        assert peak < 8 * 2**20, peak / 2**20

    def test_length_mismatch_rejected(self):
        basis = enumerate_lyndon(2, 2)
        with pytest.raises(ValueError, match="coordinates"):
            expand_from_basis(np.zeros(basis.dim + 1), basis)
