import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physlice._streams import MAX_RUNS, _SeedWords, stream, stream_words


def assert_streams_match(seed: int, run_ids: range, words: np.ndarray) -> None:
    """Each row's Generator has the state and the next draws of the oracle
    ``np.random.default_rng([seed, run_id])``."""
    assert words.shape == (len(run_ids), 4) and words.dtype == np.uint64
    for run_id, row in zip(run_ids, words):
        want = np.random.default_rng([seed, run_id])
        got = stream(row)
        assert got.bit_generator.state == want.bit_generator.state, (seed, run_id)
        assert np.array_equal(got.standard_normal(3), want.standard_normal(3))
        assert np.array_equal(got.integers(0, 2, 5), want.integers(0, 2, 5))


@st.composite
def run_ranges(draw):
    """A range of at most 40 run ids, often ending near the last id 2**32 - 1."""
    length = draw(st.integers(1, 40))
    start = draw(st.one_of(st.integers(0, MAX_RUNS - length), st.integers(MAX_RUNS - 100, MAX_RUNS - length)))
    return range(start, start + length)


class TestStreamWords:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**130)),
        run_ids=run_ranges(),
        cuts=st.lists(st.integers(1, 39), max_size=4),
    )
    def test_rows_are_the_default_rng_streams_for_any_chunking(self, seed, run_ids, cuts):
        words = stream_words(seed, run_ids)
        assert_streams_match(seed, run_ids, words)
        # Hashing each chunk on its own gives the rows of the whole range.
        bounds = sorted({0, len(run_ids), *(c for c in cuts if c < len(run_ids))})
        for lo, hi in zip(bounds, bounds[1:]):
            assert np.array_equal(stream_words(seed, run_ids[lo:hi]), words[lo:hi])

    @pytest.mark.parametrize(
        "seed", [0, 1, 12345, 2**32 - 1, 2**32, 2**63 + 5, 2**96 - 1, 2**96, 2**128 + 77, 2**200 + 3]
    )
    def test_seeds_of_every_word_count(self, seed):
        # 2**96 - 1 fills the pool of four words with the run id; 2**96 and up
        # mix the run id in after the pool.
        run_ids = range(70)
        assert_streams_match(seed, run_ids, stream_words(seed, run_ids))
        edges = range(MAX_RUNS - 3, MAX_RUNS)
        assert_streams_match(seed, edges, stream_words(seed, edges))

    def test_words_are_read_only(self):
        words = stream_words(3, range(5))
        assert words.flags.c_contiguous and not words.flags.writeable

    def test_empty_range(self):
        assert stream_words(3, range(0)).shape == (0, 4)

    @pytest.mark.parametrize("seed", [-1, -(2**32), -(2**40)])
    def test_negative_seed_never_wraps(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            stream_words(seed, range(3))

    @pytest.mark.parametrize(
        "run_ids",
        [
            range(-1, 2),
            range(MAX_RUNS - 1, MAX_RUNS + 1),
            # Reversed: the first id or the last one is out of range.
            range(1, -2, -1),
            range(MAX_RUNS, MAX_RUNS - 3, -1),
            range(MAX_RUNS - 2, MAX_RUNS + 5, 3),
        ],
    )
    def test_run_ids_beyond_one_word_are_rejected(self, run_ids):
        with pytest.raises(ValueError, match="run ids must lie in"):
            stream_words(3, run_ids)

    @pytest.mark.parametrize("run_ids", [range(5, -1, -1), range(MAX_RUNS - 1, MAX_RUNS - 9, -3), range(2, 30, 7)])
    def test_reversed_and_stepped_ranges_within_one_word(self, run_ids):
        assert_streams_match(3, run_ids, stream_words(3, run_ids))


class TestSeedWords:
    @pytest.mark.parametrize(
        "n_words,dtype",
        [
            (4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64), (0, np.uint64), (4.5, np.uint64),
            (4, np.int64), (4, np.float64), (4, ">u8"), (4, np.dtype(np.uint32)), (3, np.dtype(np.uint64)),
        ],
    )
    def test_only_the_pcg64_request_is_served(self, n_words, dtype):
        held = _SeedWords(stream_words(3, range(1))[0])
        with pytest.raises(ValueError, match="only the 4 uint64 words"):
            held.generate_state(n_words, dtype)

    @pytest.mark.parametrize("dtype", [np.uint64, np.dtype(np.uint64), "uint64", "<u8"])
    def test_the_pcg64_request_gets_the_held_words(self, dtype):
        words = stream_words(3, range(1))[0]
        held = _SeedWords(words)
        assert held.generate_state(4, dtype) is words
