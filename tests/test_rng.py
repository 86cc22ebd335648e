"""Counter-based RNG: reference vectors, stream independence, chunking."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from urnsa import SyntheticProcess, montecarlo, rng

# First outputs of the widely published 64-bit split-mix generator seeded
# with 0: state k*0x9E3779B97F4A7C15 put through the finalizer.  path_key
# reproduces them because it uses the same stride and finalizer.
_REFERENCE_STREAM_SEED0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
)


def test_path_key_matches_published_generator():
    for i, want in enumerate(_REFERENCE_STREAM_SEED0):
        assert rng.path_key(0, i) == want


def test_mix64_is_a_bijection_on_samples():
    seen = {rng.mix64(z) for z in range(10_000)}
    assert len(seen) == 10_000


def test_mix64_masks_to_64_bits():
    assert rng.mix64(1 << 200) == rng.mix64((1 << 200) & rng.MASK64)
    assert 0 <= rng.mix64(2**64 - 1) < 2**64


def test_uniform_draw_range_and_determinism():
    key = rng.path_key(42, 7)
    values = [rng.uniform_draw(key, j) for j in range(1, 2000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert values == [rng.uniform_draw(key, j) for j in range(1, 2000)]


def test_uniform_draw_resolution_is_53_bits():
    key = rng.path_key(3, 1)
    v = rng.uniform_draw(key, 1)
    assert v == round(v * 2**53) / 2**53


def test_path_keys_match_scalar_keys():
    got = rng.path_keys(master_seed=99, start=5, count=20)
    want = [rng.path_key(99, i) for i in range(5, 25)]
    assert [int(k) for k in got] == want


def _scalar_draws(keys, first_draw: int, count: int) -> np.ndarray:
    """uniform_draw's draws first_draw.. of each key, one row per draw."""
    return np.array(
        [[rng.uniform_draw(int(key), first_draw + r) for key in keys]
         for r in range(count)],
        dtype=np.float64,
    ).reshape(count, len(keys))


def _finished(words: np.ndarray) -> np.ndarray:
    """finish_uniforms of a block of sign_block words, left as they were."""
    words = words.view(np.uint64)
    return rng.finish_uniforms(words.ravel().copy()).reshape(words.shape)


def _assert_block_matches_draws(block, keys, first_draw):
    """The sign_block words of block finish to uniform_draw's draws."""
    assert _finished(block).tobytes() == (
        _scalar_draws(keys, first_draw, block.shape[0]).tobytes()
    )


def _bits(block: np.ndarray) -> np.ndarray:
    return block.view(np.uint64)


def test_sign_block_finishes_to_scalar_draws_bitwise():
    keys = rng.path_keys(17, 0, 6)
    block = rng.sign_block(keys, first_draw=3, count=11)
    assert block.shape == (11, 6)
    u = _finished(block)
    for r in range(11):
        for i in range(6):
            assert u[r, i] == rng.uniform_draw(int(keys[i]), 3 + r)


def test_sign_block_chunking_never_changes_words():
    keys = rng.path_keys(1234, 0, 4)
    whole = rng.sign_block(keys, 1, 100)
    pieces = np.vstack(
        [rng.sign_block(keys, 1 + lo, 25) for lo in range(0, 100, 25)]
    )
    assert np.array_equal(_bits(whole), _bits(pieces))


def test_sign_block_out_fills_the_leading_rows_only():
    keys = rng.path_keys(17, 0, 6)
    out = np.full((10, 6), -1.0)
    got = rng.sign_block(keys, 3, 4, out=out)
    assert got.shape == (4, 6)
    assert np.shares_memory(got, out)
    assert np.array_equal(_bits(out[:4]), _bits(rng.sign_block(keys, 3, 4)))
    assert np.all(out[4:] == -1.0)
    _assert_block_matches_draws(out[:4], keys, 3)


def test_sign_block_out_wraps_keys_and_large_draw_indices():
    keys = np.array([2**64 - 1, 0, 2**63, 12345], dtype=np.uint64)
    for first in (1, 2**32 - 2, 2**32 + 5, 2**40 + 3):
        out = np.empty((5, 4))
        rng.sign_block(keys, first, 5, out=out)
        assert np.array_equal(_bits(out), _bits(rng.sign_block(keys, first, 5)))
        _assert_block_matches_draws(out, keys, first)


@pytest.mark.parametrize(
    "out",
    [
        np.empty((4, 3), dtype=np.float32),
        np.empty((4, 3), dtype=np.uint64),
        np.empty((4, 6))[:, ::2],
        np.empty((4, 3), order="F"),
        np.empty((3, 3)),
        np.empty((4, 2)),
        np.empty(12),
        [[0.0] * 3] * 4,
    ],
    ids=[
        "float32", "uint64", "strided", "fortran", "too-few-rows",
        "wrong-columns", "one-dimensional", "list",
    ],
)
def test_sign_block_rejects_bad_out(out):
    keys = rng.path_keys(1, 0, 3)
    before = np.array(out, copy=True)
    with pytest.raises(ValueError):
        rng.sign_block(keys, 1, 4, out=out)
    assert np.array_equal(np.asarray(out), before, equal_nan=True)


@pytest.mark.parametrize(
    "scratch",
    [
        np.empty(12, dtype=np.int64),
        np.empty(11, dtype=np.uint64),
        np.empty(24, dtype=np.uint64)[::2],
    ],
    ids=["int64", "too-small", "strided"],
)
def test_sign_block_rejects_bad_scratch(scratch):
    keys = rng.path_keys(1, 0, 3)
    with pytest.raises(ValueError):
        rng.sign_block(keys, 1, 4, out=np.empty((4, 3)), scratch=scratch)


def test_sign_block_refill_allocates_no_block_sized_memory():
    keys = rng.path_keys(9, 0, 1 << 10)
    out = np.empty((256, 1 << 10))
    scratch = np.empty(out.size, dtype=np.uint64)
    rng.sign_block(keys, 1, 256, out=out, scratch=scratch)
    tracemalloc.start()
    try:
        rng.sign_block(keys, 257, 256, out=out, scratch=scratch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # numpy's own cast buffers, a fixed size, are all that may show up
    assert peak < out.nbytes // 8


def test_distinct_paths_have_distinct_streams():
    a = [rng.uniform_draw(rng.path_key(0, 0), j) for j in range(1, 50)]
    b = [rng.uniform_draw(rng.path_key(0, 1), j) for j in range(1, 50)]
    assert a != b


def test_seed_changes_every_stream():
    k0 = rng.path_keys(0, 0, 100)
    k1 = rng.path_keys(1, 0, 100)
    assert not np.any(k0 == k1)


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(0, 10_000))
def test_path_key_reduces_seed_mod_2_64(seed, idx):
    assert rng.path_key(seed, idx) == rng.path_key(seed + 2**64, idx)


@given(
    st.integers(min_value=0, max_value=2**63),
    st.integers(0, 1000),
    st.integers(1, 1000),
)
def test_uniform_draw_in_unit_interval(seed, idx, draw):
    v = rng.uniform_draw(rng.path_key(seed, idx), draw)
    assert 0.0 <= v < 1.0


def test_uniform_values_look_uniform():
    # crude but seeded, so the assertion is deterministic: mean of 1e4
    # uniforms should sit within 0.02 of 1/2
    keys = rng.path_keys(2024, 0, 100)
    block = _finished(rng.sign_block(keys, 1, 100))
    assert abs(float(block.mean()) - 0.5) < 0.02


# The SplitMix64 finalizer run backwards: each xorshift z ^= z >> s is undone
# by repeating it until the top bits have fed every lower one, and each
# multiply by the modular inverse of its odd constant.
_MIX_MULTIPLIERS = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def _unxorshift(z: int, s: int) -> int:
    x = z
    for _ in range(64 // s):
        x = z ^ (x >> s)
    return x


def _unpremix(z: int) -> int:
    """The counter whose first two finalizer rounds leave z."""
    for shift, mult in zip((27, 30), reversed(_MIX_MULTIPLIERS)):
        z = _unxorshift(z * pow(mult, -1, 2**64) & rng.MASK64, shift)
    return z


def _key_for_premix(z: int, draw: int) -> int:
    """A key whose draw `draw` leaves z after the first two rounds."""
    return (_unpremix(z) - draw * rng.DRAW_STRIDE) & rng.MASK64


def _key_for_draw(u: float, draw: int, low_bits: int = 0x5A5) -> int:
    """A key whose draw `draw` is exactly u, a multiple of 2^-53 in [0, 1)."""
    z = int(u * 2**53) << 11 | low_bits
    return _key_for_premix(_unxorshift(z, 31), draw)


_BOUNDARY_DRAWS = (0.0, 0.5 - 2**-53, 0.5, 1.0 - 2**-53)


def test_inverse_finalizer_builds_exact_draws():
    for u in _BOUNDARY_DRAWS:
        for draw in (1, 7, 2**40 + 3):
            assert rng.uniform_draw(_key_for_draw(u, draw), draw) == u


def _assert_signs_match_uniforms(keys, first_draw, count):
    u = _scalar_draws(keys, first_draw, count)
    signs = rng.sign_block(keys, first_draw, count)
    assert signs.shape == u.shape
    assert np.array_equal(np.signbit(signs), u >= 0.5)


def test_sign_block_matches_scalar_draws_at_the_boundary():
    # row r of the block is draw 5 + r: pin each boundary draw in each row
    keys = np.array(
        [_key_for_draw(u, 5 + r) for u in _BOUNDARY_DRAWS for r in range(3)],
        dtype=np.uint64,
    )
    u = _scalar_draws(keys, 5, 3)
    assert [u[i % 3, i] for i in range(keys.size)] == list(
        np.repeat(_BOUNDARY_DRAWS, 3)
    )
    _assert_signs_match_uniforms(keys, 5, 3)


def test_sign_block_matches_scalar_draws_on_random_keys():
    _assert_signs_match_uniforms(rng.path_keys(31, 0, 257), 1, 40)
    keys = np.array([2**64 - 1, 0, 2**63, 12345], dtype=np.uint64)
    _assert_signs_match_uniforms(keys, 2**40 + 3, 9)


def _assert_words_finish_to_uniforms(keys, first_draw, count):
    u = _scalar_draws(keys, first_draw, count)
    words = rng.sign_block(keys, first_draw, count).view(np.uint64)
    # the top 31 bits bound each draw, and finishing gives it bit for bit
    top = (words >> np.uint64(33)).astype(np.float64)
    assert (top * 2.0**-31 <= u).all() and (u < (top + 1.0) * 2.0**-31).all()
    finished = rng.finish_uniforms(words.ravel().copy()).reshape(u.shape)
    assert finished.tobytes() == u.tobytes()


def test_sign_block_words_finish_to_scalar_draws():
    keys = np.array(
        [_key_for_draw(u, 5 + r) for u in _BOUNDARY_DRAWS for r in range(3)],
        dtype=np.uint64,
    )
    _assert_words_finish_to_uniforms(keys, 5, 3)
    _assert_words_finish_to_uniforms(rng.path_keys(31, 0, 257), 1, 40)
    keys = np.array([2**64 - 1, 0, 2**63, 12345], dtype=np.uint64)
    _assert_words_finish_to_uniforms(keys, 2**40 + 3, 9)


@pytest.mark.parametrize("count", [1, 2, 3, 31, 32, 33, 64, 255])
def test_fills_match_scalar_draws_across_doubling(count):
    """Counters are loaded by doubling the filled rows, the last copy cut
    short where count is not a power of two; both fills agree with
    uniform_draw bit for bit, where the counters wrap past 2^64 too."""
    keys = np.array([2**64 - 1, 0, 2**63, 12345], dtype=np.uint64)
    steps = np.linspace(0.5, 2.0, count)
    for first in (1, 2**63 + 5, 2**64 - count):
        counters = [k + d * rng.DRAW_STRIDE for k in (2**64 - 1, 2**63)
                    for d in (first, first + count - 1)]
        assert min(counters) >= 2**64  # every one of these wraps
        out = np.full((count + 2, keys.size), -1.0)
        words = rng.sign_block(keys, first, count, out=out)
        _assert_block_matches_draws(words, keys, first)
        assert (out[count:] == -1.0).all()
        _assert_words_finish_to_uniforms(keys, first, count)
        u = _scalar_draws(keys, first, count)
        noise = rng.step_block(keys, first, steps, out=out)
        assert np.array_equal(noise, np.where(u < 0.5, 1.0, -1.0) * steps[:, None])
        assert (out[count:] == -1.0).all()


def test_empty_block():
    keys = rng.path_keys(3, 0, 4)
    assert rng.sign_block(keys, 7, 0).shape == (0, 4)
    assert rng.step_block(keys, 7, np.empty(0)).shape == (0, 4)


def test_sign_block_out_reuse_matches_allocating_form():
    keys = rng.path_keys(5, 0, 7)
    out = np.empty((8, 7))
    scratch = np.empty(8 * 7, dtype=np.uint64)
    got = rng.sign_block(keys, 9, 3, out=out, scratch=scratch)
    assert np.shares_memory(got, out)
    assert np.array_equal(_bits(got), _bits(rng.sign_block(keys, 9, 3)))
    with pytest.raises(ValueError):
        rng.sign_block(keys, 1, 9, out=out)
    with pytest.raises(ValueError):
        rng.sign_block(keys, 1, 8, out=out, scratch=scratch[:10])


def test_sign_block_out_refills_match_allocating_form():
    keys = rng.path_keys(5, 0, 7)
    out = np.empty((8, 7))
    scratch = np.empty(8 * 7, dtype=np.uint64)
    for first, count in ((1, 8), (9, 8), (17, 3)):
        got = rng.sign_block(keys, first, count, out=out, scratch=scratch)
        assert np.shares_memory(got, out)
        assert np.array_equal(_bits(got), _bits(rng.sign_block(keys, first, count)))


def _first_synthetic_moves(keys: np.ndarray, sigma2: float) -> np.ndarray:
    """Z_2 of the n family started at 0, stepped by draw 2 alone: the
    first move is the noise +-sqrt(sigma2)/sqrt(g_1), g_1 = 1."""
    proc = SyntheticProcess(big_gamma=1.0, sigma2=sigma2)
    *_, z = montecarlo._run_synthetic_chunk(proc, 2, keys, [1, 2])
    return z


def test_synthetic_kernel_steps_down_from_one_half():
    keys = np.array([_key_for_draw(u, 2) for u in _BOUNDARY_DRAWS], dtype=np.uint64)
    z = _first_synthetic_moves(keys, sigma2=2.25)
    # u = 0 and 0.5 - 2^-53 step up; u = 0.5 and 1 - 2^-53 step down
    assert z.tolist() == [1.5, 1.5, -1.5, -1.5]


# bit patterns that read as +-inf, quiet and signalling NaN, and subnormals
_SPECIAL_PATTERNS = (
    0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
    0xFFF4000000000001, 0x7FF0000000000001, 0x0000000000000001,
    0x8000000000000000,
)


def test_special_bit_patterns_raise_nothing():
    keys = np.array([_key_for_premix(z, 2) for z in _SPECIAL_PATTERNS], dtype=np.uint64)
    with np.errstate(all="raise"):
        signs = rng.sign_block(keys, 2, 1)
        _assert_signs_match_uniforms(keys, 2, 1)
        z = _first_synthetic_moves(keys, sigma2=2.25)
    assert signs[0].view(np.uint64).tolist() == list(_SPECIAL_PATTERNS)
    assert z.tolist() == [-1.5 if p >> 63 else 1.5 for p in _SPECIAL_PATTERNS]


def test_step_block_matches_np_copysign():
    """step_block's rows are np.copysign(steps, sign_block's block) bit for
    bit: a zero step gives -0.0 under a set sign bit, and words that read
    as NaN or inf only lend their sign."""
    words = (
        0, 1 << 63, 0x7FF0_0000_0000_0000, 0xFFF0_0000_0000_0000,
        0x7FF8_0000_0000_0001, 0xFFFF_FFFF_FFFF_FFFF, 0x8000_0000_0000_0001,
        0x3FE0_0000_0000_0000,
    )
    steps = np.array([0.0, 1.0, 5e-324, 1.7976931348623157e308])
    rows = steps.size
    # key 4 w + r leaves word w in row r, so every word meets every step
    pinned = [_key_for_premix(w, 5 + r) for w in words for r in range(rows)]
    keys = np.concatenate(
        [np.array(pinned, dtype=np.uint64), rng.path_keys(5, 0, 24)]
    )
    block = rng.sign_block(keys, 5, rows)
    assert [int(_bits(block)[i % rows, i]) for i in range(len(pinned))] == [
        w for w in words for _ in range(rows)
    ]
    want = np.copysign(steps[:, np.newaxis], block)
    got = rng.step_block(keys, 5, steps)
    assert _bits(got).tobytes() == _bits(want).tobytes()
    assert np.signbit(got[0, rows]) and got[0, rows] == 0.0


@given(st.floats(0.0, 1.0, exclude_min=True), st.floats(0.0, 1.0, exclude_min=True))
@example(lo=1.0, hi=1.0)
@example(lo=1.0 - 2.0**-53, hi=1.0 - 2.0**-40)
@example(lo=2.0**-53, hi=0.5)
def test_word_thresholds_bound_the_uniforms(lo, hi):
    """Every word below `below` finishes to a uniform < lo, every word
    above `above` to one >= hi, whatever its low 33 bits; thresholds
    that would pass 2^64 stay in range, and neither leaves undecided a
    whole top-31-bit bucket that it could decide."""
    below, above = np.empty(1, np.uint64), np.empty(1, np.uint64)
    rng.word_thresholds(np.array([lo]), np.array([hi]), below, above)
    below, above = int(below[0]), int(above[0])
    assert below % 2**33 == 0 and below <= (2**31 - 1) * 2**33
    assert above % 2**33 == 2**33 - 1
    # the bucket at `below` reaches lo, or is the top one
    assert (below >> 33) + 1 > lo * 2**31 or below >> 33 == 2**31 - 1
    # the bucket at `above` starts below hi
    assert above >> 33 < hi * 2**31
    low_bits = np.array([0, 2**33 - 1, 0x1_5555_5555], dtype=np.uint64)
    if below > 0:
        words = np.uint64(below - 2**33) | low_bits
        assert (rng.finish_uniforms(words) < lo).all()
    if above < 2**64 - 1:
        words = np.uint64(above + 1) | low_bits
        assert (rng.finish_uniforms(words) >= hi).all()
    else:
        assert math.ceil(hi * 2**31) == 2**31
