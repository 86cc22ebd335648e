"""Counter-based random numbers for order-independent parallel simulation.

Every uniform consumed anywhere in the package is a pure function of
(master_seed, path_index, draw_index), built from the SplitMix64 finalizer
over two Weyl sequences with distinct odd strides.  Path i therefore owns a
deterministic stream that can be generated in any order, in any chunking,
on any worker, and the ensemble output never depends on scheduling.

The generator is fixed per release; bit-exact streams are promised for a
given version of this module, not across versions.  Only this module knows
the layout of a draw's 64-bit word; uniform_draw is the scalar reference
that every vector function below reproduces.

sign_block fills a float64 (rows, paths) block, one row per draw index,
with each draw's word stopped after the finalizer's second multiply, in 7
passes over the block.  The last round, z ^= z >> 31, xors bits 0-32 only,
so bits 33-63 are final: bit 63 is set exactly when the draw
u = (z >> 11) * 2^-53 is >= 0.5, which step_block turns into +-step rows,
and the top 31 bits q give q * 2^-31 <= u < (q + 1) * 2^-31.  From them
word_thresholds decides most draws against bounds on their thresholds,
and finish_uniforms finishes the rest, bit-identical to uniform_draw.

Called with out= a fill writes into a caller-owned buffer instead of
returning a new one: out must be a C-contiguous float64 array with one
column per key and at least `count` rows; only its first `count` rows are
written, and the SplitMix64 state lives in their own memory, viewed as
uint64.  The shifts go through a uint64 scratch with at least
count * len(keys) elements, which the caller may pass as scratch= so that
refilling the same buffers allocates nothing of the block's size.  A buffer
of the wrong dtype, layout or size raises ValueError.  The values do not
depend on which form is used.

A fill starts from the block's counters, key + draw * DRAW_STRIDE mod 2^64,
loaded by doubling: row 0 from the keys, then rows m..2m-1 as rows 0..m-1
plus m * DRAW_STRIDE, one contiguous add each, about log2(count) adds in
all.  These are the same sums mod 2^64 as one broadcast add of the keys and
the draws' strides, which numpy runs without its contiguous fast loop.
"""
from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

# Weyl strides: golden-ratio stride for path keys, a second odd constant for
# the per-path draw counter so the two levels never share an orbit.
KEY_STRIDE = 0x9E3779B97F4A7C15
DRAW_STRIDE = 0xD1B54A32D192ED03

_U64_KEY_STRIDE = np.uint64(KEY_STRIDE)
_TO_UNIT = 2.0 ** -53
# the scale of a uniform's top 31 bits, which sign_block's words hold final
_TOP_BITS = 2.0 ** 31
# a float64's sign bit, read as uint64
_SIGN_BIT = np.uint64(1 << 63)


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijection with strong avalanche."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def path_key(master_seed: int, path_index: int) -> int:
    """Deterministic 64-bit key for one simulation path."""
    if path_index < 0:
        raise ValueError("path_index must be nonnegative")
    return mix64(master_seed + (path_index + 1) * KEY_STRIDE)


def uniform_draw(key: int, draw_index: int) -> float:
    """The draw_index-th uniform in [0,1) of the stream owned by key.

    draw_index is 1-based: draw j decides step j of a path.
    """
    z = mix64(key + draw_index * DRAW_STRIDE)
    return (z >> 11) * _TO_UNIT


def path_keys(master_seed: int, start: int, count: int) -> np.ndarray:
    """Vector of path keys for path indices start..start+count-1."""
    idx = np.arange(start + 1, start + 1 + count, dtype=np.uint64)
    z = np.uint64(master_seed & MASK64) + idx * _U64_KEY_STRIDE
    return _mix64_vec(z)


def sign_block(
    keys: np.ndarray,
    first_draw: int,
    count: int,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """The words of draws first_draw..first_draw+count-1 of several paths,
    whose sign bits tell whether each draw is at least 1/2.

    Returns shape (count, len(keys)).  Row r column i, read as a float64,
    has its sign bit set exactly when uniform_draw(keys[i], first_draw + r)
    >= 0.5, and may read as NaN or inf.  Read as a uint64 it is the draw's
    word, which word_thresholds and finish_uniforms read.  With out= the
    rows are written into out[:count], which is returned (see the module
    docstring for the buffer contract).
    """
    out, z, t = _counter_block(keys, first_draw, count, out, scratch)
    _premix64_vec(z, t)
    return out


def step_block(
    keys: np.ndarray,
    first_draw: int,
    steps: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """+-steps[r] for draw first_draw + r of several paths: row r column i
    is steps[r] where uniform_draw(keys[i], first_draw + r) < 0.5 and
    -steps[r] otherwise.

    steps is a 1-D float64 array of values >= 0, one per row.  Each entry
    equals np.copysign(steps[r], sign) bit for bit, so a zero step gives
    -0.0 under a set sign bit.  sign_block's shape and buffer contract,
    with len(steps) rows, in two uint64 passes more: keep each entry's sign
    bit, then or in its row's step, whose own sign bit is clear.
    """
    block = sign_block(keys, first_draw, steps.size, out=out, scratch=scratch)
    bits = block.view(np.uint64)
    bits &= _SIGN_BIT
    bits |= steps.view(np.uint64)[:, np.newaxis]
    return block


def word_thresholds(
    lo: np.ndarray, hi: np.ndarray, below: np.ndarray, above: np.ndarray
) -> None:
    """Turn bounds lo <= X <= hi, with 0 <= lo <= hi <= 1, into uint64
    thresholds on sign_block words: the draw u of every word < below has
    u < lo, and that of every word > above has u >= hi.  lo and hi are
    overwritten.

    A word's top 31 bits q give q 2^-31 <= u < (q+1) 2^-31.  So
    below = floor(lo 2^31) 2^33, capped at (2^31 - 1) 2^33 so that it fits
    uint64 (lo = 1.0 leaves the top bucket undecided), and
    above = ceil(hi 2^31) 2^33 - 1, which is 2^64 - 1, above every word,
    where hi 2^31 rounds up to 2^31.
    """
    np.multiply(lo, _TOP_BITS, out=lo)
    np.floor(lo, out=lo)
    np.minimum(lo, _TOP_BITS - 1, out=lo)
    np.copyto(below, lo, casting="unsafe")
    below <<= np.uint64(33)
    np.multiply(hi, _TOP_BITS, out=hi)
    np.ceil(hi, out=hi)
    hi -= 1.0
    np.copyto(above, hi, casting="unsafe")
    above <<= np.uint64(33)
    above |= np.uint64((1 << 33) - 1)


def finish_uniforms(words: np.ndarray) -> np.ndarray:
    """The draws u of sign_block words gathered into a 1-D uint64 array,
    uniform_draw's bit for bit: the finalizer's last round, then the
    int-to-float step.  The words are overwritten."""
    words ^= words >> np.uint64(31)
    words >>= np.uint64(11)
    return words * _TO_UNIT


def _counter_block(
    keys: np.ndarray,
    first_draw: int,
    count: int,
    out: np.ndarray | None,
    scratch: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check or allocate a block's buffers and load its counters.

    Returns out[:count], its uint64 view z holding key + draw * DRAW_STRIDE
    for every entry, and a uint64 scratch t shaped like z.
    """
    k = len(keys)
    if out is None:
        out = np.empty((count, k), dtype=np.float64)
    else:
        _check_buffer(out, np.float64, "out")
        if out.ndim != 2 or out.shape[1] != k or out.shape[0] < count:
            raise ValueError(
                f"out has shape {out.shape}, need at least ({count}, {k})"
            )
        out = out[:count]
    if scratch is None:
        scratch = np.empty(count * k, dtype=np.uint64)
    else:
        _check_buffer(scratch, np.uint64, "scratch")
        if scratch.size < count * k:
            raise ValueError(
                f"scratch holds {scratch.size} elements, need {count * k}"
            )
    t = scratch.reshape(-1)[: count * k].reshape(count, k)
    z = out.view(np.uint64)
    # row r is row r - m plus m strides: each add copies the filled rows on
    np.add(keys, np.uint64((int(first_draw) * DRAW_STRIDE) & MASK64), out=z[:1])
    m = 1
    while m < count:
        c = min(m, count - m)
        np.add(z[:c], np.uint64((m * DRAW_STRIDE) & MASK64), out=z[m : m + c])
        m += c
    return out, z, t


def _check_buffer(buf: np.ndarray, dtype, name: str) -> None:
    if not isinstance(buf, np.ndarray) or buf.dtype != dtype:
        raise ValueError(f"{name} must be a numpy {np.dtype(dtype)} array")
    if not buf.flags.c_contiguous:
        raise ValueError(f"{name} must be C-contiguous")


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on z in place."""
    _premix64_vec(z, np.empty_like(z))
    z ^= z >> np.uint64(31)
    return z


def _premix64_vec(z: np.ndarray, t: np.ndarray) -> None:
    """The finalizer's first two rounds on z in place, through uint64
    scratch t shaped like z: its bit 63 is final."""
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(0x94D049BB133111EB)
