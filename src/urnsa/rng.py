"""Counter-based random numbers for order-independent parallel simulation.

Every uniform consumed anywhere in the package is a pure function of
(master_seed, path_index, draw_index), built from the SplitMix64 finalizer
over two Weyl sequences with distinct odd strides.  Path i therefore owns a
deterministic stream that can be generated in any order, in any chunking,
on any worker, and the ensemble output never depends on scheduling.

The generator is fixed per release; bit-exact streams are promised for a
given version of this module, not across versions.

uniform_block fills a float64 (rows, paths) block, one row per draw index.
Called with out= it writes into a caller-owned buffer instead of returning
a new one: out must be a C-contiguous float64 array with one column per key
and at least `count` rows; only its first `count` rows are written, and the
SplitMix64 state lives in their own memory, viewed as uint64.  The shifts go
through a uint64 scratch with at least count * len(keys) elements, which the
caller may pass as scratch= so that refilling the same buffers allocates
nothing of the block's size.  A buffer of the wrong dtype, layout or size
raises ValueError.  The values do not depend on which form is used.

Both fills start from the block's counters, key + draw * DRAW_STRIDE mod
2^64, loaded by doubling: row 0 from the keys, then rows m..2m-1 as rows
0..m-1 plus m * DRAW_STRIDE, one contiguous add each, about log2(count)
adds in all.  These are the same sums mod 2^64 as one broadcast add of
the keys and the draws' strides, which numpy runs without its contiguous
fast loop.

sign_block serves callers that need less than the finished draws, such
as whether each is below 1/2.  It takes the same arguments and buffers but
stops the finalizer after its second multiply, leaving each entry's sign
bit set exactly when uniform_block's draw would be >= 0.5.  That stop is
exact: the last round, z ^= z >> 31, xors a value whose bit 63 is 0, so it
never changes bit 63, and u = (z >> 11) * 2^-53 < 0.5 holds exactly when
bit 63 is 0.  Skipping that round and the int-to-float step leaves 7 of
uniform_block's 11 passes over the block.

More than the sign is final: z ^= z >> 31 xors bits 0-32 only, so bits
33-63 of each sign_block word, read as uint64, are the top 31 bits of the
finished word.  A caller may bound each draw from them alone, as
q * 2^-31 <= u < (q + 1) * 2^-31 with q = word >> 33, and finish only the
words it cannot decide that way with _finish_uniforms, bit-identical to
uniform_block.
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


def uniform_block(
    keys: np.ndarray,
    first_draw: int,
    count: int,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Uniforms for draws first_draw..first_draw+count-1 of several paths.

    Returns shape (count, len(keys)); row r column i equals
    uniform_draw(keys[i], first_draw + r) bit for bit.  With out= the rows
    are written into out[:count], which is returned (see the module
    docstring for the buffer contract).
    """
    out, z, t = _counter_block(keys, first_draw, count, out, scratch)
    _mix64_vec(z, t)
    # out and t never overlap, so the int-to-float multiply needs no copy
    np.right_shift(z, np.uint64(11), out=t)
    np.multiply(t, _TO_UNIT, out=out)
    return out


def sign_block(
    keys: np.ndarray,
    first_draw: int,
    count: int,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Whether each draw of uniform_block's block is at least 1/2, in the
    sign bits of a float64 block.

    Row r column i, read as a float64, has its sign bit set exactly when
    uniform_draw(keys[i], first_draw + r) >= 0.5, and may read as NaN or
    inf.  Read as a uint64, its bits 33-63 are those of the draw's finished
    word and its other bits are not.  Same shape and buffer contract as
    uniform_block, in 7 of its 11 passes (see the module docstring).
    """
    out, z, t = _counter_block(keys, first_draw, count, out, scratch)
    _premix64_vec(z, t)
    return out


def _finish_uniforms(words: np.ndarray) -> np.ndarray:
    """uniform_block's draws from sign_block words gathered into a 1-D
    uint64 array: the finalizer's last round, then the int-to-float step.
    The words are overwritten."""
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


def _mix64_vec(z: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer on z in place; t is uint64 scratch shaped like z."""
    if t is None:
        t = np.empty_like(z)
    _premix64_vec(z, t)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _premix64_vec(z: np.ndarray, t: np.ndarray) -> None:
    """The finalizer's first two rounds on z in place: its bit 63 is final."""
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(0x94D049BB133111EB)
