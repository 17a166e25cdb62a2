"""Word-size arithmetic for congested-clique messages.

The model allows ``O(log n)`` bits per message; following Section 1.1 of the
paper, a matrix entry that needs ``b`` bits costs ``ceil(b / word_bits)``
words.  These helpers centralise that arithmetic so every algorithm charges
consistent (and honest) widths for the arrays it ships.
"""

from __future__ import annotations

import math

import numpy as np


def default_word_bits(n: int) -> int:
    """Word size, in bits, for a clique of ``n`` nodes.

    The model's word is ``Theta(log n)`` bits.  We use ``2 * ceil(log2 n)``
    (minimum 16) so that a constant number of node identifiers -- e.g. the
    ``(x, y, z)`` triple of a 2-walk record in the 4-cycle algorithm, or a
    relay header -- fits in one word, which is the standard convention.
    """
    if n < 1:
        raise ValueError(f"clique size must be positive, got {n}")
    return max(16, 2 * max(1, math.ceil(math.log2(max(2, n)))))


def int_bits(max_abs: int) -> int:
    """Bits needed for a sign-magnitude integer with ``|x| <= max_abs``."""
    if max_abs < 0:
        raise ValueError(f"max_abs must be non-negative, got {max_abs}")
    return 1 + max(1, int(max_abs).bit_length())


def words_for_value(max_abs: int, word_bits: int) -> int:
    """Words needed per integer entry with ``|x| <= max_abs``."""
    return max(1, math.ceil(int_bits(max_abs) / word_bits))


#: ``_POW2[k] == 2**k`` for ``k < 63``; used for an exact vectorised
#: ``int.bit_length`` (float ``log2`` is not trustworthy near ``2**62``).
_POW2 = 2 ** np.arange(63, dtype=np.int64)


def bit_lengths(values: np.ndarray) -> np.ndarray:
    """Vectorised ``int.bit_length`` for non-negative ``int64`` values.

    Exact for the full ``int64`` range: a value with bit length ``b``
    satisfies ``2**(b-1) <= v < 2**b``, so the number of powers of two
    ``<= v`` is exactly ``b`` (and ``0`` maps to ``0``).
    """
    values = np.asarray(values, dtype=np.int64)
    if np.any(values < 0):
        raise ValueError("bit_lengths expects non-negative values")
    return np.searchsorted(_POW2, values, side="right").astype(np.int64)


def words_for_values(max_abs: np.ndarray, word_bits: int) -> np.ndarray:
    """Vectorised :func:`words_for_value`: words per entry, elementwise.

    Agrees exactly with the scalar helper (property-tested), so batch
    widths equal the per-array widths of :func:`words_for_array`.
    """
    bits = 1 + np.maximum(1, bit_lengths(max_abs))
    return np.maximum(1, -(-bits // word_bits))


def block_widths(blocks: np.ndarray, word_bits: int) -> np.ndarray:
    """Per-piece word widths for a batch of equally-shaped pieces.

    ``blocks`` has shape ``(p, ...)``: ``p`` pieces of identical trailing
    shape.  Each piece is charged like :func:`words_for_array` charges a
    single array: ``size * words_for_value(max_abs(piece))``.
    """
    blocks = np.asarray(blocks)
    if blocks.ndim < 2:
        raise ValueError("block_widths expects a (pieces, ...) batch")
    if blocks.dtype == object:
        raise ValueError(
            "block_widths: object-dtype batch (pieces must be fixed-width "
            "integers, not Python objects)"
        )
    if np.issubdtype(blocks.dtype, np.inexact) and not np.isfinite(blocks).all():
        bad = int(np.nonzero(~np.isfinite(blocks.reshape(blocks.shape[0], -1)).all(axis=1))[0][0])
        raise ValueError(
            f"block_widths: non-finite entries (NaN/inf) in piece {bad} -- "
            "widths would be meaningless"
        )
    entries = int(np.prod(blocks.shape[1:]))
    if entries == 0:
        return np.zeros(blocks.shape[0], dtype=np.int64)
    flat = np.abs(blocks.reshape(blocks.shape[0], entries))
    return entries * words_for_values(flat.max(axis=1), word_bits)


def words_for_array(arr: np.ndarray, word_bits: int) -> int:
    """Total words needed to ship ``arr``, charging its true entry width.

    The width is uniform across the array (all entries charged at the width
    of the widest), which matches how the paper's algorithms transmit fixed-
    format submatrices.
    """
    arr = np.asarray(arr)
    if arr.size == 0:
        return 0
    if arr.dtype == np.bool_:
        max_abs = 1
    else:
        max_abs = int(np.max(np.abs(arr)))
    return int(arr.size) * words_for_value(max_abs, word_bits)


def word_blocks(node: int, blocks) -> np.ndarray:
    """Node ``node``'s piece stack as ``int64`` words, refusing non-words.

    Words are integers in this model: bool and integer dtypes (including
    the packed ``uint64`` bitsets, reinterpreted bit for bit) pass.  A
    float, complex or object block has no honest word encoding -- cast to
    ``int64`` it would silently truncate, or turn NaN into ``-2**63`` -- so
    it dies here with the offending node named.  An empty stack carries no
    words, so its dtype does not matter.
    """
    arr = np.asarray(blocks)
    if arr.dtype.kind not in "biu" and arr.size:
        raise ValueError(
            f"node {node}: {arr.dtype} blocks have no word encoding "
            "(ship bool or integer pieces)"
        )
    return arr.astype(np.int64, copy=False)


__all__ = [
    "default_word_bits",
    "int_bits",
    "bit_lengths",
    "words_for_value",
    "words_for_values",
    "words_for_array",
    "block_widths",
    "word_blocks",
]
