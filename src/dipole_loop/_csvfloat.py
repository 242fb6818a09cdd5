"""Float arrays as CSV text, byte-identical to "%.17e" cell by cell.

"%.17e" asks CPython's dtoa for 18 significant digits, past its 14-digit
floating-point fast path, so "%" formats every cell on the bignum path.
Here a block of cells is scaled in double-double arithmetic (Dekker,
Numer. Math. 18, 1971): for 1e-280 < |x| < 1e280, with E = floor(log10 |x|)
estimated, y = |x| 10^(17 - E) is found to within 1e-12 while y < 1e18.
Where floor(y) lies in [1e17, 1e18) and y is more than 1e-9 away from a
half-integer, round(y) is the 18-digit integer dtoa rounds to. Every other
cell (a zero, a subnormal, an extreme magnitude, a NaN or an infinity, an
exponent estimate one off, an exact or near tie at 18 digits, a rounding
that carries to 19 digits) is formatted one at a time by the caller's
cell rule (cli._cell, which applies "%.17e"). This module imports nothing
from cli: a command process runs cli as __main__, where an import of
dipole_loop.cli would execute the module a second time.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BLOCK", "text_blocks"]

BLOCK = 8192  # cells per block, which bounds the scratch arrays at about 2 MB
# a cell's slot: sign, d.ddddddddddddddddd, "e", exponent sign, three
# exponent digits, separator. Its length is even, so a slot is 13 uint16
# words, and each pair of mantissa digits is one word, taken from _PAIRS
_SLOT = 26
_SEP = _SLOT - 1
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)
_SPLITTER = 134217729.0  # 2^27 + 1: splits a double into two 26-bit halves (Veltkamp)


def _power(k: int) -> tuple:
    """10^k as a double-double (hi, lo), each part rounded from exact integers."""
    if k >= 0:
        n = 10**k
        hi = float(n)
        return hi, float(n - int(hi))
    d = 10**-k
    hi = 1 / d
    num, den = hi.as_integer_ratio()
    return hi, (den - num * d) / (den * d)  # 1/d - num/den, rounded once


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _block_text(x, sep, cell) -> str:
    """The text of the cells x, each followed by its separator byte in sep."""
    n = x.size
    a = np.abs(x)
    fast = (a > 1e-280) & (a < 1e280)  # False for NaN
    a = np.where(fast, a, 1.0)
    exp = np.floor(np.log10(a)).astype(np.int64)
    k = 17 - exp
    k0 = int(k.min())
    k -= k0
    power = np.zeros((int(k.max()) + 1, 2))
    need = np.flatnonzero(np.bincount(k))
    power[need] = [_power(k0 + i) for i in need.tolist()]
    p_hi, p_lo = power[k, 0], power[k, 1]
    # y = a (p_hi + p_lo) = p + t, with a p_hi - p exact (Dekker's product)
    p = a * p_hi
    a1, a2 = _split(a)
    b1, b2 = _split(p_hi)
    t = a2 * b2 - (((p - a1 * b1) - a2 * b1) - a1 * b2) + a * p_lo
    fast &= (p > 5e16) & (p < 5e18)  # p is then an integer, and p + t fits an int64
    whole = np.floor(t)
    frac = t - whole
    fast &= np.abs(frac - 0.5) > 1e-9
    digits = np.where(fast, p, 1e17).astype(np.int64) + whole.astype(np.int64)
    fast &= digits >= 10**17  # not so when the exponent estimate is one high
    digits += frac > 0.5
    # not so when it is one low, and for a carry to 10^18, which needs an
    # estimate one low within 5e-19 of a power of ten
    fast &= digits < 10**18
    digits[~fast] = 10**17

    slots = np.empty((n, _SLOT), np.uint8)
    words = slots.view(np.uint16)
    pairs = np.empty((9, n), np.intp)
    for j in range(8, 0, -1):
        high = digits // 100
        pairs[j] = digits - 100 * high
        digits = high
    pairs[0] = digits
    words[:, 1:10] = _PAIRS.take(pairs).T  # bytes 2-19: the 18 digits
    slots[:, 0] = ord("-")
    slots[:, 1] = slots[:, 2]
    slots[:, 2] = ord(".")
    slots[:, 20] = ord("e")
    slots[:, 21] = np.where(exp < 0, ord("-"), ord("+"))
    exp = np.abs(exp)
    words[:, 11] = _PAIRS.take(exp // 10)  # bytes 22-23: hundreds and tens
    slots[:, 24] = exp % 10 + ord("0")
    slots[:, _SEP] = sep
    keep = np.ones((n, _SLOT), bool)
    keep[:, 0] = x < 0
    keep[:, 22] = exp >= 100
    slow = np.flatnonzero(~fast)
    if slow.size:
        # "%.17e" text is at most 25 bytes; NUL pads it to the separator
        cells = b"".join(cell(v).encode().ljust(_SEP, b"\0") for v in x[slow].tolist())
        slots[slow, :_SEP] = np.frombuffer(cells, np.uint8).reshape(-1, _SEP)
        keep[slow, :_SEP] = slots[slow, :_SEP] != 0
    return slots[keep].tobytes().decode("ascii")


def text_blocks(rows, cell):
    """Yield the CSV text of a 2-d float array, one block of cells at a time.

    cell(v) is the text of a cell the kernel cannot decide, and must be
    "%.17e" % v. A block may end inside a row: each cell carries its own
    separator, "," or "\\n" after a row's last column.
    """
    rows = np.asarray(rows, dtype=np.float64)
    ncols = rows.shape[1]
    cells = rows.reshape(-1)
    for start in range(0, cells.size, BLOCK):
        x = cells[start:start + BLOCK]
        last = np.arange(start, start + x.size) % ncols == ncols - 1
        yield _block_text(x, np.where(last, ord("\n"), ord(",")), cell)
