"""CSV rows at array speed, byte for byte what ``%`` formatting writes.

:func:`csv_rows` formats a block of columns, a column of integers in
``'%d'`` and any other in ``'%.17g'``.  Its kernel, :func:`_g17_text`,
finds each value's 17 significant digits by scaling it by a power of ten
in double-double arithmetic and lays them out by ``%g``'s rules with shifts
of little-endian words of characters; the few values it cannot place
exactly go to ``%`` one by one.  A block too small to repay the kernel's
fixed cost is formatted row by row.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

_U64 = np.uint64
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter of a double into two halves
_DOTS = _U64(0x2E2E2E2E2E2E2E2E)  # "." in every byte
_WORD = np.arange(4)[:, None]

# Cells below which :func:`csv_rows` formats a block row by row: the array
# kernel costs about 150 us a call whatever the block's size.  Five-column
# blocks of 16, 64, 128 and 256 rows took 36, 140, 280 and 559 us row by row
# and 162, 215, 282 and 420 us in the kernel (medians of 300, 2-core Xeon).
_FEW_CELLS = 640


def _split(a):
    """Dekker's split ``a = hi + lo`` into halves of 26 bits, whose products
    are exact."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _text_words(strings) -> np.ndarray:
    """Strings of at most 8 bytes as little-endian words, the first
    character in the lowest byte."""
    return np.array([int.from_bytes(t.encode(), "little") for t in strings], _U64)


@functools.cache
def _g17_tables():
    """The tables of :func:`_g17_text`, built on its first call: ``10**k``
    for ``k = -290..290`` as the double-double ``hi + lo`` (from Python
    integers, so exact to rounding), with ``hi`` split; every four-digit
    group as characters and its count of trailing zeros (four for 0000);
    masks of the low ``b`` bytes of a four-word string, one row per word;
    the exponent suffixes ``e-330`` to ``e+330`` and their bit lengths."""
    powers = []
    for k in range(-290, 291):
        hi = float(10**k) if k >= 0 else 1 / 10**-k
        num, den = hi.as_integer_ratio()
        lo = (10**k * den - num) / den if k >= 0 else (den - num * 10**-k) / (den * 10**-k)
        powers.append((hi, lo))
    hi, lo = np.array(powers).T
    q = np.arange(10000, dtype=_U64)
    quads = sum((q // _U64(10**i) % _U64(10) + _U64(48)) << _U64(24 - 8 * i) for i in range(4))
    trailing = sum((q % _U64(10**i) == 0).astype(int) for i in range(1, 5))
    masks = (_U64(1) << 8 * np.clip(np.arange(33) - 8 * _WORD, 0, 8).astype(_U64)) - _U64(1)
    zeros = _text_words(["0" * k for k in range(5)]) << _U64(8)
    suffixes = [f"e{x:+03d}" for x in range(-330, 331)]
    bits = np.array([8 * len(t) for t in suffixes], _U64)
    tables = (np.stack([hi, *_split(hi), lo]), quads, trailing, masks, zeros, _text_words(suffixes), bits)
    for t in tables:
        t.setflags(write=False)
    return tables[0], tables[1:]


def _scaled(a: np.ndarray, x: np.ndarray):
    """``a * 10**(16 - x)`` as a double-double ``hi + lo``: the exact product
    of ``a`` with the power's ``hi`` (Dekker's two-product) plus ``a`` times
    its ``lo``."""
    p_hi, p_hh, p_hl, p_lo = np.take(_g17_tables()[0], 306 - x, axis=1)  # column 290 + (16 - x)
    prod = a * p_hi
    a_h, a_l = _split(a)
    err = ((a_h * p_hh - prod) + a_h * p_hl + a_l * p_hh) + a_l * p_hl + a * p_lo
    hi = prod + err
    return hi, err - (hi - prod)


def _significands(v: np.ndarray):
    """The 17 significant digits ``N`` (an integer in ``[1e16, 1e17)``, 0
    for zero) and the decimal exponent ``X`` of each ``|v|``, with the mask
    of the values left to ``'%'``.

    A finite ``|v|`` in ``[1e-270, 1e290]`` is scaled by ``10**(16 - X)``,
    ``X = floor(log10 |v|)``, as a double-double ``S = hi + lo`` accurate
    to about 1e-15; ``X`` is corrected until ``1e16 <= S < 1e17``, comparing
    ``hi + lo``, not ``hi`` alone, and ``N = hi + round(lo)`` (``hi`` is a
    whole number there).  A value within 1e-6 of a rounding tie is left to
    ``'%'``, as are the values outside that range, infinities and NaN."""
    a = np.abs(v)
    exact = (a >= 1e-270) & (a <= 1e290)
    a = np.where(exact, a, 1.0)
    x = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, x)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        x[fix] += high[fix].astype(np.int64) - low[fix]
        hi[fix], lo[fix] = _scaled(a[fix], x[fix])
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = n == 10**17
    n[carry] = 10**16
    x += carry
    zero = v == 0.0
    n[zero] = 0
    x[zero] = 0
    return n, x, ~(exact | zero) | (np.abs(lo - np.floor(lo) - 0.5) < 1e-6)


def _digit_words(n: np.ndarray):
    """The 17 digits of each ``n`` as characters in the low 17 bytes of
    four little-endian words, the words along the first axis, and the count
    of digits up to the last nonzero one (1 for zero)."""
    quads, trailing = _g17_tables()[1][:2]
    b, c = np.divmod(n, 10**8)
    lead, b = np.divmod(b, 10**8)
    b1, b2 = np.divmod(b, 10**4)
    c1, c2 = np.divmod(c, 10**4)
    tz = trailing[c2]
    more = c2 == 0
    for group in (c1, b2, b1):
        tz += more * trailing[group]
        more &= group == 0
    high = quads[b1] | quads[b2] << _U64(32)
    low = quads[c1] | quads[c2] << _U64(32)
    digits = np.zeros((4, n.size), _U64)
    digits[0] = (lead + 48).astype(_U64) | high << _U64(8)
    digits[1] = high >> _U64(56) | low << _U64(8)
    digits[2] = low >> _U64(56)
    return digits, np.where(n == 0, 1, 17 - tz)


def _g17_text(v: np.ndarray, seps: np.ndarray):
    """The ``'%.17g'`` text of each value of ``v``, followed by its
    separator byte ``seps``, as four little-endian words of characters per
    value (the words along the first axis; zero bytes are to be dropped),
    and the mask of the values left to ``'%'`` (see :func:`_significands`).

    The digits are laid out by ``%g``'s rules: the exponent form when
    ``X < -4`` or ``X >= 17``, trailing zeros and a bare point dropped, the
    exponent of at least two digits with its sign.  Byte 0 holds the sign,
    bytes 1 on the digits, after ``k`` zeros for ``0.0..0ddd``; the digits
    after digit ``xp`` move up a byte for the point, and the exponent and
    separator go after the last digit shown.  Every move is a shift of the
    words."""
    n, x, left = _significands(v)
    digits, m = _digit_words(n)
    masks, zeros, suffixes, bits = _g17_tables()[1][2:]
    expo = (x < -4) | (x >= 17)
    k = np.where(~expo & (x < 0), -x, 0)
    shift = (8 * k + 8).astype(_U64)
    text = digits  # shifted in place, as every step below
    carry = text[:-1] >> (_U64(64) - shift)
    text <<= shift
    text[1:] |= carry
    text[0] |= zeros[k]
    xp = np.where(expo | (k > 0), 0, x)
    nd = np.maximum(m + k, xp + 1)  # digits shown
    end = nd + 2  # the sign, the digits and the point
    head = np.take(masks, xp + 2, axis=1)
    tail = text.copy()
    text &= head
    tail ^= text
    carry = tail[:-1] >> _U64(56)
    tail <<= _U64(8)
    tail[1:] |= carry
    text |= tail
    point = np.take(masks, xp + 3, axis=1)
    point ^= head
    point &= _DOTS * (nd > xp + 1)
    text |= point
    text &= np.take(masks, end, axis=1)
    text[0] |= np.signbit(v) * _U64(ord("-"))
    i = np.where(expo, x + 330, 0)
    suffix = np.where(expo, suffixes[i] | seps << bits[i], seps)
    word, shift = np.divmod(end, 8)
    shift = (8 * shift).astype(_U64)
    text |= np.where(_WORD == word, suffix << shift, 0)
    text[1:] |= np.where(_WORD[1:] == word + 1, suffix >> (_U64(64) - shift), 0)
    return text, left


def csv_rows(columns: Sequence[np.ndarray]) -> bytes:
    """The CSV rows of the equal-length one-dimensional arrays ``columns``,
    a column of integers in ``'%d'`` and any other in ``'%.17g'``, byte for
    byte.  A block of at least :data:`_FEW_CELLS` cells is formatted by
    :func:`_g17_text` (an integer of at most 2**53 converts to a float
    exactly, and its ``'%.17g'`` is its ``'%d'``), and the values that
    kernel leaves one by one; a smaller one row by row."""
    columns = [np.asarray(c) for c in columns]
    formats = ["%d" if c.dtype.kind in "iu" else "%.17g" for c in columns]
    if len(columns) * len(columns[0]) < _FEW_CELLS:
        row = ",".join(formats) + "\n"
        return "".join([row % r for r in zip(*[c.tolist() for c in columns])]).encode()
    values = np.stack(columns, axis=1, dtype=float)
    for j, c in enumerate(columns):
        if formats[j] == "%d":
            values[(c < -(2**53)) | (c > 2**53), j] = np.nan
    seps = np.full(len(columns), ord(","), _U64)
    seps[-1] = ord("\n")
    text, left = _g17_text(values.ravel(), np.tile(seps, len(values)))
    out = np.ascontiguousarray(text.T, dtype="<u8").view(np.uint8)
    for i in np.flatnonzero(left):
        r, j = divmod(int(i), len(columns))
        cell = (formats[j] % columns[j][r]).encode() + bytes([int(seps[j])])
        out[i] = 0
        out[i, : len(cell)] = np.frombuffer(cell, np.uint8)
    return out[out != 0].tobytes()
