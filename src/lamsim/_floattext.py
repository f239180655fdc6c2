"""Byte-exact ``'%.17g'`` text for blocks of float rows, built with numpy.

``float_rows(block, suffix)`` returns the same string as formatting every
cell of the 2-D float array with ``'%.17g'``, joining a row's cells with
``,`` and ending it with ``suffix + "\\n"``, but with no Python call per
cell.

Digits.  For |x| in [1e-280, 1e280] let k = floor(log10 |x|).  The 17
significant digits are the integer nearest to V = |x| 10^(16-k), in
[10^16, 10^17).  V is formed as a double-double product: 10^p is tabulated
as hi + lo from exact fractions, and x hi is split exactly with Dekker's
product (Veltkamp splits).  Since 10^16 > 2^53 the rounded product is an
integer, so V is that integer plus a small remainder known to about 1e-14.
If the truncated V falls outside [10^16, 10^17), k was off by one (log10
rounds near powers of ten) and V is formed again; deciding this on the
rounded V would print 9.9999999999999998e-262 as 1e-261.  A rounding carry
to 10^17 is 10^16 with k + 1.

Fallback.  A row goes through ``'%.17g' % x`` cell by cell when one of its
cells is not finite, lies outside [1e-280, 1e280] (zero excepted), or has a
remainder within 1e-6 of one half, exact ties included.  Everywhere else
the rounding is decided with a margin far above the error of V, so the
text equals Python's correctly rounded conversion (Gay, 1990).

Layout.  Every cell is four little-endian uint64 lanes, 32 bytes; a NUL
byte is an absent one and is deleted when the block is joined:

    lane 0     '-'  '0.000'  d0  '.'   sign; '0.' and 0-3 zeros when X < 0;
                                      digit 0; the point when L = 1 < nsig
    lanes 1-2  digits 1-16            cut after digit max(nsig, L) - 1
    lane 3     'e+XX[X]'  ','         exponent, comma (none in a row's
                                      last cell)

X is the decimal exponent of the rounded value, L the number of integer
digits (X + 1 in fixed notation with X >= 0, 0 when X < 0, 1 in
exponential notation), nsig the significant digits left after trailing
zeros are stripped.  Lanes 0 and 3 are one ``np.take`` each from a small
table, lanes 1-2 two takes each from the four-digit groups and one from a
byte mask.  When L >= 2 and nsig > L (fixed notation, |x| >= 10 with a
fraction) the point falls inside the digits: on those cells only, the
bytes of lanes 1-3 from position L - 1 on move up by one, carrying across
lanes, and '.' fills the gap.  The lanes are built lane-major and
transposed once into rows.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_SPLIT = 2.0 ** 27 + 1.0            # Veltkamp's constant for float64
_P_MIN, _P_MAX = -270, 300          # exponents p of the 10^p table
_X_MIN, _X_MAX = 1e-280, 1e280      # fast-path range of |x|
_TIE = 1e-6                         # remainders this close to 1/2 fall back
_E16, _E17 = 10 ** 16, 10 ** 17
_X_OFF = 300                        # exponent text covers X in +-_X_OFF
_LANES = 4                          # uint64 lanes per cell
_DOTS = int.from_bytes(b"." * 8, "little")


def _lanes(text: bytes) -> list[int]:
    """text, NUL-padded to one or more whole lanes, as little-endian
    uint64 lanes."""
    text = text.ljust(max(1, -(-len(text) // 8)) * 8, b"\0")
    return [int.from_bytes(text[i:i + 8], "little")
            for i in range(0, len(text), 8)]


@lru_cache(maxsize=1)
def _tables() -> dict[str, np.ndarray]:
    """Every table of the kernel, built on first use (about 10 ms)."""
    from fractions import Fraction  # only here: keeps importing cli light

    exact = [Fraction(10) ** p for p in range(_P_MIN, _P_MAX + 1)]
    hi = np.array([float(f) for f in exact])
    lo = np.array([float(f - Fraction(h)) for f, h in zip(exact, hi)])
    t = _SPLIT * hi
    hi_hi = t - (t - hi)
    g = np.arange(10000)
    digit = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10])
    place = np.arange(4)[:, None]
    # 1-based place of a group's last nonzero digit, 0 for the group 0
    last = np.max(np.where(digit > 0, place + 1, 0), axis=0)
    # nsig_w[w][g]: significant digits of the 17 when group w + 1 is the
    # last one with a nonzero digit; 0 when g = 0
    nsig_w = np.where(last > 0, 4 * place + 1 + last, 0)

    tables = {
        "hi": hi, "lo": lo, "hi_hi": hi_hi, "hi_lo": hi - hi_hi,
        "group": ((digit + 0x30) << 8 * place).sum(axis=0).astype(np.uint64),
        "nsig_w": nsig_w,
        # mask[i][n]: the bytes of lane 1 + i below byte n of lanes 1-3
        "mask": np.array([_lanes(b"\xff" * n + b"\0" * (24 - n))
                          for n in range(17)], np.uint64).T.copy(),
        # index ((neg * 5 + zeros) * 10 + d0) * 2 + point, where zeros is
        # 1 + the zeros after '0.' when X < 0 and 0 otherwise
        "lead": np.array([_lanes(b"-" * neg + b"0.000"[:z + 1] * (z > 0)
                                 + b"%d" % d + b"." * dot)[0]
                          for neg in (0, 1) for z in range(5)
                          for d in range(10) for dot in (0, 1)], np.uint64),
        # index X + _X_OFF, plus 2 _X_OFF in a row's last cell
        "expo": np.array([_lanes((b"" if -4 <= x < 17 else b"e%+03d" % x)
                                 + b"," * (1 - end))[0]
                          for end in (0, 1)
                          for x in range(-_X_OFF, _X_OFF)], np.uint64),
    }
    for table in tables.values():
        table.flags.writeable = False  # shared by every call
    return tables


def _scaled(x: np.ndarray, k: np.ndarray, tab: dict):
    """floor(x 10^(16 - k)) as int64, and the fraction it leaves."""
    i = 16 - _P_MIN - k
    b, b_hi, b_lo = (np.take(tab[n], i) for n in ("hi", "hi_hi", "hi_lo"))
    p = x * b
    t = _SPLIT * x
    x_hi = t - (t - x)
    x_lo = x - x_hi
    err = ((x_hi * b_hi - p) + x_hi * b_lo + x_lo * b_hi) + x_lo * b_lo
    whole = np.floor(p)
    rest = (p - whole) + (err + x * np.take(tab["lo"], i))
    carry = np.floor(rest)
    return (whole.astype(np.int64) + carry.astype(np.int64)), rest - carry


def float_rows(block: np.ndarray, suffix: str) -> str:
    """Rows of ``block`` (2-D float64) as ``'%.17g'`` cells joined by ``,``,
    each row ended by ``suffix + "\\n"``; ``suffix`` is ASCII without a
    newline."""
    tab = _tables()
    nrows, ncols = block.shape
    # Every intermediate is freed as soon as the words no longer need it.
    x = np.abs(block).ravel()
    neg = np.signbit(block).ravel()
    zero = x == 0.0
    fast = (x >= _X_MIN) & (x <= _X_MAX)
    x = np.where(fast, x, 1.0)
    k = np.floor(np.log10(x)).astype(np.int64)
    d, frac = _scaled(x, k, tab)
    off = np.flatnonzero((d < _E16) | (d >= _E17))
    if off.size:
        k[off] += np.where(d[off] < _E16, -1, 1)
        d[off], frac[off] = _scaled(x[off], k[off], tab)
    del x, off
    d += frac > 0.5
    k += d == _E17
    d[d == _E17] = _E16
    bad = ((~fast & ~zero) | (np.abs(frac - 0.5) < _TIE)
           | (d < _E16) | (d >= _E17))
    clear = zero | bad
    del fast, frac, zero
    d[clear] = 0
    k[clear] = 0
    del clear

    d0 = d // _E16
    d -= d0 * _E16
    groups = []
    for scale in (10 ** 12, 10 ** 8, 10 ** 4):
        groups.append(d // scale)
        d -= groups[-1] * scale
    groups.append(d)
    del d
    nsig = np.ones_like(d0)
    for w, g in enumerate(groups):
        np.maximum(nsig, np.take(tab["nsig_w"][w], g), out=nsig)
    fixed = (k >= -4) & (k < 17)
    L = np.where(fixed, np.maximum(k + 1, 0), 1)

    lanes = np.empty((_LANES, nrows * ncols), np.uint64)
    zeros = np.where(fixed & (k < 0), -k, 0)
    np.take(tab["lead"], ((neg * 5 + zeros) * 10 + d0) * 2
            + ((L == 1) & (nsig > 1)), out=lanes[0])
    del neg, zeros, d0, fixed
    cut = np.maximum(nsig, L) - 1
    for i in (1, 2):
        np.take(tab["group"], groups[2 * i - 2], out=lanes[i])
        lanes[i] |= np.take(tab["group"], groups[2 * i - 1]) << 32
        lanes[i] &= np.take(tab["mask"][i - 1], cut)
    del groups, cut
    k += _X_OFF  # the exponent code
    k.reshape(nrows, ncols)[:, -1] += 2 * _X_OFF
    np.take(tab["expo"], k, out=lanes[3])
    del k
    # the point inside the digits, at byte L - 1 of lanes 1-3
    at = np.flatnonzero((L >= 2) & (nsig > L))
    if at.size:
        at_byte = L[at] - 1
        carry = 0
        for i, mask in enumerate(tab["mask"], 1):
            keep = np.take(mask, at_byte)
            point = (np.take(mask, at_byte + 1) & ~keep) & _DOTS
            lane = lanes[i, at]
            up = lane & ~keep
            lanes[i, at] = (lane & keep) | (up << 8) | carry | point
            carry = up >> 56
    del L, nsig, at

    tail = np.array(_lanes(suffix.encode("ascii") + b"\n"), np.uint64)
    rows = np.empty((nrows, ncols * _LANES + len(tail)), np.uint64)
    rows[:, :ncols * _LANES].reshape(nrows, ncols, _LANES)[...] = \
        lanes.reshape(_LANES, nrows, ncols).transpose(1, 2, 0)
    del lanes
    rows[:, ncols * _LANES:] = tail
    bad_rows = np.flatnonzero(bad.reshape(nrows, ncols).any(axis=1))
    rows[bad_rows] = 0
    raw = rows.tobytes()
    del rows
    raw = raw.translate(None, b"\0")
    text = raw.decode("ascii")
    del raw
    if not bad_rows.size:
        return text
    lines = text.split("\n")[:-1]
    template = ",".join(["%.17g"] * ncols) + suffix
    for r in bad_rows:
        lines.insert(r, template % tuple(block[r].tolist()))
    return "\n".join(lines) + "\n"
