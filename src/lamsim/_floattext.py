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

Layout.  Every cell is 13 little-endian uint32 words; a NUL byte is an
absent one and is deleted when the block is joined:

    word 0       pad  '-'  '0'  d0     sign, the '0' of '0.000ddd', digit 0
    words 1-4    digits 1-16           integer part: digits j < L
    word 5       '.'  '0'  '0'  '0'    point, zeros after it when X < 0
    word 6       pad  pad  pad  d0     digit 0 of the fraction when L = 0
    words 7-10   digits 1-16           fraction: digits L <= j < nsig
    words 11-12  'e+XX[X]' and ','     exponent, comma (none in a row's
                                       last cell)

X is the decimal exponent of the rounded value, L the number of integer
digits (X + 1 in fixed notation with X >= 0, 0 when X < 0, 1 in
exponential notation), nsig the significant digits left after trailing
zeros are stripped.  Every word comes from ``np.take`` on small tables
(four-digit groups, masks by L and nsig, exponent text by X) into a
word-major array, which is transposed once into rows.
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
_WORDS = 13                         # uint32 words per cell


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(4, b"\0"), "little")


def _words(text: bytes) -> list[int]:
    text = text.ljust(-(-len(text) // 4) * 4, b"\0")
    return [_word(text[i:i + 4]) for i in range(0, len(text), 4)]


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

    def digit_mask(keep) -> list[int]:
        # bytes of group words 1..4 that hold a digit j with keep(j)
        return [sum(0xFF << 8 * b for b in range(4) if keep(4 * w + b + 1))
                for w in range(4)]

    tables = {
        "hi": hi, "lo": lo, "hi_hi": hi_hi, "hi_lo": hi - hi_hi,
        "group": ((digit + 0x30) << 8 * place).sum(axis=0).astype(np.uint32),
        "nsig_w": nsig_w,
        "int_mask": np.array([digit_mask(lambda j, L=L: j < L)
                              for L in range(18)], np.uint32).ravel(),
        "frac_mask": np.array([[digit_mask(lambda j, L=L, n=n: L <= j < n)
                                for n in range(18)] for L in range(18)],
                              np.uint32).ravel(),
        # index neg * 20 + (L > 0) * 10 + d0
        "lead": np.array([_word(bytes([0, neg * 0x2D, (1 - has) * 0x30,
                                       has * (0x30 + d)]))
                          for neg in (0, 1) for has in (0, 1)
                          for d in range(10)], np.uint32),
        # index (L == 0) * 10 + d0
        "frac_lead": np.array([is0 * (0x30 + d) << 24 for is0 in (0, 1)
                               for d in range(10)], np.uint32),
        # index (nsig > L) * 4 + zeros after the point
        "point": np.array([_word(b"." * dot + b"0" * z if dot else b"")
                           for dot in (0, 1) for z in range(4)], np.uint32),
        # index X + _X_OFF, plus 2 _X_OFF in a row's last cell
        "expo": np.array([_words((b"" if -4 <= x < 17 else b"e%+03d" % x)
                                 .ljust(5, b"\0") + b"," * (1 - end))
                          for end in (0, 1)
                          for x in range(-_X_OFF, _X_OFF)],
                         np.uint32).T.copy(),
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
    has_int = L > 0

    words = np.empty((_WORDS, nrows * ncols), np.uint32)
    np.take(tab["lead"], neg * 20 + has_int * 10 + d0, out=words[0])
    np.take(tab["frac_lead"], ~has_int * 10 + d0, out=words[6])
    del neg, has_int, d0
    zeros = np.where(fixed & (k < 0), -1 - k, 0)
    np.take(tab["point"], (nsig > L) * 4 + zeros, out=words[5])
    del fixed, zeros
    int_at = L * 4
    frac_at = (L * 18 + nsig) * 4
    del L, nsig
    for w, g in enumerate(groups):
        digits = np.take(tab["group"], g)
        words[1 + w] = digits & np.take(tab["int_mask"], int_at + w)
        words[7 + w] = digits & np.take(tab["frac_mask"], frac_at + w)
    del groups, g, digits, int_at, frac_at
    k += _X_OFF  # the exponent code
    k.reshape(nrows, ncols)[:, -1] += 2 * _X_OFF
    np.take(tab["expo"][0], k, out=words[11])
    np.take(tab["expo"][1], k, out=words[12])
    del k

    tail = np.array(_words(suffix.encode("ascii") + b"\n"), np.uint32)
    rows = np.empty((nrows, ncols * _WORDS + len(tail)), np.uint32)
    rows[:, :ncols * _WORDS].reshape(nrows, ncols, _WORDS)[...] = \
        words.reshape(_WORDS, nrows, ncols).transpose(1, 2, 0)
    del words
    rows[:, ncols * _WORDS:] = tail
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
