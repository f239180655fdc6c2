"""Byte-exact ``'%.17g'`` text for blocks of float rows, built with numpy.

A formatter, ``FloatRows()``, called on a 2-D float array and a suffix,
returns the ASCII bytes (a uint8 array) of formatting every cell with
``'%.17g'``, joining a row's cells with ``,`` and ending it with
``suffix + "\\n"``, but with no Python call per cell.

Digits.  For |x| in [1e-280, 1e280] let k = floor(log10 |x|).  The 17
significant digits are the integer nearest to V = |x| 10^(16-k), in
[10^16, 10^17).  V is formed as a double-double product: 10^p is tabulated
as hi + lo from exact fractions, and x hi is split exactly with Dekker's
product (Veltkamp splits).  Since 10^16 > 2^53 the rounded product is an
integer, so V is that integer plus a small remainder known to about 1e-14.
If the truncated V falls outside [10^16, 10^17), k was off by one (log10
rounds near powers of ten); deciding this on the rounded V would print
9.9999999999999998e-262 as 1e-261.  A rounding carry to 10^17 is 10^16
with k + 1.

Fallback.  A row goes through ``'%.17g' % x`` cell by cell when one of its
cells is not finite, lies outside [1e-280, 1e280] (zero excepted), has a
first exponent estimate k that is off by one, or has a remainder within
1e-6 of one half, exact ties included.  Everywhere else the rounding is
decided with a margin far above the error of V, so the text equals
Python's correctly rounded conversion (Gay, 1990).

Layout.  Every cell is four little-endian uint64 lanes, 32 bytes; a NUL
byte is an absent one and is deleted when the block is joined:

    lane 0     '-'  '0.000'  d0  '.'   sign; '0.' and 0-3 zeros when X < 0;
                                      digit 0; the point when L = 1 < nsig;
                                      right-aligned
    lanes 1-2  digits 1-16            cut after digit max(nsig, L) - 1
    lane 3     'e+XX[X]'  ','         exponent, comma (none in a row's
                                      last cell)

X is the decimal exponent of the rounded value, L the number of integer
digits (X + 1 in fixed notation with X >= 0, 0 when X < 0, 1 in
exponential notation), nsig the significant digits left after trailing
zeros are stripped.  Lane 0 is right-aligned so that its text runs on
into the digits: a cell's padding is then one NUL run after its digits
and one after its comma, which joins the next cell's lane-0 padding.
What follows from k and nsig alone (L, the zeros after '0.', where the
point goes, the digits' cut) is read from small tables indexed by the
cell's code, k clipped to [-5, 17] and nsig, with nsig 0 coding a zero
cell.  Lanes
0 and 3 are one ``np.take`` each from a small table, lanes 1-2 two takes
each from the four-digit groups and one from a byte mask.  When L >= 2
and nsig > L (fixed notation, |x| >= 10 with a fraction) the point falls
inside the digits: on those cells only, the bytes of lanes 1-3 from
position L - 1 on move up by one, carrying across lanes, and '.' fills
the gap.  The lanes are built lane-major and transposed once into rows.

Join.  A row that falls back has its text written over its lanes, NUL
padded (a cell's text takes at most 25 of its 32 bytes).  The NUL bytes
are then dropped by one boolean mask over the rows' bytes, ``raw[raw !=
0]``, which numpy copies run by run of kept bytes, so its cost follows
the number of runs (two a cell); that copy runs without the GIL, as do
the other whole-block steps, and the joined bytes are the one new array
of a call.

Buffers.  Every whole-block intermediate is written with ``out=`` or in
place into arrays the formatter holds: the rows, five cell-sized arrays
and five cell-sized flags (1.6 MiB for a 2048 x 10 block), allocated for
its first block and grown only for a larger one; only the steps on a few
cells (the point inside the digits, the fallback rows) take small arrays
of their own.  The rows' memory is scratch until the rows are written,
and the five arrays take the lanes, then the byte mask.  Two formatters
can so run on two threads, block against block, which is how ``lamsim
propagate`` uses them; one formatter formats one block at a time.
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
_K_LO, _K_HI = -5, 17               # k range of a cell's code
_NSIG = 18                          # nsig slots of a cell's code
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
    # lane 0's texts in the order of its index, below
    leads = (b"-" * neg + (b"0" if z == 5 else b"0.000"[:z + 1] * (z > 0)
                           + b"%d" % d + b"." * dot)
             for z in range(6) for dot in (0, 1)
             for neg in (0, 1) for d in range(10))

    tables = {
        "hi": hi, "lo": lo, "hi_hi": hi_hi, "hi_lo": hi - hi_hi,
        "group": ((digit + 0x30) << 8 * place).sum(axis=0).astype(np.uint64),
        # nsig[g]: significant digits of the 17 when g is the last digit
        # group and not 0, 0 when g = 0; nsig[g] - 4 (3 - w) when g is
        # group w and the groups after it are 0
        "nsig": np.where(last > 0, 13 + last, 0),
        # mask[i][n]: the bytes of lane 1 + i below byte n of lanes 1-3
        "mask": np.array([_lanes(b"\xff" * n + b"\0" * (24 - n))
                          for n in range(17)], np.uint64).T.copy(),
        # index ((zeros * 2 + point) * 2 + neg) * 10 + d0, where zeros is
        # 1 + the zeros after '0.' when X < 0, 0 otherwise and 5 in a zero
        # cell (written '0' whatever d0); right-aligned in the lane
        "lead": np.array([int.from_bytes(text.rjust(8, b"\0"), "little")
                          for text in leads], np.uint64),
        # index X + _X_OFF, plus 2 _X_OFF in a row's last cell
        "expo": np.array([_lanes((b"" if -4 <= x < 17 else b"e%+03d" % x)
                                 + b"," * (1 - end))[0]
                          for end in (0, 1)
                          for x in range(-_X_OFF, _X_OFF)], np.uint64),
    }
    tables.update(_code_tables(tables["mask"]))
    for table in tables.values():
        table.flags.writeable = False  # shared by every call
    return tables


def _code_tables(mask: np.ndarray) -> dict[str, np.ndarray]:
    """The tables indexed by a cell's code (k - _K_LO) _NSIG + nsig, k
    clipped to [_K_LO, _K_HI] (fixed notation is -4 <= k < 17, so no k
    outside tells more): its lead index base (zeros 2 + point) 2, the
    byte masks of lanes 1-2 cut after digit max(nsig, L) - 1, and whether
    its point falls inside the digits (L >= 2 and nsig > L).  nsig 0
    codes a zero cell."""
    k = np.arange(_K_LO, _K_HI + 1)[:, None]
    nsig = np.arange(_NSIG)[None, :]
    fixed = (k >= -4) & (k < 17)
    L = np.where(fixed, np.maximum(k + 1, 0), 1)
    cut = np.maximum(nsig, L) - 1
    zeros = np.where(nsig == 0, 5, np.where((k >= -4) & (k < 0), -k, 0))
    point = (L == 1) & (cut > 0)
    return {"base": ((zeros * 2 + point) * 2).ravel(),
            "cut": mask[:2, cut.ravel()],
            "inside": ((L >= 2) & (nsig > L)).ravel()}


def _scaled(x, k, d, w, tab: dict) -> np.ndarray:
    """floor(x 10^(16 - k)) into the int64 ``d``, and the fraction it
    leaves, returned in ``w[5]``; ``w`` is six float64 work arrays of x's
    length.  The double-double sums run in the order of the formula."""
    i = d  # the table index, until d is written
    np.subtract(16 - _P_MIN, k, out=i)
    p, hi, lo, b_hi, b_lo, err = w
    np.take(tab["hi"], i, out=p, mode="clip")
    p *= x                                           # p = x b
    np.multiply(_SPLIT, x, out=hi)                   # t
    np.subtract(hi, x, out=lo)
    np.subtract(hi, lo, out=hi)                      # x_hi = t - (t - x)
    np.subtract(x, hi, out=lo)                       # x_lo
    np.take(tab["hi_hi"], i, out=b_hi, mode="clip")
    np.take(tab["hi_lo"], i, out=b_lo, mode="clip")
    np.multiply(hi, b_hi, out=err)
    err -= p
    np.multiply(hi, b_lo, out=hi)
    err += hi
    np.multiply(lo, b_hi, out=b_hi)
    err += b_hi
    np.multiply(lo, b_lo, out=b_lo)
    err += b_lo   # ((x_hi b_hi - p) + x_hi b_lo + x_lo b_hi) + x_lo b_lo
    np.floor(p, out=hi)                              # whole
    p -= hi
    np.take(tab["lo"], i, out=lo, mode="clip")
    lo *= x
    err += lo
    p += err                          # rest = (p - whole) + (err + x lo)
    np.floor(p, out=lo)                              # carry
    np.copyto(d, hi, casting="unsafe")
    carry = b_hi.view(np.int64)
    np.copyto(carry, lo, casting="unsafe")
    d += carry
    return np.subtract(p, lo, out=err)


_SLOTS = 5  # cell-sized arrays a formatter holds besides its rows


class FloatRows:
    """A formatter: ``FloatRows()(block, suffix)`` is the text of the rows
    of ``block`` (2-D float64) as ``'%.17g'`` cells joined by ``,``, each
    row ended by ``suffix + "\\n"`` (``suffix`` is ASCII without a
    newline), as a new uint8 array of its ASCII bytes.  Every whole-block
    intermediate is written into arrays the formatter holds, sized for
    the largest block it has formatted, so one formatter formats one block
    at a time."""

    def __init__(self):
        self._cells = self._words = 0

    def _held(self, nrows: int, ncols: int, width: int):
        """The rows, (nrows, width) uint64; their memory as four cell-sized
        float64 arrays; _SLOTS cell-sized float64 arrays, whose memory
        also takes the rows' byte mask; five cell-sized flags.  They grow
        when this block needs more."""
        n, words = nrows * ncols, nrows * width
        if n > self._cells or words > self._words:
            self._cells, self._words = max(n, self._cells), max(words,
                                                                self._words)
            self._rows = np.empty(self._words, np.uint64)
            self._slots = np.empty(
                (_SLOTS, max(self._cells, -(-self._words // _SLOTS))))
            self._flags = np.empty((5, self._cells), bool)
        f64 = self._rows.view(np.float64)
        return (self._rows[:words].reshape(nrows, width),
                [f64[j * n:(j + 1) * n] for j in range(_LANES)],
                self._slots[:, :n], self._flags[:, :n])

    def __call__(self, block: np.ndarray, suffix: str) -> np.ndarray:
        tab = _tables()
        nrows, ncols = block.shape
        tail = np.array(_lanes(suffix.encode("ascii") + b"\n"), np.uint64)
        rows, r, s, (neg, zero, bad, t, t2) = self._held(
            nrows, ncols, ncols * _LANES + len(tail))
        # The digits: x, k, d and six work arrays (the last one then the
        # fraction) in s and r.  The lanes in s[0:4]: until a lane is
        # written its slot holds d0 (1) or a digit group (2, 3); the other
        # groups, k and the small integers take s[4] and r.
        x, k, d = s[4], r[0].view(np.int64), r[1].view(np.int64)
        np.abs(block, out=x.reshape(nrows, ncols))
        np.signbit(block, out=neg.reshape(nrows, ncols))
        np.equal(x, 0.0, out=zero)
        np.greater_equal(x, _X_MIN, out=bad)
        np.less_equal(x, _X_MAX, out=t)
        bad &= t
        np.logical_not(bad, out=bad)        # outside the fast range
        np.copyto(x, 1.0, where=bad)
        np.logical_not(zero, out=t)
        bad &= t
        np.log10(x, out=s[0])
        np.floor(s[0], out=s[0])
        np.copyto(k, s[0], casting="unsafe")
        frac = _scaled(x, k, d, (*s[0:4], r[2], r[3]), tab)
        np.less(d, _E16, out=t)
        np.greater_equal(d, _E17, out=t2)
        t |= t2
        bad |= t                            # log10 was off by one
        np.greater(frac, 0.5, out=t)
        d += t
        np.equal(d, _E17, out=t)
        k += t
        np.copyto(d, _E16, where=t)
        frac -= 0.5
        np.abs(frac, out=frac)
        np.less(frac, _TIE, out=t)
        bad |= t  # the digits and exponent of these cells are never read

        lanes = s[0:_LANES].view(np.uint64)
        d0, *groups = (a.view(np.int64) for a in s[1:])
        groups.append(d)
        tmp, nsig = r[2].view(np.int64), r[3].view(np.int64)
        for g, scale in zip([d0, *groups], (_E16, 10 ** 12, 10 ** 8, 10 ** 4)):
            # d >= 0: unsigned division, which numpy runs faster
            np.floor_divide(d.view(np.uint64), scale, out=g.view(np.uint64))
            np.multiply(g, scale, out=tmp)
            d -= tmp
        # nsig from the last group, and from the others on the few nonzero
        # cells whose last group is 0; it stays 0 on a zero cell (x = 1
        # gave it k = 0 and d = 10^16), which its code writes '0'
        np.take(tab["nsig"], d, out=nsig, mode="clip")
        np.equal(nsig, 0, out=t)
        np.greater(t, zero, out=t)  # and not a zero cell
        rest = np.flatnonzero(t)
        if rest.size:
            part = np.ones(rest.size, np.int64)
            for w, g in enumerate(groups[:3]):
                np.maximum(part, np.take(tab["nsig"], np.take(g, rest),
                                         mode="clip") - 4 * (3 - w), out=part)
            np.put(nsig, rest, part, mode="clip")
        # the cell's code indexes the tables of what follows from k and
        # nsig alone
        np.clip(k, _K_LO, _K_HI, out=tmp)
        tmp -= _K_LO
        tmp *= _NSIG
        code = nsig
        code += tmp
        k += _X_OFF  # the exponent code
        # the cells whose point falls inside the digits, at byte L - 1 = k
        # of lanes 1-3 (fixed notation with L >= 2)
        np.take(tab["inside"], code, out=t, mode="clip")
        at = np.flatnonzero(t)
        at_byte = np.take(k, at) - _X_OFF
        # lane 0 from index ((zeros 2 + point) 2 + neg) 10 + d0
        np.take(tab["base"], code, out=tmp, mode="clip")
        tmp += neg
        tmp *= 10
        tmp += d0
        np.take(tab["lead"], tmp, out=lanes[0], mode="clip")
        word = tmp.view(np.uint64)
        for i in (1, 2):
            np.take(tab["group"], groups[2 * i - 2], out=lanes[i], mode="clip")
            np.take(tab["group"], groups[2 * i - 1], out=word, mode="clip")
            word <<= 32
            lanes[i] |= word
            np.take(tab["cut"][i - 1], code, out=word, mode="clip")
            lanes[i] &= word
        k.reshape(nrows, ncols)[:, -1] += 2 * _X_OFF
        np.take(tab["expo"], k, out=lanes[3], mode="clip")
        if at.size:
            keep, point, lane, up, carry = (
                a[:at.size].view(np.uint64) for a in (s[4], *r))
            carry.fill(0)
            for i, mask in enumerate(tab["mask"], 1):
                np.take(mask, at_byte, out=keep, mode="clip")
                np.take(mask[1:], at_byte, out=point, mode="clip")
                np.invert(keep, out=up)
                point &= up
                point &= _DOTS
                np.take(lanes[i], at, out=lane, mode="clip")
                up &= lane
                lane &= keep
                np.left_shift(up, 8, out=keep)
                lane |= keep
                lane |= carry
                lane |= point
                np.put(lanes[i], at, lane, mode="clip")
                np.right_shift(up, 56, out=carry)

        rows[:, :ncols * _LANES].reshape(nrows, ncols, _LANES)[...] = \
            lanes.reshape(_LANES, nrows, ncols).transpose(1, 2, 0)
        rows[:, ncols * _LANES:] = tail
        # a row that falls back takes its '%.17g' text in place of its
        # lanes: at most 25 bytes a cell and the suffix fit in its 32 and
        # the tail
        fallback = np.flatnonzero(bad) // ncols
        if fallback.size:
            fallback = fallback[np.diff(fallback, prepend=-1) != 0]
        template = ",".join(["%.17g"] * ncols) + suffix + "\n"
        for row in fallback:
            line = (template % tuple(block[row].tolist())).encode()
            rows[row] = 0
            rows[row].view(np.uint8)[:len(line)] = np.frombuffer(line,
                                                                 np.uint8)
        raw = rows.reshape(-1).view(np.uint8)
        present = self._slots.reshape(-1).view(bool)[:raw.size]
        np.not_equal(raw, 0, out=present)
        return raw[present]
