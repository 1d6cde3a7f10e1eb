"""Python's `repr` of float64 values, a batch at a time, laid out as CSV.

`Reprs.fields` turns the rows of a float64 table into CSV fields: each
value as `repr` writes it, then a comma, and one free slot at the end of
each row for the caller's line ending. `Reprs.join` packs the fields into
one byte string. `mission.LogWriter`'s process formats every trajectory
row through it, a message at a time; `repr` costs about 1 µs a value.

The digits are `repr`'s: the shortest decimal that reads back as the
value, and of those the nearest. They come from Schubfach (Giulietti,
"The Schubfach way to render doubles", 2020), a port of the Java
reference's `toDecimal` and `rop` to `uint64` arrays: three products per
value with g, a 126-bit power of ten from a 617-entry table, whose 64-bit
halves are split into 32-bit words so that numpy's 64-bit multiply yields
every part of a 128-bit product. Integers below 2^53 take Java's fast
path. Two departures from Java give `repr`'s digits: the candidate one
digit shorter is tried from s >= 10, not 100 (from 100, 8e-323 prints
as 7.9e-323), and there is no tiny-subnormal path (it prints 5e-324 as
4.9e-324).

The layout is Python's. The exponent form is used iff decpt <= -4 or
decpt > 16, with at least two exponent digits (1e-05, 1e+16); integral
values end in `.0`; `-0.0`, `inf` and `-inf` are written as such, and
every NaN as `nan`. A field is four little-endian uint64 words: byte i of
its text is byte i of the words, and every byte past the text is zero.
Shifts of whole words place the leading `0.` and zeros, the point, the
exponent and the sign.

No uint64 array meets an int64 one in an operation: numpy < 2 promotes
that pair to float64. A shift by 64 or more gives 0, as numpy defines it.
The work arrays live in the `Reprs` object and are reused from batch to
batch: the steps write through `out=`, and what they allocate is small,
so a batch faults in no fresh pages once the first has sized the arrays.
The g table is built once per process, by the first `Reprs`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_ASCII0 = _U(0x3030303030303030)  # "00000000"
_K_MIN, _K_MAX = -324, 292  # the decimal exponents of the g table
_POW10 = np.array([10**i for i in range(18)], dtype=np.uint64)
_WORDS = 4  # a field: at most 24 characters and a comma, in 32 bytes
_NO_POINT = 32  # the point position of a field without one
_JOIN_SLICE = 1 << 16  # bytes of fields `join` compacts at a time


def _flog2pow10(e: int) -> int:
    """floor(e log2 10), as Schubfach computes it."""
    return e * 913_124_641_741 >> 38


@functools.cache
def _g_table() -> np.ndarray:
    """Rows (g1, g1 >> 32, g1 & M32, g0 >> 32, g0 & M32) for k = K_MIN..K_MAX:
    10^-k = beta 2^r with 2^125 <= beta < 2^126, g = floor(beta) + 1,
    g1 = g >> 63 and g0 = g mod 2^63. Read-only: every caller shares it."""
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        num, den = (num, den << r) if r >= 0 else (num << -r, den)
        g = num // den + 1
        g1, g0 = g >> 63, g & ((1 << 63) - 1)
        rows.append((g1, g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF))
    table = np.array(rows, dtype=np.uint64).T.copy()
    table.flags.writeable = False
    return table


def pack(texts: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """`texts` of up to 32 bytes as fields: their (4, len) words, zero
    past each text, and their lengths."""
    data = b"".join(t.ljust(8 * _WORDS, b"\0") for t in texts)
    words = np.frombuffer(data, dtype="<u8").astype(np.uint64).reshape(-1, _WORDS)
    return words.T.copy(), np.array([len(t) for t in texts], dtype=np.int64)


# bytes 0..p-1 set, and "." at byte p, for p = 0..33; p = 32 and 33 (a
# field without a point, unsigned or signed) have no "."
_MASK = pack([b"\xff" * min(p, 32) for p in range(_NO_POINT + 2)])[0]
_POINT = pack([(b"\0" * p + b".")[:32] for p in range(_NO_POINT + 2)])[0]
# what follows the digits: "," (index 0), or "e-324," .. "e+308," for the
# exponent i - 325
_SUFFIX, _SUFFIX_LEN = pack([b","] + [b"e%+03d," % e for e in range(-324, 309)])
# the fields of +0.0, -0.0, inf, -inf and nan
_SPECIAL, _SPECIAL_LEN = pack([b"0.0,", b"-0.0,", b"inf,", b"-inf,", b"nan,"])
_WORD = np.arange(_WORDS, dtype=np.int64)[:, None]  # word j of each field


def _mulhi(ah, al, bh, bl, out, t1, t2) -> None:
    """out = the high 64 bits of a b, from the 32-bit halves of a and b."""
    np.multiply(al, bl, out=t1)
    np.right_shift(t1, _U(32), out=t1)
    np.multiply(ah, bl, out=t2)
    np.add(t2, t1, out=t2)  # m1
    np.multiply(al, bh, out=t1)
    np.bitwise_and(t2, _M32, out=out)
    np.add(t1, out, out=t1)  # m2
    np.right_shift(t2, _U(32), out=t2)
    np.right_shift(t1, _U(32), out=t1)
    np.multiply(ah, bh, out=out)
    np.add(out, t2, out=out)
    np.add(out, t1, out=out)


def _shift_left(words, bits, carry, spare) -> None:
    """Shift each field of the (m, n) `words` left by `bits` (< 64), in
    place; `carry` has m rows or more."""
    carry = carry[: len(words)]
    np.subtract(_U(64), bits, out=spare)
    np.right_shift(words[:-1], spare, out=carry[1:])
    carry[0] = 0
    np.left_shift(words, bits, out=words)
    np.bitwise_or(words, carry, out=words)


class Reprs:
    """The batch formatter. It holds its work arrays, which grow to the
    largest batch formatted and are reused; `fields` and `join` return
    views of them, valid until the next call."""

    def __init__(self) -> None:
        self._g = _g_table()
        self._work: dict[object, np.ndarray] = {}

    def _buf(self, slot, shape: tuple[int, ...], dtype: type) -> np.ndarray:
        """Work array `slot`, as `shape` of `dtype`. A slot is reused for
        other arrays once its first is done with."""
        size = math.prod(shape) * np.dtype(dtype).itemsize
        buf = self._work.get(slot)
        if buf is None or buf.size < size:
            buf = self._work[slot] = np.empty(2 * size, np.uint8)
        return buf[:size].view(dtype).reshape(shape)

    def fields(self, table: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The CSV fields of the rows `table[order]` of a float64 table of c
        columns: (words, lengths) of shapes (rows, c + 1, 4) and (rows, c + 1).
        Field j < c of a row is `repr(value) + ","`; field c is empty, left
        for the caller's line ending."""
        r, c = len(order), table.shape[1]
        n = r * c

        def vec(slot, dtype=_U):
            return self._buf(slot, (n,), dtype)

        def rows(slot, m):
            return self._buf(("rows", slot), (m, n), _U)

        x = self._buf(("rows", 5), (r, c), np.float64)  # done with before rop
        np.take(table, order, axis=0, out=x)
        bits = x.reshape(n).view(np.uint64)
        u, u2, i = vec("u"), vec("u2"), vec("i", np.int64)
        yes, yes2 = vec("yes", np.bool_), vec("yes2", np.bool_)

        # sign, biased exponent bq and fraction t
        neg, bq, t = vec("neg"), vec("bq"), vec("t")
        np.right_shift(bits, _U(63), out=neg)
        np.right_shift(bits, _U(52), out=bq)
        np.bitwise_and(bq, _U(0x7FF), out=bq)
        np.bitwise_and(bits, _U((1 << 52) - 1), out=t)
        # ±0.0, ±inf and nan have fixed fields, _SPECIAL[code]; they are
        # formatted as 1.0 meanwhile
        special, code = vec("special", np.bool_), vec("code", np.int64)
        np.equal(bq, _U(0x7FF), out=yes)
        np.multiply(yes, 2, out=code)
        np.add(code, neg.view(np.int64), out=code)
        np.not_equal(t, _U(0), out=yes2)
        np.logical_and(yes, yes2, out=yes2)
        np.copyto(code, 4, where=yes2)
        np.left_shift(bits, _U(1), out=u)
        np.equal(u, _U(0), out=special)
        np.logical_or(special, yes, out=special)
        any_special = special.any()
        if any_special:
            np.copyto(bq, _U(1023), where=special)
            np.copyto(t, _U(0), where=special)

        # the value is cf 2^q. k = floor(log10(2^q)), or floor(log10(3/4
        # 2^q)) at cf = 2^52 above the smallest normal, where the interval
        # is uneven (cbl = cb - 1); h = q + floor(log2(10^-k)) + 2
        cf, q, uneven = vec("cf"), vec("q", np.int64), vec("uneven", np.bool_)
        np.copyto(cf, t)
        np.not_equal(bq, _U(0), out=yes)
        np.bitwise_or(cf, _U(1 << 52), out=cf, where=yes)
        np.maximum(bq.view(np.int64), 1, out=q)
        np.subtract(q, 1075, out=q)
        np.equal(t, _U(0), out=uneven)
        np.greater(bq, _U(1), out=yes)
        np.logical_and(uneven, yes, out=uneven)
        k, h = vec("k", np.int64), vec("h", np.int64)
        np.multiply(q, 661_971_961_083, out=k)
        np.multiply(uneven, 274_743_187_321, out=i)
        np.subtract(k, i, out=k)
        np.right_shift(k, 41, out=k)
        np.multiply(k, -913_124_641_741, out=h)
        np.right_shift(h, 38, out=h)
        np.add(h, q, out=h)
        np.add(h, 2, out=h)
        g = rows("g", 5)
        np.subtract(k, _K_MIN, out=i)
        np.take(self._g, i, axis=1, out=g)

        # rop: (vbl, vb, vbr) = g (cbl, cb, cbr) 2^h / 2^127, each with the
        # sticky bit of its remainder
        cp, bh, x1, y1, t1, t2 = (rows(j, 3) for j in range(6))
        np.left_shift(cf, _U(2), out=cp[1])
        np.subtract(cp[1], _U(2), out=cp[0])
        np.add(cp[0], uneven, out=cp[0])
        np.add(cp[1], _U(2), out=cp[2])
        np.left_shift(cp, h.view(np.uint64), out=cp)
        np.right_shift(cp, _U(32), out=bh)
        np.multiply(g[0], cp, out=y1)  # g1 cp mod 2^64
        bl = np.bitwise_and(cp, _M32, out=cp)
        _mulhi(g[3], g[4], bh, bl, x1, t1, t2)
        np.right_shift(y1, _U(1), out=y1)
        z = np.add(y1, x1, out=y1)
        _mulhi(g[1], g[2], bh, bl, x1, t1, t2)
        np.right_shift(z, _U(63), out=t2)
        np.add(x1, t2, out=x1)
        np.bitwise_and(z, _M63, out=z)
        np.add(z, _M63, out=z)
        np.right_shift(z, _U(63), out=z)
        vbl, vb, vbr = np.bitwise_or(x1, z, out=x1)
        odd = vec("t")
        np.bitwise_and(cf, _U(1), out=odd)
        np.add(vbl, odd, out=vbl)  # a candidate d is in the interval iff
        np.subtract(vbr, odd, out=vbr)  # vbl <= 4 d <= vbr, as changed here

        # f = s or s + 1, the one in the interval, else the nearer (ties to
        # even); then sp10 or sp10 + 10 in its place if one digit shorter
        # is in the interval (from s >= 10)
        s, f, pick = vec("s"), vec("f"), vec("pick", np.bool_)
        np.right_shift(vb, _U(2), out=s)
        np.left_shift(s, _U(2), out=u)
        np.add(u, _U(2), out=u2)
        np.less(vb, u2, out=pick)
        np.equal(vb, u2, out=yes)
        np.bitwise_and(s, _U(1), out=u2)
        np.equal(u2, _U(0), out=yes2)
        np.logical_and(yes, yes2, out=yes)
        np.logical_or(pick, yes, out=pick)
        np.less_equal(vbl, u, out=yes)
        np.add(u, _U(4), out=u2)
        np.less_equal(u2, vbr, out=yes2)
        np.copyto(pick, yes, where=np.not_equal(yes, yes2, out=yes2))
        np.add(s, _U(1), out=f)
        np.subtract(f, pick, out=f)
        sp = vec("q")
        np.floor_divide(s, _U(10), out=sp)
        np.multiply(sp, _U(10), out=sp)
        np.left_shift(sp, _U(2), out=u)
        np.less_equal(vbl, u, out=yes)
        np.add(u, _U(40), out=u2)
        np.less_equal(u2, vbr, out=yes2)
        np.not_equal(yes, yes2, out=yes2)
        np.greater_equal(s, _U(10), out=pick)
        np.logical_and(yes2, pick, out=yes2)
        np.add(sp, _U(10), out=u)
        np.copyto(u, sp, where=yes)
        np.copyto(f, u, where=yes2)
        # the fast path: an integer below 2^53 is its own digits
        np.subtract(_U(1075), bq, out=u)  # -q
        np.subtract(_U(64), u, out=u2)
        np.left_shift(cf, u2, out=u2)
        np.equal(u2, _U(0), out=yes)
        np.greater(bq, _U(1022), out=yes2)
        np.logical_and(yes, yes2, out=yes)
        np.less(bq, _U(1075), out=yes2)
        np.logical_and(yes, yes2, out=yes)
        np.right_shift(cf, u, out=u)
        np.copyto(f, u, where=yes)
        np.copyto(k, 0, where=yes)

        # the value is f 10^k, f of 1 to 17 digits (s < 10 2^53): the
        # point goes after decpt of them. f as 17 digits, its zeros after
        decpt, nd = vec("decpt", np.int64), vec("nd", np.int64)
        nd[:] = np.searchsorted(_POW10, f, side="right")
        np.add(k, nd, out=decpt)
        np.subtract(17, nd, out=i)
        np.take(_POW10, i, out=u)
        np.multiply(f, u, out=f)

        # the digits as bytes (0-9), first one in `first`, then two groups
        # of 8 in d, each from its two 32-bit halves of 4
        first, d, e = vec("cf"), rows(0, 2), rows(1, 2)
        np.floor_divide(f, _POW10[16], out=first)
        np.multiply(first, _POW10[16], out=u)
        np.subtract(f, u, out=u)
        np.floor_divide(u, _POW10[8], out=d[0])
        np.multiply(d[0], _POW10[8], out=d[1])
        np.subtract(u, d[1], out=d[1])
        spare = rows(2, 2)
        np.floor_divide(d, _U(10_000), out=e)  # 4 + 4 digits in 32-bit lanes
        np.multiply(e, _U(10_000), out=spare)
        np.subtract(d, spare, out=d)
        np.left_shift(d, _U(32), out=d)
        np.bitwise_or(d, e, out=d)
        np.multiply(d, _U(5243), out=e)  # 2 + 2 digits in 16-bit lanes
        np.right_shift(e, _U(19), out=e)
        np.bitwise_and(e, _U(0x7F0000007F), out=e)
        np.multiply(e, _U(100), out=spare)
        np.subtract(d, spare, out=d)
        np.left_shift(d, _U(16), out=d)
        np.bitwise_or(d, e, out=d)
        np.multiply(d, _U(103), out=e)  # 1 + 1 digit in bytes
        np.right_shift(e, _U(10), out=e)
        np.bitwise_and(e, _U(0x000F000F000F000F), out=e)
        np.multiply(e, _U(10), out=spare)
        np.subtract(d, spare, out=d)
        np.left_shift(d, _U(8), out=d)
        np.bitwise_or(d, e, out=d)
        # nd, the digits up to the last that is not 0: the last nonzero
        # byte of a group is floor(log2(group)) // 8, read from the
        # exponent of the group as a float64 (exact: no byte exceeds 9)
        spare.view(np.float64)[...] = d
        np.right_shift(spare, _U(52), out=e)
        np.subtract(e, _U(1023), out=e)
        np.right_shift(e, _U(3), out=e)
        np.add(e, _U(2), out=e)
        np.add(e[1], _U(8), out=e[1])
        nd[:] = 1
        np.not_equal(d[0], _U(0), out=yes)
        np.copyto(nd, e[0].view(np.int64), where=yes)
        np.not_equal(d[1], _U(0), out=yes)
        np.copyto(nd, e[1].view(np.int64), where=yes)
        # as ASCII in words 0-2 of each field, "0" past the 17th digit too
        # (cut below)
        w, carry, low = rows(3, 4), rows(4, 4), rows(5, 3)
        np.left_shift(d[0], _U(8), out=w[0])
        np.bitwise_or(w[0], first, out=w[0])
        np.right_shift(d[0], _U(56), out=w[1])
        np.left_shift(d[1], _U(8), out=u)
        np.bitwise_or(w[1], u, out=w[1])
        np.right_shift(d[1], _U(56), out=w[2])
        w[3] = 0
        digits = np.bitwise_or(w[:3], _ASCII0, out=w[:3])

        # the layout, in the slots of arrays done with: the exponent form
        # (expo), or "0." and z - 1 zeros before the digits (lead: decpt in
        # -3..0), or the point after decpt digits. The text is the sign,
        # then z "0"s and the digits up to `size`, with the point at byte
        # `point`
        expo, lead = vec("pick", np.bool_), vec("uneven", np.bool_)
        z, size, point = vec("q", np.int64), vec("h", np.int64), vec("s", np.int64)
        np.greater(decpt, 16, out=expo)
        np.less_equal(decpt, -4, out=yes)
        np.logical_or(expo, yes, out=expo)
        np.less_equal(decpt, 0, out=lead)
        np.logical_not(yes, out=yes)
        np.logical_and(lead, yes, out=lead)
        np.subtract(1, decpt, out=z)
        np.multiply(z, lead, out=z)
        np.add(nd, z, out=size)
        np.logical_or(expo, lead, out=yes)
        np.add(decpt, 1, out=i)
        np.maximum(size, i, out=i)
        np.logical_not(yes, out=yes2)
        np.copyto(size, i, where=yes2)
        np.copyto(point, decpt)
        np.copyto(point, 1, where=yes)
        np.equal(nd, 1, out=yes)
        np.logical_and(yes, expo, out=yes)  # one digit: no point
        np.copyto(point, _NO_POINT, where=yes)
        signed = neg.view(np.int64)
        np.add(point, signed, out=point)
        np.add(size, signed, out=size)
        np.add(z, signed, out=i)
        np.left_shift(i, 3, out=i)
        _shift_left(digits, i.view(np.uint64), carry, u)
        np.take(_MASK[0], z, out=u)
        np.bitwise_and(u, _ASCII0, out=u)
        np.left_shift(neg, _U(3), out=u2)
        np.left_shift(u, u2, out=u)
        np.multiply(neg, _U(ord("-")), out=u2)
        np.bitwise_or(u, u2, out=u)
        np.bitwise_or(digits[0], u, out=digits[0])
        mask = carry[:3]
        np.take(_MASK[:3], size, axis=1, out=mask)
        np.bitwise_and(digits, mask, out=digits)
        np.take(_MASK[:3], point, axis=1, out=mask)
        np.bitwise_and(digits, mask, out=low)
        np.bitwise_xor(digits, low, out=digits)
        _shift_left(digits, _U(8), carry, u)
        np.bitwise_or(digits, low, out=digits)
        np.take(_POINT[:3], point, axis=1, out=mask)
        np.bitwise_or(digits, mask, out=digits)
        np.less(point, _NO_POINT, out=yes)
        np.add(size, yes, out=size)

        # then the exponent, if any, and the comma: _SUFFIX[j] at byte
        # `size`, across words size // 8 and the next
        np.add(decpt, 324, out=i)
        np.multiply(i, expo, out=i)
        np.take(_SUFFIX[0], i, out=u)
        np.take(_SUFFIX_LEN, i, out=nd)
        at, within = self._buf("at", (_WORDS, n), np.bool_), vec("bq")
        np.bitwise_and(size, 7, out=i)
        np.left_shift(i, 3, out=i)
        np.copyto(within, i.view(np.uint64))
        np.left_shift(u, within, out=u2)
        np.right_shift(size, 3, out=i)
        np.equal(_WORD, i, out=at)
        np.bitwise_or(w, u2, out=w, where=at)
        np.subtract(_U(64), within, out=within)
        np.right_shift(u, within, out=u2)
        np.equal(_WORD - 1, i, out=at)
        np.bitwise_or(w, u2, out=w, where=at)
        np.add(size, nd, out=size)
        if any_special:
            np.take(_SPECIAL, code, axis=1, out=carry)
            np.copyto(w, carry, where=special)
            np.take(_SPECIAL_LEN, code, out=i)
            np.copyto(size, i, where=special)

        words = self._buf("words", (r, c + 1, _WORDS), _U)
        lengths = self._buf("lengths", (r, c + 1), np.int64)
        np.copyto(words[:, :c], w.T.reshape(r, c, _WORDS))
        words[:, c] = 0
        np.copyto(lengths[:, :c], size.reshape(r, c))
        lengths[:, c] = 0
        return words, lengths

    def join(self, words: np.ndarray) -> np.ndarray:
        """The text of `words`, fields as `fields` gives them, one after
        another: their bytes but the zeros past each field's end."""
        data = words.astype("<u8", copy=False).reshape(-1).view(np.uint8)
        # in slots of `fields`' arrays other than its results
        used = self._buf(("rows", 0), data.shape, np.bool_)
        text = self._buf(("rows", 1), data.shape, np.uint8)
        np.not_equal(data, 0, out=used)
        end = 0
        # a slice at a time: a whole batch's text as one temporary, freed
        # each batch, had the allocator return its pages and fault them in
        # again on the next
        for a in range(0, data.size, _JOIN_SLICE):
            piece = data[a : a + _JOIN_SLICE][used[a : a + _JOIN_SLICE]]
            text[end : end + piece.size] = piece
            end += piece.size
        return text[:end]
