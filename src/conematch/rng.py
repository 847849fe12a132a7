"""Counter-based deterministic uniform generator.

Every random quantity in a market instance is addressed by a small tuple of
integers (seed, run, stream kind, agent ids, salt) and produced by hashing
that tuple with the splitmix64 finalizer.  There is no sequential state:
identical keys give identical draws in any process, on any platform, in any
order of evaluation.  This is what lets a deviation experiment redraw one
doctor's interview values while every other value in the market stays fixed
bit for bit (common random numbers).

A draw addressed by (state, i, j) is made in three stages, so that a caller
drawing a whole matrix can key each row and each column once:

* ``half_i(state, i)`` = mix(state + gamma*(i+1)), the first index's half;
* ``half_j(j)`` = gamma*(j+1), the second index's half;
* ``bits(half_i, half_j)`` = mix(half_i + half_j) >> 11, a 53-bit integer.

``bits`` is itself two stages, ``bits_tail(bits_head(half_i, half_j))``.
The head is the add and the finalizer up to its second multiply, y; the
tail is the finalizer's last xor-shift, z = y ^ (y >> 31), and z >> 11.
The xor leaves the top 31 bits of y as they are, so head >> 33 equals
bits >> 22: a threshold on the top 31 bits of the head splits the draws
exactly, every cell below it drawing strictly less than every cell at or
above it, before any tail is computed.

``uniform`` is ``bits * 2**-53``, which is exact and strictly increasing, so
the integers order and tie exactly as the floats do.
"""

from __future__ import annotations

import numpy as np

# stream kinds (the `kind` component of a key)
KIND_DOCTOR_RATING = 1
KIND_HOSPITAL_RATING = 2
KIND_PRIVATE_DH = 3     # v(d,h), doctor's private value for a hospital
KIND_INTERVIEW_DH = 4   # iota(d,h), doctor's interview value
KIND_INTERVIEW_HD = 5   # iota(h,d), hospital's interview value
KIND_PRIVATE_HD = 6     # v(h,d), hospital's private value (request setting)

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64
_INV_2_53 = float(2.0 ** -53)


def _mix_head(x: np.ndarray, tmp=None) -> np.ndarray:
    # splitmix64 finalizer up to its second multiply, in place on the
    # uint64 array x (wraps mod 2**64); tmp, if given, is scratch of x's shape
    if tmp is None:
        tmp = np.empty_like(x)
    for shift, mult in ((30, _M1), (27, _M2)):
        np.right_shift(x, _U64(shift), out=tmp)
        x ^= tmp
        x *= mult
    return x


def _mix_tail(x: np.ndarray) -> np.ndarray:
    # the finalizer's last xor-shift, in place
    x ^= x >> _U64(31)
    return x


def _mix(x: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer, in place on the uint64 array x
    return _mix_tail(_mix_head(x))


def half_j(j) -> np.ndarray:
    """The second index's half of a key, gamma*(j+1), as a uint64 array."""
    x = np.array(j, dtype=np.uint64)
    x += _U64(1)
    x *= _GAMMA
    return x


def half_i(state, i) -> np.ndarray:
    """The first index's half of a key, mix(state + gamma*(i+1)), broadcast
    over `state` and `i` (an array of states keys one stream per state)."""
    hj = half_j(i)
    x = np.empty(np.broadcast(hj, state).shape, dtype=np.uint64)
    np.add(hj, state, out=x)
    return _mix(x)


def key_state(seed: int, run: int, kind: int, salt: int = 0) -> np.uint64:
    """Pre-mixed state for a (seed, run, kind, salt) stream."""
    s = half_i(half_i(half_i(_U64(seed), 0), run), kind)
    if salt:
        s = half_i(s, salt)
    return s[()]


def bits_head(hi, hj, out=None, tmp=None) -> np.ndarray:
    """The head of bits(hi, hj): hi + hj through the finalizer's second
    multiply, as uint64.

    Its top 31 bits are those of the 53-bit draw's top 31: head >> 33
    equals bits >> 22.  Made in `out` if given (a uint64 array of the
    broadcast shape, which may be `hi` or `hj` itself), else in a new
    array; `tmp`, if given, is a uint64 scratch array of that shape.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(hi), np.shape(hj)),
                       dtype=np.uint64)
    np.add(hi, hj, out=out)
    return _mix_head(out, tmp)


def bits_tail(y) -> np.ndarray:
    """The 53-bit draws that the heads y finish into, in place on y."""
    _mix_tail(y)
    y >>= _U64(11)
    return y


def bits(hi, hj) -> np.ndarray:
    """53-bit integer draws mix(hi + hj) >> 11 from broadcastable halves,
    in a new array.

    bits(hi, hj) is bits_tail(bits_head(hi, hj)) bit for bit.
    """
    return bits_tail(bits_head(hi, hj))


def uniform(state: np.uint64, i, j) -> np.ndarray:
    """Uniform [0,1) draw(s) addressed by (state, i, j).

    `i` and `j` may be scalars or broadcastable integer arrays, and `state`
    an array of stream states broadcast with them; the result follows
    numpy broadcasting.  uniform(state, i, j) is a pure function,
    and equals bits(half_i(state, i), half_j(j)) * 2**-53 bitwise.
    """
    return bits(half_i(state, i), half_j(j)).astype(np.float64) * _INV_2_53
