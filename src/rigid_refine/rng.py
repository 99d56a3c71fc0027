"""Platform-stable seeded RNG for reproducible experiment generation.

Algorithm, specified bit-exactly:

- State: xoshiro256++ (Blackman & Vigna). 256-bit state, output
  ``rotl(s0 + s3, 23) + s0`` over 64-bit wrapping arithmetic, then the
  standard xoshiro256 state transition with shift 17 and rotation 45.
- Seeding: the four state words are the first four outputs of SplitMix64
  run on the user seed (reduced mod 2^64).
- uniform doubles: ``(next_uint64() >> 11) * 2**-53`` in [0, 1);
  the open-interval variant ``((next_uint64() >> 11) + 0.5) * 2**-53``
  in (0, 1) feeds the Gaussian transform.
- Gaussian draws: inverse-CDF transform, ``ndtri(u)`` with u drawn from the
  open interval (one uint64 per normal deviate; no rejection, no pairing).
- Bounded integers: rejection sampling on the high bits (draw uint64, retry
  while >= floor(2^64 / n) * n, then reduce mod n); unbiased.
- Unit 3-vectors: three Gaussian draws divided by their Euclidean norm; the
  three are redrawn while the norm is <= 1e-12.

Every method documents exactly how many raw uint64 draws it consumes, so
experiment draw orders can be audited and replayed.

Batching. The recurrence exists once, in the private stacked kernel
``_streams(states, n)``: it takes B stream states and returns n raw draws of
each, with the B end states, stepping every lane together in numpy uint64
arithmetic (wrapping, hence exact). The xoshiro transition T is linear over
GF(2) (Blackman & Vigna, ACM TOMS 2021), so the kernel also cuts each stream
into K segments of one power-of-two length and reaches every segment's start
state by jump matrices T^(2^i): built once by squaring, kept packed to bits
(8 KiB per power) and applied through per-nibble XOR lookups. All B * K
lanes then step together, so the kernel has many lanes even for one stream;
K is picked per call from a cost model of a step, a jump and a doubling
level.

A generator hands out draws from a buffer. ``_prefetched(seeds, n)`` fills
the buffers of many generators with one kernel call (an experiment chunk
sizes n by the draws a trial takes when nothing is redrawn). A generator that
runs past its buffer refills through the same kernel, taking draws ahead: one
on its first refill, four times more on each next, up to ``_LOOKAHEAD``, so a
fresh generator's first draw and long runs of one-at-a-time draws both stay
cheap. ``_s`` is the state after the draws handed out so far; when the
buffer is part-consumed it is derived by a jump. ``next_uint64`` takes one
draw and ``next_uint64s(n)`` returns n as a uint64 array; the vector methods
(``uniforms``, ``normals``, ``unit_vectors``, ``shuffled_prefix``) take their
whole batch at once and apply the float transforms per array. Their results
are bit-identical to drawing one value at a time, which fixes two choices:

- Norms are taken as ``sqrt(v @ v)`` over stacked (1, 3) @ (3, 1) products,
  the same dot product a per-vector ``np.linalg.norm`` computes.
  ``np.linalg.norm(axis=1)``, ``einsum`` and ``sum(v * v)`` add in another
  order and differ in the last bit on about one row in ten.
- Callers that need a cube root (the ball radius) take it with Python's
  float ``**`` (C ``pow``) per value; ``np.cbrt`` and ``np.power`` on arrays
  differ from it in the last bit on 6-12% of values.

Rejections (a near-zero Gaussian triple, an integer draw at or above the
limit) are handled by re-parsing the drawn buffer from the rejected draw and
topping it up, so they consume exactly the draws the one-at-a-time
definition does.
"""

import threading

import numpy as np
from scipy.special import ndtri

_MASK = (1 << 64) - 1

# A Gaussian triple with a norm at or below this is redrawn.
_NORM_FLOOR = 1e-12

# Draws a generator takes ahead of its callers when it runs past its buffer:
# one the first time, this factor more each next time, at most _LOOKAHEAD. A
# kernel call costs about 45 us for one draw and 1 ms for 1024, so a fresh
# generator's first draw stays cheap and a long run of single draws still
# refills rarely.
_LOOKAHEAD = 1024
_LOOKAHEAD_GROWTH = 4

# Draws per kernel call when filling generators (8 MiB): a call fills as many
# generators as fit, but at least one, so a generator that needs more draws
# than this takes them all in one call.
_PREFETCH_DRAWS = 1 << 20

# Kernel cost model, in units of one step of all lanes (about 15 us here):
# a jump costs this much per segment start, plus this much per doubling level.
_JUMP_COST = 0.1
_LEVEL_COST = 3.0

# _JUMPS[i] is T^(2^i), T the state transition, as a GF(2) matrix: row j is
# the image of state bit j (bit j % 64 of word j // 64), as four uint64 words
# (8 KiB per power). Built by squaring on first use, under the lock, so
# threads that meet a short table never see the powers out of order.
_JUMPS = []
_JUMPS_LOCK = threading.Lock()


def _splitmix64(state):
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def _seed_state(seed):
    """The four state words of a seed, as a (4,) uint64 array."""
    state = int(seed) & _MASK
    words = []
    for _ in range(4):
        state, word = _splitmix64(state)
        words.append(word)
    if not any(words):  # all-zero state is the one forbidden state
        words[0] = 1
    return np.array(words, dtype=np.uint64)


def _step(s, out, tmp):
    """One xoshiro256++ step of every lane of s (4, lanes), in place; the
    draws go to out and tmp is scratch (both (lanes,))."""
    np.add(s[0], s[3], out=tmp)
    np.left_shift(tmp, 23, out=out)
    tmp >>= 41
    out |= tmp
    out += s[0]
    np.left_shift(s[1], 17, out=tmp)
    s[2:] ^= s[:2]  # s2 ^= s0, s3 ^= s1
    s[:2] ^= s[:1:-1]  # s0 ^= s3, s1 ^= s2
    s[2] ^= tmp
    np.right_shift(s[3], 19, out=tmp)
    s[3] <<= 45
    s[3] |= tmp


def _jump(states, table):
    """Apply a GF(2) matrix (a table of _JUMPS) to (V, 4) states.

    The image of a state is the XOR of the rows of its set bits. Each group of
    four rows gives a 16-entry lookup of their XORs, so a state XORs one entry
    per nibble: 64 lookups, in plain uint64 arithmetic.
    """
    quads = table.reshape(64, 4, 4)
    lookup = np.zeros((64, 16, 4), dtype=np.uint64)
    for i in range(4):
        lookup[:, 1 << i : 2 << i] = lookup[:, : 1 << i] ^ quads[:, i, None]
    octets = np.ascontiguousarray(states, dtype="<u8").view(np.uint8).T
    nibbles = np.empty((64, len(states)), dtype=np.intp)
    nibbles[0::2] = octets & 15
    nibbles[1::2] = octets >> 4
    nibbles += np.arange(0, 1024, 16)[:, None]
    return np.bitwise_xor.reduce(lookup.reshape(1024, 4)[nibbles], axis=0)


def _jump_table(i):
    """T^(2^i) (see _JUMPS)."""
    if i >= len(_JUMPS):
        with _JUMPS_LOCK:
            if not _JUMPS:  # T: one step of each of the 256 one-bit states
                eye = np.packbits(np.eye(256, dtype=np.uint8), axis=1, bitorder="little")
                s = eye.view("<u8").T.astype(np.uint64)
                _step(s, np.empty(256, dtype=np.uint64), np.empty(256, dtype=np.uint64))
                _JUMPS.append(s.T.copy())
            while len(_JUMPS) <= i:
                _JUMPS.append(_jump(_JUMPS[-1], _JUMPS[-1]))
    return _JUMPS[i]


def _advance(states, count):
    """(V, 4) states moved on by `count` draws, by jumps."""
    for i in range(count.bit_length()):
        if count >> i & 1:
            states = _jump(states, _jump_table(i))
    return states


def _layout(streams, n):
    """(log2 of the segment length, segment count) for n draws of each stream,
    the cheapest under the cost model (n >= 1)."""

    def cost(k):
        segments = -(-n // (1 << k))
        levels = (segments - 1).bit_length()
        return (1 << k) + (segments - 1) * streams * _JUMP_COST + levels * _LEVEL_COST

    k = min(range((n - 1).bit_length() + 1), key=cost)
    return k, -(-n // (1 << k))


def _streams(states, n):
    """n draws of each of B streams: ((B, n) draws, (B, 4) end states).

    states is a (B, 4) uint64 array of stream states. Each stream is cut into
    segments of 2^k draws whose start states are found by jumps, and all
    segments of all streams step together; the last segment's lanes are
    read off for the end states after its last draw.
    """
    states = np.asarray(states, dtype=np.uint64).reshape(-1, 4)
    b = len(states)
    if n == 0:
        return np.empty((b, 0), dtype=np.uint64), states.copy()
    k, segments = _layout(b, n)
    steps = 1 << k
    starts = np.empty((segments, b, 4), dtype=np.uint64)
    starts[0] = states
    done = 1
    while done < segments:  # starts[done:2 done] = T^(done * steps) starts[:done]
        take = min(done, segments - done)
        jumped = _jump(starts[:take].reshape(-1, 4), _jump_table(k + done.bit_length() - 1))
        starts[done : done + take] = jumped.reshape(take, b, 4)
        done += take
    s = np.ascontiguousarray(starts.reshape(-1, 4).T)
    out = np.empty((steps, segments * b), dtype=np.uint64)
    tmp = np.empty(segments * b, dtype=np.uint64)
    last = n - (segments - 1) * steps  # draws of the last segment, 1..steps
    for i in range(steps):
        if i == last:
            end = s[:, -b:].T.copy()
        _step(s, out[i], tmp)
    if last == steps:
        end = s[:, -b:].T.copy()
    draws = out.reshape(steps, segments, b).transpose(2, 1, 0).reshape(b, -1)
    return draws[:, :n], end


def _unit_interval(u):
    """Raw uint64 draws -> doubles in [0, 1)."""
    return (u >> np.uint64(11)) * 2.0**-53


def _open_unit_interval(u):
    """Raw uint64 draws -> doubles in (0, 1)."""
    return ((u >> np.uint64(11)) + 0.5) * 2.0**-53


def _largest_accepted(bounds):
    """Largest raw draw accepted for each bound m (uint64 array, m >= 1).

    That is floor(2^64 / m) * m - 1; 2^64 mod m is computed as (2^64 - m) mod m
    in wrapping uint64 arithmetic.
    """
    return np.uint64(_MASK) - (np.uint64(0) - bounds) % bounds


class Xoshiro256PlusPlus:
    """Seedable xoshiro256++ stream with uniform, Gaussian, and integer draws."""

    def __init__(self, seed):
        state = _seed_state(seed)
        self._hold(state, np.empty(0, dtype=np.uint64), state)

    def _hold(self, origin, draws, end):
        """Hand out `draws` next: origin is the state before them, end the
        state after."""
        self._origin, self._skipped = origin, 0  # draws from origin to the buffer
        self._buf, self._pos, self._end = draws, 0, end
        self._ahead = 1  # draws the next refill takes ahead

    @classmethod
    def _prefetched(cls, seeds, n):
        """A generator per seed, in order, each holding its first n draws;
        filled by as few kernel calls as _PREFETCH_DRAWS allows, at least one
        generator (n draws, however many) per call."""
        per_call = max(1, _PREFETCH_DRAWS // max(n, 1))
        for first in range(0, len(seeds), per_call):
            states = np.array([_seed_state(seed) for seed in seeds[first : first + per_call]])
            draws, ends = _streams(states, n)
            for state, row, end in zip(states, draws, ends):
                rng = cls.__new__(cls)
                rng._hold(state, row, end)
                yield rng

    @property
    def _s(self):
        """The state after the draws handed out, as four ints."""
        if self._pos == self._buf.size:
            state = self._end
        else:
            state = _advance(self._origin[None], self._skipped + self._pos)[0]
        return [int(word) for word in state]

    def _take(self, n):
        """The next n raw draws (a view of the buffer; consumes n draws)."""
        if n < 0:
            raise ValueError("draw count must be >= 0")
        pos = self._pos
        if pos + n > self._buf.size:
            rest = self._buf[pos:]
            draws, end = _streams(self._end[None], max(n - rest.size, self._ahead))
            self._ahead = min(self._ahead * _LOOKAHEAD_GROWTH, _LOOKAHEAD)
            if rest.size:
                self._skipped += pos
                self._buf = np.concatenate((rest, draws[0]))
            else:
                self._origin, self._skipped, self._buf = self._end, 0, draws[0]
            self._end = end[0]
            pos = 0
        self._pos = pos + n
        return self._buf[pos : pos + n]

    def next_uint64(self):
        """One raw 64-bit draw (consumes 1 draw)."""
        pos = self._pos
        if pos < self._buf.size:  # the common case, read without a view
            self._pos = pos + 1
            return self._buf.item(pos)
        return int(self._take(1)[0])

    def next_uint64s(self, n):
        """n raw 64-bit draws as a uint64 array, in draw order (n draws)."""
        return self._take(n).copy()

    def random(self):
        """Uniform double in [0, 1) (1 draw)."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def random_open(self):
        """Uniform double in (0, 1) (1 draw); safe for inverse-CDF transforms."""
        return ((self.next_uint64() >> 11) + 0.5) * 2.0**-53

    def uniform(self, low, high):
        """Uniform double in [low, high) (1 draw)."""
        return low + (high - low) * self.random()

    def uniforms(self, n, low=0.0, high=1.0):
        """n uniform doubles in [low, high), in draw order (n draws)."""
        return low + (high - low) * _unit_interval(self._take(n))

    def normals(self, n, sigma=1.0):
        """n Gaussian deviates N(0, sigma^2) via inverse CDF (n draws).

        A deviate beyond the float range is +-inf, without a warning (an
        overflow-scale sigma; make_problem clamps it).
        """
        with np.errstate(over="ignore"):
            return sigma * ndtri(_open_unit_interval(self._take(n)))

    def _integers_below(self, bounds):
        """One unbiased integer in [0, m) per entry m of `bounds` (uint64, m >= 1).

        One draw per entry, in order; a rejected draw is followed by another
        draw for the same entry.
        """
        top = _largest_accepted(bounds)
        out = np.empty(bounds.size, dtype=np.uint64)
        done = 0
        u = self._take(bounds.size)
        while True:
            rejected = np.flatnonzero(u > top[done:])
            stop = rejected[0] if rejected.size else u.size
            out[done : done + stop] = u[:stop] % bounds[done : done + stop]
            if not rejected.size:
                return out
            done += stop
            u = np.concatenate((u[stop + 1 :], self._take(1)))

    def integer_below(self, n):
        """Unbiased integer in [0, n) by rejection (>= 1 draw; retries are rare).

        n must be below 2^64.
        """
        if not 0 < n <= _MASK:
            raise ValueError("n must lie in [1, 2**64)")
        return int(self._integers_below(np.array([n], dtype=np.uint64))[0])

    def shuffled_prefix(self, n, k):
        """First k entries of a Fisher-Yates shuffle of range(n) (k draws typically).

        Swaps position i with a uniform position in [i, n) for i < k; the
        prefix is a uniform ordered sample without replacement. Draw i is
        integer_below(n - i); all k are drawn before the swaps.
        """
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        spans = np.arange(n, n - k, -1, dtype=np.uint64)
        targets = (self._integers_below(spans) + np.arange(k, dtype=np.uint64)).tolist()
        idx = list(range(n))
        for i, j in enumerate(targets):
            idx[i], idx[j] = idx[j], idx[i]
        return np.array(idx[:k], dtype=np.int64)

    def unit_vectors(self, n, extra=0):
        """n isotropic unit 3-vectors, each followed by `extra` uniform draws.

        Per vector: 3 Gaussian draws, all three redrawn while their norm is
        <= 1e-12 (astronomically unlikely), then `extra` draws mapped to
        [0, 1). Returns the (n, 3) vectors and the (n, extra) uniforms; draws
        (3 + extra) per vector plus 3 per redraw.
        """
        width = 3 + extra
        vectors = np.empty((n, 3))
        uniforms = np.empty((n, extra))
        done = 0
        u = self._take(n * width)
        while True:
            rows = u.reshape(n - done, width)
            v = ndtri(_open_unit_interval(rows[:, :3]))
            norm = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
            rejected = np.flatnonzero(norm <= _NORM_FLOOR)
            stop = rejected[0] if rejected.size else n - done
            vectors[done : done + stop] = v[:stop] / norm[:stop, None]
            uniforms[done : done + stop] = _unit_interval(rows[:stop, 3:])
            if not rejected.size:
                return vectors, uniforms
            done += stop
            u = np.concatenate((u[stop * width + 3 :], self._take(3)))

    def unit_vector(self):
        """Isotropic unit 3-vector from 3 Gaussian draws (3 draws per attempt)."""
        return self.unit_vectors(1)[0][0]
