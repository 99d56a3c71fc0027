"""Platform-stable seeded RNG for reproducible experiment generation.

Algorithm, specified bit-exactly:

- State: xoshiro256++ (Blackman & Vigna). 256-bit state, output
  ``rotl(s0 + s3, 23) + s0`` over 64-bit wrapping arithmetic, then the
  standard xoshiro256 state transition with shift 17 and rotation 45.
- Seeding: the four state words are the first four outputs of SplitMix64
  run on the user seed (reduced mod 2^64); ``_seed_state`` runs it on many
  seeds at once in uint64 arithmetic.
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

A generator hands out draws from a buffer. A generator that runs past its
buffer refills through the same kernel, taking draws ahead: one on its first
refill, four times more on each next, up to ``_LOOKAHEAD``, so a fresh
generator's first draw and long runs of one-at-a-time draws both stay
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

Many streams in step. ``_Lanes.prefetched(seeds, n)`` fills the first n
draws of many seeds' streams with one kernel call per block of at most
``_PREFETCH_DRAWS`` draws (an experiment chunk sizes n by the draws a trial
takes when nothing is redrawn). A ``_Lanes`` block then hands out the same
kind and number of draws from every stream at once, parsed as one stacked
array by the transforms the generator methods use; a stream that needs a
redraw, or more draws than its row holds, continues through a generator of
its own from there, so every stream gets exactly what its generator would.
"""

import threading

import numpy as np
from scipy.special import ndtri

from .core import _dot

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


# SplitMix64's increment and its two multipliers.
_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _seed_state(seeds):
    """The four state words of each seed: a (B, 4) uint64 array for a
    sequence of B seeds, a (4,) array for one seed.

    SplitMix64 runs on every seed at once, in wrapping uint64 arithmetic, on
    the seed reduced mod 2^64; a seed whose four words are all zero (the one
    forbidden state) gets 1 as its first word.
    """
    one = np.ndim(seeds) == 0
    seeds = np.array([int(seed) & _MASK for seed in ([seeds] if one else seeds)], dtype=np.uint64)
    # Word i mixes the state after i + 1 steps of SplitMix64: seed + (i + 1) gamma.
    z = seeds[:, None] + _GOLDEN_GAMMA * np.arange(1, 5, dtype=np.uint64)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    words = z ^ (z >> np.uint64(31))
    words[~words.any(axis=1), 0] = 1
    return words[0] if one else words


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


def _gaussians(u, sigma):
    """Raw uint64 draws -> N(0, sigma^2) deviates by inverse CDF; a deviate
    beyond the float range is +-inf, without a warning."""
    with np.errstate(over="ignore"):
        return sigma * ndtri(_open_unit_interval(u))


def _gaussian_triples(u):
    """Raw (..., 3) draws -> their Gaussian triples and the triples' norms,
    each norm sqrt(v @ v) as a per-vector np.linalg.norm takes it."""
    v = ndtri(_open_unit_interval(u))
    return v, np.sqrt(_dot(v, v))


def _largest_accepted(bounds):
    """Largest raw draw accepted for each bound m (uint64 array, m >= 1).

    That is floor(2^64 / m) * m - 1; 2^64 mod m is computed as (2^64 - m) mod m
    in wrapping uint64 arithmetic.
    """
    return np.uint64(_MASK) - (np.uint64(0) - bounds) % bounds


def _fisher_yates(n, targets):
    """The first len(targets) entries of range(n) after swapping position i
    with targets[i] (ints, targets[i] in [i, n)) for each i in turn."""
    idx = list(range(n))
    for i, j in enumerate(targets):
        idx[i], idx[j] = idx[j], idx[i]
    return np.array(idx[: len(targets)], dtype=np.int64)


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
        return _gaussians(self._take(n), sigma)

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
        targets = self._integers_below(spans) + np.arange(k, dtype=np.uint64)
        return _fisher_yates(n, targets.tolist())

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
            v, norm = _gaussian_triples(rows[:, :3])
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


class _Lanes:
    """B streams read in step: each call takes the same kind and number of
    draws from every lane and parses them as one stacked array.

    Lane b hands out row b of `draws` (the draws from state starts[b] to
    ends[b]), then the draws after it. While a lane is in step its draws are
    a column slice of `draws`. A lane leaves the step when it needs a redraw
    (a rejected integer draw, a Gaussian triple at or below the norm floor)
    or draws past its row; from then on it takes its draws from its own
    generator, made at the column it left, through the generator's method of
    the same name. So each lane gets, bit for bit and draw for draw, what its
    own generator's methods would give.

    A call may name a subset of the lanes (`lanes`, an index array): those
    lanes leave the step and draw from their generators, and the others stay
    where they are.
    """

    def __init__(self, starts, draws, ends):
        self._starts, self._draws, self._ends = starts, draws, ends
        self._col = 0  # draws taken by every lane in step
        self._gens = {}  # lane -> the generator of a lane out of step

    @classmethod
    def prefetched(cls, seeds, n):
        """The lanes of the seeds, in order, in blocks whose rows hold the
        seeds' first n draws: one kernel call per block, as many lanes per
        block as _PREFETCH_DRAWS allows, at least one."""
        per_call = max(1, _PREFETCH_DRAWS // max(n, 1))
        for first in range(0, len(seeds), per_call):
            starts = _seed_state(seeds[first : first + per_call])
            yield cls(starts, *_streams(starts, n))

    @classmethod
    def of(cls, rng):
        """One lane, drawing from the generator rng."""
        lanes = cls(None, np.empty((1, 0), dtype=np.uint64), None)
        lanes._gens[0] = rng
        return lanes

    def __len__(self):
        return len(self._draws)

    def _generator(self, b, col):
        """Lane b's generator: its own if out of step, else one standing at
        column col of its row."""
        rng = self._gens.get(b)
        if rng is None:
            rng = Xoshiro256PlusPlus.__new__(Xoshiro256PlusPlus)
            rng._hold(self._starts[b], self._draws[b], self._ends[b])
            rng._pos = col
        return rng

    def _state(self, b):
        """The state after the draws lane b has taken, as four ints."""
        return self._generator(b, self._col)._s

    def _parse(self, k, parse, redo, lanes):
        """The lanes' next k draws each, parsed: parse((L, k) draws of the
        lanes in step) gives a tuple of stacked values and a mask of the
        lanes that need a redraw (or None). Those lanes leave the step, and
        every lane out of step takes redo(its generator), a tuple of one
        lane's values, instead."""
        col = self._col
        if lanes is None:
            lanes = np.arange(len(self))
            self._col += k
            stepping = np.ones(len(lanes), dtype=bool)
            stepping[list(self._gens)] = False
            if col + k > self._draws.shape[1]:
                stepping[:] = False
        else:
            stepping = np.zeros(len(lanes), dtype=bool)
        picked = np.flatnonzero(stepping)
        if picked.size:
            every = picked.size == len(self)  # a view of the rows, not a copy
            values, redraw = parse(self._draws[slice(None) if every else picked, col : col + k])
            if redraw is not None:
                stepping[picked[redraw]] = False
            if stepping.all():
                return values
        leaving = np.flatnonzero(~stepping)
        own = []
        for b in lanes[leaving].tolist():
            rng = self._gens[b] = self._generator(b, col)
            own.append(redo(rng))
        own = [np.stack(v) for v in zip(*own)]
        if not picked.size:
            return tuple(own)
        kept = stepping[picked]
        out = []
        for v, w in zip(values, own):
            o = np.empty((len(lanes),) + v.shape[1:], dtype=v.dtype)
            o[stepping], o[leaving] = v[kept], w
            out.append(o)
        return tuple(out)

    def uniforms(self, k, lanes=None):
        """(L, k) uniform doubles in [0, 1), k draws per lane."""
        return self._parse(
            k, lambda u: ((_unit_interval(u),), None), lambda rng: (rng.uniforms(k),), lanes
        )[0]

    def normals(self, k, sigma, lanes=None):
        """(L, k) N(0, sigma^2) deviates, k draws per lane (see normals of
        the generator)."""
        return self._parse(
            k, lambda u: ((_gaussians(u, sigma),), None), lambda rng: (rng.normals(k, sigma),), lanes
        )[0]

    def unit_vectors(self, n, extra=0, lanes=None):
        """(L, n, 3) unit vectors and (L, n, extra) uniforms per lane, drawn
        as unit_vectors of the generator draws them."""
        width = 3 + extra

        def parse(u):
            rows = u.reshape(len(u), n, width)
            v, norm = _gaussian_triples(rows[..., :3])
            redraw = (norm <= _NORM_FLOOR).any(axis=1)
            return (v / norm[..., None], _unit_interval(rows[..., 3:])), redraw

        return self._parse(n * width, parse, lambda rng: rng.unit_vectors(n, extra), lanes)

    def shuffled_prefix(self, n, k, lanes=None):
        """(L, k) int64 shuffled prefixes per lane, drawn as shuffled_prefix
        of the generator draws them."""
        spans = np.arange(n, n - k, -1, dtype=np.uint64)

        def parse(u):
            targets = (u % spans + np.arange(k, dtype=np.uint64)).tolist()
            prefixes = np.array([_fisher_yates(n, row) for row in targets], dtype=np.int64)
            return (prefixes.reshape(len(u), k),), (u > _largest_accepted(spans)).any(axis=1)

        return self._parse(k, parse, lambda rng: (rng.shuffled_prefix(n, k),), lanes)[0]
