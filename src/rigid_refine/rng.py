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

Streams are read in stacks. A ``_Lanes`` block holds B streams (lanes),
each a row of drawn values with its own cursor and the state after its
row's last draw; ``_Lanes.prefetched(seeds, n)`` fills the first n draws of
many seeds' streams with one kernel call per block of at most
``_PREFETCH_DRAWS`` draws (an experiment chunk sizes n by the draws a trial
takes when nothing is redrawn). Each draw kind has one parser, over a stack
of lanes: a call takes the same kind and number of draws from every lane, or
from a subset, and parses them as one array. Lanes standing at one column
read a view of the rows; lanes whose cursors differ are gathered. Lanes that
run past their rows refill together, in one kernel call over their end
states, taking draws ahead: one on the first refill, four times more on each
next, up to ``_LOOKAHEAD``, so a fresh generator's first draw and long runs
of one-at-a-time draws both stay cheap. ``Xoshiro256PlusPlus`` is one lane:
``next_uint64`` takes one draw, ``next_uint64s(n)`` returns n as a uint64
array, and the vector methods (``uniforms``, ``normals``, ``unit_vectors``,
``shuffled_prefix``) take their whole batch at once through the lanes'
parsers. Their results are bit-identical to drawing one value at a time,
which fixes two choices:

- Norms are taken as ``sqrt(v @ v)`` over stacked (1, 3) @ (3, 1) products,
  the same dot product a per-vector ``np.linalg.norm`` computes.
  ``np.linalg.norm(axis=1)``, ``einsum`` and ``sum(v * v)`` add in another
  order and differ in the last bit on about one row in ten.
- Callers that need a cube root (the ball radius) take it with Python's
  float ``**`` (C ``pow``) per value; ``np.cbrt`` and ``np.power`` on arrays
  differ from it in the last bit on 6-12% of values.

Rejections (a near-zero Gaussian triple, an integer draw above the largest
accepted) are near-impossible, so they are handled lane by lane: a lane
with one is parsed again on its own from its rejected draw, and so consumes
exactly the draws the one-at-a-time definition does.
"""

import threading

import numpy as np
from scipy.special import ndtri

from .core import _dot

_MASK = (1 << 64) - 1

# A Gaussian triple with a norm at or below this is redrawn.
_NORM_FLOOR = 1e-12

# Draws a block of lanes takes ahead of its callers when lanes run past their
# rows: one the first time, this factor more each next time, at most
# _LOOKAHEAD. A kernel call costs about 45 us for one draw and 1 ms for 1024,
# so a fresh generator's first draw stays cheap and a long run of single
# draws still refills rarely.
_LOOKAHEAD = 1024
_LOOKAHEAD_GROWTH = 4

# Draws per kernel call when prefetching lanes (8 MiB): a call fills as many
# lanes as fit, but at least one, so a lane that needs more draws than this
# takes them all in one call.
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


class _Lanes:
    """B streams read together: each call takes the same kind and number of
    draws from every lane, or from the lanes of an index array `lanes`, and
    parses them as one stacked array.

    Lane b hands out row b of `draws`, then the draws after state ends[b].
    Each lane has its own cursor. While every lane stands at one column, the
    cursors are that one column, an int, and a call on every lane reads a
    view of the rows; a call on some of the lanes, or a rejection, parts
    them into one column per lane, and a call on parted lanes gathers each
    lane's draws from its cursor. Lanes that run past their rows refill
    together (_refill), and a lane with a rejected draw is parsed again on
    its own (_parse). So each lane gets, bit for bit and draw for draw, what
    the one-at-a-time definition gives.
    """

    def __init__(self, draws, ends):
        self._draws, self._ends = draws, ends
        self._len = np.full(len(draws), draws.shape[1], dtype=np.intp)  # draws in each row
        self._room = draws.shape[1]  # draws in the shortest row
        # The column every lane stands at, or None once they part: an int, so
        # one-at-a-time draws of a generator stay cheap.
        self._step = 0
        self._col = None  # the column of each lane, once they part
        self._ahead = 1  # draws the next refill takes ahead

    @staticmethod
    def prefetched(seeds, n):
        """The lanes of the seeds, in order, in blocks whose rows hold the
        seeds' first n draws: one kernel call per block, as many lanes per
        block as _PREFETCH_DRAWS allows, at least one."""
        per_call = max(1, _PREFETCH_DRAWS // max(n, 1))
        for first in range(0, len(seeds), per_call):
            yield _Lanes(*_streams(_seed_state(seeds[first : first + per_call]), n))

    def __len__(self):
        return len(self._draws)

    def _cursors(self):
        """Each lane's column, (B,) intp, to read or move lane by lane (the
        lanes part here if they stood at one column)."""
        if self._step is not None:
            self._col, self._step = np.full(len(self), self._step, dtype=np.intp), None
        return self._col

    def _move(self, lanes, counts):
        """Move the cursors of the lanes (None: every lane) on by counts, an
        int or one per lane."""
        if lanes is None and self._step is not None:
            self._step += counts
        else:
            self._cursors()[slice(None) if lanes is None else lanes] += counts

    def _window(self, lanes, need):
        """Each lane's next `need` draws, (L, need), the cursors left in
        place. lanes None is every lane; standing at one column, they read a
        view of the rows. Lanes with fewer than `need` left in their rows
        refill first."""
        step = self._step
        if lanes is None and step is not None and step + need <= self._room:
            return self._draws[:, step : step + need]
        picked = np.arange(len(self)) if lanes is None else lanes
        col = self._cursors()[picked]
        short = col + need - self._len[picked]
        if short.max() > 0:  # a refill stands every lane at column 0
            self._refill(picked[short > 0], int(short.max()))
            return self._window(lanes, need)
        if lanes is None and (col == col[0]).all():
            self._step = int(col[0])
            return self._window(lanes, need)
        return self._draws[picked[:, None], col[:, None] + np.arange(need)]

    def _refill(self, lanes, shortfall):
        """Give the lanes (an index array) at least `shortfall` more draws
        each, from one kernel call over their end states.

        The call takes more when draws are taken ahead: one on the first
        refill, _LOOKAHEAD_GROWTH times more on each next, up to _LOOKAHEAD,
        so a fresh generator's first draw and long runs of one-at-a-time
        draws both stay cheap. Every row then holds its draws not yet taken,
        followed by the new ones, and every lane stands at column 0.
        """
        m = max(shortfall, self._ahead)
        self._ahead = min(self._ahead * _LOOKAHEAD_GROWTH, _LOOKAHEAD)
        draws, self._ends[lanes] = _streams(self._ends[lanes], m)
        col = self._cursors()
        rest = self._len - col
        length = rest.copy()
        length[lanes] += m
        rows = np.empty((len(self), length.max()), dtype=np.uint64)
        b, j = np.nonzero(np.arange(rows.shape[1]) < rest[:, None])
        rows[b, j] = self._draws[b, col[b] + j]
        rows[lanes[:, None], rest[lanes, None] + np.arange(m)] = draws
        self._draws, self._len, self._room, self._step = rows, length, int(length.min()), 0

    def _take(self, k, lanes=None):
        """(L, k): the lanes' next k raw draws each, taken."""
        if k < 0:
            raise ValueError("draw count must be >= 0")
        u = self._window(lanes, k)
        self._move(lanes, k)
        return u

    def _parse(self, n, width, head, parse, lanes=None):
        """The lanes' next n items of `width` draws each, parsed: a tuple of
        (L, n, ...) arrays.

        parse(u, items) takes the (T, m, width) draws of m items of T lanes
        and the (m,) item numbers, and returns a tuple of (T, m, ...) values
        and a (T, m) mask of rejected items. A rejected item takes its first
        `head` draws and is drawn again after them. Every lane's items are
        parsed together; a lane with a rejection is then parsed again on its
        own, from its first rejected item on.
        """
        u = self._window(lanes, n * width)
        out, rejected = parse(u.reshape(len(u), n, width), np.arange(n))
        redo = rejected.any(axis=1)
        if not redo.any():
            self._move(lanes, n * width)
            return out
        # Every lane moves to its first rejected item before any lane draws
        # again: a refill keeps only the draws from each lane's cursor on.
        picked = np.arange(len(self)) if lanes is None else lanes
        first = np.where(redo, rejected.argmax(axis=1), n)
        self._move(picked, first * width)
        for t in np.flatnonzero(redo):
            lane, j = picked[t : t + 1], first[t]
            while j < n:  # item j was rejected
                self._move(lane, head)
                u = self._window(lane, (n - j) * width)
                values, rejected = parse(u.reshape(1, n - j, width), np.arange(j, n))
                ok = rejected[0].argmax() if rejected.any() else n - j
                for whole, part in zip(out, values):
                    whole[t, j : j + ok] = part[0, :ok]
                self._move(lane, ok * width)
                j += ok
        return out

    def _uniforms(self, k, lanes=None):
        """(L, k) uniform doubles in [0, 1), k draws per lane."""
        return _unit_interval(self._take(k, lanes))

    def _normals(self, k, sigma, lanes=None):
        """(L, k) N(0, sigma^2) deviates, k draws per lane (see normals)."""
        return _gaussians(self._take(k, lanes), sigma)

    def _integers_below(self, bounds, lanes=None):
        """(L, len(bounds)) unbiased integers, entry j in [0, bounds[j])
        (uint64, bounds >= 1): one draw per entry, in order; a rejected draw
        is followed by another draw for the same entry."""
        top = _largest_accepted(bounds)

        def parse(u, items):
            u = u[..., 0]
            return (u % bounds[items],), u > top[items]

        return self._parse(len(bounds), 1, 1, parse, lanes)[0]

    def _shuffled_prefixes(self, n, k, lanes=None):
        """(L, k) int64 shuffled prefixes per lane (see shuffled_prefix)."""
        spans = np.arange(n, n - k, -1, dtype=np.uint64)
        targets = self._integers_below(spans, lanes) + np.arange(k, dtype=np.uint64)
        prefixes = [_fisher_yates(n, row) for row in targets.tolist()]
        return np.array(prefixes, dtype=np.int64).reshape(len(targets), k)

    def _unit_vectors(self, n, extra=0, lanes=None):
        """(L, n, 3) unit vectors and (L, n, extra) uniforms per lane (see
        unit_vectors)."""

        def parse(u, items):
            v, norm = _gaussian_triples(u[..., :3])
            return (v / norm[..., None], _unit_interval(u[..., 3:])), norm <= _NORM_FLOOR

        return self._parse(n, 3 + extra, 3, parse, lanes)


class Xoshiro256PlusPlus(_Lanes):
    """Seedable xoshiro256++ stream with uniform, Gaussian, and integer draws:
    one lane of _Lanes."""

    def __init__(self, seed):
        super().__init__(np.empty((1, 0), dtype=np.uint64), _seed_state(seed)[None])

    def next_uint64(self):
        """One raw 64-bit draw (consumes 1 draw)."""
        return self._take(1).item()

    def next_uint64s(self, n):
        """n raw 64-bit draws as a uint64 array, in draw order (n draws)."""
        return self._take(n)[0].copy()

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
        return low + (high - low) * self._uniforms(n)[0]

    def normals(self, n, sigma=1.0):
        """n Gaussian deviates N(0, sigma^2) via inverse CDF (n draws).

        A deviate beyond the float range is +-inf, without a warning (an
        overflow-scale sigma; make_problem clamps it).
        """
        return self._normals(n, sigma)[0]

    def integer_below(self, n):
        """Unbiased integer in [0, n) by rejection (>= 1 draw; retries are rare).

        n must be below 2^64.
        """
        if not 0 < n <= _MASK:
            raise ValueError("n must lie in [1, 2**64)")
        return int(self._integers_below(np.array([n], dtype=np.uint64))[0, 0])

    def shuffled_prefix(self, n, k):
        """First k entries of a Fisher-Yates shuffle of range(n) (k draws typically).

        Swaps position i with a uniform position in [i, n) for i < k; the
        prefix is a uniform ordered sample without replacement. Draw i is
        integer_below(n - i); all k are drawn before the swaps.
        """
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        return self._shuffled_prefixes(n, k)[0]

    def unit_vectors(self, n, extra=0):
        """n isotropic unit 3-vectors, each followed by `extra` uniform draws.

        Per vector: 3 Gaussian draws, all three redrawn while their norm is
        <= 1e-12 (astronomically unlikely), then `extra` draws mapped to
        [0, 1). Returns the (n, 3) vectors and the (n, extra) uniforms; draws
        (3 + extra) per vector plus 3 per redraw.
        """
        vectors, uniforms = self._unit_vectors(n, extra)
        return vectors[0], uniforms[0]

    def unit_vector(self):
        """Isotropic unit 3-vector from 3 Gaussian draws (3 draws per attempt)."""
        return self._unit_vectors(1)[0][0, 0]
