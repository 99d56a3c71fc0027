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

Batching. The recurrence exists once, in the private ``_draw(n)``: a loop
over local Python ints that returns n raw draws and writes the state back
once. ``next_uint64`` takes one draw from it and ``next_uint64s(n)`` returns n
as a uint64 array; the vector methods (``uniforms``, ``normals``,
``unit_vectors``, ``shuffled_prefix``) draw their whole batch at once and
apply the float transforms per array. Their results are bit-identical to
drawing one value at a time, which fixes two choices:

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

import numpy as np
from scipy.special import ndtri

_MASK = (1 << 64) - 1

# A Gaussian triple with a norm at or below this is redrawn.
_NORM_FLOOR = 1e-12


def _splitmix64(state):
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


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
        state = int(seed) & _MASK
        words = []
        for _ in range(4):
            state, word = _splitmix64(state)
            words.append(word)
        if not any(words):  # all-zero state is the one forbidden state
            words[0] = 1
        self._s = words

    def _draw(self, n):
        """n raw draws as a list of Python ints (consumes n draws)."""
        s0, s1, s2, s3 = self._s
        mask = _MASK
        out = []
        append = out.append
        for _ in range(n):
            x = (s0 + s3) & mask
            append((((x << 23) | (x >> 41)) + s0) & mask)
            t = (s1 << 17) & mask
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & mask
        self._s = [s0, s1, s2, s3]
        return out

    def next_uint64(self):
        """One raw 64-bit draw (consumes 1 draw)."""
        return self._draw(1)[0]

    def next_uint64s(self, n):
        """n raw 64-bit draws as a uint64 array, in draw order (n draws)."""
        return np.array(self._draw(n), dtype=np.uint64)

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
        return low + (high - low) * _unit_interval(self.next_uint64s(n))

    def normals(self, n, sigma=1.0):
        """n Gaussian deviates N(0, sigma^2) via inverse CDF (n draws)."""
        return sigma * ndtri(_open_unit_interval(self.next_uint64s(n)))

    def _integers_below(self, bounds):
        """One unbiased integer in [0, m) per entry m of `bounds` (uint64, m >= 1).

        One draw per entry, in order; a rejected draw is followed by another
        draw for the same entry.
        """
        top = _largest_accepted(bounds)
        out = np.empty(bounds.size, dtype=np.uint64)
        done = 0
        u = self.next_uint64s(bounds.size)
        while True:
            rejected = np.flatnonzero(u > top[done:])
            stop = rejected[0] if rejected.size else u.size
            out[done : done + stop] = u[:stop] % bounds[done : done + stop]
            if not rejected.size:
                return out
            done += stop
            u = np.concatenate((u[stop + 1 :], self.next_uint64s(1)))

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
        u = self.next_uint64s(n * width)
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
            u = np.concatenate((u[stop * width + 3 :], self.next_uint64s(3)))

    def unit_vector(self):
        """Isotropic unit 3-vector from 3 Gaussian draws (3 draws per attempt)."""
        return self.unit_vectors(1)[0][0]
