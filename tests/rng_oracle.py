"""One-draw-at-a-time reference for the batched RNG and cloud generators.

ScalarXoshiro256PlusPlus is the generator as it was before batching: every
draw runs the xoshiro256++ recurrence through one method call, and every
vector method loops over single draws. stream() runs the same recurrence over
local Python ints, fast enough to check long streams of the stacked kernel. The cloud functions are the matching
per-point loops. The library's batched versions must reproduce their bytes
and leave the generator in the same state.

SplitMix64 seeding lives here as scalar code (seed_state), the reference for
the library's seeding of many seeds at once. same_position tells whether two
generators stand at the same point of their streams from their next draws
alone, so tests read no generator's private state.

Two constants are lifted to module names so tests can tighten them and force
the rare resample paths: NORM_FLOOR (a Gaussian triple at or below it is
redrawn) and rejection_limit(n) (integer draws at or above it are redrawn).
"""

import numpy as np
from scipy.special import ndtri

from rigid_refine import PointCloud

_MASK = (1 << 64) - 1

NORM_FLOOR = 1e-12


def _splitmix64(state):
    """One SplitMix64 step on an int state: (next state, output word)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def seed_state(seed):
    """The four state words of a seed (four ints): SplitMix64 on the seed
    reduced mod 2^64; an all-zero state gets 1 as its first word."""
    state = int(seed) & _MASK
    words = []
    for _ in range(4):
        state, word = _splitmix64(state)
        words.append(word)
    if not any(words):  # all-zero state is the one forbidden state
        words[0] = 1
    return words


def next_draws(rng):
    """The next 4 raw draws of a generator, taken: as many bits as its state."""
    return [rng.next_uint64() for _ in range(4)]


def same_position(rng, other):
    """True when two generators stand at the same stream position, told by
    their next 4 draws, which both take."""
    return next_draws(rng) == next_draws(other)


def rejection_limit(n):
    return ((1 << 64) // n) * n


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & _MASK


def stream(state, counts):
    """Raw draws of one stream from `state` (four ints), one at a time.

    Returns the max(counts) draws and, per count in `counts`, the state after
    that many draws (a list of four ints).
    """
    s0, s1, s2, s3 = state
    mask = _MASK
    draws, states = [], {}
    append = draws.append
    for count in sorted(counts):
        for _ in range(count - len(draws)):
            x = (s0 + s3) & mask
            append((((x << 23) | (x >> 41)) + s0) & mask)
            t = (s1 << 17) & mask
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & mask
        states[count] = [s0, s1, s2, s3]
    return draws, states


class ScalarXoshiro256PlusPlus:
    """Seedable xoshiro256++ stream, one draw per call."""

    def __init__(self, seed):
        self._s = seed_state(seed)

    def next_uint64(self):
        """One raw 64-bit draw (consumes 1 draw)."""
        s = self._s
        result = (_rotl((s[0] + s[3]) & _MASK, 23) + s[0]) & _MASK
        t = (s[1] << 17) & _MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

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
        """n uniform doubles, in draw order (n draws)."""
        return np.array([self.uniform(low, high) for _ in range(n)])

    def normals(self, n, sigma=1.0):
        """n Gaussian deviates N(0, sigma^2) via inverse CDF (n draws)."""
        u = np.array([self.random_open() for _ in range(n)])
        return sigma * ndtri(u)

    def integer_below(self, n):
        """Unbiased integer in [0, n) by rejection (>= 1 draw; retries are rare)."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = rejection_limit(n)
        while True:
            u = self.next_uint64()
            if u < limit:
                return u % n

    def shuffled_prefix(self, n, k):
        """First k entries of a Fisher-Yates shuffle of range(n) (k draws typically)."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        idx = np.arange(n)
        for i in range(k):
            j = i + self.integer_below(n - i)
            idx[i], idx[j] = idx[j], idx[i]
        return idx[:k].copy()

    def unit_vector(self):
        """Isotropic unit 3-vector from 3 Gaussian draws (3 draws per attempt)."""
        while True:
            v = self.normals(3)
            norm = np.linalg.norm(v)
            if norm > NORM_FLOOR:
                return v / norm


def ball_cloud(n, rng):
    """n points uniform in the unit ball (4 draws per point: 3 normals + 1 uniform)."""
    pts = np.empty((n, 3))
    for i in range(n):
        direction = rng.unit_vector()
        radius = rng.random() ** (1.0 / 3.0)
        pts[i] = direction * radius
    return PointCloud(pts)


def sphere_cloud(n, rng):
    """n points uniform on the unit sphere (3 draws per point)."""
    return PointCloud(np.array([rng.unit_vector() for _ in range(n)]))


def slab_cloud(n, rng, thickness=1e-3):
    """n points uniform in [-1,1]^2 x [-thickness/2, thickness/2] (3 draws per point)."""
    if thickness < 0.0:
        raise ValueError("thickness must be >= 0")
    pts = np.empty((n, 3))
    for i in range(n):
        pts[i, 0] = rng.uniform(-1.0, 1.0)
        pts[i, 1] = rng.uniform(-1.0, 1.0)
        pts[i, 2] = rng.uniform(-thickness / 2.0, thickness / 2.0)
    return PointCloud(pts)
