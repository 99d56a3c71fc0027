"""Batched RNG draws against the one-draw-at-a-time oracle: bytes and state.

Every batched generator must return the bytes of tests/rng_oracle.py and
leave the stream where the oracle leaves it, including on the rare resample
paths (forced here by tightening the oracle's and the library's limits
together) and against digests frozen before batching. The stacked kernel
behind them is checked directly: draws and end states for many stream and
draw counts, prefetched lanes read in odd pieces past their buffers, and
its jump table built by racing threads. A generator's stream position is
told by its next draws (rng_oracle.same_position), not its private state.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rng_oracle
from conftest import run_python
from rigid_refine import ball_cloud, slab_cloud, sphere_cloud
from rigid_refine import rng as rng_module
from rigid_refine.rng import Xoshiro256PlusPlus

SEEDS = range(200)
SIZES = (1, 2, 32, 717, 1024, 1434)


def pair(seed):
    return Xoshiro256PlusPlus(seed), rng_oracle.ScalarXoshiro256PlusPlus(seed)


def same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def same_bytes_and_state(got, want, rng, oracle):
    same_bytes(got, want)
    assert rng_oracle.same_position(rng, oracle)


@pytest.mark.parametrize("n", SIZES)
def test_streams_match_oracle(n):
    for seed in SEEDS:
        rng, oracle = pair(seed)
        got = rng.next_uint64s(n)
        want = np.array([oracle.next_uint64() for _ in range(n)], dtype=np.uint64)
        same_bytes_and_state(got, want, rng, oracle)
        same_bytes_and_state(rng.uniforms(n), oracle.uniforms(n), rng, oracle)
        same_bytes_and_state(rng.uniforms(n, -2.0, 0.7), oracle.uniforms(n, -2.0, 0.7), rng, oracle)
        same_bytes_and_state(rng.normals(n), oracle.normals(n), rng, oracle)
        same_bytes_and_state(rng.normals(n, sigma=0.01), oracle.normals(n, sigma=0.01), rng, oracle)
        assert rng.next_uint64() == oracle.next_uint64()


@pytest.mark.parametrize("n", SIZES)
def test_clouds_match_oracle(n):
    for seed in SEEDS:
        rng, oracle = pair(seed)
        for batched, scalar in (
            (ball_cloud, rng_oracle.ball_cloud),
            (sphere_cloud, rng_oracle.sphere_cloud),
            (slab_cloud, rng_oracle.slab_cloud),
        ):
            same_bytes_and_state(batched(n, rng).points, scalar(n, oracle).points, rng, oracle)
        thin = slab_cloud(n, rng, thickness=0.37).points
        same_bytes_and_state(thin, rng_oracle.slab_cloud(n, oracle, thickness=0.37).points, rng, oracle)


def test_shuffle_and_unit_vector_match_oracle():
    for seed in SEEDS:
        rng, oracle = pair(seed)
        for n, k in ((1, 1), (2, 1), (32, 32), (1434, 1434), (3000, 1434), (5, 0)):
            same_bytes_and_state(rng.shuffled_prefix(n, k), oracle.shuffled_prefix(n, k), rng, oracle)
        same_bytes_and_state(rng.unit_vector(), oracle.unit_vector(), rng, oracle)
        assert rng.integer_below(7) == oracle.integer_below(7)
        assert rng_oracle.same_position(rng, oracle)


def stream_position(seed, rng, limit):
    """Draws of the stream of `seed` before the position of rng (which takes
    its next 4 draws to tell), looked for up to `limit`."""
    ahead = rng_oracle.next_draws(rng)
    draws, _ = rng_oracle.stream(rng_oracle.seed_state(seed), {limit + 4})
    for count in range(limit + 1):
        if draws[count : count + 4] == ahead:
            return count
    raise AssertionError("position not reached")


def test_norm_redraws_match_oracle(monkeypatch):
    # With a floor of 1, about one Gaussian triple in five is redrawn, so
    # every cloud below takes many redraws, some back to back.
    monkeypatch.setattr(rng_module, "_NORM_FLOOR", 1.0)
    monkeypatch.setattr(rng_oracle, "NORM_FLOOR", 1.0)
    for seed in range(40):
        for n in (1, 2, 32, 717):
            rng, oracle = pair(seed)
            same_bytes_and_state(ball_cloud(n, rng).points, rng_oracle.ball_cloud(n, oracle).points, rng, oracle)
            same_bytes_and_state(sphere_cloud(n, rng).points, rng_oracle.sphere_cloud(n, oracle).points, rng, oracle)
            same_bytes_and_state(rng.unit_vector(), oracle.unit_vector(), rng, oracle)
    rng = Xoshiro256PlusPlus(0)
    ball_cloud(717, rng)
    assert stream_position(0, rng, 10000) > 4 * 717


def test_integer_rejections_match_oracle(monkeypatch):
    # Accept only draws below about 2^62: three draws in four are rejected.
    monkeypatch.setattr(rng_oracle, "rejection_limit", lambda n: ((1 << 62) // n) * n)
    monkeypatch.setattr(
        rng_module,
        "_largest_accepted",
        lambda bounds: (np.uint64(1 << 62) // bounds) * bounds - np.uint64(1),
    )
    for seed in range(40):
        rng, oracle = pair(seed)
        for n, k in ((1, 1), (2, 2), (32, 32), (1434, 1434), (3000, 717)):
            same_bytes_and_state(rng.shuffled_prefix(n, k), oracle.shuffled_prefix(n, k), rng, oracle)
        assert rng.integer_below(1000) == oracle.integer_below(1000)
        assert rng_oracle.same_position(rng, oracle)
    rng = Xoshiro256PlusPlus(0)
    rng.shuffled_prefix(32, 32)
    assert stream_position(0, rng, 1000) > 32


def digest(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


def test_golden_digests():
    # Frozen from the one-draw-at-a-time implementation.
    X = Xoshiro256PlusPlus
    assert digest(ball_cloud(1024, X(0)).points) == (
        "a3ae5732d97b3b7be5bd262e950c85e97435c4a4e9bf074e262c02f17d0b748a"
    )
    assert digest(sphere_cloud(717, X(1)).points) == (
        "a829e47794c1547db40ef284980ed88eb2ffd680219ff39d4c948f95b82ae660"
    )
    assert digest(slab_cloud(64, X(2)).points) == (
        "f949eca870e847fba19d4d75894feed5a321a6c01611b0a8dd64d80858f33f26"
    )
    assert digest(X(3).normals(3072, sigma=0.01)) == (
        "b050ba57dc18a6703e24cd2f256fab0b1533df8b9111babab094a61d5c7acd93"
    )
    assert digest(X(4).shuffled_prefix(1434, 1434).astype("<i8")) == (
        "06cd234c9472000f7f93bbcd9fa331a9a2f5cf25e9e2252f33f6fcbd634ae649"
    )
    assert digest(X(5).uniforms(1000, -2.0, 3.0)) == (
        "0127021c23f646198958187954e46928cb2736d8f39e579aa7661bbd1231acf9"
    )


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_slab_cloud_rejects_bad_thickness(bad):
    with pytest.raises(ValueError, match="thickness"):
        slab_cloud(8, Xoshiro256PlusPlus(0), thickness=bad)


def test_integer_below_range_check():
    rng = Xoshiro256PlusPlus(0)
    for bad in (0, -3, 1 << 64):
        with pytest.raises(ValueError):
            rng.integer_below(bad)
    assert rng_oracle.same_position(rng, Xoshiro256PlusPlus(0))
    assert rng.integer_below((1 << 64) - 1) < (1 << 64) - 1


KERNEL_STREAMS = (1, 3, 8, 500)
KERNEL_LENGTHS = (0, 1, 2, 7, 8, 9, 230, 7174, 9333)


@pytest.fixture(scope="module")
def oracle_streams():
    """Per seed 0..499: the oracle's first 9333 draws and its state after
    each length in KERNEL_LENGTHS."""
    counts = set(KERNEL_LENGTHS)
    streams = []
    for seed in range(max(KERNEL_STREAMS)):
        draws, states = rng_oracle.stream(rng_oracle.seed_state(seed), counts)
        streams.append((np.array(draws, dtype=np.uint64), states))
    return streams


def seed_states(count):
    return rng_module._seed_state(range(count))


@pytest.mark.parametrize("streams", KERNEL_STREAMS)
def test_stacked_kernel_matches_oracle(streams, oracle_streams):
    states = seed_states(streams)
    for n in KERNEL_LENGTHS:
        draws, ends = rng_module._streams(states, n)
        assert draws.shape == (streams, n) and draws.dtype == np.uint64
        assert ends.shape == (streams, 4) and ends.dtype == np.uint64
        want = np.array([oracle_streams[b][0][:n] for b in range(streams)], dtype=np.uint64)
        assert draws.tobytes() == want.reshape(streams, n).tobytes()
        want_ends = np.array([oracle_streams[b][1][n] for b in range(streams)], dtype=np.uint64)
        assert ends.tobytes() == want_ends.tobytes()


def test_prefetched_generators_in_odd_pieces_match_oracle():
    # Pieces cross the 50-draw prefetch and the look-ahead refills, come in
    # every draw kind, to every lane or to every other one, so the lanes'
    # cursors part; each lane must stand where its oracle does after every
    # piece.
    pieces = (1, 7, 0, 13, 29, 1, 3, 1500, 2, rng_module._LOOKAHEAD + 5, 1)
    seeds = list(range(10, 17))
    (lanes,) = rng_module._Lanes.prefetched(seeds, 50)
    oracles = [rng_oracle.ScalarXoshiro256PlusPlus(seed) for seed in seeds]
    subsets = (None, np.arange(0, len(seeds), 2), np.arange(1, len(seeds), 2))
    for k, size in enumerate(pieces):
        subset = subsets[k % len(subsets)]
        picked = [oracles[b] for b in (range(len(seeds)) if subset is None else subset)]
        if k % 2 == 0:
            got = lanes._take(size, subset)
            want = [np.array([o.next_uint64() for _ in range(size)], dtype=np.uint64) for o in picked]
        elif k % 4 == 1:
            got, want = lanes._uniforms(size, subset), [o.uniforms(size) for o in picked]
        else:
            got, want = lanes._normals(size, 1.0, subset), [o.normals(size) for o in picked]
        same_bytes(got, np.stack(want))
        assert lanes._take(4).tolist() == [rng_oracle.next_draws(o) for o in oracles]


def test_prefetch_is_split_into_bounded_kernel_calls(monkeypatch):
    calls = []
    streams = rng_module._streams

    def counted(states, n):
        calls.append(len(states))
        return streams(states, n)

    monkeypatch.setattr(rng_module, "_streams", counted)
    monkeypatch.setattr(rng_module, "_PREFETCH_DRAWS", 100)
    seeds = list(range(7))
    blocks = list(rng_module._Lanes.prefetched(seeds, 30))
    assert calls == [3, 3, 1]
    got = np.concatenate([lanes._take(30) for lanes in blocks])
    want = [rng_oracle.stream(rng_oracle.seed_state(seed), {30})[0] for seed in seeds]
    same_bytes(got, np.array(want, dtype=np.uint64))
    assert len(calls) == 3  # the prefetched draws were enough


def oracle_draws(kind, oracle, size, arg):
    """What one lane's call of `kind` gives, drawn one value at a time."""
    if kind == "raw":
        return [np.array([oracle.next_uint64() for _ in range(size)], dtype=np.uint64)]
    if kind == "uniforms":
        return [oracle.uniforms(size)]
    if kind == "normals":
        return [oracle.normals(size, arg)]
    if kind == "shuffled_prefix":
        return [oracle.shuffled_prefix(size + arg, size)]
    vectors, uniforms = [], []
    for _ in range(size):
        vectors.append(oracle.unit_vector())
        uniforms.append(oracle.uniforms(arg))
    return [np.array(vectors).reshape(size, 3), np.array(uniforms).reshape(size, arg)]


def lane_draws(kind, lanes, size, arg, subset):
    """The stacked call of `kind` on the lanes of subset (None: every lane)."""
    if kind == "raw":
        return [lanes._take(size, subset)]
    if kind == "uniforms":
        return [lanes._uniforms(size, subset)]
    if kind == "normals":
        return [lanes._normals(size, arg, subset)]
    if kind == "shuffled_prefix":
        return [lanes._shuffled_prefixes(size + arg, size, subset)]
    return list(lanes._unit_vectors(size, arg, subset))


LANE_CALL = st.tuples(
    st.sampled_from(("raw", "uniforms", "normals", "unit_vectors", "shuffled_prefix")),
    st.integers(0, 6),
    st.integers(0, 3),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(0, 10**6),
    st.integers(1, 5),
    st.integers(0, 12),
    st.lists(st.tuples(LANE_CALL, st.none() | st.sets(st.integers(0, 4), min_size=1)), min_size=1, max_size=8),
)
def test_lane_subsets_in_any_order_match_their_oracles(base, count, prefetch, calls):
    # Calls of every kind on random lane subsets part the lanes' cursors; a
    # small prefetch makes rows run out and refill, and the tightened norm
    # floor and integer limit make rejections common. Each lane must give
    # its own oracle's bytes and stand where it does at the end.
    seeds = list(range(base, base + count))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng_module, "_NORM_FLOOR", 1.0)
        patch.setattr(rng_oracle, "NORM_FLOOR", 1.0)
        patch.setattr(rng_oracle, "rejection_limit", lambda n: ((1 << 62) // n) * n)
        patch.setattr(
            rng_module,
            "_largest_accepted",
            lambda bounds: (np.uint64(1 << 62) // bounds) * bounds - np.uint64(1),
        )
        (lanes,) = rng_module._Lanes.prefetched(seeds, prefetch)
        oracles = [rng_oracle.ScalarXoshiro256PlusPlus(seed) for seed in seeds]
        for (kind, size, arg), subset in calls:
            subset = None if subset is None else np.array(sorted(b for b in subset if b < count))
            if subset is not None and not subset.size:
                continue
            if kind == "normals":
                arg = 10.0**-arg
            picked = range(count) if subset is None else subset
            want = zip(*(oracle_draws(kind, oracles[b], size, arg) for b in picked))
            for got, parts in zip(lane_draws(kind, lanes, size, arg, subset), want):
                same_bytes(got, np.stack(parts))
        assert lanes._take(4).tolist() == [rng_oracle.next_draws(o) for o in oracles]


SEEDING_CASES = [0, 1, 2, -1, -(1 << 63), -(1 << 70) - 5, (1 << 63) + 7, (1 << 64) - 1, 1 << 64, 3 << 90]


def test_seeding_many_seeds_at_once_matches_scalar_splitmix():
    # Negative and huge seeds are reduced mod 2^64 first, one at a time or
    # many at once.
    many = rng_module._seed_state(SEEDING_CASES)
    assert many.shape == (len(SEEDING_CASES), 4) and many.dtype == np.uint64
    for seed, words in zip(SEEDING_CASES, many):
        want = rng_oracle.seed_state(seed)
        assert [int(w) for w in words] == want
        assert [int(w) for w in rng_module._seed_state(seed)] == want
        assert rng_oracle.same_position(Xoshiro256PlusPlus(seed), rng_oracle.ScalarXoshiro256PlusPlus(seed))
    assert rng_module._seed_state([]).shape == (0, 4)


def test_all_zero_seed_state_gets_a_first_word_of_one(monkeypatch):
    # No seed is known to mix to the forbidden all-zero state, so a zero
    # multiplier forces it: every word is then zero, and the rule sets the
    # first to 1, for each seed of a batch.
    monkeypatch.setattr(rng_module, "_MIX2", np.uint64(0))
    states = rng_module._seed_state([0, -1, 1 << 80])
    assert states.tolist() == [[1, 0, 0, 0]] * 3


def test_jump_ahead_matches_stepping():
    states = seed_states(5)
    for i in range(13):
        jumped = rng_module._jump(states, rng_module._jump_table(i))
        assert jumped.tobytes() == rng_module._streams(states, 2**i)[1].tobytes()


def test_negative_draw_count_is_rejected():
    rng = Xoshiro256PlusPlus(0)
    with pytest.raises(ValueError, match="draw count"):
        rng.uniforms(-1)
    assert rng_oracle.same_position(rng, Xoshiro256PlusPlus(0))


COLD_TABLE_SCRIPT = """
import sys, threading
sys.path.insert(0, {tests!r})
sys.setswitchinterval(1e-6)
import numpy as np
import rng_oracle
from rigid_refine import rng

assert not rng._JUMPS
lengths = (9333, 20000, 700, 40000)
barrier = threading.Barrier(len(lengths))
results = {{}}

def work(t, n):
    states = np.array([rng._seed_state(100 * t + b) for b in range(3)])
    barrier.wait(timeout=60)
    results[t] = rng._streams(states, n)

threads = [threading.Thread(target=work, args=(t, n)) for t, n in enumerate(lengths)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=120)
    assert not thread.is_alive()
for t, n in enumerate(lengths):
    draws, ends = results[t]
    for b in range(3):
        state = rng_oracle.seed_state(100 * t + b)
        want, states = rng_oracle.stream(state, {{n}})
        assert draws[b].tobytes() == np.array(want, dtype=np.uint64).tobytes()
        assert [int(w) for w in ends[b]] == states[n]
built = [table.copy() for table in rng._JUMPS]
rng._JUMPS.clear()
rng._jump_table(len(built) - 1)
assert all(np.array_equal(a, b) for a, b in zip(built, rng._JUMPS))
print("ok", len(built))
"""


def test_cold_jump_table_is_thread_safe():
    # A fresh interpreter, so the jump table starts empty; four threads then
    # need different powers of it at once.
    tests = str(pathlib.Path(__file__).resolve().parent)
    result = run_python("-c", COLD_TABLE_SCRIPT.format(tests=tests))
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("ok")


KERNEL_MEMORY_SCRIPT = """
import json, tracemalloc
tracemalloc.start()
from rigid_refine import rng
base = tracemalloc.get_traced_memory()[0]
tracemalloc.reset_peak()
rng._streams(rng._seed_state(1)[None], 7174)
current, peak = tracemalloc.get_traced_memory()
shapes = sorted({str((table.shape, table.dtype.name)) for table in rng._JUMPS})
print(json.dumps([len(rng._JUMPS), shapes, current - base, peak - base]))
"""


def test_jump_tables_stay_packed():
    # The tables for one N=1024 trial's draws (13 powers) are kept as bits,
    # 8 KiB each, where a float32 table would take 256 KiB. A fresh
    # interpreter, so the tables are built inside the measurement.
    result = run_python("-c", KERNEL_MEMORY_SCRIPT)
    assert result.returncode == 0, result.stderr
    count, shapes, retained, peak = json.loads(result.stdout)
    assert count >= 13
    assert shapes == ["((256, 4), 'uint64')"]
    assert retained < 256 * 1024
    assert peak < 1536 * 1024
