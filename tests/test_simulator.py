import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from uwbloc import simulator
from uwbloc.errors import FileFormatError
from uwbloc.geometry import DEFAULT_ANCHORS, PointMM
from uwbloc.simulator import (
    DRAW_CHUNK,
    MAX_REPS,
    Campaign,
    NoiseConfig,
    Visits,
    STAGE_AUGMENT,
    STAGE_FOREST,
    STAGE_OBSERVATION,
    STAGE_SELECTION,
    STAGE_TRIALS,
    derive_seed,
    measurement_stream,
    read_measurements,
    simulate_campaign,
    simulate_range,
    simulate_range_batch,
    write_measurements,
)

from oracles import IDENTITY_NOISE, distance


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(slope=0.0)
    with pytest.raises(ValueError):
        NoiseConfig(sigma=-1.0)
    with pytest.raises(ValueError, match="^offset must be finite$"):
        NoiseConfig(offset=math.nan)
    with pytest.raises(ValueError):
        NoiseConfig(inflation_factor=0.5)
    with pytest.raises(ValueError):
        NoiseConfig(p_outlier=1.5)
    with pytest.raises(ValueError):
        NoiseConfig(seed=-1)


def test_stage_seeds_are_distinct_and_stable():
    stages = (STAGE_OBSERVATION, STAGE_TRIALS, STAGE_SELECTION, STAGE_AUGMENT, STAGE_FOREST)
    seeds = [derive_seed(0, s) for s in stages]
    assert len(set(seeds)) == len(stages)
    assert seeds == [derive_seed(0, s) for s in stages]
    assert derive_seed(1, STAGE_TRIALS) != derive_seed(0, STAGE_TRIALS)


def test_measurement_stream_is_keyed_per_draw():
    a = measurement_stream(7, 2, 14, 1).normal(0.0, 1.0)
    b = measurement_stream(7, 2, 14, 1).normal(0.0, 1.0)
    assert a == b
    for other in ((8, 2, 14, 1), (7, 3, 14, 1), (7, 2, 15, 1), (7, 2, 14, 2)):
        assert measurement_stream(*other).normal(0.0, 1.0) != a


def test_identity_noise_passes_distances_through():
    rng = measurement_stream(0, 0, 0, 0)
    assert simulate_range(437.5, IDENTITY_NOISE, rng) == 437.5
    assert simulate_range(2500.0, IDENTITY_NOISE, measurement_stream(0, 0, 0, 1)) == 2500.0


def test_simulated_range_is_floored():
    # slope * 0 + 0 + no noise would be 0; the simulator never goes below 1 mm
    assert simulate_range(0.0, IDENTITY_NOISE, measurement_stream(0, 0, 0, 0)) == 1.0


def test_inflation_applies_beyond_threshold():
    noise = NoiseConfig(slope=1.0, offset=0.0, sigma=0.0, inflation_factor=1.0 / 0.9)
    rng = measurement_stream(0, 0, 0, 0)
    assert simulate_range(900.0, noise, rng) == 900.0
    assert simulate_range(1800.0, noise, measurement_stream(0, 0, 0, 1)) == 1800.0 * (1.0 / 0.9)
    # threshold itself is not inflated (strict >)
    assert simulate_range(1000.0, noise, measurement_stream(0, 0, 0, 2)) == 1000.0


def test_outlier_coin_consumes_no_draws_when_disabled():
    # with p_outlier == 0 only the Gaussian is drawn, so the stream's next
    # value must line up with a fresh stream advanced by exactly one normal
    noise = NoiseConfig(sigma=30.0, p_outlier=0.0)
    rng = measurement_stream(3, 1, 2, 0)
    simulate_range(500.0, noise, rng)
    probe = rng.random()
    fresh = measurement_stream(3, 1, 2, 0)
    fresh.normal(0.0, 30.0)
    assert probe == fresh.random()


def test_outlier_multiplier_applies_before_inflation():
    # forced outlier: p = 1, magnitude in [1.5, 3] pushes 800 past the
    # inflation threshold, so both multipliers stack
    noise = NoiseConfig(sigma=0.0, offset=0.0, p_outlier=1.0, inflation_factor=2.0)
    rng = measurement_stream(9, 0, 0, 0)
    expect_rng = measurement_stream(9, 0, 0, 0)
    expect_rng.normal(0.0, 0.0)
    expect_rng.random()
    magnitude = expect_rng.uniform(1.5, 3.0)
    value = simulate_range(800.0, noise, rng)
    assert value == 800.0 * magnitude * 2.0


def test_campaign_rows_are_location_major():
    # one record per location, in order, even for a location given twice
    locs = (PointMM(100.0, 100.0), PointMM(900.0, 1900.0), PointMM(100.0, 100.0))
    campaign = Campaign(locs, 3, DEFAULT_ANCHORS, IDENTITY_NOISE)
    records = simulate_campaign(campaign)
    assert [r.location for r in records] == list(locs)
    assert [r.ranges.shape for r in records] == [(3, 3)] * 3


def test_visits_need_one_row_of_three_ranges_per_reading():
    assert Visits(PointMM(1.0, 1.0), [[1.0, 2.0, 3.0]]).ranges.shape == (1, 3)
    for bad in ([1.0, 2.0, 3.0], [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="shape"):
            Visits(PointMM(1.0, 1.0), bad)


def test_campaign_rows_match_per_draw_streams():
    noise = NoiseConfig(seed=21)
    locs = (PointMM(100.0, 100.0), PointMM(500.0, 700.0))
    records = simulate_campaign(Campaign(locs, 4, DEFAULT_ANCHORS, noise))
    anchor_points = DEFAULT_ANCHORS.as_tuple()
    # recompute an arbitrary reading completely out of order
    li, rep = 1, 2
    expected = [
        simulate_range(distance(locs[li], anchor_points[ai]), noise,
                       measurement_stream(21, li, rep, ai))
        for ai in range(3)
    ]
    assert records[li].ranges[rep].tolist() == expected


def test_campaign_validation():
    with pytest.raises(ValueError):
        Campaign((), 5, DEFAULT_ANCHORS, IDENTITY_NOISE)
    with pytest.raises(ValueError):
        Campaign((PointMM(1.0, 1.0),), 0, DEFAULT_ANCHORS, IDENTITY_NOISE)
    # a rep is one 32-bit word of a draw's key
    with pytest.raises(ValueError, match=f"reps must be in 1..{MAX_REPS}, got {MAX_REPS + 1}"):
        Campaign((PointMM(1.0, 1.0),), MAX_REPS + 1, DEFAULT_ANCHORS, IDENTITY_NOISE)


def test_measurement_file_round_trip(tmp_path):
    records = simulate_campaign(
        Campaign((PointMM(100.0, 100.0), PointMM(700.0, 300.0)), 5, DEFAULT_ANCHORS,
                 NoiseConfig(seed=3))
    )
    path = tmp_path / "meas.csv"
    write_measurements(str(path), records)
    # one row per reading, location-major
    assert len(path.read_text().splitlines()) == 1 + 2 * 5
    back = read_measurements(str(path))
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert a.location == b.location
        assert a.ranges.tolist() == b.ranges.tolist()


def test_read_measurements_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("nonsense\n")
    with pytest.raises(FileFormatError):
        read_measurements(str(path))

    path.write_text("loc_x,loc_y,d_a,d_b,d_c\n1.0,2.0,3.0\n")
    with pytest.raises(FileFormatError, match="5 fields"):
        read_measurements(str(path))

    path.write_text("loc_x,loc_y,d_a,d_b,d_c\n1.0,2.0,x,4.0,5.0\n")
    with pytest.raises(FileFormatError):
        read_measurements(str(path))

    path.write_text("loc_x,loc_y,d_a,d_b,d_c\n1.0,2.0,-3.0,4.0,5.0\n")
    with pytest.raises(FileFormatError):
        read_measurements(str(path))


def test_simulation_is_reproducible():
    campaign = Campaign((PointMM(250.0, 500.0),), 10, DEFAULT_ANCHORS, NoiseConfig(seed=8))
    first = simulate_campaign(campaign)
    second = simulate_campaign(campaign)
    assert [r.ranges.tolist() for r in first] == [r.ranges.tolist() for r in second]


# -- the batched kernel against the single-draw oracle ------------------------
# These compare with numpy's own SeedSequence and PCG64, so unlike the golden
# digests they hold on every numpy version: a change to numpy's seeding fails
# here instead of silently changing every stream.

# one- and two-word entropy, and five words: more seed words than SeedSequence's pool holds
KERNEL_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 + 5)
KERNEL_NOISES = {
    "default": NoiseConfig(),
    "outlier0.3": NoiseConfig(p_outlier=0.3),
    "outlier1.0": NoiseConfig(p_outlier=1.0),
    "sigma0-outlier0.5": NoiseConfig(sigma=0.0, p_outlier=0.5),  # normal(0, 0) still draws
    "identity": IDENTITY_NOISE,
}
# 0 is clamped to 1 mm; with sigma 0 and offset 20 the reading of 980 sits on
# the 1000 mm inflation threshold, and its float neighbours fall either side
EDGE_DISTANCES = (0.0, 980.0, np.nextafter(980.0, 0.0), np.nextafter(980.0, 2000.0),
                  1000.0, np.nextafter(1000.0, 0.0), np.nextafter(1000.0, 2000.0))


def _oracle(d, keys, noise, seed):
    return np.array([
        simulate_range(float(di), noise, measurement_stream(seed, *(int(k) for k in key)))
        for di, key in zip(d, keys)
    ])


def _random_case(n, rng_seed):
    rng = np.random.default_rng(rng_seed)
    keys = np.column_stack(
        [rng.integers(0, 2**32, n), rng.integers(0, 600, n), rng.integers(0, 3, n)]
    )
    d = np.concatenate([EDGE_DISTANCES, rng.uniform(0.0, 3000.0, n - len(EDGE_DISTANCES))])
    return d, keys


def _same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("noise", KERNEL_NOISES.values(), ids=KERNEL_NOISES.keys())
@pytest.mark.parametrize("seed", KERNEL_SEEDS)
def test_batch_kernel_matches_single_draw_oracle(seed, noise):
    d, keys = _random_case(40, seed % 1000)
    keys[:4] = [(0, 0, 0), (2**32 - 1, 0, 2), (0, 2**32 - 1, 1), (2**32 - 1,) * 3]
    assert _same_bits(simulate_range_batch(d, keys, noise, seed), _oracle(d, keys, noise, seed))


def test_batch_kernel_spans_chunks():
    d, keys = _random_case(2 * DRAW_CHUNK + 3, 5)
    for noise in (NoiseConfig(seed=9), NoiseConfig(p_outlier=0.3, seed=9)):
        assert _same_bits(simulate_range_batch(d, keys, noise, 9), _oracle(d, keys, noise, 9))
    # what every pipeline passes: a derived (two-word) seed, and simulate_visits'
    # (location, rep, anchor) keys, here over two chunks and part of a third
    seed = derive_seed(4, STAGE_TRIALS)
    assert seed > 2**32
    xy = np.array([(100.0, 250.0), (900.0, 1750.0), (0.0, 0.0)])
    reps = (2 * DRAW_CHUNK + 5) // 9 + 1
    keys = np.array([(i, rep, j) for i in range(len(xy)) for rep in range(reps) for j in range(3)])
    d = np.array([distance(PointMM(*xy[i]), DEFAULT_ANCHORS.as_tuple()[j]) for i, _, j in keys])
    for noise in (NoiseConfig(), NoiseConfig(p_outlier=0.3)):
        got = simulator.simulate_visits(xy, DEFAULT_ANCHORS, reps, noise, seed)
        assert _same_bits(got.ravel(), _oracle(d, keys, noise, seed))


def test_batch_draw_peak_memory_is_bounded():
    # one 7,200-key call (6 points x 400 reps, as a default evaluation draws):
    # the chunked kernel keeps its working set to a few hundred KiB
    xy = [(250.0, 500.0), (750.0, 500.0), (250.0, 1000.0), (750.0, 1000.0),
          (250.0, 1500.0), (750.0, 1500.0)]
    seed = derive_seed(0, STAGE_TRIALS)
    for noise in (NoiseConfig(), NoiseConfig(p_outlier=0.3)):
        simulator.simulate_visits(xy, DEFAULT_ANCHORS, 400, noise, seed)  # lazy set-up first
        tracemalloc.start()
        try:
            simulator.simulate_visits(xy, DEFAULT_ANCHORS, 400, noise, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 2**20


def test_batch_kernel_empty_batch():
    out = simulate_range_batch(np.empty(0), np.empty((0, 3), dtype=np.int64), NoiseConfig(), 0)
    assert out.shape == (0,) and out.dtype == np.float64


def test_batch_kernel_rejects_what_the_single_draw_path_rejects():
    keys = np.zeros((2, 3), dtype=np.int64)
    with pytest.raises(ValueError, match="finite and >= 0, got -1.0"):
        simulate_range_batch([5.0, -1.0], keys, NoiseConfig(), 0)
    with pytest.raises(ValueError, match="got nan"):
        simulate_range_batch([np.nan, np.inf], keys, NoiseConfig(), 0)
    # a negative key or seed: ValueError, as numpy's SeedSequence raises
    for key in ((-1, 0, 0), (0, 0, -1)):
        with pytest.raises(ValueError):
            measurement_stream(0, *key)
        with pytest.raises(ValueError):
            simulate_range_batch([5.0], np.array([key]), NoiseConfig(), 0)
    with pytest.raises(ValueError):
        simulate_range_batch([5.0], keys[:1], NoiseConfig(), -1)
    # a key of 2**32 or more is two entropy words to numpy; the kernel refuses it
    with pytest.raises(ValueError, match="2\\*\\*32"):
        simulate_range_batch([5.0], np.array([(0, 2**32, 0)]), NoiseConfig(), 0)
    with pytest.raises(TypeError):
        simulate_range_batch([5.0], np.array([(0.0, 1.0, 2.0)]), NoiseConfig(), 0)
    with pytest.raises(ValueError, match="shape|expected"):
        simulate_range_batch([5.0, 6.0], keys[:1], NoiseConfig(), 0)


# -- the array path and the per-key path ---------------------------------------
# simulate_range_batch computes a draw in numpy arithmetic when numpy's
# ziggurat takes its fast path on the key's first raw output, and draws every
# other key on a generator that the call creates for itself. The oracle cases above meet such a slow key
# about once in 200, so these make sure both paths run and agree.


def _slow_kind(seed, key):
    """None if numpy's normal on this key's stream uses one raw output, else
    'tail' (layer 0), 'layer1' or 'wedge' (rabs >= ki)."""
    key = tuple(int(k) for k in key)
    normal = measurement_stream(seed, *key)
    normal.standard_normal()
    raw = measurement_stream(seed, *key).bit_generator
    layer = raw.random_raw() & 0xFF
    if normal.bit_generator.state == raw.state:
        return None
    return {0: "tail", 1: "layer1"}.get(layer, "wedge")


@pytest.fixture
def per_key_rows(monkeypatch):
    """Counts the rows simulate_range_batch sends down the per-key path."""
    simulator._ziggurat_tables()  # recovered before counting
    rows = []
    draw_per_key = simulator._draw_per_key

    def spy(state, inc, outliers):
        rows.append(state[0].size)
        return draw_per_key(state, inc, outliers)

    monkeypatch.setattr(simulator, "_draw_per_key", spy)
    return rows


@pytest.fixture
def fresh_tables():
    """Forget the recovered tables before and after the test."""
    simulator._ziggurat_tables.cache_clear()
    yield
    simulator._ziggurat_tables.cache_clear()


SLOW_SEED = 11
# keys in the ziggurat's tail (layer 0, rabs >= ki[0]) under SLOW_SEED: about
# one key in 4,000 lands there, so a random batch this size may hold none
TAIL_KEYS = [(1051586539, 226, 2), (3360535182, 157, 0), (2287284178, 319, 2)]


@pytest.fixture(scope="module")
def slow_case():
    d, keys = _random_case(4096, SLOW_SEED)
    keys[-len(TAIL_KEYS):] = TAIL_KEYS
    kinds = [_slow_kind(SLOW_SEED, key) for key in keys]
    return d, keys, kinds


@pytest.mark.parametrize("noise", [NoiseConfig(), NoiseConfig(p_outlier=0.3)],
                         ids=["default", "outlier0.3"])
def test_batch_kernel_slow_keys_of_every_kind(slow_case, noise, per_key_rows):
    d, keys, kinds = slow_case
    slow = sum(k is not None for k in kinds)
    assert {"tail", "layer1", "wedge"} <= set(kinds)
    got = simulate_range_batch(d, keys, noise, SLOW_SEED)
    # both paths ran, and the per-key one took exactly the slow keys
    assert 0 < sum(per_key_rows) == slow < len(keys)
    assert _same_bits(got, _oracle(d, keys, noise, SLOW_SEED))


def test_most_keys_take_the_array_path(slow_case, per_key_rows):
    d, keys, _ = slow_case
    simulate_range_batch(d, keys, NoiseConfig(), SLOW_SEED)
    assert sum(per_key_rows) <= 0.03 * len(keys)


def test_ziggurat_tables_pass_their_self_check(fresh_tables):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ki, wi = simulator._ziggurat_tables()
    assert ki.any() and wi.any()


def test_per_key_fallback_keeps_the_bits(fresh_tables, monkeypatch, slow_case, per_key_rows):
    # tables that cannot be recovered send every key down the per-key path
    monkeypatch.setattr(simulator, "_recover_tables", lambda: None)
    simulator._ziggurat_tables.cache_clear()
    d, keys, _ = slow_case
    d, keys = d[:300], keys[:300]
    noise = NoiseConfig(p_outlier=0.3)
    with pytest.warns(RuntimeWarning, match="per key"):
        got = simulate_range_batch(d, keys, noise, SLOW_SEED)
    assert per_key_rows[-1] == len(keys)
    assert _same_bits(got, _oracle(d, keys, noise, SLOW_SEED))


def test_self_check_rejects_wrong_tables(fresh_tables, monkeypatch):
    ki, wi = simulator._recover_tables()
    monkeypatch.setattr(simulator, "_recover_tables", lambda: (ki, np.nextafter(wi, 1.0)))
    with pytest.warns(RuntimeWarning, match="per key"):
        ki_used, _ = simulator._ziggurat_tables()
    assert not ki_used.any()


def test_reused_generator_keeps_no_state(fresh_tables, slow_case):
    # every slow key sets the whole state of its call's generator: draws A, B, A
    # give A's bits both times, and recovering the tables afterwards still
    # passes the self-check
    d, keys, kinds = slow_case
    slow = [i for i, kind in enumerate(kinds) if kind is not None]
    a, b = keys[slow[::2]], keys[slow[1::2]]
    first = simulator._draw_per_key(*simulator._pcg64_seeded(SLOW_SEED, a), True)
    simulator._draw_per_key(*simulator._pcg64_seeded(SLOW_SEED + 1, b), False)
    again = simulator._draw_per_key(*simulator._pcg64_seeded(SLOW_SEED, a), True)
    assert _same_bits(first, again)
    noise = NoiseConfig(p_outlier=0.3)
    want = _oracle(d[:300], keys[:300], noise, SLOW_SEED)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _same_bits(simulate_range_batch(d[:300], keys[:300], noise, SLOW_SEED), want)
        simulator._ziggurat_tables.cache_clear()
        ki, wi = simulator._ziggurat_tables()
        assert ki.any() and wi.any()
        assert _same_bits(simulate_range_batch(d[:300], keys[:300], noise, SLOW_SEED), want)


def test_concurrent_batch_draws_keep_the_bits(fresh_tables, slow_case):
    # four threads draw the slow case three times each at once, switching often,
    # while the tables are recovered under them: every draw gets the serial run's bits
    d, keys, _ = slow_case
    noise = NoiseConfig(p_outlier=0.3)
    want = simulate_range_batch(d, keys, noise, SLOW_SEED)
    simulator._ziggurat_tables.cache_clear()
    start, got = threading.Barrier(4), [[] for _ in range(4)]

    def draw(i):
        start.wait()
        got[i] += [simulate_range_batch(d, keys, noise, SLOW_SEED) for _ in range(3)]

    threads = [threading.Thread(target=draw, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert [len(g) for g in got] == [3] * 4
    assert all(_same_bits(g, want) for draws in got for g in draws)


# (threshold, guess) in (1, 2**52]: the guess exact, one off either way, two
# below, far off either way or missing, and thresholds at both bounds
LEAST_SLOW_HI = 2**52
LEAST_SLOW_CASES = [
    (1000, 1000), (1000, 999), (1000, 1001), (1000, 998), (1000, 10**9), (1000, 3), (1000, None),
    (2, 2), (2, 1), (2, 3), (2, None),
    (LEAST_SLOW_HI, LEAST_SLOW_HI - 1), (LEAST_SLOW_HI, LEAST_SLOW_HI), (LEAST_SLOW_HI, 2**60),
    (LEAST_SLOW_HI, None), (LEAST_SLOW_HI - 1, LEAST_SLOW_HI),
]


@pytest.mark.parametrize("threshold, guess", LEAST_SLOW_CASES)
def test_least_slow_finds_the_threshold(threshold, guess):
    probes = []

    def is_fast(v):
        assert 1 < v < LEAST_SLOW_HI  # lo is known fast and hi counts as slow: neither is probed
        probes.append(v)
        return v < threshold

    assert simulator._least_slow(is_fast, 1, LEAST_SLOW_HI, guess) == threshold
    if guess is not None and abs(guess - threshold) <= 1:
        assert len(probes) <= 3, probes
    # the probes narrowed (lo, hi] by monotonicity alone: none repeats
    assert len(set(probes)) == len(probes)


def test_batch_draws_recover_nothing_at_set_up(tmp_path):
    # what a fresh process does before its first evaluation: load and resolve
    # a config (overrides, or a file), no range drawn yet
    dense = tmp_path / "dense.cfg"
    dense.write_text("grid.spacing = 10\n", encoding="utf-8")
    code = (
        "import sys\n"
        "from uwbloc import simulator\n"
        "from uwbloc.config import load_config\n"
        "for path, overrides in ((None, {'calibration.kind': 'none'}), (None, {}),\n"
        "                        (sys.argv[1], {})):\n"
        "    cfg = load_config(path, overrides)\n"
        "    cfg.pipeline(); cfg.anchors(); cfg.grid()\n"
        "print(simulator._ziggurat_tables.cache_info().misses)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code, str(dense)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"
