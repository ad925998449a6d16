import hashlib
import math
import os
import struct
import subprocess
import sys
import threading
import tracemalloc

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

import oracles
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
    state = measurement_stream(7, 2, 14, 1)
    assert state.dtype == np.uint64 and state.tolist() == [oracles.key_state(7, (2, 14, 1))]
    a = simulator._normals(state, 0)
    assert _same_bits(simulator._normals(measurement_stream(7, 2, 14, 1), 0), a)
    for other in ((8, 2, 14, 1), (7, 3, 14, 1), (7, 2, 15, 1), (7, 2, 14, 2)):
        assert simulator._normals(measurement_stream(*other), 0) != a


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


def test_outlier_coin_consumes_no_draws_when_disabled(monkeypatch):
    # with p_outlier == 0 only the normal is drawn: neither the coin (draw 1) nor the magnitude
    # (draw 2) is, in the package or in the oracle
    asked, uniforms = [], simulator._uniforms

    def counted(h, purpose):
        asked.append(purpose)
        return uniforms(h, purpose)

    monkeypatch.setattr(simulator, "_uniforms", counted)
    for p_outlier, purposes in ((0.0, []), (0.3, [2, 1])):
        asked.clear()
        noise = NoiseConfig(sigma=30.0, p_outlier=p_outlier)
        got = simulate_range(500.0, noise, measurement_stream(3, 1, 2, 0))
        stream = oracles.DrawStream(3, (1, 2, 0))
        assert got == oracles.simulate_range(500.0, noise, stream)
        assert asked == purposes
        assert (stream.drawn == 1) == (p_outlier == 0.0)


def test_outlier_multiplier_applies_before_inflation():
    # forced outlier: p = 1, magnitude in [1.5, 3] pushes 800 past the
    # inflation threshold, so both multipliers stack
    noise = NoiseConfig(sigma=0.0, offset=0.0, p_outlier=1.0, inflation_factor=2.0)
    stream = oracles.DrawStream(9, (0, 0, 0))
    stream.normal(0.0, 0.0)
    stream.random()
    magnitude = stream.uniform(1.5, 3.0)
    assert 800.0 * magnitude > noise.inflation_threshold
    value = simulate_range(800.0, noise, measurement_stream(9, 0, 0, 0))
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


# -- the batched kernel against the single-draw oracle -------------------------
# A draw is a pure function of its key, so the batch kernel must give, row for
# row, the bits of the scalar noise model over the pure-Python stream in
# tests/oracles.py, which rebuilds every word from SplitMix64 and the ziggurat
# one at a time.

# one, two and three 32-bit words, and five
KERNEL_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 7, 2**128 + 5)
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

PATH_SEED = 11
# keys whose normal under PATH_SEED takes each path of the ziggurat, and the attempts it makes
PATH_KEYS = {
    (1969181736, 335, 1): ("wedge-accept",),
    (867281912, 300, 1): ("wedge-accept",),  # layer 1, which is all wedge
    (2321661935, 536, 2): ("wedge-reject", "fast"),
    (62027659, 578, 1): ("wedge-reject", "wedge-accept"),
    (3784578454, 575, 1): ("wedge-reject", "wedge-reject", "fast"),
    (2081841404, 356, 2): ("tail", "tail-accept"),
    (2325849432, 7, 2): ("tail", "tail-reject", "tail-accept"),
}


def _oracle(d, keys, noise, seed):
    return np.array([
        oracles.simulate_range(float(di), noise, oracles.DrawStream(seed, tuple(int(k) for k in key)))
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


# keys per chunk in the tests that run the pure-Python oracle over batches across chunk edges,
# so that their cost does not follow DRAW_CHUNK
SMALL_CHUNK = 256


@pytest.mark.parametrize("noise", [NoiseConfig(), NoiseConfig(p_outlier=0.3)], ids=["default", "outlier0.3"])
def test_batch_kernel_matches_the_streams_on_every_path(noise, monkeypatch):
    # the keys of PATH_KEYS across the first of two chunk edges, among random ones
    monkeypatch.setattr(simulator, "DRAW_CHUNK", SMALL_CHUNK)
    d, keys = _random_case(2 * SMALL_CHUNK + 3, PATH_SEED)
    paths = slice(SMALL_CHUNK - 4, SMALL_CHUNK + 3)
    keys[paths] = list(PATH_KEYS)
    streams = [oracles.DrawStream(PATH_SEED, tuple(int(k) for k in key)) for key in keys]
    want = np.array([oracles.simulate_range(float(di), noise, s) for di, s in zip(d, streams)])
    assert [tuple(s.events) for s in streams[paths]] == list(PATH_KEYS.values())
    if noise.p_outlier:  # both sides of the outlier coin: the second draw of each stream
        coins = []
        for key in keys:
            stream = oracles.DrawStream(PATH_SEED, tuple(int(k) for k in key))
            stream.normal()
            coins.append(stream.random() < noise.p_outlier)
        assert 0 < sum(coins) < len(coins)
    assert _same_bits(simulate_range_batch(d, keys, noise, PATH_SEED), want)


@pytest.mark.parametrize("n", [3 * SMALL_CHUNK - 1, 3 * SMALL_CHUNK, 3 * SMALL_CHUNK + 1])
def test_a_draw_is_the_same_in_any_chunk_or_order(n, monkeypatch):
    monkeypatch.setattr(simulator, "DRAW_CHUNK", SMALL_CHUNK)
    d, keys = _random_case(n, n)
    keys[SMALL_CHUNK - 4:SMALL_CHUNK + 3] = list(PATH_KEYS)
    noise = NoiseConfig(p_outlier=0.3)
    want = simulate_range_batch(d, keys, noise, PATH_SEED)
    order = np.random.default_rng(n).permutation(n)
    assert _same_bits(simulate_range_batch(d[order], keys[order], noise, PATH_SEED), want[order])
    halves = [simulate_range_batch(d[part], keys[part], noise, PATH_SEED)
              for part in (slice(None, n // 2), slice(n // 2, None))]
    assert _same_bits(np.concatenate(halves), want)
    # smaller chunks
    monkeypatch.setattr(simulator, "DRAW_CHUNK", 7)
    assert _same_bits(simulate_range_batch(d, keys, noise, PATH_SEED), want)


def test_a_batch_across_the_real_chunk_edge_draws_as_7_key_chunks(monkeypatch):
    # at the module's own DRAW_CHUNK, with PATH_KEYS across its edge: every 97th row and
    # the rows around the edge keep their bits when drawn again in chunks of 7 keys
    n = DRAW_CHUNK + 8
    d, keys = _random_case(n, 13)
    keys[DRAW_CHUNK - 4:DRAW_CHUNK + 3] = list(PATH_KEYS)
    noise = NoiseConfig(p_outlier=0.3)
    want = simulate_range_batch(d, keys, noise, PATH_SEED)
    rows = np.r_[0:DRAW_CHUNK - 7:97, DRAW_CHUNK - 7:n]
    monkeypatch.setattr(simulator, "DRAW_CHUNK", 7)
    assert _same_bits(simulate_range_batch(d[rows], keys[rows], noise, PATH_SEED), want[rows])


def test_batch_kernel_spans_chunks(monkeypatch):
    monkeypatch.setattr(simulator, "DRAW_CHUNK", SMALL_CHUNK)
    d, keys = _random_case(2 * SMALL_CHUNK + 3, 5)
    for noise in (NoiseConfig(seed=9), NoiseConfig(p_outlier=0.3, seed=9)):
        assert _same_bits(simulate_range_batch(d, keys, noise, 9), _oracle(d, keys, noise, 9))
    # what every pipeline passes: a derived (two-word) seed, and simulate_visits'
    # (location, rep, anchor) keys, here over two chunks and part of a third
    seed = derive_seed(4, STAGE_TRIALS)
    assert seed > 2**32
    xy = np.array([(100.0, 250.0), (900.0, 1750.0), (0.0, 0.0)])
    reps = (2 * SMALL_CHUNK + 5) // 9 + 1
    keys = np.array([(i, rep, j) for i in range(len(xy)) for rep in range(reps) for j in range(3)])
    d = np.array([distance(PointMM(*xy[i]), DEFAULT_ANCHORS.as_tuple()[j]) for i, _, j in keys])
    for noise in (NoiseConfig(), NoiseConfig(p_outlier=0.3)):
        got = simulator.simulate_visits(xy, DEFAULT_ANCHORS, reps, noise, seed)
        assert _same_bits(got.ravel(), _oracle(d, keys, noise, seed))


# the wedge PATH_KEYS, the tail ones and both: a batch of one kind gives the shared exp
# of every attempt an empty part
WEDGE_KEYS = [key for key, events in PATH_KEYS.items() if events[0] != "tail"]
TAIL_KEYS = [key for key, events in PATH_KEYS.items() if events[0] == "tail"]


@pytest.mark.parametrize("keys", [WEDGE_KEYS, TAIL_KEYS, list(PATH_KEYS)], ids=["wedge", "tail", "both"])
def test_wedge_and_tail_keys_draw_as_the_python_stream_alone_or_together(keys):
    keys = np.array(keys)
    d = np.full(len(keys), 1500.0)
    for noise in (NoiseConfig(), NoiseConfig(p_outlier=0.3)):
        got = simulate_range_batch(d, keys, noise, PATH_SEED)
        assert _same_bits(got, _oracle(d, keys, noise, PATH_SEED))


def test_exp_of_joined_arguments_is_the_joined_exps():
    # _normals joins an attempt's wedge and tail arguments into one _exp call
    rng = np.random.default_rng(3)
    wedge = -0.5 * rng.uniform(0.0, 3.92, 1000) ** 2
    tail = 0.5 * (simulator._R ** 2 - (simulator._R / rng.uniform(0.0, 1.0, 37) ** 0.125) ** 2)
    for a, b in ((wedge, tail), (wedge, tail[:0]), (wedge[:0], tail), (tail, wedge)):
        joined = simulator._exp(np.concatenate([a, b]))
        assert _same_bits(joined, np.concatenate([simulator._exp(a.copy()), simulator._exp(b.copy())]))


def test_derive_seed_is_the_key_hash_of_master_and_stage():
    # the scalar finalizer of derive_seed and the array one of the kernel are one hash
    for master in (0, 5, 2**32 - 1, 2**32, 2**64 + 7, 2**200 + 3):
        for stage in (STAGE_OBSERVATION, STAGE_FOREST, 2**32 - 1):
            assert derive_seed(master, stage) == oracles.key_state(master, (stage,))
    with pytest.raises(ValueError):
        derive_seed(-1, STAGE_TRIALS)


@pytest.mark.parametrize("word", [0, 1, 2, 6])
def test_derive_seed_reads_every_word_of_the_seed(word):
    # run.seed is unbounded: a bit flipped in any 32-bit word of a seven-word seed moves every stage
    master = int.from_bytes(bytes(range(1, 29)), "little")
    flipped = master ^ 1 << (32 * word + 5)
    for stage in (STAGE_OBSERVATION, STAGE_FOREST):
        assert derive_seed(flipped, stage) != derive_seed(master, stage)
        assert derive_seed(flipped, stage) == oracles.key_state(flipped, (stage,))


@pytest.mark.parametrize("seed", [PATH_SEED, 2**32 + PATH_SEED, 2**64 + PATH_SEED],
                         ids=["one-word", "two-word", "three-word"])
def test_measurement_stream_draws_as_the_python_stream(seed):
    # the normal and the uniform of each purpose p = 0..5, including ones simulate_range never
    # draws, against the oracle stream's p-th draw
    for key in list(PATH_KEYS) + [(0, 0, 0), (2**32 - 1,) * 3]:
        state = measurement_stream(seed, *key)
        for p in range(6):
            stream = oracles.DrawStream(seed, key)
            stream.drawn = p
            assert _same_bits(simulator._normals(state, p), np.array([stream.normal()])), (key, p)
            stream.drawn = p
            assert _same_bits(simulator._uniforms(state, p), np.array([stream.random()])), (key, p)


def test_normals_fit_the_normal_distribution():
    # a binned chi-squared test of 1,002,000 fixed-key normals against math.erf; bins
    # start at the ziggurat's tail, R = 3.654..., and split it at 4, which the tail's
    # accept test moves from about half of its proposals to a quarter
    n = 1_002_000
    idx = np.arange(n)
    keys = np.column_stack([idx // 1002, idx % 1002 // 3, idx % 3])
    noise = NoiseConfig(offset=1000.0, sigma=1.0, inflation_threshold=1e9)
    z = simulate_range_batch(np.zeros(n), keys, noise, 17)
    z -= 1000.0
    r = simulator._R
    edges = np.array([-np.inf, -4.0, -r, -3.0, -2.5, -2.0, -1.5, -1.0, -0.5, 0.0,
                      0.5, 1.0, 1.5, 2.0, 2.5, 3.0, r, 4.0, np.inf])
    observed = np.histogram(z, edges)[0]
    cdf = [0.5 * math.erfc(-e / math.sqrt(2.0)) for e in edges]
    expected = n * np.diff(cdf)
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    df = len(expected) - 1
    # the 0.999 quantile of chi-squared, by Wilson and Hilferty's cube-root normal approximation
    limit = df * (1.0 - 2.0 / (9 * df) + 3.0902 * math.sqrt(2.0 / (9 * df))) ** 3
    assert chi2 < limit, (chi2, observed.tolist())
    assert observed[0] > 0 and observed[-1] > 0  # the tail is drawn


def test_ziggurat_tables_are_pinned():
    # the bytes of (fast bound, width, density) per layer, little-endian, of the package's
    # tables and of the oracle's, which computes them on its own from R and V
    tables = simulator._ziggurat()
    data = b"".join(t.astype(t.dtype.newbyteorder("<")).tobytes() for t in tables)
    assert hashlib.sha256(data).hexdigest() == ZIGGURAT_DIGEST
    assert [t.shape for t in tables] == [(256,)] * 3 and not any(t.flags.writeable for t in tables)
    data = struct.pack("<256Q256d256d", *(v for table in oracles.ziggurat() for v in table))
    assert hashlib.sha256(data).hexdigest() == ZIGGURAT_DIGEST


ZIGGURAT_DIGEST = "e18396faaaa3cd0933cb90aab3700af2b4b415feec2b1f2c0802468a49be371d"


def test_ziggurat_layers_have_equal_area():
    # layer i >= 1 is [0, x[i]] x [f(x[i]), f(x[i-1])] and the base strip [0, V / f(R)] x [0, f(R)];
    # a magnitude has 52 bits, so a layer's edge is its width times 2**52
    _, width, density = simulator._ziggurat()
    x, v = width * 2.0**52, float(simulator._ZIGGURAT_V)
    assert x[-1] == simulator._R and density[0] == 1.0
    assert np.all(np.diff(x[1:]) > 0) and np.all(np.diff(density) < 0)
    np.testing.assert_allclose(density[1:], [math.exp(-e * e / 2) for e in x[1:]], rtol=1e-15)
    assert x[0] * density[-1] == pytest.approx(v, rel=1e-12)
    # V is given to 12 digits, so the layers close to about 1e-9
    np.testing.assert_allclose(x[1:] * (density[:-1] - density[1:]), v, rtol=1e-8)


def test_a_fast_magnitude_lies_under_the_layer_above():
    # a magnitude m of layer i is fast when m < bound[i]: bound[i] is the least m with
    # m * width[i] >= x[i-1], R for the base strip and 0 for layer 1, up to the widths' rounding
    bound, width, _ = simulator._ziggurat()
    below = np.concatenate([[simulator._R, 0.0], width[1:-1] * 2.0**52])
    reach = bound.astype(float) * width
    assert bound[1] == 0
    assert np.all(reach <= below * (1 + 1e-15))
    assert np.all(reach + width > below * (1 - 1e-15))


@pytest.mark.parametrize("lo, hi", [(-1.0, 0.0), (-7.0, -1.0), (-745.0, -7.0), (-2000.0, -745.0)],
                         ids=["near-zero", "wedge", "tail", "underflow"])
def test_exp_is_within_an_ulp_of_math_exp(lo, hi):
    # the wedge tests exp(-x*x/2) for x <= 3.92, the tail exp((R*R - x*x)/2) for any x >= R
    t = np.random.default_rng(int(-lo)).uniform(lo, hi, 20_000)
    t[:2] = lo, hi
    got = simulator._exp(t.copy())
    want = np.array([math.exp(v) for v in t])
    assert np.all(np.abs(got - want) <= np.spacing(want))
    assert _same_bits(got, np.array([oracles.exp_nonpositive(v) for v in t]))


def test_batch_draw_peak_memory_is_bounded():
    # one 7,200-key call (6 points x 400 reps, as a default evaluation draws) is
    # one chunk, and its working set stays under a MiB (~0.6 MiB)
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
    # a negative key or seed, or a key of 2**32 or more: ValueError on both paths
    for key in ((-1, 0, 0), (0, 0, -1), (0, 2**32, 0)):
        with pytest.raises(ValueError):
            measurement_stream(0, *key)
        with pytest.raises(ValueError):
            simulate_range_batch([5.0], np.array([key]), NoiseConfig(), 0)
    with pytest.raises(ValueError):
        measurement_stream(-1, 0, 0, 0)
    with pytest.raises(ValueError):
        simulate_range_batch([5.0], keys[:1], NoiseConfig(), -1)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        simulate_range_batch([5.0], np.array([(0, 2**32, 0)]), NoiseConfig(), 0)
    with pytest.raises(TypeError):
        simulate_range_batch([5.0], np.array([(0.0, 1.0, 2.0)]), NoiseConfig(), 0)
    with pytest.raises(ValueError, match="shape|expected"):
        simulate_range_batch([5.0, 6.0], keys[:1], NoiseConfig(), 0)


@pytest.fixture
def fresh_tables():
    """Forget the ziggurat tables before and after the test."""
    simulator._ziggurat.cache_clear()
    yield
    simulator._ziggurat.cache_clear()


def test_concurrent_batch_draws_keep_the_bits(fresh_tables):
    # four threads draw the same keys three times each at once, switching often,
    # while the tables are computed under them: every draw gets the serial run's bits
    d, keys = _random_case(4096, PATH_SEED)
    keys[-len(PATH_KEYS):] = list(PATH_KEYS)
    noise = NoiseConfig(p_outlier=0.3)
    want = simulate_range_batch(d, keys, noise, PATH_SEED)
    simulator._ziggurat.cache_clear()
    start, got = threading.Barrier(4), [[] for _ in range(4)]

    def draw(i):
        start.wait()
        got[i] += [simulate_range_batch(d, keys, noise, PATH_SEED) for _ in range(3)]

    threads = [threading.Thread(target=draw, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [len(g) for g in got] == [3] * 4
    assert all(_same_bits(g, want) for draws in got for g in draws)


def test_set_up_computes_no_ziggurat_tables(tmp_path):
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
        "print(simulator._ziggurat.cache_info().misses)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code, str(dense)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"
