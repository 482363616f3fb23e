"""Reproducibility of the random streams and of whole runs: slices of a
uniform stream equal numpy's Philox block by block, alone, several streams
at once and from two threads, the symbol-draw kernel agrees with a
one-at-a-time bisection, and small scenery and sampler runs reproduce
outputs frozen as SHA-256 digests."""

import bisect
import contextlib
import hashlib
import io
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from numpy.random import Generator, Philox
from hypothesis import example, given, settings, strategies as st

from betascenery import Model, ModelComponent, cli
from betascenery.rng import (UniformStream, cdf_thresholds, derive_key,
                             draw_symbols, uniform_rows)

BLOCK = 1024

MODELS = {
    "mt.json": '{"maps": [{"s": "1/3", "t": "0"}, {"s": "1/3", "t": "2/3"}]}',
    "refl.json": '{"maps": [{"s": "1/3", "t": "0"}, {"s": "-1/3", "t": "1"}]}',
    "two.json": '{"maps": [{"s": "1/2", "t": "0"}, {"s": "1/3", "t": "2/3"}]}',
    "three.json": '{"maps": [{"s": "1/4", "t": "0"}, {"s": "1/4", "t": "3/8"}, '
                  '{"s": "1/4", "t": "3/4"}], "weights": ["1/2", "1/3", "1/6"]}',
    "four.json": '{"maps": [{"s": "1/4", "t": "0"}, {"s": "1/5", "t": "1/4"}, '
                 '{"s": "1/6", "t": "1/2"}, {"s": "1/7", "t": "6/7"}]}',
    "five.json": '{"maps": [{"s": "1/4", "t": "0"}, {"s": "1/5", "t": "1/5"}, '
                 '{"s": "1/6", "t": "1/2"}, {"s": "1/7", "t": "5/7"}, '
                 '{"s": "1/8", "t": "7/8"}]}',
}

# (argv, exit code, {output file: SHA-256 of its bytes}), recorded before
# the scenery windows were rendered in blocks and before a slice kept one
# Philox generator across its blocks
FROZEN = {
    "scenery-mt": (
        ["--seed", "3", "scenery", "mt.json", "--T", "12", "--n-q", "30",
         "--tolerance", "1", "--dump-windows", "4"], 0,
        {"scenery_report.json": "735fd7202ed02bf750aecee7329d7511"
                                "015da4d2a83fa8f11e281eacfc966ab7",
         "windows.csv": "0950e364189ae86bd3903d621e766d2e"
                        "932fda357738877a0851f899b9bb1fd3"}),
    "scenery-refl": (
        ["--seed", "4", "scenery", "refl.json", "--T", "12", "--n-q", "30",
         "--tolerance", "1", "--dump-windows", "4"], 0,
        {"scenery_report.json": "0aa6ef925fbc8d9a9f4608f292f7287e"
                                "c144a08c8489dec3cf3e817b72a61cca",
         "windows.csv": "e9f8cbc91a93a923e730073fe07efdcd"
                        "7cff6d6d0ad5922313216889ccd1e691"}),
    # at the scenery-zoom benchmark's scale: 881 orbit windows and 1,000
    # stationary ones, recorded before the blocks' symbols were read into
    # tables and the focus, split and panel worked in arrays
    "scenery-mt-workload": (
        ["--seed", "7", "scenery", "mt.json", "--T", "3520", "--dt", "4",
         "--n-q", "1000", "--dump-windows", "40"], 0,
        {"scenery_report.json": "d2b669e2b0a48d167d598f979eddf2ae"
                                "85dd8b8350635b6e7e386942479aa496",
         "windows.csv": "63a84422edb33adac9fcd91d083df8cf"
                        "26c1a084d5a8dd943ad61e12fa2467b0"}),
    "scenery-refl-workload": (
        ["--seed", "8", "scenery", "refl.json", "--T", "3520", "--dt", "4",
         "--n-q", "1000", "--dump-windows", "40"], 0,
        {"scenery_report.json": "d848485a994b63fb5f0275e9eeca5f70"
                                "7b7b79b60ab7ecae57da9dabe4579b0b",
         "windows.csv": "c3975523a65887243eace212334b1fca"
                        "aab7a044fd011f8935cbd28acac787dd"}),
    "sample-model": (
        ["--seed", "5", "sample", "mt.json", "--mode", "model",
         "--count", "700"], 0,
        {"sample_report.json": "fa4b730d2e2c4969df90aefe9b1187c7"
                               "e3d95f0646865d0fcd4698769b079fde",
         "samples.csv": "6f2136086108d12319ed98d0bd786061"
                        "ae5a753209a7f9a8e78f05c17a4eacec"}),
    # the samplers' symbol draws, recorded before they went through one
    # draw kernel: direct draws with three unequal weights, model draws
    # with components of mixed size (2+1+1 on refl and two, 2+1*14 on
    # four) and both samplers of the disintegration check
    "sample-direct-three": (
        ["--seed", "6", "sample", "three.json", "--mode", "direct",
         "--count", "3000"], 0,
        {"sample_report.json": "059701a1608602f9ccdf1babdc728afa"
                               "4d7c791d744dcadba643a8308be1d636",
         "samples.csv": "f65926cf411472e3674c454af603e12d"
                        "a99b94e8a26cb2a8fc0535abc7733ac8"}),
    "sample-model-refl": (
        ["--seed", "9", "sample", "refl.json", "--mode", "model",
         "--count", "3000"], 0,
        {"sample_report.json": "047bdd86b0dbda53aa0b606b812130ed"
                               "5b19c17740995244bff67936b80db1a0",
         "samples.csv": "2a432701c8b087149c4bd8a52d0b3f53"
                        "55441961a5be08dde4631ad55809fdab"}),
    "sample-model-two": (
        ["--seed", "10", "sample", "two.json", "--mode", "model",
         "--count", "3000"], 0,
        {"sample_report.json": "6ec92a2b2fd2385117a395bcc86ea0ea"
                               "3a9480634d710f7281566cb838a33077",
         "samples.csv": "a7256a070253d45ed131ff150f3c27b7"
                        "57c4093f54a7fc2211e1914ebcd83217"}),
    "sample-model-four": (
        ["--seed", "11", "sample", "four.json", "--mode", "model",
         "--count", "3000"], 0,
        {"sample_report.json": "4c8f2832dfb81f8d3c02cdafccde5981"
                               "6473357f0c60b218fb72398754b740a9",
         "samples.csv": "6f1b01f18e04db9777ed553bdea929ae"
                        "a4819c140fcd82e92834a984d98833df"}),
    # 24 components: 23 selection thresholds, the most of any run here
    "sample-model-five": (
        ["--seed", "14", "sample", "five.json", "--mode", "model",
         "--count", "3000"], 0,
        {"sample_report.json": "b3d0f3974ec4689b49211716d3857e59"
                               "6a18a2ffdadcb0f60f1c8adb11518b94",
         "samples.csv": "76a66fe7bc993c3f23305cf2590e75f3"
                        "875815c22dec9af4e65cb440d3d8b197"}),
    # recorded before a one-component model stopped reading a component
    # stream and before lazy words grew by doubling: 20,000 rows were three
    # sampler chunks (twelve of 1,724 rows at a budget of 2^16 uniforms),
    # and 300 stationary windows of a third model cross the window blocks;
    # at this short orbit the 0.05 panel check fails, so the run exits 2
    "sample-model-chunks": (
        ["--seed", "15", "sample", "mt.json", "--mode", "model",
         "--count", "20000"], 0,
        {"sample_report.json": "215c038a28e14f14f1f723dcb04d3538"
                               "e782073c4d01e95ab3119d9f9700eebb",
         "samples.csv": "6c47ab45cd6eea235ed535a5b71b3f9a"
                        "058e243f27a7937d610962b6aad7a4ae"}),
    "scenery-two": (
        ["--seed", "16", "scenery", "two.json", "--T", "200", "--dt", "4",
         "--n-q", "300", "--dump-windows", "5"], 2,
        {"scenery_report.json": "00bfd96a210cd67b13e2cd3bf995ad17"
                                "ae4973efb039575e6d1cd92f9474b65b",
         "windows.csv": "00ef5081d3656ed1f4b3e5f1418bed4f"
                        "cedc62515b5ffdeaa8fa47e9fd9fcda2"}),
    "disintegration-mt": (
        ["--seed", "12", "disintegration", "mt.json", "--count", "4000",
         "--tolerance", "0.1"], 0,
        {"disintegration_report.json": "74982c525b831e5495a7bf7f1d10e02d"
                                       "382d652b112cd257c7ac62d7d65f1d5f"}),
    "disintegration-refl": (
        ["--seed", "13", "disintegration", "refl.json", "--count", "4000",
         "--tolerance", "0.1"], 0,
        {"disintegration_report.json": "293067e25a80730104f2c0d10a7ad860"
                                       "bac779e7a1e025731ffc7d071abd094b"}),
    # recorded while the samplers still folded 8,192 rows per chunk: these
    # counts cross the old chunk edges and the edges of a fixed budget of
    # uniforms per chunk, for the direct sampler alone and for both
    # samplers of the disintegration check
    "sample-direct-three-chunks": (
        ["--seed", "17", "sample", "three.json", "--mode", "direct",
         "--count", "20000"], 0,
        {"sample_report.json": "e3b11e27df854ac62d269cbe51f80d8e"
                               "04f45cc601213b828483ca76558868b2",
         "samples.csv": "0952f5bfd3fef5e52ae9dbcd0f2dbe1c"
                        "baa2cf9a297db5aa33d37779bf816328"}),
    "disintegration-two-chunks": (
        ["--seed", "18", "disintegration", "two.json", "--count", "20000",
         "--tolerance", "0.1"], 0,
        {"disintegration_report.json": "1e30f1f4957812e2661e7125eaaf4f62"
                                       "705adc58f5cd05ed2fd57fb423076090"}),
}


def philox_uniforms(key, first, last):
    """Blocks first .. last-1 of the stream with this key, each from its
    own numpy Philox at the counter (0, b, 0, 0)."""
    return np.concatenate(
        [Generator(Philox(key=key, counter=b << 64)).random(BLOCK)
         for b in range(first, last)])


# starts anywhere in eight blocks, and often on a block edge or beside one
START = st.one_of(
    st.integers(0, 8 * BLOCK),
    st.builds(lambda b, d: max(b * BLOCK + d, 0),
              st.integers(0, 8), st.integers(-1, 1)))


class TestUniformStreamSlice:

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 64),
           labels=st.lists(st.one_of(st.integers(-5, 5), st.text(max_size=3)),
                           max_size=3),
           start=START, count=st.integers(0, 4 * BLOCK))
    @example(seed=0, labels=[], start=0, count=0)
    @example(seed=1, labels=["slice"], start=BLOCK - 1, count=2)
    @example(seed=2, labels=["slice", 3], start=BLOCK, count=3 * BLOCK)
    # reads that start and stop inside one block, off a counter's four
    # places, and one that crosses a block edge
    @example(seed=3, labels=["mid"], start=BLOCK + 5, count=7)
    @example(seed=4, labels=[], start=2 * BLOCK + 510, count=BLOCK - 600)
    @example(seed=5, labels=["mid", 1], start=3, count=1)
    @example(seed=6, labels=["mid", 2], start=BLOCK - 3, count=6)
    def test_slice_matches_per_block_philox(self, seed, labels, start,
                                            count):
        stream = UniformStream(seed, *labels)
        first, r = divmod(start, BLOCK)
        want = philox_uniforms(derive_key(seed, *labels), first,
                               (start + count) // BLOCK + 1)[r:r + count]
        got = stream.slice(start, count)
        assert got.shape == (count,)
        assert np.array_equal(got, want)
        # a read of several streams at once gives each stream's own row
        other = derive_key(seed, *labels, "other")
        rows = uniform_rows([other, derive_key(seed, *labels)], start, count)
        assert rows.shape == (2, count)
        assert np.array_equal(rows[1], want)
        assert np.array_equal(rows[0], philox_uniforms(
            other, first, (start + count) // BLOCK + 1)[r:r + count])

    def test_threads_read_the_serial_bits(self):
        # each task reads one stream in interleaved slices, some across
        # block edges; two threads re-key the one shared generator at once
        def read(k):
            stream = UniformStream(k, "threads")
            return [stream.slice(start, count)
                    for start, count in [(0, 5 * BLOCK), (BLOCK - 3, 7),
                                         (7 * BLOCK + 1, 3 * BLOCK), (2, 1)]]

        serial = [read(k) for k in range(48)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(2) as pool:
                threaded = list(pool.map(read, range(48), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(serial, threaded):
            assert all(np.array_equal(w, g) for w, g in zip(want, got))


LAST_BELOW_ONE = float(np.nextafter(1.0, 0.0))
# thresholds in [0, 1], often tied: a few fixed values recur
THRESHOLD = st.one_of(st.floats(0.0, 1.0),
                      st.sampled_from([0.0, 0.25, 0.5, LAST_BELOW_ONE, 1.0]))
UNIFORM = st.floats(0.0, 1.0, exclude_max=True)


def bisect_oracle(thresholds, u):
    """The number of thresholds <= each uniform, one Python float at a
    time."""
    ts = [float(t) for t in thresholds]
    return [bisect.bisect_right(ts, float(x)) for x in np.ravel(u)]


class TestDrawSymbols:

    @given(thresholds=st.lists(THRESHOLD, min_size=1, max_size=64).map(sorted),
           extra=st.lists(UNIFORM, max_size=40), two_d=st.booleans())
    # 255 and 256 tied thresholds: the last count that fits in 8 bits and
    # the first that needs 16
    @example(thresholds=[0.5] * 255, extra=[0.5], two_d=False)
    @example(thresholds=[0.5] * 256, extra=[0.5], two_d=True)
    @settings(max_examples=150, deadline=None)
    def test_counts_match_bisection(self, thresholds, extra, two_d):
        # every threshold below 1 is also drawn exactly, as are both ends
        # of [0, 1)
        u = [t for t in thresholds if t < 1] + extra + [0.0, LAST_BELOW_ONE]
        u = np.array(u)
        if two_d:
            u = np.stack([u, u[::-1]])
        got = draw_symbols(np.array(thresholds), u)
        assert got.dtype == np.int64 and got.shape == u.shape
        assert got.ravel().tolist() == bisect_oracle(thresholds, u)

    @given(weights=st.lists(
        st.lists(st.integers(1, 5), min_size=1, max_size=5),
        min_size=1, max_size=5),
        u=st.lists(UNIFORM, min_size=1, max_size=60), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_inner_table_matches_each_component(self, reflected_model,
                                                weights, u, data):
        # components of 1 to 5 copies of one map of the reflected model's
        # pair; with only singletons the table has no row
        base = reflected_model.components[0]
        comps = []
        for ws in weights:
            total = sum(ws)
            comps.append(ModelComponent(
                maps=(base.maps[0],) * len(ws),
                weights=tuple(Fraction(w, total) for w in ws),
                words=(base.words[0],) * len(ws), ratio=base.ratio))
        model = Model(reflected_model.base, reflected_model.pair, comps,
                      [Fraction(1, len(comps))] * len(comps))
        omega = np.array(data.draw(st.lists(
            st.integers(0, len(comps) - 1), min_size=len(u),
            max_size=len(u))))
        got = model._add_inner_draws(np.zeros(len(u), dtype=np.int64),
                                     omega, np.array(u))
        want = [bisect_oracle(cdf_thresholds(comps[i].weights), [x])[0]
                for i, x in zip(omega.tolist(), u)]
        assert got.tolist() == want


def run_in(tmp_path, monkeypatch, argv):
    for name, text in MODELS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["--out-dir", "out"] + argv)


@pytest.mark.parametrize("case", sorted(FROZEN))
def test_outputs_match_frozen_digests(tmp_path, monkeypatch, case):
    argv, code, digests = FROZEN[case]
    assert run_in(tmp_path, monkeypatch, argv) == code
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted((tmp_path / "out").iterdir())}
    assert got == digests
