"""Reproducibility of the random streams and of whole runs: block-crossing
slices of a uniform stream equal its indexed draws, and small scenery and
sampler runs reproduce outputs frozen as SHA-256 digests."""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from betascenery import cli
from betascenery.rng import UniformStream

BLOCK = 1024

MODELS = {
    "mt.json": '{"maps": [{"s": "1/3", "t": "0"}, {"s": "1/3", "t": "2/3"}]}',
    "refl.json": '{"maps": [{"s": "1/3", "t": "0"}, {"s": "-1/3", "t": "1"}]}',
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
}


class TestUniformStreamSlice:

    def test_slice_matches_indexed_draws(self):
        rng = np.random.default_rng(20)
        starts = [0, 1, BLOCK - 1, BLOCK, 3 * BLOCK - 5]
        starts += [int(s) for s in rng.integers(0, 6 * BLOCK, 6)]
        counts = [0, 1, 5, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7]
        counts += [int(c) for c in rng.integers(0, 3 * BLOCK, 4)]
        for k, start in enumerate(starts):
            stream = UniformStream(k, "slice", "test")
            for count in counts:
                got = stream.slice(start, count)
                assert got.shape == (count,)
                want = [stream[i] for i in range(start, start + count)]
                assert np.array_equal(got, np.array(want)), (start, count)

    def test_slice_keeps_no_blocks(self):
        stream = UniformStream(1, "slice")
        stream.slice(5, 3 * BLOCK)
        assert not stream._blocks


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
