import csv
import hashlib
import json
import weakref

import numpy as np
import pytest

from convquant import (
    MemoryModel,
    cli,
    container,
    granularity,
    iter_manifest,
    metrics,
    open_container,
    write_container,
)
from convquant.cli import main
from convquant.errors import CorruptHeader

from conftest import write_manifest


def synthetic_model(dir_path, include_1x1=True, seed=0):
    """A small conv-net-shaped model: conv stacks, a 1x1 layer, a bn tensor."""
    rng = np.random.default_rng(seed)
    shapes = [(16, 8, 3, 3), (16, 16, 3, 3), (32, 16, 3, 3), (32, 32, 3, 3),
              (8, 4, 5, 5), (24, 16, 3, 3), (32, 24, 3, 3), (16, 32, 3, 3),
              (48, 32, 3, 3)]
    if include_1x1:
        shapes.append((32, 32, 1, 1))
    tensors = []
    for i, shape in enumerate(shapes):
        values = rng.normal(0, 0.08, size=int(np.prod(shape)))
        tensors.append((f"conv{i}.weight", shape, values, "f16"))
    tensors.append(("bn0.weight", (48,), rng.normal(1, 0.1, 48), "f16"))
    return write_manifest(dir_path, tensors, exclude=["bn*"])


def track_inputs(monkeypatch, name):
    """Wrap ``granularity.<name>`` wherever convquant binds it. Returns a list
    that gets, as each call starts, how many earlier calls' first arguments
    are still alive."""
    original = getattr(granularity, name)
    refs, alive = [], []

    def wrapper(subject, *args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        refs.append(weakref.ref(subject))
        return original(subject, *args, **kwargs)

    for module in (granularity, metrics, cli):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, wrapper)
    return alive


def four_tensor_model(dir_path):
    rng = np.random.default_rng(8)
    shapes = [(8, 4, 3, 3), (16, 8, 3, 3), (16, 16, 1, 1), (8, 16, 3, 3)]
    return write_manifest(dir_path, [(f"conv{i}", shape, rng.normal(0, 0.1, np.prod(shape)),
                                      "f16") for i, shape in enumerate(shapes)])


class TestOneTensorAtATime:
    def test_quantize_drops_each_input_before_the_next(self, tmp_path, monkeypatch):
        manifest = four_tensor_model(tmp_path)
        alive = track_inputs(monkeypatch, "quantize_tensor")
        assert main(["quantize", "--manifest", str(manifest),
                     "--out", str(tmp_path / "m.qnt")]) == 0
        assert alive == [0, 0, 0, 0]

    def test_dequantize_drops_each_input_before_the_next(self, tmp_path, monkeypatch):
        manifest = four_tensor_model(tmp_path)
        assert main(["quantize", "--manifest", str(manifest),
                     "--out", str(tmp_path / "m.qnt")]) == 0
        alive = track_inputs(monkeypatch, "dequantize_tensor")
        assert main(["dequantize", str(tmp_path / "m.qnt"),
                     str(tmp_path / "out" / "model.json")]) == 0
        assert alive == [0, 0, 0, 0]


class TestQuantizeCommand:
    def test_fshape_affine_report(self, tmp_path, capsys):
        manifest = synthetic_model(tmp_path, include_1x1=False)
        out = tmp_path / "model.qnt"
        report_path = tmp_path / "report.json"
        rc = main(["quantize", "--manifest", str(manifest), "--method", "affine",
                   "--bits", "4", "--granularity", "fshape",
                   "--out", str(out), "--report", str(report_path)])
        assert rc == 0
        assert "saving" in capsys.readouterr().out

        report = json.loads(report_path.read_text())
        ratio = report["totals"]["memory_saving"]
        assert 3.0 < ratio < 4.0
        assert report["totals"]["memory_saving_with_region_bits"] == ratio
        names = [t["name"] for t in report["tensors"]]
        assert names[-1] == "bn0.weight"
        assert report["tensors"][-1]["excluded"] is True
        assert report["tensors"][-1]["passthrough"] is True
        assert all(t["scheme"] == "f-shape-wise" for t in report["tensors"][:-1])

        with open_container(out) as (_, tensors):
            assert sum(1 for _ in tensors) == len(report["tensors"])

    def test_auto_avoids_channel_on_1x1(self, tmp_path):
        manifest = synthetic_model(tmp_path, include_1x1=True)
        out = tmp_path / "model.qnt"
        report_path = tmp_path / "report.json"
        rc = main(["quantize", "--manifest", str(manifest),
                   "--granularity", "auto", "--bits", "4",
                   "--out", str(out), "--report", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        by_name = {t["name"]: t for t in report["tensors"]}
        small = by_name["conv9.weight"]
        assert small["scheme"] != "channel-wise"
        assert small["passthrough"] is False
        four_options = {"filter-wise", "channel-wise", "f-shape-wise", "c-shape-wise"}
        assert all(t["scheme"] in four_options
                   for t in report["tensors"] if not t["excluded"])

    def test_pwlq_needs_three_bits(self, tmp_path):
        manifest = synthetic_model(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(["quantize", "--manifest", str(manifest), "--method", "pwlq",
                  "--bits", "2", "--out", str(tmp_path / "x.qnt")])
        assert err.value.code == 2

    def test_failure_removes_partial_outputs(self, tmp_path, capsys):
        manifest = synthetic_model(tmp_path)
        (tmp_path / "conv3_weight.bin").unlink()  # break one data file
        out = tmp_path / "model.qnt"
        rc = main(["quantize", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_unrepresentable_params_fail_before_writing(self, tmp_path, capsys):
        # A near-dead filter's pwlq center scale underflows binary16 to zero.
        rng = np.random.default_rng(4)
        values = rng.normal(0, 0.05, size=16 * 16 * 9)
        values[5 * 144:6 * 144] = rng.normal(0, 1e-7, size=144)
        manifest = write_manifest(tmp_path, [("conv.dead", (16, 16, 3, 3), values, "f16")])
        out = tmp_path / "model.qnt"
        rc = main(["quantize", "--manifest", str(manifest), "--method", "pwlq",
                   "--granularity", "filter", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "conv.dead" in err and "group 5" in err
        assert not out.exists()
        assert not (tmp_path / "model.qnt.tmp").exists()

    def test_failed_verify_keeps_earlier_output(self, tmp_path, monkeypatch, capsys):
        manifest = synthetic_model(tmp_path, include_1x1=False)
        out = tmp_path / "model.qnt"
        out.write_bytes(b"an earlier container")
        before = sorted(tmp_path.iterdir())

        def corrupt(path):
            raise CorruptHeader("verify failed")

        monkeypatch.setattr(container, "open_container", corrupt)
        rc = main(["quantize", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 1
        assert "verify failed" in capsys.readouterr().err
        assert out.read_bytes() == b"an earlier container"
        assert sorted(tmp_path.iterdir()) == before

    def test_unwritable_report_keeps_earlier_container(self, tmp_path, capsys):
        manifest = synthetic_model(tmp_path, include_1x1=False)
        out = tmp_path / "model.qnt"
        assert main(["quantize", "--manifest", str(manifest), "--out", str(out)]) == 0
        earlier = out.read_bytes()
        before = sorted(tmp_path.iterdir())
        rc = main(["quantize", "--manifest", str(manifest), "--bits", "3", "--out", str(out),
                   "--report", str(tmp_path / "nodir" / "r.json")])
        assert rc == 1
        assert "nodir" in capsys.readouterr().err
        assert out.read_bytes() == earlier
        assert sorted(tmp_path.iterdir()) == before

    def test_empty_manifest_keeps_earlier_container(self, tmp_path, capsys):
        manifest = tmp_path / "model.json"
        manifest.write_text('{"tensors": []}')
        out = tmp_path / "m.qnt"
        out.write_bytes(b"an earlier container")
        before = sorted(tmp_path.iterdir())
        rc = main(["quantize", "--manifest", str(manifest), "--out", str(out),
                   "--report", str(tmp_path / "r.json")])
        assert rc == 1
        assert "no tensors" in capsys.readouterr().err
        assert out.read_bytes() == b"an earlier container"
        assert sorted(tmp_path.iterdir()) == before

    def test_manifest_checked_before_quantizing(self, tmp_path, monkeypatch, capsys):
        manifest = four_tensor_model(tmp_path)
        last = tmp_path / "conv3.bin"
        last.write_bytes(last.read_bytes()[:-1])
        calls = track_inputs(monkeypatch, "quantize_tensor")
        rc = main(["quantize", "--manifest", str(manifest),
                   "--out", str(tmp_path / "m.qnt")])
        assert rc == 1
        assert "conv3" in capsys.readouterr().err
        assert calls == []

    def test_bad_last_tensor_leaves_no_files(self, tmp_path, capsys):
        manifest = four_tensor_model(tmp_path)
        last = tmp_path / "conv3.bin"
        values = np.frombuffer(last.read_bytes(), dtype="<f2").copy()
        values[-1] = np.nan
        last.write_bytes(values.tobytes())
        before = sorted(tmp_path.iterdir())
        rc = main(["quantize", "--manifest", str(manifest),
                   "--out", str(tmp_path / "m.qnt"), "--report", str(tmp_path / "r.json")])
        assert rc == 1
        assert "conv3" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("grid_points", [2, 0, -1])
    def test_bruteforce_rejects_small_grid(self, tmp_path, capsys, grid_points):
        manifest = synthetic_model(tmp_path, include_1x1=False)
        out = tmp_path / "model.qnt"
        rc = main(["quantize", "--manifest", str(manifest), "--method", "pwlq",
                   "--granularity", "filter", "--breakpoint", "bruteforce",
                   "--grid-points", str(grid_points), "--out", str(out)])
        assert rc == 1
        assert "grid_points must be >= 3" in capsys.readouterr().err
        assert not out.exists()

    def test_report_is_deterministic(self, tmp_path):
        manifest = synthetic_model(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for report_path in (a, b):
            rc = main(["quantize", "--manifest", str(manifest),
                       "--out", str(tmp_path / "m.qnt"), "--report", str(report_path)])
            assert rc == 0
        assert a.read_text() == b.read_text()

    def test_report_at_out_path_is_refused(self, tmp_path, capsys):
        manifest = synthetic_model(tmp_path, include_1x1=False)
        out = tmp_path / "m.qnt"
        before = sorted(tmp_path.iterdir())
        rc = main(["quantize", "--manifest", str(manifest), "--out", str(out),
                   "--report", str(tmp_path / "." / "m.qnt")])
        assert rc == 1
        assert "error: --report and --out are the same file" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("flag", [["--baseline-bits", "8"], ["--param-bytes-affine", "8"],
                                      ["--param-bytes-symmetric", "8"],
                                      ["--param-bytes-pwlq", "8"], ["--charge-region-bits"]],
                             ids=lambda flag: flag[0])
    def test_memory_model_is_not_an_option(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as err:
            main(["quantize", "--manifest", str(tmp_path / "m.json"),
                  "--out", str(tmp_path / "m.qnt"), *flag])
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def frozen_model(dir_path):
    """A seeded f16 model: 3x3, 5x5 and 1x1 convs and a bn tensor. The first
    conv has one all-zero filter and one all-zero input channel, so filter-,
    f-shape- and c-shape-wise grouping all meet all-zero groups; the 5x5
    conv's input channels differ in scale, which favours f-shape groups."""
    rng = np.random.default_rng(5)
    tensors = []
    for i, shape in enumerate([(8, 4, 3, 3), (16, 8, 3, 3), (2, 16, 5, 5), (16, 16, 1, 1)]):
        values = rng.normal(0, 0.08, size=shape)
        if i == 0:
            values[2] = 0.0
            values[:, 1] = 0.0
        if i == 2:
            values *= np.logspace(-2, 0.5, 16)[None, :, None, None]
        tensors.append((f"conv{i}.weight", shape, values.reshape(-1), "f16"))
    tensors.append(("bn0.weight", (16,), rng.normal(1, 0.1, 16), "f16"))
    return write_manifest(dir_path, tensors)


def _sha256_dir(path):
    digest = hashlib.sha256()
    for f in sorted(path.iterdir()):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return digest.hexdigest()


# SHA-256 of the container, the report, the dequantized manifest with its
# binaries and the two commands' stdout for each run of frozen_model, recorded
# before the one-group API was removed (the layer- and filter-wise runs before
# the group layouts moved into one table, the two pwlq runs after the
# closed-form breakpoint began to take m in units of the group's RMS). A
# change that means to keep the output format must keep them.
FROZEN_OUTPUTS = {
    "affine-layer": (
        ["--method", "affine", "--granularity", "layer"],
        "d8674cd9053185567502c15b9645e7400d34dffa7c2aad4328311b9f584f1665",
        "5675ff223c9b762358110593acf6749b602d011a3daa4951ca404e23767f4f86",
        "c0437ab9d0beaf64659c514f9055427d96176bdf2a7bb943e9cb09c1d6932b6d",
        "105c3da2f83d7ac99f7bd8cef6ac4a8dffcc54f605a203d9a42de45b7ac07368"),
    "sym-full-filter": (
        ["--method", "sym-full", "--granularity", "filter"],
        "9b1bbad150b86408508c1128b96ab4343958584b5d2657b191b2df92b73c68cc",
        "b6189c3f2b79ea0fc94e5b99fa346a27c5e5e4dffe57bdd52288e958115e5150",
        "ed1020bb9df53d3f4028b2ce133a96fd969caab7ff24ecc14c61c7ebfe40fe9f",
        "1d1596ad5f9aa2a1dc89f5b8689408a4bd2f858b4342a123d2b273514026e8b0"),
    "affine-fshape": (
        ["--method", "affine", "--granularity", "fshape"],
        "3df705b8857de80a4609f0e3ff983c3602e40b41ac4716d1bfb68013c0abb58e",
        "120b7cfc7087b2a32340616579210b2ad3531051f5fca0a2e1b55b7fe4818a0a",
        "4e8b9e24fd3517ad1486a3bfea5727081e48ee39bc226891fdbbddf151dcdd1e",
        "ed51b49cf35a630a7efca560d4750b62784422843eacc029ba81a843a724a8e1"),
    "sym-restricted-auto3": (
        ["--method", "sym-restricted", "--granularity", "auto3", "--bits", "3"],
        "22accde5965e7fbcbdeaeb7455ac53ef094627041260f3057635414710da53cc",
        "1b62b9f4839b34ae6bf0aeb30bdee7812463b76882d3c79089e59b3420b0a407",
        "f30b81652f5563af175cf914f1fdb5cad6a2ced87bcf4a4280e330f9ad468495",
        "4bdaa7073717d0eb2eb6370cda6306fbd90a03915adf0425462d800ece8da555"),
    "sym-full-fshape": (
        ["--method", "sym-full", "--granularity", "fshape", "--bits", "5"],
        "2090cfc4426f1158537ef70abc70c832f8398b8403c3de5850203ef200ed67dd",
        "3bc6bca1d1f0532580ac35fdf3910d100d1b6f2169307427d3e27b2c7e7a2cb5",
        "b260d56e8ab35922b336b8421ab30d79f6d313be90b91987d7f5404edffdb3d3",
        "e2fa13101e69c93e1a00908b5ca416a5e27df161cc7a002f2e02f995036e2e27"),
    "pwlq-auto3": (
        ["--method", "pwlq", "--granularity", "auto3"],
        "a71e8d3642a5402b1f4a8d982374d9c26139cda81bbab1f801bbc7e23eb25ae3",
        "0be1899cc1e92a1e300d6901d04e8d01762916b3126f3568b4be58eb4a804d3b",
        "f389deef07c1462fdd8a40e78da9d2a14069210a3d0af08a4d77c056af7a1559",
        "7e1aa2235a16593ee0ef23efee75f5d297ea9d9aa9283ae01847907efc850cd3"),
    "pwlq-bruteforce-fshape": (
        ["--method", "pwlq", "--granularity", "fshape", "--breakpoint", "bruteforce",
         "--grid-points", "16", "--bits", "6"],
        "9d64a7f707ef827547f79dd2bd5027eedf3289a988d0d4ee62d7941132d7680a",
        "4836720919c16c3fb0672256080ff54c03b2dcb65771f00e2f69542c1f16e2ad",
        "6ed4398a3767b09caf3cb61d404adb1e149ee87bfb7b43dfa239326d95243e76",
        "183ff435eca23722a97009d2e50c3b465c99fac469955a8456192ea7fde49c63"),
    "affine-channel": (
        ["--method", "affine", "--granularity", "channel", "--bits", "8"],
        "76016306230eaef624a3af372db8a7d5349daf0a5f71bf362ab54031358d0eb5",
        "393176ae79c92a663f1d09c66aaf9773be45e7e15be6ab4f14506c0073afe837",
        "08d0d4fa728dc5cb480b515f617ca27c6951641c5bcf46dc5bcab5fb1b92b6f8",
        "3bba0f0c9d47e79f27ee05e6e1019fa84a73a542bd5e7d01c126f2ea28ded0e2"),
}


class TestFrozenOutputs:
    @pytest.mark.parametrize("run", sorted(FROZEN_OUTPUTS))
    def test_outputs_match_recorded_hashes(self, tmp_path, monkeypatch, capsys, run):
        flags, container_sha, report_sha, dequantized_sha, stdout_sha = FROZEN_OUTPUTS[run]
        frozen_model(tmp_path)
        monkeypatch.chdir(tmp_path)  # the report records the manifest path
        assert main(["quantize", "--manifest", "model.json", "--exclude", "*bn*",
                     *flags, "--out", "m.qnt", "--report", "r.json"]) == 0
        assert main(["dequantize", "m.qnt", "out/model.json"]) == 0
        assert hashlib.sha256((tmp_path / "m.qnt").read_bytes()).hexdigest() == container_sha
        assert hashlib.sha256((tmp_path / "r.json").read_bytes()).hexdigest() == report_sha
        assert _sha256_dir(tmp_path / "out") == dequantized_sha
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == stdout_sha


class TestDequantizeCommand:
    def test_constant_model_round_trips_exactly(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        manifest = write_manifest(
            src, [("conv0", (2, 2, 2, 2), np.full(16, 0.5), "f16")])
        container = tmp_path / "m.qnt"
        assert main(["quantize", "--manifest", str(manifest), "--bits", "4",
                     "--granularity", "filter", "--out", str(container)]) == 0
        out_manifest = tmp_path / "out" / "model.json"
        assert main(["dequantize", str(container), str(out_manifest)]) == 0
        _, tensors = iter_manifest(out_manifest)
        assert [t.values.tolist() for t in tensors] == [[0.5] * 16]

    def test_passthrough_model_byte_identical(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        rng = np.random.default_rng(2)
        raw = rng.normal(0, 0.1, 64).astype("<f2")
        manifest = write_manifest(src, [("proj", (8, 8, 1, 1), raw, "f16")])
        container = tmp_path / "m.qnt"
        assert main(["quantize", "--manifest", str(manifest),
                     "--granularity", "channel", "--out", str(container)]) == 0
        out_manifest = tmp_path / "out" / "model.json"
        assert main(["dequantize", str(container), str(out_manifest)]) == 0
        assert (tmp_path / "out" / "proj.bin").read_bytes() == raw.tobytes()

    def test_failed_save_leaves_no_partial_output(self, tmp_path, capsys):
        manifest = synthetic_model(tmp_path, include_1x1=False)
        container = tmp_path / "m.qnt"
        assert main(["quantize", "--manifest", str(manifest), "--out", str(container)]) == 0
        out = tmp_path / "out"
        (out / "conv1.weight.bin").mkdir(parents=True)  # the second tensor cannot be written
        rc = main(["dequantize", str(container), str(out / "model.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["conv1.weight.bin"]

    def test_corrupt_container_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.qnt"
        bad.write_bytes(b"qnt/1 9999\n{}")
        out_manifest = tmp_path / "out" / "model.json"
        rc = main(["dequantize", str(bad), str(out_manifest)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not out_manifest.exists()

    def test_bad_last_record_leaves_no_files(self, tmp_path, capsys):
        qnt = tmp_path / "m.qnt"
        assert main(["quantize", "--manifest", str(four_tensor_model(tmp_path)),
                     "--out", str(qnt)]) == 0
        blob = bytearray(qnt.read_bytes())
        newline = blob.index(b"\n")
        payload = newline + 1 + int(blob[:newline].split()[1])
        header = json.loads(blob[newline + 1:payload])
        params = payload + header["tensors"][-1]["sections"]["params"][0]
        blob[params + 2:params + 4] = b"\x00\x00"   # the first group's scale: 0
        qnt.write_bytes(bytes(blob))
        out = tmp_path / "out"
        rc = main(["dequantize", str(qnt), str(out / "model.json")])
        assert rc == 1
        assert "conv3: group 0: invalid parameter record" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_container_leaves_no_directory(self, tmp_path, capsys):
        empty = tmp_path / "e.qnt"
        write_container([], MemoryModel(), empty)
        out = tmp_path / "out"
        rc = main(["dequantize", str(empty), str(out / "sub" / "model.json")])
        assert rc == 1
        assert "manifest lists no tensors" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_code_keeps_earlier_export(self, tmp_path, capsys):
        good = tmp_path / "good.qnt"
        assert main(["quantize", "--manifest", str(four_tensor_model(tmp_path)),
                     "--method", "sym-restricted", "--out", str(good)]) == 0
        out = tmp_path / "out"
        assert main(["dequantize", str(good), str(out / "model.json")]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        with open_container(good) as (mm, tensors):
            tensors = list(tensors)
        tensors[1].codes[0] = -8     # outside [-7, 7], the 4-bit sym-restricted domain
        bad = tmp_path / "bad.qnt"
        write_container(tensors, mm, bad)
        rc = main(["dequantize", str(bad), str(out / "model.json")])
        assert rc == 1
        assert "conv1: group 0: code outside" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_source_weights_are_not_replaced(self, tmp_path, capsys):
        # Files named after their tensors, as the README's PyTorch exporter writes them.
        raw = np.random.default_rng(3).normal(0, 0.1, 8 * 4 * 9).astype("<f2")
        (tmp_path / "conv1.weight.bin").write_bytes(raw.tobytes())
        (tmp_path / "model.json").write_text(json.dumps({"tensors": [
            {"name": "conv1.weight", "shape": [8, 4, 3, 3], "dtype": "f16",
             "file": "conv1.weight.bin"}]}))
        assert main(["quantize", "--manifest", str(tmp_path / "model.json"),
                     "--out", str(tmp_path / "model.qnt")]) == 0
        before = sorted(tmp_path.iterdir())
        rc = main(["dequantize", str(tmp_path / "model.qnt"),
                   str(tmp_path / "restored.json")])
        assert rc == 1
        assert "refusing to replace" in capsys.readouterr().err
        assert (tmp_path / "conv1.weight.bin").read_bytes() == raw.tobytes()
        assert sorted(tmp_path.iterdir()) == before


class TestSweepCommand:
    def read_rows(self, path):
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))

    def test_pwlq_sweep_monotone(self, tmp_path):
        manifest = synthetic_model(tmp_path, include_1x1=False)
        loss_file = tmp_path / "loss.json"
        loss_file.write_text(json.dumps({"4": 1.0}))
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--manifest", str(manifest), "--method", "pwlq",
                   "--granularity", "auto3", "--bits", "3:8",
                   "--loss-file", str(loss_file), "--out", str(out)])
        assert rc == 0
        rows = self.read_rows(out)
        assert [r["bits"] for r in rows] == ["3", "4", "5", "6", "7", "8"]
        mses = [float(r["total_mse"]) for r in rows]
        ratios = [float(r["memory_saving"]) for r in rows]
        assert all(a >= b for a, b in zip(mses, mses[1:]))
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        row4 = rows[1]
        expected = float(row4["memory_saving"]) / 2.0
        assert float(row4["figure_of_merit"]) == pytest.approx(expected, rel=1e-12)
        assert rows[0]["figure_of_merit"] == ""

    def test_bits_range_validation(self, tmp_path, capsys):
        manifest = synthetic_model(tmp_path, include_1x1=False)
        rc = main(["sweep", "--manifest", str(manifest), "--method", "pwlq",
                   "--bits", "2:8"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"4": null}', '{"4": [1]}', '{"4": NaN}',
                                      '{"4": Infinity}', '{"4": "1.0"}', '{"4": true}'])
    def test_loss_file_needs_finite_numbers(self, tmp_path, capsys, text):
        manifest = synthetic_model(tmp_path, include_1x1=False)
        loss_file = tmp_path / "loss.json"
        loss_file.write_text(text)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--manifest", str(manifest), "--bits", "4:4",
                   "--loss-file", str(loss_file), "--out", str(out)])
        assert rc == 1
        assert "loss file" in capsys.readouterr().err
        assert not out.exists()

    def test_stdout_output(self, tmp_path, capsys):
        manifest = synthetic_model(tmp_path, include_1x1=False)
        rc = main(["sweep", "--manifest", str(manifest), "--method", "affine",
                   "--bits", "4:5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("bits,")
        assert len(out.strip().splitlines()) == 3
