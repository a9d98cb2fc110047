import csv
import hashlib
import json
import os
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from convquant import (
    PackedCodes,
    cli,
    container,
    granularity,
    iter_manifest,
    metrics,
    open_container,
    pwlq,
    tensor_store,
    unpack_codes,
    write_container,
)
from convquant.cli import main
from convquant.errors import CorruptHeader, InvalidValue

from conftest import pack_codes, replace_halved, split_container, write_manifest


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


def track_reads(monkeypatch):
    """Wrap the tensor iterator that ``cli.iter_manifest`` returns. Returns a
    list that gets, as each read starts, how many tensors read before are
    still alive."""
    original = cli.iter_manifest
    alive = []

    class Reads:
        def __init__(self, tensors):
            self.tensors, self.refs = tensors, []

        def __iter__(self):
            return self

        def __next__(self):
            alive.append(sum(ref() is not None for ref in self.refs))
            tensor = next(self.tensors)
            self.refs.append(weakref.ref(tensor))
            return tensor

    def wrapper(*args, **kwargs):
        excluded, tensors, data_files = original(*args, **kwargs)
        return excluded, Reads(tensors), data_files

    monkeypatch.setattr(cli, "iter_manifest", wrapper)
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
        alive = track_inputs(monkeypatch, "decode_blocks")
        assert main(["dequantize", str(tmp_path / "m.qnt"),
                     str(tmp_path / "out" / "model.json")]) == 0
        assert alive == [0, 0, 0, 0]

    @pytest.mark.parametrize("command", ["quantize", "sweep"])
    def test_each_tensor_read_is_dropped_before_the_next(self, tmp_path, monkeypatch,
                                                         command):
        # dequantize reads its export back block by block (test_blocked.py).
        manifest, container = four_tensor_model(tmp_path), str(tmp_path / "m.qnt")
        argv = {"quantize": ["quantize", "--manifest", str(manifest), "--out", container],
                "sweep": ["sweep", "--manifest", str(manifest), "--bits", "3:4",
                          "--out", str(tmp_path / "sweep.csv")]}
        alive = track_reads(monkeypatch)
        assert main(argv[command]) == 0
        assert alive == [0, 0, 0, 0, 0]     # the last read finds the end


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

        with open_container(out) as tensors:
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
        before = sorted(tmp_path.iterdir())
        out = tmp_path / "model.qnt"
        rc = main(["quantize", "--manifest", str(manifest), "--method", "pwlq",
                   "--granularity", "filter", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "conv.dead" in err and "group 5" in err
        assert not out.exists()
        assert sorted(tmp_path.iterdir()) == before

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

    def test_failed_report_keeps_earlier_outputs(self, tmp_path, monkeypatch, capsys):
        manifest = synthetic_model(tmp_path, include_1x1=False)
        outputs = ["--out", str(tmp_path / "m.qnt"), "--report", str(tmp_path / "r.json")]
        assert main(["quantize", "--manifest", str(manifest), *outputs]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def fail(*args):
            raise OSError("report failed")

        monkeypatch.setattr(cli, "_write_report", fail)
        rc = main(["quantize", "--manifest", str(manifest), "--bits", "3", *outputs])
        assert rc == 1
        assert "report failed" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_out_that_is_a_directory_keeps_earlier_report(self, tmp_path, capsys):
        # The container's move into place would fail after the report's.
        manifest = synthetic_model(tmp_path, include_1x1=False)
        report = tmp_path / "r.json"
        assert main(["quantize", "--manifest", str(manifest), "--out", str(tmp_path / "m.qnt"),
                     "--report", str(report)]) == 0
        earlier = report.read_bytes()
        out = tmp_path / "out.qnt"
        out.mkdir()
        before = sorted(tmp_path.rglob("*"))
        rc = main(["quantize", "--manifest", str(manifest), "--bits", "3", "--out", str(out),
                   "--report", str(report)])
        assert rc == 1
        assert f"error: --out is a directory: {out}" in capsys.readouterr().err
        assert report.read_bytes() == earlier
        assert sorted(tmp_path.rglob("*")) == before
        assert not list(tmp_path.rglob("*.tmp"))

    def test_report_that_is_a_directory_keeps_earlier_container(self, tmp_path, capsys):
        manifest = synthetic_model(tmp_path, include_1x1=False)
        out = tmp_path / "m.qnt"
        assert main(["quantize", "--manifest", str(manifest), "--out", str(out)]) == 0
        earlier = out.read_bytes()
        (tmp_path / "r.json").mkdir()
        before = sorted(tmp_path.rglob("*"))
        rc = main(["quantize", "--manifest", str(manifest), "--bits", "3", "--out", str(out),
                   "--report", str(tmp_path / "r.json")])
        assert rc == 1
        assert "error: --report is a directory" in capsys.readouterr().err
        assert out.read_bytes() == earlier
        assert sorted(tmp_path.rglob("*")) == before

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

    @pytest.mark.parametrize("command", ["quantize", "sweep"])
    @pytest.mark.parametrize("key,value", [("file", 5), ("file", None), ("dtype", ["f16"]),
                                           ("shape", [16, 16, True, 1])])
    def test_entry_fields_of_the_wrong_type_are_refused(self, tmp_path, capsys, command, key,
                                                        value):
        manifest = four_tensor_model(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["tensors"][2][key] = value
        manifest.write_text(json.dumps(doc))
        before = sorted(tmp_path.iterdir())
        out = ["--out", str(tmp_path / "m.qnt"), "--report", str(tmp_path / "r.json")]
        if command == "sweep":
            out = ["--bits", "4:4", "--out", str(tmp_path / "sweep.csv")]
        assert main([command, "--manifest", str(manifest), *out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: conv2: ") and repr(value) in err, err
        assert sorted(tmp_path.iterdir()) == before

    def test_data_file_replaced_after_its_check_fails_cleanly(self, tmp_path, monkeypatch,
                                                             capsys):
        # conv1.bin is replaced by a new file of the same size once
        # iter_manifest has read it to check its values.
        manifest = four_tensor_model(tmp_path)
        data = tmp_path / "conv1.bin"
        checked = tensor_store._checked

        def check_then_replace(name, *args):
            t = checked(name, *args)
            if name == "conv1":
                replace_halved(data)
            return t

        monkeypatch.setattr(tensor_store, "_checked", check_then_replace)
        before = sorted(tmp_path.iterdir())
        rc = main(["quantize", "--manifest", str(manifest), "--out", str(tmp_path / "m.qnt"),
                   "--report", str(tmp_path / "r.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: conv1: {data} changed since its values were checked\n")
        assert sorted(tmp_path.iterdir()) == before

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

    @pytest.mark.parametrize("hook", ["_params", "_block_error"])
    def test_data_file_changed_while_quantizing_fails_cleanly(self, tmp_path, monkeypatch,
                                                              capsys, hook):
        # conv1.bin is rewritten in place with other bytes of the same size,
        # its mtime set a second later: between the statistics and the
        # encode (_params), or while the encode reads it (_block_error).
        manifest = four_tensor_model(tmp_path)
        outputs = ["--out", str(tmp_path / "m.qnt"), "--report", str(tmp_path / "r.json")]
        assert main(["quantize", "--manifest", str(manifest), *outputs]) == 0
        data = tmp_path / "conv1.bin"
        changed = (np.frombuffer(data.read_bytes(), "<f2") * 0.5).astype("<f2").tobytes()
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p != data}
        names, rewritten = [], []
        quantize_tensor, original = cli.quantize_tensor, getattr(granularity, hook)

        def tracking(t, *args, **kwargs):
            names.append(t.name)
            return quantize_tensor(t, *args, **kwargs)

        def rewrite(*args):
            result = original(*args)
            if names[-1] == "conv1" and not rewritten:
                info = data.stat()
                with open(data, "r+b") as fh:
                    fh.write(changed)
                os.utime(data, ns=(info.st_atime_ns, info.st_mtime_ns + 10**9))
                rewritten.append(data.stat().st_ino == info.st_ino)
            return result

        monkeypatch.setattr(cli, "quantize_tensor", tracking)
        monkeypatch.setattr(granularity, hook, rewrite)
        rc = main(["quantize", "--manifest", str(manifest), "--bits", "3", *outputs])
        assert rc == 1 and rewritten == [True]
        err = capsys.readouterr().err
        assert err.startswith(f"error: conv1: {data} changed"), err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p != data} == before

    @pytest.mark.parametrize("grid_points", [2, 0, -1, 1024, 2 ** 62])
    def test_bruteforce_rejects_small_grid(self, tmp_path, capsys, grid_points):
        manifest = synthetic_model(tmp_path, include_1x1=False)
        out = tmp_path / "model.qnt"
        rc = main(["quantize", "--manifest", str(manifest), "--method", "pwlq",
                   "--granularity", "filter", "--breakpoint", "bruteforce",
                   "--grid-points", str(grid_points), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"grid_points must be >= 3 and <= 1023, got {grid_points}" in err
        assert not out.exists()

    def test_report_records_the_bruteforce_lattice(self, tmp_path):
        manifest = synthetic_model(tmp_path, include_1x1=False)
        configs = {}
        for grid_points in (16, 64):
            report_path = tmp_path / f"r{grid_points}.json"
            assert main(["quantize", "--manifest", str(manifest), "--method", "pwlq",
                         "--granularity", "filter", "--breakpoint", "bruteforce",
                         "--grid-points", str(grid_points), "--out", str(tmp_path / "m.qnt"),
                         "--report", str(report_path)]) == 0
            configs[grid_points] = json.loads(report_path.read_text())["config"]
        assert configs[16]["grid_points"] == 16 and configs[64]["grid_points"] == 64
        assert ({k: v for k, v in configs[16].items() if k != "grid_points"}
                == {k: v for k, v in configs[64].items() if k != "grid_points"})

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

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    def test_output_at_manifest_path_is_refused(self, tmp_path, capsys, flag):
        manifest = synthetic_model(tmp_path, include_1x1=False)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        outputs = {"--out": tmp_path / "m.qnt", "--report": tmp_path / "r.json",
                   flag: tmp_path / "." / "model.json"}
        rc = main(["quantize", "--manifest", str(manifest),
                   *(str(arg) for pair in outputs.items() for arg in pair)])
        assert rc == 1
        assert f"error: --manifest and {flag} are the same file" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("link", ["itself", "hardlink", "symlink"])
    @pytest.mark.parametrize("command,flag", [("quantize", "--out"), ("quantize", "--report"),
                                              ("sweep", "--out")])
    def test_output_at_a_data_file_is_refused(self, tmp_path, capsys, command, flag, link):
        manifest = four_tensor_model(tmp_path)
        data = tmp_path / "conv0.bin"
        path = {"itself": data, "hardlink": tmp_path / "hard.bin",
                "symlink": tmp_path / "link.bin"}[link]
        if link == "hardlink":
            os.link(data, path)
        elif link == "symlink":
            path.symlink_to(data)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        outputs = {"--out": tmp_path / "m.qnt", flag: path}
        if command == "quantize":
            outputs.setdefault("--report", tmp_path / "r.json")
        bits = "4" if command == "quantize" else "4:4"
        rc = main([command, "--manifest", str(manifest), "--bits", bits,
                   *(str(arg) for pair in outputs.items() for arg in pair)])
        assert rc == 1
        assert (f"error: {flag} is a data file that --manifest lists"
                in capsys.readouterr().err)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_staging_keeps_files_named_like_it(self, tmp_path):
        manifest = four_tensor_model(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        bystanders = [tmp_path / "m.qnt.tmp", tmp_path / "r.json.tmp",
                      out / "conv0.bin.tmp", out / "model.json.tmp"]
        for path in bystanders:
            path.write_text(path.name)
        assert main(["quantize", "--manifest", str(manifest), "--out", str(tmp_path / "m.qnt"),
                     "--report", str(tmp_path / "r.json")]) == 0
        assert main(["dequantize", str(tmp_path / "m.qnt"), str(out / "model.json")]) == 0
        assert [path.read_text() for path in bystanders] == [path.name for path in bystanders]
        assert sorted(p.name for p in out.iterdir()) == [
            "conv0.bin", "conv0.bin.tmp", "conv1.bin", "conv2.bin", "conv3.bin",
            "model.json", "model.json.tmp"]

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


def snapshot(dir_path):
    return {p.relative_to(dir_path): p.read_bytes() for p in dir_path.rglob("*") if p.is_file()}


class TestOneTransaction:
    @pytest.mark.parametrize("exc", [KeyboardInterrupt, RuntimeError])
    @pytest.mark.parametrize("command", ["quantize", "sweep", "dequantize"])
    def test_exception_at_the_second_tensor_leaves_earlier_outputs(self, tmp_path,
                                                                   monkeypatch, command, exc):
        manifest = four_tensor_model(tmp_path)
        outputs = ["--out", str(tmp_path / "m.qnt"), "--report", str(tmp_path / "r.json")]
        export = str(tmp_path / "out" / "model.json")
        sweep = ["sweep", "--manifest", str(manifest), "--out", str(tmp_path / "s.csv")]
        assert main(["quantize", "--manifest", str(manifest), *outputs]) == 0
        assert main(["quantize", "--manifest", str(manifest), "--bits", "3",
                     "--out", str(tmp_path / "m3.qnt")]) == 0
        assert main(["dequantize", str(tmp_path / "m.qnt"), export]) == 0
        assert main([*sweep, "--bits", "4:4"]) == 0
        before = snapshot(tmp_path)
        name = "_decoded" if command == "dequantize" else "_quantize_one"
        original, calls = getattr(cli, name), []

        def failing(*args):
            calls.append(args)
            if len(calls) == 2:
                raise exc("at the second tensor")
            return original(*args)

        monkeypatch.setattr(cli, name, failing)
        argv = {"quantize": ["quantize", "--manifest", str(manifest), "--bits", "3", *outputs],
                "sweep": [*sweep, "--bits", "3:3"],
                "dequantize": ["dequantize", str(tmp_path / "m3.qnt"), export]}[command]
        with pytest.raises(exc, match="at the second tensor"):
            main(argv)
        assert len(calls) == 2
        assert snapshot(tmp_path) == before
        assert not list(tmp_path.rglob("*.tmp"))

    def test_quantize_stages_each_output_once(self, tmp_path, monkeypatch):
        manifest = four_tensor_model(tmp_path)
        os_open, staged = os.open, []

        def recording(path, flags, *args, **kwargs):
            if flags & os.O_EXCL and str(path).endswith(".tmp"):
                staged.append(os.path.basename(path))
            return os_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording)
        assert main(["quantize", "--manifest", str(manifest), "--out", str(tmp_path / "m.qnt"),
                     "--report", str(tmp_path / "r.json")]) == 0
        assert sorted(name.split(".")[0] for name in staged) == ["m", "r"], staged


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
# closed-form breakpoint began to take m in units of the group's RMS, the
# bruteforce run again since the search scores a window around the noise
# model's choice), the container hashes since the header is written as
# compact JSON. A change that means to keep the output format must keep them.
FROZEN_OUTPUTS = {
    "affine-layer": (
        ["--method", "affine", "--granularity", "layer"],
        "a8dfc407a49c9923f14f4257f9641995803b78c3dda666968a8659df78f14b07",
        "5675ff223c9b762358110593acf6749b602d011a3daa4951ca404e23767f4f86",
        "c0437ab9d0beaf64659c514f9055427d96176bdf2a7bb943e9cb09c1d6932b6d",
        "105c3da2f83d7ac99f7bd8cef6ac4a8dffcc54f605a203d9a42de45b7ac07368"),
    "sym-full-filter": (
        ["--method", "sym-full", "--granularity", "filter"],
        "7cf2487e5092806b693aded2c7d20ddc82a09acd8769dff5b74b8b57d1baf345",
        "b6189c3f2b79ea0fc94e5b99fa346a27c5e5e4dffe57bdd52288e958115e5150",
        "ed1020bb9df53d3f4028b2ce133a96fd969caab7ff24ecc14c61c7ebfe40fe9f",
        "1d1596ad5f9aa2a1dc89f5b8689408a4bd2f858b4342a123d2b273514026e8b0"),
    "affine-fshape": (
        ["--method", "affine", "--granularity", "fshape"],
        "6b618d27db4ea9238e32a9b7695f96f28e6682607fc87f9121d7e2c96bd2430f",
        "120b7cfc7087b2a32340616579210b2ad3531051f5fca0a2e1b55b7fe4818a0a",
        "4e8b9e24fd3517ad1486a3bfea5727081e48ee39bc226891fdbbddf151dcdd1e",
        "ed51b49cf35a630a7efca560d4750b62784422843eacc029ba81a843a724a8e1"),
    "sym-restricted-auto3": (
        ["--method", "sym-restricted", "--granularity", "auto3", "--bits", "3"],
        "8e35e85829a13e3b4484b9d8d92bc17e3bc0ca42e8b5a86b6736268d722fe88c",
        "1b62b9f4839b34ae6bf0aeb30bdee7812463b76882d3c79089e59b3420b0a407",
        "f30b81652f5563af175cf914f1fdb5cad6a2ced87bcf4a4280e330f9ad468495",
        "4bdaa7073717d0eb2eb6370cda6306fbd90a03915adf0425462d800ece8da555"),
    "sym-full-fshape": (
        ["--method", "sym-full", "--granularity", "fshape", "--bits", "5"],
        "e282be2e01e8df0c61d82801b7a992ec2483fb78e954ab5366ff1b15bff057b6",
        "3bc6bca1d1f0532580ac35fdf3910d100d1b6f2169307427d3e27b2c7e7a2cb5",
        "b260d56e8ab35922b336b8421ab30d79f6d313be90b91987d7f5404edffdb3d3",
        "e2fa13101e69c93e1a00908b5ca416a5e27df161cc7a002f2e02f995036e2e27"),
    "pwlq-auto3": (
        ["--method", "pwlq", "--granularity", "auto3"],
        "d42554c81f17818b7809b16b37177502560e24b672603e4d818531a3a789fc1f",
        "0be1899cc1e92a1e300d6901d04e8d01762916b3126f3568b4be58eb4a804d3b",
        "f389deef07c1462fdd8a40e78da9d2a14069210a3d0af08a4d77c056af7a1559",
        "7e1aa2235a16593ee0ef23efee75f5d297ea9d9aa9283ae01847907efc850cd3"),
    "pwlq-bruteforce-fshape": (
        ["--method", "pwlq", "--granularity", "fshape", "--breakpoint", "bruteforce",
         "--grid-points", "16", "--bits", "6"],
        "8b2036bd0f2f18015c5d351e3a2778cbb2d801a5a6134fa2fec5f3cb2e406b9d",
        "0222db8a3afd3564d9e6a5d90d772827e7731f0883217b277d387a6d9dc174ec",
        "6d65d2fbe390e2f4dff9aa5f49421422b417db533759da7a6a20b2d8059bc9ee",
        "f948abee7adcfb8c35aa8d40af4b6e1d95ed3b6189f33d6caaff80341a720676"),
    "affine-channel": (
        ["--method", "affine", "--granularity", "channel", "--bits", "8"],
        "c23a17002896d840f576e9b7c30b51299c20d8b718f89936c4aec260f504e556",
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

    @pytest.mark.parametrize("run", sorted(FROZEN_OUTPUTS))
    def test_container_differs_from_an_indented_one_only_in_its_header(self, tmp_path,
                                                                      monkeypatch, run):
        # Containers were written with indent=1 JSON headers before: the
        # compact header holds the same document before the same payload.
        frozen_model(tmp_path)
        monkeypatch.chdir(tmp_path)
        argv = ["quantize", "--manifest", "model.json", "--exclude", "*bn*",
                *FROZEN_OUTPUTS[run][0], "--out"]
        assert main([*argv, "compact.qnt"]) == 0

        def dumps_indented(doc, **_):
            return json.dumps(doc, indent=1, sort_keys=True)

        monkeypatch.setattr(container, "json",
                            SimpleNamespace(loads=json.loads, dumps=dumps_indented))
        assert main([*argv, "indented.qnt"]) == 0
        compact, indented = (split_container((tmp_path / name).read_bytes())
                             for name in ("compact.qnt", "indented.qnt"))
        assert compact[0] != indented[0]
        assert json.loads(compact[0]) == json.loads(indented[0])
        assert compact[1] == indented[1]


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
        _, tensors, _ = iter_manifest(out_manifest)
        assert [t.load().tolist() for t in tensors] == [[0.5] * 16]

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

    @pytest.mark.parametrize("method,bits", [("affine", 2), ("sym-full", 2), ("pwlq", 3)])
    def test_weights_at_the_f16_limits_round_trip(self, tmp_path, capsys, method, bits):
        # At 2 bits, a layer over [-65504, 65504] decodes code -2 to -87,339,
        # past binary16's range: it saturates to -65504.
        values = np.array([-65504.0, 65504.0, 0.0, 100.0] * 4)
        manifest = write_manifest(tmp_path, [("conv", (4, 4, 1, 1), values, "f16")])
        container, out = tmp_path / "m.qnt", tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["quantize", "--manifest", str(manifest), "--method", method,
                         "--granularity", "layer", "--bits", str(bits),
                         "--out", str(container)]) == 0
            assert main(["dequantize", str(container), str(out / "model.json")]) == 0
        assert capsys.readouterr().err == ""
        with open_container(container) as tensors:
            (q,) = tensors
        records = [q.params[piece] for piece in pwlq.PIECES] if method == "pwlq" else [q.params]
        step = max(float(r["scale"].max()) for r in records)
        back = np.fromfile(out / "conv.bin", "<f2").astype(np.float64)
        half_ulp = np.maximum(np.abs(values), np.abs(back)) * 2.0 ** -11
        assert np.isfinite(back).all()
        assert np.all(np.abs(back - values) <= step / 2 + half_ulp)

    def test_manifest_named_like_a_data_file_keeps_it(self, tmp_path):
        values = np.linspace(-1.0, 1.0, 16)
        manifest = write_manifest(tmp_path, [("conv", (4, 4, 1, 1), values, "f16")])
        container, out = tmp_path / "m.qnt", tmp_path / "out" / "conv.bin"
        assert main(["quantize", "--manifest", str(manifest), "--out", str(container)]) == 0
        assert main(["dequantize", str(container), str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [e["file"] for e in doc["tensors"]] == ["conv.1.bin"]
        _, tensors, _ = iter_manifest(out)
        assert np.abs(next(tensors).load() - values).max() < 0.07

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

    @pytest.mark.parametrize("earlier", [False, True])
    def test_empty_container_leaves_no_directory(self, tmp_path, capsys, earlier):
        out = tmp_path / "out"
        if earlier:     # an earlier export at the same path stays as it was
            qnt = tmp_path / "m.qnt"
            assert main(["quantize", "--manifest", str(four_tensor_model(tmp_path)),
                         "--out", str(qnt)]) == 0
            assert main(["dequantize", str(qnt), str(out / "sub" / "model.json")]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        empty = tmp_path / "e.qnt"
        write_container([], empty)
        rc = main(["dequantize", str(empty), str(out / "sub" / "model.json")])
        assert rc == 1
        assert "manifest lists no tensors" in capsys.readouterr().err
        assert out.exists() == earlier
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("fault", ["code", "read-back"])
    def test_bad_code_keeps_earlier_export(self, tmp_path, monkeypatch, capsys, fault):
        good = tmp_path / "good.qnt"
        assert main(["quantize", "--manifest", str(four_tensor_model(tmp_path)),
                     "--method", "sym-restricted", "--out", str(good)]) == 0
        out = tmp_path / "out"
        assert main(["dequantize", str(good), str(out / "model.json")]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        if fault == "code":
            with open_container(good) as tensors:
                tensors = list(tensors)
            q = tensors[1]
            data = bytearray(q.codes.data)
            data[0] &= 0xF0     # code 0, biased by 8, to -8: outside [-7, 7], the 4-bit domain
            q.codes = PackedCodes(q.bits, q.codes.count, bytes(data))
            bad = tmp_path / "bad.qnt"
            write_container(tensors, bad)
            message = "conv1: group 0: code outside"
        else:   # the staged file of the last tensor reads back wrong
            checked = tensor_store._checked

            def failing(name, *args):
                if name == "conv3":
                    raise InvalidValue(f"{name}: non-finite value in weight data")
                return checked(name, *args)

            monkeypatch.setattr(tensor_store, "_checked", failing)
            bad, message = good, "conv3: non-finite"
        rc = main(["dequantize", str(bad), str(out / "model.json")])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("granularity,group", [("filter", 7), ("fshape", 143)])
    @pytest.mark.parametrize("bits", [3, 5])
    def test_bad_code_in_the_last_block_leaves_no_output(self, tmp_path, monkeypatch, capsys,
                                                         granularity, group, bits):
        # A block per filter, so the earlier blocks of conv3 are decoded and
        # written before its last code, -2^(k-1), is reached.
        monkeypatch.setattr(tensor_store, "BLOCK", 1)
        qnt = tmp_path / "m.qnt"
        assert main(["quantize", "--manifest", str(four_tensor_model(tmp_path)),
                     "--method", "sym-restricted", "--granularity", granularity,
                     "--bits", str(bits), "--out", str(qnt)]) == 0
        blob = bytearray(qnt.read_bytes())
        newline = blob.index(b"\n")
        payload = newline + 1 + int(blob[:newline].split()[1])
        record = json.loads(blob[newline + 1:payload])["tensors"][-1]
        start, length = record["sections"]["codes"]
        span = slice(payload + start, payload + start + length)
        codes = unpack_codes(PackedCodes(bits, 8 * 16 * 9, bytes(blob[span])))
        codes[-1] = -(1 << (bits - 1))
        blob[span] = pack_codes(codes, bits).data
        qnt.write_bytes(bytes(blob))
        out = tmp_path / "out"
        rc = main(["dequantize", str(qnt), str(out / "model.json")])
        assert rc == 1
        assert f"conv3: group {group}: code outside" in capsys.readouterr().err
        assert not out.exists()

    def test_out_manifest_that_is_a_directory_is_refused(self, tmp_path, capsys):
        qnt = tmp_path / "m.qnt"
        assert main(["quantize", "--manifest", str(four_tensor_model(tmp_path)),
                     "--out", str(qnt)]) == 0
        out = tmp_path / "out"
        (out / "model.json").mkdir(parents=True)
        rc = main(["dequantize", str(qnt), str(out / "model.json")])
        assert rc == 1
        assert "error: out_manifest is a directory" in capsys.readouterr().err
        assert [p.name for p in out.rglob("*")] == ["model.json"]

    def test_output_at_container_path_is_refused(self, tmp_path, capsys):
        container = tmp_path / "q" / "m.qnt"
        container.parent.mkdir()
        assert main(["quantize", "--manifest", str(four_tensor_model(tmp_path)),
                     "--out", str(container)]) == 0
        earlier = container.read_bytes()
        rc = main(["dequantize", str(container), str(container)])
        assert rc == 1
        assert ("error: container and out_manifest are the same file"
                in capsys.readouterr().err)
        assert [p.name for p in container.parent.iterdir()] == ["m.qnt"]
        assert container.read_bytes() == earlier

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

    def test_negative_loss_is_refused_before_any_tensor_is_quantized(self, tmp_path,
                                                                     monkeypatch, capsys):
        manifest = synthetic_model(tmp_path, include_1x1=False)
        loss_file = tmp_path / "loss.json"
        loss_file.write_text(json.dumps({"4": 1.0, "5": -0.5}))
        out = tmp_path / "sweep.csv"

        def refuse(*args, **kwargs):
            raise AssertionError("a tensor was quantized")

        monkeypatch.setattr(cli, "quantize_tensor", refuse)
        rc = main(["sweep", "--manifest", str(manifest), "--bits", "4:5",
                   "--loss-file", str(loss_file), "--out", str(out)])
        assert rc == 1
        assert "loss file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, key", [('{"40": 1.0, "-3": 2}', "'40'"),
                                           ('{"5": 1.0}', "'5'"),
                                           ('{"4": 1.0, "04": 2.0}', "'04'")])
    def test_loss_keys_must_be_widths_of_the_range_once(self, tmp_path, monkeypatch,
                                                        capsys, text, key):
        manifest = synthetic_model(tmp_path, include_1x1=False)
        loss_file = tmp_path / "loss.json"
        loss_file.write_text(text)
        out = tmp_path / "sweep.csv"

        def refuse(*args, **kwargs):
            raise AssertionError("a tensor was quantized")

        monkeypatch.setattr(cli, "quantize_tensor", refuse)
        rc = main(["sweep", "--manifest", str(manifest), "--bits", "4:4",
                   "--loss-file", str(loss_file), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"loss file {loss_file}" in err and f"key {key}" in err
        assert not out.exists()

    def test_output_at_loss_file_path_is_refused(self, tmp_path, capsys):
        manifest = synthetic_model(tmp_path, include_1x1=False)
        loss_file = tmp_path / "loss.json"
        loss_file.write_text(json.dumps({"4": 1.0}))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        rc = main(["sweep", "--manifest", str(manifest), "--bits", "4:4",
                   "--loss-file", str(loss_file), "--out", str(loss_file)])
        assert rc == 1
        assert "error: --loss-file and --out are the same file" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_out_that_is_a_directory_fails_cleanly(self, tmp_path, capsys):
        manifest = synthetic_model(tmp_path, include_1x1=False)
        out = tmp_path / "sweep.csv"
        out.mkdir()
        (out / "kept.txt").write_text("kept")
        before = sorted(tmp_path.rglob("*"))
        rc = main(["sweep", "--manifest", str(manifest), "--bits", "3:4", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert sorted(tmp_path.rglob("*")) == before
        assert (out / "kept.txt").read_text() == "kept"

    def test_failed_move_keeps_earlier_csv(self, tmp_path, monkeypatch, capsys):
        manifest = synthetic_model(tmp_path, include_1x1=False)
        out = tmp_path / "sweep.csv"
        out.write_bytes(b"an earlier sweep")
        before = sorted(tmp_path.iterdir())

        def fail(*args):
            raise OSError("move failed")

        monkeypatch.setattr(os, "replace", fail)
        rc = main(["sweep", "--manifest", str(manifest), "--bits", "3:4", "--out", str(out)])
        assert rc == 1
        assert "error: move failed" in capsys.readouterr().err
        assert out.read_bytes() == b"an earlier sweep"
        assert sorted(tmp_path.iterdir()) == before

    def test_stdout_output(self, tmp_path, capsys):
        manifest = synthetic_model(tmp_path, include_1x1=False)
        rc = main(["sweep", "--manifest", str(manifest), "--method", "affine",
                   "--bits", "4:5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("bits,")
        assert len(out.strip().splitlines()) == 3
