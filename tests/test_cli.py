import csv
import json

import numpy as np
import pytest

from convquant import load_manifest, read_container
from convquant.cli import main

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

        tensors, _ = read_container(out)
        assert len(tensors) == len(report["tensors"])

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
        assert err.value.code != 0

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
        values[5 * 144:6 * 144] = rng.normal(0, 1e-6, size=144)
        manifest = write_manifest(tmp_path, [("conv.dead", (16, 16, 3, 3), values, "f16")])
        out = tmp_path / "model.qnt"
        rc = main(["quantize", "--manifest", str(manifest), "--method", "pwlq",
                   "--granularity", "filter", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "conv.dead" in err and "group 5" in err
        assert not out.exists()
        assert not (tmp_path / "model.qnt.tmp").exists()

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
        model = load_manifest(out_manifest)
        assert model.tensors[0].values.tolist() == [0.5] * 16

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

    def test_corrupt_container_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.qnt"
        bad.write_bytes(b"qnt/1 9999\n{}")
        out_manifest = tmp_path / "out" / "model.json"
        rc = main(["dequantize", str(bad), str(out_manifest)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not out_manifest.exists()


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

    def test_stdout_output(self, tmp_path, capsys):
        manifest = synthetic_model(tmp_path, include_1x1=False)
        rc = main(["sweep", "--manifest", str(manifest), "--method", "affine",
                   "--bits", "4:5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("bits,")
        assert len(out.strip().splitlines()) == 3
