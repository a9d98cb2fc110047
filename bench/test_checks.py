"""The benchmark's own tests: each output check fails on a corrupted output.

    python3 -m pytest bench -q

A small seeded model goes through the real CLI once per method; each test
then corrupts one copy of an output and shows that its check rejects it.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import checks
import models
import run

SMALL_CONVS = [(16, 32, 3), (32, 24, 1), (24, 16, 3)]
AFFINE = ["--method", "affine", "--granularity", "fshape", "--bits", "4"]
PWLQ = ["--method", "pwlq", "--granularity", "auto3", "--bits", "4"]


def cli(*argv, log):
    run.run_cli([str(a) for a in argv], log)


@pytest.fixture(scope="module", params=["affine", "pwlq"])
def outputs(request, tmp_path_factory):
    """Source manifest, container, report and dequantized manifest of one round."""
    work = tmp_path_factory.mktemp(request.param)
    manifest = models.write_model(SMALL_CONVS, 7, work / "model")
    flags = AFFINE if request.param == "affine" else PWLQ
    log = work / "cli.log"
    cli("quantize", "--manifest", manifest, *flags, "--out", work / "m.qnt",
        "--report", work / "r.json", log=log)
    cli("dequantize", work / "m.qnt", work / "out" / "model.json", log=log)
    return {"source": manifest, "container": work / "m.qnt", "report": work / "r.json",
            "output": work / "out" / "model.json", "log": log}


@pytest.fixture
def copy(outputs, tmp_path):
    """A private copy of the round's outputs that a test may corrupt."""
    shutil.copytree(outputs["output"].parent, tmp_path / "out")
    for name in ("container", "report"):
        shutil.copy(outputs[name], tmp_path / outputs[name].name)
    return {"source": outputs["source"], "container": tmp_path / "m.qnt",
            "report": tmp_path / "r.json", "output": tmp_path / "out" / "model.json",
            "log": outputs["log"]}


def rewrite_container(path: Path, edit) -> None:
    """Apply ``edit(header, payload) -> payload`` and rewrite prelude, header and payload."""
    container = checks.Container(path)
    header = container.header
    payload = edit(header, bytearray(container.payload))
    header_bytes = json.dumps(header, indent=1, sort_keys=True).encode()
    path.write_bytes(b"qnt/1 %d\n" % len(header_bytes) + header_bytes + bytes(payload))


def first_quantized(container: checks.Container) -> dict:
    return next(r for r in container.records if not r["passthrough"])


def test_clean_round_passes_every_check(outputs):
    figures = checks.check_round(outputs["source"], outputs["container"],
                                 outputs["report"], outputs["output"])
    assert figures["roundtrip_mse"] > 0
    assert figures["container_bytes"] == outputs["container"].stat().st_size
    checks.check_repeatable([figures["sha256"], checks.Container(outputs["container"]).sha256()])


def test_a_flipped_code_byte_breaks_the_decode_bound(copy, tmp_path):
    container = checks.Container(copy["container"])
    off, length = first_quantized(container)["sections"]["codes"]
    blob = bytearray(container.blob)
    start = len(container.blob) - len(container.payload)
    for i in range(start + off, start + off + length):
        blob[i] ^= 0x88         # every 4-bit code moves by half its domain
    copy["container"].write_bytes(bytes(blob))
    cli("dequantize", copy["container"], tmp_path / "bad" / "model.json", log=copy["log"])
    with pytest.raises(checks.CheckFailed, match=r"^\(a\)"):
        checks.check_decode_bound(checks.Manifest(copy["source"]),
                                  checks.Manifest(tmp_path / "bad" / "model.json"),
                                  checks.Container(copy["container"]))


def test_a_shifted_output_value_breaks_the_decode_bound(copy):
    output = checks.Manifest(copy["output"])
    name = first_quantized(checks.Container(copy["container"]))["name"]
    path = copy["output"].parent / output.entries[name]["file"]
    values = output.values(name).astype("<f2")
    values[0] += 0.5
    path.write_bytes(values.tobytes())
    with pytest.raises(checks.CheckFailed, match=r"^\(a\)"):
        checks.check_decode_bound(checks.Manifest(copy["source"]), checks.Manifest(copy["output"]),
                                  checks.Container(copy["container"]))


def _edit_report(path: Path, edit) -> dict:
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))
    return report


def test_b_altered_report_mse_is_caught(copy):
    mse = checks.check_decode_bound(checks.Manifest(copy["source"]),
                                    checks.Manifest(copy["output"]),
                                    checks.Container(copy["container"]))
    report = _edit_report(copy["report"],
                          lambda r: r["totals"].update(mse=r["totals"]["mse"] * 1.01))
    with pytest.raises(checks.CheckFailed, match=r"^\(b\)"):
        checks.check_report_mse(mse, report)


def test_c_altered_report_total_is_caught(copy):
    report = _edit_report(copy["report"],
                          lambda r: r["totals"].update(bytes=r["totals"]["bytes"] + 1))
    with pytest.raises(checks.CheckFailed, match=r"^\(c\)"):
        checks.check_modeled_bytes(checks.Container(copy["container"]), report)


def test_c_report_granularity_must_match_the_container(copy):
    def swap(report):
        entry = next(t for t in report["tensors"] if not t["passthrough"])
        entry["scheme"] = "layer-wise"
    report = _edit_report(copy["report"], swap)
    with pytest.raises(checks.CheckFailed, match=r"^\(c\)"):
        checks.check_modeled_bytes(checks.Container(copy["container"]), report)


def test_d_truncated_file_is_caught(copy):
    blob = copy["container"].read_bytes()
    copy["container"].write_bytes(blob[:-1])
    with pytest.raises(checks.CheckFailed, match=r"^\(d\)"):
        checks.check_layout(checks.Container(copy["container"]))


def test_d_truncated_codes_section_is_caught(copy):
    def truncate(header, payload):
        record = next(r for r in header["tensors"] if not r["passthrough"])
        off, length = record["sections"]["codes"]
        record["sections"]["codes"] = [off, length - 1]
        for other in header["tensors"]:
            for section in other["sections"].values():
                if section[0] > off:
                    section[0] -= 1
        header["payload_size"] -= 1
        del payload[off + length - 1]
        return payload
    rewrite_container(copy["container"], truncate)
    with pytest.raises(checks.CheckFailed, match=r"^\(d\) .*codes section"):
        checks.check_layout(checks.Container(copy["container"]))


def test_e_changed_batch_norm_bit_is_caught(copy):
    output = checks.Manifest(copy["output"])
    name = next(n for n in output.entries if ".bn." in n)
    path = copy["output"].parent / output.entries[name]["file"]
    data = bytearray(path.read_bytes())
    data[0] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(checks.CheckFailed, match=r"^\(e\)"):
        checks.check_passthrough_identical(checks.Manifest(copy["source"]), output)


def test_f_different_containers_are_caught(copy):
    good = checks.Container(copy["container"]).sha256()
    blob = bytearray(copy["container"].read_bytes())
    blob[-1] ^= 0x01
    copy["container"].write_bytes(bytes(blob))
    with pytest.raises(checks.CheckFailed, match=r"^\(f\)"):
        checks.check_repeatable([good, checks.Container(copy["container"]).sha256()])


def test_group_rows_cover_each_element_once():
    values = np.arange(2 * 3 * 3 * 3, dtype=float)
    shape = (2, 3, 3, 3)
    for scheme in ("layer-wise", "filter-wise", "channel-wise", "f-shape-wise", "c-shape-wise"):
        rows = checks.group_rows(values, shape, scheme)
        assert rows.shape[0] == checks.group_count(shape, scheme)
        assert sorted(rows.ravel()) == list(values)


def test_models_are_seeded(tmp_path):
    a = models.write_model(SMALL_CONVS, 3, tmp_path / "a")
    b = models.write_model(SMALL_CONVS, 3, tmp_path / "b")
    c = models.write_model(SMALL_CONVS, 4, tmp_path / "c")
    name = "model.0.conv.weight.bin"
    assert (a.parent / name).read_bytes() == (b.parent / name).read_bytes()
    assert (a.parent / name).read_bytes() != (c.parent / name).read_bytes()


def test_model_sizes():
    def weights(convs):
        return sum(c_in * c_out * k * k for c_in, c_out, k in convs)
    assert 37.0e6 < weights(models.yolov7_convs()) < 38.0e6
    assert 6.0e6 < weights(models.yolov7_tiny_convs()) < 6.4e6
    assert sum(c_out for _, c_out, _ in models.BRUTEFORCE_CONVS) == 256


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    manifest = models.write_model(SMALL_CONVS, 5, tmp_path / "model")
    pair = run.run_pair(tmp_path, manifest, AFFINE, "traced", traced=True)
    layers = pair["layers"]
    declared = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    overhead = {"trace.quantize_overhead", "trace.dequantize_overhead"}
    assert {m["name"] for m in declared} == set(layers) | overhead
    assert {m["unit"] for m in declared if m["name"] in layers} <= {"s", "count", "MB",
                                                                     "bytes", "ratio"}
    assert all(run.layer_unit(m["name"]) == m["unit"] for m in declared)
    assert layers["pwlq.breakpoint_bruteforce_s"] == 0
    assert layers["uniform.quantize_slice_calls"] == layers["granularity.groups_quantized"]
    assert layers["container.codes_bytes"] > 0


def test_failed_command_raises(tmp_path):
    with pytest.raises(run.CommandFailed, match="quantize exited 1"):
        cli("quantize", "--manifest", tmp_path / "missing.json", "--out", tmp_path / "m.qnt",
            log=tmp_path / "cli.log")


def test_exits_without_result_when_sources_are_missing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "pwlq-bruteforce", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
