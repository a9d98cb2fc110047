"""Output checks computed apart from convquant.

Every check reads the files a CLI run left behind (source manifest,
container, report, dequantized manifest) with this module's own numpy and
JSON code, never with convquant's, and raises ``CheckFailed`` naming the
check on the first violation. None compares against stored earlier output.

(a) container decode within each group's step, computed from the source;
(b) the benchmark's round-trip MSE agrees with the report's ``totals.mse``;
(c) the report's ``totals.bytes`` equals the bytes recomputed from shapes,
    bits and chosen granularities;
(d) the file is prelude + header + sections, and the sections have the
    sizes their shapes imply;
(e) every ``*bn*`` tensor comes back bit-identical;
(f) repeated runs of one seed give the same container hash.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from fnmatch import fnmatchcase
from pathlib import Path

import numpy as np

# CLI defaults of the memory model: bytes charged per group, baseline bits.
PARAM_BYTES = {"affine": 4, "symmetric-restricted": 2, "symmetric-full": 2, "pwlq": 10}
BASELINE_BITS = 16
# Relative agreement between the container decode's MSE (f16 parameters and
# f16 output) and the report's in-memory MSE (float64 throughout); the two
# differ by under 5e-5 on the benchmark's workloads.
MSE_RTOL = 1e-3

_DTYPES = {"f16": np.dtype("<f2"), "f32": np.dtype("<f4")}
_UNIFORM_RECORD = 10               # kind, bits, scale f16, zero i16, beta f16, alpha f16
_PWLQ_RECORD = 6 + 3 * _UNIFORM_RECORD
_PWLQ_HEAD = struct.Struct("<BBee")
_PWLQ_KIND = 3


class CheckFailed(Exception):
    """An output violated one of the checks (a)-(f)."""


class Manifest:
    """A weights manifest; tensors are read one at a time."""

    def __init__(self, path):
        self.path = Path(path)
        doc = json.loads(self.path.read_text("utf-8"))
        self.exclude = doc.get("exclude", [])
        self.entries = {e["name"]: e for e in doc["tensors"]}

    def shape(self, name) -> tuple[int, int, int, int]:
        dims = list(self.entries[name]["shape"])
        return tuple(dims + [1] * (4 - len(dims)))

    def raw(self, name) -> bytes:
        return (self.path.parent / self.entries[name]["file"]).read_bytes()

    def values(self, name) -> np.ndarray:
        dtype = _DTYPES[self.entries[name]["dtype"]]
        return np.frombuffer(self.raw(name), dtype=dtype).astype(np.float64)


class Container:
    """A ``qnt/1`` file split into prelude, JSON header and payload."""

    def __init__(self, path):
        self.blob = Path(path).read_bytes()
        newline = self.blob.find(b"\n", 0, 64)
        if newline < 0:
            raise CheckFailed("(d) container has no prelude line")
        version, header_len = self.blob[:newline].decode("ascii").split(" ")
        if version != "qnt/1":
            raise CheckFailed(f"(d) container version {version!r}, expected 'qnt/1'")
        self.prelude_bytes = newline + 1
        self.header_bytes = int(header_len)
        start = self.prelude_bytes + self.header_bytes
        self.header = json.loads(self.blob[self.prelude_bytes:start])
        self.payload = memoryview(self.blob)[start:]
        self.records = self.header["tensors"]

    def section(self, record, name) -> memoryview:
        off, length = record["sections"][name]
        return self.payload[off:off + length]

    def sha256(self) -> str:
        return hashlib.sha256(self.blob).hexdigest()


def group_rows(values: np.ndarray, shape, scheme: str) -> np.ndarray:
    """View a flat (n, c, h, w) tensor as (groups, group size) under a granularity."""
    n, c, h, w = shape
    a = values.reshape(n, c, h * w)
    if scheme == "layer-wise":
        return a.reshape(1, -1)
    if scheme == "filter-wise":
        return a.reshape(n, -1)
    if scheme == "channel-wise":
        return a.reshape(n * c, h * w)
    if scheme == "f-shape-wise":
        return a.reshape(n, -1).T
    if scheme == "c-shape-wise":
        return a.transpose(0, 2, 1).reshape(n * h * w, c)
    raise CheckFailed(f"unknown granularity {scheme!r}")


def group_count(shape, scheme: str) -> int:
    n, c, h, w = shape
    return {"layer-wise": 1, "filter-wise": n, "channel-wise": n * c,
            "f-shape-wise": c * h * w, "c-shape-wise": n * h * w}[scheme]


def group_steps(rows: np.ndarray, method: str, bits: int) -> np.ndarray:
    """Each group's step from its source values: the largest error a decode may show."""
    if method == "pwlq":
        return np.abs(rows).max(axis=1) / ((1 << (bits - 1)) - 1)
    return (rows.max(axis=1) - rows.min(axis=1)) / ((1 << bits) - 1)


def _half_ulp_f16(x: np.ndarray) -> np.ndarray:
    return 0.5 * np.spacing(np.abs(x).astype(np.float16)).astype(np.float64)


def check_decode_bound(source: Manifest, output: Manifest, container: Container) -> float:
    """(a) Every group of the container decode lies within its step of the source.

    Returns the round-trip MSE over all tensors.
    """
    if list(output.entries) != list(source.entries):
        raise CheckFailed("(a) dequantized manifest lists other tensors than the source")
    sse = 0.0
    count = 0
    for record in container.records:
        name = record["name"]
        shape = source.shape(name)
        if output.shape(name) != shape:
            raise CheckFailed(f"(a) {name}: shape {output.shape(name)}, source {shape}")
        src = source.values(name)
        out = output.values(name)
        diff = out - src
        sse += float(diff @ diff)
        count += src.size
        if record["passthrough"]:
            continue
        rows = group_rows(src, shape, record["scheme"])
        err = np.abs(group_rows(diff, shape, record["scheme"])).max(axis=1)
        step = group_steps(rows, record["method"], record["bits"])
        allowed = step + _half_ulp_f16(np.abs(rows).max(axis=1) + step)
        bad = np.flatnonzero(err > allowed)
        if bad.size:
            g = int(bad[0])
            raise CheckFailed(f"(a) {name}: group {g} decodes {err[g]:.3e} off, "
                              f"step {step[g]:.3e} ({bad.size} groups over)")
    return sse / count


def check_report_mse(roundtrip_mse: float, report: dict) -> None:
    """(b) Container-decode MSE agrees with the report's in-memory MSE."""
    reported = report["totals"]["mse"]
    if not math.isclose(roundtrip_mse, reported, rel_tol=MSE_RTOL):
        raise CheckFailed(f"(b) round-trip mse {roundtrip_mse:.6e}, "
                          f"report says {reported:.6e}")


def modeled_bytes(record) -> int:
    """The memory model's bytes for one container record."""
    count = math.prod(record["shape"])
    if record["passthrough"]:
        return -(-count * BASELINE_BITS // 8)
    return (-(-count * record["bits"] // 8)
            + group_count(record["shape"], record["scheme"]) * PARAM_BYTES[record["method"]])


def check_modeled_bytes(container: Container, report: dict) -> None:
    """(c) The report's byte totals follow from shapes, bits and granularities."""
    names = [t["name"] for t in report["tensors"]]
    if names != [r["name"] for r in container.records]:
        raise CheckFailed("(c) report and container list different tensors")
    quantized = baseline = 0
    for record, entry in zip(container.records, report["tensors"]):
        if (entry["scheme"], entry["passthrough"]) != (record["scheme"], record["passthrough"]):
            raise CheckFailed(f"(c) {record['name']}: report and container disagree "
                              f"on the granularity")
        quantized += modeled_bytes(record)
        baseline += -(-math.prod(record["shape"]) * BASELINE_BITS // 8)
    totals = report["totals"]
    if totals["bytes"] != quantized or totals["baseline_bytes"] != baseline:
        raise CheckFailed(f"(c) report totals {totals['bytes']}/{totals['baseline_bytes']} "
                          f"bytes, recomputed {quantized}/{baseline}")
    if not math.isclose(totals["memory_saving"], baseline / quantized, rel_tol=1e-12):
        raise CheckFailed(f"(c) report saving {totals['memory_saving']}, "
                          f"recomputed {baseline / quantized}")


def parse_params(params: memoryview) -> tuple[int, list[float]]:
    """Walk a params section's records: bytes they take and each PWLQ record's p/m."""
    ratios = []
    off = 0
    while off < len(params):
        if params[off] == _PWLQ_KIND:
            _, _, m, p = _PWLQ_HEAD.unpack_from(params, off)
            ratios.append(p / m)
            off += _PWLQ_RECORD
        else:
            off += _UNIFORM_RECORD
    return off, ratios


def check_layout(container: Container) -> None:
    """(d) File = prelude + header + sections, each section sized by its shape."""
    declared = container.header["payload_size"]
    total = container.prelude_bytes + container.header_bytes + declared
    if len(container.blob) != total:
        raise CheckFailed(f"(d) file is {len(container.blob)} bytes, "
                          f"prelude + header + payload is {total}")
    spans = []
    for record in container.records:
        name = record["name"]
        count = math.prod(record["shape"])
        if record["passthrough"]:
            expected = {"raw": count * record["source_bits"] // 8}
        else:
            expected = {"codes": -(-count * record["bits"] // 8)}
            if record["method"] == "pwlq":
                expected["regions"] = -(-count // 8)
        for section, size in expected.items():
            if record["sections"][section][1] != size:
                raise CheckFailed(f"(d) {name}: {section} section is "
                                  f"{record['sections'][section][1]} bytes, expected {size}")
        if "params" in record["sections"]:
            params = container.section(record, "params")
            records, _ = parse_params(params)
            if records != len(params):
                raise CheckFailed(f"(d) {name}: params section is {len(params)} bytes, "
                                  f"its records take {records}")
        spans += [tuple(v) for v in record["sections"].values()]
    cursor = 0
    for off, length in sorted(spans):
        if off != cursor:
            raise CheckFailed(f"(d) payload gap or overlap at byte {cursor}")
        cursor = off + length
    if cursor != declared:
        raise CheckFailed(f"(d) sections cover {cursor} bytes of a {declared}-byte payload")


def check_passthrough_identical(source: Manifest, output: Manifest) -> None:
    """(e) Every excluded (batch-norm) tensor comes back bit-identical."""
    for name in source.entries:
        if any(fnmatchcase(name, pattern) for pattern in source.exclude):
            if output.raw(name) != source.raw(name):
                raise CheckFailed(f"(e) {name} changed on the round trip")


def check_repeatable(hashes) -> None:
    """(f) Every run of one seed wrote the same container."""
    if len(set(hashes)) != 1:
        raise CheckFailed(f"(f) {len(set(hashes))} different containers from one seed")


def check_round(source_manifest, container_path, report_path, output_manifest) -> dict:
    """Run checks (a)-(e) on one quantize + dequantize round; returns its figures."""
    source = Manifest(source_manifest)
    output = Manifest(output_manifest)
    container = Container(container_path)
    report = json.loads(Path(report_path).read_text("utf-8"))
    check_layout(container)
    check_modeled_bytes(container, report)
    roundtrip_mse = check_decode_bound(source, output, container)
    check_report_mse(roundtrip_mse, report)
    check_passthrough_identical(source, output)
    return {"roundtrip_mse": roundtrip_mse,
            "container_bytes": len(container.blob),
            "modeled_saving": report["totals"]["memory_saving"],
            "sha256": container.sha256()}
