"""Self-describing on-disk container for quantized models. Format "qnt/1".

Layout::

    b"qnt/1 <header-bytes>\\n"   prelude, ASCII
    <header>                     JSON, UTF-8
    <payload>                    binary sections, offsets relative to payload

The header holds the memory model (``metrics.MEMORY_MODEL``, the only one
the reader accepts) and one record per tensor (name, shape, method, scheme,
bits, group count, section offsets). It is written as compact JSON with
sorted keys; the reader takes any JSON, such as the indented headers of
earlier writers. Payload sections per tensor:

* ``params``: one record per group. A uniform record is 10 bytes
  ``<kind u8, bits u8, scale f16, zero_point i16, beta f16, alpha f16>``
  with kind 0=affine, 1=symmetric-restricted, 2=symmetric-full. A
  piecewise record is kind 3: ``<kind u8, bits u8, m f16, p f16>`` followed
  by three embedded uniform records (center, negative tail, positive tail);
  a piecewise tensor's all-zero groups take a degenerate affine record.
* ``codes``: the packed k-bit code stream (see packing module), exactly
  ceil(E * k / 8) bytes.
* ``regions``: piecewise only; one bit per element, little-endian bit order.
* ``raw``: passthrough only; original values at source precision.

Scales, breakpoints and clip bounds are serialized as IEEE binary16 and
zero-points as 16-bit signed integers, so round-trip equality is defined
after that rounding. Values outside those ranges, and scales that round to
zero, are an InvalidInput naming the tensor and the group, raised before
anything is written. The reader rejects every record that decode could not
use with CorruptHeader. It keeps the codes and region bits packed, as
stored; decode unpacks them a block at a time.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import (
    CorruptHeader,
    InvalidInput,
    OffsetOutOfBounds,
    VersionMismatch,
)
from .granularity import GRANULARITIES, METHODS, QuantizedTensor, group_count
from .metrics import MEMORY_MODEL
from .packing import PackedCodes
from .pwlq import PIECES, PWLQ, PWLQ_KIND
from .pwlq import RECORD as PWLQ_RECORD
from .tensor_store import NUMPY_DTYPES, TensorShape, staging_file
from .uniform import AFFINE, KIND_BY_SCHEME, SYMMETRIC_FULL, check_bits
from .uniform import RECORD as UNIFORM_RECORD

FORMAT_VERSION = "qnt/1"

# On-disk twins of the in-memory records (convquant.uniform.RECORD and
# convquant.pwlq.RECORD): the same fields, narrowed to binary16 and int16.
_UNIFORM_DISK = np.dtype([("kind", "u1"), ("bits", "u1"), ("scale", "<f2"),
                          ("zero_point", "<i2"), ("beta", "<f2"), ("alpha", "<f2")])
_PWLQ_DISK = np.dtype([("kind", "u1"), ("bits", "u1"), ("m", "<f2"), ("p", "<f2"),
                       *((piece, _UNIFORM_DISK) for piece in PIECES)])
_CENTER_OFFSET = _PWLQ_DISK.fields["center"][1]


def _invalid_uniform(records: np.ndarray, kinds, bits: int) -> np.ndarray:
    kind = records["kind"]
    scale, beta, alpha = records["scale"], records["beta"], records["alpha"]
    bad = (records["bits"] != bits) | ~(scale > 0) | ~np.isfinite(scale)
    bad |= (kind != KIND_BY_SCHEME[AFFINE]) & (records["zero_point"] != 0)
    bad |= ~(beta <= alpha) | ~np.isfinite(beta) | ~np.isfinite(alpha)
    unknown = kind != kinds[0]
    for known in kinds[1:]:
        unknown &= kind != known
    return bad | unknown


def _invalid_groups(records: np.ndarray, method: str, bits: int) -> np.ndarray:
    """Mask of the groups whose record decode cannot use.

    Valid records have a known kind, the tensor's bit width (k - 1 for the
    tails of a piecewise record), finite positive scales, zero-point 0 for
    symmetric kinds, and finite, ordered clip bounds and breakpoints; a
    piecewise tensor's centers have zero-point 0 and its tails one scale.
    """
    if method != PWLQ:
        return _invalid_uniform(records, (KIND_BY_SCHEME[method], KIND_BY_SCHEME[AFFINE]),
                                bits)
    piecewise = records["kind"] == PWLQ_KIND
    affine, full = KIND_BY_SCHEME[AFFINE], KIND_BY_SCHEME[SYMMETRIC_FULL]
    center, neg, pos = records["center"], records["neg_tail"], records["pos_tail"]
    bad = ((center["kind"] != np.where(piecewise, full, affine)) | (center["zero_point"] != 0)
           | _invalid_uniform(center, (affine, full), bits))
    head = ((records["bits"] != bits) | ~np.isfinite(records["m"])
            | ~np.isfinite(records["p"]) | (neg["scale"] != pos["scale"]))
    for tail in (neg, pos):
        head |= _invalid_uniform(tail, (affine,), bits - 1)
    return bad | (piecewise & head)


def _pack_params(q: QuantizedTensor) -> np.ndarray:
    """The params section: one record per group, in group order.

    A pwlq tensor's degenerate groups take a 10-byte uniform record (their
    ``center``) instead of the 36-byte piecewise one. A record that does not
    survive the narrowing to binary16 and int16 (a value overflows, a scale
    rounds to zero) raises InvalidInput naming the tensor and the group,
    before anything is written.
    """
    pwlq = q.method == PWLQ
    with np.errstate(over="ignore", invalid="ignore"):
        disk = q.params.astype(_PWLQ_DISK if pwlq else _UNIFORM_DISK)
    back = disk.astype(q.params.dtype)
    pieces = [(back[p], q.params[p]) for p in PIECES] if pwlq else [(back, q.params)]
    bad = _invalid_groups(back, q.method, q.bits)
    for narrowed, wide in pieces:
        bad |= narrowed["zero_point"] != wide["zero_point"]
    if bad.any():
        g = int(np.flatnonzero(bad)[0])
        raise InvalidInput(f"{q.name}: group {g}: parameters do not fit the 16-bit "
                           f"fields of {FORMAT_VERSION} (a value overflows or a "
                           f"scale rounds to zero)")
    if not pwlq:
        return disk
    piecewise = q.params["kind"] == PWLQ_KIND
    rows = disk.view(np.uint8).reshape(q.group_count, _PWLQ_DISK.itemsize)
    if piecewise.all():
        return rows
    keep = np.repeat(piecewise[:, None], _PWLQ_DISK.itemsize, axis=1)
    keep[:, _CENTER_OFFSET:_CENTER_OFFSET + _UNIFORM_DISK.itemsize] = True
    return rows[keep]


def _record_starts(buf: bytes, group_count: int) -> np.ndarray:
    """Offsets of a pwlq params section's records, which vary in size."""
    if len(buf) == group_count * _PWLQ_DISK.itemsize:
        return np.arange(group_count) * _PWLQ_DISK.itemsize
    starts = np.empty(group_count, dtype=np.int64)
    offset = 0
    for g in range(group_count):
        if offset >= len(buf):
            raise CorruptHeader("fewer parameter records than groups")
        starts[g] = offset
        offset += (_PWLQ_DISK if buf[offset] == PWLQ_KIND else _UNIFORM_DISK).itemsize
    if offset != len(buf):
        raise CorruptHeader("parameter records do not tile the params section")
    return starts


def _unpack_params(name: str, buf: bytes, group_count: int, method: str,
                   bits: int) -> np.ndarray:
    """Parse a params section into in-memory records; CorruptHeader unless
    every record is valid."""
    raw = np.frombuffer(buf, dtype=np.uint8)
    if method != PWLQ:
        if len(buf) != group_count * _UNIFORM_DISK.itemsize:
            raise CorruptHeader(f"{name}: params section is {len(buf)} bytes "
                                f"for {group_count} records")
        records = raw.view(_UNIFORM_DISK).astype(UNIFORM_RECORD)
    else:
        starts = _record_starts(buf, group_count)
        piecewise = raw[starts] == PWLQ_KIND
        records = np.zeros(group_count, PWLQ_RECORD)
        for rows, disk, target in ((piecewise, _PWLQ_DISK, records),
                                   (~piecewise, _UNIFORM_DISK, records["center"])):
            chunk = raw[starts[rows][:, None] + np.arange(disk.itemsize)]
            target[rows] = chunk.view(disk).ravel().astype(target.dtype)
        records["kind"][~piecewise] = records["center"]["kind"][~piecewise]
        records["bits"][~piecewise] = bits
    bad = np.flatnonzero(_invalid_groups(records, method, bits))
    if bad.size:
        raise CorruptHeader(f"{name}: group {bad[0]}: invalid parameter record")
    return records


def _sections(q: QuantizedTensor) -> dict:
    """A tensor's payload sections, in write order, as buffers not copied."""
    if q.passthrough:
        return {"raw": np.asarray(q.values).astype(NUMPY_DTYPES[q.source_bits], copy=False)}
    sections = {"params": _pack_params(q), "codes": q.codes.data}
    if q.method == PWLQ:
        sections["regions"] = q.region_bits
    return sections


def write_container(tensors: Iterable[QuantizedTensor], path) -> None:
    """Serialize quantized tensors, taken one at a time from any iterable;
    identical inputs give identical bytes.

    Sections are spooled to an unnamed temporary file as each tensor
    arrives, and copied after the header once every offset is known. The
    finished file is read back in full before it replaces ``path``, so a
    failure leaves an earlier file at ``path`` as it was.
    """
    out = Path(path)
    tmp = staging_file(out)
    records = []
    try:
        with tempfile.TemporaryFile(dir=out.parent) as spool:
            for q in tensors:
                check_bits(q.bits, q.method == PWLQ, InvalidInput, q.name)
                sections = {name: [spool.tell(), spool.write(data)]
                            for name, data in _sections(q).items()}
                records.append({
                    "name": q.name,
                    "shape": list(q.shape.dims),
                    "method": q.method,
                    "scheme": q.scheme,
                    "bits": q.bits,
                    "group_count": q.group_count,
                    "passthrough": q.passthrough,
                    "source_bits": q.source_bits,
                    "sections": sections,
                })
                del q   # not held while the next tensor is made

            header = {
                "format": FORMAT_VERSION,
                "memory_model": MEMORY_MODEL,
                "payload_size": spool.tell(),
                "tensors": records,
            }
            header_bytes = json.dumps(header, separators=(",", ":"),
                                      sort_keys=True).encode("utf-8")
            with open(tmp, "wb") as fh:
                fh.write(f"{FORMAT_VERSION} {len(header_bytes)}\n".encode("ascii"))
                fh.write(header_bytes)
                spool.seek(0)
                shutil.copyfileobj(spool, fh)
        with open_container(tmp) as written:
            for q in written:
                del q   # read back, one tensor at a time
        os.replace(tmp, out)
    finally:
        tmp.unlink(missing_ok=True)


def _section(sections: dict, name: str, payload_size: int, claimed: list, tensor: str,
             expected: int | None = None) -> tuple[int, int]:
    entry = sections.get(name)
    if (not isinstance(entry, list) or len(entry) != 2
            or not all(isinstance(v, int) and v >= 0 for v in entry)):
        raise CorruptHeader(f"malformed section entry {name!r}: {entry!r}")
    off, length = entry
    if off + length > payload_size:
        raise OffsetOutOfBounds(
            f"section {name!r} [{off}, {off + length}) past payload end {payload_size}")
    if expected is not None and length != expected:
        raise CorruptHeader(f"{tensor}: {name} section is {length} bytes, "
                            f"expected {expected}")
    claimed.append((off, off + length, name))
    return off, length


@contextmanager
def open_container(path):
    """Open a container for reading, one tensor at a time.

    Yields the tensors. The header is parsed and every record and section
    bound in it checked before this returns; iterating then reads each
    tensor, in header order, from the one open file: its params checked and
    parsed, its codes and region bits packed (see
    :class:`convquant.granularity.QuantizedTensor`). The file closes when
    the block exits.
    """
    with open(path, "rb") as fh:
        records, payload_start = _read_header(fh)

        def read(span: tuple[int, int]) -> bytes:
            fh.seek(payload_start + span[0])
            data = fh.read(span[1])
            if len(data) != span[1]:
                raise CorruptHeader("container cut short while it was read")
            return data

        yield (_read_tensor(*record, read) for record in records)


def _read_header(fh) -> tuple[list, int]:
    """The checked tensor records and the payload's offset."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(64)
    newline = head.find(b"\n")
    if newline < 0:
        raise CorruptHeader("missing prelude line")
    try:
        version, header_len_text = head[:newline].decode("ascii").split(" ")
        header_len = int(header_len_text)
    except (UnicodeDecodeError, ValueError) as exc:
        raise CorruptHeader(f"malformed prelude: {head[:newline]!r}") from exc
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"container version {version!r}, expected {FORMAT_VERSION!r}")

    header_start = newline + 1
    if header_len < 0 or header_start + header_len > size:
        raise CorruptHeader("declared header length past end of file")
    fh.seek(header_start)
    try:
        header = json.loads(fh.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptHeader(f"header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_VERSION:
        raise CorruptHeader("header format field missing or wrong")

    payload_start = header_start + header_len
    payload_size = size - payload_start
    if header.get("payload_size") != payload_size:
        raise CorruptHeader(
            f"payload is {payload_size} bytes, header declares {header.get('payload_size')}")

    if header.get("memory_model") != MEMORY_MODEL:
        raise CorruptHeader(f"memory_model must be {MEMORY_MODEL}")

    raw_records = header.get("tensors")
    if not isinstance(raw_records, list):
        raise CorruptHeader("header 'tensors' must be a list")

    claimed: list[tuple[int, int, str]] = []
    records = [_check_record(record, payload_size, claimed) for record in raw_records]
    claimed.sort()
    for (_, prev_end, prev_name), (start, _, name) in zip(claimed, claimed[1:]):
        if start < prev_end:
            raise OffsetOutOfBounds(f"sections {prev_name!r} and {name!r} overlap")
    return records, payload_start


def _check_record(record, payload_size: int, claimed: list) -> tuple[QuantizedTensor, dict]:
    """A header record as a QuantizedTensor without its arrays, and its
    section spans, each span's length checked against what the tensor needs."""
    if not isinstance(record, dict):
        raise CorruptHeader(f"tensor record must be an object, got {record!r}")
    try:
        name = record["name"]
        shape_raw = record["shape"]
        method = record["method"]
        scheme = record["scheme"]
        bits = record["bits"]
        groups = record["group_count"]
        passthrough = record["passthrough"]
        source_bits = record["source_bits"]
        sections = record["sections"]
    except KeyError as exc:
        raise CorruptHeader(f"tensor record missing key {exc}") from exc
    if not isinstance(name, str):
        raise CorruptHeader(f"tensor name must be a string, got {name!r}")
    if method not in METHODS or scheme not in GRANULARITIES:
        raise CorruptHeader(f"{name}: unknown method/scheme {method!r}/{scheme!r}")
    if (not isinstance(shape_raw, list) or len(shape_raw) != 4
            or not all(isinstance(d, int) and d >= 1 for d in shape_raw)):
        raise CorruptHeader(f"{name}: malformed shape {shape_raw!r}")
    check_bits(bits, method == PWLQ, CorruptHeader, name)
    if not isinstance(groups, int) or groups < 0:
        raise CorruptHeader(f"{name}: bad group count {groups!r}")
    if not isinstance(source_bits, int) or source_bits not in NUMPY_DTYPES:
        raise CorruptHeader(f"{name}: bad source precision {source_bits!r}")
    if not isinstance(sections, dict):
        raise CorruptHeader(f"{name}: sections must be an object")
    q = QuantizedTensor(name=name, shape=TensorShape(*shape_raw), method=method, bits=bits,
                        scheme=scheme, passthrough=bool(passthrough), source_bits=source_bits)
    count = q.element_count

    def span(section: str, expected: int | None = None) -> tuple[int, int]:
        return _section(sections, section, payload_size, claimed, name, expected)

    if passthrough:
        return q, {"raw": span("raw", count * NUMPY_DTYPES[source_bits].itemsize)}
    if groups != group_count(q.shape, scheme):
        raise CorruptHeader(f"{name}: {groups} groups for a {scheme} "
                            f"{q.shape.dims} tensor")
    spans = {"params": span("params"), "codes": span("codes", -(-count * bits // 8))}
    if method == PWLQ:
        spans["regions"] = span("regions", -(-count // 8))
    return q, spans


def _read_tensor(q: QuantizedTensor, spans: dict, read) -> QuantizedTensor:
    """Read one checked record's sections; ``read(span)`` returns a
    section's bytes."""
    if q.passthrough:
        values = np.frombuffer(read(spans["raw"]), NUMPY_DTYPES[q.source_bits])
        return replace(q, values=values.copy())
    params = _unpack_params(q.name, read(spans["params"]), group_count(q.shape, q.scheme),
                            q.method, q.bits)
    codes = PackedCodes(q.bits, q.element_count, read(spans["codes"]))
    region_bits = read(spans["regions"]) if "regions" in spans else None
    return replace(q, params=params, codes=codes, region_bits=region_bits)
