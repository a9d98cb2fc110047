"""Command-line interface.

Three subcommands:

* ``quantize``: manifest in, container + JSON report out.
* ``dequantize``: container in, reconstructed manifest + raw binaries out.
* ``sweep``: quantize at a range of bit widths and emit a CSV of total MSE,
  memory-saving ratios and (given a loss file) the figure of merit.

Granularity ``auto`` picks the lowest-error scheme per tensor among
filter/channel/f-shape/c-shape; ``auto3`` drops channel-wise, which wrecks
the memory ratio on 1x1-kernel layers.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .container import open_container, write_container
from .errors import IncompatibleBits, InvalidInput, InvalidRange, QuantError
from .granularity import (
    BREAKPOINT_MODES,
    C_SHAPE_WISE,
    CHANNEL_WISE,
    F_SHAPE_WISE,
    FILTER_WISE,
    LAYER_WISE,
    decode_blocks,
    make_passthrough,
    quantize_tensor,
)
from .metrics import (
    MEMORY_MODEL,
    baseline_bytes,
    figure_of_merit,
    memory_bytes,
    select_granularity,
)
from .pwlq import DEFAULT_GRID_POINTS, PWLQ
from .tensor_store import (
    NUMPY_DTYPES,
    TensorBlocks,
    check_manifest,
    export_manifest,
    iter_manifest,
    staging_file,
)
from .uniform import AFFINE, SYMMETRIC_FULL, SYMMETRIC_RESTRICTED, check_bits

METHOD_FLAGS = {
    "affine": AFFINE,
    "sym-restricted": SYMMETRIC_RESTRICTED,
    "sym-full": SYMMETRIC_FULL,
    "pwlq": PWLQ,
}

GRANULARITY_FLAGS = {
    "layer": LAYER_WISE,
    "filter": FILTER_WISE,
    "channel": CHANNEL_WISE,
    "fshape": F_SHAPE_WISE,
    "cshape": C_SHAPE_WISE,
}

AUTO_CANDIDATES = {
    "auto": (FILTER_WISE, CHANNEL_WISE, F_SHAPE_WISE, C_SHAPE_WISE),
    "auto3": (FILTER_WISE, F_SHAPE_WISE, C_SHAPE_WISE),
}


def _quantize_one(tensor, excluded, args, bits):
    """Returns (QuantizedTensor, excluded flag). The tensor carries the error
    measured while quantizing, so no tensor is decoded again here."""
    method = METHOD_FLAGS[args.method]
    if tensor.name in excluded:
        return make_passthrough(tensor, LAYER_WISE, method, bits), True
    if args.granularity in AUTO_CANDIDATES:
        _, q = select_granularity(tensor, AUTO_CANDIDATES[args.granularity], method,
                                  bits, breakpoint_mode=args.breakpoint,
                                  grid_points=args.grid_points)
    else:
        q = quantize_tensor(tensor, GRANULARITY_FLAGS[args.granularity], method, bits,
                            breakpoint_mode=args.breakpoint, grid_points=args.grid_points)
    return q, False


def _summary(q, was_excluded: bool) -> tuple[dict, int, int]:
    """One tensor's report entry, element count, and bytes with region bits
    charged: all that the report and the totals need of it."""
    entry = {
        "name": q.name,
        "shape": list(q.shape.dims),
        "excluded": was_excluded,
        "passthrough": q.passthrough,
        "scheme": q.scheme,
        "method": q.method,
        "bits": q.bits,
        "mse": q.error.mse,
        "max_abs": q.error.max_abs,
        "bytes": memory_bytes(q),
        "baseline_bytes": baseline_bytes(q),
    }
    return entry, q.element_count, memory_bytes(q, region_bits=True)


def _totals(rows) -> dict:
    """Whole-model totals from the summary rows, summed in manifest order."""
    entries, counts, physical = zip(*rows)
    base = sum(entry["baseline_bytes"] for entry in entries)
    codes_only = sum(entry["bytes"] for entry in entries)
    sse = sum(entry["mse"] * count for entry, count in zip(entries, counts))
    return {
        "element_count": sum(counts),
        "baseline_bytes": base,
        "bytes": codes_only,
        "bytes_with_region_bits": sum(physical),
        "memory_saving": base / codes_only,
        "memory_saving_with_region_bits": base / sum(physical),
        "mse": sse / sum(counts),
    }


def _write_report(path, args, rows, totals) -> None:
    doc = {
        "tool": {"name": "convquant", "version": __version__},
        "config": {
            "manifest": str(args.manifest),
            "method": args.method,
            "bits": args.bits,
            "granularity": args.granularity,
            "breakpoint": args.breakpoint,
            "memory_model": MEMORY_MODEL,
        },
        "tensors": [entry for entry, *_ in rows],
        "totals": totals,
    }
    if args.breakpoint == "bruteforce":     # the lattice the search used
        doc["config"]["grid_points"] = args.grid_points
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", "utf-8")


def _check_outputs(inputs: dict, outputs: dict, data_files=frozenset()) -> None:
    """Raise InvalidInput if an output path names an input or another output,
    is an existing directory, or leads to one of the ``data_files``
    (``(st_dev, st_ino)`` pairs) that the manifest lists. ``inputs`` and
    ``outputs`` map an argument to its path, or to None when it is not given."""
    seen = {Path(p).resolve(): arg for arg, p in inputs.items() if p}
    for arg, p in outputs.items():
        if p:
            path = Path(p).resolve()
            if path in seen:
                raise InvalidInput(f"{seen[path]} and {arg} are the same file: {p}")
            if path.is_dir():
                raise InvalidInput(f"{arg} is a directory: {p}")
            seen[path] = arg
            with contextlib.suppress(OSError):
                info = os.stat(p)
                if (info.st_dev, info.st_ino) in data_files:
                    raise InvalidInput(f"{arg} is a data file that --manifest lists: {p}")


def _cleanup(paths) -> None:
    for p in paths:
        Path(p).unlink(missing_ok=True)


def _quantized(tensors, excluded, args, rows):
    """Quantize tensors one at a time, appending each one's summary row."""
    for tensor in tensors:
        q, was_excluded = _quantize_one(tensor, excluded, args, args.bits)
        del tensor      # neither it nor q is held while the next one is read
        rows.append(_summary(q, was_excluded))
        yield q
        del q


def cmd_quantize(args) -> int:
    staged = []     # (staging file, final path)
    try:
        excluded, tensors, data_files = iter_manifest(args.manifest, extra_exclude=args.exclude)
        _check_outputs({"--manifest": args.manifest},
                       {"--report": args.report, "--out": args.out}, data_files)
        # Both outputs are written to staging files first, and moved into
        # place only once both are written, so a failure keeps earlier ones.
        if args.report:
            report_tmp = staging_file(args.report)
            staged.append((report_tmp, args.report))
        out_tmp = staging_file(args.out)
        staged.append((out_tmp, args.out))
        rows = []
        write_container(_quantized(tensors, excluded, args, rows), out_tmp)
        totals = _totals(rows)
        if args.report:
            _write_report(report_tmp, args, rows, totals)
            json.loads(report_tmp.read_text("utf-8"))
        for tmp, path in staged:
            os.replace(tmp, path)
        print(f"quantized {len(rows)} tensors: "
              f"saving {totals['memory_saving']:.4f}x "
              f"({totals['memory_saving_with_region_bits']:.4f}x with region bits), "
              f"mse {totals['mse']:.3e}")
        return 0
    except (QuantError, OSError) as exc:
        _cleanup(tmp for tmp, _ in staged)
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _decoded(q) -> TensorBlocks:
    """A quantized tensor's decode at its source precision, block by block."""
    return TensorBlocks(q.name, q.shape, q.source_bits,
                        decode_blocks(q, NUMPY_DTYPES[q.source_bits]))


def cmd_dequantize(args) -> int:
    created = []
    new_dirs = [d for d in Path(args.out_manifest).parents if not d.exists()]
    try:
        _check_outputs({"container": args.container}, {"out_manifest": args.out_manifest})
        with open_container(args.container) as tensors:
            # map holds no tensor between items
            created = export_manifest(map(_decoded, tensors), args.out_manifest)
        count = check_manifest(args.out_manifest)   # the export reads back, block by block
        print(f"wrote {count} tensors to {args.out_manifest}")
        return 0
    except (QuantError, OSError) as exc:
        _cleanup(created)
        for new_dir in new_dirs:    # deepest first, emptied by the cleanup
            with contextlib.suppress(OSError):
                new_dir.rmdir()
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _parse_bits_range(text: str, method: str) -> range:
    try:
        lo_text, hi_text = text.split(":")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise InvalidRange(f"bits range must look like LO:HI, got {text!r}") from exc
    if lo > hi:
        raise InvalidRange(f"bits range {lo}:{hi} is empty")
    for bits in (lo, hi):
        check_bits(bits, METHOD_FLAGS[method] == PWLQ, InvalidRange, f"bits range {text}")
    return range(lo, hi + 1)


def _load_loss_file(path, bit_range: range) -> dict[int, float]:
    try:
        doc = json.loads(Path(path).read_text("utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("top level must be an object")
        losses = {}
        for key, loss in doc.items():
            if (isinstance(loss, bool) or not isinstance(loss, (int, float))
                    or not math.isfinite(loss) or loss < 0):
                raise ValueError(f"loss for {key!r} is {loss!r}, not a finite number >= 0")
            bits = int(key)
            if bits not in bit_range or bits in losses:
                raise ValueError(f"key {key!r} is outside --bits "
                                 f"{bit_range[0]}:{bit_range[-1]} or repeats a width")
            losses[bits] = float(loss)
        return losses
    except (ValueError, OverflowError) as exc:
        raise InvalidRange(f"loss file {path} must map bit widths to accuracy "
                           f"loss percentages: {exc}") from exc


def cmd_sweep(args) -> int:
    staged = []     # the CSV is written here and moved to --out once whole
    try:
        excluded, tensors, data_files = iter_manifest(args.manifest, extra_exclude=args.exclude)
        _check_outputs({"--manifest": args.manifest, "--loss-file": args.loss_file},
                       {"--out": args.out}, data_files)
        bit_range = _parse_bits_range(args.bits, args.method)
        losses = _load_loss_file(args.loss_file, bit_range) if args.loss_file else {}
        if args.out:
            staged.append(staging_file(args.out))
        summaries = {bits: [] for bits in bit_range}
        for tensor in tensors:   # read each tensor once, for every bit width
            for bits, summary in summaries.items():
                summary.append(_summary(*_quantize_one(tensor, excluded, args, bits)))
            del tensor      # not held while the next one is read

        table = [["bits", "total_mse", "memory_saving",
                  "memory_saving_with_region_bits", "figure_of_merit"]]
        for bits, summary in summaries.items():
            totals = _totals(summary)
            fom = ""
            if bits in losses:
                fom = figure_of_merit(totals["memory_saving"], losses[bits])
            table.append([bits, totals["mse"], totals["memory_saving"],
                          totals["memory_saving_with_region_bits"], fom])

        if not args.out:
            csv.writer(sys.stdout).writerows(table)
            return 0
        with open(staged[0], "w", newline="") as fh:
            csv.writer(fh).writerows(table)
        os.replace(staged[0], args.out)
        return 0
    except (QuantError, OSError) as exc:
        _cleanup(staged)
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _add_common_flags(sub) -> None:
    sub.add_argument("--manifest", required=True, help="path to the weights manifest")
    sub.add_argument("--method", choices=sorted(METHOD_FLAGS), default="affine")
    sub.add_argument("--granularity",
                     choices=sorted(GRANULARITY_FLAGS) + sorted(AUTO_CANDIDATES),
                     default="fshape")
    sub.add_argument("--breakpoint", choices=BREAKPOINT_MODES,
                     default="approx", help="breakpoint selection for pwlq")
    sub.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS,
                     help="lattice size for --breakpoint bruteforce")
    sub.add_argument("--exclude", action="append", default=[], metavar="GLOB",
                     help="extra exclusion pattern (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convquant",
        description="Post-training weight quantization for convolutional models.")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    q = commands.add_parser("quantize", help="quantize a model into a container")
    _add_common_flags(q)
    q.add_argument("--bits", type=int, default=4, help="code bit width (2-8)")
    q.add_argument("--out", required=True, help="output container path")
    q.add_argument("--report", help="optional JSON report path")
    q.set_defaults(func=cmd_quantize)

    d = commands.add_parser("dequantize",
                            help="reconstruct real-valued weights from a container")
    d.add_argument("container", help="input container path")
    d.add_argument("out_manifest", help="output manifest path")
    d.set_defaults(func=cmd_dequantize)

    s = commands.add_parser("sweep", help="sweep bit widths and emit a CSV")
    _add_common_flags(s)
    s.add_argument("--bits", required=True, metavar="LO:HI",
                   help="inclusive bit-width range, e.g. 3:8")
    s.add_argument("--out", help="CSV output path (default: stdout)")
    s.add_argument("--loss-file",
                   help="JSON mapping bit width to measured accuracy loss (pct)")
    s.set_defaults(func=cmd_sweep)
    return parser


def _validate(parser, args) -> None:
    if args.command == "quantize":
        try:
            check_bits(args.bits, METHOD_FLAGS[args.method] == PWLQ)
        except IncompatibleBits as exc:
            parser.error(f"--bits: {exc}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
