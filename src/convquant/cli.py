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
import csv
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .container import read_container, write_container
from .errors import IncompatibleBits, InvalidRange, QuantError
from .granularity import (
    C_SHAPE_WISE,
    CHANNEL_WISE,
    F_SHAPE_WISE,
    FILTER_WISE,
    LAYER_WISE,
    dequantize_tensor,
    make_passthrough,
    quantize_tensor,
)
from .metrics import (
    MemoryModel,
    baseline_bytes,
    figure_of_merit,
    memory_bytes,
    memory_saving_ratio,
    select_granularity,
)
from .pwlq import PWLQ
from .tensor_store import ModelWeights, load_manifest, save_manifest
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


def _memory_model(args) -> MemoryModel:
    return MemoryModel(
        baseline_bits_per_element=args.baseline_bits,
        param_bytes_affine=args.param_bytes_affine,
        param_bytes_symmetric=args.param_bytes_symmetric,
        param_bytes_pwlq=args.param_bytes_pwlq,
        charge_region_bits=args.charge_region_bits,
    )


def _quantize_one(tensor, excluded, method, bits, granularity, breakpoint_mode,
                  grid_points):
    """Returns (QuantizedTensor, excluded flag). The tensor carries the error
    measured while quantizing, so no tensor is decoded again here."""
    if tensor.name in excluded:
        return make_passthrough(tensor, LAYER_WISE, method, bits), True
    if granularity in AUTO_CANDIDATES:
        _, q = select_granularity(tensor, AUTO_CANDIDATES[granularity], method,
                                  bits, breakpoint_mode=breakpoint_mode,
                                  grid_points=grid_points)
    else:
        q = quantize_tensor(tensor, GRANULARITY_FLAGS[granularity], method, bits,
                            breakpoint_mode=breakpoint_mode, grid_points=grid_points)
    return q, False


def _quantize_model(model: ModelWeights, method: str, bits: int, granularity: str,
                    breakpoint_mode: str, grid_points: int):
    """Quantize every tensor, in manifest order."""
    return [_quantize_one(t, model.excluded, method, bits, granularity,
                          breakpoint_mode, grid_points) for t in model.tensors]


def _totals(results, mm: MemoryModel) -> dict:
    quantized = [q for q, _ in results]
    codes_only = mm.with_region_bits(False)
    physical = mm.with_region_bits(True)
    element_count = sum(q.element_count for q in quantized)
    sse = sum(q.error.mse * q.error.element_count for q in quantized)
    return {
        "element_count": element_count,
        "baseline_bytes": sum(baseline_bytes(q, mm) for q in quantized),
        "bytes": sum(memory_bytes(q, codes_only) for q in quantized),
        "bytes_with_region_bits": sum(memory_bytes(q, physical) for q in quantized),
        "memory_saving": memory_saving_ratio(quantized, codes_only),
        "memory_saving_with_region_bits": memory_saving_ratio(quantized, physical),
        "mse": sse / element_count if element_count else 0.0,
    }


def _write_report(path, args, results, mm) -> None:
    tensors = []
    for q, was_excluded in results:
        tensors.append({
            "name": q.name,
            "shape": list(q.shape.dims),
            "excluded": was_excluded,
            "passthrough": q.passthrough,
            "scheme": q.scheme,
            "method": q.method,
            "bits": q.bits,
            "mse": q.error.mse,
            "max_abs": q.error.max_abs,
            "bytes": memory_bytes(q, mm),
            "baseline_bytes": baseline_bytes(q, mm),
        })
    doc = {
        "tool": {"name": "convquant", "version": __version__},
        "config": {
            "manifest": str(args.manifest),
            "method": args.method,
            "bits": args.bits,
            "granularity": args.granularity,
            "breakpoint": args.breakpoint,
            "memory_model": asdict(mm),
        },
        "tensors": tensors,
        "totals": _totals(results, mm),
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", "utf-8")


def _cleanup(paths) -> None:
    for p in paths:
        if p is not None:
            Path(p).unlink(missing_ok=True)


def cmd_quantize(args) -> int:
    written = []
    try:
        model = load_manifest(args.manifest, extra_exclude=args.exclude)
        mm = _memory_model(args)
        results = _quantize_model(model, METHOD_FLAGS[args.method], args.bits,
                                  args.granularity, args.breakpoint,
                                  args.grid_points)
        write_container([q for q, _ in results], mm, args.out)
        written.append(args.out)
        read_container(args.out)  # exit 0 only once the output verifies readable
        if args.report:
            written.append(args.report)
            _write_report(args.report, args, results, mm)
            json.loads(Path(args.report).read_text("utf-8"))
        totals = _totals(results, mm)
        print(f"quantized {len(results)} tensors: "
              f"saving {totals['memory_saving']:.4f}x "
              f"({totals['memory_saving_with_region_bits']:.4f}x with region bits), "
              f"mse {totals['mse']:.3e}")
        return 0
    except (QuantError, OSError) as exc:
        _cleanup(written)
        print(f"error: {exc}", file=sys.stderr)
        return 1


def cmd_dequantize(args) -> int:
    created = []
    try:
        tensors, _ = read_container(args.container)
        model = ModelWeights([dequantize_tensor(q) for q in tensors])
        count = len(model.tensors)
        del tensors  # free the codes before the export is written
        created = save_manifest(model, args.out_manifest)
        del model  # and the decoded weights before it is read back
        load_manifest(args.out_manifest)  # verify the export reads back
        print(f"wrote {count} tensors to {args.out_manifest}")
        return 0
    except (QuantError, OSError) as exc:
        _cleanup(created)
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


def _load_loss_file(path) -> dict[int, float]:
    try:
        doc = json.loads(Path(path).read_text("utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("top level must be an object")
        losses = {}
        for key, loss in doc.items():
            if (isinstance(loss, bool) or not isinstance(loss, (int, float))
                    or not math.isfinite(loss)):
                raise ValueError(f"loss for {key!r} is {loss!r}, not a finite number")
            losses[int(key)] = float(loss)
        return losses
    except (ValueError, OverflowError) as exc:
        raise InvalidRange(f"loss file must map bit widths to accuracy "
                           f"loss percentages: {exc}") from exc


def cmd_sweep(args) -> int:
    written = []
    try:
        bit_range = _parse_bits_range(args.bits, args.method)
        losses = _load_loss_file(args.loss_file) if args.loss_file else {}
        model = load_manifest(args.manifest, extra_exclude=args.exclude)
        mm = _memory_model(args)

        rows = []
        for bits in bit_range:
            results = _quantize_model(model, METHOD_FLAGS[args.method], bits,
                                      args.granularity, args.breakpoint,
                                      args.grid_points)
            totals = _totals(results, mm)
            fom = ""
            if bits in losses:
                fom = figure_of_merit(totals["memory_saving"], losses[bits])
            rows.append([bits, totals["mse"], totals["memory_saving"],
                         totals["memory_saving_with_region_bits"], fom])

        header = ["bits", "total_mse", "memory_saving",
                  "memory_saving_with_region_bits", "figure_of_merit"]
        if args.out:
            written.append(args.out)
            with open(args.out, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
        else:
            writer = csv.writer(sys.stdout)
            writer.writerow(header)
            writer.writerows(rows)
        return 0
    except (QuantError, OSError) as exc:
        _cleanup(written)
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _add_common_flags(sub) -> None:
    sub.add_argument("--manifest", required=True, help="path to the weights manifest")
    sub.add_argument("--method", choices=sorted(METHOD_FLAGS), default="affine")
    sub.add_argument("--granularity",
                     choices=sorted(GRANULARITY_FLAGS) + sorted(AUTO_CANDIDATES),
                     default="fshape")
    sub.add_argument("--breakpoint", choices=("approx", "bruteforce"),
                     default="approx", help="breakpoint selection for pwlq")
    sub.add_argument("--grid-points", type=int, default=64,
                     help="grid size for --breakpoint bruteforce")
    sub.add_argument("--exclude", action="append", default=[], metavar="GLOB",
                     help="extra exclusion pattern (repeatable)")
    sub.add_argument("--baseline-bits", type=int, default=16,
                     help="bits per element of the unquantized baseline")
    sub.add_argument("--param-bytes-affine", type=int, default=4)
    sub.add_argument("--param-bytes-symmetric", type=int, default=2)
    sub.add_argument("--param-bytes-pwlq", type=int, default=10)
    sub.add_argument("--charge-region-bits", action="store_true",
                     help="charge pwlq region bits in the memory model")


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
