#!/usr/bin/env python3
"""Seeded end-to-end benchmark of convquant's ``quantize`` and ``dequantize``.

    python3 bench/run.py --workload affine-fshape --seed 1 --seconds 10 --trace 0

Builds a synthetic model from the seed (models.py), then repeats rounds of
one ``convquant quantize`` (container + report) followed by one ``convquant
dequantize`` of that container, each a fresh CLI process at the default
``--workers 1``: a closed loop with one client. Rounds repeat until
``--seconds`` have passed and at least ``MIN_CONTAINERS`` containers exist.
Every round's outputs pass checks (a)-(f) of checks.py.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
medians over rounds. With ``--trace 1`` each round also repeats both
commands traced (launch.py --trace), and the line carries the per-layer
metrics, medians over rounds, plus the tracing overhead against the untraced
commands of the same round. Per-round figures go to ``bench/results/``.
Exits 1, printing no result, when a command fails or a check does not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import models

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"
WORK = BENCH / "work"

MIN_CONTAINERS = 2      # check (f) compares the containers of two quantize runs
TINY_WIDTH = 0.375      # YOLOv7-tiny width scale for pwlq-auto3
V7_WIDTH = 0.5          # YOLOv7 width scale for affine-fshape
RATIO_MIN, RATIO_MAX = 0.05, 0.95   # clamp bounds of convquant's closed-form p/m
RATIO_RTOL = 2.0 ** -10             # p and m are stored as f16

WORKLOADS = {
    "affine-fshape": (lambda: models.width_scaled(models.yolov7_convs(), V7_WIDTH),
                      ["--method", "affine", "--granularity", "fshape", "--bits", "4"]),
    "pwlq-auto3": (lambda: models.width_scaled(models.yolov7_tiny_convs(), TINY_WIDTH),
                   ["--method", "pwlq", "--granularity", "auto3", "--bits", "4"]),
    "pwlq-bruteforce": (lambda: models.BRUTEFORCE_CONVS,
                        ["--method", "pwlq", "--granularity", "filter",
                         "--breakpoint", "bruteforce", "--bits", "4"]),
}

# (stage, traced function); None marks the stage timed as the command's remainder.
QUANTIZE_STAGES = [("load", "tensor_store.load_manifest"), ("encode", None),
                   ("write", "container.write_container"),
                   ("verify", "container.read_container"), ("report", "cli._write_report")]
DEQUANTIZE_STAGES = [("read", "container.read_container"), ("decode", None),
                     ("save", "tensor_store.save_manifest"),
                     ("verify", "tensor_store.load_manifest")]


class CommandFailed(Exception):
    """A CLI process exited with a non-zero code."""


def _spawn(cmd, log_path, command: str) -> float:
    """Run ``cmd`` to completion; returns its wall time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        code = subprocess.run(cmd, stdout=log, stderr=log, env=env).returncode
        wall = time.perf_counter() - start
    if code != 0:
        tail = Path(log_path).read_text(errors="replace")[-2000:]
        raise CommandFailed(f"{command} exited {code}:\n{tail}")
    return wall


def cold_start_s(log_path) -> float:
    """Wall time of one cold CLI process that only imports and parses arguments."""
    return _spawn([sys.executable, "-m", "convquant.cli", "--version"], log_path,
                  "convquant --version")


def run_cli(argv, log_path, trace: bool = False) -> dict:
    """Run one convquant command in a fresh process through launch.py.

    Returns launch.py's record (peak RSS, and the trace summary when traced)
    plus ``wall_s``.
    """
    out = Path(log_path).with_name("launch.json")
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "launch.py"), str(out),
           *(["--trace"] if trace else []), *argv]
    wall = _spawn(cmd, log_path, argv[0])
    return {"wall_s": wall, **json.loads(out.read_text())}


def run_pair(work: Path, manifest: Path, flags, tag: str, traced: bool) -> dict:
    """One quantize + dequantize; returns timings, check figures and per-layer metrics."""
    container, report = work / f"{tag}.qnt", work / f"{tag}.json"
    out_dir = work / f"{tag}-out"
    for path in (container, report):
        path.unlink(missing_ok=True)
    shutil.rmtree(out_dir, ignore_errors=True)
    log = work / "cli.log"
    quantize = run_cli(["quantize", "--manifest", str(manifest), *flags, "--out",
                        str(container), "--report", str(report)], log, traced)
    dequantize = run_cli(["dequantize", str(container), str(out_dir / "model.json")],
                         log, traced)
    pair = {"quantize_s": quantize["wall_s"],
            "quantize_peak_rss_mb": quantize["peak_rss_mb"],
            "dequantize_s": dequantize["wall_s"],
            "dequantize_peak_rss_mb": dequantize["peak_rss_mb"]}
    pair.update(checks.check_round(manifest, container, report, out_dir / "model.json"))
    if traced:
        pair["layers"] = layer_metrics(quantize, dequantize, checks.Container(container))
    return pair


def _no_calls() -> dict:
    return {"calls": 0, "s": 0.0, "self_s": 0.0, "inside": {}, "classes": {}}


def _merged_functions(*summaries) -> dict:
    """Per-function totals of several traced commands, summed."""
    merged = {}
    for summary in summaries:
        for name, entry in summary["functions"].items():
            total = merged.setdefault(name, _no_calls())
            for key in ("calls", "s", "self_s"):
                total[key] += entry[key]
            for parent, calls in entry["inside"].items():
                total["inside"][parent] = total["inside"].get(parent, 0) + calls
            for kclass, figures in entry["classes"].items():
                per_class = total["classes"].setdefault(kclass, {"calls": 0, "s": 0.0,
                                                                 "groups": 0})
                for key in figures:
                    per_class[key] += figures[key]
    return merged


def stage_metrics(summary: dict, command: str, stages) -> dict:
    """Stage times and the peak RSS reached by the end of each stage."""
    spans = {s["name"]: s for s in summary["stages"] if s["parent"] == f"cli.cmd_{command}"}
    root = next((s for s in summary["stages"] if s["name"] == f"cli.cmd_{command}"), None)
    if root is None:    # command not traced: every stage reads 0
        return {f"cli.{command}.{stage}{suffix}": 0.0
                for stage, _ in stages for suffix in ("_s", ".rss_hwm_mb")}
    out = {}
    named = sum(spans[f]["end"] - spans[f]["start"] for _, f in stages if f in spans)
    hwm = root["rss_start_mb"]
    for i, (stage, function) in enumerate(stages):
        prefix = f"cli.{command}.{stage}"
        if function is None:
            out[f"{prefix}_s"] = root["end"] - root["start"] - named
            following = [spans[f] for _, f in stages[i + 1:] if f in spans]
            hwm = following[0]["rss_start_mb"] if following else root["rss_end_mb"]
        elif function in spans:
            out[f"{prefix}_s"] = spans[function]["end"] - spans[function]["start"]
            hwm = spans[function]["rss_end_mb"]
        else:
            out[f"{prefix}_s"] = 0.0
        out[f"{prefix}.rss_hwm_mb"] = hwm
    return out


def layer_metrics(q_summary: dict, d_summary: dict, container: checks.Container) -> dict:
    """Per-layer metrics of one traced quantize + dequantize."""
    fns = _merged_functions(q_summary, d_summary)

    def fn(name):
        return fns.get(name) or _no_calls()

    out = {}
    out.update(stage_metrics(q_summary, "quantize", QUANTIZE_STAGES))
    out.update(stage_metrics(d_summary, "dequantize", DEQUANTIZE_STAGES))
    for layer, names in (("tensor_store", ("load_manifest", "save_manifest")),
                         ("container", ("write_container", "read_container")),
                         ("pwlq", ("fold_regions", "unfold_regions", "breakpoint_bruteforce"))):
        for name in names:
            out[f"{layer}.{name}_s"] = fn(f"{layer}.{name}")["s"]
    for layer, names in (("uniform", ("quantize_slice", "dequantize_slice")),
                         ("pwlq", ("pwlq_quantize", "pwlq_dequantize")),
                         ("metrics", ("quant_error",)),
                         ("packing", ("pack_codes", "unpack_codes"))):
        for name in names:
            out[f"{layer}.{name}_s"] = fn(f"{layer}.{name}")["s"]
            out[f"{layer}.{name}_calls"] = fn(f"{layer}.{name}")["calls"]
    for name in ("quantize_tensor", "dequantize_tensor"):
        entry = fn(f"granularity.{name}")
        out[f"granularity.{name}_s"] = entry["s"]
        out[f"granularity.{name}_calls"] = entry["calls"]
        for kclass in ("k3x3", "k1x1"):
            figures = entry["classes"].get(kclass, {"calls": 0, "s": 0.0})
            out[f"granularity.{name}_s.{kclass}"] = figures["s"]
            out[f"granularity.{name}_calls.{kclass}"] = figures["calls"]
    quantized = fn("granularity.quantize_tensor")["classes"]
    out["granularity.groups_quantized"] = sum(c["groups"] for c in quantized.values())
    for kclass in ("k3x3", "k1x1"):
        out[f"granularity.groups_quantized.{kclass}"] = quantized.get(kclass, {}).get("groups", 0)
    out["pwlq.bruteforce_candidates"] = \
        fn("pwlq.pwlq_quantize")["inside"].get("pwlq.breakpoint_bruteforce", 0)
    selected = fn("metrics.select_granularity")["calls"]
    candidates = fn("granularity.quantize_tensor")["inside"].get("metrics.select_granularity", 0)
    out["metrics.select_granularity_s"] = fn("metrics.select_granularity")["s"]
    out["metrics.candidates_quantized"] = candidates
    out["metrics.selection_kept_ratio"] = selected / candidates if candidates else 0.0
    for layer in ("cli", "tensor_store", "granularity", "uniform", "pwlq", "metrics",
                  "packing", "container"):
        out[f"{layer}.self_s"] = sum(entry["self_s"] for name, entry in fns.items()
                                     if name.startswith(f"{layer}."))
    out.update(container_metrics(container))
    return out


def container_metrics(container: checks.Container) -> dict:
    """Section bytes and clamped breakpoints, read from the container itself."""
    out = {f"container.{s}_bytes": 0 for s in ("params", "codes", "regions", "raw")}
    out["container.header_bytes"] = container.prelude_bytes + container.header_bytes
    mm = container.header["memory_model"]
    charge = {"pwlq": mm["param_bytes_pwlq"], "affine": mm["param_bytes_affine"]}
    modeled = clamped = 0
    for record in container.records:
        for section, (_, length) in record["sections"].items():
            out[f"container.{section}_bytes"] += length
        if record["passthrough"]:
            continue
        modeled += record["group_count"] * charge.get(record["method"],
                                                      mm["param_bytes_symmetric"])
        _, ratios = checks.parse_params(container.section(record, "params"))
        for ratio in ratios:
            clamped += any(abs(ratio / bound - 1.0) <= RATIO_RTOL
                           for bound in (RATIO_MIN, RATIO_MAX))
    out["container.params_bytes_modeled"] = modeled
    out["pwlq.ratio_clamped_groups"] = clamped
    return out


LAYER_UNITS = (("_calls", "count"), ("_bytes", "bytes"), ("_modeled", "bytes"),
               ("rss_hwm_mb", "MB"), ("_ratio", "ratio"), ("_overhead", "ratio"),
               ("_s", "s"))
E2E_UNITS = {"setup_s": "s", "quantize_s": "s", "quantize_peak_rss_mb": "MB",
             "dequantize_s": "s", "dequantize_peak_rss_mb": "MB",
             "container_bytes": "bytes", "modeled_saving": "x", "roundtrip_mse": "1"}


def layer_unit(name: str) -> str:
    base = name.rsplit(".", 1)[0] if name.endswith((".k3x3", ".k1x1")) else name
    return next((unit for suffix, unit in LAYER_UNITS if base.endswith(suffix)), "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "convquant" / "cli.py").is_file():
        print(f"error: no convquant sources at {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    per_round = 2 if args.trace else 1
    rounds = []
    try:
        setup_s = cold_start_s(work / "cli.log")
        convs, flags = WORKLOADS[args.workload]
        manifest = models.write_model(convs(), args.seed, work / "model")
        start = time.perf_counter()
        while (len(rounds) * per_round < MIN_CONTAINERS
               or time.perf_counter() - start < args.seconds):
            pairs = {"plain": run_pair(work, manifest, flags, "plain", traced=False)}
            if args.trace:
                pairs["traced"] = run_pair(work, manifest, flags, "traced", traced=True)
            rounds.append(pairs)
        checks.check_repeatable([p["sha256"] for r in rounds for p in r.values()])
    except (CommandFailed, checks.CheckFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r["plain"] for r in rounds]
    if args.trace:
        layers = [r["traced"]["layers"] for r in rounds]
        values = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
        for command in ("quantize", "dequantize"):
            values[f"trace.{command}_overhead"] = statistics.median(
                r["traced"][f"{command}_s"] / r["plain"][f"{command}_s"] for r in rounds)
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    else:
        values = {name: statistics.median(p[name] for p in plain)
                  for name in E2E_UNITS if name != "setup_s"}
        values["setup_s"] = setup_s
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}

    attempted = 2 * len(plain) * per_round
    result = {"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
                    "rounds": rounds, "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
