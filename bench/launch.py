"""Run one convquant CLI command in this process, optionally traced.

Usage: python3 bench/launch.py OUT.json [--trace] quantize|dequantize [CLI args...]

Calls ``convquant.cli.main`` and writes the process's own peak RSS (VmHWM)
to OUT.json. ``wait4``'s ``ru_maxrss`` cannot give it: Linux carries the
parent's RSS into the child across fork and exec, so a 13.5 MB child of a
process holding 500 MB read 518 MB there.

With ``--trace``, every function in ``TRACED`` is first replaced by a
wrapper under each name that binds it in any convquant module, so calls
through ``from .x import f`` and through module attributes are both seen.
Each call becomes a span (name, start, end, parent) held in memory in flat
arrays; per-group functions make hundreds of thousands of them, so only the
per-function totals and the stage spans go to OUT.json. Stage-level
functions also sample the peak RSS when they start and end.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# Module -> functions traced in it; the per-layer metrics are built on these.
TRACED = {
    "cli": ("cmd_quantize", "cmd_dequantize", "_write_report"),
    "tensor_store": ("load_manifest", "save_manifest"),
    "granularity": ("quantize_tensor", "dequantize_tensor"),
    "uniform": ("quantize_slice", "dequantize_slice"),
    "pwlq": ("pwlq_quantize", "pwlq_dequantize", "fold_regions", "unfold_regions",
             "breakpoint_bruteforce"),
    "metrics": ("quant_error", "select_granularity"),
    "packing": ("pack_codes", "unpack_codes"),
    "container": ("write_container", "read_container"),
}
# Functions whose spans also record peak RSS at start and end.
STAGE_FUNCTIONS = {"cli.cmd_quantize", "cli.cmd_dequantize", "cli._write_report",
                   "tensor_store.load_manifest", "tensor_store.save_manifest",
                   "container.write_container", "container.read_container"}
# Functions whose spans record the kernel class of the tensor they handle.
TENSOR_FUNCTIONS = {"granularity.quantize_tensor", "granularity.dequantize_tensor"}


def peak_rss_mb() -> float:
    """This address space's RSS high-water mark."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def kernel_class(shape) -> str:
    """``k3x3``, ``k1x1`` and so on for conv kernels; ``vector`` for 1-D tensors."""
    n, c, h, w = shape.dims
    return "vector" if c == 1 and h * w == 1 else f"k{h}x{w}"


class Tracer:
    """Spans in flat arrays; ``parent`` is -1 for a root span."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.rss: dict[int, tuple[float, float]] = {}
        self.tensor: dict[int, tuple[str, int]] = {}   # kernel class, groups quantized

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        stage = name in STAGE_FUNCTIONS
        per_tensor = name in TENSOR_FUNCTIONS
        counts_groups = name == "granularity.quantize_tensor"
        clock = time.perf_counter
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self.stack

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            rss_start = peak_rss_mb() if stage else 0.0
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if stage:
                self.rss[idx] = (rss_start, peak_rss_mb())
            if per_tensor:
                subject = args[0] if args else next(iter(kwargs.values()))
                groups = result.group_count if counts_groups else 0
                self.tensor[idx] = (kernel_class(subject.shape), groups)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced function in every convquant module that holds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "convquant" or name.startswith("convquant.")]
        for module_name, functions in TRACED.items():
            module = sys.modules[f"convquant.{module_name}"]
            for fn_name in functions:
                original = getattr(module, fn_name, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{module_name}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def summary(self) -> dict:
        """Per-function totals plus the stage spans of each CLI command."""
        count = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(count)]
        child_time = [0.0] * count
        for i in range(count):
            if self.parent[i] >= 0:
                child_time[self.parent[i]] += duration[i]
        functions = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "inside": {},
                            "classes": {}} for name in self.names}
        for i in range(count):
            name = self.names[self.name_id[i]]
            entry = functions[name]
            entry["calls"] += 1
            entry["s"] += duration[i]
            entry["self_s"] += duration[i] - child_time[i]
            p = self.parent[i]
            if p >= 0:
                parent = self.names[self.name_id[p]]
                entry["inside"][parent] = entry["inside"].get(parent, 0) + 1
            if i in self.tensor:
                kclass, groups = self.tensor[i]
                per_class = entry["classes"].setdefault(
                    kclass, {"calls": 0, "s": 0.0, "groups": 0})
                per_class["calls"] += 1
                per_class["s"] += duration[i]
                per_class["groups"] += groups
        stages = []
        for i in range(count):
            p = self.parent[i]
            if i in self.rss and (p < 0 or self.parent[p] < 0):
                stages.append({"name": self.names[self.name_id[i]],
                               "parent": None if p < 0 else self.names[self.name_id[p]],
                               "start": self.start[i], "end": self.end[i],
                               "rss_start_mb": self.rss[i][0],
                               "rss_end_mb": self.rss[i][1]})
        return {"functions": functions, "stages": stages}


def main(argv) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    import convquant.cli

    tracer = None
    if cli_argv[:1] == ["--trace"]:
        cli_argv = cli_argv[1:]
        tracer = Tracer()
        tracer.install()
    code = convquant.cli.main(cli_argv)
    result = {"peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        result.update(tracer.summary())
    Path(out_path).write_text(json.dumps(result) + "\n", "utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
