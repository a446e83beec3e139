"""Outside-in layer tracer for the `ade` engine.

The engine has no tracing of its own. The tracer replaces each traced
function at the attribute its caller looks up (a name a module imported is
the one that gets called), records one span per call in memory, and puts
the originals back on `uninstall`. A span's self time is its duration
minus the durations of the spans it caused. A layer is a module of the
engine; its busy time is the self time of its spans.

A traced function that a later refactor removed is listed in `absent` by
span name, and the metrics that need it are left out instead of failing
the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from collections import defaultdict

LAYERS = ("lattice", "turbulence", "corruption", "io", "rng", "reverse",
          "cli")
_IO_READERS = ("read_tensor", "read_image", "read_config", "file_sha256")
_IO_NAMED = _IO_READERS + ("write_tensor", "atomic_write_bytes")

UNITS = {
    "lattice.collide_ns_per_node_step": "ns",
    "lattice.stream_ns_per_node_step": "ns",
    "lattice.bounce_back_ns_per_node_step": "ns",
    "lattice.mnode_steps_per_s": "Mnode-steps/s",
    "lattice.calls": "count",
    "lattice.node_steps": "count",
    "turbulence.generate_us_per_call": "us",
    "turbulence.calls": "count",
    "turbulence.calls_per_lattice_step": "ratio",
    "corruption.self_s": "s",
    "corruption.chain_s_p50": "s",
    "io.read_tensor_mb_per_s": "MB/s",
    "io.write_tensor_mb_per_s": "MB/s",
    "io.sha256_mb_per_s": "MB/s",
    "io.read_image_us_per_call": "us",
    "io.bytes_read_mb": "MB",
    "io.bytes_written_mb": "MB",
    "rng.normal_mvalues_per_s": "Mvalues/s",
    "rng.calls": "count",
    "reverse.self_s": "s",
    "reverse.predict_us_per_step": "us",
    "cli.self_s": "s",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.covered_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _nodes(args, kwargs):
    """Nodes a lattice kernel call covers: its state's populations / 9."""
    return args[0].f.size // 9


def _lattice_steps(args, kwargs):
    schedule = kwargs["schedule"] if "schedule" in kwargs else args[1]
    return schedule.lattice_steps


def _field_values(args, kwargs):
    count = 1
    for d in args[1]:
        count *= int(d)
    return count


def _file_size(args, kwargs):
    return os.path.getsize(args[0])


def _payload_size(args, kwargs):
    return len(args[1])


# (owner, attribute, span name, layer, amount); the owner is a module or
# "module:Class". Spans of one function share a name however many
# attributes it is installed at.
TARGETS = [
    ("ade.cli", "main", "cli.main", "cli", None),
    ("ade.cli", "precompute_dataset", "corruption.precompute_dataset",
     "corruption", None),
    ("ade.cli", "forward_chain", "corruption.forward_chain", "corruption",
     _lattice_steps),
    ("ade.corruption", "forward_chain", "corruption.forward_chain",
     "corruption", _lattice_steps),
    ("ade.corruption", "solver_step", "lattice.solver_step", "lattice",
     None),
    ("ade.lattice", "stream", "lattice.stream", "lattice", _nodes),
    ("ade.lattice", "collide", "lattice.collide", "lattice", _nodes),
    ("ade.lattice", "apply_bounce_back", "lattice.apply_bounce_back",
     "lattice", _nodes),
    ("ade.turbulence:TurbulenceGenerator", "generate",
     "turbulence.generate", "turbulence", None),
    ("ade.rng:CounterRng", "normal_field", "rng.normal_field", "rng",
     _field_values),
    ("ade.reverse", "sample", "reverse.sample", "reverse", None),
    ("ade.reverse:OraclePredictor", "predict", "reverse.predict", "reverse",
     None),
]


def _io_targets():
    """Every public function of `ade.io`; readers count the file they read,
    `atomic_write_bytes` the payload every writer hands it."""
    module = importlib.import_module("ade.io")
    out = []
    for attr, fn in vars(module).items():
        if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                and not attr.startswith("_")):
            amount = (_file_size if attr in _IO_READERS + ("write_tensor",)
                      else _payload_size if attr == "atomic_write_bytes"
                      else None)
            out.append(("ade.io", attr, f"io.{attr}", "io", amount))
    return out


def _owner(path: str):
    module_name, _, cls = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Spans kept in memory as (id, parent id, name, layer, start, end,
    self seconds, amount); the amount is the call's unit of work, or None
    where the target defines none or could not read it. `absent` names
    the spans no attribute could be found for."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._patches: list[tuple] = []
        self._next_id = 0

    def install(self) -> None:
        targets = TARGETS + _io_targets()
        wanted = {t[2] for t in targets} | {f"io.{a}" for a in _IO_NAMED}
        installed, wrappers = set(), {}
        for owner_path, attr, name, layer, amount in targets:
            try:
                owner = _owner(owner_path)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                continue
            key = id(original)
            if key not in wrappers:
                wrappers[key] = self._wrap(original, name, layer, amount)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrappers[key])
            installed.add(name)
        self.absent = sorted(wanted - installed)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, layer, amount):
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                units = None
                if amount is not None:
                    try:
                        units = amount(args, kwargs)
                    except (AttributeError, IndexError, KeyError, TypeError,
                            OSError):
                        pass
                spans.append((span_id, parent, name, layer, start, end,
                              end - start - frame[1], units))

        return traced

    def summary(self) -> dict:
        """Per span name: layer, calls, total and self seconds, summed
        amount (None if any call lacked one), plus every forward_chain
        duration for its median."""
        names: dict[str, dict] = {}
        for _, _, name, layer, start, end, self_s, units in self.spans:
            acc = names.setdefault(name, {"layer": layer, "calls": 0,
                                          "dur": 0.0, "self": 0.0,
                                          "amount": 0})
            acc["calls"] += 1
            acc["dur"] += end - start
            acc["self"] += self_s
            if units is None or acc["amount"] is None:
                acc["amount"] = None
            else:
                acc["amount"] += units
        chains = [end - start for _, _, name, _, start, end, _, _ in self.spans
                  if name == "corruption.forward_chain"]
        return {"names": names, "chain_s": chains, "absent": self.absent}


def layer_metrics(summary: dict, commands: int, wall_s: float,
                  overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics of `commands` traced commands taking `wall_s`.

    Counts are per command, divided before any scaling, so they repeat
    exactly whatever the number of commands when every command does the
    same work. A layer a workload never enters reads 0; a metric whose
    function is absent is left out.
    """
    names = summary["names"]
    empty = {"calls": 0, "dur": 0.0, "self": 0.0, "amount": 0}

    def get(name):
        if name in summary["absent"]:
            return None
        return names.get(name, empty)

    def ratio(num, den):
        return num / den if den else 0.0

    busy = defaultdict(float)
    for entry in names.values():
        busy[entry["layer"]] += entry["self"]
    out: dict[str, float] = {}

    collide = get("lattice.collide")
    node_steps = collide["amount"] if collide else None
    kernels = {"stream": get("lattice.stream"), "collide": collide,
               "bounce_back": get("lattice.apply_bounce_back")}
    if node_steps is not None:
        for kernel, entry in kernels.items():
            if entry is not None:
                out[f"lattice.{kernel}_ns_per_node_step"] = ratio(
                    entry["self"] * 1e9, node_steps)
        out["lattice.mnode_steps_per_s"] = ratio(node_steps / 1e6,
                                                 busy["lattice"])
        out["lattice.node_steps"] = node_steps / commands
    if all(entry is not None for entry in kernels.values()):
        calls = sum(entry["calls"] for entry in kernels.values())
        out["lattice.calls"] = calls / commands

    generate = get("turbulence.generate")
    if generate is not None:
        out["turbulence.generate_us_per_call"] = ratio(generate["dur"] * 1e6,
                                                       generate["calls"])
        out["turbulence.calls"] = generate["calls"] / commands
        chain = get("corruption.forward_chain")
        if chain is not None and chain["amount"] is not None:
            out["turbulence.calls_per_lattice_step"] = ratio(
                generate["calls"], chain["amount"])

    out["corruption.self_s"] = busy["corruption"] / commands
    out["corruption.chain_s_p50"] = (statistics.median(summary["chain_s"])
                                     if summary["chain_s"] else 0.0)

    for attr, metric in (("read_tensor", "read_tensor_mb_per_s"),
                         ("write_tensor", "write_tensor_mb_per_s"),
                         ("file_sha256", "sha256_mb_per_s")):
        entry = get(f"io.{attr}")
        if entry is not None and entry["amount"] is not None:
            out[f"io.{metric}"] = ratio(entry["amount"] / 1e6, entry["dur"])
    read_image = get("io.read_image")
    if read_image is not None:
        out["io.read_image_us_per_call"] = ratio(read_image["dur"] * 1e6,
                                                 read_image["calls"])
    readers = [get(f"io.{attr}") for attr in _IO_READERS]
    if all(e is not None and e["amount"] is not None for e in readers):
        read = sum(entry["amount"] for entry in readers)
        out["io.bytes_read_mb"] = read / commands / 1e6
    written = get("io.atomic_write_bytes")
    if written is not None and written["amount"] is not None:
        out["io.bytes_written_mb"] = written["amount"] / commands / 1e6

    normal = get("rng.normal_field")
    if normal is not None and normal["amount"] is not None:
        out["rng.normal_mvalues_per_s"] = ratio(normal["amount"] / 1e6,
                                                normal["dur"])
        out["rng.calls"] = normal["calls"] / commands

    out["reverse.self_s"] = busy["reverse"] / commands
    predict = get("reverse.predict")
    if predict is not None:
        out["reverse.predict_us_per_step"] = ratio(predict["dur"] * 1e6,
                                                   predict["calls"])
    out["cli.self_s"] = busy["cli"] / commands

    for layer in LAYERS:
        out[f"{layer}.share"] = busy[layer] / wall_s
    # The engine layers below the CLI; what cli.main does itself and what
    # no traced function covers is the gap.
    out["trace.covered_share"] = sum(busy[layer] for layer in LAYERS
                                     if layer != "cli") / wall_s
    out["trace.overhead_ratio"] = overhead_ratio
    return out
