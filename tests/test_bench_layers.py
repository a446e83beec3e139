"""Self-test of the layer benchmark, bench/layers.py."""

import importlib.util
import json
import time
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
_spec = importlib.util.spec_from_file_location("bench_layers", _PATH)
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)


def test_each_case_runs_once_at_a_tiny_size():
    start = time.perf_counter()
    for case in layers.CASES:
        for partner in (True, False):
            assert layers.measure(case, partner, calls=1, tiny=True) > 0
    assert time.perf_counter() - start < 3.0


def test_the_report_records_the_machine_and_each_variant(tmp_path, capsys):
    out = tmp_path / "bench.json"
    case = next(iter(layers.CASES))
    assert layers.main(["--tiny", "--runs", "1", "--calls", "1", "--case",
                        case, "--json-out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert {"numpy", "dispatch_target", "cpus", "git_revision"} <= set(report)
    entry = report["cases"][case]
    for variant in layers.VARIANTS:
        assert entry[variant]["median_ms"] > 0
        assert entry[variant]["iqr_ms"] == 0.0
    assert case in capsys.readouterr().out



def test_each_kernel_runs_at_a_tiny_size():
    start = time.perf_counter()
    for case in layers.KERNELS:
        seconds, faults = layers.measure_kernel(case, calls=1, tiny=True)
        assert seconds > 0 and faults >= 0
    assert time.perf_counter() - start < 3.0


def test_the_report_records_a_kernel_case_with_its_faults(tmp_path, capsys):
    out = tmp_path / "bench.json"
    case = "normals_ahead_3x256"
    assert layers.main(["--tiny", "--runs", "1", "--calls", "1", "--case",
                        case, "--json-out", str(out)]) == 0
    report = json.loads(out.read_text())
    entry = report["kernels"][case]
    assert entry["median_us"] > 0 and entry["iqr_us"] == 0.0
    assert entry["calls"] == layers.KERNEL_CALLS  # at least, whatever --calls
    assert entry["minor_faults_per_call"] >= 0
    assert report["cases"] == {}
    assert case in capsys.readouterr().out
