"""One benchmark process: runs a workload's CLI commands in-process.

Usage: python3 worker.py JOB_JSON   (run.py writes the job and starts this)

The process imports `ade` from the repository's `src`, runs one untimed
warm-up command, marks itself ready, then repeats the command through
`ade.cli.main(argv)` until the job's seconds are spent (and at least
`min_commands` ran). Each command is timed alone; its outputs are checked
after the clock stops. With `trace` set, every second command runs under
the layer tracer. The result, including this process's peak RSS, is
written as JSON to the job's `result` path.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import ade.cli  # noqa: E402

import checks  # noqa: E402
import layertrace  # noqa: E402


def lattice_steps(argv: list[str]) -> int:
    """Lattice steps of the schedule `ade schedule argv` prints."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = ade.cli.main(argv)
    found = re.search(r"total_lattice_steps=(\d+)", text.getvalue())
    if code != 0 or found is None:
        raise SystemExit(f"ade {' '.join(argv)} printed no lattice steps")
    return int(found.group(1))


def run_command(argv: list[str]) -> str | None:
    """Run one command; the error that failed it, or None."""
    try:
        code = ade.cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a failed command is counted, not fatal
        return f"{type(exc).__name__}: {exc}"
    return None if code == 0 else f"exit code {code}"


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    os.chdir(job["workdir"])
    out = Path(job["out"])
    walk = job.get("walk_steps")
    work_steps = walk or lattice_steps(job["schedule_argv"])
    chain_length = walk or job["chain_length"]
    tracer = layertrace.Tracer() if job["trace"] else None

    shutil.rmtree(out, ignore_errors=True)
    warmup_error = run_command(job["argv"])
    if warmup_error:
        print(f"warm-up command failed: {warmup_error}", file=sys.stderr)
    ready = time.monotonic()

    records = []
    deadline = ready + job["seconds"]
    while len(records) < job["min_commands"] or time.monotonic() < deadline:
        shutil.rmtree(out, ignore_errors=True)
        traced = tracer is not None and len(records) % 2 == 1
        if traced:
            tracer.install()
        start = time.perf_counter()
        error = run_command(job["argv"])
        seconds = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        problems, digest = ([error], None) if error else checks.check_command(
            job, out, chain_length)
        for problem in problems[:3]:
            print(f"check failed: {problem}", file=sys.stderr)
        records.append({"s": seconds, "traced": traced,
                        "digest": digest})
    shutil.rmtree(out, ignore_errors=True)

    result = {
        "ready": ready,
        "records": records,
        "warmup_ok": warmup_error is None,
        "work_steps": work_steps,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer else None,
    }
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
