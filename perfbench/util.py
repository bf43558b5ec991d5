"""Small helpers shared by the benchmark modules: statistics, memory,
digests, and the child-process protocol."""

from __future__ import annotations

import hashlib
import json
import math
import resource
import subprocess
import sys
from pathlib import Path

#: Root of the checkout the benchmark runs from (it holds ``src/``).
ROOT = Path(__file__).resolve().parent.parent

#: Where runs keep temporary inputs and write trace files.
WORK_DIR = ROOT / ".perfbench"

#: End-to-end metrics, reported by every workload: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops.ok_share": "share",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "tokens_per_domain": "tokens",
}


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_pct(samples: int, preferred: float) -> float:
    """``preferred``, lowered until at least ten samples lie beyond it."""
    pct = preferred
    while pct > 50.0 and samples * (100.0 - pct) / 100.0 < 10.0:
        pct -= 1.0
    return pct


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def text_digest(parts) -> str:
    """SHA-256 over newline-terminated strings."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def start_child(task: dict) -> subprocess.Popen:
    """Start ``run.py --child`` with ``task`` in a fresh interpreter, so
    per-process memos (trained models, lexicon tries) start cold."""
    return subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--child",
         json.dumps(task)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finish_child(proc: subprocess.Popen, task: dict,
                 timeout: float = 170.0) -> dict:
    """Wait for a child (killing it on timeout); return its last stdout
    line, parsed."""
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"child task {task.get('task')} failed with code "
            f"{proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_children(tasks: list[dict]) -> list[dict]:
    """Run child tasks side by side and wait for all of them."""
    procs = [start_child(task) for task in tasks]
    try:
        return [finish_child(proc, task) for proc, task in zip(procs, tasks)]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def run_child(task: dict) -> dict:
    """Run one child task and wait for it."""
    return finish_child(start_child(task), task)
