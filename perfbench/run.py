#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload batch-cascade --seed 42 \
        --seconds 16 --trace 0

Run it from the root of a checkout (it imports ``src/``). ``--trace 0``
measures one untraced pass and prints every end-to-end metric;
``--trace 1`` runs an untraced pass in a child process, then a traced
pass in this one, requires both to produce the same digests, and prints
every per-layer metric plus the tracing overhead. The last line of
standard output is the result object; lines before it are details.
See README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from util import (  # noqa: E402
    END_TO_END, ROOT, WORK_DIR, median, peak_rss_mb, run_child,
    run_children)

#: Full set-ups per untraced run: the one this process measures with,
#: and the rest in fresh processes, run side by side beforehand.
SETUP_REPEATS = 3


def _load_pins() -> dict:
    return json.loads((HERE / "pins.json").read_text(encoding="utf-8"))


def run_pass(name: str, seed: int, seconds: float, tmp: Path,
             prepared: dict, traced: bool, setup_repeats: int,
             pass_id: str) -> dict:
    """One measured pass of a workload in this process."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, tmp)
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        workload.untraced = tracer.paused
    phases = {}
    t_phase = time.perf_counter()
    setup_samples = [child["setup_s"] for child in run_children(
        [{"task": "setup", "workload": name, "seed": seed, "tmp": str(tmp)}
         for _ in range(setup_repeats - 1)])]
    workload.load_inputs(pass_id)
    phases["setup_children_and_inputs"] = time.perf_counter() - t_phase
    try:
        if tracer is not None:
            tracer.armed = True
        t0 = time.perf_counter()
        try:
            workload.setup()
            setup_samples.append(time.perf_counter() - t0)
            workload.measure(seconds)
        finally:
            if tracer is not None:
                tracer.armed = False
        rss = peak_rss_mb()
        phases["setup_and_measure"] = time.perf_counter() - t0
        t_phase = time.perf_counter()
        workload.verify(_load_pins(), prepared)
        phases["verify"] = time.perf_counter() - t_phase
    finally:
        workload.close()
    layers = None
    if tracer is not None:
        from layers import layer_metrics

        layers = layer_metrics(workload, tracer.aggregate())
    measured = workload.metrics()
    metrics = {
        "setup_s": median(setup_samples),
        "peak_rss_mb": rss,
        "ops.ok_share": workload.ok_share(),
    }
    metrics.update({k: v for k, v in measured.items()
                    if not k.startswith("_")})
    out = {
        "correct": not workload.failures,
        "failures": workload.failures,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
        "details": {k[1:]: v for k, v in measured.items()
                    if k.startswith("_")},
        "setup_samples": setup_samples,
        "phase_s": {**phases, "prepare": prepared.get("prepare_s", 0.0)},
        "digests": workload.digests(),
    }
    if tracer is not None:
        out["layers"] = layers
        WORK_DIR.mkdir(exist_ok=True)
        spans_path = WORK_DIR / f"spans-{name}-seed{seed}.jsonl"
        out["details"]["spans"] = tracer.write(spans_path)
        out["details"]["spans_file"] = str(spans_path.relative_to(ROOT))
        tracer.uninstall()
    return out


def child_main(task: dict) -> dict:
    """Entry point of ``run.py --child``: tasks run in fresh processes."""
    from workloads import WORKLOADS, oracle_digests, reference_digest

    kind = task["task"]
    if kind == "prep":
        return WORKLOADS[task["workload"]].prepare_child(
            task["seed"], Path(task["tmp"]))
    if kind == "setup":
        workload = WORKLOADS[task["workload"]](task["seed"],
                                               Path(task["tmp"]))
        workload.load_inputs("shared")
        t0 = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - t0
        workload.close()
        return {"setup_s": elapsed}
    if kind == "pass":
        return run_pass(task["workload"], task["seed"], task["seconds"],
                        Path(task["tmp"]), task["prepared"], traced=False,
                        setup_repeats=1, pass_id="untraced")
    if kind == "reference":
        return reference_digest(task["seed"], task["annotator"])
    if kind == "oracle":
        return oracle_digests(task)
    raise SystemExit(f"unknown child task {kind!r}")


def _result_line(correct: bool, attempted: int, failed: int,
                 metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from the root of "
              f"a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.child:
        print(json.dumps(child_main(json.loads(args.child))))
        return 0

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: --workload must be one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    tmp = WORK_DIR / f"tmp-{args.workload}-{args.seed}-{time.time_ns()}"
    tmp.mkdir()
    try:
        t_prep = time.perf_counter()
        prepared = WORKLOADS[args.workload](args.seed, tmp).prepare()
        prepared["prepare_s"] = time.perf_counter() - t_prep
        if not args.trace:
            result = run_pass(args.workload, args.seed, args.seconds, tmp,
                              prepared, traced=False,
                              setup_repeats=SETUP_REPEATS,
                              pass_id="untraced")
            print(json.dumps({k: result[k] for k in
                              ("failures", "details", "setup_samples",
                               "phase_s", "digests")}))
            print(_result_line(result["correct"], result["attempted"],
                               result["failed"], result["metrics"],
                               END_TO_END))
            return 0
        return _traced_main(args, tmp, prepared)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _traced_main(args, tmp: Path, prepared: dict) -> int:
    from layers import PER_LAYER

    plain = run_child({"task": "pass", "workload": args.workload,
                       "seed": args.seed, "seconds": args.seconds,
                       "tmp": str(tmp), "prepared": prepared})
    traced = run_pass(args.workload, args.seed, args.seconds, tmp, prepared,
                      traced=True, setup_repeats=1, pass_id="traced")
    failures = list(plain["failures"]) + list(traced["failures"])
    failures += _digest_mismatches(plain["digests"], traced["digests"])
    layers = dict(traced["layers"])
    for name in END_TO_END:
        layers[f"trace.overhead.{name}"] = \
            traced["metrics"][name] - plain["metrics"][name]
    missing = [name for name in PER_LAYER if name not in layers]
    if missing:
        failures.append(f"per-layer metrics missing: {missing}")
    print(json.dumps({"failures": failures,
                      "untraced": plain["metrics"],
                      "traced": traced["metrics"],
                      "details": traced["details"]}))
    print(_result_line(not failures, plain["attempted"] +
                       traced["attempted"],
                       plain["failed"] + traced["failed"],
                       layers, PER_LAYER))
    return 0


def _digest_mismatches(plain: dict, traced: dict) -> list[str]:
    """The traced pass must produce the untraced pass's bytes."""
    out = []
    for key, value in plain.items():
        other = traced.get(key)
        if key == "generations":
            # Round counts depend on speed; the common prefix must agree.
            common = min(len(value), len(other))
            if value[:common] != other[:common]:
                out.append("traced and untraced generation fingerprints "
                           "differ")
        elif value != other:
            out.append(f"traced {key} digest differs from untraced")
    return out


if __name__ == "__main__":
    raise SystemExit(main())
