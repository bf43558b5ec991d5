#!/usr/bin/env python3
"""Regenerate the pinned digests in ``pins.json``.

    python3 perfbench/pin.py --seeds 0-63 --jobs 2

For each seed: the canonical records digest and token counts of a serial
chatbot and a serial cascade pipeline run over the seed's corpus, and
the digest of the fresh-index oracle bodies for the seed's serve-wide
query trace. A run whose output differs from its pin fails. Change the
pins only together with a deliberate change of output bytes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from util import ROOT, text_digest  # noqa: E402

PINS = HERE / "pins.json"


def _seeds(spec: str) -> list[int]:
    seeds: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def pin_seed(seed: int) -> dict:
    from workloads import (
        CASCADE, CHATBOT, TRACE_QUERIES, corpus_for, oracle_bodies)

    from repro.pipeline import run_pipeline
    from repro.serve import (
        CorpusIndex,
        WorkloadConfig,
        generate_workload,
        snapshot_fingerprint,
        snapshot_from_result,
    )

    out = {}
    for annotator, options in (("chatbot", CHATBOT), ("cascade", CASCADE)):
        result = run_pipeline(corpus_for(seed), options)
        out[annotator] = {
            "records": snapshot_fingerprint(result.records),
            "tokens": [result.prompt_tokens, result.completion_tokens]}
        if annotator == "chatbot":
            snapshot = snapshot_from_result(result)
    queries = generate_workload(CorpusIndex.build(snapshot), WorkloadConfig(
        seed=seed, requests=TRACE_QUERIES, zipf_s=0.0))
    bodies = oracle_bodies(snapshot, queries, range(len(queries)))
    out["serve-wide"] = text_digest(bodies[i] for i in range(len(queries)))
    return out


def _dump(pins: dict) -> str:
    """pins.json with one line per seed, so a re-pin diffs per seed."""
    def table(entries: dict, indent: str) -> str:
        rows = [f'{indent}  "{seed}": {json.dumps(value)}'
                for seed, value in entries.items()]
        return "{\n" + ",\n".join(rows) + f"\n{indent}}}"

    return (
        '{\n "batch": {\n'
        f'  "cascade": {table(pins["batch"]["cascade"], "  ")},\n'
        f'  "chatbot": {table(pins["batch"]["chatbot"], "  ")}\n'
        " },\n"
        f' "serve-wide": {table(pins["serve-wide"], " ")}\n'
        "}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True,
                        help="seed list, e.g. 0-63 or 1,5,42")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--partial", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    seeds = _seeds(args.seeds)

    if args.partial:
        print(json.dumps({seed: pin_seed(seed) for seed in seeds}))
        return 0
    chunks = [seeds[i::args.jobs] for i in range(args.jobs)]
    procs = [subprocess.Popen(
        [sys.executable, __file__, "--partial",
         "--seeds", ",".join(map(str, chunk))],
        stdout=subprocess.PIPE, text=True) for chunk in chunks if chunk]
    results: dict = {}
    for proc in procs:
        stdout, _ = proc.communicate()
        if proc.returncode != 0:
            raise SystemExit(f"pin worker failed with {proc.returncode}")
        results.update(json.loads(stdout.strip().splitlines()[-1]))
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    for seed, entry in results.items():
        for annotator in ("chatbot", "cascade"):
            pins["batch"][annotator][seed] = entry[annotator]
        pins["serve-wide"][seed] = entry["serve-wide"]
    for table in (pins["batch"]["chatbot"], pins["batch"]["cascade"],
                  pins["serve-wide"]):
        ordered = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        table.clear()
        table.update(ordered)
    PINS.write_text(_dump(pins), encoding="utf-8")
    print(f"pinned {len(results)} seeds into {PINS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
