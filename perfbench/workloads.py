"""The benchmark's three workloads.

Every workload is built from ``--seed`` alone and follows one shape:

- ``prepare``: untimed inputs written once per run into a scratch
  directory, in a child process (a snapshot file, a warm pipeline cache);
- ``load_inputs``: untimed in-process inputs (a corpus object);
- ``setup``: the timed set-up a user pays before the first operation;
- ``measure``: the timed operations, for about ``--seconds`` seconds;
- ``verify``: correctness checks against oracles and pinned digests;
- ``metrics``: the end-to-end numbers, one set of names for every
  workload (see README.md for what each name means on each workload).

Workloads and why (the corpus is the CLI default: seed-derived, fraction
0.1 = 288 domains):

- ``batch-cascade`` — what ``repro-pipeline run`` costs with the
  cascade annotator: a serial pipeline pass over the corpus, training the
  distilled model counted as set-up. Crawl, HTML, language, the pipeline
  stages, the cascade and its chatbot escalations do the work; serving is
  idle. Only this workload moves when the cascade or distillation changes.
- ``serve-wide`` — open-loop traffic with uniform domain popularity: the
  working set dwarfs the 256-entry hot cache, so the query engine, index
  and compliance evaluation do the work. The pipeline is idle.
- ``ingest-live`` — policy changes re-crawled, re-annotated with the
  chatbot annotator, patched into 8 shards and swapped into a live server
  while zipfian reads keep arriving. The hot cache, shards, refresh and
  swap do the work; the engine only sees misses.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pickle
import shutil
import threading
import time
from pathlib import Path

from sender import Sender, latency_ms
from util import (
    finish_child, median, percentile, run_child, start_child, tail_pct,
    text_digest)

from repro.corpus import CorpusConfig, build_corpus
from repro.ingest import (
    IngestScheduler,
    PolicyChangeFeed,
    apply_patches_sharded,
    refresh_differential,
)
from repro.pipeline import (
    ExecutorOptions,
    PipelineCache,
    PipelineOptions,
    run_pipeline,
)
from repro.pipeline.cascade import get_cascade_model
from repro.serve import (
    AnnotationServer,
    CorpusIndex,
    CorpusSnapshot,
    QueryEngine,
    ServerConfig,
    WorkloadConfig,
    build_snapshot,
    generate_workload,
    load_snapshot,
    partition_snapshot,
    query_fingerprint,
    snapshot_fingerprint,
    snapshot_from_result,
    write_snapshot,
)

#: The CLI's default corpus fraction: 288 domains.
FRACTION = 0.1
#: Queries generated per serving run (about 700 distinct at zipf 0),
#: replayed in order, cycling.
TRACE_QUERIES = 3000
#: Least number of batch passes; the batch figures are medians over them.
MIN_PASSES = 2
#: serve-wide reference rate (req/s) and request count for the median.
REF_RATE = 200.0
REF_REQUESTS = 600
#: serve-wide saturation: a closed loop keeping this many requests in
#: flight (well under the default 64-deep queue, so nothing is shed), for
#: the rest of ``--seconds`` but at least SAT_LAPS laps of the trace;
#: reported as medians over the whole laps.
SAT_WINDOW = 8
SAT_LAPS = 3
#: ingest-live read rate (req/s), held by the parent without a backlog.
READ_RATE = 100.0
READ_ZIPF = 1.1
SHARDS = 8
MUTATE_PER_ROUND = 3
MIN_ROUNDS = 2

#: The two annotators the batch workloads run, at their defaults.
CHATBOT = PipelineOptions()
CASCADE = PipelineOptions(annotator="cascade")


def corpus_for(seed: int):
    return build_corpus(CorpusConfig(seed=seed, fraction=FRACTION))


def prepare_corpus_run(seed: int, tmp: Path, snapshot: bool,
                       cache: bool) -> dict:
    """Child-process body: one chatbot pipeline run over the corpus on
    the process executor (2 workers), writing a snapshot file and/or a
    warm pipeline cache. Returns the records digest and token counts."""
    corpus = corpus_for(seed)
    result = run_pipeline(
        corpus, CHATBOT,
        executor=ExecutorOptions(workers=2, backend="process"),
        cache=PipelineCache(tmp / "cache") if cache else None)
    if snapshot:
        write_snapshot(snapshot_from_result(result), tmp / "snapshot.json")
    return {"records": snapshot_fingerprint(result.records),
            "tokens": result.prompt_tokens + result.completion_tokens,
            "domains": len(result.records)}


class Workload:
    """Base: the shape every workload follows."""

    name = ""

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        #: Context manager the traced run swaps in to pause tracing.
        self.untraced = contextlib.nullcontext
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def prepare(self) -> dict:
        return {}

    def load_inputs(self, pass_id: str) -> None:
        pass

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> None:
        raise NotImplementedError

    def verify(self, pins: dict, prepared: dict) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def layer_extras(self) -> dict:
        """Per-layer metrics the workload measures itself, not the tracer."""
        return {}

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def ok_share(self) -> float:
        return 1.0 - self.failed / max(1, self.attempted)


class BatchCascade(Workload):
    name = "batch-cascade"

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        self.options = CASCADE
        self.corpus = None
        self.passes: list[dict] = []
        #: domain -> its time in each pass
        self.domain_s: dict[str, list[float]] = {}

    def setup(self) -> None:
        self.corpus = corpus_for(self.seed)
        get_cascade_model(self.options)

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        while True:
            if self.passes:
                # Each pass is cold: drop the cross-domain verdict memo
                # the previous pass filled.
                get_cascade_model(self.options).verdict_cache.clear()
            last = [time.perf_counter()]

            def progress(done, total, domain):
                now = time.perf_counter()
                self.domain_s.setdefault(domain, []).append(now - last[0])
                last[0] = now

            t0 = last[0]
            result = run_pipeline(self.corpus, self.options,
                                  progress=progress)
            wall = time.perf_counter() - t0
            self.attempted += len(result.records)
            counts = result.stage_timings.counts()
            with self.untraced():
                records = snapshot_fingerprint(result.records)
            self.passes.append({
                "wall_s": wall,
                "domains": len(result.records),
                "records": records,
                "prompt_tokens": result.prompt_tokens,
                "completion_tokens": result.completion_tokens,
                "fast": counts.get("cascade.fast_path_segments", 0),
                "escalated": counts.get("cascade.escalated_segments", 0),
            })
            if len(self.passes) >= MIN_PASSES and \
                    time.perf_counter() - start + wall > seconds:
                break

    def verify(self, pins: dict, prepared: dict) -> None:
        if not self.passes:
            self.check(False, "no pipeline pass completed")
            return
        digests = {p["records"] for p in self.passes}
        self.check(len(digests) == 1,
                   f"passes disagree on records: {sorted(digests)}")
        first = self.passes[0]
        pin = pins.get("batch", {}).get(self.options.annotator, {}) \
            .get(str(self.seed))
        if pin is not None:
            self.check(first["records"] == pin["records"],
                       f"records digest {first['records'][:12]} != pinned "
                       f"{pin['records'][:12]}")
            tokens = [first["prompt_tokens"], first["completion_tokens"]]
            self.check(tokens == pin["tokens"],
                       f"tokens {tokens} != pinned {pin['tokens']}")
        else:
            # No pin for this seed: the process-executor run must still
            # produce the serial run's bytes.
            ref = run_child({"task": "reference", "seed": self.seed,
                             "annotator": self.options.annotator})
            self.check(first["records"] == ref["records"],
                       f"records digest {first['records'][:12]} != "
                       f"process-executor run {ref['records'][:12]}")

    def metrics(self) -> dict:
        rates = [p["domains"] / p["wall_s"] for p in self.passes]
        per_domain = [median(times) for times in self.domain_s.values()]
        first = self.passes[0]
        pct = tail_pct(len(per_domain), 95.0)
        return {
            "throughput_per_s": median(rates),
            "latency_p50_ms": median(per_domain) * 1e3,
            "tokens_per_domain": (first["prompt_tokens"]
                                  + first["completion_tokens"])
            / first["domains"],
            "_tail_ms": percentile(per_domain, pct) * 1e3,
            "_tail_pct": pct,
            "_samples": len(per_domain),
            "_pass_domains_per_s": [round(rate, 2) for rate in rates],
        }

    def digests(self) -> dict:
        return {"records": self.passes[0]["records"] if self.passes
                else None}

    def ops(self) -> int:
        return sum(p["domains"] for p in self.passes)

    def layer_extras(self) -> dict:
        fast = sum(p["fast"] for p in self.passes)
        escalated = sum(p["escalated"] for p in self.passes)
        return {"pipeline.cascade.escalation_share":
                escalated / (fast + escalated) if fast + escalated else 0.0}


def oracle_bodies(snapshot, queries, positions) -> dict[int, str]:
    """``QueryEngine.execute`` over a fresh index of ``snapshot`` for the
    queries at ``positions`` (each distinct query computed once)."""
    engine = QueryEngine(CorpusIndex.build(snapshot))
    memo: dict[str, str] = {}
    out = {}
    for position in positions:
        query = queries[position]
        key = query_fingerprint(query)
        body = memo.get(key)
        if body is None:
            body = memo[key] = engine.execute(query).to_json()
        out[position] = body
    return out


def oracle_digests(task: dict) -> dict:
    """Child-process body: oracle body digests for some generations."""
    tmp = Path(task["tmp"])
    with open(tmp / "queries.pickle", "rb") as handle:
        queries = pickle.load(handle)  # written by this benchmark's parent
    wanted = json.loads((tmp / "oracle-positions.json").read_text())
    out = {}
    for generation, positions in wanted.items():
        snapshot = load_snapshot(tmp / f"generation-{generation}.json")
        bodies = oracle_bodies(snapshot, queries, positions)
        out[generation] = {p: _sha256(b) for p, b in bodies.items()}
    return out


def _sha256(body: str) -> str:
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _candidates(lo: int, hi: int, last: int) -> range:
    """Generations that may have served a request submitted under ``lo``
    and completed under ``hi``: one installed just before the completion
    was observed (``hi + 1``) included."""
    return range(lo, min(hi + 1, last) + 1)


class ServeWide(Workload):
    name = "serve-wide"

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        self.server = None
        self.sender = None
        self.ref = None
        self.sat = None
        self.oracle_digest = None

    def prepare(self) -> dict:
        return run_child({"task": "prep", "workload": self.name,
                          "seed": self.seed, "tmp": str(self.tmp)})

    @staticmethod
    def prepare_child(seed: int, tmp: Path) -> dict:
        return prepare_corpus_run(seed, tmp, snapshot=True, cache=False)

    def setup(self) -> None:
        snapshot = load_snapshot(self.tmp / "snapshot.json")
        self.server = AnnotationServer(snapshot, ServerConfig())
        self.server.start()

    def measure(self, seconds: float) -> None:
        with self.untraced():
            queries = generate_workload(self.server.index, WorkloadConfig(
                seed=self.seed, requests=TRACE_QUERIES, zipf_s=0.0))
        self.sender = Sender(self.server, queries)
        start = time.perf_counter()
        self.ref = self.sender.run(REF_RATE, count=REF_REQUESTS)
        remaining = seconds - (time.perf_counter() - start)
        self.sat = self.sender.window(SAT_WINDOW, remaining,
                                      least=SAT_LAPS * len(queries))
        self.attempted = self.ref.sent + self.sat.sent
        self.failed = self.ref.shed + self.ref.errors + self.sat.shed \
            + self.sat.errors

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()

    def verify(self, pins: dict, prepared: dict) -> None:
        self.close()
        queries = self.sender.queries
        bodies = oracle_bodies(load_snapshot(self.tmp / "snapshot.json"),
                               queries, range(len(queries)))
        self.oracle_digest = text_digest(bodies[i]
                                         for i in range(len(queries)))
        wrong = sum(1 for position, entries in self.sender.bodies.items()
                    for body, _, _ in entries if body != bodies[position])
        self.check(wrong == 0, f"{wrong} served bodies differ from the "
                   f"fresh-index oracle")
        pin = pins.get("serve-wide", {}).get(str(self.seed))
        if pin is not None:
            self.check(self.oracle_digest == pin,
                       f"oracle digest {self.oracle_digest[:12]} != pinned "
                       f"{pin[:12]}")
        _check_prepared(self, pins, prepared)
        self.check(self.ref.valid, "reference step invalid: the sender fell "
                   "behind its schedule")

    def metrics(self) -> dict:
        pct = tail_pct(len(self.sat.latencies), 99.0)
        ref_pct = tail_pct(len(self.ref.uncached), 99.0)
        rates, medians = self.sat.laps(len(self.sender.queries))
        return {
            "throughput_per_s": median(rates),
            "latency_p50_ms": median(medians) * 1e3,
            "tokens_per_domain": self.prepared_tokens,
            "_tail_ms": latency_ms(self.sat.latencies, pct),
            "_tail_pct": pct,
            "_samples": len(self.sat.latencies),
            # At the reference rate, engine-served (cache-miss) responses.
            "_ref_uncached_p50_ms": latency_ms(self.ref.uncached, 50),
            "_ref_uncached_tail_ms": latency_ms(self.ref.uncached, ref_pct),
            "_ref_uncached_tail_pct": ref_pct,
            "_ref_uncached_samples": len(self.ref.uncached),
            "_steps": [self.ref.summary(), self.sat.summary()],
            "_lap_ok_per_s": [round(rate, 1) for rate in rates],
        }

    def digests(self) -> dict:
        return {"oracle": self.oracle_digest}

    def ops(self) -> int:
        return self.attempted

    def server_metrics(self):
        return self.server.metrics

    def lag_samples(self) -> list:
        return list(self.ref.lags) + list(self.sat.lags)

    def latency_sum_s(self) -> float:
        return sum(self.ref.latencies) + sum(self.sat.latencies)


def _check_prepared(workload: Workload, pins: dict, prepared: dict) -> None:
    """The prepared corpus run must match the pinned chatbot records."""
    pin = pins.get("batch", {}).get("chatbot", {}).get(str(workload.seed))
    workload.prepared_tokens = prepared["tokens"] / prepared["domains"]
    if pin is not None:
        workload.check(prepared["records"] == pin["records"],
                       f"prepared records {prepared['records'][:12]} != "
                       f"pinned {pin['records'][:12]}")


class IngestLive(Workload):
    name = "ingest-live"

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        self.corpus = None
        self.cache_dir = None
        self.scheduler = None
        self.server = None
        self.sender = None
        self.reads = None
        self.generations: list = []
        self.refresh_s: list[float] = []
        #: shards each round rebuilt
        self.touched: list[int] = []
        self.annotated = 0
        self.checked = 0
        self.rounds_failed = 0

    def prepare(self) -> dict:
        return run_child({"task": "prep", "workload": self.name,
                          "seed": self.seed, "tmp": str(self.tmp)})

    @staticmethod
    def prepare_child(seed: int, tmp: Path) -> dict:
        return prepare_corpus_run(seed, tmp, snapshot=False, cache=True)

    def load_inputs(self, pass_id: str) -> None:
        self.corpus = corpus_for(self.seed)
        if pass_id == "shared":
            self.cache_dir = self.tmp / "cache"
        else:
            # Rounds write new cache entries; each measured pass starts
            # from its own copy of the warm cache.
            self.cache_dir = self.tmp / f"cache-{pass_id}"
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            shutil.copytree(self.tmp / "cache", self.cache_dir)

    def setup(self) -> None:
        self.scheduler = IngestScheduler(
            self.corpus, CHATBOT, PipelineCache(self.cache_dir),
            seed=self.seed)
        records = self.scheduler.bootstrap()
        sharded = partition_snapshot(
            build_snapshot(records, source="perfbench"), SHARDS)
        self.generations = [sharded]
        self.server = AnnotationServer(sharded, ServerConfig())
        self.server.start()

    def measure(self, seconds: float) -> None:
        with self.untraced():
            queries = generate_workload(self.server.index, WorkloadConfig(
                seed=self.seed, requests=TRACE_QUERIES, zipf_s=READ_ZIPF))
            feed = PolicyChangeFeed(self.corpus, seed=self.seed,
                                    per_round=MUTATE_PER_ROUND)
        counts0 = self.scheduler.counts()
        stop = threading.Event()
        errors: list[str] = []

        def writer():
            start = time.perf_counter()
            try:
                while True:
                    t_mut = time.perf_counter()
                    with self.untraced():
                        feed.next_round()
                    t0 = time.perf_counter()
                    rnd = self.scheduler.run_round()
                    refresh = apply_patches_sharded(self.generations[-1],
                                                    list(rnd.patches))
                    self.server.swap_snapshot(refresh.sharded)
                    t1 = time.perf_counter()
                    self.generations.append(refresh.sharded)
                    self.refresh_s.append(t1 - t0)
                    self.touched.append(len(refresh.touched))
                    round_s = t1 - t_mut
                    if len(self.refresh_s) >= MIN_ROUNDS and \
                            t1 - start + round_s > seconds:
                        break
            except Exception as exc:
                errors.append(repr(exc))
            finally:
                stop.set()

        self.sender = Sender(self.server, queries,
                                     generation=lambda:
                                     len(self.generations) - 1)
        thread = threading.Thread(target=writer, name="perfbench-ingest")
        thread.start()
        self.reads = self.sender.run(READ_RATE, stop=stop)
        thread.join()
        counts1 = self.scheduler.counts()
        self.annotated = counts1.get("ingest.annotated", 0) \
            - counts0.get("ingest.annotated", 0)
        self.checked = counts1.get("ingest.checked", 0) \
            - counts0.get("ingest.checked", 0)
        self.rounds_failed = len(errors)
        for message in errors:
            self.check(False, f"ingest round raised {message}")
        self.attempted = self.reads.sent + len(self.refresh_s) \
            + self.rounds_failed
        self.failed = self.reads.shed + self.reads.errors + self.rounds_failed

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()

    def verify(self, pins: dict, prepared: dict) -> None:
        self.close()
        _check_prepared(self, pins, prepared)
        self._check_bodies()
        verdict = refresh_differential(self.corpus, CHATBOT,
                                       self.scheduler.cache,
                                       self.generations[-1],
                                       domains=self.scheduler.domains)
        self.check(verdict["identical"],
                   f"refresh differential not identical: {verdict}")
        self.check(len(self.refresh_s) >= MIN_ROUNDS,
                   f"only {len(self.refresh_s)} ingest rounds completed")

    def _check_bodies(self) -> None:
        """Every OK read equals the fresh-index oracle of a generation that
        could have served it. Odd generations are computed in a child
        process while this one computes the even ones."""
        last = len(self.generations) - 1
        need: dict[int, set] = {}
        for position, entries in self.sender.bodies.items():
            for _, lo, hi in entries:
                for generation in _candidates(lo, hi, last):
                    need.setdefault(generation, set()).add(position)
        snapshots = {g: CorpusSnapshot(records=tuple(s.records()),
                                       fingerprint=s.fingerprint)
                     for g, s in enumerate(self.generations)}
        theirs = sorted(need)[1::2]
        with open(self.tmp / "queries.pickle", "wb") as handle:
            pickle.dump(self.sender.queries, handle)
        for generation in theirs:
            write_snapshot(snapshots[generation],
                           self.tmp / f"generation-{generation}.json")
        (self.tmp / "oracle-positions.json").write_text(
            json.dumps({g: sorted(need[g]) for g in theirs}))
        task = {"task": "oracle", "tmp": str(self.tmp)}
        child = start_child(task)
        digests = {g: {p: _sha256(b) for p, b in oracle_bodies(
                       snapshots[g], self.sender.queries, need[g]).items()}
                   for g in sorted(need)[0::2]}
        for generation, table in finish_child(child, task).items():
            digests[int(generation)] = {int(p): d for p, d in table.items()}
        wrong = 0
        for position, entries in self.sender.bodies.items():
            for body, lo, hi in entries:
                digest = _sha256(body)
                if not any(digests[g][position] == digest
                           for g in _candidates(lo, hi, last)):
                    wrong += 1
        self.check(wrong == 0, f"{wrong} served bodies differ from every "
                   f"candidate generation's fresh-index oracle")

    def metrics(self) -> dict:
        pct = tail_pct(len(self.reads.latencies), 99.0)
        return {
            "throughput_per_s": 1.0 / median(self.refresh_s),
            "latency_p50_ms": latency_ms(self.reads.latencies, 50),
            "tokens_per_domain": self.prepared_tokens,
            "_tail_ms": latency_ms(self.reads.latencies, pct),
            "_tail_pct": pct,
            "_samples": len(self.reads.latencies),
            "_rounds": len(self.refresh_s),
            "_refresh_s": [round(s, 4) for s in self.refresh_s],
            "_shards_touched": self.touched,
            "_reads": self.reads.summary(),
        }

    def digests(self) -> dict:
        return {"generations": [g.fingerprint for g in self.generations]}

    def ops(self) -> int:
        return len(self.refresh_s)

    def server_metrics(self):
        return self.server.metrics

    def lag_samples(self) -> list:
        return list(self.reads.lags)

    def latency_sum_s(self) -> float:
        return sum(self.reads.latencies)

    def layer_extras(self) -> dict:
        return {"ingest.annotated_share":
                self.annotated / self.checked if self.checked else 0.0}


WORKLOADS = {cls.name: cls for cls in (BatchCascade, ServeWide, IngestLive)}


def reference_digest(seed: int, annotator: str) -> dict:
    """Child-process body: the records digest from the process executor."""
    options = CASCADE if annotator == "cascade" else CHATBOT
    result = run_pipeline(
        corpus_for(seed), options,
        executor=ExecutorOptions(workers=2, backend="process"))
    return {"records": snapshot_fingerprint(result.records)}
