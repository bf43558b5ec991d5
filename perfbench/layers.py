"""Per-layer metrics, computed from the traced pass's spans and counts.

Conventions (README.md lists each metric with the end-to-end metric it
should move):

- ``*_s`` is the mean self time per call in seconds, except where the
  table says ``incl`` (mean inclusive time per call: a build, a round, a
  swap) or ``per op`` (total self time divided by the workload's ops).
- counts are per op: per domain on batch-cascade, per request on
  serve-wide, per round on ingest-live; ``*_per_domain`` divides by the
  number of ``crawl_domain`` calls instead.
- a layer a workload leaves idle reports 0.
"""

from __future__ import annotations

from util import END_TO_END, percentile

KINDS = ("domain", "filter", "sector", "top-descriptors", "aspect", "table",
         "predicate", "compliance")

#: name -> unit, in report order.
PER_LAYER = {
    "crawler.crawl_s": "s",
    "web.fetches_per_domain": "count",
    "htmlkit.parse_calls_per_domain": "count",
    "htmlkit.parse_s": "s",
    "htmlkit.render_s": "s",
    "lang.detect_calls": "count",
    "lang.detect_s": "s",
    "pipeline.preprocess_s": "s",
    "pipeline.segment_s": "s",
    "pipeline.annotate_s.types": "s",
    "pipeline.annotate_s.purposes": "s",
    "pipeline.annotate_s.handling": "s",
    "pipeline.annotate_s.rights": "s",
    "pipeline.verify_calls": "count",
    "pipeline.verify_reject_share": "share",
    "pipeline.cascade_s": "s",
    "pipeline.cascade.escalation_share": "share",
    "pipeline.cache.hit_share": "share",
    "pipeline.cache.load_s": "s",
    "pipeline.cache.store_s": "s",
    "chatbot.calls_per_domain": "count",
    "chatbot.complete_s": "s",
    "chatbot.prompt_tokens": "tokens",
    "chatbot.completion_tokens": "tokens",
    "distill.train_s": "s",
    "compliance.holds_calls": "count",
    "compliance.atoms_calls": "count",
    "compliance.eval_s": "s",
    "snapshot.load_s": "s",
    "snapshot.build_s": "s",
    "snapshot.record_encodes": "count",
    "index.build_s": "s",
    "index.compliance_share": "share",
    **{f"query.engine_s.{kind}": "s" for kind in KINDS},
    "query.serialize_s": "s",
    "server.queue_wait_ms": "ms",
    "server.cache_hit_rate": "share",
    "server.shed": "count",
    "server.errors": "count",
    "shard.partition_s": "s",
    "shard.engine_build_s": "s",
    "shard.scatter_s": "s",
    "ingest.round_s": "s",
    "ingest.patch_s": "s",
    "ingest.swap_s": "s",
    "ingest.annotated_share": "share",
    "ingest.shards_rebuilt": "count",
    "generator.lag_ms": "ms",
    **{f"trace.overhead.{name}": unit
       for name, unit in END_TO_END.items()},
}

#: Spans or counts that must be non-zero on each workload: the layers it
#: exists to exercise.
EXPECTED = {
    "batch-cascade": ("crawler.crawl", "web.fetch", "htmlkit.parse",
                      "htmlkit.render", "lang.detect", "pipeline.preprocess",
                      "pipeline.segment", "pipeline.cascade",
                      "pipeline.verify", "chatbot.complete", "distill.train"),
    "serve-wide": ("snapshot.load", "index.build", "compliance.compile",
                   "compliance.pack_rows", "compliance.holds",
                   "compliance.atoms", "snapshot.record_encode",
                   "query.serialize",
                   *(f"query.engine.{kind}" for kind in KINDS)),
    "ingest-live": ("pipeline.cache.load", "pipeline.cache.store",
                    "crawler.crawl", "web.fetch", "htmlkit.parse",
                    "htmlkit.render", "lang.detect", "pipeline.preprocess",
                    "pipeline.segment", "pipeline.annotate.types",
                    "pipeline.annotate.purposes", "pipeline.annotate.handling",
                    "pipeline.annotate.rights", "pipeline.verify",
                    "chatbot.complete", "ingest.round",
                    "ingest.patch", "ingest.swap", "shard.partition",
                    "shard.engine_build", "shard.scatter", "snapshot.build",
                    "index.build", "compliance.holds", "query.serialize"),
}


def layer_metrics(workload, agg: dict) -> dict:
    """Every per-layer metric for one traced pass (0 where idle)."""
    calls, self_s, incl_s = agg["calls"], agg["self_s"], agg["incl_s"]
    nested, counts = agg["nested"], agg["counts"]
    ops = max(1, workload.ops())
    domains = max(1, calls["crawler.crawl"])

    def mean(table, name):
        return table[name] / calls[name] if calls[name] else 0.0

    def share(part, whole):
        return part / whole if whole else 0.0

    missing = [name for name in EXPECTED[workload.name]
               if not calls[name] and not counts[name]]
    for name in missing:
        workload.check(False, f"traced call count of {name} is zero")

    out = {
        "crawler.crawl_s": mean(self_s, "crawler.crawl"),
        "web.fetches_per_domain": counts["web.fetch"] / domains,
        "htmlkit.parse_calls_per_domain": calls["htmlkit.parse"] / domains,
        "htmlkit.parse_s": mean(self_s, "htmlkit.parse"),
        "htmlkit.render_s": mean(self_s, "htmlkit.render"),
        "lang.detect_calls": calls["lang.detect"] / ops,
        "lang.detect_s": mean(self_s, "lang.detect"),
        "pipeline.preprocess_s": mean(self_s, "pipeline.preprocess"),
        "pipeline.segment_s": mean(self_s, "pipeline.segment"),
        "pipeline.verify_calls": calls["pipeline.verify"] / ops,
        "pipeline.verify_reject_share": share(
            counts["pipeline.verify.rejected"], calls["pipeline.verify"]),
        "pipeline.cascade_s": mean(self_s, "pipeline.cascade"),
        "pipeline.cascade.escalation_share": 0.0,
        "pipeline.cache.hit_share": share(counts["pipeline.cache.hit"],
                                          calls["pipeline.cache.load"]),
        "pipeline.cache.load_s": mean(self_s, "pipeline.cache.load"),
        "pipeline.cache.store_s": mean(self_s, "pipeline.cache.store"),
        "chatbot.calls_per_domain": calls["chatbot.complete"] / domains,
        "chatbot.complete_s": mean(self_s, "chatbot.complete"),
        "chatbot.prompt_tokens": counts["chatbot.prompt_tokens"] / ops,
        "chatbot.completion_tokens":
            counts["chatbot.completion_tokens"] / ops,
        "distill.train_s": incl_s["distill.train"],
        "compliance.holds_calls": calls["compliance.holds"] / ops,
        "compliance.atoms_calls": counts["compliance.atoms"] / ops,
        "compliance.eval_s": self_s["compliance.holds"] / ops,
        "snapshot.load_s": mean(incl_s, "snapshot.load"),
        "snapshot.build_s": mean(self_s, "snapshot.build"),
        "snapshot.record_encodes": counts["snapshot.record_encode"] / ops,
        "index.build_s": mean(incl_s, "index.build"),
        "index.compliance_share": share(
            nested[("compliance.compile", "index.build")]
            + nested[("compliance.pack_rows", "index.build")],
            incl_s["index.build"]),
        "query.serialize_s": mean(self_s, "query.serialize"),
        "shard.partition_s": mean(self_s, "shard.partition"),
        "shard.engine_build_s": mean(self_s, "shard.engine_build"),
        "shard.scatter_s": mean(self_s, "shard.scatter"),
        "ingest.round_s": mean(incl_s, "ingest.round"),
        "ingest.patch_s": mean(incl_s, "ingest.patch"),
        "ingest.swap_s": mean(incl_s, "ingest.swap"),
        "ingest.annotated_share": 0.0,
        "ingest.shards_rebuilt": counts["ingest.shards_rebuilt"] / ops,
        "server.queue_wait_ms": 0.0,
        "server.cache_hit_rate": 0.0,
        "server.shed": 0,
        "server.errors": 0,
        "generator.lag_ms": 0.0,
    }
    for aspect in ("types", "purposes", "handling", "rights"):
        out[f"pipeline.annotate_s.{aspect}"] = mean(
            self_s, f"pipeline.annotate.{aspect}")
    for kind in KINDS:
        out[f"query.engine_s.{kind}"] = mean(self_s, f"query.engine.{kind}")
    out.update(workload.layer_extras())

    if hasattr(workload, "server_metrics"):
        metrics = workload.server_metrics()
        served = metrics.counters.counts()
        out["server.cache_hit_rate"] = metrics.cache_hit_rate()
        out["server.shed"] = metrics.shed_count()
        out["server.errors"] = sum(count for name, count in served.items()
                                   if name.endswith(".error"))
        # Client latency minus the time the request spent in the engine
        # and serializer: admission, queueing, cache and GIL waits.
        engine = incl_s["shard.scatter"] + sum(
            incl_s[f"query.engine.{kind}"]
            - nested[(f"query.engine.{kind}", "shard.scatter")]
            for kind in KINDS)
        serialize = incl_s["query.serialize"]
        ok = sum(count for name, count in served.items()
                 if name.endswith(".ok"))
        out["server.queue_wait_ms"] = max(
            0.0, workload.latency_sum_s() - engine - serialize) \
            / max(1, ok) * 1e3
        lags = workload.lag_samples()
        if lags:
            out["generator.lag_ms"] = percentile(lags, 99.0) * 1e3
    return out
