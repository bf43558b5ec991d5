"""Sharded snapshots and the scatter-gather query engine.

Horizontal structure for the serving layer: a :class:`CorpusSnapshot`
is partitioned by **domain hash** into N independently-loadable shards,
each of which builds its own :class:`~repro.serve.index.CorpusIndex`
(inverted indexes, atom posting lists, per-rule verdict rows). A
:class:`ShardedEngine` then answers every query class with output
**byte-identical** to the single-index
:class:`~repro.serve.query.QueryEngine`:

- **Routing.** ``shard_for_domain`` is a stable SHA-256 placement (never
  Python's randomized ``hash``), so a domain's shard is a pure function
  of ``(domain, shard_count)`` — the same on every host, every process,
  every run. ``DomainLookup`` routes to exactly one shard.
- **Query-time scatter-gather.** ``FacetFilter`` fans out and k-way
  merges per-shard sorted domain lists (shards partition the domain
  space, so the merge of sorted disjoint lists *is* the global sorted
  list); ``AspectMentions`` lazily merges per-shard sorted segment
  streams and stops at the limit; ``PredicateQuery`` runs candidate
  pruning + verification inside each shard and merges matched forms in
  domain order.
- **Build-time partial merges.** Descriptor counters are additive and
  rendered through a totally-ordered sort, so sector aggregates and
  top-descriptor queries serve from per-shard counters merged once at
  load. Compliance verdict rows are per-domain and merge by union.
- **Table aggregates from the merged stream.** Table payloads embed
  order-sensitive float reductions (``CoverageStat.sd`` sums in record
  order) and ``Counter.most_common`` insertion-order tie-breaks;
  merging per-shard *payloads* cannot be byte-stable, so tables are
  built once from the k-way-merged canonical record stream through the
  exact single-index code path
  (:func:`~repro.serve.index.build_aggregate_payloads`).

The on-disk layout is a directory: a ``manifest.json`` naming the shard
files, their fingerprints, and the **global** corpus fingerprint, plus
one ordinary verified snapshot file per shard. Loading re-verifies every
shard, the routing invariant (each domain lives in its hash-assigned
shard), and the recomputed global fingerprint — a torn, reordered, or
misassembled shard set is rejected, never served.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from operator import attrgetter
from pathlib import Path

from repro._util.artifacts import write_json_atomic
from repro.compliance.logic import LogicalForm
from repro.compliance.predicate import holds, parse_predicate
from repro.compliance.rules import RULE_PACKS
from repro.errors import SnapshotError
from repro.pipeline.records import DomainAnnotations
from repro.serve.index import (
    FACETS,
    CorpusIndex,
    _sorted_counter,
    build_aggregate_payloads,
)
from repro.serve.query import (
    AspectMentions,
    DomainLookup,
    FacetFilter,
    PredicateQuery,
    Query,
    QueryEngine,
    QueryResult,
    query_kind,
    validate_query,
)
from repro.serve.snapshot import (
    CorpusSnapshot,
    build_snapshot,
    load_snapshot,
    texts_digest,
    write_snapshot,
)

#: Bump when the sharded directory layout changes.
SHARDED_SCHEMA_VERSION = 1

#: Manifest filename inside a sharded snapshot directory.
MANIFEST_NAME = "manifest.json"

_DOMAIN_KEY = attrgetter("domain")


def shard_for_domain(domain: str, shards: int) -> int:
    """Stable shard placement: SHA-256 of the domain, mod shard count.

    Deliberately not Python's ``hash`` (randomized per process) — the
    placement must agree across hosts, restarts, and writers/readers of
    the same sharded directory.
    """
    if shards < 1:
        raise SnapshotError(f"shard count must be >= 1, got {shards}")
    digest = hashlib.sha256(domain.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


@dataclass(frozen=True)
class ShardedSnapshot:
    """N per-shard snapshots plus the global corpus fingerprint.

    ``fingerprint`` is the fingerprint of the *unsharded* snapshot the
    shards were cut from — the content id query answers are keyed by —
    so re-sharding the same corpus at a different N never moves it.
    """

    shards: tuple[CorpusSnapshot, ...]
    fingerprint: str
    source: str = "records"
    provenance: dict = field(default_factory=dict)

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def domain_count(self) -> int:
        return sum(s.domain_count() for s in self.shards)

    def records(self) -> list[DomainAnnotations]:
        """All records, in global canonical (domain-sorted) order."""
        return list(heapq.merge(*(s.records for s in self.shards),
                                key=_DOMAIN_KEY))


def merged_texts(shards) -> list[str]:
    """The k-way merge of shard snapshots' texts by domain."""
    return [text for _, text in heapq.merge(
        *(zip([r.domain for r in shard.records], shard.record_texts())
          for shard in shards))]


def partition_snapshot(snapshot: CorpusSnapshot,
                       shards: int) -> ShardedSnapshot:
    """Cut one snapshot into N hash-routed shard snapshots.

    Each shard is a full-fledged verified snapshot (its own fingerprint
    over its own records); shard provenance records the placement so a
    shard file found on disk is self-describing. Shards hold the parent's
    record objects and texts; no record is encoded again.
    """
    if shards < 1:
        raise SnapshotError(f"shard count must be >= 1, got {shards}")
    buckets: list[tuple[list, list]] = [([], []) for _ in range(shards)]
    for record, text in zip(snapshot.records, snapshot.record_texts()):
        records, texts = buckets[shard_for_domain(record.domain, shards)]
        records.append(record)
        texts.append(text)
    shard_snapshots = tuple(
        CorpusSnapshot(records=tuple(records),
                       fingerprint=texts_digest(texts),
                       source=snapshot.source,
                       provenance={**snapshot.provenance,
                                   "shard": index, "shards": shards,
                                   "corpus_fingerprint":
                                       snapshot.fingerprint},
                       texts=tuple(texts))
        for index, (records, texts) in enumerate(buckets))
    return ShardedSnapshot(shards=shard_snapshots,
                           fingerprint=snapshot.fingerprint,
                           source=snapshot.source,
                           provenance=dict(snapshot.provenance))


def merged_snapshot(sharded: ShardedSnapshot) -> CorpusSnapshot:
    """Reassemble the single-index snapshot a shard set was cut from."""
    return build_snapshot(sharded.records(), source=sharded.source,
                          provenance=dict(sharded.provenance))


# -- disk layout ---------------------------------------------------------


def _shard_filename(index: int) -> str:
    return f"shard-{index:04d}.snap.json"


def write_sharded_snapshot(sharded: ShardedSnapshot,
                           directory: str | Path) -> Path:
    """Write shard files + manifest into ``directory`` (manifest last).

    Every file write is atomic, and the manifest — the only entry point
    readers use — lands only after all shard files are durable, so a
    crash mid-write leaves either the previous manifest or none.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for index, shard in enumerate(sharded.shards):
        name = _shard_filename(index)
        write_snapshot(shard, directory / name)
        files.append({"file": name, "fingerprint": shard.fingerprint,
                      "domains": shard.domain_count()})
    manifest = {
        "schema": SHARDED_SCHEMA_VERSION,
        "fingerprint": sharded.fingerprint,
        "shards": sharded.shard_count,
        "source": sharded.source,
        "provenance": sharded.provenance,
        "domains": sharded.domain_count(),
        "files": files,
    }
    write_json_atomic(directory / MANIFEST_NAME, manifest, indent=None,
                      sort_keys=True)
    return directory


def load_sharded_snapshot(directory: str | Path) -> ShardedSnapshot:
    """Load and fully re-verify a sharded snapshot directory.

    Four layers of verification, each with a machine-readable
    :class:`~repro.errors.SnapshotError` reason: the manifest itself
    (``unreadable``/``not-json``/``not-object``/``schema-mismatch``/
    ``missing-shards``), each shard file (all the single-snapshot
    reasons, plus ``shard-fingerprint-mismatch`` against the manifest),
    the routing invariant (``shard-misrouted`` if any domain sits in a
    shard its hash does not map to), and the recomputed **global**
    fingerprint over the merged record stream (``fingerprint-mismatch``).
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SnapshotError(
            f"cannot read sharded manifest {manifest_path}: {exc}",
            reason="unreadable") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SnapshotError(
            f"sharded manifest {manifest_path} is not valid JSON: {exc}",
            reason="not-json") from exc
    if not isinstance(manifest, dict):
        raise SnapshotError(
            f"sharded manifest {manifest_path} is not a JSON object",
            reason="not-object")
    if manifest.get("schema") != SHARDED_SCHEMA_VERSION:
        raise SnapshotError(
            f"sharded manifest {manifest_path} has schema "
            f"{manifest.get('schema')!r}, expected "
            f"{SHARDED_SCHEMA_VERSION}", reason="schema-mismatch")
    files = manifest.get("files")
    count = manifest.get("shards")
    if not isinstance(files, list) or not files \
            or not isinstance(count, int) or len(files) != count:
        raise SnapshotError(
            f"sharded manifest {manifest_path} names "
            f"{len(files) if isinstance(files, list) else 'no'} shard "
            f"files but declares shards={count!r}",
            reason="missing-shards")

    shards: list[CorpusSnapshot] = []
    for index, entry in enumerate(files):
        if not isinstance(entry, dict) \
                or not isinstance(entry.get("file"), str):
            raise SnapshotError(
                f"sharded manifest {manifest_path} entry {index} names "
                f"no shard file", reason="missing-shards")
        shard = load_snapshot(directory / entry["file"])
        if shard.fingerprint != entry.get("fingerprint"):
            raise SnapshotError(
                f"shard {index} ({entry['file']}) fingerprints "
                f"{shard.fingerprint[:12]}…, manifest expected "
                f"{str(entry.get('fingerprint'))[:12]}…",
                reason="shard-fingerprint-mismatch")
        for record in shard.records:
            assigned = shard_for_domain(record.domain, count)
            if assigned != index:
                raise SnapshotError(
                    f"domain {record.domain!r} sits in shard {index} but "
                    f"hashes to shard {assigned} of {count} — the shard "
                    f"set was misassembled or written at a different "
                    f"shard count", reason="shard-misrouted")
        shards.append(shard)

    actual = texts_digest(merged_texts(shards))
    stored = manifest.get("fingerprint")
    if actual != stored:
        raise SnapshotError(
            f"sharded snapshot {directory} failed global fingerprint "
            f"verification: manifest says {str(stored)[:12]}…, merged "
            f"records fingerprint {actual[:12]}…",
            reason="fingerprint-mismatch")
    return ShardedSnapshot(shards=tuple(shards), fingerprint=actual,
                           source=str(manifest.get("source", "records")),
                           provenance=dict(manifest.get("provenance")
                                           or {}))


# -- scatter-gather engine -----------------------------------------------


def _merge_domain_lists(maps: list[dict[str, list[str]]]
                        ) -> dict[str, list[str]]:
    """Union keyed sorted-domain lists across shards (lists disjoint)."""
    keys = sorted(set().union(*maps)) if maps else []
    return {key: list(heapq.merge(*(m.get(key, []) for m in maps)))
            for key in keys}


def _merge_counters(counters: list[Counter]) -> Counter:
    merged: Counter = Counter()
    for counter in counters:
        merged.update(counter)
    return merged


class ShardedEngine:
    """Scatter-gather execution over per-shard indexes.

    Duck-types the :class:`~repro.serve.index.CorpusIndex` read surface
    the load generator and the gather-side handlers consume (merged
    ``by_domain``, facet maps, descriptor counters, aggregates,
    compliance structures), so a sharded server drops into every place a
    single index fits. ``execute`` is byte-identical to
    ``QueryEngine(CorpusIndex.build(snapshot)).execute`` for every query
    class — the differential suite and ``bench_serve_sharded`` hold it
    to that.

    ``reuse_from`` is the incremental-refresh seam: pass the engine built
    over the *previous* snapshot generation and any shard whose content
    fingerprint is unchanged adopts the old engine's already-built
    :class:`CorpusIndex` instead of rebuilding it. Safe because a shard
    index is a pure function of the shard snapshot's records (which
    determine its fingerprint) and is read-only after build; ``reused_shards``
    reports how many rebuilds were skipped. A shard that is rebuilt
    still hands the old index at its position to ``CorpusIndex.build``
    as ``reuse``, so only its new or changed records are compiled and
    evaluated.
    """

    def __init__(self, sharded: ShardedSnapshot,
                 reuse_from: "ShardedEngine | None" = None):
        self.sharded = sharded
        self.fingerprint = sharded.fingerprint
        reusable: dict[str, CorpusIndex] = {}
        previous: list = [None] * sharded.shard_count
        if reuse_from is not None:
            for index in reuse_from.shard_indexes:
                reusable[index.snapshot.fingerprint] = index
            if reuse_from.shard_count == sharded.shard_count:
                previous = list(reuse_from.shard_indexes)
        self.reused_shards = 0
        self.shard_indexes = []
        for shard, before in zip(sharded.shards, previous):
            cached = reusable.get(shard.fingerprint)
            if cached is not None:
                self.shard_indexes.append(cached)
                self.reused_shards += 1
            else:
                self.shard_indexes.append(
                    CorpusIndex.build(shard, reuse=before))
        self.shard_engines = [QueryEngine(index)
                              for index in self.shard_indexes]
        records = sharded.records()

        # Merged read views (build-time partial merges).
        self.by_domain = {record.domain: record for record in records}
        self.domains_by_sector = _merge_domain_lists(
            [i.domains_by_sector for i in self.shard_indexes])
        self.domains_by_status = _merge_domain_lists(
            [i.domains_by_status for i in self.shard_indexes])
        self.domains_by_category = {
            facet: _merge_domain_lists(
                [i.domains_by_category[facet] for i in self.shard_indexes])
            for facet in FACETS}
        self.domains_by_descriptor = {
            facet: _merge_domain_lists(
                [i.domains_by_descriptor[facet]
                 for i in self.shard_indexes])
            for facet in FACETS}
        self.descriptor_counts = {
            facet: _merge_counters([i.descriptor_counts[facet]
                                    for i in self.shard_indexes])
            for facet in FACETS}
        self.descriptor_counts_by_sector = {
            facet: {
                sector: _merge_counters(
                    [i.descriptor_counts_by_sector[facet].get(
                        sector, Counter()) for i in self.shard_indexes])
                for sector in self.domains_by_sector
            }
            for facet in FACETS}
        self.logical_forms: tuple[LogicalForm, ...] = tuple(
            heapq.merge(*(i.logical_forms for i in self.shard_indexes),
                        key=_DOMAIN_KEY))
        self.atoms_by_aspect = {
            aspect: sorted({atom for i in self.shard_indexes
                            for atom in i.atoms_by_aspect.get(aspect, ())},
                           key=lambda a: a.key())
            for aspect in sorted({aspect for i in self.shard_indexes
                                  for aspect in i.atoms_by_aspect})}
        self.compliance_rows = {
            pack: {
                rule_id: {
                    domain: row
                    for i in self.shard_indexes
                    for domain, row
                    in i.compliance_rows[pack][rule_id].items()
                }
                for rule_id in RULE_PACKS[pack].rule_ids()
            }
            for pack in RULE_PACKS}

        statuses: dict[str, int] = {}
        for record in records:
            statuses[record.status] = statuses.get(record.status, 0) + 1
        # Tables: merged canonical record stream through the single-index
        # code path — see the module docstring for why payload-level
        # merging cannot be byte-stable.
        self.aggregates = build_aggregate_payloads(
            records, fingerprint=sharded.fingerprint, statuses=statuses,
            sector_sizes={sector: len(domains) for sector, domains
                          in self.domains_by_sector.items()})
        self._gather = QueryEngine(self)

    @property
    def shard_count(self) -> int:
        return len(self.shard_indexes)

    def shard_domain_counts(self) -> list[int]:
        return [len(index.by_domain) for index in self.shard_indexes]

    def top_descriptors(self, facet: str, k: int,
                        sector: str | None = None) -> list[tuple[str, int]]:
        """Top-k over merged counters — same total order as one index."""
        if sector is None:
            counter = self.descriptor_counts[facet]
        else:
            counter = self.descriptor_counts_by_sector[facet].get(
                sector, Counter())
        return _sorted_counter(counter)[:k]

    # -- routing ---------------------------------------------------------

    def route(self, query: Query) -> int | None:
        """The single shard a query resolves on, or ``None`` to scatter."""
        if isinstance(query, DomainLookup):
            return shard_for_domain(query.domain, self.shard_count)
        return None

    # -- execution -------------------------------------------------------

    def execute(self, query: Query) -> QueryResult:
        validate_query(query)
        kind = query_kind(query)
        shard = self.route(query)
        if shard is not None:
            return self.shard_engines[shard].execute(query)
        if isinstance(query, FacetFilter):
            return QueryResult(kind=kind, payload=self._gather_filter(query))
        if isinstance(query, AspectMentions):
            return QueryResult(kind=kind, payload=self._gather_aspect(query))
        if isinstance(query, PredicateQuery):
            return QueryResult(kind=kind,
                               payload=self._gather_predicate(query))
        # sector / top-descriptors / table / compliance serve from the
        # build-time merged partials via the shared handler code.
        return self._gather.execute(query)

    def _gather_filter(self, query: FacetFilter) -> dict:
        """Fan out; merge per-shard sorted, disjoint domain lists."""
        partials = [engine._run_filter(query)
                    for engine in self.shard_engines]
        domains = list(heapq.merge(*(p["domains"] for p in partials)))
        return {"facet": query.facet, "count": len(domains),
                "domains": domains}

    def _gather_aspect(self, query: AspectMentions) -> dict:
        """Lazy k-way merge of per-shard sorted segment streams."""
        streams = [index.segments_by_aspect.get(query.aspect, [])
                   for index in self.shard_indexes]
        merged = islice(heapq.merge(*streams), query.limit)
        return {
            "aspect": query.aspect,
            "total": sum(len(stream) for stream in streams),
            "mentions": [
                {"domain": domain, "line": line, "verbatim": verbatim}
                for domain, line, verbatim in merged
            ],
        }

    def _gather_predicate(self, query: PredicateQuery) -> dict:
        """Prune + verify inside each shard; merge matches by domain."""
        from repro.compliance.oracle import predicate_answer_payload

        pred = parse_predicate(query.predicate)
        matched_streams: list[list[LogicalForm]] = []
        total = 0
        for index in self.shard_indexes:
            candidates = index.candidate_domains(pred)
            matched_streams.append(
                [form for form in index.logical_forms
                 if form.domain in candidates and holds(pred, form)])
            total += len(index.logical_forms)
        matched = list(heapq.merge(*matched_streams, key=_DOMAIN_KEY))
        return predicate_answer_payload(pred, matched, total,
                                        evidence=query.evidence)


__all__ = [
    "MANIFEST_NAME",
    "SHARDED_SCHEMA_VERSION",
    "ShardedEngine",
    "ShardedSnapshot",
    "load_sharded_snapshot",
    "merged_snapshot",
    "merged_texts",
    "partition_snapshot",
    "shard_for_domain",
    "write_sharded_snapshot",
]
