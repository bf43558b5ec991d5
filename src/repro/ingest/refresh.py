"""Incremental snapshot refresh: per-domain patches, shard-local rebuilds.

A watcher round produces a small :class:`RecordPatch` set; this module
applies it to a serving snapshot without rebuilding the world:

- :func:`apply_patches` edits a plain :class:`CorpusSnapshot` and
  re-sorts it by domain — the refreshed snapshot is *by construction*
  byte-identical to building from scratch over the same record set
  (same sort, same dedup, same fingerprint function). Records carry
  their canonical texts, so only the patched records are encoded.
- :func:`apply_patches_sharded` routes each patch to the shard owning
  its domain (``shard_for_domain``) and rebuilds **only touched shards**
  — their records, posting lists, and fingerprints; untouched shard
  objects are reused identically (the same Python objects, so a
  downstream :class:`~repro.serve.shard.ShardedEngine` built with
  ``reuse_from`` skips their index builds too, and touched shards
  recompile only their changed records). The global fingerprint is
  computed over the merged texts and re-verified atomically:
  :func:`verify_sharded` re-derives every shard fingerprint, the routing
  invariant, and the global fingerprint before anything is served or
  written.
- :func:`write_sharded_refresh` is the disk half: it rewrites only the
  shard files whose fingerprint moved (consulting the directory's
  current manifest), then replaces the manifest last — the same
  manifest-last atomicity as a full write, at delta cost.
- :func:`refresh_differential` is the proof harness: the incrementally
  refreshed snapshot must fingerprint-equal a from-scratch
  ``snapshot_from_cache`` rebuild over the same warm cache.

Untouched shards keep the provenance they were originally cut with
(including a now-stale ``corpus_fingerprint`` note); provenance is
free-form context, never verified content — the manifest carries the
authoritative global fingerprint.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from repro._util.artifacts import write_json_atomic
from repro.errors import IngestError, SnapshotError
from repro.pipeline.records import DomainAnnotations
from repro.serve.shard import (
    MANIFEST_NAME,
    SHARDED_SCHEMA_VERSION,
    ShardedSnapshot,
    _shard_filename,
    merged_texts,
    shard_for_domain,
)
from repro.serve.snapshot import (
    CorpusSnapshot,
    record_text,
    snapshot_fingerprint,
    snapshot_from_cache,
    texts_digest,
    write_snapshot,
)

_PATCH_OPS = ("upsert", "remove")


@dataclass(frozen=True)
class RecordPatch:
    """One domain-level edit to a serving snapshot."""

    op: str  # "upsert" | "remove"
    domain: str
    record: DomainAnnotations | None = None

    def __post_init__(self) -> None:
        if self.op not in _PATCH_OPS:
            raise IngestError(
                f"unknown patch op {self.op!r}; expected one of "
                f"{_PATCH_OPS}")
        if not self.domain:
            raise IngestError("patch domain must be non-empty")
        if self.op == "upsert" and self.record is None:
            raise IngestError(
                f"upsert patch for {self.domain!r} carries no record")
        if self.op == "upsert" and self.record.domain != self.domain:
            raise IngestError(
                f"patch for {self.domain!r} carries a record for "
                f"{self.record.domain!r}")
        if self.op == "remove" and self.record is not None:
            raise IngestError(
                f"remove patch for {self.domain!r} must not carry a record")

    @classmethod
    def upsert(cls, domain: str,
               record: DomainAnnotations) -> "RecordPatch":
        return cls(op="upsert", domain=domain, record=record)

    @classmethod
    def remove(cls, domain: str) -> "RecordPatch":
        return cls(op="remove", domain=domain)


def _patched_entries(snapshot: CorpusSnapshot, patches,
                     context: str) -> list[tuple[DomainAnnotations, str]]:
    """``(record, text)`` pairs after ``patches``, in domain order.

    Only upserted records are encoded; an upsert whose text equals the
    current one keeps the current record object and text.
    """
    entries = {record.domain: (record, text) for record, text
               in zip(snapshot.records, snapshot.record_texts())}
    for patch in patches:
        if patch.op == "remove":
            if patch.domain not in entries:
                raise IngestError(
                    f"cannot remove {patch.domain!r}: not present in "
                    f"{context}")
            del entries[patch.domain]
        else:
            text = record_text(patch.record)
            current = entries.get(patch.domain)
            if current is None or current[1] != text:
                entries[patch.domain] = (patch.record, text)
    return [entries[domain] for domain in sorted(entries)]


def _entries_snapshot(entries, *, source: str,
                      provenance: dict) -> CorpusSnapshot:
    texts = tuple(text for _, text in entries)
    return CorpusSnapshot(records=tuple(record for record, _ in entries),
                          fingerprint=texts_digest(texts),
                          source=source, provenance=provenance,
                          texts=texts)


def apply_patches(snapshot: CorpusSnapshot,
                  patches: list[RecordPatch]) -> CorpusSnapshot:
    """Apply a patch set to a plain snapshot; canonical by construction
    (sorted by domain, fingerprint over the texts as ``build_snapshot``
    computes it)."""
    return _entries_snapshot(
        _patched_entries(snapshot, patches, "snapshot"),
        source=snapshot.source, provenance=dict(snapshot.provenance))


@dataclass(frozen=True)
class RefreshResult:
    """An incrementally refreshed shard set + which shards were touched."""

    sharded: ShardedSnapshot
    touched: tuple[int, ...]

    @property
    def untouched(self) -> int:
        return len(self.sharded.shards) - len(self.touched)


def touched_shards(patches: list[RecordPatch],
                   shard_count: int) -> list[int]:
    """The sorted set of shard indexes a patch set lands on."""
    return sorted({shard_for_domain(p.domain, shard_count)
                   for p in patches})


def apply_patches_sharded(sharded: ShardedSnapshot,
                          patches: list[RecordPatch]) -> RefreshResult:
    """Patch only the shards owning the changed domains.

    Untouched shard snapshots are reused as the same objects; touched
    shards are rebuilt from their current record objects and texts plus
    the patched records, which are the only ones encoded. The global
    fingerprint is computed over the merged texts, and the whole result
    is re-verified from the record objects before being returned — a bad
    patch set raises instead of producing a servable-looking lie.
    """
    count = len(sharded.shards)
    if not patches:
        return RefreshResult(sharded=sharded, touched=())
    routed: dict[int, list[RecordPatch]] = {}
    for patch in patches:
        routed.setdefault(shard_for_domain(patch.domain, count),
                          []).append(patch)

    patched = {index: _patched_entries(sharded.shards[index],
                                       shard_patches, f"shard {index}")
               for index, shard_patches in routed.items()}
    shards = list(sharded.shards)
    for index, entries in patched.items():
        shards[index] = _entries_snapshot(entries, source=sharded.source,
                                          provenance={})
    fingerprint = texts_digest(merged_texts(shards))
    for index in patched:
        shards[index] = dataclasses.replace(shards[index], provenance={
            **sharded.provenance, "shard": index, "shards": count,
            "corpus_fingerprint": fingerprint})
    refreshed = ShardedSnapshot(shards=tuple(shards),
                                fingerprint=fingerprint,
                                source=sharded.source,
                                provenance=dict(sharded.provenance))
    # Untouched shards were verified when they were first built/loaded
    # and are reused as the same objects — scoping the re-verification
    # to touched shards keeps the refresh cost proportional to the
    # delta. The global fingerprint is always re-derived over the full
    # merged stream.
    verify_sharded(refreshed, shards=sorted(routed))
    return RefreshResult(sharded=refreshed, touched=tuple(sorted(routed)))


def verify_sharded(sharded: ShardedSnapshot, *,
                   shards=None) -> None:
    """Re-verify an in-memory shard set: fingerprints + routing.

    The in-memory analogue of ``load_sharded_snapshot``'s verification
    layers, with the same machine-readable reason codes: every shard's
    recomputed fingerprint, every domain's hash placement, and the
    global fingerprint over the merged stream. ``shards`` limits the
    per-shard checks to the given indexes (the refresh path passes its
    touched set); the global fingerprint check always covers everything.
    """
    count = len(sharded.shards)
    selected = (range(count) if shards is None
                else sorted(set(shards)))
    for index in selected:
        shard = sharded.shards[index]
        texts = tuple(record_text(record) for record in shard.records)
        actual = texts_digest(texts)
        if actual != shard.fingerprint or texts != shard.record_texts():
            raise SnapshotError(
                f"shard {index} records fingerprint {actual[:12]}…, "
                f"carries {shard.fingerprint[:12]}… (or texts that "
                f"differ from its records)",
                reason="shard-fingerprint-mismatch")
        for record in shard.records:
            assigned = shard_for_domain(record.domain, count)
            if assigned != index:
                raise SnapshotError(
                    f"domain {record.domain!r} sits in shard {index} but "
                    f"hashes to shard {assigned} of {count}",
                    reason="shard-misrouted")
    actual = snapshot_fingerprint(sharded.records())
    if actual != sharded.fingerprint:
        raise SnapshotError(
            f"sharded snapshot carries global fingerprint "
            f"{sharded.fingerprint[:12]}… but its merged records "
            f"fingerprint {actual[:12]}…", reason="fingerprint-mismatch")


def write_sharded_refresh(sharded: ShardedSnapshot,
                          directory: str | Path) -> list[str]:
    """Write a refreshed shard set, rewriting only changed shard files.

    Consults the directory's current manifest: a shard whose fingerprint
    matches the manifest entry (and whose file exists) is left untouched
    on disk. The manifest is replaced last — readers see either the old
    complete set or the new one, never a mix, because unchanged files are
    valid under both manifests. Returns the shard filenames rewritten.
    """
    directory = Path(directory)
    previous: dict[str, str] = {}
    try:
        manifest = json.loads(
            (directory / MANIFEST_NAME).read_text(encoding="utf-8"))
        if isinstance(manifest, dict) \
                and manifest.get("schema") == SHARDED_SCHEMA_VERSION:
            for entry in manifest.get("files") or []:
                if isinstance(entry, dict) \
                        and isinstance(entry.get("file"), str):
                    previous[entry["file"]] = entry.get("fingerprint")
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        pass  # no (or unreadable) manifest: every shard gets written

    directory.mkdir(parents=True, exist_ok=True)
    rewritten: list[str] = []
    files = []
    for index, shard in enumerate(sharded.shards):
        name = _shard_filename(index)
        if previous.get(name) != shard.fingerprint \
                or not (directory / name).exists():
            write_snapshot(shard, directory / name)
            rewritten.append(name)
        files.append({"file": name, "fingerprint": shard.fingerprint,
                      "domains": shard.domain_count()})
    manifest = {
        "schema": SHARDED_SCHEMA_VERSION,
        "fingerprint": sharded.fingerprint,
        "shards": len(sharded.shards),
        "source": sharded.source,
        "provenance": sharded.provenance,
        "domains": sharded.domain_count(),
        "files": files,
    }
    write_json_atomic(directory / MANIFEST_NAME, manifest, indent=None,
                      sort_keys=True)
    return rewritten


def refresh_differential(corpus, options, cache, refreshed, *,
                         domains=None) -> dict:
    """The differential proof: incremental refresh ≡ from-scratch build.

    Rebuilds a snapshot straight from the warm cache (the ground truth a
    full pipeline re-run would checkpoint) and compares fingerprints with
    the incrementally refreshed snapshot — sharded sets are additionally
    checked through their merged record stream. Returns a JSON-ready
    verdict payload; ``identical`` is the acceptance bit.
    """
    rebuilt = snapshot_from_cache(corpus, options, cache, domains=domains)
    if isinstance(refreshed, ShardedSnapshot):
        incremental = refreshed.fingerprint
        merged = snapshot_fingerprint(refreshed.records())
    else:
        incremental = refreshed.fingerprint
        merged = incremental
    return {
        "incremental_fingerprint": incremental,
        "merged_fingerprint": merged,
        "rebuild_fingerprint": rebuilt.fingerprint,
        "identical": incremental == merged == rebuilt.fingerprint,
    }


__all__ = [
    "RecordPatch",
    "RefreshResult",
    "apply_patches",
    "apply_patches_sharded",
    "refresh_differential",
    "touched_shards",
    "verify_sharded",
    "write_sharded_refresh",
]
