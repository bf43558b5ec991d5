"""Record texts: the fingerprint formula and per-record compliance reuse.

Snapshots carry each record's canonical JSON text and compute every
fingerprint from those texts. These tests pin that the formula is
byte-equal to ``content_digest`` over the canonical record payloads
(golden corpora and generated records), and that a refreshed shard set
whose indexes adopt unchanged records' compiled compliance equals a
fresh build in every structure.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro._util.artifacts import content_digest
from repro.ingest import RecordPatch, apply_patches_sharded, verify_sharded
from repro.pipeline.records import (
    DomainAnnotations,
    HandlingAnnotation,
    PurposeAnnotation,
    RightsAnnotation,
    TypeAnnotation,
    read_jsonl,
)
from repro.serve import (
    CorpusIndex,
    ShardedEngine,
    build_snapshot,
    load_snapshot,
    partition_snapshot,
    shard_for_domain,
    snapshot_fingerprint,
    write_snapshot,
)
from repro.serve.snapshot import record_text

GOLDEN = Path(__file__).parent / "golden"

_words = st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                 min_size=1, max_size=16)
_lines = st.integers(min_value=1, max_value=60)
_types = st.builds(
    TypeAnnotation,
    category=st.sampled_from(["Contact information", "Location"]),
    meta_category=st.sampled_from(["Personal identifiers",
                                   "Technical data"]),
    descriptor=_words, verbatim=_words, line=_lines, novel=st.booleans())
_purposes = st.builds(
    PurposeAnnotation,
    category=st.sampled_from(["Marketing", "Analytics"]),
    meta_category=st.sampled_from(["Business", "Operations"]),
    descriptor=_words, verbatim=_words, line=_lines, novel=st.booleans())
_handling = st.builds(
    HandlingAnnotation,
    group=st.sampled_from(["Data retention", "Data protection"]),
    label=_words, verbatim=_words, line=_lines,
    period_text=st.none() | _words,
    period_days=st.none() | st.integers(min_value=1, max_value=3650))
_rights = st.builds(
    RightsAnnotation,
    group=st.sampled_from(["User choices", "User access"]),
    label=_words, verbatim=_words, line=_lines)
#: Few domains, so generated lists carry duplicates.
_records = st.builds(
    DomainAnnotations,
    domain=st.sampled_from(["a.com", "b.net", "c.org", "d.com", "é.org"]),
    sector=st.sampled_from(["FI", "HC", "--"]),
    status=st.sampled_from(["annotated", "no-annotations",
                            "crawl-failed"]),
    types=st.lists(_types, max_size=3),
    purposes=st.lists(_purposes, max_size=2),
    handling=st.lists(_handling, max_size=2),
    rights=st.lists(_rights, max_size=2),
    fallback_aspects=st.lists(st.sampled_from(["types", "rights"]),
                              max_size=2),
    extracted_aspects=st.lists(st.sampled_from(["types", "purposes"]),
                               max_size=2),
    policy_words=st.integers(min_value=0, max_value=5000),
    hallucinations_filtered=st.integers(min_value=0, max_value=9))


def _canonical(records):
    by_domain = {}
    for record in records:
        by_domain.setdefault(record.domain, record)
    return [by_domain[domain] for domain in sorted(by_domain)]


def _reference(records) -> str:
    """The fingerprint as defined: a digest over decoded payloads."""
    return content_digest([json.loads(r.to_json())
                           for r in _canonical(records)])


def _check_formula(records, tmp_path: Path, shards: int = 3) -> None:
    for record in records:
        assert record.to_json() == json.dumps(dataclasses.asdict(record),
                                              ensure_ascii=False)
    expected = _reference(records)
    snapshot = build_snapshot(records)
    assert snapshot_fingerprint(records) == expected
    assert snapshot.fingerprint == expected
    assert snapshot.texts == tuple(record_text(r) for r in snapshot.records)

    path = tmp_path / "snapshot.json"
    write_snapshot(snapshot, path)
    loaded = load_snapshot(path)
    assert loaded.fingerprint == expected
    assert loaded.texts == snapshot.texts

    sharded = partition_snapshot(loaded, shards)
    assert sharded.fingerprint == expected
    for index, shard in enumerate(sharded.shards):
        mine = [r for r in records
                if shard_for_domain(r.domain, shards) == index]
        assert shard.fingerprint == _reference(mine)
    verify_sharded(sharded)


@pytest.mark.parametrize("name", ["records.jsonl", "records_cascade.jsonl"])
def test_fingerprint_formula_on_golden_records(name, tmp_path):
    records = read_jsonl(GOLDEN / name)
    assert records
    _check_formula(records, tmp_path)


@given(st.lists(_records, max_size=8))
@settings(max_examples=40, deadline=None)
def test_fingerprint_formula_on_generated_records(tmp_path_factory, records):
    _check_formula(records, tmp_path_factory.mktemp("texts"))


def test_loaded_record_missing_optional_keys_carries_its_own_text(tmp_path):
    """A stored record without its optional keys verifies against the
    file's bytes, but the snapshot carries the text of the record it
    parses to, so shard fingerprints describe the records they hold."""
    payload = {"domain": "short.com", "sector": "FI", "status": "annotated",
               "types": [{"category": "Location",
                          "meta_category": "Personal identifiers",
                          "descriptor": "gps", "verbatim": "we use gps",
                          "line": 3}]}
    stored = [payload]
    path = tmp_path / "short.json"
    path.write_text(json.dumps({
        "schema": 1, "fingerprint": content_digest(stored),
        "source": "records", "provenance": {}, "records": stored}))
    loaded = load_snapshot(path)
    assert loaded.fingerprint == content_digest(stored)
    assert loaded.texts == (record_text(loaded.records[0]),)
    for shard in partition_snapshot(loaded, 2).shards:
        assert shard.fingerprint == _reference(shard.records)


# -- refresh reuse -------------------------------------------------------


def _compliance_view(index):
    return (index.logical_forms, index.domains_by_atom,
            index.atoms_by_aspect, index.compliance_rows)


def _random_patches(rng: random.Random, current: dict, pool: list,
                    serial: list) -> list[RecordPatch]:
    """One round: changed content, a new domain, a remove, and an upsert
    of identical content, each with some probability."""
    patches = []
    domains = sorted(current)
    if domains and rng.random() < 0.8:
        domain = rng.choice(domains)
        donor = rng.choice(pool)
        patches.append(RecordPatch.upsert(
            domain, dataclasses.replace(donor, domain=domain)))
    if rng.random() < 0.6:
        serial[0] += 1
        domain = f"new-{serial[0]}.example"
        patches.append(RecordPatch.upsert(
            domain, dataclasses.replace(rng.choice(pool), domain=domain)))
    untouched = [d for d in domains if d not in {p.domain for p in patches}]
    if len(untouched) > 2 and rng.random() < 0.5:
        patches.append(RecordPatch.remove(rng.choice(untouched)))
        untouched = [d for d in untouched if d != patches[-1].domain]
    if untouched:
        domain = rng.choice(untouched)
        patches.append(RecordPatch.upsert(
            domain, DomainAnnotations.from_json(current[domain].to_json())))
    return patches


@pytest.fixture(scope="module")
def golden_pool():
    return read_jsonl(GOLDEN / "records.jsonl") \
        + read_jsonl(GOLDEN / "records_cascade.jsonl")


@pytest.mark.parametrize("seed", range(6))
def test_refresh_reuse_matches_fresh_builds(golden_pool, seed):
    rng = random.Random(seed)
    shards = rng.choice([1, 3, 4])
    current = {r.domain: r for r in read_jsonl(GOLDEN / "records.jsonl")}
    sharded = partition_snapshot(build_snapshot(list(current.values())),
                                 shards)
    engine = ShardedEngine(sharded)
    serial = [0]
    for _ in range(5):
        patches = _random_patches(rng, current, golden_pool, serial)
        for patch in patches:
            if patch.op == "remove":
                del current[patch.domain]
            else:
                current[patch.domain] = patch.record
        result = apply_patches_sharded(sharded, patches)
        reusing = ShardedEngine(result.sharded, reuse_from=engine)

        scratch = partition_snapshot(build_snapshot(list(current.values())),
                                     shards)
        assert result.sharded.fingerprint == scratch.fingerprint
        assert [s.fingerprint for s in result.sharded.shards] == \
            [s.fingerprint for s in scratch.shards]
        for index, shard in zip(reusing.shard_indexes,
                                result.sharded.shards):
            assert _compliance_view(index) == \
                _compliance_view(CorpusIndex.build(shard))
        sharded, engine = result.sharded, reusing


def test_unchanged_records_adopt_compiled_forms():
    """In a rebuilt shard, only the changed record is compiled again."""
    records = read_jsonl(GOLDEN / "records.jsonl")
    old = CorpusIndex.build(build_snapshot(records))
    victim = next(r for r in records if r.types)
    edited = dataclasses.replace(
        victim, types=[dataclasses.replace(victim.types[0],
                                           verbatim="we do not sell data")]
        + list(victim.types[1:]))
    patched = build_snapshot([edited if r is victim else r
                              for r in records])
    new = CorpusIndex.build(patched, reuse=old)
    for before, after in zip(old.logical_forms, new.logical_forms):
        if after.domain == victim.domain:
            assert after is not before and after != before
        else:
            assert after is before
    assert _compliance_view(new) == \
        _compliance_view(CorpusIndex.build(patched))
