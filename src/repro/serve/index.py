"""Inverted indexes and precomputed aggregates over a corpus snapshot.

Built exactly once when a snapshot is loaded into a server; afterwards
every query class resolves from dict/list lookups:

- ``domain → record`` point lookups,
- ``sector → domains`` and ``status → domains`` facets,
- taxonomy inversions (``category → domains``, ``descriptor → domains``,
  ``label → domains``) for types, purposes, and handling/rights labels,
- ``aspect → mention segments`` (every annotation keeps its verbatim
  evidence and source line, so aspect queries can return the segment
  stream without touching the records again),
- the paper's Table-1/2a/2b/3 aggregates plus a corpus summary, computed
  eagerly so ``TableAggregate`` queries are O(1) payload fetches, and
- the **compliance layer**: every record's compiled
  :class:`~repro.compliance.logic.LogicalForm`, posting lists over
  compiled atoms (``atom token → sorted domains``) used to prune
  predicate-query candidates, and precomputed rule-pack verdict rows so
  a ``ComplianceScan`` is a slice, not a scan.

Everything is stored sorted (domains lexicographically, counts descending
with lexicographic tie-breaks), which is what makes query results
byte-stable across snapshot rebuilds and server worker counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.analysis.stats import CategoryBreakdown
from repro.analysis.tables import (
    Table1,
    table1_summary,
    table2a_types,
    table2b_purposes,
    table3_practices,
)
from repro.compliance.logic import Atom, LogicalForm, compile_record
from repro.compliance.predicate import (
    AllOf,
    AnyOf,
    AtomTest,
    Negate,
    Predicate,
    SameSegment,
)
from repro.compliance.rules import RULE_PACKS, pack_rows
from repro.errors import QueryError
from repro.pipeline.records import DomainAnnotations
from repro.serve.snapshot import CorpusSnapshot
from repro.taxonomy import Aspect

#: Annotation facets exposed to faceted queries.
FACETS = ("types", "purposes", "labels")

#: Tables served as precomputed aggregates.
TABLES = ("table1", "table2a", "table2b", "table3", "summary")


def _round(value: float) -> float:
    """Stable float rendering for aggregate payloads."""
    return round(value, 6)


def _coverage_payload(stat) -> dict:
    return {
        "covered": stat.covered,
        "total": stat.total,
        "coverage": _round(stat.coverage),
        "mean": _round(stat.mean),
        "sd": _round(stat.sd),
    }


def breakdown_payload(rows: dict[str, CategoryBreakdown]) -> dict:
    """JSON-ready rendering of an analysis breakdown, sorted throughout."""
    return {
        name: {
            "overall": _coverage_payload(row.overall),
            "sectors": {sector: _coverage_payload(stat)
                        for sector, stat in sorted(row.by_sector.items())},
        }
        for name, row in sorted(rows.items())
    }


def table1_payload(table: Table1) -> dict:
    return {
        "total": table.total,
        "meta_counts": dict(sorted(table.meta_counts.items())),
        "rows": [
            {
                "meta_category": row.meta_category,
                "category": row.category,
                "unique_annotations": row.unique_annotations,
                "top_descriptors": [
                    {"descriptor": d.descriptor, "count": d.count,
                     "share": _round(d.share)}
                    for d in row.top_descriptors
                ],
            }
            for row in table.rows
        ],
    }


def _sorted_counter(counter: Counter) -> list[tuple[str, int]]:
    """Counter items ordered by count desc, then name — a total order."""
    return sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))


def build_aggregate_payloads(records: list[DomainAnnotations], *,
                             fingerprint: str,
                             statuses: dict[str, int],
                             sector_sizes: dict[str, int]) -> dict:
    """The Table-1/2a/2b/3 + summary payloads for one record stream.

    Shared by :class:`CorpusIndex` and the sharded scatter-gather engine:
    table aggregates contain order-sensitive float reductions
    (``CoverageStat.sd`` sums in record order) and insertion-order
    tie-breaks (``Counter.most_common``), so the only way to keep a
    sharded deployment byte-identical to a single index is to feed both
    the *same canonical record stream* through the *same code path* —
    which for shards means the k-way merge of the per-shard streams, not
    a merge of per-shard table payloads.
    """
    annotated = [r for r in records if r.status == "annotated"]
    return {
        "table1": table1_payload(table1_summary(records)),
        "table2a": breakdown_payload(table2a_types(records)),
        "table2b": breakdown_payload(table2b_purposes(records)),
        "table3": breakdown_payload(table3_practices(records)),
        "summary": {
            "fingerprint": fingerprint,
            "domains": len(records),
            "statuses": dict(sorted(statuses.items())),
            "annotated": len(annotated),
            "sectors": dict(sector_sizes),
            "annotations": {
                "types": sum(len(r.types) for r in records),
                "purposes": sum(len(r.purposes) for r in records),
                "handling": sum(len(r.handling) for r in records),
                "rights": sum(len(r.rights) for r in records),
            },
            "fallback_domains": sum(1 for r in records
                                    if r.fallback_aspects),
            "hallucinations_filtered": sum(r.hallucinations_filtered
                                           for r in records),
        },
    }


@dataclass
class CorpusIndex:
    """All lookup structures for one snapshot; build once, read-only after."""

    snapshot: CorpusSnapshot
    by_domain: dict[str, DomainAnnotations] = field(default_factory=dict)
    domains_by_sector: dict[str, list[str]] = field(default_factory=dict)
    domains_by_status: dict[str, list[str]] = field(default_factory=dict)
    #: facet → category → sorted domains mentioning it.
    domains_by_category: dict[str, dict[str, list[str]]] = \
        field(default_factory=dict)
    #: facet → descriptor/label → sorted domains mentioning it.
    domains_by_descriptor: dict[str, dict[str, list[str]]] = \
        field(default_factory=dict)
    #: facet → descriptor/label → total mention count (corpus-wide).
    descriptor_counts: dict[str, Counter] = field(default_factory=dict)
    #: facet → sector → descriptor/label → mention count.
    descriptor_counts_by_sector: dict[str, dict[str, Counter]] = \
        field(default_factory=dict)
    #: aspect value → sorted (domain, line, verbatim) mention segments.
    segments_by_aspect: dict[str, list[tuple[str, int, str]]] = \
        field(default_factory=dict)
    #: aspect value → sorted domains whose segmentation extracted it.
    domains_by_extracted_aspect: dict[str, list[str]] = \
        field(default_factory=dict)
    #: table name → JSON-ready aggregate payload.
    aggregates: dict[str, dict] = field(default_factory=dict)
    #: compiled logical forms, in canonical (domain-sorted) order.
    logical_forms: tuple[LogicalForm, ...] = ()
    #: atom token → sorted domains asserting that atom (posting lists).
    domains_by_atom: dict[str, list[str]] = field(default_factory=dict)
    #: aspect → sorted unique atoms seen in the corpus (the atom catalog
    #: wildcard atom tests are matched against).
    atoms_by_aspect: dict[str, list[Atom]] = field(default_factory=dict)
    #: pack name → rule id → domain → precomputed verdict row.
    compliance_rows: dict[str, dict[str, dict[str, dict]]] = \
        field(default_factory=dict)

    @property
    def fingerprint(self) -> str:
        """The served snapshot's content fingerprint — the id generation-
        scoped caches and the shard-index reuse path key on."""
        return self.snapshot.fingerprint

    # -- construction ----------------------------------------------------

    @classmethod
    def build(cls, snapshot: CorpusSnapshot, *,
              reuse: "CorpusIndex | None" = None) -> "CorpusIndex":
        """Index ``snapshot``; ``reuse`` is an index over an earlier
        generation whose compiled compliance is adopted for every record
        whose canonical text is unchanged (see ``_build_compliance``)."""
        index = cls(snapshot=snapshot)
        sector_sets: dict[str, set[str]] = {}
        status_sets: dict[str, set[str]] = {}
        cat_sets: dict[str, dict[str, set[str]]] = {f: {} for f in FACETS}
        desc_sets: dict[str, dict[str, set[str]]] = {f: {} for f in FACETS}
        index.descriptor_counts = {f: Counter() for f in FACETS}
        index.descriptor_counts_by_sector = {f: {} for f in FACETS}
        aspect_segments: dict[str, list[tuple[str, int, str]]] = {}
        extracted_sets: dict[str, set[str]] = {}

        def mention(facet: str, domain: str, sector: str, category: str,
                    name: str, aspect: Aspect, line: int,
                    verbatim: str) -> None:
            cat_sets[facet].setdefault(category, set()).add(domain)
            desc_sets[facet].setdefault(name, set()).add(domain)
            index.descriptor_counts[facet][name] += 1
            index.descriptor_counts_by_sector[facet].setdefault(
                sector, Counter())[name] += 1
            aspect_segments.setdefault(aspect.value, []).append(
                (domain, line, verbatim))

        for record in snapshot.records:
            domain = record.domain
            index.by_domain[domain] = record
            sector_sets.setdefault(record.sector, set()).add(domain)
            status_sets.setdefault(record.status, set()).add(domain)
            for value in record.extracted_aspects:
                extracted_sets.setdefault(value, set()).add(domain)
            for t in record.types:
                mention("types", domain, record.sector, t.category,
                        t.descriptor, Aspect.TYPES, t.line, t.verbatim)
            for p in record.purposes:
                mention("purposes", domain, record.sector, p.category,
                        p.descriptor, Aspect.PURPOSES, p.line, p.verbatim)
            for h in record.handling:
                mention("labels", domain, record.sector, h.group, h.label,
                        Aspect.HANDLING, h.line, h.verbatim)
            for r in record.rights:
                mention("labels", domain, record.sector, r.group, r.label,
                        Aspect.RIGHTS, r.line, r.verbatim)

        def freeze(sets: dict[str, set[str]]) -> dict[str, list[str]]:
            return {name: sorted(domains)
                    for name, domains in sorted(sets.items())}

        index.domains_by_sector = freeze(sector_sets)
        index.domains_by_status = freeze(status_sets)
        index.domains_by_category = {f: freeze(cat_sets[f]) for f in FACETS}
        index.domains_by_descriptor = {f: freeze(desc_sets[f])
                                       for f in FACETS}
        index.segments_by_aspect = {
            value: sorted(segments)
            for value, segments in sorted(aspect_segments.items())
        }
        index.domains_by_extracted_aspect = freeze(extracted_sets)
        index._build_aggregates()
        index._build_compliance(reuse)
        return index

    def _build_compliance(self, reuse: "CorpusIndex | None") -> None:
        """Compile every record; build atom postings + pack verdict rows.

        A logical form and its verdict rows are pure functions of the
        record, so a record whose canonical text equals the one ``reuse``
        indexed adopts that index's form and rows; only new or changed
        records are compiled and evaluated.
        """
        previous = {} if reuse is None else {
            record.domain: (text, form)
            for record, text, form in zip(
                reuse.snapshot.records, reuse.snapshot.record_texts(),
                reuse.logical_forms)}
        forms, fresh = [], []
        for record, text in zip(self.snapshot.records,
                                self.snapshot.record_texts()):
            old = previous.get(record.domain)
            if old is not None and old[0] == text:
                forms.append(old[1])
            else:
                form = compile_record(record)
                forms.append(form)
                fresh.append(form)
        self.logical_forms = tuple(forms)
        atom_sets: dict[str, set[str]] = {}
        catalog: dict[str, set[Atom]] = {}
        for form in self.logical_forms:
            for atom in form.atoms():
                atom_sets.setdefault(atom.token(), set()).add(form.domain)
                catalog.setdefault(atom.aspect, set()).add(atom)
        self.domains_by_atom = {token: sorted(domains)
                                for token, domains
                                in sorted(atom_sets.items())}
        self.atoms_by_aspect = {aspect: sorted(atoms,
                                               key=lambda a: a.key())
                                for aspect, atoms in sorted(catalog.items())}
        fresh_rows = {name: pack_rows(pack, fresh)
                      for name, pack in RULE_PACKS.items()}
        self.compliance_rows = {
            name: {rule_id: {
                form.domain: rows[form.domain] if form.domain in rows
                else reuse.compliance_rows[name][rule_id][form.domain]
                for form in forms}
                for rule_id, rows in pack.items()}
            for name, pack in fresh_rows.items()}

    # -- compliance lookups ----------------------------------------------

    def atom_candidates(self, test: AtomTest) -> set[str]:
        """Domains that *might* satisfy one atom test (posting lookup).

        Fully-constrained tests are one O(1) posting fetch; wildcard
        tests union the postings of every catalog atom they match. The
        result is exact for a lone test — pruning only ever loosens at
        the boolean combinators.
        """
        if test.category is not None and test.name is not None \
                and test.negated is not None:
            token = Atom(test.aspect, test.category, test.name,
                         test.negated).token()
            return set(self.domains_by_atom.get(token, ()))
        matched: set[str] = set()
        for atom in self.atoms_by_aspect.get(test.aspect, ()):
            if test.matches(atom):
                matched.update(self.domains_by_atom[atom.token()])
        return matched

    def candidate_domains(self, pred: Predicate) -> set[str]:
        """A superset of the domains satisfying ``pred``.

        Set algebra over the atom posting lists: intersection for
        conjunctions (including same-segment, whose co-occurrence
        constraint only narrows further), union for disjunctions, and
        the full corpus under negation (absence is invisible to posting
        lists). Every candidate is then *verified* against its compiled
        form, so pruning can never change an answer — only shrink the
        verification set.
        """
        if isinstance(pred, AtomTest):
            return self.atom_candidates(pred)
        if isinstance(pred, (AllOf, SameSegment)):
            candidates: set[str] | None = None
            for test in pred.tests:
                pool = self.candidate_domains(test)
                candidates = pool if candidates is None \
                    else candidates & pool
            return candidates if candidates is not None \
                else set(self.by_domain)
        if isinstance(pred, AnyOf):
            matched: set[str] = set()
            for test in pred.tests:
                matched |= self.candidate_domains(test)
            return matched
        if isinstance(pred, Negate):
            return set(self.by_domain)
        raise QueryError(
            f"unknown predicate node {type(pred).__name__}")

    def _build_aggregates(self) -> None:
        self.aggregates = build_aggregate_payloads(
            list(self.snapshot.records),
            fingerprint=self.snapshot.fingerprint,
            statuses=self.snapshot.status_counts(),
            sector_sizes={sector: len(domains) for sector, domains
                          in self.domains_by_sector.items()})

    # -- read helpers ----------------------------------------------------

    def top_descriptors(self, facet: str, k: int,
                        sector: str | None = None) -> list[tuple[str, int]]:
        """Top-k descriptors by mention count (count desc, name asc)."""
        if sector is None:
            counter = self.descriptor_counts[facet]
        else:
            counter = self.descriptor_counts_by_sector[facet].get(
                sector, Counter())
        return _sorted_counter(counter)[:k]


__all__ = [
    "FACETS",
    "TABLES",
    "CorpusIndex",
    "breakdown_payload",
    "build_aggregate_payloads",
    "table1_payload",
]

# Re-exported for callers that treat the index as the compliance surface.
COMPLIANCE_PACKS = tuple(sorted(RULE_PACKS))
