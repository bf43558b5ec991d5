"""Annotation records and their JSONL serialization.

These are the pipeline's durable outputs — the structured dataset the
paper releases (AIPAN-3k). Every record carries the verbatim evidence
string and source line so downstream analysis (and Table 6) can show each
annotation in context.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class TypeAnnotation:
    """One unique collected-data-type annotation for a domain."""

    category: str
    meta_category: str
    descriptor: str
    verbatim: str
    line: int
    novel: bool = False


@dataclass(frozen=True)
class PurposeAnnotation:
    """One unique data-collection-purpose annotation for a domain."""

    category: str
    meta_category: str
    descriptor: str
    verbatim: str
    line: int
    novel: bool = False


@dataclass(frozen=True)
class HandlingAnnotation:
    """One data retention/protection practice annotation."""

    group: str  # "Data retention" | "Data protection"
    label: str
    verbatim: str
    line: int
    period_text: str | None = None
    period_days: int | None = None


@dataclass(frozen=True)
class RightsAnnotation:
    """One user choices/access practice annotation."""

    group: str  # "User choices" | "User access"
    label: str
    verbatim: str
    line: int


@dataclass
class DomainAnnotations:
    """Everything the pipeline produced for one domain."""

    domain: str
    sector: str
    status: str  # "annotated" | "no-annotations" | "extract-failed" | "crawl-failed"
    types: list[TypeAnnotation] = field(default_factory=list)
    purposes: list[PurposeAnnotation] = field(default_factory=list)
    handling: list[HandlingAnnotation] = field(default_factory=list)
    rights: list[RightsAnnotation] = field(default_factory=list)
    #: Aspects for which the full-text annotation fallback was activated.
    fallback_aspects: list[str] = field(default_factory=list)
    #: Aspects with extracted section text.
    extracted_aspects: list[str] = field(default_factory=list)
    #: Word count of the substantive policy text.
    policy_words: int = 0
    #: Annotations removed by the hallucination verifier.
    hallucinations_filtered: int = 0

    # -- queries -----------------------------------------------------------

    def has_any_annotation(self) -> bool:
        return bool(self.types or self.purposes or self.handling or self.rights)

    def annotation_count(self) -> int:
        return (len(self.types) + len(self.purposes) + len(self.handling)
                + len(self.rights))

    def type_categories(self) -> set[str]:
        return {t.category for t in self.types}

    def descriptor_count(self, category: str) -> int:
        return len({t.descriptor for t in self.types if t.category == category})

    # -- serialization -----------------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-ready dict, keys in field order: ``dataclasses.asdict``'s
        rendering, built by hand because its generic deep copy costs more
        than the encode. The string lists are the record's own; the
        payload is for encoding, not editing."""
        return {
            "domain": self.domain,
            "sector": self.sector,
            "status": self.status,
            "types": [{"category": t.category,
                       "meta_category": t.meta_category,
                       "descriptor": t.descriptor, "verbatim": t.verbatim,
                       "line": t.line, "novel": t.novel}
                      for t in self.types],
            "purposes": [{"category": p.category,
                          "meta_category": p.meta_category,
                          "descriptor": p.descriptor,
                          "verbatim": p.verbatim, "line": p.line,
                          "novel": p.novel}
                         for p in self.purposes],
            "handling": [{"group": h.group, "label": h.label,
                          "verbatim": h.verbatim, "line": h.line,
                          "period_text": h.period_text,
                          "period_days": h.period_days}
                         for h in self.handling],
            "rights": [{"group": r.group, "label": r.label,
                        "verbatim": r.verbatim, "line": r.line}
                       for r in self.rights],
            "fallback_aspects": self.fallback_aspects,
            "extracted_aspects": self.extracted_aspects,
            "policy_words": self.policy_words,
            "hallucinations_filtered": self.hallucinations_filtered,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), ensure_ascii=False)

    @classmethod
    def from_payload(cls, data: dict) -> "DomainAnnotations":
        return cls(
            domain=data["domain"],
            sector=data["sector"],
            status=data["status"],
            types=[TypeAnnotation(**t) for t in data.get("types", [])],
            purposes=[PurposeAnnotation(**p) for p in data.get("purposes", [])],
            handling=[HandlingAnnotation(**h) for h in data.get("handling", [])],
            rights=[RightsAnnotation(**r) for r in data.get("rights", [])],
            fallback_aspects=data.get("fallback_aspects", []),
            extracted_aspects=data.get("extracted_aspects", []),
            policy_words=data.get("policy_words", 0),
            hallucinations_filtered=data.get("hallucinations_filtered", 0),
        )

    @classmethod
    def from_json(cls, raw: str) -> "DomainAnnotations":
        return cls.from_payload(json.loads(raw))


def write_jsonl(records: list[DomainAnnotations], path: str | Path) -> None:
    """Write annotation records to a JSONL file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(record.to_json() + "\n")


def read_jsonl(path: str | Path) -> list[DomainAnnotations]:
    """Read annotation records from a JSONL file."""
    records: list[DomainAnnotations] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(DomainAnnotations.from_json(line))
    return records
