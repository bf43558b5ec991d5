"""Span tracer for the traced run, installed from outside the program.

Each traced target is a public function or method of ``repro``. The
tracer replaces it with a wrapper wherever callers look it up: in every
loaded module that bound the function by name (``from x import f``), and
on the class for methods. Nothing under ``src/`` changes.

A span is (name, start, end, parent); spans live in per-thread arrays
while the run is armed and are written out when it ends. A span's self
time is its duration minus the time its child spans on the same thread
cover. Very hot leaf calls (``LogicalForm.atoms``, record encoding, page
fetches) are counted without a span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict

#: (span name, "module:qualname") for timed targets.
SPANS = (
    ("crawler.crawl", "repro.crawler.crawler:PrivacyCrawler.crawl_domain"),
    ("htmlkit.parse", "repro.htmlkit.dom:parse_html"),
    ("htmlkit.render", "repro.htmlkit.render:render_document"),
    ("lang.detect", "repro.lang.detect:LanguageDetector.detect"),
    ("lang.detect", "repro.lang.detect:LanguageDetector.is_mixed"),
    ("pipeline.preprocess", "repro.pipeline.preprocess:preprocess_crawl"),
    ("pipeline.segment", "repro.pipeline.segmentation:segment_policy"),
    ("pipeline.annotate.types", "repro.pipeline.annotate:annotate_types"),
    ("pipeline.annotate.purposes",
     "repro.pipeline.annotate:annotate_purposes"),
    ("pipeline.annotate.handling",
     "repro.pipeline.annotate:annotate_handling"),
    ("pipeline.annotate.rights", "repro.pipeline.annotate:annotate_rights"),
    ("pipeline.verify",
     "repro.pipeline.verify:HallucinationVerifier.contains"),
    ("pipeline.cascade", "repro.pipeline.cascade:cascade_aspects"),
    ("pipeline.cache.load", "repro.pipeline.cache:PipelineCache.load_record"),
    ("pipeline.cache.load", "repro.pipeline.cache:PipelineCache.load_crawl"),
    ("pipeline.cache.store",
     "repro.pipeline.cache:PipelineCache.store_record"),
    ("pipeline.cache.store",
     "repro.pipeline.cache:PipelineCache.store_crawl"),
    ("chatbot.complete", "repro.chatbot.models:SimulatedChatModel.complete"),
    ("distill.train", "repro.pipeline.cascade:get_cascade_model"),
    ("compliance.holds", "repro.compliance.predicate:holds"),
    ("compliance.compile", "repro.compliance.logic:compile_record"),
    ("compliance.pack_rows", "repro.compliance.rules:pack_rows"),
    ("snapshot.load", "repro.serve.snapshot:load_snapshot"),
    ("snapshot.build", "repro.serve.snapshot:build_snapshot"),
    ("index.build", "repro.serve.index:CorpusIndex.build"),
    ("query.engine", "repro.serve.query:QueryEngine.execute"),
    ("query.serialize", "repro.serve.query:QueryResult.to_json"),
    ("shard.partition", "repro.serve.shard:partition_snapshot"),
    ("shard.engine_build", "repro.serve.shard:ShardedEngine.__init__"),
    ("shard.scatter", "repro.serve.shard:ShardedEngine.execute"),
    ("ingest.round", "repro.ingest.scheduler:IngestScheduler.run_round"),
    ("ingest.patch", "repro.ingest.refresh:apply_patches_sharded"),
    ("ingest.swap", "repro.serve.server:AnnotationServer.swap_snapshot"),
)

#: A layer that runs the whole pipeline inside itself (the cascade's
#: teacher run): everything under its spans is attributed to it alone.
OWN_SUBTREE = "distill.train"

#: (counter name, "module:qualname") for count-only targets.
COUNTS = (
    ("compliance.atoms", "repro.compliance.logic:LogicalForm.atoms"),
    ("snapshot.record_encode", "repro.pipeline.records:DomainAnnotations.to_json"),
    ("web.fetch", "repro.web.net:SimulatedInternet.fetch"),
)


def _query_kind_name(args) -> str:
    from repro.serve.query import query_kind

    return "query.engine." + query_kind(args[1])


def _tokens_before(args):
    usage = args[0].usage
    return usage.prompt_tokens, usage.completion_tokens


def _tokens_after(counts, args, result, before):
    usage = args[0].usage
    counts["chatbot.prompt_tokens"] += usage.prompt_tokens - before[0]
    counts["chatbot.completion_tokens"] += \
        usage.completion_tokens - before[1]


def _verify_after(counts, args, result, before):
    if not result:
        counts["pipeline.verify.rejected"] += 1


def _cache_after(counts, args, result, before):
    if result is not None:
        counts["pipeline.cache.hit"] += 1


def _swap_after(counts, args, result, before):
    counts["ingest.shards_rebuilt"] += result.shards_rebuilt


#: Per-target extras: a span namer, or (before, after) outcome hooks.
NAMERS = {"query.engine": _query_kind_name}
HOOKS = {
    "chatbot.complete": (_tokens_before, _tokens_after),
    "pipeline.verify": (None, _verify_after),
    "pipeline.cache.load": (None, _cache_after),
    "ingest.swap": (None, _swap_after),
}


class _ThreadBuffer:
    __slots__ = ("name", "parent", "start", "end", "self_s", "stack",
                 "counts", "thread", "inside")

    def __init__(self, thread: str):
        self.thread = thread
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.stack: list = []
        self.counts: Counter = Counter()
        #: Depth of OWN_SUBTREE spans open on this thread.
        self.inside = 0


def _resolve(spec: str):
    """``"module:Class.attr"`` -> (module or class, attribute name)."""
    module_name, qualname = spec.split(":")
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Installs wrappers; collects spans and counts while armed."""

    def __init__(self):
        self.armed = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._buffers: list[_ThreadBuffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counts: Counter = Counter()
        self._restore: list = []

    # -- buffers -----------------------------------------------------------

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer(threading.current_thread().name)
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._name_ids.get(name)
                if nid is None:
                    nid = len(self.names)
                    self.names.append(name)
                    self._name_ids[name] = nid
        return nid

    @contextlib.contextmanager
    def paused(self):
        """Record nothing from this thread inside the block (benchmark
        bookkeeping and simulated world changes are not program work)."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        tracer = self
        local = self._local
        namer = NAMERS.get(name)
        before, after = HOOKS.get(name, (None, None))
        fixed_id = None if namer else self._name_id(name)
        owns = name == OWN_SUBTREE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.armed or getattr(local, "paused", False):
                return fn(*args, **kwargs)
            buf = tracer._buffer()
            nid = fixed_id if namer is None else \
                tracer._name_id(namer(args))
            index = len(buf.start)
            buf.name.append(nid)
            buf.parent.append(buf.stack[-1][0] if buf.stack else -1)
            buf.start.append(0.0)
            buf.end.append(0.0)
            buf.self_s.append(0.0)
            frame = [index, 0.0]
            buf.stack.append(frame)
            buf.inside += owns
            state = before(args) if before else None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                buf.inside -= owns
                buf.stack.pop()
                buf.start[index] = t0
                buf.end[index] = t1
                buf.self_s[index] = (t1 - t0) - frame[1]
                if buf.stack:
                    buf.stack[-1][1] += t1 - t0
            if after and not buf.inside:
                after(buf.counts, args, result, state)
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        tracer = self
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.armed and not getattr(local, "paused", False):
                buf = tracer._buffer()
                if not buf.inside:
                    buf.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target, before the traced pass starts."""
        for name, spec in SPANS:
            self._patch(spec, lambda fn, name=name:
                        self._span_wrapper(fn, name))
        for name, spec in COUNTS:
            self._patch(spec, lambda fn, name=name:
                        self._count_wrapper(fn, name))

    def _patch(self, spec: str, make) -> None:
        owner, attr = _resolve(spec)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            wrapped = classmethod(make(raw.__func__)) \
                if isinstance(raw, classmethod) else make(raw)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, raw))
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        # Every module that bound the function by name, the benchmark's
        # own workload code included: it calls into the program too.
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if namespace is None:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-name calls, self and inclusive seconds, plus counts.

        Spans nested under an OWN_SUBTREE span are attributed to it alone
        (the cascade's training run is one layer, not a second pipeline
        run), and ``nested`` maps ``(child, ancestor)`` name
        pairs to inclusive child seconds for share metrics.
        """
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        incl_s: defaultdict = defaultdict(float)
        nested: defaultdict = defaultdict(float)
        counts: Counter = Counter()
        skip_id = self._name_ids.get(OWN_SUBTREE, -2)
        for buf in self._buffers:
            counts.update(buf.counts)
            hidden = array("b", bytes(len(buf.start)))
            for i in range(len(buf.start)):
                parent = buf.parent[i]
                if parent >= 0 and (hidden[parent]
                                    or buf.name[parent] == skip_id):
                    hidden[i] = 1
                    continue
                name = self.names[buf.name[i]]
                dur = buf.end[i] - buf.start[i]
                calls[name] += 1
                self_s[name] += buf.self_s[i]
                incl_s[name] += dur
                seen = set()
                while parent >= 0:
                    ancestor = self.names[buf.name[parent]]
                    if ancestor not in seen:
                        seen.add(ancestor)
                        nested[(name, ancestor)] += dur
                    parent = buf.parent[parent]
        counts.update(self.counts)
        return {"calls": calls, "self_s": self_s, "incl_s": incl_s,
                "nested": nested, "counts": counts}

    def write(self, path) -> int:
        """Write every span as one JSON line: name, start, end, parent
        (index within the same thread) and thread."""
        written = 0
        with open(path, "w", encoding="utf-8") as out:
            for buf in self._buffers:
                for i in range(len(buf.start)):
                    out.write(json.dumps({
                        "thread": buf.thread, "i": i,
                        "name": self.names[buf.name[i]],
                        "start": buf.start[i], "end": buf.end[i],
                        "parent": buf.parent[i]}))
                    out.write("\n")
                    written += 1
        return written
