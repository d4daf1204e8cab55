"""Outside-in layer tracing: wrappers around the package's public functions.

The CLI and the library look these names up at call time, so replacing
the module (or class) attributes in place puts a span around every call
without touching the package. Each span records its name, start, end,
parent span and job; a layer's self time is its spans' duration minus
their children's. High-frequency per-token spans (encode_piece and the
per-row initializers) are folded into per-job counters instead of being
kept one by one, which keeps memory flat over a long run.

With ``memory=True`` every kept span also records its tracemalloc peak
above the traced memory at its start; numpy reports its buffers to
tracemalloc. That pass is separate because tracemalloc slows Python.
"""

from __future__ import annotations

import json
import math
import time
import tracemalloc
from collections import defaultdict

from vocabforge import alignment, analysis, cli, embeddings, heuristics, tokenizer

# (owner, attribute, span name, layer)
TARGETS = (
    (cli, "load_tokenizer", "load_tokenizer", "tokenizer"),
    (cli, "partition", "partition", "tokenizer"),
    (heuristics, "partition", "partition", "tokenizer"),
    (tokenizer.TokenizerModel, "encode_piece", "encode_piece", "tokenizer"),
    (embeddings, "load_matrix", "load_matrix", "embeddings"),
    (embeddings, "save_matrix", "save_matrix", "embeddings"),
    (heuristics, "matrix_stats", "matrix_stats", "embeddings"),
    (heuristics, "assemble", "assemble", "heuristics"),
    (heuristics, "g_random", "g_random", "heuristics"),
    (heuristics, "g_fvt", "g_fvt", "heuristics"),
    (heuristics, "g_sava", "g_sava", "heuristics"),
    (heuristics.ClpInitializer, "__init__", "clp_setup", "heuristics"),
    (heuristics.ClpInitializer, "__call__", "clp_row", "heuristics"),
    (alignment, "collect_pairs", "collect_pairs", "alignment"),
    (alignment, "fit_gradient", "fit_gradient", "alignment"),
    (alignment, "fit_closed_form", "fit_closed_form", "alignment"),
    (alignment, "save_map", "save_map", "alignment"),
    (analysis, "fertility", "fertility", "analysis"),
    (analysis, "select_anchors", "select_anchors", "analysis"),
    (analysis, "relative_similarity", "relative_similarity", "analysis"),
)
LAYER = {name: layer for _, _, name, layer in TARGETS}
HOT = frozenset({"encode_piece", "g_random", "g_fvt", "g_sava", "clp_row"})


class _Frame:
    __slots__ = ("sid", "child", "mem_start", "peak")

    def __init__(self, sid):
        self.sid, self.child = sid, 0.0
        self.mem_start = self.peak = 0


class Tracer:
    """Span recorder; install() swaps the wrappers in, uninstall() restores."""

    def __init__(self):
        self.spans: list[tuple] = []  # (job, id, name, parent, start, end, self, peak)
        self.jobs: list[dict] = []
        self.memory = False
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._originals: list[tuple] = []
        self._job: dict | None = None

    # --- wrappers --------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, _ in TARGETS:
            fn = getattr(owner, attr)
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    def _wrap(self, name, fn):
        tracer = self
        if name in HOT:
            def hot(*args, **kwargs):
                job = tracer._job
                if job is None:
                    return fn(*args, **kwargs)
                if name == "encode_piece":
                    job["pieces"].add(args[1])
                frame = _Frame(0)
                stack = tracer._stack
                stack.append(frame)
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = time.perf_counter() - start
                    stack.pop()
                    stack[-1].child += dur
                    agg = job["hot"][name]
                    agg[0] += 1
                    agg[1] += dur - frame.child
            return hot

        def span(*args, **kwargs):
            if tracer._job is None:
                return fn(*args, **kwargs)
            result = tracer._span(name, fn, args, kwargs)
            tracer._count(name, args, kwargs, result)
            return result
        return span

    def _span(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1]
        self._next_id += 1
        frame = _Frame(self._next_id)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            parent.peak = max(parent.peak, peak)
            frame.mem_start = frame.peak = current
            tracemalloc.reset_peak()
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            parent.child += end - start
            peak = 0
            if self.memory:
                frame.peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
                parent.peak = max(parent.peak, frame.peak)
                peak = frame.peak - frame.mem_start
            self.spans.append((self._job["id"], frame.sid, name, parent.sid,
                               start, end, end - start - frame.child, peak))

    def _count(self, name, args, kwargs, result) -> None:
        counts = self._job["counts"]
        if name == "load_matrix":
            counts["load_bytes"] += result.data.nbytes + 16
        elif name == "save_matrix":
            counts["save_bytes"] += args[0].data.nbytes + 16
        elif name == "fit_gradient":
            cfg = args[2] if len(args) > 2 else kwargs.get("cfg", alignment.TrainConfig())
            pairs = len(args[0])
            batch = cfg.batch if cfg.batch > 0 else pairs
            counts["adam_updates"] += cfg.steps * math.ceil(pairs / batch)
            counts["pairs"] += pairs
        elif name == "fertility":
            counts["words"] += result.word_count
        elif name == "assemble":
            report = result[1]
            counts["fallback_rows"] += report.fallback_count
            counts["novel_rows"] += report.initialized_count + report.fallback_count
        elif name == "clp_setup":
            # one similarity and one combination multiply-add per shared entry
            counts["clp_row_flop"] = 4 * args[0].shared_source_rows.size

    # --- jobs --------------------------------------------------------------

    def run_job(self, name: str, call):
        """Run call() as one traced job; return its result."""
        job = {"id": len(self.jobs), "name": name, "wall": 0.0, "top": 0.0,
               "hot": defaultdict(lambda: [0, 0.0]), "pieces": set(),
               "counts": defaultdict(int)}
        root = _Frame(0)
        self._stack = [root]
        if self.memory:
            root.mem_start = root.peak = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        self._job = job
        start = time.perf_counter()
        try:
            return call()
        finally:
            job["wall"] = time.perf_counter() - start
            self._job = None
            job["top"] = root.child
            row_flop = job["counts"].pop("clp_row_flop", 0)
            job["counts"]["clp_flop"] = row_flop * job["hot"]["clp_row"][0]
            job["unique_pieces"] = len(job.pop("pieces"))
            self.jobs.append(job)


    def dump(self, path) -> None:
        """Write every kept span, then one line per job, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for job, sid, name, parent, start, end, self_s, peak in self.spans:
                fh.write(json.dumps({
                    "job": job, "span": sid, "name": name, "parent": parent,
                    "start": start, "end": end, "self_s": self_s,
                    "peak_bytes": peak}) + "\n")
            for job in self.jobs:
                fh.write(json.dumps({
                    "job": job["id"], "name": job["name"], "wall": job["wall"],
                    "per_token": job["hot"], "counts": job["counts"]}) + "\n")


def layer_totals(tracer: Tracer, job_ids) -> dict:
    """Self time, calls and memory peak per span name over the given jobs."""
    job_ids = set(job_ids)
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    peak: dict = defaultdict(int)
    for job, _, name, _, _, _, self_time, pk in tracer.spans:
        if job in job_ids:
            self_s[name] += self_time
            calls[name] += 1
            peak[LAYER[name]] = max(peak[LAYER[name]], pk)
    counts: dict = defaultdict(int)
    cli_self = 0.0
    residual = 0.0
    unique = 0
    for job in tracer.jobs:
        if job["id"] not in job_ids:
            continue
        for name, (n, t) in job["hot"].items():
            self_s[name] += t
            calls[name] += n
        for key, value in job["counts"].items():
            counts[key] += value
        cli_self += job["wall"] - job["top"]
        unique += job["unique_pieces"]
        job_self = sum(
            s[6] for s in tracer.spans if s[0] == job["id"]
        ) + sum(t for _, t in job["hot"].values())
        residual = max(residual, abs(job["top"] - job_self))
    return {"self_s": dict(self_s), "calls": dict(calls), "peak": dict(peak),
            "counts": dict(counts), "cli_self_s": cli_self,
            "unique_pieces": unique, "self_time_residual_s": residual}
