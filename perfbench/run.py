#!/usr/bin/env python3
"""End-to-end benchmark for vocabforge.

    python3 perfbench/run.py --workload tied-5k-d256 --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src only.
One run:

1. set-up (reported as ``setup_s``): generate the workload's inputs from
   the seed, time a fresh-interpreter import of ``vocabforge.cli``
   (median of three), run ``intersect`` for the partition, then one
   untimed warm-up pass of every job, each in a forked child so its peak
   resident set can be read;
2. check every warm-up output against references computed here (see
   check.py) and run a self-test that a corrupted output is caught;
3. closed loop, one client, one job in flight: repeat passes over the
   workload's jobs through ``vocabforge.cli.main(argv)`` until the next
   pass would overrun ``--seconds``. Each job's outputs must match the
   checked warm-up outputs, or the job counts as failed.

``--trace 0`` prints the end-to-end metrics (medians over the passes);
``--trace 1`` alternates traced and untraced passes, then runs one pass
under tracemalloc, and prints the per-layer metrics. The last stdout
line is the result object; the line before it holds the details
(provenance, workload properties, quartiles and sample counts), which
are also written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import gen
import probe
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PASSES = 3

END_TO_END = {  # metric -> unit
    "setup_s": "s", "adapt_random_s": "s", "adapt_fvt_s": "s",
    "adapt_clp_s": "s", "adapt_sava_s": "s", "fit_map_s": "s",
    "fertility_words_per_s": "words/s", "similarity_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.self_s": "s",
    "tokenizer.load_s": "s", "tokenizer.partition_s": "s",
    "tokenizer.encode_s": "s", "tokenizer.encode_calls": "count",
    "tokenizer.encode_unique_share": "ratio", "tokenizer.peak_mb": "MB",
    "embeddings.load_s": "s", "embeddings.load_mb": "MB",
    "embeddings.save_s": "s", "embeddings.save_mb": "MB",
    "embeddings.stats_s": "s", "embeddings.peak_mb": "MB",
    "heuristics.assemble_self_s": "s", "heuristics.random_init_s": "s",
    "heuristics.fvt_init_s": "s", "heuristics.clp_setup_s": "s",
    "heuristics.clp_init_s": "s", "heuristics.sava_apply_s": "s",
    "heuristics.init_calls": "count", "heuristics.fallback_rows": "count",
    "heuristics.fallback_ratio": "ratio", "heuristics.clp_gflop": "GFLOP",
    "heuristics.clp_gflops": "GFLOP/s", "heuristics.peak_mb": "MB",
    "alignment.collect_pairs_s": "s", "alignment.fit_self_s": "s",
    "alignment.adam_updates": "count", "alignment.update_ms": "ms",
    "alignment.closed_form_s": "s", "alignment.save_map_s": "s",
    "alignment.pairs": "count", "alignment.final_over_oracle_mse": "ratio",
    "alignment.peak_mb": "MB",
    "analysis.fertility_self_s": "s", "analysis.words": "count",
    "analysis.unique_word_share": "ratio", "analysis.anchors_s": "s",
    "analysis.similarity_s": "s", "analysis.peak_mb": "MB",
    "trace.overhead_s": "s",
}
# derived from array shapes and schedules, not measured
COMPUTED = ("embeddings.load_mb", "embeddings.save_mb",
            "alignment.adam_updates", "heuristics.clp_gflop")
# counts that must repeat exactly between passes and runs
EXACT = ("tokenizer.encode_calls", "heuristics.init_calls",
         "heuristics.fallback_rows", "alignment.adam_updates",
         "alignment.pairs", "heuristics.clp_gflop", "embeddings.load_mb",
         "embeddings.save_mb", "analysis.words")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import vocabforge from ./src, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import vocabforge.cli
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import vocabforge from {SRC}: {exc}")
    if not Path(vocabforge.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"benchmark: vocabforge resolved outside {SRC}")
    return vocabforge.cli.main


# --- running jobs ---------------------------------------------------------


def run_inproc(job, call):
    """Run one job in this process; return (exit status, seconds, stdout).

    The status is the CLI's exit code, or the exception a crash raised.
    """
    out = io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            rc = call(list(job.argv))
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return rc, elapsed, out.getvalue()


def run_forked(job, cli_main, work: Path):
    """Run one job in a forked child; return (exit code, seconds, stdout, peak RSS MB)."""
    capture = work / f"{job.name}.stdout"
    sys.stdout.flush()
    sys.stderr.flush()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 3
        try:
            with open(capture, "w", encoding="utf-8") as fh, \
                    contextlib.redirect_stdout(fh), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(list(job.argv))
        except BaseException:
            code = 3
        finally:
            os._exit(code if isinstance(code, int) else 3)
    _, status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter() - start
    return (os.waitstatus_to_exitcode(status), elapsed,
            capture.read_text(encoding="utf-8"), usage.ru_maxrss * 1024 / 1e6)


def summary(job, stdout: str) -> str:
    """Digest of a job's outputs: file bytes plus the checked report values.

    Report files are reduced to the values the checks look at, so timing
    fields and later report additions do not make equal outputs differ.
    """
    h = hashlib.blake2b(digest_size=16)
    for path in job.outputs:
        if path.endswith(".report.json"):
            with open(path, encoding="utf-8") as fh:
                rep = json.load(fh)
            keys = ("copied_count", "initialized_count", "fallback_count")
            values = [[rep[k].get(c) for c in keys]
                      for k in ("adaptation", "head_adaptation") if k in rep]
        elif path.endswith("fertility_source.json") or path.endswith("fertility_target.json"):
            with open(path, encoding="utf-8") as fh:
                rep = json.load(fh)["fertility"]
            values = [rep["word_count"], rep["token_count"], rep["fertility"]]
        elif path.endswith("similarity.json"):
            with open(path, encoding="utf-8") as fh:
                rep = json.load(fh)["similarity"]
            values = [rep["score"], rep["anchor_ids"]]
        else:
            h.update(Path(path).read_bytes())
            continue
        h.update(json.dumps(values).encode())
    if job.captures_stdout:
        fit = json.loads(stdout)["fit"]
        h.update(json.dumps([fit[k] for k in (
            "initial_mse", "final_mse", "oracle_mse", "pair_count",
            "frobenius_gap_to_oracle")]).encode())
    return h.hexdigest()


def safe_summary(job, stdout):
    try:
        return summary(job, stdout)
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None


# --- statistics -----------------------------------------------------------


def describe(values) -> dict:
    """Median, quartiles, count and the highest percentile with ten samples beyond it."""
    values = sorted(values)
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if len(values) > 20:
        out[f"p{math.floor(100 * (len(values) - 10) / len(values))}"] = \
            values[len(values) - 11]
    return out


def provenance(seed: int) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded (None if not found)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# --- the run --------------------------------------------------------------


class Run:
    def __init__(self, args, work: Path, cli_main):
        import check  # imports vocabforge, so only after import_package()

        self.args, self.work, self.cli_main = args, work, cli_main
        self.speed = probe.SpeedProbe()
        self.spec = workloads.WORKLOADS[args.workload]
        self.check = check
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.trace_ok = True  # exact counts repeat, self times add up

    def note(self, job_name, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{job_name}: {p}" for p in problems[:3]]

    def setup(self):
        """Generate inputs, time imports, partition, warm up.

        Every step is normalized like a job (probe.py), with beta 0.5 for
        the steps that are not jobs; ``setup_s`` is the sum, raw times are
        kept per step.
        """
        args = self.args
        inputs_dir = self.work / "in"
        out_dir = self.work / "out"
        out_dir.mkdir(parents=True)
        readings = [self.speed()]
        steps = {}  # name -> (raw seconds, seconds at the reference speed)

        def record(name, seconds, beta=0.5):
            readings.append(self.speed())
            steps[name] = (seconds, probe.normalize(
                seconds, readings[-2], readings[-1], beta))

        start = time.perf_counter()
        self.inputs = gen.generate(self.spec, args.seed, str(inputs_dir))
        record("generate", time.perf_counter() - start)
        self.paths = self.inputs["paths"]
        self.paths["partition"] = str(inputs_dir / "partition.json")

        env = {**os.environ, "PYTHONPATH": str(SRC)}
        for i in range(3):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import vocabforge.cli"],
                           env=env, check=True, cwd=str(ROOT))
            record(f"import{i}", time.perf_counter() - start)
        imports = [steps.pop(f"import{i}") for i in range(3)]
        steps["import"] = tuple(statistics.median(t) for t in zip(*imports))

        self.jobs = workloads.jobs(self.spec, self.paths, args.seed, str(out_dir))
        rc, elapsed, _ = run_inproc(workloads.intersect_job(self.paths), self.cli_main)
        record("intersect", elapsed)
        self.intersect_rc = rc

        self.rss = {}
        self.warm = {}
        for job in self.jobs:
            rc, elapsed, stdout, rss = run_forked(job, self.cli_main, self.work)
            record("warmup_" + job.name, elapsed, job.beta)
            self.rss[job.name] = rss
            self.warm[job.name] = (rc, stdout)
        self.setup_steps = steps
        self.setup_s = sum(norm for _, norm in steps.values())

    def verify(self):
        """Check the partition and every warm-up output; remember their digests."""
        start = time.perf_counter()
        checker = self.check.Checker(self.inputs, self.spec, self.args.seed)
        self.checker = checker
        self.note("intersect", [f"exit {self.intersect_rc}"] if self.intersect_rc
                  else checker.partition(self.paths["partition"]))
        by_name = {job.name: job for job in self.jobs}
        self.digest = {}
        fit_maps = [("embed", by_name["fit_map"], *self.warm["fit_map"])]
        if self.spec["untied"]:
            head = workloads.fit_map_job(
                "fit_map_head", self.paths["helper_head"], self.paths["source_head"],
                self.paths, self.args.seed, self.spec, str(self.work / "out"))
            rc, _, stdout = run_inproc(head, self.cli_main)
            fit_maps.append(("head", head, rc, stdout))
        for which, job, rc, stdout in fit_maps:
            self.note(job.name, [f"exit {rc}"] if rc else
                      checker.fit_map(which, stdout, job.outputs[0]))
        for job in self.jobs:
            rc, stdout = self.warm[job.name]
            if rc:
                problems = [f"exit {rc}"]
            elif job.name.startswith("adapt_"):
                problems = checker.adapt(job.name[len("adapt_"):], job.outputs)
            elif job.name.startswith("fertility_"):
                problems = checker.fertility(job.name[len("fertility_"):], job.outputs[0])
            elif job.name == "similarity":
                problems = checker.similarity(job.outputs[0])
            else:
                problems = []  # fit_map: checked above
            if job.name != "fit_map":
                self.note(job.name, problems)
            self.digest[job.name] = None if problems else safe_summary(job, stdout)
        self.self_test_ok = self.self_test(by_name["adapt_random"])
        self.verify_s = time.perf_counter() - start

    def self_test(self, job) -> bool:
        """A copy of a checked output with one shared row altered must fail."""
        data, _ = self.check.read_emb1(job.outputs[0])
        bad = data.copy()
        bad[self.checker.tid[len(self.checker.tid) // 2], 0] += 1.0
        path = self.work / "selftest.emb1"
        gen.write_emb1(str(path), bad)
        with open(job.outputs[1], encoding="utf-8") as fh:
            report = json.load(fh)["adaptation"]
        problems = self.checker.matrix("random", "embed", str(path), report)
        return any("shared rows" in p for p in problems)

    def timed_job(self, job, call):
        rc, elapsed, stdout = run_inproc(job, call)
        want = self.digest[job.name]
        if rc:
            self.note(job.name, [f"exit {rc}"])
        elif want is None or safe_summary(job, stdout) != want:
            self.note(job.name, ["output differs from the checked warm-up output"])
        else:
            self.note(job.name, [])
        return elapsed

    def traced_call(self, tracer, job):
        return lambda argv: tracer.run_job(job.name, lambda: self.cli_main(argv))

    def loop(self, tracer=None):
        """Closed loop of passes; with a tracer, odd passes are traced."""
        self.samples = defaultdict(list)
        self.probes = []
        self.passes = []  # (traced, job seconds, [tracer job ids])
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(self.passes) % 2 == 1
            if traced:
                tracer.install()
            first = len(tracer.jobs) if tracer else 0
            times = {}
            probes = [self.speed()]
            try:
                for job in self.jobs:
                    call = self.traced_call(tracer, job) if traced else self.cli_main
                    times[job.name] = self.timed_job(job, call)
                    probes.append(self.speed())
            finally:
                if traced:
                    tracer.uninstall()
            ids = list(range(first, len(tracer.jobs))) if traced else []
            self.passes.append((traced, times, ids))
            self.probes += probes
            for i, job in enumerate(self.jobs):
                t = times[job.name]
                prefix = "traced:" if traced else ""
                self.samples[prefix + "raw:" + job.name].append(t)
                self.samples[prefix + job.name].append(probe.normalize(
                    t, probes[i], probes[i + 1], job.beta))
            elapsed = time.perf_counter() - start
            pass_s = statistics.median(sum(t.values()) for _, t, _ in self.passes)
            if len(self.passes) >= MIN_PASSES and elapsed + 1.2 * pass_s > self.args.seconds:
                break
        self.loop_s = time.perf_counter() - start

    # --- metrics ---------------------------------------------------------

    def end_to_end(self) -> dict:
        """Medians over the passes, in seconds at the reference CPU speed."""
        words = 2 * self.inputs["props"]["corpus_words"]
        stats = {}
        for prefix in ("", "raw:"):
            fert = [words / (a + b) for a, b in zip(
                self.samples[prefix + "fertility_source"],
                self.samples[prefix + "fertility_target"])]
            for metric in END_TO_END:
                if metric == "fertility_words_per_s":
                    values = fert
                elif metric.endswith("_s") and metric != "setup_s":
                    values = self.samples[prefix + metric[:-2]]
                else:
                    continue
                if prefix:
                    stats[metric]["raw"] = describe(values)
                else:
                    stats[metric] = describe(values)
        stats["setup_s"] = {
            "median": self.setup_s, "n": 1,
            "raw": sum(raw for raw, _ in self.setup_steps.values()),
            "steps": {name: {"raw": raw, "s": norm}
                      for name, (raw, norm) in self.setup_steps.items()}}
        stats["peak_rss_mb"] = {"median": max(self.rss.values()), "n": 1,
                                "per_job": self.rss}
        for part in probe.REFERENCE_S:
            stats[f"probe_{part}_s"] = describe([p[part] for p in self.probes])
        return stats

    def per_layer(self, tracer) -> dict:
        import tracing

        props = self.inputs["props"]
        fit = json.loads(self.warm["fit_map"][1])["fit"]

        def metrics(t):
            s, c, k = t["self_s"], t["calls"], t["counts"]

            def g(name):
                return s.get(name, 0.0)
            calls = c.get("encode_piece", 0)
            return {
                "cli.self_s": t["cli_self_s"],
                "tokenizer.load_s": g("load_tokenizer"),
                "tokenizer.partition_s": g("partition"),
                "tokenizer.encode_s": g("encode_piece"),
                "tokenizer.encode_calls": calls,
                "tokenizer.encode_unique_share": t["unique_pieces"] / calls if calls else 0.0,
                "embeddings.load_s": g("load_matrix"),
                "embeddings.load_mb": k.get("load_bytes", 0) / 1e6,
                "embeddings.save_s": g("save_matrix"),
                "embeddings.save_mb": k.get("save_bytes", 0) / 1e6,
                "embeddings.stats_s": g("matrix_stats"),
                "heuristics.assemble_self_s": g("assemble"),
                "heuristics.random_init_s": g("g_random"),
                "heuristics.fvt_init_s": g("g_fvt"),
                "heuristics.clp_setup_s": g("clp_setup"),
                "heuristics.clp_init_s": g("clp_row"),
                "heuristics.sava_apply_s": g("g_sava"),
                "heuristics.init_calls": sum(c.get(n, 0) for n in (
                    "g_random", "g_fvt", "g_sava", "clp_row")),
                "heuristics.fallback_rows": k.get("fallback_rows", 0),
                "heuristics.fallback_ratio": k.get("fallback_rows", 0) / max(k.get("novel_rows", 0), 1),
                "heuristics.clp_gflop": k.get("clp_flop", 0) / 1e9,
                "heuristics.clp_gflops": k.get("clp_flop", 0) / 1e9 / g("clp_row") if g("clp_row") else 0.0,
                "alignment.collect_pairs_s": g("collect_pairs"),
                "alignment.fit_self_s": g("fit_gradient"),
                "alignment.adam_updates": k.get("adam_updates", 0),
                "alignment.update_ms": 1e3 * g("fit_gradient") / max(k.get("adam_updates", 0), 1),
                "alignment.closed_form_s": g("fit_closed_form"),
                "alignment.save_map_s": g("save_map"),
                "alignment.pairs": k.get("pairs", 0),
                "alignment.final_over_oracle_mse": fit["final_mse"] / fit["oracle_mse"],
                "analysis.fertility_self_s": g("fertility"),
                "analysis.words": k.get("words", 0),
                "analysis.unique_word_share": props["corpus_unique_word_share"],
                "analysis.anchors_s": g("select_anchors"),
                "analysis.similarity_s": g("relative_similarity"),
            }

        traced = [(t, ids) for is_traced, t, ids in self.passes if is_traced]
        per_pass = [metrics(tracing.layer_totals(tracer, ids)) for _, ids in traced]
        residual = max(tracing.layer_totals(tracer, ids)["self_time_residual_s"]
                       for _, ids in traced)
        stats = {"span_calls": tracing.layer_totals(tracer, traced[0][1])["calls"]}
        for name in per_pass[0]:
            stats[name] = describe([m[name] for m in per_pass])
        varying = [name for name in EXACT if len({m[name] for m in per_pass}) > 1]
        if varying:
            self.problems.append(f"counts differ between traced passes: {varying}")
        if residual >= 1e-3:
            self.problems.append(f"self times miss job wall time by {residual:.2g} s")
        self.trace_ok = not varying and residual < 1e-3
        overhead = {job.name: statistics.median(self.samples["traced:" + job.name])
                    - statistics.median(self.samples[job.name]) for job in self.jobs}
        stats["trace.overhead_s"] = {  # at the reference speed, like end-to-end times
            "median": sum(overhead.values()), "n": len(traced), "per_job": overhead}
        stats["self_time_residual_s"] = {"median": residual, "n": len(traced)}
        return stats

    def memory_pass(self, tracer) -> dict:
        """One traced pass under tracemalloc: peak MB per layer."""
        import tracemalloc
        import tracing

        tracer.memory = True
        tracemalloc.start()
        tracer.install()
        first = len(tracer.jobs)
        try:
            for job in self.jobs:
                self.timed_job(job, self.traced_call(tracer, job))
        finally:
            tracer.uninstall()
            tracemalloc.stop()
            tracer.memory = False
        peaks = tracing.layer_totals(tracer, range(first, len(tracer.jobs)))["peak"]
        return {f"{layer}.peak_mb": peaks.get(layer, 0) / 1e6 for layer in
                ("tokenizer", "embeddings", "heuristics", "alignment", "analysis")}


def main(argv=None) -> int:
    args = parse_args(argv)
    cli_main = import_package()
    import tracing

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    work = HERE / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run = Run(args, work, cli_main)
    try:
        run.setup()
        run.verify()
        tracer = tracing.Tracer() if args.trace else None
        run.loop(tracer)
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        name = f"{args.workload}-s{args.seed}-t{args.trace}"
        if tracer:
            stats = run.per_layer(tracer)
            peaks = run.memory_pass(tracer)
            stats.update({k: {"median": v, "n": 1} for k, v in peaks.items()})
            tracer.dump(results / f"{name}.spans.jsonl")
            names, units = PER_LAYER, PER_LAYER
        else:
            stats = run.end_to_end()
            names, units = END_TO_END, END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = run.failed == 0 and run.self_test_ok and run.trace_ok
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": stats[name]["median"], "unit": units[name]}
                    for name in names},
    }
    detail = {
        "workload": args.workload,
        "why": run.spec["why"],
        "trace": args.trace,
        "seconds": args.seconds,
        "loop_s": run.loop_s,
        "passes": len(run.passes),
        "verify_s": run.verify_s,
        "failed_ratio": run.failed / run.attempted,
        "self_test_caught_corruption": run.self_test_ok,
        "problems": run.problems[:20],
        "properties": run.inputs["props"],
        "provenance": provenance(args.seed),
        "stats": stats,
    }
    if args.trace:
        detail["computed"] = COMPUTED
    (results / f"{name}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
