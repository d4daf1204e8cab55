#!/usr/bin/env python3
"""Compare the CLI outputs of two source trees on the benchmark workloads.

    python3 scripts/compare_outputs.py BASE_SRC HEAD_SRC
        [--workload W ... | --wide] [--seed N ...] [--summary FILE]

BASE_SRC and HEAD_SRC are `src` directories holding the `vocabforge`
package. For each workload and seed, the inputs are generated once with
perfbench/gen.py; then, for each tree, `intersect` and every job of
perfbench/workloads.jobs run through `python -m vocabforge.cli` with that
tree on PYTHONPATH, each tree writing to its own directory. The
benchmark runs neither `stats` nor `params`, so `stats` also runs on the
source matrix (its text summary and its `--json` report) and `params` on
the workload's vocabulary sizes and width (command_jobs): every
command's output is compared. The benchmark intersects meta-space source
tokens with byte-marker target tokens only, so `intersect` also runs on
the same vocabularies for every (source, target) pair of marker
conventions that both trees name in
`vocabforge.tokenizer.MARKERS`. The benchmark's only fallback rows are
FVT's, all random, its CLP is dense with clamp-zero weights, and it asks
for no per-token provenance, per-document counts or histogram, and its
`fit-map` fits every shared pair, so four more jobs (VARIANTS) run
`adapt --method fvt --fallback mean-row --verbose-report`, `adapt
--method clp --clp-top-k 16 --clp-negative-policy shift-min`, the source
side's `fertility --per-doc --hist-out`, whose histogram CSV is compared
byte for byte, and `fit-map --limit 1000`. 1000 is below every
workload's shared count, so that fit runs on a seeded subsample of the
pairs, gathered as rows.
gen.py writes every vocabulary with its ids in key order, so `intersect`
and `adapt --method fvt` also run on copies of the source and target
vocabularies that hold the same token -> id pairs in a key order
shuffled with the seed. It writes no merges file with a comment or blank
line past the `#version` header, so `adapt --method fvt` and both
`fertility` jobs also run on copies of the two merges files with comment,
empty and whitespace-only lines placed among the merges with the seed
(COPIES names both sets of jobs). The benchmark's untied adapt jobs give
each matrix its own helper, so on an untied workload `adapt --method clp`
and `--method sava` also run without `--helper-head-emb`: one helper
then serves both matrices and is loaded once (SHARED_HELPER). No
benchmark job names one input file twice, so on every workload
`intersect` also runs with `--target-vocab` naming the `--source-vocab`
file and `similarity` with `--emb-b` naming the `--emb-a` file; on a
tied workload `adapt --method fvt` also runs with `--target-vocab` and
`--target-merges` naming the source's files and without `--helper-emb`,
whose rows no longer match the target; and on an untied workload `adapt
--method random` and `--method sava` also run with `--source-head-emb`
naming the `--source-emb` file: each such file is read once and serves
both flags (SAME_FILE, SAME_TARGET). Each of these jobs runs once more
with the second of each pair of flags naming the file through a symbolic
link in the job's output directory, since a file is one input however
its names spell it.

Embedding matrices, maps, map sidecars and the `stats` summary must be
byte-equal. JSON reports, and fit-map's stdout, are compared as JSON
without their `config` entry and `timing_seconds` fields, which hold
per-tree paths and wall time.

With --wide, the benchmark workloads are replaced by one untied shape
at the paper's width, d=4096 (WIDE, kept here rather than in
perfbench/workloads.py). Only `intersect`, the jobs of
perfbench/workloads.jobs and the `stats` and `params` jobs run on it,
since two fits at d=4096 take tens of seconds. Both trees run with
OPENBLAS_NUM_THREADS=2; the head tree then runs again with
OPENBLAS_NUM_THREADS=1, and the outputs that differ between its two
runs are listed as well (reported, never failed). Each run's wall time
is printed.

Prints one line per differing output and a closing count; with
--summary, the same lines are appended to FILE as Markdown (a CI step
summary). Exits 1 if a job exits non-zero in either tree, else 0:
differing outputs are reported, not failed, since some changes alter
output bytes on purpose.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
sys.dont_write_bytecode = True  # no __pycache__ beside the benchmark files

import gen  # noqa: E402
import workloads  # noqa: E402

TREES = ("base", "head")

# --wide: an untied shape at the paper's width. Its 1,200 shared pairs
# give fit-map's normal equations three blocks, since at d=4096 each
# block holds the 511-row floor. More pairs would only lengthen the
# fits, which take most of each tree's run (about 30 s on 2 cores).
WIDE = {
    "shared": 1200, "source_only": 200, "target_only": 300,
    "dim": 4096, "untied": True, "sim_dim": 512,
    "corpus_words": 40_000, "lexicon": 8_000, "epochs": 1,
}
WIDE_THREADS = (("base", "2"), ("head", "2"), ("head", "1"))
# the non-embedding parameter count `params` is given: any count will do,
# since the report adds it to the embedding counts
PARAMS_BASE = 7_000_000_000


def check_package(src: Path) -> None:
    """Exit unless `src` on PYTHONPATH imports a vocabforge package that
    lies inside it, not an installed copy."""
    done = subprocess.run(
        [sys.executable, "-c", "import vocabforge; print(vocabforge.__file__)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True,
    )
    if done.returncode:
        sys.exit(f"{src}: cannot import vocabforge:\n{done.stderr}")
    found = Path(done.stdout.strip()).resolve().parent
    if not found.is_relative_to(src):
        sys.exit(f"{src}: vocabforge resolved to {found}, outside the tree")


def marker_names(src: Path) -> list[str]:
    """The marker convention names in `src`'s `vocabforge.tokenizer.MARKERS`."""
    done = subprocess.run(
        [sys.executable, "-c",
         "from vocabforge.tokenizer import MARKERS; print(*MARKERS)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True,
    )
    if done.returncode:
        sys.exit(f"{src}: cannot read vocabforge.tokenizer.MARKERS:\n"
                 f"{done.stderr}")
    return done.stdout.split()


def command_jobs(spec: dict, paths: dict, out_dir: Path) -> list:
    """The commands the benchmark never runs: `stats` of the source
    matrix, as its summary and as `--json`, and `params` for the swap of
    the source vocabulary for the target's at the workload's width, tied
    or not as the workload is."""
    sizes = []
    for name in ("source_vocab", "target_vocab"):
        with open(paths[name], encoding="utf-8") as fh:
            sizes.append(str(len(json.load(fh))))
    summary, report = str(out_dir / "stats.txt"), str(out_dir / "stats.json")
    params = str(out_dir / "params.json")
    tied = () if spec["untied"] else ("--tied",)
    return [
        workloads.Job("stats", ("stats", "--matrix", paths["source_emb"],
                                "--out", summary), (summary,)),
        workloads.Job("stats_json", ("stats", "--matrix", paths["source_emb"],
                                     "--json", "--out", report), (report,)),
        workloads.Job("params", (
            "params", "--before", sizes[0], "--after", sizes[1],
            "--dim", str(spec["dim"]), *tied, "--base", str(PARAMS_BASE),
            "--out", params), (params,)),
    ]


def marker_pair_jobs(paths: dict, out_dir: Path, markers) -> list:
    """`intersect` of the source and target vocabularies under every
    (source, target) pair of the marker conventions `markers`."""
    jobs = []
    for frm, to in itertools.product(markers, repeat=2):
        out = str(out_dir / f"intersect-{frm}-{to}.json")
        jobs.append(workloads.Job(f"intersect_{frm}_{to}", (
            "intersect", "--source-vocab", paths["source_vocab"],
            "--target-vocab", paths["target_vocab"],
            "--source-marker", frm, "--target-marker", to, "--out", out,
        ), (out,)))
    return jobs


# jobs of the benchmark, each with the name, the extra flags and the extra
# output files (flag, file name) of a variant that takes a path the
# benchmark never does
VARIANTS = {
    "adapt_fvt": ("adapt_fvt_mean_row",
                  ("--fallback", "mean-row", "--verbose-report"), ()),
    "adapt_clp": ("adapt_clp_top16_shift_min",
                  ("--clp-top-k", "16", "--clp-negative-policy", "shift-min"), ()),
    "fertility_source": ("fertility_source_per_doc", ("--per-doc",),
                         (("--hist-out", "hist.csv"),)),
    "fit_map": ("fit_map_limit", ("--limit", "1000"), ()),
}


# untied adapt jobs of the benchmark that run again without
# --helper-head-emb, so that --helper-emb serves both matrices
SHARED_HELPER = ("adapt_clp", "adapt_sava")

# jobs of the benchmark that run again with the first flag of each pair
# naming the file of the second, where the job has the first flag, and
# once more with the second flag naming it through a symbolic link
SAME_FILE = {
    "intersect": (("--target-vocab", "--source-vocab"),),
    "adapt_fvt": (("--target-vocab", "--source-vocab"),
                  ("--target-merges", "--source-merges")),
    "adapt_random": (("--source-head-emb", "--source-emb"),),
    "adapt_sava": (("--source-head-emb", "--source-emb"),),
    "similarity": (("--emb-b", "--emb-a"),),
}
# SAME_FILE jobs whose target vocabulary becomes the source's: a helper
# has one row per target token, so they drop --helper-emb (FVT reads no
# helper row) and run only where the job has no --helper-head-emb
SAME_TARGET = ("adapt_fvt",)

# jobs of the benchmark that run again on copies of their inputs, by the
# name of the copies: vocabularies in a shuffled key order, and merges
# files with comment and blank lines among the merges
COPIES = {
    "shuffled_vocab": ("intersect", "adapt_fvt"),
    "commented_merges": ("adapt_fvt", "fertility_source", "fertility_target"),
}
# the lines placed among the merges: comments, and lines that are blank
# to str.strip (empty, or whitespace only, a space among it or not)
SKIPPED_LINES = ("#", "# a comment", "#\tx  y", "", " ", "\t", "\u3000",
                 " \x0c ", "\u2028 \u3000")


def renamed_job(job: workloads.Job, name: str, out_dir: Path, swap=None,
                flags=(), drop=None, files=()) -> workloads.Job:
    """`job` as `name`, writing its own files in `out_dir`, with each
    argument found in `swap` replaced, the flag `drop` and its value
    removed, `flags` appended, and each (flag, file name) of `files`
    appended as that flag naming a further output file in `out_dir`; its
    stdout is captured where `job`'s is."""
    renamed = {path: str(out_dir / f"{name}-{os.path.basename(path)}")
               for path in job.outputs}
    swap = {**(swap or {}), **renamed}
    argv = [swap.get(arg, arg) for arg in job.argv]
    if drop is not None:
        at = argv.index(drop)
        del argv[at:at + 2]
    added = {flag: str(out_dir / f"{name}-{file}") for flag, file in files}
    return workloads.Job(name, (*argv, *flags, *itertools.chain(*added.items())),
                         (*renamed.values(), *added.values()),
                         captures_stdout=job.captures_stdout)


def variant_jobs(jobs: list, out_dir: Path, copies: dict) -> list:
    """The VARIANTS, SHARED_HELPER, SAME_FILE and COPIES jobs of `jobs`,
    the last reading the input copies `copies[name]` (original path ->
    copy) of their name."""
    extra = []
    for job in jobs:
        if job.name in VARIANTS:
            name, flags, files = VARIANTS[job.name]
            extra.append(renamed_job(job, name, out_dir, flags=flags,
                                     files=files))
        if job.name in SHARED_HELPER and "--helper-head-emb" in job.argv:
            extra.append(renamed_job(job, f"{job.name}_shared_helper", out_dir,
                                     drop="--helper-head-emb"))
        pairs = SAME_FILE.get(job.name, ())
        drop = "--helper-emb" if job.name in SAME_TARGET else None
        if pairs and pairs[0][0] in job.argv and not (
                drop and "--helper-head-emb" in job.argv):
            value = dict(zip(job.argv, job.argv[1:]))  # each flag's value
            swap = {value[a]: value[b] for a, b in pairs}
            extra.append(renamed_job(job, f"{job.name}_same_file", out_dir,
                                     swap=swap, drop=drop))
            linked = f"{job.name}_same_file_link"
            for _, b in pairs:  # the second flag names the file through a link
                link = out_dir / f"{linked}-{os.path.basename(value[b])}"
                link.symlink_to(os.path.abspath(value[b]))
                swap[value[b]] = str(link)
            extra.append(renamed_job(job, linked, out_dir, swap=swap, drop=drop))
        for name, readers in COPIES.items():
            if job.name in readers:
                extra.append(renamed_job(job, f"{job.name}_{name}", out_dir,
                                         swap=copies[name]))
    return extra


def shuffled_vocabs(inputs: dict, seed: int) -> dict:
    """Write a copy of the source and of the target vocabulary with the
    same token -> id pairs in a key order shuffled with `seed`; return
    {original path: copy path}."""
    rng = random.Random(seed)
    copies = {}
    for name in ("source_vocab", "target_vocab"):
        path = inputs[name]
        with open(path, encoding="utf-8") as fh:
            items = list(json.load(fh).items())
        rng.shuffle(items)
        copies[path] = str(Path(path).with_suffix(".shuffled.json"))
        with open(copies[path], "w", encoding="utf-8") as fh:
            json.dump(dict(items), fh, ensure_ascii=False)
    return copies


def commented_merges(inputs: dict, seed: int) -> dict:
    """Write a copy of the source and of the target merges file with the
    same lines and, after about one line in fifty (chosen with `seed`), one
    of SKIPPED_LINES; return {original path: copy path}."""
    rng = random.Random(seed)
    copies = {}
    for name in ("source_merges", "target_merges"):
        path = inputs[name]
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
        out = []
        for line in lines:
            out.append(line)
            if rng.random() < 0.02:
                out.append(rng.choice(SKIPPED_LINES))
        copies[path] = str(Path(path).with_suffix(".commented.txt"))
        with open(copies[path], "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(out))
    return copies


def run_job(job: workloads.Job, src: Path, cwd: Path, env=None):
    """(exit code, stdout, stderr) of one job run against `src`, with the
    variables `env` added to the environment."""
    done = subprocess.run(
        [sys.executable, "-m", "vocabforge.cli", *job.argv],
        env={**os.environ, **(env or {}), "PYTHONPATH": str(src)},
        cwd=str(cwd), capture_output=True, text=True,
    )
    return done.returncode, done.stdout, done.stderr


def report_view(value):
    """A JSON report without `config` (top level) or `timing_seconds`
    (anywhere)."""
    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k != "timing_seconds"}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    if isinstance(value, dict):
        value = {k: v for k, v in value.items() if k != "config"}
    return strip(value)


def same_output(base: str, head: str, report: bool) -> bool:
    """Whether two outputs agree: as JSON reports, or byte for byte."""
    if report:
        with open(base, encoding="utf-8") as a, open(head, encoding="utf-8") as b:
            return report_view(json.load(a)) == report_view(json.load(b))
    with open(base, "rb") as a, open(head, "rb") as b:
        return a.read() == b.read()


def is_report(path: str) -> bool:
    # a map's sidecar (<map>.json) is compared byte for byte
    return path.endswith(".json") and not path.endswith(".map.json")


def run_tree(label: str, jobs: list, src: Path, root: Path, out_dir: Path,
             env=None):
    """Run `jobs` against `src`, from `root`, with the variables `env`
    added; return ({job name: file holding its stdout}, failed jobs as
    lines starting with `label`)."""
    stdout = {}
    failed = []
    for job in jobs:
        rc, text, err = run_job(job, src, root, env)
        if rc:
            last = err.strip().splitlines()[-1:] or [""]
            failed.append(f"{label} {job.name}: exit {rc}: {last[0]}")
        if job.captures_stdout:
            captured = out_dir / f"{job.name}.stdout.json"
            captured.write_text(text, encoding="utf-8")
            stdout[job.name] = str(captured)
    return stdout, failed


def differing(label: str, base: tuple, head: tuple) -> list[str]:
    """The outputs of two runs of the same jobs, each (jobs, stdout files
    by job name), that differ, as lines starting with `label`."""
    differ = []
    for base_job, head_job in zip(base[0], head[0]):
        pairs = [(b, h, is_report(b)) for b, h in zip(base_job.outputs,
                                                      head_job.outputs)]
        if base_job.captures_stdout:
            pairs.append((base[1][base_job.name], head[1][head_job.name], True))
        for base_path, head_path, report in pairs:
            line = f"{label} {base_job.name}: {os.path.basename(head_path)}"
            if not (os.path.exists(base_path) and os.path.exists(head_path)):
                differ.append(f"{line} (missing)")
            else:
                try:
                    if not same_output(base_path, head_path, report):
                        differ.append(line)
                except ValueError:  # a report that is not JSON
                    differ.append(f"{line} (not JSON)")
    return differ


def compare_workload(name: str, seed: int, srcs: dict, root: Path, markers):
    """Run one workload on both trees, with `intersect` under each pair of
    `markers`; return (differing outputs, failed jobs), each as lines
    naming the workload, seed and job."""
    spec = workloads.WORKLOADS[name]
    inputs = gen.generate(spec, seed, str(root / "in"))["paths"]
    copies = {"shuffled_vocab": shuffled_vocabs(inputs, seed),
              "commented_merges": commented_merges(inputs, seed)}
    runs = {}
    failed = []
    for tree in TREES:
        out_dir = root / tree
        out_dir.mkdir()
        paths = {**inputs, "partition": str(out_dir / "partition.json")}
        jobs = [workloads.intersect_job(paths)]
        jobs += marker_pair_jobs(paths, out_dir, markers)
        jobs += workloads.jobs(spec, paths, seed, str(out_dir))
        jobs += command_jobs(spec, paths, out_dir)
        jobs += variant_jobs(jobs, out_dir, copies)
        stdout, fails = run_tree(f"{name} seed {seed} {tree}", jobs,
                                 srcs[tree], root, out_dir)
        runs[tree] = (jobs, stdout)
        failed += fails
    return differing(f"{name} seed {seed}", runs["base"], runs["head"]), failed


def compare_wide(seed: int, srcs: dict, root: Path):
    """Run the WIDE shape's jobs on both trees and on the head tree again,
    under each WIDE_THREADS count; return (outputs differing between the
    trees, failed jobs, outputs differing between the head tree's thread
    counts, wall times), each as lines."""
    inputs = gen.generate(WIDE, seed, str(root / "in"))["paths"]
    runs = {}
    failed = []
    times = []
    for tree, threads in WIDE_THREADS:
        label = f"wide seed {seed} {tree} {threads} BLAS thread(s)"
        out_dir = root / f"{tree}-{threads}"
        out_dir.mkdir()
        paths = {**inputs, "partition": str(out_dir / "partition.json")}
        jobs = [workloads.intersect_job(paths)]
        jobs += workloads.jobs(WIDE, paths, seed, str(out_dir))
        jobs += command_jobs(WIDE, paths, out_dir)
        start = time.perf_counter()
        stdout, fails = run_tree(label, jobs, srcs[tree], root, out_dir,
                                 {"OPENBLAS_NUM_THREADS": threads})
        times.append(f"{label}: {time.perf_counter() - start:.1f} s")
        runs[tree, threads] = (jobs, stdout)
        failed += fails
    differ = differing(f"wide seed {seed}", runs["base", "2"], runs["head", "2"])
    by_threads = differing(f"wide seed {seed} head, 2 vs 1 BLAS threads",
                           runs["head", "2"], runs["head", "1"])
    return differ, failed, by_threads, times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two source trees' CLI outputs on the benchmark "
                    "workloads.")
    parser.add_argument("base_src", type=Path, help="the base tree's src")
    parser.add_argument("head_src", type=Path, help="the head tree's src")
    tier = parser.add_mutually_exclusive_group()
    tier.add_argument("--workload", action="append",
                      choices=sorted(workloads.WORKLOADS),
                      help="a workload to run (repeatable; default: all)")
    tier.add_argument("--wide", action="store_true",
                      help="run the d=4096 WIDE shape instead of the workloads")
    parser.add_argument("--seed", action="append", type=int,
                        help="an input seed (repeatable; default: 1)")
    parser.add_argument("--summary", help="append a Markdown summary here")
    args = parser.parse_args(argv)
    srcs = {tree: path.resolve() for tree, path in zip(TREES, (args.base_src,
                                                            args.head_src))}
    for src in srcs.values():
        check_package(src)
    base_markers = set(marker_names(srcs["base"]))
    markers = [m for m in marker_names(srcs["head"]) if m in base_markers]
    differ, failed, by_threads, times = [], [], [], []
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        names = ["wide"] if args.wide else args.workload or list(workloads.WORKLOADS)
        for name in names:
            for seed in args.seed or [1]:
                root = Path(tmp) / f"{name}-s{seed}"
                root.mkdir()
                if args.wide:
                    results = compare_wide(seed, srcs, root)
                else:
                    results = compare_workload(name, seed, srcs, root, markers)
                # compare_workload returns the first two only
                for total, part in zip((differ, failed, by_threads, times),
                                       results):
                    total += part
    lines = [f"wall time: {line}" for line in times]
    lines += [f"differs: {line}" for line in differ]
    lines += [f"failed: {line}" for line in failed]
    lines += [f"differs by BLAS threads: {line}" for line in by_threads]
    lines.append(f"{len(differ)} differing outputs, {len(failed)} failed jobs"
                 + (f", {len(by_threads)} outputs differing by BLAS threads"
                    if args.wide else ""))
    print("\n".join(lines))
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as fh:
            fh.write("### Outputs against the base commit"
                     + (" at d=4096\n\n" if args.wide else "\n\n"))
            fh.write("".join(f"- {line}\n" for line in lines) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
