#!/usr/bin/env python3
"""Compare the CLI outputs of two source trees on the benchmark workloads.

    python3 scripts/compare_outputs.py BASE_SRC HEAD_SRC
        [--workload W ...] [--seed N ...] [--summary FILE]

BASE_SRC and HEAD_SRC are `src` directories holding the `vocabforge`
package. For each workload and seed, the inputs are generated once with
perfbench/gen.py; then, for each tree, `intersect` and every job of
perfbench/workloads.jobs run through `python -m vocabforge.cli` with that
tree on PYTHONPATH, each tree writing to its own directory.

Embedding matrices, maps and map sidecars must be byte-equal. JSON
reports, and fit-map's stdout, are compared as JSON without their
`config` entry and `timing_seconds` fields, which hold per-tree paths and
wall time.

Prints one line per differing output and a closing count; with
--summary, the same lines are appended to FILE as Markdown (a CI step
summary). Exits 1 if a job exits non-zero in either tree, else 0:
differing outputs are reported, not failed, since some changes alter
output bytes on purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
sys.dont_write_bytecode = True  # no __pycache__ beside the benchmark files

import gen  # noqa: E402
import workloads  # noqa: E402

TREES = ("base", "head")


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


def run_job(job: workloads.Job, src: Path, cwd: Path):
    """(exit code, stdout, stderr) of one job run against `src`."""
    done = subprocess.run(
        [sys.executable, "-m", "vocabforge.cli", *job.argv],
        env={**os.environ, "PYTHONPATH": str(src)},
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


def compare_workload(name: str, seed: int, srcs: dict, root: Path):
    """Run one workload on both trees; return (differing outputs, failed
    jobs), each as lines naming the workload, seed and job."""
    spec = workloads.WORKLOADS[name]
    inputs = gen.generate(spec, seed, str(root / "in"))["paths"]
    outs = {}
    stdout = {}
    failed = []
    for tree in TREES:
        out_dir = root / tree
        out_dir.mkdir()
        paths = {**inputs, "partition": str(out_dir / "partition.json")}
        jobs = [workloads.intersect_job(paths)]
        jobs += workloads.jobs(spec, paths, seed, str(out_dir))
        for job in jobs:
            rc, text, err = run_job(job, srcs[tree], root)
            if rc:
                last = err.strip().splitlines()[-1:] or [""]
                failed.append(f"{name} seed {seed} {tree} {job.name}: "
                              f"exit {rc}: {last[0]}")
            if job.captures_stdout:
                captured = out_dir / f"{job.name}.stdout.json"
                captured.write_text(text, encoding="utf-8")
                stdout[tree, job.name] = str(captured)
        outs[tree] = jobs
    differ = []
    for base_job, head_job in zip(outs["base"], outs["head"]):
        pairs = [(b, h, is_report(b)) for b, h in zip(base_job.outputs,
                                                      head_job.outputs)]
        if base_job.captures_stdout:
            pairs.append((stdout["base", base_job.name],
                          stdout["head", head_job.name], True))
        for base, head, report in pairs:
            label = f"{name} seed {seed} {base_job.name}: {os.path.basename(head)}"
            if not (os.path.exists(base) and os.path.exists(head)):
                differ.append(f"{label} (missing)")
            else:
                try:
                    if not same_output(base, head, report):
                        differ.append(label)
                except ValueError:  # a report that is not JSON
                    differ.append(f"{label} (not JSON)")
    return differ, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two source trees' CLI outputs on the benchmark "
                    "workloads.")
    parser.add_argument("base_src", type=Path, help="the base tree's src")
    parser.add_argument("head_src", type=Path, help="the head tree's src")
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS),
                        help="a workload to run (repeatable; default: all)")
    parser.add_argument("--seed", action="append", type=int,
                        help="an input seed (repeatable; default: 1)")
    parser.add_argument("--summary", help="append a Markdown summary here")
    args = parser.parse_args(argv)
    srcs = {tree: path.resolve() for tree, path in zip(TREES, (args.base_src,
                                                            args.head_src))}
    for src in srcs.values():
        check_package(src)
    differ, failed = [], []
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        for name in args.workload or list(workloads.WORKLOADS):
            for seed in args.seed or [1]:
                root = Path(tmp) / f"{name}-s{seed}"
                root.mkdir()
                differs, fails = compare_workload(name, seed, srcs, root)
                differ += differs
                failed += fails
    lines = [f"differs: {line}" for line in differ]
    lines += [f"failed: {line}" for line in failed]
    lines.append(f"{len(differ)} differing outputs, {len(failed)} failed jobs")
    print("\n".join(lines))
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as fh:
            fh.write("### Outputs against the base commit\n\n")
            fh.write("".join(f"- {line}\n" for line in lines) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
