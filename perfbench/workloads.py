"""Workload shapes and the CLI jobs each workload runs.

Every workload runs the same eight jobs, so every end-to-end metric
exists on every workload; the shapes decide which layer dominates.
Sizes are scaled so one pass over the eight jobs takes a few seconds on
a 2-core machine: the benchmark takes medians over repeated passes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

WORKLOADS = {
    "tied-5k-d256": {
        "why": "tied 5k meta-space -> byte-marker swap, ~2.5k novel rows at "
               "d=256: heuristics dominates (dense CLP, per-row FVT/random)",
        "shared": 2500, "source_only": 2500, "target_only": 2500,
        "dim": 256, "untied": False, "sim_dim": 512,
        "corpus_words": 40_000, "lexicon": 8_000, "epochs": 2,
    },
    "untied-2k-d512": {
        "why": "untied embed+head at d=512 with 2k shared pairs and few novel "
               "rows: Adam alignment and EMB1 I/O dominate",
        "shared": 2000, "source_only": 200, "target_only": 200,
        "dim": 512, "untied": True, "sim_dim": 1024,
        "corpus_words": 40_000, "lexicon": 8_000, "epochs": 1,
    },
    "corpus-32k": {
        "why": "32k tokenizers, Zipfian corpus and d=32: BPE encoding of "
               "repeated words and vocabulary-sized loops dominate",
        "shared": 31_000, "source_only": 1_000, "target_only": 300,
        "dim": 32, "untied": False, "sim_dim": 128,
        "corpus_words": 70_000, "lexicon": 14_000, "epochs": 1,
        # at d=32 loading the 32k tokenizers dominates every adapt job, so
        # they slow like the interpreter (slopes 0-0.4 for random/fvt/fit-map)
        "beta": {"adapt_random": 0.0, "adapt_fvt": 0.0, "adapt_sava": 0.5,
                 "fit_map": 0.25},
    },
}

METHODS = ("random", "fvt", "clp", "sava")
BATCH = 32  # the CLI default

# Share of each job that slows like array code rather than like the
# interpreter (see probe.py): the slope of log job time on the log probe
# parts, recorded with probe and job interleaved for ~2 minutes per
# workload on a 2-core x86 machine, rounded to a quarter. Slopes ranged
# 0.2-0.7 for random/fvt, 0.8-1.1 for clp/sava, 0.3-0.9 for fit-map,
# 0.1-0.4 for fertility and 0.8 for similarity.
BETA = {"adapt_random": 0.5, "adapt_fvt": 0.5, "adapt_clp": 1.0,
        "adapt_sava": 1.0, "fit_map": 0.75, "fertility": 0.0,
        "similarity": 0.75}


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # files the job writes
    captures_stdout: bool = False
    beta: float = 1.0  # see BETA


def jobs(spec: dict, paths: dict, seed: int, out_dir: str) -> list[Job]:
    """The workload's jobs in the order one pass runs them."""
    beta = {**BETA, **spec.get("beta", {})}

    def out(name):
        return os.path.join(out_dir, name)

    common = ("--seed", str(seed))
    schedule = ("--steps", str(spec["epochs"]), "--batch", str(BATCH))
    adapt_inputs = (
        "--source-emb", paths["source_emb"], "--helper-emb", paths["helper_emb"],
        "--source-vocab", paths["source_vocab"],
        "--source-merges", paths["source_merges"],
        "--target-vocab", paths["target_vocab"],
        "--target-merges", paths["target_merges"],
        "--source-marker", "meta-space", "--target-marker", "byte-marker",
        "--unk-token", "<unk>",
    )
    result = []
    for method in METHODS:
        outputs = [out(f"{method}.emb1"), out(f"{method}.report.json")]
        argv = ["adapt", "--method", method, *adapt_inputs, *common,
                "--out", outputs[0], "--report", outputs[1]]
        if spec["untied"]:
            outputs.append(out(f"{method}.head.emb1"))
            argv += ["--source-head-emb", paths["source_head"],
                     "--helper-head-emb", paths["helper_head"],
                     "--out-head", outputs[2]]
        if method == "sava":
            argv += schedule
        result.append(Job(f"adapt_{method}", tuple(argv), tuple(outputs),
                          beta=beta[f"adapt_{method}"]))
    result.append(fit_map_job("fit_map", paths["helper_emb"], paths["source_emb"],
                              paths, seed, spec, out_dir, beta["fit_map"]))
    for side, marker in (("source", "meta-space"), ("target", "byte-marker")):
        report = out(f"fertility_{side}.json")
        result.append(Job(f"fertility_{side}", (
            "fertility", "--vocab", paths[f"{side}_vocab"],
            "--merges", paths[f"{side}_merges"], "--corpus", paths["corpus"],
            "--marker", marker, "--byte-level", *common, "--out", report,
        ), (report,), beta=beta["fertility"]))
    report = out("similarity.json")
    result.append(Job("similarity", (
        "similarity", "--emb-a", paths["sim_a"], "--emb-b", paths["sim_b"],
        "--vocab", paths["target_vocab"], "--marker", "byte-marker",
        *common, "--out", report,
    ), (report,), beta=beta["similarity"]))
    return result


def fit_map_job(name, helper, source, paths, seed, spec, out_dir, beta=1.0) -> Job:
    """fit-map with the same partition, seed and schedule as adapt --method sava."""
    map_path = os.path.join(out_dir, f"{name}.map")
    return Job(name, (
        "fit-map", "--helper-emb", helper, "--source-emb", source,
        "--partition", paths["partition"], "--seed", str(seed),
        "--steps", str(spec["epochs"]), "--batch", str(BATCH), "--out", map_path,
    ), (map_path, map_path + ".json"), captures_stdout=True, beta=beta)


def intersect_job(paths: dict) -> Job:
    return Job("intersect", (
        "intersect", "--source-vocab", paths["source_vocab"],
        "--target-vocab", paths["target_vocab"],
        "--source-marker", "meta-space", "--target-marker", "byte-marker",
        "--out", paths["partition"],
    ), (paths["partition"],))
