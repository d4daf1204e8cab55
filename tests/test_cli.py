import dataclasses
import gc
import json
import math
import os
import re
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from vocabforge import analysis, heuristics
from vocabforge.cli import build_parser, main
from vocabforge.tokenizer import MARKERS


@pytest.fixture
def world(tmp_path):
    """A tiny source/target model pair on disk, ready for the CLI."""
    rng = np.random.default_rng(0)
    paths = {}

    def dump_json(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj), encoding="utf-8")
        return str(p)

    source_tokens = [f"s{i}" for i in range(8)]
    target_tokens = [f"s{i}" for i in range(6)] + ["n0", "n1"]
    paths["source_vocab"] = dump_json(
        "source_vocab.json", {t: i for i, t in enumerate(source_tokens)}
    )
    paths["target_vocab"] = dump_json(
        "target_vocab.json", {t: i for i, t in enumerate(target_tokens)}
    )
    merges = tmp_path / "merges.txt"
    merges.write_text("", encoding="utf-8")
    paths["merges"] = str(merges)

    from vocabforge import EmbeddingMatrix, save_matrix

    def dump_emb(name, rows, dim=4):
        p = str(tmp_path / name)
        save_matrix(
            EmbeddingMatrix(rng.normal(size=(rows, dim)).astype(np.float32)), p
        )
        return p

    paths["source_emb"] = dump_emb("source.emb1", 8)
    paths["helper_emb"] = dump_emb("helper.emb1", 8)
    paths["tmp"] = str(tmp_path)
    return paths


def write_zero_width(path, rows):
    """An EMB1 header declaring `rows` rows of width 0, with no payload."""
    with open(path, "wb") as fh:
        fh.write(b"EMB1" + struct.pack("<II", rows, 0) + b"\x00" * 4)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParams:
    def test_report_on_stdout(self, capsys):
        code, out, _ = run(
            capsys, "params", "--before", "128256", "--after", "32768",
            "--dim", "4096", "--base", "6980000000",
        )
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == "1"
        assert report["params"]["delta"] == 782_237_696
        assert report["config"]["before"] == 128256

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "params", "--after", "10")
        assert code == 1
        assert "--before" in err

    def test_no_subcommand(self, capsys):
        assert run(capsys, )[0] == 1

    def test_validation_error(self, capsys):
        code, _, err = run(
            capsys, "params", "--before", "0", "--after", "1",
            "--dim", "1", "--base", "0",
        )
        assert code == 1
        assert "error" in err


class TestCollectorPause:
    """main runs a command with the cyclic collector paused and leaves it
    as it found it, however the command ends."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collecting(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("argv, code, reaches", [
        (["params", "--before", "2", "--after", "1", "--dim", "1",
          "--base", "0"], 0, True),
        (["params", "--before", "0", "--after", "1", "--dim", "1",
          "--base", "0"], 1, True),
        (["params", "--after", "1"], 1, True),  # a UsageError
        (["params", "--dim", "x"], 1, False),  # a UsageError while parsing
        (["fertility", "--vocab", "nope.json", "--merges", "nope.txt",
          "--corpus", "nope.txt"], 2, False),
    ], ids=["exit-0", "value-error", "missing-flag", "bad-flag", "os-error"])
    def test_state_restored(self, capsys, monkeypatch, collecting, argv, code,
                            reaches):
        from vocabforge import cli
        seen = []
        real = cli.cmd_params

        def spy(args):
            seen.append(gc.isenabled())
            return real(args)

        monkeypatch.setattr(cli, "cmd_params", spy)
        assert run(capsys, *argv)[0] == code
        assert gc.isenabled() is collecting
        assert seen == ([False] if reaches else [])

    def test_vocabforge_error(self, capsys, collecting, world):
        path = world["tmp"] + "/narrow.emb1"
        write_zero_width(path, 3)
        assert run(capsys, "stats", "--matrix", path)[0] == 1
        assert gc.isenabled() is collecting

    def test_exception_out_of_main(self, monkeypatch, collecting):
        from vocabforge import cli

        def crash(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_params", crash)
        with pytest.raises(RuntimeError, match="boom"):
            main(["params"])
        assert gc.isenabled() is collecting


class TestStats:
    def test_human_summary(self, capsys, world):
        code, out, _ = run(capsys, "stats", "--matrix", world["source_emb"])
        assert code == 0
        assert "8 x 4" in out

    def test_json_report(self, capsys, world):
        code, out, _ = run(
            capsys, "stats", "--matrix", world["source_emb"], "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["rows"] == 8
        assert len(report["mean"]) == 4

    def test_summary_written_to_out(self, capsys, world):
        _, shown, _ = run(capsys, "stats", "--matrix", world["source_emb"])
        dest = world["tmp"] + "/summary.txt"
        code, out, _ = run(
            capsys, "stats", "--matrix", world["source_emb"], "--out", dest
        )
        assert code == 0
        assert out == ""
        with open(dest, encoding="utf-8") as fh:
            assert fh.read() == shown
        assert len(shown.splitlines()) == 3

    def test_missing_file_is_io_error(self, capsys, world):
        code, _, err = run(
            capsys, "stats", "--matrix", world["tmp"] + "/nope.emb1"
        )
        assert code == 2
        assert "i/o" in err


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("extra", [[], ["--json"]], ids=["summary", "json"])
    def test_zero_width_matrix_is_validation_error(self, capsys, world, extra):
        path = world["tmp"] + "/narrow.emb1"
        write_zero_width(path, 3)
        code, out, err = run(capsys, "stats", "--matrix", path, *extra)
        assert code == 1
        assert out == ""
        assert err == f"error: matrix {path!r} has zero-width rows\n"


class TestIntersectAndFitMap:
    def test_pipeline(self, capsys, world):
        part_path = world["tmp"] + "/part.json"
        code, _, _ = run(
            capsys, "intersect",
            "--source-vocab", world["source_vocab"],
            "--target-vocab", world["target_vocab"],
            "--source-marker", "none", "--target-marker", "none",
            "--out", part_path,
        )
        assert code == 0
        part = json.loads(open(part_path).read())
        assert part["canonicalization_mode"] == "raw"
        assert len(part["shared"]) == 6
        assert len(part["novel"]) == 2

        map_path = world["tmp"] + "/map.bin"
        code, out, _ = run(
            capsys, "fit-map",
            "--helper-emb", world["helper_emb"],
            "--source-emb", world["source_emb"],
            "--partition", part_path,
            "--out", map_path, "--steps", "5",
        )
        assert code == 0
        assert os.path.exists(map_path)
        assert os.path.exists(map_path + ".json")
        report = json.loads(out)
        assert report["config"]["out"] == map_path
        assert report["fit"]["pair_count"] == 6
        assert report["fit"]["oracle_mse"] is not None

    @pytest.mark.parametrize("dest", ["out", "stdout"])
    def test_report_with_a_lone_surrogate_is_written_escaped(self, capsys,
                                                             tmp_path, dest):
        from vocabforge import TokenPartition
        from vocabforge.errors import PartitionInconsistent
        from vocabforge.tokenizer import load_json
        paths = {}
        for name, obj in (("source", {"▁a": 0}),
                          ("target", {"▁a": 0, "\ud800": 1})):
            paths[name] = tmp_path / f"{name}.json"
            # json.dumps writes the surrogate as the escape \ud800
            paths[name].write_text(json.dumps(obj), encoding="utf-8")
        report_path = tmp_path / "part.json"
        argv = ["intersect", "--source-vocab", str(paths["source"]),
                "--target-vocab", str(paths["target"])]
        if dest == "out":
            argv += ["--out", str(report_path)]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        if dest == "stdout":
            report_path.write_text(out, encoding="utf-8")
        text = report_path.read_text(encoding="utf-8")
        # every non-ASCII character is escaped, the marker too
        assert text.isascii() and "\\ud800" in text and "\\u2581a" in text
        part = TokenPartition.from_dict(load_json(str(report_path),
                                                  PartitionInconsistent))
        assert part.shared == (("▁a", 0, 0),)
        assert part.novel == (("\ud800", 1),)

    def test_report_without_a_surrogate_keeps_its_characters(self, capsys,
                                                             tmp_path):
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps({"▁a": 0, "é": 1}), encoding="utf-8")
        code, out, _ = run(capsys, "intersect", "--source-vocab", str(vocab),
                           "--target-vocab", str(vocab))
        assert code == 0
        assert '"▁a",' in out and '"é",' in out

    @pytest.mark.parametrize("limit", [None, 25])
    def test_map_equals_the_fit_of_gathered_pairs(self, capsys, tmp_path,
                                                  limit):
        # fit-map reads the pairs by id; gathering them first and fitting
        # the arrays must write the same bytes and report the same values
        from vocabforge import (EmbeddingMatrix, TokenPartition, TrainConfig,
                                collect_pairs, fit_gradient, save_map,
                                save_matrix)

        rng = np.random.default_rng(5)
        helper = EmbeddingMatrix(rng.normal(size=(60, 5)).astype(np.float32))
        source = EmbeddingMatrix(rng.normal(size=(50, 7)).astype(np.float32))
        # 40 of the 60 target tokens are shared; fit-map checks that the
        # partition covers every helper row once
        sids, tids = rng.permutation(50)[:40], rng.permutation(60)
        part = TokenPartition(
            shared=tuple((f"t{i}", int(sid), int(tid)) for i, (sid, tid) in
                         enumerate(zip(sids, tids[:40]))),
            novel=tuple((f"n{i}", int(tid)) for i, tid in enumerate(tids[40:])),
            warnings=())
        paths = {name: str(tmp_path / name) for name in
                 ("helper.emb1", "source.emb1", "part.json", "cli.map",
                  "arrays.map")}
        save_matrix(helper, paths["helper.emb1"])
        save_matrix(source, paths["source.emb1"])
        Path(paths["part.json"]).write_text(json.dumps(part.to_dict()),
                                            encoding="utf-8")
        code, out, _ = run(
            capsys, "fit-map", "--helper-emb", paths["helper.emb1"],
            "--source-emb", paths["source.emb1"],
            "--partition", paths["part.json"], "--out", paths["cli.map"],
            "--steps", "4", "--batch", "8", "--seed", "7",
            *(["--limit", str(limit)] if limit else []),
        )
        assert code == 0
        cfg = TrainConfig(steps=4, batch=8, seed=7)
        phi, report = fit_gradient(
            *collect_pairs(helper, source, part, limit=limit, seed=7), cfg,
            compare_oracle=True)
        save_map(phi, paths["arrays.map"])
        for suffix in ("", ".json"):
            assert (Path(paths["cli.map"] + suffix).read_bytes()
                    == Path(paths["arrays.map"] + suffix).read_bytes())
        assert json.loads(out)["fit"] == dataclasses.asdict(report)
        assert report.pair_count == (limit or 40)

    @pytest.mark.parametrize("doc", [
        {"novel": [["n0", 6], ["n1", 7]]},
        {"shared": [["s0", 0, -1]], "novel": []},
        {"shared": [["s0", 0, 0], ["s1", 1, 1]], "novel": [], "warnings": 5},
    ])
    def test_malformed_partition_is_validation_error(self, capsys, world, doc):
        part_path = world["tmp"] + "/bad_part.json"
        with open(part_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, out, err = run(
            capsys, "fit-map",
            "--helper-emb", world["helper_emb"],
            "--source-emb", world["source_emb"],
            "--partition", part_path,
            "--out", world["tmp"] + "/map.bin", "--steps", "1",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not os.path.exists(world["tmp"] + "/map.bin")

    @pytest.mark.filterwarnings("error")
    def test_zero_width_helper_is_validation_error(self, capsys, world):
        part_path = world["tmp"] + "/part.json"
        with open(part_path, "w", encoding="utf-8") as fh:
            json.dump({"shared": [[f"s{i}", i, i] for i in range(6)],
                       "novel": []}, fh)
        helper = world["tmp"] + "/narrow.emb1"
        write_zero_width(helper, 8)
        code, out, err = run(
            capsys, "fit-map",
            "--helper-emb", helper,
            "--source-emb", world["source_emb"],
            "--partition", part_path,
            "--out", world["tmp"] + "/map.bin", "--steps", "1",
        )
        assert code == 1
        assert out == ""
        assert err == f"error: matrix {helper!r} has zero-width rows\n"
        assert not os.path.exists(world["tmp"] + "/map.bin")

    @pytest.mark.parametrize("lr", ["nan", "inf", "-inf"])
    def test_non_finite_lr_is_one_error_line(self, capsys, world, lr):
        part_path = world["tmp"] + "/part.json"
        with open(part_path, "w", encoding="utf-8") as fh:
            json.dump({"shared": [[f"s{i}", i, i] for i in range(6)],
                       "novel": []}, fh)
        code, out, err = run(
            capsys, "fit-map",
            "--helper-emb", world["helper_emb"],
            "--source-emb", world["source_emb"],
            "--partition", part_path,
            "--out", world["tmp"] + "/map.bin", f"--lr={lr}",
        )
        assert code == 1
        assert out == ""
        assert err == f"error: learning_rate must be finite and > 0, got {lr}\n"
        assert not os.path.exists(world["tmp"] + "/map.bin")

    @pytest.mark.filterwarnings("error")
    def test_diverging_fit_is_one_error_line(self, capsys, world):
        part_path = world["tmp"] + "/part.json"
        with open(part_path, "w", encoding="utf-8") as fh:
            json.dump({"shared": [[f"s{i}", i, i] for i in range(6)],
                       "novel": [["n0", 6], ["n1", 7]]}, fh)
        code, out, err = run(
            capsys, "fit-map",
            "--helper-emb", world["helper_emb"],
            "--source-emb", world["source_emb"],
            "--partition", part_path,
            "--out", world["tmp"] + "/map.bin", "--steps", "50",
            "--lr", "1e300",
        )
        assert code == 1
        assert out == ""
        assert re.fullmatch(r"error: training diverged to non-finite "
                            r"weights in epoch [12] of 50\n", err)
        assert not os.path.exists(world["tmp"] + "/map.bin")

    # checked before the (missing) partition file is read
    @pytest.mark.parametrize("flag, value", [("--limit", "-1"),
                                             ("--batch", "-5")])
    def test_negative_size_is_usage_error(self, capsys, world, flag, value):
        code, out, err = run(
            capsys, "fit-map",
            "--helper-emb", world["helper_emb"],
            "--source-emb", world["source_emb"],
            "--partition", world["tmp"] + "/missing.json",
            "--out", world["tmp"] + "/map.bin", flag, value,
        )
        assert code == 1
        assert out == ""
        assert err == f"{flag} must be at least 0, got {value}\n"
        assert not os.path.exists(world["tmp"] + "/map.bin")

    @pytest.mark.parametrize("flag", ["--source-vocab", "--target-vocab"])
    def test_array_vocab_is_validation_error(self, capsys, world, flag):
        bad = world["tmp"] + "/array_vocab.json"
        with open(bad, "w", encoding="utf-8") as fh:
            json.dump(["s0", "s1"], fh)
        args = {"--source-vocab": world["source_vocab"],
                "--target-vocab": world["target_vocab"], flag: bad}
        code, out, err = run(capsys, "intersect", *sum(args.items(), ()))
        assert code == 1
        assert out == ""
        assert err == "error: vocab file must be a JSON object\n"


class TestAdapt:
    def adapt_args(self, world, out, report, *extra):
        return [
            "adapt", "--method", "random",
            "--source-emb", world["source_emb"],
            "--source-vocab", world["source_vocab"],
            "--source-merges", world["merges"],
            "--target-vocab", world["target_vocab"],
            "--target-merges", world["merges"],
            "--source-marker", "none", "--target-marker", "none",
            "--out", out, "--report", report, *extra,
        ]

    def test_random_adaptation(self, capsys, world):
        out = world["tmp"] + "/adapted.emb1"
        report_path = world["tmp"] + "/report.json"
        code, _, _ = run(capsys, *self.adapt_args(world, out, report_path))
        assert code == 0
        from vocabforge import load_matrix
        assert load_matrix(out).rows == 8
        report = json.loads(open(report_path).read())
        assert report["adaptation"]["copied_count"] == 6
        assert report["adaptation"]["initialized_count"] == 2

    def test_report_file_is_the_canonical_report(self, capsys, world):
        report_path = world["tmp"] + "/report.json"
        code, out, _ = run(capsys, *self.adapt_args(
            world, world["tmp"] + "/adapted.emb1", report_path))
        assert code == 0
        assert out == ""
        text = open(report_path, encoding="utf-8").read()
        report = json.loads(text)
        assert report["config"]["report"] == report_path
        assert text == json.dumps(report, indent=2, sort_keys=True,
                                  ensure_ascii=False) + "\n"

    def test_artifacts_reproducible(self, capsys, world):
        runs = []
        for tag in ("a", "b"):
            out = world["tmp"] + f"/adapted_{tag}.emb1"
            report_path = world["tmp"] + f"/report_{tag}.json"
            assert run(capsys,
                       *self.adapt_args(world, out, report_path))[0] == 0
            report = json.loads(open(report_path).read())
            # paths and wall time legitimately differ between runs
            report.pop("config")
            report["adaptation"].pop("timing_seconds")
            runs.append((open(out, "rb").read(), report))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("method", ["random", "fvt"])
    def test_unused_helper_header_is_checked(self, capsys, world, method):
        from vocabforge import EmbeddingMatrix, save_matrix
        helper = world["tmp"] + "/bad_helper.emb1"
        out = world["tmp"] + "/adapted.emb1"
        wrong_rows = ("helper matrix has 5 rows but the target vocabulary has "
                      "8 tokens; the helper must be trained with the target "
                      "tokenizer")
        cases = [
            (lambda: save_matrix(EmbeddingMatrix(
                np.ones((5, 4), dtype=np.float32)), helper), wrong_rows),
            (lambda: write_zero_width(helper, 8),
             f"matrix {helper!r} has zero-width rows"),
            (lambda: open(helper, "wb").close(),
             f"{helper}: not an EMB1 record"),
        ]
        for flag in ("--helper-emb", "--helper-head-emb"):
            for write, message in cases:
                write()
                extra = [flag, helper]
                if flag == "--helper-head-emb":
                    extra += ["--helper-emb", world["helper_emb"],
                              "--source-head-emb", world["source_emb"],
                              "--out-head", world["tmp"] + "/head_out.emb1"]
                args = self.adapt_args(
                    world, out, world["tmp"] + "/report.json", *extra)
                args[2] = method
                code, stdout, err = run(capsys, *args)
                assert (code, stdout, err) == (1, "", f"error: {message}\n")
                assert not os.path.exists(world["tmp"] + "/report.json")

    @pytest.mark.parametrize("method", ["random", "fvt"])
    def test_unused_helper_is_never_loaded(self, capsys, world, monkeypatch,
                                           method):
        from vocabforge import embeddings
        loaded = []
        load = embeddings.load_matrix

        def logged_load(path, *rest):
            loaded.append(path)
            return load(path, *rest)

        monkeypatch.setattr(embeddings, "load_matrix", logged_load)
        outputs = []
        for extra in ([], ["--helper-emb", world["helper_emb"],
                           "--helper-head-emb", world["helper_emb"]]):
            out = world["tmp"] + f"/adapted{len(extra)}.emb1"
            args = self.adapt_args(
                world, out, world["tmp"] + "/report.json",
                "--source-head-emb", world["source_emb"],
                "--out-head", out + ".head", *extra)
            args[2] = method
            assert run(capsys, *args)[0] == 0
            outputs.append([Path(p).read_bytes() for p in (out, out + ".head")])
        # one file as both source matrices: read once per run
        assert loaded == [world["source_emb"]] * 2
        assert outputs[0] == outputs[1]

    def test_failed_output_write_keeps_previous_files(self, capsys, world,
                                                      monkeypatch):
        from vocabforge import embeddings
        out = world["tmp"] + "/adapted.emb1"
        report = world["tmp"] + "/report.json"
        assert run(capsys, *self.adapt_args(world, out, report))[0] == 0
        before = {p: Path(p).read_bytes() for p in (out, report)}
        listing = sorted(os.listdir(world["tmp"]))
        real = embeddings.write_record

        def write_record(fh, data):
            real(fh, data[:1])  # a header and one row, then the disk fills
            raise OSError("No space left on device")

        monkeypatch.setattr(embeddings, "write_record", write_record)
        code, stdout, err = run(capsys, *self.adapt_args(
            world, out, report, "--seed", "3"))
        assert (code, stdout) == (2, "")
        assert err == "i/o error: No space left on device\n"
        assert {p: Path(p).read_bytes() for p in before} == before
        assert sorted(os.listdir(world["tmp"])) == listing

    def test_sava_needs_helper(self, capsys, world):
        code, _, err = run(
            capsys, "adapt", "--method", "sava",
            "--source-emb", world["source_emb"],
            "--source-vocab", world["source_vocab"],
            "--source-merges", world["merges"],
            "--target-vocab", world["target_vocab"],
            "--target-merges", world["merges"],
            "--source-marker", "none", "--target-marker", "none",
            "--out", world["tmp"] + "/x.emb1",
            "--report", world["tmp"] + "/x.json",
        )
        assert code == 1
        assert "--helper-emb" in err

    def test_sava_end_to_end(self, capsys, world):
        out = world["tmp"] + "/sava.emb1"
        report_path = world["tmp"] + "/sava.json"
        args = self.adapt_args(world, out, report_path,
                               "--helper-emb", world["helper_emb"],
                               "--steps", "5")
        args[2] = "sava"  # replace the method value
        assert run(capsys, *args)[0] == 0
        from vocabforge import load_matrix
        assert load_matrix(out).rows == 8

    def sava_args(self, world, out):
        args = self.adapt_args(world, out, world["tmp"] + "/sava.json",
                               "--helper-emb", world["helper_emb"],
                               "--steps", "1")
        args[2] = "sava"
        return args

    def test_sava_partition_id_outside_helper(self, capsys, world,
                                              monkeypatch):
        from vocabforge import cli
        real = cli.partition

        def partition(*args):
            part = real(*args)
            (token, sid, _), *rest = part.shared
            return dataclasses.replace(part, shared=((token, sid, 99), *rest))

        monkeypatch.setattr(cli, "partition", partition)
        out = world["tmp"] + "/sava.emb1"
        code, stdout, err = run(capsys, *self.sava_args(world, out))
        assert code == 1
        assert stdout == ""
        # the partition is checked before the fit reads a helper row
        assert err == "error: target id 99 is outside the 8-token target\n"
        assert not os.path.exists(out)

    def test_sava_needs_two_pairs(self, capsys, world, write_json):
        # one shared token (s0) between the source and this target
        world["target_vocab"] = write_json(
            "one_shared.json", {"s0": 0, "n0": 1, "n1": 2})
        world["helper_emb"] = world["helper_emb"].replace(
            "helper.emb1", "helper3.emb1")
        from vocabforge import EmbeddingMatrix, save_matrix
        save_matrix(EmbeddingMatrix(np.ones((3, 4), dtype=np.float32)),
                    world["helper_emb"])
        out = world["tmp"] + "/sava.emb1"
        code, stdout, err = run(capsys, *self.sava_args(world, out))
        assert code == 1
        assert stdout == ""
        assert err == "error: fitting requires at least 2 pairs\n"
        assert not os.path.exists(out)

    def test_negative_batch_is_usage_error(self, capsys, world):
        out = world["tmp"] + "/adapted.emb1"
        code, stdout, err = run(capsys, *self.adapt_args(
            world, out, world["tmp"] + "/report.json", "--batch", "-5"))
        assert code == 1
        assert stdout == ""
        assert err == "--batch must be at least 0, got -5\n"
        assert not os.path.exists(out)

    def test_negative_clp_top_k_is_usage_error(self, capsys, world):
        # HeuristicConfig's check comes before any file is read: the source
        # is missing
        out = world["tmp"] + "/adapted.emb1"
        argv = self.adapt_args(world, out, world["tmp"] + "/report.json",
                               "--clp-top-k", "-3")
        argv[argv.index("--method") + 1] = "clp"
        argv[argv.index("--source-emb") + 1] = world["tmp"] + "/missing.emb1"
        code, stdout, err = run(capsys, *argv, "--helper-emb",
                                world["helper_emb"])
        assert (code, stdout) == (1, "")
        assert err == "error: clp_top_k must be >= 0 (0 = dense), got -3\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flag, value, reader, method", [
        (flag, value, reader, method)
        for flag, value, reader in [
            ("--steps", "5", "sava"), ("--lr", "0.5", "sava"),
            ("--batch", "3", "sava"), ("--clp-top-k", "2", "clp"),
            ("--clp-negative-policy", "absolute", "clp")]
        for method in heuristics.METHODS if method != reader
    ])
    def test_flag_of_another_method_is_usage_error(self, capsys, world, flag,
                                                   value, reader, method):
        out = world["tmp"] + "/adapted.emb1"
        argv = self.adapt_args(world, out, world["tmp"] + "/report.json",
                               "--helper-emb", world["helper_emb"], flag, value)
        argv[2] = method
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert err == f"{flag} is read only by --method {reader}, not {method}\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flags, readers, method", [
        (("--byte-level",), "fvt", "random"),
        (("--byte-level",), "fvt", "clp"),
        (("--byte-level",), "fvt", "sava"),
        (("--fallback", "mean-row"), "fvt or clp", "random"),
        (("--fallback", "random"), "fvt or clp", "sava"),
        (("--random-moments", "scalar"), "random or fvt or clp", "sava"),
    ])
    def test_switch_or_shared_flag_of_another_method_is_usage_error(
            self, capsys, world, flags, readers, method):
        out = world["tmp"] + "/adapted.emb1"
        argv = self.adapt_args(world, out, world["tmp"] + "/report.json",
                               "--helper-emb", world["helper_emb"], *flags)
        argv[2] = method
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert err == (f"{flags[0]} is read only by --method {readers}, "
                       f"not {method}\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flags, method", [
        (("--fallback", "mean-row"), "fvt"), (("--fallback", "mean-row"), "clp"),
        (("--random-moments", "scalar"), "random"), (("--byte-level",), "fvt")])
    def test_switch_or_shared_flag_of_its_method_is_accepted(
            self, capsys, world, flags, method):
        report_path = world["tmp"] + "/report.json"
        argv = self.adapt_args(world, world["tmp"] + "/adapted.emb1",
                               report_path, "--helper-emb", world["helper_emb"],
                               *flags)
        argv[2] = method
        assert run(capsys, *argv)[:2] == (0, "")
        config = json.loads(open(report_path, encoding="utf-8").read())["config"]
        assert config[flags[0][2:].replace("-", "_")] == (
            flags[1] if len(flags) > 1 else True)

    def test_config_switch_counts_as_given(self, capsys, world):
        cfg = world["tmp"] + "/cfg.json"
        for value, want in [(True, (1, "--byte-level is read only by --method "
                                       "fvt, not random\n")),
                            (False, (0, ""))]:  # a switch left off is not given
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump({"byte_level": value}, fh)
            code, _, err = run(capsys, *self.adapt_args(
                world, world["tmp"] + "/adapted.emb1", world["tmp"] + "/r.json",
                "--config", cfg))
            assert (code, err) == want

    def test_config_value_counts_as_given(self, capsys, world):
        cfg = world["tmp"] + "/cfg.json"
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({"clp_top_k": 0}, fh)  # the default value, given
        code, _, err = run(capsys, *self.adapt_args(
            world, world["tmp"] + "/adapted.emb1", world["tmp"] + "/r.json",
            "--config", cfg))
        assert code == 1
        assert err == "--clp-top-k is read only by --method clp, not random\n"

    @pytest.mark.parametrize("method", ["random", "sava"])
    def test_report_config_shows_the_method_flag_defaults(self, capsys, world,
                                                          method):
        report_path = world["tmp"] + "/report.json"
        argv = self.adapt_args(world, world["tmp"] + "/adapted.emb1",
                               report_path, "--helper-emb", world["helper_emb"])
        argv[2] = method
        if method == "sava":
            argv += ["--steps", "2"]
        assert run(capsys, *argv)[0] == 0
        config = json.loads(open(report_path, encoding="utf-8").read())["config"]
        assert "given" not in config
        assert (config["steps"], config["lr"], config["batch"]) == (
            2 if method == "sava" else 1000, 1e-3, 32)
        assert (config["clp_top_k"], config["clp_negative_policy"]) == (
            0, "clamp-zero")

    def test_timing_covers_the_sava_fit(self, capsys, world, monkeypatch):
        from vocabforge import alignment
        real = alignment.train_map

        def slow_fit(*args, **kwargs):
            time.sleep(0.25)
            return real(*args, **kwargs)

        monkeypatch.setattr(alignment, "train_map", slow_fit)
        assert run(capsys, *self.sava_args(
            world, world["tmp"] + "/sava.emb1"))[0] == 0
        report = json.loads(open(world["tmp"] + "/sava.json").read())
        assert report["adaptation"]["timing_seconds"] >= 0.25

    def test_fvt_piece_with_a_lone_surrogate_falls_back(self, capsys, tmp_path):
        from vocabforge import EmbeddingMatrix, save_matrix
        paths = {}
        for name, obj in (("source", {"▁": 0, "a": 1, "▁a": 2, "<0x41>": 3}),
                          ("target", {"▁a": 0, "\ud800": 1})):
            paths[name] = tmp_path / f"{name}.json"
            # json.dumps writes the surrogate as the escape \ud800
            paths[name].write_text(json.dumps(obj), encoding="utf-8")
        (tmp_path / "merges.txt").write_text("▁ a\n", encoding="utf-8")
        (tmp_path / "none.txt").write_text("", encoding="utf-8")
        save_matrix(EmbeddingMatrix(np.ones((4, 2), np.float32)),
                    str(tmp_path / "source.emb1"))
        code, _, err = run(
            capsys, "adapt", "--method", "fvt", "--byte-level",
            "--source-emb", str(tmp_path / "source.emb1"),
            "--source-vocab", str(paths["source"]),
            "--source-merges", str(tmp_path / "merges.txt"),
            "--target-vocab", str(paths["target"]),
            "--target-merges", str(tmp_path / "none.txt"),
            "--out", str(tmp_path / "out.emb1"),
            "--report", str(tmp_path / "report.json"))
        assert (code, err) == (0, "")
        report = json.loads((tmp_path / "report.json").read_text("utf-8"))
        assert report["adaptation"]["fallback_count"] == 1

    # every check runs before any file is read or written
    @pytest.mark.parametrize("extra, message", [
        (["--helper-head-emb", "h.emb1", "--out-head", "o.emb1"],
         "--helper-head-emb requires --source-head-emb"),
        (["--out-head", "o.emb1"], "--out-head requires --source-head-emb"),
        (["--helper-head-emb", "h.emb1"],
         "--helper-head-emb requires --source-head-emb"),
        (["--source-head-emb", "missing.emb1"],
         "--source-head-emb requires --out-head"),
    ], ids=["helper-head-and-out-head", "out-head", "helper-head",
            "source-head-without-out-head"])
    def test_head_flags_without_head_matrix(self, capsys, world, extra,
                                            message):
        out = world["tmp"] + "/adapted.emb1"
        code, stdout, err = run(capsys, *self.adapt_args(
            world, out, world["tmp"] + "/report.json", *extra))
        assert code == 1
        assert stdout == ""
        assert err == message + "\n"
        assert not os.path.exists(out)


    def untied_args(self, world, method, *extra):
        from vocabforge import EmbeddingMatrix, save_matrix
        rng = np.random.default_rng(5)
        head = world["tmp"] + "/head.emb1"
        save_matrix(EmbeddingMatrix(
            rng.normal(size=(8, 4)).astype(np.float32)), head)
        args = self.adapt_args(
            world, world["tmp"] + "/embed_out.emb1",
            world["tmp"] + "/untied.json",
            "--source-head-emb", head,
            "--out-head", world["tmp"] + "/head_out.emb1",
            "--helper-emb", world["helper_emb"],
            *(["--steps", "3"] if method == "sava" else []), *extra)
        args[2] = method
        return args, head

    @pytest.mark.parametrize("method", ["random", "sava"])
    def test_untied_adapts_both_matrices(self, capsys, world, method):
        from vocabforge import load_matrix
        args, head = self.untied_args(world, method)
        code, stdout, err = run(capsys, *args)
        assert (code, stdout, err) == (0, "", "")
        report = json.loads(open(world["tmp"] + "/untied.json").read())
        assert report["adaptation"]["copied_count"] == 6
        assert report["head_adaptation"]["copied_count"] == 6
        embed_out = load_matrix(world["tmp"] + "/embed_out.emb1").data
        head_out = load_matrix(world["tmp"] + "/head_out.emb1").data
        # shared token s<i> has id i in both vocabularies
        assert embed_out[:6].tobytes() == \
            load_matrix(world["source_emb"]).data[:6].tobytes()
        assert head_out[:6].tobytes() == load_matrix(head).data[:6].tobytes()
        if method == "sava":
            # each matrix gets its own map
            assert embed_out[6:].tobytes() != head_out[6:].tobytes()

    @pytest.mark.parametrize("helper_head", [False, True],
                             ids=["helper-shared", "helper-head"])
    def test_untied_adapts_one_matrix_at_a_time(self, capsys, world,
                                                monkeypatch, helper_head):
        # each output's temporary file is opened once its matrix is built,
        # before the head's inputs are loaded; a helper that serves both
        # matrices, or a head helper that is the embedding source, is
        # loaded once
        from vocabforge import embeddings
        calls = []
        load, atomic_open = embeddings.load_matrix, embeddings.atomic_open

        def logged_load(path, *rest):
            calls.append(("load", path))
            return load(path, *rest)

        def logged_open(path, *rest, **kwargs):
            calls.append(("save", path))
            return atomic_open(path, *rest, **kwargs)

        extra = ["--helper-head-emb", world["source_emb"]] if helper_head else []
        args, head = self.untied_args(world, "sava", *extra)
        monkeypatch.setattr(embeddings, "load_matrix", logged_load)
        monkeypatch.setattr(embeddings, "atomic_open", logged_open)
        assert run(capsys, *args)[0] == 0
        assert calls == [
            ("load", world["source_emb"]), ("load", world["helper_emb"]),
            ("save", world["tmp"] + "/embed_out.emb1"),
            ("load", head),
            ("save", world["tmp"] + "/head_out.emb1"),
            ("save", world["tmp"] + "/untied.json"),
        ]

    def test_unreadable_head_writes_no_report(self, capsys, world):
        args, head = self.untied_args(world, "random")
        os.remove(head)
        code, stdout, err = run(capsys, *args)
        assert code == 2
        assert stdout == ""
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert not os.path.exists(world["tmp"] + "/untied.json")
        assert not os.path.exists(world["tmp"] + "/head_out.emb1")
        # the embedding matrix was finished before the head was read, but
        # no output replaces its path unless every output is complete
        assert not os.path.exists(world["tmp"] + "/embed_out.emb1")
        assert not [name for name in os.listdir(world["tmp"])
                    if name.endswith(".tmp")]

    @pytest.mark.parametrize("first, second", [
        ("--out", "--report"), ("--out", "--out-head"),
        ("--out-head", "--report"),
    ])
    def test_outputs_on_one_file_are_a_usage_error(self, capsys, world, first,
                                                   second):
        # the inputs do not exist: the error comes before any is read
        missing = world["tmp"] + "/missing.emb1"
        same = world["tmp"] + "/same"
        paths = {"--out": world["tmp"] + "/o", "--out-head": world["tmp"] + "/h",
                 "--report": world["tmp"] + "/r", first: same, second: same}
        args = self.adapt_args(world, paths["--out"], paths["--report"],
                               "--source-head-emb", missing,
                               "--out-head", paths["--out-head"])
        args[args.index("--source-emb") + 1] = missing
        code, stdout, err = run(capsys, *args)
        assert (code, stdout) == (1, "")
        assert err == f"{first} and {second} name the same file {same!r}\n"
        assert not [p for p in paths.values() if os.path.exists(p)]

    def test_output_through_a_symlink_is_the_same_file(self, capsys, world):
        out = world["tmp"] + "/adapted.emb1"
        link = world["tmp"] + "/link.json"
        os.symlink(out, link)
        code, stdout, err = run(capsys, *self.adapt_args(world, out, link))
        assert (code, stdout) == (1, "")
        assert err == f"--out and --report name the same file {out!r}\n"
        assert not os.path.exists(out)

    def test_every_output_on_the_null_device(self, capsys, world):
        args, _ = self.untied_args(world, "random")
        for flag in ("--out", "--out-head", "--report"):
            args[args.index(flag) + 1] = os.devnull
        assert run(capsys, *args) == (0, "", "")

    def test_collision_warning_on_stderr(self, capsys, tmp_path):
        # "▁x" and "Ġx" both canonicalize to the target's "Ġx"; the lowest
        # source id wins, as the library's adapt decides
        from vocabforge import (EmbeddingMatrix, HeuristicConfig, adapt,
                                load_matrix, load_tokenizer, save_matrix)
        paths = {name: str(tmp_path / name) for name in (
            "source.json", "target.json", "merges.txt", "source.emb1",
            "out.emb1", "lib.emb1", "report.json")}
        Path(paths["source.json"]).write_text(
            json.dumps({"▁x": 0, "Ġx": 1, "y": 2}), encoding="utf-8")
        Path(paths["target.json"]).write_text(
            json.dumps({"Ġx": 0, "z": 1}), encoding="utf-8")
        Path(paths["merges.txt"]).write_text("", encoding="utf-8")
        source = EmbeddingMatrix(
            np.random.default_rng(2).normal(size=(3, 4)).astype(np.float32))
        save_matrix(source, paths["source.emb1"])
        code, out, err = run(
            capsys, "adapt", "--method", "random",
            "--source-emb", paths["source.emb1"],
            "--source-vocab", paths["source.json"],
            "--source-merges", paths["merges.txt"],
            "--target-vocab", paths["target.json"],
            "--target-merges", paths["merges.txt"],
            "--source-marker", "meta-space", "--target-marker", "byte-marker",
            "--seed", "3", "--out", paths["out.emb1"],
            "--report", paths["report.json"])
        assert (code, out) == (0, "")
        assert err == ("warning: source ids 0 and 1 both canonicalize to "
                       "'Ġx'; keeping id 0\n")
        models = [load_tokenizer(paths[f"{side}.json"], paths["merges.txt"],
                                 marker)
                  for side, marker in (("source", "meta-space"),
                                       ("target", "byte-marker"))]
        matrix, _ = adapt(source, *models,
                          cfg=HeuristicConfig(method="random", seed=3))
        save_matrix(matrix, paths["lib.emb1"])
        written = Path(paths["out.emb1"]).read_bytes()
        assert written == Path(paths["lib.emb1"]).read_bytes()
        assert load_matrix(paths["out.emb1"]).data[0].tobytes() == \
            source.data[0].tobytes()


class TestReportShapes:
    """Each report's exact keys; arrays come out as JSON lists."""

    def test_report_keys(self, capsys, world, tmp_path):
        tmp = world["tmp"]
        top = {"schema_version", "config"}

        def report(*argv, path=None):
            code, out, err = run(capsys, *argv)
            assert code == 0, err
            doc = json.loads(Path(path).read_text("utf-8") if path else out)
            assert doc["schema_version"] == "1"
            assert isinstance(doc["config"], dict)
            return doc

        def floats(value, length):
            assert isinstance(value, list) and len(value) == length
            assert all(type(v) is float for v in value)

        part = tmp + "/part.json"
        doc = report("intersect", "--source-vocab", world["source_vocab"],
                     "--target-vocab", world["target_vocab"], "--source-marker",
                     "none", "--target-marker", "none", "--out", part,
                     path=part)
        assert doc.keys() == top | {"canonicalization_mode", "shared_count",
                                    "novel_count", "shared", "novel", "warnings"}

        doc = report("stats", "--matrix", world["source_emb"], "--json")
        assert doc.keys() == top | {"rows", "dim", "mean", "variance",
                                    "scalar_mean", "scalar_variance"}
        floats(doc["mean"], 4)
        floats(doc["variance"], 4)
        assert type(doc["scalar_mean"]) is float

        doc = report("fit-map", "--helper-emb", world["helper_emb"],
                     "--source-emb", world["source_emb"], "--partition", part,
                     "--out", tmp + "/map.bin", "--steps", "2")
        assert doc.keys() == top | {"fit"}
        assert doc["fit"].keys() == {"initial_mse", "final_mse", "pair_count",
                                     "oracle_mse", "frobenius_gap_to_oracle"}

        doc = report("similarity", "--emb-a", world["source_emb"],
                     "--emb-b", world["helper_emb"], "--vocab",
                     world["source_vocab"], "--marker", "none",
                     "--n-prefix", "0", "--n-nonprefix", "3")
        assert doc.keys() == top | {"similarity"}
        assert doc["similarity"].keys() == {"score", "anchor_count",
                                            "anchor_ids", "seed"}
        assert [type(a) for a in doc["similarity"]["anchor_ids"]] == [int] * 3

        doc = report("params", "--before", "10", "--after", "8", "--dim", "4",
                     "--base", "100")
        assert doc.keys() == top | {"params"}
        assert doc["params"].keys() == {
            "vocab_before", "vocab_after", "dim", "tied",
            "non_embedding_params", "total_before", "total_after", "delta"}

        adaptation = {"copied_count", "initialized_count", "fallback_count",
                      "method", "timing_seconds"}
        for extra, keys in (([], adaptation),
                            (["--verbose-report"], adaptation | {"per_token"})):
            path = tmp + "/adapt.json"
            doc = report(*TestAdapt().adapt_args(
                world, tmp + "/adapted.emb1", path, *extra), path=path)
            assert doc.keys() == top | {"adaptation"}
            assert doc["adaptation"].keys() == keys
            assert doc["adaptation"]["method"].keys() == {
                "method", "seed", "clp_top_k", "clp_negative_policy",
                "random_moments", "fallback"}
        assert doc["adaptation"]["per_token"][-1] == [7, "heuristic"]

        vocab = tmp_path / "fvocab.json"
        vocab.write_text(json.dumps({"a": 0, "b": 1}), encoding="utf-8")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b ab\nba\n", encoding="utf-8")
        fertility = {"corpus_label", "tokenizer_label", "word_count",
                     "token_count", "fertility"}
        for extra, keys in (
                ([], fertility),
                (["--hist-out", tmp + "/hist.csv"], fertility),
                (["--per-doc"], fertility | {"per_document"})):
            doc = report("fertility", "--vocab", str(vocab), "--merges",
                         world["merges"], "--corpus", str(corpus),
                         "--marker", "none", *extra)
            assert doc.keys() == top | {"fertility"}
            assert doc["fertility"].keys() == keys
        floats(doc["fertility"]["per_document"], 2)


class TestAtomicOutputs:
    def test_every_output_file_is_replaced_whole(self, capsys, world,
                                                 monkeypatch, tmp_path):
        from vocabforge import embeddings
        opened = []
        real = embeddings.atomic_open

        def logged(path, *args, **kwargs):
            opened.append(os.path.basename(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(embeddings, "atomic_open", logged)
        tmp = world["tmp"]
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b ab\nba\n", encoding="utf-8")
        vocab = tmp_path / "fvocab.json"
        vocab.write_text(json.dumps({"a": 0, "b": 1}), encoding="utf-8")
        part = tmp + "/part.json"
        runs = [
            ["stats", "--matrix", world["source_emb"], "--out",
             tmp + "/summary.txt"],
            ["stats", "--matrix", world["source_emb"], "--json", "--out",
             tmp + "/stats.json"],
            ["fertility", "--vocab", str(vocab), "--merges",
             world["merges"], "--corpus", str(corpus), "--marker", "none",
             "--hist-out", tmp + "/hist.csv", "--out", tmp + "/fert.json"],
            ["intersect", "--source-vocab", world["source_vocab"],
             "--target-vocab", world["target_vocab"], "--source-marker",
             "none", "--target-marker", "none", "--out", part],
            ["fit-map", "--helper-emb", world["helper_emb"], "--source-emb",
             world["source_emb"], "--partition", part, "--out",
             tmp + "/map.bin", "--steps", "1"],
            TestAdapt().adapt_args(world, tmp + "/adapted.emb1",
                                   tmp + "/adapt.json"),
        ]
        for argv in runs:
            assert run(capsys, *argv)[::2] == (0, "")
        assert opened == [
            "summary.txt", "stats.json", "hist.csv", "fert.json", "part.json",
            "map.bin", "map.bin.json", "adapted.emb1", "adapt.json",
        ]


class TestFertility:
    def test_report_and_histogram(self, capsys, world, tmp_path):
        vocab = tmp_path / "fvocab.json"
        vocab.write_text(json.dumps({"a": 0, "b": 1}), encoding="utf-8")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b ab\nba\n", encoding="utf-8")
        hist = str(tmp_path / "hist.csv")
        code, out, _ = run(
            capsys, "fertility",
            "--vocab", str(vocab), "--merges", world["merges"],
            "--corpus", str(corpus), "--marker", "none",
            "--hist-out", hist,
        )
        assert code == 0
        report = json.loads(out)
        # 6 tokens over 4 words
        assert report["fertility"]["fertility"] == 1.5
        assert open(hist).readline().startswith("bin_left")

    @pytest.mark.parametrize("dest", ["file", "null-device"])
    def test_report_and_histogram_on_one_path(self, capsys, world, tmp_path,
                                              dest):
        # the histogram would be replaced by the report; a device takes both
        vocab = tmp_path / "fvocab.json"
        vocab.write_text(json.dumps({"a": 0, "b": 1}), encoding="utf-8")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b ab\nba\n", encoding="utf-8")
        same = str(tmp_path / "same") if dest == "file" else os.devnull
        result = run(capsys, "fertility", "--vocab", str(vocab),
                     "--merges", world["merges"], "--corpus", str(corpus),
                     "--marker", "none", "--out", same, "--hist-out", same)
        if dest == "file":
            assert result == (
                1, "", f"--out and --hist-out name the same file {same!r}\n")
            assert not os.path.exists(same)
        else:
            assert result == (0, "", "")

    def test_per_doc(self, capsys, world, tmp_path):
        vocab = tmp_path / "fvocab.json"
        vocab.write_text(json.dumps({"a": 0}), encoding="utf-8")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a aa\naaa\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "fertility",
            "--vocab", str(vocab), "--merges", world["merges"],
            "--corpus", str(corpus), "--marker", "none", "--per-doc",
        )
        assert code == 0
        assert json.loads(out)["fertility"]["per_document"] == [1.5, 3.0]


class TestSimilarity:
    def test_self_similarity(self, capsys, world):
        code, out, _ = run(
            capsys, "similarity",
            "--emb-a", world["source_emb"], "--emb-b", world["source_emb"],
            "--vocab", world["source_vocab"], "--marker", "none",
            "--n-prefix", "0", "--n-nonprefix", "4",
        )
        assert code == 0
        report = json.loads(out)
        assert abs(report["similarity"]["score"] - 100.0) < 1e-4
        assert report["similarity"]["anchor_count"] == 4

    def test_sampled_subset(self, capsys, world):
        code, out, _ = run(
            capsys, "similarity",
            "--emb-a", world["source_emb"], "--emb-b", world["helper_emb"],
            "--vocab", world["source_vocab"], "--marker", "none",
            "--n-prefix", "0", "--n-nonprefix", "4", "--sample", "3",
        )
        assert code == 0
        assert -100.0 <= json.loads(out)["similarity"]["score"] <= 100.0

    @pytest.mark.parametrize("sample", ["0", "-3"])
    def test_sample_below_one_is_usage_error(self, capsys, world, sample):
        code, out, err = run(
            capsys, "similarity",
            "--emb-a", world["source_emb"], "--emb-b", world["helper_emb"],
            "--vocab", world["source_vocab"], "--marker", "none",
            "--n-prefix", "0", "--n-nonprefix", "4", "--sample", sample,
        )
        assert code == 1
        assert out == ""
        assert err == f"--sample must be at least 1, got {sample}\n"

    @pytest.mark.parametrize("flag", ["--n-prefix", "--n-nonprefix"])
    def test_negative_anchor_count_is_usage_error(self, capsys, world, flag):
        counts = {"--n-prefix": "0", "--n-nonprefix": "4", flag: "-3"}
        code, out, err = run(
            capsys, "similarity",
            "--emb-a", world["source_emb"], "--emb-b", world["helper_emb"],
            "--vocab", world["source_vocab"], "--marker", "none",
            *sum(counts.items(), ()),
        )
        assert code == 1
        assert out == ""
        assert err == f"{flag} must be at least 0, got -3\n"

    def test_array_vocab_is_validation_error(self, capsys, world):
        bad = world["tmp"] + "/array_vocab.json"
        with open(bad, "w", encoding="utf-8") as fh:
            json.dump(["s0", "s1"], fh)
        code, out, err = run(
            capsys, "similarity",
            "--emb-a", world["source_emb"], "--emb-b", world["source_emb"],
            "--vocab", bad, "--marker", "none",
            "--n-prefix", "0", "--n-nonprefix", "1",
        )
        assert code == 1
        assert out == ""
        assert err == "error: vocab file must be a JSON object\n"


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "before": 128256, "after": 32768, "dim": 4096,
            "base": 6980000000,
        }), encoding="utf-8")
        code, out, _ = run(capsys, "params", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["params"]["delta"] == 782_237_696

    def test_explicit_flag_wins(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "before": 100, "after": 50, "dim": 10, "base": 0,
        }), encoding="utf-8")
        code, out, _ = run(
            capsys, "params", "--config", str(cfg), "--before", "200"
        )
        assert code == 0
        assert json.loads(out)["params"]["vocab_before"] == 200

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"wat": 1}), encoding="utf-8")
        code, _, err = run(capsys, "params", "--config", str(cfg),
                           "--before", "1", "--after", "1", "--dim", "1",
                           "--base", "0")
        assert code == 1
        assert "wat" in err

    @pytest.mark.parametrize("doc, message", [
        ({"steps": 1.5}, "argument --steps: invalid int value: '1.5'"),
        ({"seed": None},
         "config key 'seed': invalid value null"),
        ({"lr": [0.1]},
         "config key 'lr': invalid value [0.1]"),
        ({"lr": math.nan},
         "error: learning_rate must be finite and > 0, got nan"),
        ({"lr": "inf"},
         "error: learning_rate must be finite and > 0, got inf"),
    ], ids=["float-steps", "null-seed", "list-lr", "nan-lr", "inf-lr"])
    def test_bad_value_is_usage_error(self, capsys, world, doc, message):
        part_path = world["tmp"] + "/part.json"
        with open(part_path, "w", encoding="utf-8") as fh:
            json.dump({"shared": [[f"s{i}", i, i] for i in range(6)],
                       "novel": []}, fh)
        cfg = world["tmp"] + "/cfg.json"
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, out, err = run(
            capsys, "fit-map", "--config", cfg,
            "--helper-emb", world["helper_emb"],
            "--source-emb", world["source_emb"],
            "--partition", part_path,
            "--out", world["tmp"] + "/map.bin",
        )
        assert code == 1
        assert out == ""
        assert err.endswith(message + "\n")
        assert "Traceback" not in err
        assert not os.path.exists(world["tmp"] + "/map.bin")

    @pytest.mark.parametrize("tied, code", [(True, 0), (1, 1)])
    def test_switch_takes_a_boolean(self, capsys, tmp_path, tied, code):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "before": 100, "after": 50, "dim": 10, "base": 0, "tied": tied,
        }), encoding="utf-8")
        got, out, err = run(capsys, "params", "--config", str(cfg))
        assert got == code
        if code == 0:
            assert json.loads(out)["config"]["tied"] is True
        else:
            assert err == "config key 'tied': invalid value 1\n"


class TestDeeplyNestedJson:
    """JSON nested past the parser's recursion limit is each input's own
    one-line error, never a RecursionError traceback."""

    @pytest.mark.parametrize("entry", [
        "intersect", "fit-map-partition", "fit-map-config", "adapt",
        "fertility", "similarity",
    ])
    def test_one_error_line(self, capsys, world, entry):
        deep = world["tmp"] + "/deep.json"
        with open(deep, "w", encoding="utf-8") as fh:
            fh.write("[" * 100_000 + "]" * 100_000)
        corpus = world["tmp"] + "/corpus.txt"
        with open(corpus, "w", encoding="utf-8") as fh:
            fh.write("s0 s1\n")
        fit_map = ["fit-map", "--helper-emb", world["helper_emb"],
                   "--source-emb", world["source_emb"],
                   "--out", world["tmp"] + "/map.bin"]
        argv = {
            "intersect": ["intersect", "--source-vocab", deep,
                          "--target-vocab", world["target_vocab"]],
            "fit-map-partition": fit_map + ["--partition", deep],
            "fit-map-config": fit_map + ["--config", deep, "--partition",
                                         world["source_vocab"]],
            "adapt": ["adapt", "--method", "random",
                      "--source-emb", world["source_emb"],
                      "--source-vocab", world["source_vocab"],
                      "--source-merges", world["merges"],
                      "--target-vocab", deep,
                      "--target-merges", world["merges"],
                      "--out", world["tmp"] + "/out.emb1",
                      "--report", world["tmp"] + "/report.json"],
            "fertility": ["fertility", "--vocab", deep,
                          "--merges", world["merges"], "--corpus", corpus],
            "similarity": ["similarity", "--emb-a", world["source_emb"],
                           "--emb-b", world["helper_emb"], "--vocab", deep],
        }[entry]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        # a usage error for the config file; MalformedVocab or
        # PartitionInconsistent (a VocabForgeError: "error: ") for the rest
        prefix = "" if entry == "fit-map-config" else "error: "
        assert err == f"{prefix}{deep}: JSON nested too deeply to parse\n"
        assert not any(os.path.exists(world["tmp"] + name) for name in
                       ("/map.bin", "/out.emb1", "/report.json"))


class TestFlagSurface:
    """No subcommand accepts a flag it does not read, and each choice flag
    takes its values from the table its config checks."""

    @pytest.mark.parametrize("argv", [
        ["intersect", "--source-vocab", "s.json", "--target-vocab", "t.json"],
        ["stats", "--matrix", "m.emb1"],
        ["params", "--before", "2", "--after", "1", "--dim", "1", "--base", "0"],
    ], ids=lambda argv: argv[0])
    def test_seed_rejected_where_unread(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, "--seed", "1")
        assert code == 1
        assert out == ""
        assert err.count("error:") == 1
        assert err.startswith(f"usage: vocabforge {argv[0]} ")
        assert err.endswith(
            f"vocabforge {argv[0]}: error: unrecognized arguments: --seed 1\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1}), encoding="utf-8")
        code, out, err = run(capsys, argv[0], "--config", str(cfg), *argv[1:])
        assert (code, out, err) == (1, "", "unknown config key 'seed'\n")

    @pytest.mark.parametrize("command",
                             ["adapt", "fit-map", "fertility", "similarity"])
    def test_seed_accepted_where_read(self, command):
        parser, _ = build_parser()
        assert parser.parse_args([command, "--seed", "5"]).seed == 5

    def test_choice_flags_read_the_config_table(self):
        _, subs = build_parser()
        actions = {a.dest: a for a in subs["adapt"]._actions}
        default = heuristics.HeuristicConfig()
        for name, allowed in heuristics.CHOICES.items():
            assert tuple(actions[name].choices) == allowed
            if name != "method":  # --method has no default
                assert actions[name].default == getattr(default, name)
        for command, dests, allowed in [
                ("intersect", ("source_marker", "target_marker"), MARKERS),
                ("adapt", ("source_marker", "target_marker"), MARKERS),
                ("fertility", ("marker",), MARKERS),
                ("similarity", ("marker",), MARKERS),
                ("similarity", ("projection",), analysis.PROJECTIONS)]:
            actions = {a.dest: a for a in subs[command]._actions}
            for dest in dests:
                assert tuple(actions[dest].choices) == tuple(allowed)

    @pytest.mark.parametrize("flag, value, field", [
        ("--fallback", "zero", "fallback"),
        ("--clp-negative-policy", "wat", "clp_negative_policy"),
    ])
    def test_config_rejects_what_the_flag_rejects(self, capsys, flag, value,
                                                  field):
        with pytest.raises(ValueError, match=f"unknown {field} '{value}'"):
            heuristics.HeuristicConfig(**{field: value})
        code, _, err = run(capsys, "adapt", "--method", "fvt", flag, value)
        assert code == 1
        assert f"argument {flag}: invalid choice: '{value}'" in err
