"""Command-line entry point.

One subcommand per operation, JSON reports on stdout (or --out), all
diagnostics on stderr. Exit codes: 0 success, 1 validation error,
2 I/O error. A flat JSON --config file can supply any flag; explicit
flags win over file values.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
from collections import Counter
from dataclasses import fields

import numpy as np

from . import alignment, analysis, embeddings, heuristics
from .errors import DimensionMismatch, PartitionInconsistent, VocabForgeError
from .tokenizer import (
    MARKERS,
    MarkerConvention,
    TokenPartition,
    check_partition,
    load_json,
    load_tokenizer,
    load_vocab,
    partition,
    read_merges,
    tokenizer_model,
)

SCHEMA_VERSION = "1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        exc = UsageError(f"{self.format_usage()}{self.prog}: error: {message}")
        exc.message = message
        raise exc


class _MethodFlag(argparse.Action):
    """An adapt flag that only the methods `readers` read; parsing lists it
    in `given`. With nargs=0 it is a switch that stores True."""

    def __init__(self, *args, readers, **kwargs):
        super().__init__(*args, **kwargs)
        self.readers = readers

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, True if self.nargs == 0 else values)
        namespace.given = [*getattr(namespace, "given", []), self]


def _require(args, *names):
    for name in names:
        if getattr(args, name.replace("-", "_"), None) is None:
            raise UsageError(f"missing required argument --{name}")


def _at_least(args, low, *names):
    for name in names:
        value = getattr(args, name.replace("-", "_"))
        if value is not None and value < low:
            raise UsageError(f"--{name} must be at least {low}, got {value}")


def _distinct_outputs(args, *names):
    """Two outputs on one file would silently replace each other, so that
    is a usage error; a device or a pipe (such as /dev/null) is written
    directly, as often as asked."""
    claimed = {}
    for name in names:
        path = getattr(args, name.replace("-", "_"))
        real = path and embeddings.replaced_path(path)
        if not real:
            continue
        if real in claimed:
            raise UsageError(f"--{claimed[real]} and --{name} name the same "
                             f"file {real!r}")
        claimed[real] = name


def _file(path):
    """The file at path as (device, inode), so that every name of one file
    is one input; the path itself when stat fails, so that its reader
    reports the error. stat opens no pipe."""
    try:
        st = os.stat(path)
    except (OSError, ValueError):
        return path
    return st.st_dev, st.st_ino


def _read_once(read, paths):
    """read for a command that reads `paths` in that order, repeats
    included: each distinct file, however its paths spell it, is read at
    its first request and kept only until its last, so a pipe is opened
    once and a file is read once."""
    uses = Counter(map(_file, paths))
    kept = {}

    def load(path):
        file = _file(path)
        uses[file] -= 1
        value = kept.pop(file) if file in kept else read(path)
        if uses[file]:
            kept[file] = value
        return value

    return load


def _open_outputs(outputs: contextlib.ExitStack, *paths) -> list:
    """atomic_open's file for each path given (else None), entered on
    outputs in order before any input is read; all of them replace their
    paths only when outputs closes, so a failed run leaves them as they were."""
    return [path and outputs.enter_context(embeddings.atomic_open(path))
            for path in paths]


def _write(data: bytes, dest: str | None) -> None:
    """Write data over the file `dest` (whole or not at all), or to
    stdout."""
    if dest:
        with embeddings.atomic_open(dest) as fh:
            fh.write(data)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:  # a text stream with no bytes below it, such as io.StringIO
        sys.stdout.write(data.decode("utf-8"))


def _fields(obj):
    """json.dumps' hook: an ndarray as its list, a dataclass as a dict of
    its fields (the values themselves, not copies)."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _report(args, payload: dict) -> bytes:
    """The JSON report of payload, as UTF-8.

    A report whose text has no UTF-8 encoding, because a token holds a
    lone surrogate (a JSON vocabulary can spell one as an escape), is
    written with every non-ASCII character escaped instead."""
    config = {k: v for k, v in vars(args).items() if k not in ("func", "config")}
    report = {"schema_version": SCHEMA_VERSION, "config": config, **payload}
    options = {"indent": 2, "sort_keys": True, "default": _fields}
    try:
        text = json.dumps(report, ensure_ascii=False, **options) + "\n"
        return text.encode("utf-8")
    except UnicodeEncodeError:
        return (json.dumps(report, **options) + "\n").encode("ascii")


# --- subcommands -------------------------------------------------------


def cmd_intersect(args) -> int:
    _require(args, "source-vocab", "target-vocab")
    vocab = _read_once(load_vocab, [args.source_vocab, args.target_vocab])
    source, target = vocab(args.source_vocab), vocab(args.target_vocab)
    src_marker = MarkerConvention.from_name(args.source_marker)
    tgt_marker = MarkerConvention.from_name(args.target_marker)
    part = partition(source, target, src_marker, tgt_marker)
    for warning in part.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    mode = "marker-canonicalized" if src_marker.rewrites(tgt_marker) else "raw"
    _write(_report(args, {"canonicalization_mode": mode, **part.to_dict()}),
           args.out)
    return 0


def cmd_stats(args) -> int:
    _require(args, "matrix")
    matrix = embeddings.load_matrix(args.matrix)
    st = embeddings.stats(matrix)
    if args.json:
        _write(_report(args, {"rows": matrix.rows, "dim": matrix.dim,
                              **_fields(st)}), args.out)
    else:
        text = (
            f"matrix: {matrix.rows} x {matrix.dim}\n"
            f"scalar mean: {st.scalar_mean:.6g}\n"
            f"scalar variance: {st.scalar_variance:.6g}\n"
        )
        _write(text.encode("utf-8"), args.out)
    return 0


def _train_config(args) -> alignment.TrainConfig:
    return alignment.TrainConfig(steps=args.steps, learning_rate=args.lr,
                                 batch=args.batch, seed=args.seed)


def cmd_adapt(args) -> int:
    _require(
        args, "method", "source-emb", "source-vocab", "source-merges",
        "target-vocab", "target-merges", "out", "report",
    )
    _at_least(args, 0, "batch")
    for flag in vars(args).pop("given", []):  # --config values too; not reported
        if args.method not in flag.readers:
            raise UsageError(f"{flag.option_strings[-1]} is read only by "
                             f"--method {' or '.join(flag.readers)}, "
                             f"not {args.method}")
    untied = args.source_head_emb is not None
    if untied and args.out_head is None:
        raise UsageError("--source-head-emb requires --out-head")
    for name in ("helper-head-emb", "out-head"):
        if not untied and getattr(args, name.replace("-", "_")) is not None:
            raise UsageError(f"--{name} requires --source-head-emb")
    _distinct_outputs(args, "out", "out-head", "report")
    cfg = heuristics.HeuristicConfig(**{  # each field has the flag of its name
        f.name: getattr(args, f.name) for f in fields(heuristics.HeuristicConfig)
    })
    loads_helper = cfg.method in heuristics.HELPER_METHODS
    if loads_helper and args.helper_emb is None:
        raise UsageError(f"method {cfg.method!r} requires --helper-emb (a helper "
                         f"model trained with the target tokenizer)")
    train_cfg = _train_config(args)
    with contextlib.ExitStack() as outputs:
        out, out_head, report_out = _open_outputs(outputs, args.out,
                                                  args.out_head, args.report)
        vocab = _read_once(load_vocab, [args.source_vocab, args.target_vocab])
        merges = _read_once(read_merges, [args.source_merges, args.target_merges])
        source_model = tokenizer_model(
            vocab(args.source_vocab), merges(args.source_merges),
            args.source_marker, args.byte_level, args.unk_token)
        # only the source model encodes, so only it takes the encoding flags
        target_model = tokenizer_model(vocab(args.target_vocab),
                                       merges(args.target_merges), args.target_marker)
        part = partition(
            source_model.vocab, target_model.vocab,
            source_model.marker, target_model.marker,
        )
        for warning in part.warnings:
            print(f"warning: {warning}", file=sys.stderr)

        first = {}  # each input file's first name, which every later name becomes

        def name(path):
            return path and first.setdefault(_file(path), path)

        jobs = {"adaptation": (name(args.source_emb), name(args.helper_emb), out)}
        if untied:
            jobs["head_adaptation"] = (name(args.source_head_emb),
                                       name(args.helper_head_emb or args.helper_emb),
                                       out_head)

        # Each source, and its helper if the method reads one, in adapt_file's order
        loaded = [path for job in jobs.values()
                  for path in job[:2 if loads_helper else 1]]
        load = _read_once(embeddings.load_matrix, loaded)
        # Every header once, then every row count, before any row is read. A
        # pipe can be read only once: one that the run loads has its header
        # checked then, by load_matrix and check_partition.
        inputs = dict.fromkeys(path for job in jobs.values() for path in job[:2])
        rows = {path: embeddings.matrix_shape(path)[0] for path in inputs
                if path is not None and (path not in loaded or os.path.isfile(path))}
        vocab_size = source_model.vocab.size
        for source, helper, _ in jobs.values():
            check_partition(part, rows.get(source, vocab_size), rows.get(helper),
                            vocab_size)
        helpers = {helper for _, helper, _ in jobs.values()}

        def adapt_file(source_path, helper_path, out_file) -> dict:
            # Only the report (and what load keeps for the head) outlives the
            # call, so an untied model holds one matrix's source, helper and
            # output at a time.
            source_emb = load(source_path)
            if source_path in helpers:  # also a helper; as a pipe, checked only now
                check_partition(part, source_emb.rows, source_emb.rows, vocab_size)
            helper_emb = load(helper_path) if loads_helper else None
            adapted, report = heuristics.adapt_matrix(
                source_emb, source_model, target_model, part, helper_emb, cfg,
                train_cfg)
            embeddings.write_record(out_file, adapted.data)
            return report.to_dict(args.verbose_report)

        payload = {key: adapt_file(*job) for key, job in jobs.items()}
        report_out.write(_report(args, payload))
    return 0


def cmd_fit_map(args) -> int:
    _require(args, "helper-emb", "source-emb", "partition", "out")
    _at_least(args, 0, "batch", "limit")
    train_cfg = _train_config(args)
    load = _read_once(embeddings.load_matrix, [args.helper_emb, args.source_emb])
    matrices = [load(args.helper_emb), load(args.source_emb)]
    part = TokenPartition.from_dict(load_json(args.partition, PartitionInconsistent))
    # fit_map's own check, run here so that its error names the file
    try:
        check_partition(part, matrices[1].rows, matrices[0].rows)
    except (DimensionMismatch, PartitionInconsistent) as exc:
        raise type(exc)(f"{args.partition}: {exc}") from None
    # pop() leaves the call the only references to the matrices, so that
    # under --limit fit_map can free them once it has gathered the kept
    # rows (Python 3.11 and later hand a call's arguments over to the
    # callee).
    phi, fit_report = alignment.fit_map(
        matrices.pop(0), matrices.pop(0), part, train_cfg, limit=args.limit,
    )
    alignment.save_map(phi, args.out)
    _write(_report(args, {"fit": fit_report}), None)
    return 0


def cmd_fertility(args) -> int:
    _require(args, "vocab", "merges", "corpus")
    _distinct_outputs(args, "out", "hist-out")
    with contextlib.ExitStack() as outputs:
        hist, out = _open_outputs(outputs, args.hist_out, args.out)
        model = load_tokenizer(
            args.vocab, args.merges, args.marker, args.byte_level, args.unk_token
        )
        report = analysis.fertility(
            model,
            analysis.iter_corpus(args.corpus),
            corpus_label=args.corpus,
            tokenizer_label=args.vocab,
            per_document=args.per_doc or args.hist_out is not None,
        )
        if hist:
            hist.write(analysis.histogram_csv(report.per_document).encode("utf-8"))
        payload = _fields(report)
        if not args.per_doc:
            del payload["per_document"]
        text = _report(args, {"fertility": payload})
        if out:
            out.write(text)
        else:
            _write(text, None)
    return 0


def cmd_similarity(args) -> int:
    _require(args, "emb-a", "emb-b", "vocab")
    _at_least(args, 0, "n-prefix", "n-nonprefix")
    _at_least(args, 1, "sample")
    load = _read_once(embeddings.load_matrix, [args.emb_a, args.emb_b])
    emb_a, emb_b = load(args.emb_a), load(args.emb_b)
    vocab = load_vocab(args.vocab)
    if vocab.size != emb_a.rows:
        raise DimensionMismatch(
            f"the vocabulary has {vocab.size} tokens but the matrices have "
            f"{emb_a.rows} rows; they must index the same tokens"
        )
    marker = MarkerConvention.from_name(args.marker)
    anchors = analysis.select_anchors(
        vocab, marker, n_prefix=args.n_prefix, n_nonprefix=args.n_nonprefix,
        seed=args.seed,
    )
    sample = None
    if args.sample is not None and args.sample < emb_a.rows:
        rng = np.random.default_rng([args.seed, 1])
        sample = np.sort(
            rng.choice(emb_a.rows, size=args.sample, replace=False)
        )
    score = analysis.relative_similarity(
        emb_a, emb_b, anchors, token_sample=sample, seed=args.seed,
        projection=args.projection,
    )
    _write(_report(args, {"similarity": score}), args.out)
    return 0


def cmd_params(args) -> int:
    _require(args, "before", "after", "dim", "base")
    report = analysis.param_report(
        args.before, args.after, args.dim, args.tied, args.base
    )
    _write(_report(args, {"params": report}), args.out)
    return 0


# --- parser ------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat JSON file of flag defaults")
    sub.add_argument("--out", help="write the JSON report here instead of stdout")


def _add_train_flags(sub: argparse.ArgumentParser, **kwargs) -> None:
    default = alignment.TrainConfig()
    sub.add_argument("--seed", type=int, default=default.seed)
    sub.add_argument("--steps", type=int, default=default.steps, **kwargs)
    sub.add_argument("--lr", type=float, default=default.learning_rate, **kwargs)
    sub.add_argument("--batch", type=int, default=default.batch, **kwargs)


def build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(
        prog="vocabforge",
        description="Vocabulary adaptation and embedding analysis toolkit.",
    )
    subparsers = parser.add_subparsers(dest="command")
    subs: dict[str, argparse.ArgumentParser] = {}

    def sub(name, func, **kwargs):
        s = subparsers.add_parser(name, **kwargs)
        s.set_defaults(func=func)
        subs[name] = s
        return s

    s = sub("intersect", cmd_intersect,
            help="intersect two vocabularies after marker canonicalization")
    s.add_argument("--source-vocab")
    s.add_argument("--target-vocab")
    s.add_argument("--source-marker", choices=MARKERS, default="meta-space")
    s.add_argument("--target-marker", choices=MARKERS, default="meta-space")
    _add_common(s)

    s = sub("stats", cmd_stats, help="summarize an EMB1 embedding matrix")
    s.add_argument("--matrix")
    s.add_argument("--json", action="store_true",
                   help="emit the full JSON report with per-dimension moments")
    _add_common(s)

    s = sub("adapt", cmd_adapt,
            help="build a target embedding matrix from a source model")
    s.add_argument("--method", choices=heuristics.METHODS)
    s.add_argument("--source-emb")
    s.add_argument("--source-vocab")
    s.add_argument("--source-merges")
    s.add_argument("--target-vocab")
    s.add_argument("--target-merges")
    s.add_argument("--helper-emb")
    s.add_argument("--source-head-emb",
                   help="untied models: the language-model head matrix")
    s.add_argument("--helper-head-emb")
    s.add_argument("--out-head")
    s.add_argument("--report")
    s.add_argument("--verbose-report", action="store_true")
    default = heuristics.HeuristicConfig()
    clp_flag = {"action": _MethodFlag, "readers": ("clp",)}
    # only FVT and CLP rows fall back; random rows read the moments too
    fallback_flag = {"action": _MethodFlag, "readers": ("fvt", "clp")}
    moments_flag = {"action": _MethodFlag, "readers": ("random", "fvt", "clp")}
    s.add_argument("--clp-top-k", type=int, default=default.clp_top_k, **clp_flag)
    for name, flag in (("clp_negative_policy", clp_flag),
                       ("random_moments", moments_flag),
                       ("fallback", fallback_flag)):
        s.add_argument("--" + name.replace("_", "-"), default=getattr(default, name),
                       choices=heuristics.CHOICES[name], **flag)
    s.add_argument("--source-marker", choices=MARKERS, default="meta-space")
    s.add_argument("--target-marker", choices=MARKERS, default="meta-space")
    s.add_argument("--byte-level", action=_MethodFlag, nargs=0, default=False,
                   readers=("fvt",))  # only FVT encodes
    s.add_argument("--unk-token")
    _add_train_flags(s, action=_MethodFlag, readers=("sava",))
    _add_common(s)

    s = sub("fit-map", cmd_fit_map,
            help="train the helper-to-source affine map on intersection pairs")
    s.add_argument("--helper-emb")
    s.add_argument("--source-emb")
    s.add_argument("--partition",
                   help="JSON partition report produced by `intersect`")
    s.add_argument("--limit", type=int)
    _add_train_flags(s)
    _add_common(s)  # --out holds the map container; the report goes to stdout

    s = sub("fertility", cmd_fertility,
            help="tokens-per-word statistics over a corpus")
    s.add_argument("--vocab")
    s.add_argument("--merges")
    s.add_argument("--corpus")
    s.add_argument("--per-doc", action="store_true")
    s.add_argument("--hist-out", help="write a per-document histogram CSV")
    s.add_argument("--byte-level", action="store_true")
    s.add_argument("--unk-token")
    s.add_argument("--marker", choices=MARKERS, default="meta-space")
    s.add_argument("--seed", type=int, default=0,
                   help="accepted for scripts that pass it; fertility reads no seed")
    _add_common(s)

    s = sub("similarity", cmd_similarity,
            help="relative-representation similarity of two embedding spaces")
    s.add_argument("--emb-a")
    s.add_argument("--emb-b")
    s.add_argument("--vocab")
    s.add_argument("--n-prefix", type=int, default=128)
    s.add_argument("--n-nonprefix", type=int, default=128)
    s.add_argument("--sample", type=int,
                   help="score a seeded random token subset instead of all rows")
    s.add_argument("--projection", choices=analysis.PROJECTIONS, default="cosine")
    s.add_argument("--marker", choices=MARKERS, default="meta-space")
    s.add_argument("--seed", type=int, default=0)
    _add_common(s)

    s = sub("params", cmd_params,
            help="parameter-count report for a vocabulary swap")
    s.add_argument("--before", type=int)
    s.add_argument("--after", type=int)
    s.add_argument("--dim", type=int)
    s.add_argument("--tied", action="store_true")
    s.add_argument("--base", type=int, help="non-embedding parameter count")
    _add_common(s)

    return parser, subs


def _merge_config(parser, subs, argv, args):
    """Parse --config values as flags placed before the explicit ones, so
    each goes through its flag's own checks and an explicit flag wins."""
    file_cfg = load_json(args.config, UsageError)
    if not isinstance(file_cfg, dict):
        raise UsageError("config file must be a flat JSON object")
    actions = {a.dest: a for a in subs[args.command]._actions}
    flags = []
    for key, value in file_cfg.items():
        action = actions.get(key.replace("-", "_"))
        if action is None or action.dest in ("config", "help"):
            raise UsageError(f"unknown config key {key!r}")
        switch = action.nargs == 0  # store_true takes no value
        if switch != isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise UsageError(f"config key {key!r}: invalid value {json.dumps(value)}")
        if not switch:
            flags.append(f"{action.option_strings[-1]}={value}")
        elif value:
            flags.append(action.option_strings[-1])
    at = argv.index(args.command) + 1
    try:
        return _parse(parser, subs, argv[:at] + flags + argv[at:])
    except UsageError as exc:
        # the explicit flags parsed alone: a config value failed its flag's
        # check, which one line naming the file reports
        raise UsageError(f"{args.config}: {exc.message}") from None


def _parse(parser, subs, argv):
    """parse_args, with flags the subcommand does not take reported by the
    subcommand's own parser (argparse hands them to the top-level one)."""
    args, extra = parser.parse_known_args(argv)
    if extra:
        (subs.get(args.command) or parser).error(
            f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # A command's data holds no reference cycles (arrays, strings, ints and
    # tuples of them), so reference counting frees it, and each pass of the
    # cyclic collector over its vocabulary-sized containers finds nothing.
    # The collector is paused for the command and left as it was found;
    # the parser's few hundred cyclic objects are collected after.
    collecting = gc.isenabled()
    gc.disable()
    try:
        parser, subs = build_parser()
        args = _parse(parser, subs, argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        if getattr(args, "config", None):
            args = _merge_config(parser, subs, argv, args)
        seed = getattr(args, "seed", None)
        if seed is not None and not 0 <= seed < 2**64:
            raise UsageError(f"--seed must be from 0 to 2**64 - 1, got {seed}")
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (VocabForgeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
