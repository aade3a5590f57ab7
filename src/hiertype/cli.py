"""Batch command-line pipeline.

Subcommands: build-hierarchy, stats, derive-links, label, train, eval,
score.  Exit codes: 0 success, 1 usage error, 2 data error (missing or
malformed files, cycles, bad config values).  The HIERTYPE_LOG environment
variable (error, info, debug) controls stderr log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .corpus import (
    CorpusError,
    EmbeddingTable,
    Mention,
    examples_to_records,
    label_records,
    read_corpus,
    write_corpus,
)
from .errors import HiertypeError, text_lines
from .evaluation import evaluate_model
from .hierarchy import (
    EntityTypeTable,
    derive_cooccurrence_links,
    load_hierarchy,
    write_links,
)
from .model import encode_mention, load_checkpoint, rank_types, save_checkpoint
from .training import (
    ConfigError,
    TrainingError,
    load_train_config,
    located_config,
    make_checkpoint,
    train,
    write_history,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1 for usage
        raise UsageError(message)


def _configure_logging() -> None:
    name = os.environ.get("HIERTYPE_LOG", "").strip().lower()
    level = _LOG_LEVELS.get(name, logging.WARNING)
    root = logging.getLogger("hiertype")
    # rebuild the handler each call so repeated in-process runs pick up the
    # current sys.stderr (tests swap it out)
    for handler in list(root.handlers):
        if getattr(handler, "_hiertype_cli", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    handler._hiertype_cli = True
    root.addHandler(handler)
    root.setLevel(level)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hiertype", description="Hierarchy-aware entity typing pipeline.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("build-hierarchy", help="load, validate, and serialize a hierarchy")
    p.add_argument("--links", required=True, help="links file (child<TAB>parent<TAB>kind) or serialized JSON")
    p.add_argument("--out", required=True, help="output path for the serialized hierarchy")
    p.set_defaults(handler=_cmd_build_hierarchy)

    p = sub.add_parser("stats", help="print summary statistics for a hierarchy")
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("derive-links", help="derive fb_fb links from entity type co-occurrence")
    p.add_argument("--entities", required=True, help="entity table (entity_id<TAB>type1,type2,...)")
    p.add_argument("--threshold", type=float, default=0.7, help="conditional frequency threshold (default 0.7)")
    p.add_argument("--allow", help="optional file of allowed child<TAB>parent pairs")
    p.add_argument("--out", required=True, help="output links file")
    p.set_defaults(handler=_cmd_derive_links)

    p = sub.add_parser("label", help="distantly label a corpus against a hierarchy")
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="labeled corpus (JSONL)")
    p.set_defaults(handler=_cmd_label)

    p = sub.add_parser("train", help="train a typing model")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--train", dest="train_corpus", required=True)
    p.add_argument("--dev", dest="dev_corpus", required=True)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--seed", type=int, default=None, help="override the config seed (config default 13)")
    p.add_argument("--embeddings", help="override the config embeddings path")
    p.add_argument("--history", help="metric history TSV (default: <out>.history.tsv)")
    p.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
                   help="override any config key; repeatable")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint, printing map=<value>")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--per-mention", dest="per_mention", help="optional per-mention AP TSV output")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("score", help="rank types for one mention given as text")
    p.add_argument("--model", required=True)
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--text", required=True, help="whitespace-tokenized sentence")
    p.add_argument("--span", nargs=2, type=int, required=True, metavar=("T1", "T2"))
    p.add_argument("--top", type=int, default=10, help="how many types to print (default 10)")
    p.set_defaults(handler=_cmd_score)

    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help exits 0 inside argparse
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (HiertypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def _cmd_build_hierarchy(args) -> int:
    h = load_hierarchy(args.links)
    h.save(args.out)
    log.info("wrote %d types, %d links to %s", len(h), len(h.links), args.out)
    return EXIT_OK


def _cmd_stats(args) -> int:
    stats = load_hierarchy(args.hierarchy).stats()
    if args.json:
        print(json.dumps(stats.as_dict(), ensure_ascii=False, separators=(",", ":")))
    else:
        print(stats.as_line())
    return EXIT_OK


def _load_allowed_pairs(path: str) -> set[tuple[str, str]]:
    allowed = set()
    for line_no, line in text_lines(path, CorpusError, comments=True):
        fields = line.strip().split("\t")
        if len(fields) < 2:
            raise CorpusError(f"{path}:{line_no}: expected child<TAB>parent")
        allowed.add((fields[0], fields[1]))
    return allowed


def _cmd_derive_links(args) -> int:
    table = EntityTypeTable.load(args.entities)
    allowed = _load_allowed_pairs(args.allow) if args.allow else None
    links = derive_cooccurrence_links(table, args.threshold, allowed)
    write_links(args.out, links, header=f"derived co-occurrence links, threshold={args.threshold}")
    log.info("derived %d link(s) over %d type(s)", len(links), len(table.all_type_names()))
    return EXIT_OK


def _cmd_label(args) -> int:
    h = load_hierarchy(args.hierarchy)
    records = read_corpus(args.corpus)
    examples, skipped = label_records(h, records)
    write_corpus(args.out, examples_to_records(examples))
    log.info("labeled %d mention(s), skipped %d with no usable types", len(examples), skipped)
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = load_train_config(args.config)
    if args.overrides:
        located = {}
        for item in args.overrides:
            key, sep, value = item.partition("=")
            if not sep or not key.strip():
                raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
            located[key.strip()] = (f"--set {item!r}", value.strip())
        cfg = located_config(located, base=cfg)
    if args.embeddings:
        cfg.embeddings = args.embeddings
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.where["seed"] = "--seed"
    cfg.validate()
    if not cfg.embeddings:
        raise ConfigError("no embeddings path given (config key 'embeddings' or --embeddings)")

    h = load_hierarchy(args.hierarchy)
    emb = EmbeddingTable.load(cfg.embeddings, cfg.dim)
    train_examples, train_skipped = label_records(h, read_corpus(args.train_corpus))
    dev_examples, dev_skipped = label_records(h, read_corpus(args.dev_corpus))
    if train_skipped or dev_skipped:
        log.info("skipped %d train / %d dev mention(s) with no usable types", train_skipped, dev_skipped)
    if not train_examples:
        raise TrainingError("no usable training examples after labeling")
    if not dev_examples:
        raise TrainingError("no usable dev examples after labeling")

    result = train(train_examples, dev_examples, h, emb, cfg)
    save_checkpoint(args.out, make_checkpoint(result.params, cfg, h.type_names, emb))
    history_path = args.history or args.out + ".history.tsv"
    write_history(history_path, result.history)
    log.info("best epoch %d, dev map %.6f; checkpoint %s, history %s",
             result.best_epoch, result.best_dev_map, args.out, history_path)
    return EXIT_OK


def _load_checkpoint_for(args):
    ckpt = load_checkpoint(args.model)
    h = load_hierarchy(args.hierarchy)
    if h.type_names != ckpt.type_names:
        pairs = enumerate(zip(h.type_names, ckpt.type_names))
        diff = next((f"type {i} is {a!r} in the hierarchy, {b!r} in the checkpoint"
                     for i, (a, b) in pairs if a != b),
                    f"the hierarchy has {len(h)} types, the checkpoint {len(ckpt.type_names)}")
        raise CorpusError(f"hierarchy {args.hierarchy} does not match the type inventory "
                          f"of checkpoint {args.model}: {diff}")
    return ckpt, h


def _cmd_eval(args) -> int:
    ckpt, h = _load_checkpoint_for(args)
    examples, skipped = label_records(h, read_corpus(args.corpus))
    if skipped:
        log.info("skipped %d mention(s) with no usable types", skipped)
    if not examples:
        raise CorpusError("no labeled mentions to evaluate")
    report = evaluate_model(
        examples, ckpt.params, ckpt.embedding_table(), ckpt.encoder_mode, ckpt.mention_score_kind
    )
    print(report.summary_line())
    if args.per_mention:
        with open(args.per_mention, "w", encoding="utf-8") as fh:
            for i, ap in enumerate(report.per_mention_ap):
                fh.write(f"{i}\t{ap!r}\n")
    return EXIT_OK


def _cmd_score(args) -> int:
    ckpt, h = _load_checkpoint_for(args)
    tokens = args.text.split()
    if not tokens:
        raise CorpusError("--text is empty after whitespace tokenization")
    mention = Mention(tokens=tuple(tokens), span=(args.span[0], args.span[1]))
    if args.top < 1:
        raise UsageError(f"--top must be positive, got {args.top}")
    m = encode_mention(ckpt.params, [mention], ckpt.embedding_table(), ckpt.encoder_mode)[0]
    order, scores = rank_types(ckpt.mention_score_kind, m, ckpt.params.type_emb, ckpt.params.bilinear)
    for i in order[: args.top]:
        print(f"{ckpt.type_names[i]}\t{float(scores[i])!r}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
