"""Seeded inputs and workload definitions for the hiertype benchmark.

``generate(root, input_set, size)`` writes every file the four workloads
read into ``root/.bench_work/<size>-set<input_set>/`` and returns a meta
record: the directory, the labeled mention counts and the hierarchy's
shape.  The
program under test only ever sees these files; nothing here is timed.

Paper size follows the TypeNet setting: 1,941 types, d=300, filter width 5,
batch 32, structure batch 128.

The type DAG is layered.  Nine levels hold 8, 24, 60, 130, 250, 380, 450,
400 and 239 types.  Every type below level 0 takes one parent from the
level directly above it (``child_of``).  With probability 0.25 it takes a
second parent, and with probability 0.05 a third.  These extra parents come
from any higher level (``fb_fb``).  So the depth of a level-k type is k + 1,
``hiertype stats`` reports max_depth 9, and the fan-in is 1 to 3 parents,
about 1.3 on average.  The hierarchy JSON is built with
``hiertype build-hierarchy``.

Corpora are JSONL records.  Sentence lengths come in two shapes, the
quantiles of a lognormal in seeded order (``LENGTHS``).  The ``long``
shape is long-tailed, so batching by length will pad: median 18, sigma
0.7, clipped to [1, 160].  The ``short`` shape is the other end: median 8,
sigma 0.3, clipped to [1, 40], so sentences are about 4 to 16 tokens and
some are shorter than the filter.  Spans are 1-3 tokens, and tokens are
Zipf-distributed over the vocabulary.  About 4% of tokens are out of
vocabulary.  One record in twenty, at random positions, carries only type
names missing from the hierarchy, so labeling skips it.  Each labelable
record has 1 or 2 gold types drawn uniformly.  No public statistics of the
paper's corpora were available to fit these numbers to; they are
assumptions, and bench/README.md says so.  Corpus sizes are chosen so that
train batches come out full: 320, 96 and 640 labeled train mentions, 10, 3
and 20 steps.

There are ``INPUT_SETS`` input sets.  ``--seed n`` selects set
``n mod INPUT_SETS``, so every seed has reference values recorded in
``expected.json``.

The ``eval-rank`` checkpoint is an untrained order-scored model built with
``init_model`` + ``make_checkpoint`` + ``save_checkpoint``.  It stands in
for a trained one: ranking it costs the same.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

LEVEL_SIZES = {
    "paper": (8, 24, 60, 130, 250, 380, 450, 400, 239),  # 1,941 types
    "toy": (2, 4, 8, 12, 14),  # 40 types
}


@dataclass(frozen=True)
class Size:
    dim: int
    filter_width: int
    batch_size: int
    structure_batch_size: int
    vocab: int
    # records in each corpus, before labeling drops some
    train_bilinear: int
    train_order: int
    train_short: int
    dev: int
    dev_short: int
    test: int


SIZES = {
    "paper": Size(dim=300, filter_width=5, batch_size=32, structure_batch_size=128,
                  vocab=20000, train_bilinear=336, train_order=101, train_short=673, dev=64,
                  dev_short=64, test=420),
    "toy": Size(dim=8, filter_width=3, batch_size=4, structure_batch_size=6,
                vocab=200, train_bilinear=12, train_order=8, train_short=12, dev=6, dev_short=6,
                test=10),
}

OOV_RATE = 0.04
# shape -> (median, sigma, longest) of the lognormal sentence lengths
LENGTHS = {"long": (18.0, 0.7, 160), "short": (8.0, 0.3, 40)}
# corpus file stem -> (Size field, length shape), in generation order
CORPORA = (("train-bilinear", "train_bilinear", "long"), ("train-order", "train_order", "long"),
           ("dev", "dev", "long"), ("test", "test", "long"),
           ("train-short", "train_short", "short"), ("dev-short", "dev_short", "short"))
INPUT_SETS = 24


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # "train" or "eval"
    config: str | None      # config file name for train workloads
    train_corpus: str | None
    dev_corpus: str | None
    epochs: int
    structure: bool         # whether train steps also take a structure batch
    # wrapped names that must be reached at least once in a traced run
    must_call: tuple[str, ...]


_SETUP = ("load_hierarchy", "read_corpus", "label_records")
_TRAIN = _SETUP + ("cli.train", "EmbeddingTable.load", "EmbeddingTable.vectors",
                   "prepare_typing_batch", "encode_vectors_cached", "sample_dropout_masks",
                   "adam_step", "training.evaluate_model", "encode_mention", "rank_types",
                   "average_precision", "save_checkpoint")

WORKLOADS = {
    "train-bilinear": Workload("train-bilinear", "train", "bilinear.cfg", "train-bilinear.jsonl",
                               "dev.jsonl", 1, False, _TRAIN),
    "train-order-struct": Workload("train-order-struct", "train", "order-struct.cfg",
                                   "train-order.jsonl", "dev.jsonl", 1, True, _TRAIN),
    "eval-rank": Workload("eval-rank", "eval", None, None, None, 0, False,
                          _SETUP + ("load_checkpoint", "cli.evaluate_model", "EmbeddingTable.vectors",
                                    "encode_mention", "rank_types", "average_precision")),
    "train-bilinear-short": Workload("train-bilinear-short", "train", "bilinear.cfg",
                                     "train-short.jsonl", "dev-short.jsonl", 1, False, _TRAIN),
}


def _config_text(size: Size, wl: Workload, seed: int) -> str:
    common = [
        f"dim={size.dim}",
        f"filter_width={size.filter_width}",
        "encoder_mode=cnn",
        f"batch_size={size.batch_size}",
        f"max_epochs={wl.epochs}",
        f"patience={wl.epochs}",  # early stopping never shortens a run
        f"seed={seed}",
        "dropout=0.5",
        "embeddings=vectors.txt",
    ]
    if not wl.structure:
        extra = ["mention_score_kind=bilinear", "structure_weight=0"]
    else:
        extra = ["mention_score_kind=order", "structure_score_kind=order", "margin=1.0",
                 "structure_weight=0.5", f"structure_batch_size={size.structure_batch_size}"]
    return "\n".join(common + extra) + "\n"


def _type_dag(rng: np.random.Generator, levels: tuple[int, ...]) -> tuple[list[str], list[tuple[str, str, str]]]:
    names: list[str] = []
    by_level: list[list[int]] = []
    links: list[tuple[str, str, str]] = []
    for lvl, count in enumerate(levels):
        ids = list(range(len(names), len(names) + count))
        names.extend(f"/l{lvl}/t{i:04d}" for i in ids)
        by_level.append(ids)
        if lvl == 0:
            continue
        above = [i for level_ids in by_level[:lvl] for i in level_ids]
        for i in ids:
            parents = {int(rng.choice(by_level[lvl - 1]))}
            links.append((names[i], names[next(iter(parents))], "child_of"))
            extra = int(rng.random() < 0.25) + int(rng.random() < 0.05)
            for _ in range(extra):
                p = int(rng.choice(above))
                if p not in parents:
                    parents.add(p)
                    links.append((names[i], names[p], "fb_fb"))
    return names, links


def _write_vectors(path: str, rng: np.random.Generator, tokens: list[str], dim: int) -> np.ndarray:
    # integers / 1e5 round-trip exactly through "%.5f" text, so the returned
    # matrix equals what EmbeddingTable.load parses
    matrix = np.rint(rng.normal(0.0, 0.25, size=(len(tokens), dim)) * 1e5) / 1e5
    fmt = " ".join(["%.5f"] * dim)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{tok} {fmt % tuple(row)}\n" for tok, row in zip(tokens, matrix))
    return matrix


def _write_corpus(path: str, rng: np.random.Generator, count: int, tokens: list[str],
                  type_names: list[str], tag: str, shape: str) -> int:
    """Write ``count`` records; returns how many of them can be labeled."""
    ranks = np.arange(len(tokens), dtype=np.float64)
    zipf = 1.0 / (ranks + 10.0)
    zipf /= zipf.sum()
    unlabelable = set(rng.choice(count, size=count // 20, replace=False).tolist())
    # lognormal quantiles in seeded order: every seed gets the same multiset
    # of lengths, so the encoder work of a corpus does not vary with the seed
    z = NormalDist().inv_cdf
    median, sigma, longest = LENGTHS[shape]
    lengths = [int(np.clip(np.rint(median * np.exp(sigma * z((i + 0.5) / count))), 1, longest))
               for i in range(count)]
    lengths = [lengths[i] for i in rng.permutation(count)]
    with open(path, "w", encoding="utf-8") as fh:
        for r, n in enumerate(lengths):
            ids = rng.choice(len(tokens), size=n, p=zipf)
            toks = [f"oov{rng.integers(10**6)}" if rng.random() < OOV_RATE else tokens[i] for i in ids]
            width = int(rng.integers(1, min(3, n) + 1))
            t1 = int(rng.integers(0, n - width + 1))
            if r in unlabelable:
                types = [f"/missing/{tag}{r}"]
            else:
                picks = rng.choice(len(type_names), size=int(rng.integers(1, 3)), replace=False)
                types = [type_names[i] for i in picks]
            fh.write(json.dumps({"tokens": toks, "span": [t1, t1 + width - 1],
                                 "entity_id": f"{tag}{r}", "types": types},
                                separators=(",", ":")) + "\n")
    return count - len(unlabelable)


def _fingerprint(root: str) -> str:
    """Hash of the generator and the package it feeds, so a cached input set
    is rebuilt whenever either changes."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "hiertype")
    for path in [os.path.abspath(__file__)] + sorted(
            os.path.join(pkg, f) for f in os.listdir(pkg) if f.endswith(".py")):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def generate(root: str, input_set: int, size_name: str) -> dict:
    """Build (or reuse) input set ``input_set`` (in ``range(INPUT_SETS)``);
    returns its meta record."""
    if not 0 <= input_set < INPUT_SETS:
        raise ValueError(f"input set {input_set} is outside 0..{INPUT_SETS - 1}")
    work = os.path.join(root, ".bench_work", f"{size_name}-set{input_set}")
    meta_path = os.path.join(work, "meta.json")
    fingerprint = _fingerprint(root)
    if os.path.exists(meta_path):
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
        if meta.get("fingerprint") == fingerprint:
            return dict(meta, dir=work)
    from hiertype.cli import main as hiertype_main
    from hiertype.hierarchy import load_hierarchy
    from hiertype.model import save_checkpoint
    from hiertype.corpus import EmbeddingTable
    from hiertype.training import config_from_strings, init_model, make_checkpoint

    size = SIZES[size_name]
    tmp = work + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    rng = np.random.default_rng(np.random.SeedSequence([input_set, 0x5EED]))
    type_names, links = _type_dag(rng, LEVEL_SIZES[size_name])
    with open(os.path.join(tmp, "links.tsv"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{c}\t{p}\t{k}\n" for c, p, k in links)
        # a root no type chose as parent appears in no link: declare it alone
        fh.writelines(f"{name}\n" for name in type_names[:LEVEL_SIZES[size_name][0]])
    hierarchy_path = os.path.join(tmp, "hierarchy.json")
    if hiertype_main(["build-hierarchy", "--links", os.path.join(tmp, "links.tsv"),
                      "--out", hierarchy_path]) != 0:
        raise RuntimeError("hiertype build-hierarchy failed on the generated links")
    hierarchy = load_hierarchy(hierarchy_path)
    if len(hierarchy) != len(type_names):
        raise RuntimeError(f"the built hierarchy holds {len(hierarchy)} of {len(type_names)} types")

    tokens = [f"w{i:05d}" for i in range(size.vocab)]
    matrix = _write_vectors(os.path.join(tmp, "vectors.txt"), rng, tokens, size.dim)
    labeled = {}
    for name, field, shape in CORPORA:
        labeled[name] = _write_corpus(os.path.join(tmp, f"{name}.jsonl"), rng, getattr(size, field),
                                      tokens, type_names, name[:2], shape)
    for wl in WORKLOADS.values():
        if wl.config:
            with open(os.path.join(tmp, wl.config), "w", encoding="utf-8") as fh:
                fh.write(_config_text(size, wl, input_set))

    order_text = _config_text(size, WORKLOADS["train-order-struct"], input_set)
    cfg = config_from_strings(dict(line.split("=", 1) for line in order_text.split()))
    emb = EmbeddingTable(tokens, matrix)
    params = init_model(len(hierarchy), cfg, rng=np.random.default_rng(input_set))
    save_checkpoint(os.path.join(tmp, "eval.ckpt"),
                    make_checkpoint(params, cfg, hierarchy.type_names, emb))

    stats = hierarchy.stats().as_dict()
    parent_counts = np.bincount([hierarchy.resolve(c).index for c, _, _ in links],
                                minlength=len(hierarchy))[LEVEL_SIZES[size_name][0]:]
    meta = {
        "fingerprint": fingerprint,
        "input_set": input_set,
        "size": size_name,
        "n_types": len(hierarchy),
        "max_depth": stats["max_depth"],
        "mean_depth": stats["mean_depth"],
        "mean_fan_in": float(parent_counts.mean()),
        "max_fan_in": int(parent_counts.max()),
        "labelable": labeled,
        "batch_size": size.batch_size,
        "structure_batch_size": size.structure_batch_size,
    }
    with open(os.path.join(tmp, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    os.replace(tmp, work)
    return dict(meta, dir=work)

