"""Synthetic typing task: token patterns fully determine leaf types.

Twenty types in a depth-4 tree: a root, three groups, six branches, and
ten leaves (two per branch except branch-c2, which stays childless).  Each
mention contains a surface token naming its branch (visible to the span
mean, shared by the branch's two leaves) and a context token outside the
span naming the leaf variant (visible only to the CNN).  A span-mean-only
model can therefore pin down the branch but must guess the variant, while
a CNN model can recover the exact leaf.
"""

from __future__ import annotations

import os

import numpy as np

from hiertype import (
    EmbeddingTable,
    TypeHierarchy,
    CorpusRecord,
    label_records,
    read_corpus,
    write_corpus,
)

GROUPS = ("group-a", "group-b", "group-c")
BRANCHES = (
    ("a1", "group-a"), ("a2", "group-a"),
    ("b1", "group-b"), ("b2", "group-b"),
    ("c1", "group-c"), ("c2", "group-c"),
)
LEAF_BRANCHES = ("a1", "a2", "b1", "b2", "c1")
VARIANTS = ("varx", "vary")
FILLERS = ("the", "old", "report", "from", "city", "near", "about", "today")


def hierarchy_lines() -> list[str]:
    lines = []
    for g in GROUPS:
        lines.append(f"{g}\troot\tchild_of")
    for br, g in BRANCHES:
        lines.append(f"branch-{br}\t{g}\tchild_of")
    for br in LEAF_BRANCHES:
        for v in ("x", "y"):
            lines.append(f"leaf-{br}{v}\tbranch-{br}\tchild_of")
    return lines


def build_hierarchy() -> TypeHierarchy:
    return TypeHierarchy(
        [tuple(line.split("\t")) for line in hierarchy_lines()], source="<synthetic>"
    )


def vocab_tokens() -> list[str]:
    return list(LEAF_BRANCHES) + list(VARIANTS) + list(FILLERS) + ["unit"]


def embedding_rows(rng: np.random.Generator, dim: int = 16) -> tuple[list[str], np.ndarray]:
    tokens = vocab_tokens()
    return tokens, rng.normal(size=(len(tokens), dim))


def make_records(rng: np.random.Generator, count: int = 500) -> list[CorpusRecord]:
    records = []
    for i in range(count):
        br = LEAF_BRANCHES[int(rng.integers(len(LEAF_BRANCHES)))]
        v = ("x", "y")[int(rng.integers(2))]
        var = VARIANTS[0] if v == "x" else VARIANTS[1]
        leaf = f"leaf-{br}{v}"

        def filler() -> str:
            return FILLERS[int(rng.integers(len(FILLERS)))]

        # every variant/surface token sits where a width-3 window reads it
        template = int(rng.integers(4))
        if template == 0:
            tokens, span = [filler(), var, br, filler()], (2, 2)
        elif template == 1:
            tokens, span = [var, filler(), br, filler(), filler()], (2, 2)
        elif template == 2:
            tokens, span = [filler(), filler(), var, br, filler(), filler()], (3, 3)
        else:
            tokens, span = [filler(), var, br, "unit", filler()], (2, 3)
        records.append(CorpusRecord(tokens=tuple(tokens), span=span,
                                    entity_id=f"e{i}", types=(leaf,)))
    return records


def build_in_memory(seed: int = 13, count: int = 500, train_count: int = 400, dim: int = 16):
    """(hierarchy, embeddings, train examples, dev examples) for direct API runs."""
    rng = np.random.default_rng(seed)
    hierarchy = build_hierarchy()
    tokens, matrix = embedding_rows(rng, dim)
    emb = EmbeddingTable(tokens, matrix)
    records = make_records(rng, count)
    order = rng.permutation(count)
    train_records = [records[i] for i in order[:train_count]]
    dev_records = [records[i] for i in order[train_count:]]
    train_examples, skipped_a = label_records(hierarchy, train_records)
    dev_examples, skipped_b = label_records(hierarchy, dev_records)
    assert skipped_a == 0 and skipped_b == 0
    return hierarchy, emb, train_examples, dev_examples


def write_task_files(directory: str, seed: int = 13, count: int = 500,
                     train_count: int = 400, dim: int = 16) -> dict[str, str]:
    """Write links/embeddings/corpus files for CLI runs; returns the paths."""
    rng = np.random.default_rng(seed)
    paths = {
        "links": os.path.join(directory, "links.tsv"),
        "embeddings": os.path.join(directory, "embeddings.txt"),
        "train": os.path.join(directory, "train.jsonl"),
        "dev": os.path.join(directory, "dev.jsonl"),
    }
    with open(paths["links"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(hierarchy_lines()) + "\n")
    tokens, matrix = embedding_rows(rng, dim)
    with open(paths["embeddings"], "w", encoding="utf-8") as fh:
        for token, row in zip(tokens, matrix):
            fh.write(token + " " + " ".join(repr(float(v)) for v in row) + "\n")
    records = make_records(rng, count)
    order = rng.permutation(count)
    write_corpus(paths["train"], [records[i] for i in order[:train_count]])
    write_corpus(paths["dev"], [records[i] for i in order[train_count:]])
    return paths
