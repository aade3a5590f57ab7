"""Mention corpora, word embeddings, and distant supervision.

A mention is a tokenized sentence plus an inclusive token span naming an
entity.  Distant supervision turns a mention whose entity carries raw type
names into a training example labeled with the hierarchy closure of the
names that exist in the hierarchy; mentions with no usable type are skipped.

Corpus files are JSONL (one object per line with ``tokens``, ``span``,
``entity_id``, optional ``types``) or a TSV fallback
``entity_id<TAB>t1<TAB>t2<TAB>space-joined-tokens<TAB>comma-joined-types``.
Embedding files are whitespace separated: ``token v1 ... vd``.  One
``np.loadtxt`` pass parses them; a file it does not accept is re-read by the
per-line ``float()`` loop, which defines the result, warnings and errors.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import HiertypeError, expect, parse_json, starts_json, text_lines, write_output
from .hierarchy import TypeHierarchy, TypeId

log = logging.getLogger(__name__)


class CorpusError(HiertypeError):
    """Malformed corpus, span, or batching request."""


class EmbeddingError(HiertypeError):
    """Malformed or unusable embedding file."""


@dataclass(frozen=True)
class Mention:
    """A tokenized sentence with an inclusive [t1, t2] entity span."""

    tokens: tuple[str, ...]
    span: tuple[int, int]
    entity_id: str = ""

    def __post_init__(self):
        expect(self.span, (int, int), "span", CorpusError)
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "span", tuple(self.span))
        if not self.tokens:
            raise CorpusError("mention has no tokens")
        t1, t2 = self.span
        if not (0 <= t1 <= t2 < len(self.tokens)):
            raise CorpusError(
                f"span {self.span!r} out of range for {len(self.tokens)} token(s)"
            )


@dataclass(frozen=True)
class CorpusRecord:
    """One raw corpus row: a mention plus the entity's raw type names."""

    tokens: tuple[str, ...]
    span: tuple[int, int]
    entity_id: str = ""
    types: tuple[str, ...] = ()

    def __post_init__(self):
        mention = self.to_mention()  # validates tokens and span
        object.__setattr__(self, "tokens", mention.tokens)
        object.__setattr__(self, "span", mention.span)
        object.__setattr__(self, "types", tuple(self.types))

    def to_mention(self) -> Mention:
        return Mention(self.tokens, self.span, self.entity_id)


@dataclass(frozen=True)
class LabeledExample:
    """A mention with its closed gold type set (never empty)."""

    mention: Mention
    gold_types: tuple[TypeId, ...]

    def __post_init__(self):
        object.__setattr__(self, "gold_types", tuple(self.gold_types))
        if not self.gold_types:
            raise CorpusError("labeled example with empty gold set")


class EmbeddingTable:
    """Case-sensitive token -> d-dim float64 vector; unknown tokens read as zeros."""

    def __init__(self, tokens: Sequence[str], matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(tokens):
            raise EmbeddingError(
                f"matrix shape {matrix.shape} does not match {len(tokens)} token(s)"
            )
        self._tokens = tuple(tokens)
        self._lookup = {t: i for i, t in enumerate(self._tokens)}
        if len(self._lookup) != len(self._tokens):
            raise EmbeddingError("duplicate tokens in embedding table")
        self._matrix = matrix.view()  # freezes this view, not the caller's array
        self._matrix.flags.writeable = False
        self._oov = np.zeros(matrix.shape[1], dtype=np.float64)
        self._oov.flags.writeable = False

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._lookup

    def lookup(self, token: str) -> np.ndarray:
        i = self._lookup.get(token)
        return self._oov if i is None else self._matrix[i]

    def vectors(self, tokens: Sequence[str]) -> np.ndarray:
        """Stack per-token vectors into an (n, d) array."""
        out = np.zeros((len(tokens), self.dim), dtype=np.float64)
        for j, token in enumerate(tokens):
            i = self._lookup.get(token)
            if i is not None:
                out[j] = self._matrix[i]
        return out

    @classmethod
    def load(cls, path: str, dim: int) -> "EmbeddingTable":
        """One ``np.loadtxt`` pass; a file it does not accept goes to ``_load_per_line``."""
        if dim < 1:
            raise EmbeddingError(f"embedding dimension must be positive, got {dim}")
        first, duplicates = {}, []  # token -> its values; (line number, token)
        try:  # a ValueError, or a located decode fault, hands the file over
            for line_no, line in text_lines(path, EmbeddingError):
                head = line.split(None, 1)
                if len(head) == 2 and head[0] not in first:
                    first[head[0]] = head[1]
                elif len(line.split()) != dim + 1:  # a lone token too
                    raise ValueError
                else:
                    duplicates.append((line_no, head[0]))
            if not first:
                raise ValueError
            matrix = np.loadtxt(list(first.values()), np.float64, comments=None, ndmin=2)
            finite = np.isfinite(matrix.min()) and np.isfinite(matrix.max())
            if matrix.shape != (len(first), dim) or not finite:
                raise ValueError
        except (ValueError, EmbeddingError):
            return cls._load_per_line(path, dim)
        for line_no, token in duplicates:
            log.warning("%s:%d: duplicate token %r, keeping first", path, line_no, token)
        return cls(list(first), matrix)

    @classmethod
    def _load_per_line(cls, path: str, dim: int) -> "EmbeddingTable":
        """The reference semantics: every value goes through ``float()``."""
        rows: dict[str, list[float]] = {}  # token -> its values, in file order
        line_nos: list[int] = []
        for line_no, line in text_lines(path, EmbeddingError):
            token, *values = line.split()
            if len(values) != dim:
                raise EmbeddingError(f"{path}:{line_no}: expected {dim} values, got {len(values)}")
            if token in rows:
                log.warning("%s:%d: duplicate token %r, keeping first", path, line_no, token)
                continue
            try:
                rows[token] = [float(v) for v in values]
            except ValueError as exc:
                raise EmbeddingError(f"{path}:{line_no}: {exc}") from exc
            line_nos.append(line_no)
        if not rows:
            raise EmbeddingError(f"{path}: no embeddings found")
        tokens, matrix = list(rows), np.array(list(rows.values()), dtype=np.float64)
        # min and max propagate nan and reach +-inf without a temporary
        if not (np.isfinite(matrix.min()) and np.isfinite(matrix.max())):
            bad = int(np.flatnonzero(~np.isfinite(matrix).all(axis=1))[0])
            raise EmbeddingError(f"{path}:{line_nos[bad]}: non-finite value for {tokens[bad]!r}")
        return cls(tokens, matrix)


# ----------------------------------------------------------------------
# corpus io


def read_corpus(path: str) -> list[CorpusRecord]:
    """JSONL records when the text starts with ``{``, else TSV rows with
    ``#`` comments; a faulty line is named by ``path:line``."""
    jsonl = starts_json(path, CorpusError)
    records = []
    for line_no, line in text_lines(path, CorpusError, comments=not jsonl):
        where = f"{path}:{line_no}"
        row = parse_json(line, where, CorpusError) if jsonl else line.split("\t")
        try:
            records.append(_jsonl_record(row) if jsonl else _tsv_record(row))
        except (ValueError, CorpusError) as exc:
            raise CorpusError(f"{where}: {exc}") from exc
    return records


def _jsonl_record(obj: object) -> CorpusRecord:
    expect(obj, dict, "record", CorpusError)
    return CorpusRecord(
        tokens=expect(obj.get("tokens"), [str], "tokens", CorpusError),
        span=expect(obj.get("span"), (int, int), "span", CorpusError),
        entity_id=expect(obj.get("entity_id", ""), str, "entity_id", CorpusError),
        types=expect(obj.get("types", []), [str], "types", CorpusError),
    )


def _tsv_record(fields: list[str]) -> CorpusRecord:
    if len(fields) not in (4, 5):
        raise CorpusError(f"expected 4 or 5 tab-separated fields, got {len(fields)}")
    types = tuple(t.strip() for t in fields[4].split(",") if t.strip()) if len(fields) == 5 else ()
    return CorpusRecord(tokens=tuple(fields[3].split(" ")), span=(int(fields[1]), int(fields[2])),
                        entity_id=fields[0], types=types)


def write_corpus(path: str, records: Iterable[CorpusRecord]) -> None:
    """Write records as JSONL with a fixed key order (deterministic bytes)."""
    rows = ({"tokens": list(r.tokens), "span": [r.span[0], r.span[1]], "entity_id": r.entity_id,
             "types": list(r.types)} for r in records)
    write_output(path, "corpus", CorpusError,
                 (json.dumps(row, ensure_ascii=False, separators=(",", ":")) + "\n" for row in rows))


def examples_to_records(examples: Iterable[LabeledExample]) -> list[CorpusRecord]:
    return [
        CorpusRecord(
            tokens=ex.mention.tokens,
            span=ex.mention.span,
            entity_id=ex.mention.entity_id,
            types=tuple(t.name for t in ex.gold_types),
        )
        for ex in examples
    ]


# ----------------------------------------------------------------------
# distant supervision


def distant_label(
    hierarchy: TypeHierarchy,
    entity_types: Iterable[str],
    mention: Mention,
) -> LabeledExample | None:
    """Label a mention with the closure of its entity's in-hierarchy types.

    Raw names missing from the hierarchy are dropped; if nothing is left the
    mention is skipped and None is returned, never an empty gold set.
    """
    present = [t for t in entity_types if t in hierarchy]
    if not present:
        return None
    return LabeledExample(mention=mention, gold_types=hierarchy.closure(present))


def label_records(
    hierarchy: TypeHierarchy,
    records: Iterable[CorpusRecord],
) -> tuple[list[LabeledExample], int]:
    """Distantly label a whole corpus; returns (examples, skipped count)."""
    examples: list[LabeledExample] = []
    skipped = 0
    for rec in records:
        ex = distant_label(hierarchy, rec.types, rec.to_mention())
        if ex is None:
            skipped += 1
        else:
            examples.append(ex)
    return examples, skipped


def batch_iter(
    examples: Sequence[LabeledExample],
    batch_size: int,
    seed: int,
    epoch: int = 0,
) -> Iterator[list[LabeledExample]]:
    """Shuffled minibatches; epoch e reshuffles with seed + e.

    The final short batch is emitted, so each epoch yields every example
    exactly once.  An empty corpus is an error, not an empty stream.
    """
    if not examples:
        raise CorpusError("cannot batch an empty corpus")
    if batch_size < 1:
        raise CorpusError(f"batch size must be positive, got {batch_size}")
    rng = np.random.default_rng(seed + epoch)
    order = rng.permutation(len(examples))
    for start in range(0, len(examples), batch_size):
        yield [examples[i] for i in order[start:start + batch_size]]
