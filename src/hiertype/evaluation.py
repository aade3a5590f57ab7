"""Mean average precision over ranked type predictions.

AP for one mention with ranking r and gold set G is
(1/|G|) * sum over 1-indexed positions k with r[k] in G of precision@k,
where precision@k counts gold items in the top k.  MAP is the unweighted
mean over mentions.  Ranking functions in this package break score ties
by ascending type index before AP is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus import EmbeddingTable, LabeledExample
from .errors import HiertypeError
from .model import EncoderMode, ModelParams, ScoreKind, encode_mention, rank_types


# mentions per encoder and ranking call in evaluate_model: the paper's batch size
EVAL_BATCH = 32


class EvalError(HiertypeError):
    """Unusable evaluation request (empty gold set, empty corpus, bad ranking)."""


def average_precision(ranking: Sequence[object], gold: Iterable[object]) -> float:
    """AP of one ranking against a non-empty gold set.

    Every gold item must appear in the ranking exactly once; a missing or
    duplicated item is an error rather than a silent score change.
    """
    gold_set = set(gold)
    if not gold_set:
        raise EvalError("empty gold set")
    hits = 0
    acc = 0.0
    for k, item in enumerate(ranking, start=1):
        if item in gold_set:
            hits += 1
            acc += hits / k
    if hits != len(gold_set):
        raise EvalError(
            f"ranking holds {hits} gold hit(s) for {len(gold_set)} gold item(s); "
            "gold must appear in the ranking exactly once"
        )
    return acc / len(gold_set)


@dataclass(frozen=True)
class EvalReport:
    per_mention_ap: tuple[float, ...]
    mean_ap: float
    mention_count: int

    def summary_line(self) -> str:
        return f"map={self.mean_ap!r}"


def evaluate_rankings(
    rankings: Sequence[Sequence[object]],
    golds: Sequence[Iterable[object]],
) -> EvalReport:
    if len(rankings) != len(golds):
        raise EvalError(f"{len(rankings)} ranking(s) for {len(golds)} gold set(s)")
    aps = [average_precision(r, g) for r, g in zip(rankings, golds)]
    if not aps:
        raise EvalError("empty evaluation set")
    return EvalReport(per_mention_ap=tuple(aps), mean_ap=sum(aps) / len(aps), mention_count=len(aps))


def evaluate_model(
    examples: Sequence[LabeledExample],
    params: ModelParams,
    emb: EmbeddingTable,
    mode: EncoderMode,
    kind: ScoreKind,
) -> EvalReport:
    """Rank every type for each mention (no dropout) and average the APs.

    Mentions are encoded and ranked EVAL_BATCH at a time, one call each,
    which bounds the temporaries however large the corpus is."""
    if not examples:
        raise EvalError("empty evaluation set")
    aps = []
    for start in range(0, len(examples), EVAL_BATCH):
        chunk = examples[start:start + EVAL_BATCH]
        encoded = encode_mention(params, [ex.mention for ex in chunk], emb, mode)
        orders, _ = rank_types(kind, encoded, params.type_emb, params.bilinear)
        for ex, order in zip(chunk, orders):
            gold = {t.index for t in ex.gold_types}
            aps.append(average_precision(order.tolist(), gold))
    return EvalReport(per_mention_ap=tuple(aps), mean_ap=sum(aps) / len(aps), mention_count=len(aps))
