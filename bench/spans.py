"""Per-layer metrics derived from the spans of traced commands.

A span is ``[name, start, end, parent, count, run_id]`` as written by
``child.py``.  The layers are the package's modules.  A span's self time is
its duration minus the durations of its direct child spans.  Children never
overlap, because the program is single-threaded.  Each metric is computed
per traced command, and the run reports the median over its traced
commands.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

ENCODE = ("encode_vectors_cached", "encode_mention")
EVALUATE = ("cli.evaluate_model", "training.evaluate_model")

# name -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "hierarchy.load_s": "s",
    "corpus.embeddings_load_s": "s",
    "corpus.read_label_s": "s",
    "corpus.label_kept_ratio": "ratio",
    "corpus.vectors_s": "s",
    "corpus.tokens": "count",
    "model.encode_s": "s",
    "model.encode_calls": "count",
    "model.encode_ms_p50": "ms",
    "model.encode_ms_p90": "ms",
    "model.rank_s": "s",
    "model.rank_calls": "count",
    "model.dropout_masks_s": "s",
    "model.checkpoint_save_s": "s",
    "model.checkpoint_load_s": "s",
    "training.self_s": "s",
    "training.steps": "count",
    "training.step_ms_p50": "ms",
    "training.step_ms_p90": "ms",
    "training.prepare_s": "s",
    "training.adam_s": "s",
    "training.dev_eval_s": "s",
    "training.pair_cells": "count",
    "evaluation.self_s": "s",
    "evaluation.ap_s": "s",
    "evaluation.mentions": "count",
    "trace.overhead_ratio": "ratio",
}


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def command_metrics(spans: list[list], structure_batch: int, n_types: int) -> dict[str, float]:
    """Per-layer metrics of one traced command."""
    child_time = [0.0] * len(spans)
    for name, s0, s1, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += s1 - s0
    dur: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    count: dict[str, int] = defaultdict(int)
    samples: dict[str, list[float]] = defaultdict(list)
    for i, (name, s0, s1, _, n, _) in enumerate(spans):
        dur[name] += s1 - s0
        self_s[name] += s1 - s0 - child_time[i]
        calls[name] += 1
        count[name] += n
        samples[name].append(s1 - s0)
    encode_ms = [1e3 * t for name in ENCODE for t in samples[name]]
    adam_ends = [s[2] for s in spans if s[0] == "adam_step"]
    step_ms = [1e3 * (b - a) for a, b in zip(adam_ends, adam_ends[1:])]
    steps = calls["adam_step"]
    return {
        "hierarchy.load_s": dur["load_hierarchy"],
        "corpus.embeddings_load_s": dur["EmbeddingTable.load"],
        "corpus.read_label_s": dur["read_corpus"] + dur["label_records"],
        "corpus.label_kept_ratio": count["label_records"] / max(count["read_corpus"], 1),
        "corpus.vectors_s": dur["EmbeddingTable.vectors"],
        "corpus.tokens": count["EmbeddingTable.vectors"],
        "model.encode_s": sum(self_s[name] for name in ENCODE),
        "model.encode_calls": sum(calls[name] for name in ENCODE),
        "model.encode_ms_p50": _pct(encode_ms, 50),
        "model.encode_ms_p90": _pct(encode_ms, 90),
        "model.rank_s": dur["rank_types"],
        "model.rank_calls": calls["rank_types"],
        "model.dropout_masks_s": dur["sample_dropout_masks"],
        "model.checkpoint_save_s": dur["save_checkpoint"],
        "model.checkpoint_load_s": dur["load_checkpoint"],
        "training.self_s": self_s["cli.train"],
        "training.steps": steps,
        "training.step_ms_p50": _pct(step_ms, 50),
        "training.step_ms_p90": _pct(step_ms, 90),
        "training.prepare_s": dur["prepare_typing_batch"],
        "training.adam_s": dur["adam_step"],
        "training.dev_eval_s": dur["training.evaluate_model"],
        # computed, not measured: membership cells the grids evaluate
        "training.pair_cells": (count["prepare_typing_batch"] + steps * structure_batch) * n_types,
        "evaluation.self_s": sum(self_s[name] for name in EVALUATE),
        "evaluation.ap_s": dur["average_precision"],
        "evaluation.mentions": sum(count[name] for name in EVALUATE),
    }


def layer_metrics(wl, meta: dict, recs: list[dict]) -> dict[str, tuple[float, str]]:
    """Median per-layer metrics over the traced commands of one run, plus
    the traced / untraced wall-time ratio.  Raises ValueError naming any
    boundary the workload must reach but did not."""
    traced = [r for r in recs if r["traced"]]
    plain = [r for r in recs if not r["traced"]]
    if not traced or not plain:
        raise ValueError("a traced run needs both traced and untraced commands")
    structure_batch = meta["structure_batch_size"] if wl.structure else 0
    per_command = []
    for rec in traced:
        reached = {s[0] for s in rec["spans"]}
        missing = [name for name in wl.must_call if name not in reached]
        if missing:
            raise ValueError(f"{rec['run_id']}: traced boundaries never reached: {', '.join(missing)}")
        per_command.append(command_metrics(rec["spans"], structure_batch, meta["n_types"]))
    out = {name: (statistics.median(m[name] for m in per_command), UNITS[name])
           for name in UNITS if name != "trace.overhead_ratio"}
    ratio = statistics.median(r["wall_s"] for r in traced) / statistics.median(r["wall_s"] for r in plain)
    out["trace.overhead_ratio"] = (ratio, UNITS["trace.overhead_ratio"])
    return out
