"""The traced benchmark wraps package functions by name; keep them there.

``bench/child.py`` lists in ``BOUNDARIES`` the ``hiertype.<module>.<attr>``
paths it wraps at run time, and exits 3 when one of them is missing.  These
tests load that table by file path, without installing any wrapper, so a
rename or removal shows up here rather than as a failed benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from hiertype import (EmbeddingTable, EncoderMode, LabeledExample, Mention, ScoreKind, TrainConfig,
                      TypeHierarchy, evaluation, loss, training)
from hiertype.training import PreparedMention

from generators import random_model

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(path: str):
    """Look a boundary up the way ``child.Recorder.install`` does."""
    parts = path.split(".")
    owner = importlib.import_module("hiertype." + parts[0])
    for attr in parts[1:-1]:
        owner = getattr(owner, attr)
    return vars(owner)[parts[-1]] if isinstance(owner, type) else getattr(owner, parts[-1])


def test_every_boundary_resolves():
    child = load_child()
    assert set(child.PHASES) <= set(child.BOUNDARIES)
    missing = []
    for name, (path, _) in child.BOUNDARIES.items():
        try:
            resolve(path)
        except (ModuleNotFoundError, AttributeError, KeyError):
            missing.append(f"{name}: hiertype.{path}")
    assert not missing, missing


def count_calls(monkeypatch, module, name: str) -> list:
    """Replace ``module.name`` with a wrapper that records one entry per call."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_loss_encodes_through_the_training_module_global(monkeypatch):
    # the encode span is recorded by replacing training.encode_vectors_cached,
    # so loss must look the name up there, once per typing batch
    calls = count_calls(monkeypatch, training, "encode_vectors_cached")
    rng = np.random.default_rng(0)
    params = random_model(rng, 3, 3, 4, with_bilinear=False)
    batch = [PreparedMention(word_vectors=rng.normal(size=(4, 3)), span=(1, 2), gold=(0,))
             for _ in range(3)]
    cfg = TrainConfig(dim=3, filter_width=3, mention_score_kind=ScoreKind.DOT)
    value, _ = loss(batch, None, params, cfg)
    assert len(calls) == 1
    assert np.isfinite(value)


def test_evaluate_model_calls_through_the_evaluation_module_globals(monkeypatch):
    # eval-rank's traced run must reach every one of these wrapped names
    names = ("encode_mention", "rank_types", "average_precision")
    calls = {name: count_calls(monkeypatch, evaluation, name) for name in names}
    rng = np.random.default_rng(1)
    hier = TypeHierarchy([("a", "b", "child_of")], extra_types=["c"])
    emb = EmbeddingTable(["x", "y"], rng.normal(size=(2, 3)))
    count = evaluation.EVAL_BATCH + 1
    examples = [LabeledExample(mention=Mention(tokens=("x", "y", "z")[:1 + i % 3], span=(0, 0)),
                               gold_types=hier.closure(["a"]))
                for i in range(count)]
    params = random_model(rng, 3, 3, len(hier), with_bilinear=False)
    report = evaluation.evaluate_model(examples, params, emb, EncoderMode.CNN_PLUS_MENTION,
                                       ScoreKind.ORDER)
    assert report.mention_count == count
    # one encode and one rank call per EVAL_BATCH chunk, one AP per mention
    assert [len(calls[name]) for name in names] == [2, 2, count]

