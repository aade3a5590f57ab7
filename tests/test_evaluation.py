import numpy as np
import pytest

from hiertype import (
    EmbeddingTable,
    EncoderMode,
    EvalError,
    LabeledExample,
    Mention,
    ModelParams,
    ScoreKind,
    TypeHierarchy,
    average_precision,
    evaluate_model,
    evaluate_rankings,
)

import oracles


def test_worked_example():
    # gold items sit at ranks 2 and 3: AP = (1/2 + 2/3) / 2 = 7/12
    assert average_precision(["b", "a", "c"], {"a", "c"}) == pytest.approx(7 / 12, abs=1e-15)


def test_single_gold_at_rank_r():
    for r in range(1, 8):
        ranking = [f"x{i}" for i in range(10)]
        ranking[r - 1] = "g"
        assert average_precision(ranking, {"g"}) == pytest.approx(1 / r, abs=1e-15)


def test_perfect_and_worst_rankings():
    assert average_precision(["a", "b", "z"], {"a", "b"}) == 1.0
    assert average_precision(["z", "y", "a"], {"a"}) == pytest.approx(1 / 3, abs=1e-15)


def test_gold_type_of_items_is_flexible():
    assert average_precision([3, 1, 2], [1]) == 0.5


def test_error_cases():
    with pytest.raises(EvalError):
        average_precision(["a", "b"], set())
    with pytest.raises(EvalError):
        average_precision(["a", "b"], {"missing"})
    with pytest.raises(EvalError):  # duplicated gold hit
        average_precision(["a", "a", "b"], {"a"})


def test_tail_permutation_invariance():
    rng = np.random.default_rng(0)
    gold = {"g1", "g2"}
    base = ["x0", "g1", "x1", "x2", "g2", "x3", "x4"]
    want = average_precision(base, gold)
    non_gold_slots = [i for i, v in enumerate(base) if v not in gold]
    non_gold_vals = [base[i] for i in non_gold_slots]
    for _ in range(10):
        perm = rng.permutation(len(non_gold_vals))
        shuffled = list(base)
        for slot, j in zip(non_gold_slots, perm):
            shuffled[slot] = non_gold_vals[j]
        assert average_precision(shuffled, gold) == want


def test_matches_per_k_oracle_on_random_instances():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 20))
        ranking = list(rng.permutation(n))
        k = int(rng.integers(1, n + 1))
        gold = set(int(g) for g in rng.choice(n, size=k, replace=False))
        got = average_precision(ranking, gold)
        want = oracles.average_precision(ranking, gold)
        assert got == pytest.approx(want, abs=1e-13)


def test_evaluate_rankings():
    report = evaluate_rankings([["a", "b"], ["b", "a"]], [{"a"}, {"a"}])
    assert report.per_mention_ap == (1.0, 0.5)
    assert report.mean_ap == 0.75
    assert report.mention_count == 2
    assert report.summary_line() == "map=0.75"
    with pytest.raises(EvalError):
        evaluate_rankings([["a"]], [{"a"}, {"a"}])
    with pytest.raises(EvalError):
        evaluate_rankings([], [])


def test_summary_line_uses_repr():
    report = evaluate_rankings([["b", "a", "c"]], [{"a", "c"}])
    assert report.summary_line() == f"map={report.mean_ap!r}"
    assert report.mean_ap == pytest.approx(7 / 12, abs=1e-15)
    # repr means the printed value parses back to the exact float
    assert float(report.summary_line().split("=")[1]) == report.mean_ap


def test_evaluate_model_on_identity_encoder():
    # one-hot word vectors pass through w1=[I|0], w2=I untouched, and the
    # identity type matrix makes each token's own type the top score
    d = 4
    hier = TypeHierarchy.from_links([], types=[f"t{i}" for i in range(d)])
    vocab = [f"tok{i}" for i in range(d)]
    emb = EmbeddingTable(vocab, np.eye(d))
    params = ModelParams(
        cnn_w=np.zeros((3, d, d)), cnn_b=np.zeros(d),
        w1=np.hstack([np.eye(d), np.zeros((d, d))]), b1=np.zeros(d),
        w2=np.eye(d), b2=np.zeros(d), type_emb=np.eye(d),
    )
    examples = [
        LabeledExample(
            mention=Mention(tokens=(f"tok{i}",), span=(0, 0), entity_id=f"e{i}"),
            gold_types=hier.closure([f"t{i}"]))
        for i in range(d)
    ]
    report = evaluate_model(examples, params, emb, EncoderMode.MENTION_ONLY, ScoreKind.DOT)
    assert report.mean_ap == 1.0
    assert report.per_mention_ap == (1.0,) * d
    assert report.mention_count == d


def test_evaluate_model_tie_breaking_prefers_low_index():
    # zero mention vector scores every type equally, so ranking is by index
    d = 3
    hier = TypeHierarchy.from_links([], types=["t0", "t1", "t2"])
    emb = EmbeddingTable(["x"], np.zeros((1, d)))
    params = ModelParams(
        cnn_w=np.zeros((3, d, d)), cnn_b=np.zeros(d),
        w1=np.zeros((d, 2 * d)), b1=np.zeros(d),
        w2=np.zeros((d, d)), b2=np.zeros(d), type_emb=np.ones((d, d)),
    )
    ex_first = LabeledExample(
        mention=Mention(tokens=("x",), span=(0, 0)), gold_types=hier.closure(["t0"]))
    ex_last = LabeledExample(
        mention=Mention(tokens=("x",), span=(0, 0)), gold_types=hier.closure(["t2"]))
    report = evaluate_model([ex_first, ex_last], params, emb,
                            EncoderMode.MENTION_ONLY, ScoreKind.DOT)
    assert report.per_mention_ap == (1.0, pytest.approx(1 / 3))


def test_evaluate_model_rejects_empty():
    params = ModelParams(np.zeros((3, 2, 2)), np.zeros(2), np.zeros((2, 4)),
                         np.zeros(2), np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)))
    emb = EmbeddingTable(["x"], np.zeros((1, 2)))
    with pytest.raises(EvalError):
        evaluate_model([], params, emb, EncoderMode.MENTION_ONLY, ScoreKind.DOT)
