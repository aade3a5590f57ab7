import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hiertype import (
    AdamState,
    ConfigError,
    EmbeddingTable,
    EncoderMode,
    GradientError,
    LabeledExample,
    Mention,
    ModelError,
    ModelParams,
    ScoreKind,
    TrainConfig,
    TrainingError,
    TypeHierarchy,
    adam_step,
    config_from_strings,
    glorot_init,
    init_model,
    load_train_config,
    loss,
    make_checkpoint,
    prepare_typing_batch,
    sample_dropout_masks,
    structure_pool,
    train,
    write_history,
)
from hiertype import model, training
from hiertype.training import EpochMetrics, PreparedMention, _sample_structure_batch

import oracles
import synthtask
from generators import random_model, random_sentence, structure_only_loss, zero_encoder_tensors


def small_config(**kw):
    base = dict(dim=4, filter_width=3, dropout=0.0, batch_size=4,
                structure_batch_size=8, max_epochs=3, patience=2, seed=3)
    base.update(kw)
    return TrainConfig(**base)


def zero_params(d=3, n_types=4, kind=ScoreKind.DOT):
    return ModelParams(**zero_encoder_tensors(d, 3), type_emb=np.zeros((n_types, d)),
                       bilinear=np.eye(d) if kind is ScoreKind.BILINEAR else None)


def typing_only_loss(batch, params, emb, *, kind, mode, margin=1.0, masks=None):
    cfg = TrainConfig(dim=emb.dim, encoder_mode=mode, mention_score_kind=kind, margin=margin)
    return loss(prepare_typing_batch(batch, emb), None, params, cfg, masks)[0]


def toy_examples(hier, names_and_golds, n_tokens=3):
    out = []
    for i, gold in enumerate(names_and_golds):
        m = Mention(tokens=tuple(f"w{i}{j}" for j in range(n_tokens)), span=(0, 0), entity_id=f"e{i}")
        out.append(LabeledExample(mention=m, gold_types=hier.closure(gold)))
    return out


# ----------------------------------------------------------------------
# configuration


def test_config_defaults_validate():
    TrainConfig().validate()


def test_config_from_strings_parses_every_field(tmp_path):
    cfg = config_from_strings({
        "dim": "8", "filter_width": "3", "encoder_mode": "mention",
        "mention_score_kind": "order", "structure_score_kind": "none",
        "share_bilinear": "false", "margin": "0.5", "structure_weight": "0.25",
        "dropout": "0.0", "learning_rate": "0.01", "adam_beta1": "0.8",
        "adam_beta2": "0.99", "adam_eps": "1e-9", "batch_size": "4",
        "structure_batch_size": "16", "max_epochs": "7", "patience": "2",
        "seed": "42", "embeddings": str(tmp_path / "emb.txt"),
    })
    assert cfg.dim == 8 and cfg.filter_width == 3
    assert cfg.encoder_mode is EncoderMode.MENTION_ONLY
    assert cfg.mention_score_kind is ScoreKind.ORDER
    assert cfg.structure_score_kind is None
    assert cfg.effective_structure_kind() is ScoreKind.ORDER
    assert cfg.share_bilinear is False
    assert cfg.margin == 0.5 and cfg.structure_weight == 0.25
    assert cfg.learning_rate == 0.01 and cfg.adam_beta1 == 0.8
    assert cfg.max_epochs == 7 and cfg.patience == 2 and cfg.seed == 42
    assert cfg.embeddings and cfg.embeddings.endswith("emb.txt")
    cfg.validate()


def test_config_override_keeps_base_fields():
    base = config_from_strings({"dim": "8", "margin": "2.0"})
    over = config_from_strings({"margin": "3.0"}, base=base)
    assert over.dim == 8 and over.margin == 3.0
    assert base.margin == 2.0  # base untouched


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigError):
        config_from_strings({"width": "3"})
    with pytest.raises(ConfigError):
        config_from_strings({"dim": "eight"})
    with pytest.raises(ConfigError):
        config_from_strings({"share_bilinear": "maybe"})
    with pytest.raises(ConfigError):
        config_from_strings({"encoder_mode": "transformer"})


def test_validate_names_where_a_bad_value_was_set():
    cfg = training.located_config({"dim": ("c.cfg:3", "0")})
    with pytest.raises(ConfigError, match=r"^c\.cfg:3: dim must be positive, got 0$"):
        cfg.validate()
    fixed = training.located_config({"dim": ("--set 'dim=4'", "4")}, base=cfg)
    fixed.validate()
    assert fixed.where == {"dim": "--set 'dim=4'"} and cfg.where == {"dim": "c.cfg:3"}
    unlocated = config_from_strings({"dim": "0"}, base=fixed)
    with pytest.raises(ConfigError, match="^dim must be positive, got 0$"):
        unlocated.validate()
    assert unlocated == config_from_strings({"dim": "0"})  # where takes no part in equality


def test_load_train_config(tmp_path):
    p = tmp_path / "train.cfg"
    p.write_text("# comment\n\ndim = 6\nmention_score_kind=dot\nseed=9\n", encoding="utf-8")
    cfg = load_train_config(str(p))
    assert cfg.dim == 6 and cfg.mention_score_kind is ScoreKind.DOT and cfg.seed == 9
    p.write_text("dim 6\n", encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_train_config(str(p))
    assert ":1:" in str(exc.value)


def test_config_validation_catches_bad_settings():
    bad = [
        dict(dim=0), dict(filter_width=2), dict(filter_width=-3),
        dict(margin=0.0), dict(structure_weight=-1.0), dict(dropout=1.0),
        dict(dropout=-0.1), dict(learning_rate=0.0), dict(batch_size=0),
        dict(structure_batch_size=0), dict(max_epochs=0), dict(patience=0),
        dict(adam_beta1=1.0), dict(adam_beta2=-0.5),
        dict(learning_rate=math.nan), dict(learning_rate=math.inf), dict(margin=math.nan),
        dict(margin=math.inf), dict(structure_weight=math.nan), dict(structure_weight=math.inf),
        dict(adam_eps=0.0), dict(adam_eps=-1.0), dict(adam_eps=math.nan),
        dict(share_bilinear=True, mention_score_kind=ScoreKind.DOT),
        dict(share_bilinear=True, mention_score_kind=ScoreKind.BILINEAR,
             structure_score_kind=ScoreKind.ORDER),
    ]
    for kw in bad:
        with pytest.raises(ConfigError):
            TrainConfig(**kw).validate()
    TrainConfig(share_bilinear=True, mention_score_kind=ScoreKind.BILINEAR).validate()


# ----------------------------------------------------------------------
# initialization


@pytest.mark.parametrize("kw", [
    dict(mention_score_kind=ScoreKind.BILINEAR, structure_score_kind=ScoreKind.BILINEAR,
         structure_weight=0.5),
    dict(mention_score_kind=ScoreKind.DOT, structure_score_kind=ScoreKind.BILINEAR,
         structure_weight=0.5),
    dict(mention_score_kind=ScoreKind.BILINEAR, share_bilinear=True, structure_weight=0.5),
    dict(mention_score_kind=ScoreKind.ORDER),
], ids=["both_bilinear", "structure_bilinear", "shared", "order"])
def test_init_model_matches_glorot_draws_in_fixed_order(kw):
    d, w, n_types = 3, 3, 5
    cfg = small_config(dim=d, filter_width=w, **kw)
    params = init_model(n_types, cfg, np.random.default_rng(31))
    rng = np.random.default_rng(31)
    want = {
        "cnn_w": glorot_init((w, d, d), rng), "cnn_b": np.zeros(d),
        "w1": glorot_init((d, 2 * d), rng), "b1": np.zeros(d),
        "w2": glorot_init((d, d), rng), "b2": np.zeros(d),
        "type_emb": glorot_init((n_types, d), rng),
    }
    if cfg.mention_score_kind is ScoreKind.BILINEAR:
        want["bilinear"] = glorot_init((d, d), rng)
    if cfg.effective_structure_kind() is ScoreKind.BILINEAR and not cfg.share_bilinear:
        want["bilinear_structure"] = glorot_init((d, d), rng)
    got = params.tensors()
    assert list(got) == list(want)
    for name, t in want.items():
        assert np.array_equal(got[name], t), name


def test_glorot_biases_are_zero():
    assert np.array_equal(glorot_init((7,), 0), np.zeros(7))


def test_glorot_matrix_bounds_and_mean():
    rng = np.random.default_rng(0)
    w = glorot_init((40, 60), rng)
    bound = math.sqrt(6.0 / 100.0)
    assert np.abs(w).max() < bound
    assert abs(w.mean()) < 3 * bound / math.sqrt(3 * w.size)


def test_glorot_filter_fans():
    rng = np.random.default_rng(1)
    w = glorot_init((3, 4, 5), rng)
    bound = math.sqrt(6.0 / (3 * 4 + 3 * 5))
    assert w.shape == (3, 4, 5)
    assert np.abs(w).max() < bound


def test_glorot_rejects_bad_shapes():
    with pytest.raises(TrainingError):
        glorot_init((2, 2, 2, 2), 0)
    with pytest.raises(TrainingError):
        glorot_init((0, 3), 0)


def test_init_model_allocates_matrices_by_configuration():
    cfg = small_config(mention_score_kind=ScoreKind.DOT)
    p = init_model(5, cfg)
    assert p.bilinear is None and p.bilinear_structure is None

    cfg = small_config(mention_score_kind=ScoreKind.BILINEAR)
    p = init_model(5, cfg)
    assert p.bilinear is not None and p.bilinear_structure is None

    cfg = small_config(mention_score_kind=ScoreKind.BILINEAR, structure_weight=0.5)
    p = init_model(5, cfg)  # structure kind defaults to the mention kind
    assert p.bilinear is not None and p.bilinear_structure is not None

    cfg = small_config(mention_score_kind=ScoreKind.BILINEAR, structure_weight=0.5,
                       share_bilinear=True)
    p = init_model(5, cfg)
    assert p.bilinear is not None and p.bilinear_structure is None

    cfg = small_config(mention_score_kind=ScoreKind.ORDER, structure_weight=0.5,
                       structure_score_kind=ScoreKind.BILINEAR)
    p = init_model(5, cfg)
    assert p.bilinear is None and p.bilinear_structure is not None

    cfg = small_config(mention_score_kind=ScoreKind.BILINEAR, structure_weight=0.0,
                       structure_score_kind=ScoreKind.BILINEAR)
    p = init_model(5, cfg)  # no structure term, no structure matrix
    assert p.bilinear_structure is None


def test_init_model_deterministic_and_prefix_stable():
    cfg_a = small_config(mention_score_kind=ScoreKind.BILINEAR)
    pa = init_model(5, cfg_a)
    pb = init_model(5, small_config(mention_score_kind=ScoreKind.BILINEAR))
    for name, t in pa.tensors().items():
        assert np.array_equal(pb.tensors()[name], t), name
    # the shared draw order means the common tensors agree across kinds
    pc = init_model(5, small_config(mention_score_kind=ScoreKind.DOT))
    for name in ("cnn_w", "w1", "w2", "type_emb"):
        assert np.array_equal(pc.tensors()[name], pa.tensors()[name]), name
    assert np.array_equal(pa.cnn_b, np.zeros(cfg_a.dim))
    assert np.array_equal(pa.b1, np.zeros(cfg_a.dim))


def test_init_model_rejects_zero_types():
    with pytest.raises(TrainingError):
        init_model(0, small_config())


# ----------------------------------------------------------------------
# losses


def test_typing_loss_zero_params_is_n_log_two():
    d, n_types = 3, 5
    params = zero_params(d=d, n_types=n_types)
    emb = EmbeddingTable(["w00"], np.ones((1, d)))
    hier = TypeHierarchy([], extra_types=[f"t{i}" for i in range(n_types)])
    batch = toy_examples(hier, [["t0"], ["t1", "t2"]])
    got = typing_only_loss(batch, params, emb, kind=ScoreKind.DOT,
                           mode=EncoderMode.CNN_PLUS_MENTION)
    # every logit is 0: gold terms and non-gold penalties are all log 2
    assert got == pytest.approx(n_types * math.log(2.0), abs=1e-12)


def test_typing_loss_matches_oracle():
    rng = np.random.default_rng(2)
    d, n_types = 3, 6
    hier = TypeHierarchy(
        [("a", "b", "child_of"), ("c", "b", "child_of"), ("d", "a", "child_of")],
        extra_types=["e", "f"],
    )
    emb = EmbeddingTable([f"tok{i}" for i in range(8)], rng.normal(size=(8, d)))
    for kind in (ScoreKind.ORDER, ScoreKind.BILINEAR, ScoreKind.DOT):
        for mode in (EncoderMode.CNN_PLUS_MENTION, EncoderMode.MENTION_ONLY):
            params = random_model(rng, d, 3, n_types, with_bilinear=True)
            batch = []
            for gold in (["a"], ["d"], ["e", "c"]):
                n = int(rng.integers(1, 6))
                tokens = tuple(f"tok{int(rng.integers(8))}" for _ in range(n))
                t1 = int(rng.integers(n)); t2 = int(rng.integers(t1, n))
                batch.append(LabeledExample(
                    mention=Mention(tokens=tokens, span=(t1, t2)),
                    gold_types=hier.closure(gold)))
            got = typing_only_loss(batch, params, emb, kind=kind, mode=mode, margin=1.25)
            want = oracles.typing_objective(
                [(emb.vectors(ex.mention.tokens), ex.mention.span,
                  {t.index for t in ex.gold_types}) for ex in batch],
                params.type_emb, kind.value,
                bilinear=params.bilinear if kind is ScoreKind.BILINEAR else None,
                margin=1.25,
                cnn_w=params.cnn_w, cnn_b=params.cnn_b,
                w1=params.w1, b1=params.b1,
                w2=params.w2, b2=params.b2,
                use_cnn=(mode is EncoderMode.CNN_PLUS_MENTION),
            )
            assert got == pytest.approx(want, abs=1e-11 * max(1.0, abs(want)))


def test_typing_loss_with_dropout_matches_oracle():
    rng = np.random.default_rng(3)
    d = 4
    params = random_model(rng, d, 3, 4, with_bilinear=False)
    emb = EmbeddingTable(["a", "b"], rng.normal(size=(2, d)))
    hier = TypeHierarchy([], extra_types=["t0", "t1", "t2", "t3"])
    batch = toy_examples(hier, [["t0"], ["t3"]], n_tokens=2)
    masks = sample_dropout_masks(rng, len(batch), d, 0.5)
    got = typing_only_loss(batch, params, emb, kind=ScoreKind.DOT,
                           mode=EncoderMode.CNN_PLUS_MENTION, masks=masks)
    want = oracles.typing_objective(
        [(emb.vectors(ex.mention.tokens), ex.mention.span,
          {t.index for t in ex.gold_types}) for ex in batch],
        params.type_emb, "dot",
        cnn_w=params.cnn_w, cnn_b=params.cnn_b,
        w1=params.w1, b1=params.b1,
        w2=params.w2, b2=params.b2,
        use_cnn=True,
        masks=list(zip(masks.concat, masks.hidden)),
    )
    assert got == pytest.approx(want, abs=1e-11 * max(1.0, abs(want)))


def test_structure_loss_excludes_self_from_negatives():
    # four 2-d types; pair (2, {0, 1}) leaves exactly one negative: type 3
    T = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.5]])
    got = structure_only_loss([(2, (0, 1))], T, ScoreKind.DOT)
    want = (-oracles.log_sigmoid(T[2] @ T[0])
            - oracles.log_sigmoid(T[2] @ T[1])
            + oracles.neg_log_one_minus_sigmoid(T[2] @ T[3]))
    assert got == pytest.approx(want, abs=1e-12)
    # the self logit is large and positive; including it would add > 2 nats
    with_self = want + oracles.neg_log_one_minus_sigmoid(T[2] @ T[2])
    assert abs(got - with_self) > 1.0


def test_structure_loss_matches_oracle():
    rng = np.random.default_rng(4)
    T = rng.normal(size=(7, 3))
    A = rng.normal(size=(3, 3))
    batch = [(0, (1, 2)), (3, (2,)), (5, (0, 1, 2, 6))]
    for kind, mat in ((ScoreKind.ORDER, None), (ScoreKind.DOT, None), (ScoreKind.BILINEAR, A)):
        got = structure_only_loss(batch, T, kind, mat, margin=0.8)
        want = oracles.structure_objective(
            [(t, set(anc)) for t, anc in batch], T, kind.value, bilinear=mat, margin=0.8)
        assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))


def test_structure_loss_zero_for_perfect_order_embedding():
    # 1-d chain: 2 below 1 below 0, coordinates grow downward
    T = np.array([[0.0], [1.0], [2.0]])
    batch = [(1, (0,)), (2, (0, 1))]
    assert structure_only_loss(batch, T, ScoreKind.ORDER, margin=1.0) == 0.0


def test_structure_loss_errors():
    T = np.zeros((3, 2))
    with pytest.raises(TrainingError):
        structure_only_loss([], T, ScoreKind.DOT)
    with pytest.raises(TrainingError):
        structure_only_loss([(0, ())], T, ScoreKind.DOT)


def test_structure_pool_lists_types_with_ancestors():
    hier = TypeHierarchy(
        [("a", "b", "child_of"), ("b", "c", "child_of")], extra_types=["solo"])
    pool = structure_pool(hier)
    by_type = {t: anc for t, anc in pool}
    a, b, c, solo = (hier.resolve(n).index for n in ("a", "b", "c", "solo"))
    assert set(by_type) == {a, b}
    assert set(by_type[a]) == {b, c}
    assert set(by_type[b]) == {c}
    assert solo not in by_type


def test_combined_loss_is_typing_plus_weighted_structure():
    rng = np.random.default_rng(5)
    d = 3
    params = random_model(rng, d, 3, 5, with_bilinear=True, with_structure_bilinear=True)
    wv, span = random_sentence(rng, d)
    prepared = [PreparedMention(word_vectors=wv, span=span, gold=(0, 2))]
    sbatch = [(1, (0,)), (3, (0, 2))]
    cfg = small_config(dim=d, mention_score_kind=ScoreKind.BILINEAR,
                       structure_score_kind=ScoreKind.ORDER,
                       structure_weight=0.7, margin=1.1)
    got = loss(prepared, sbatch, params, cfg)[0]
    typing_only = loss(prepared, None, params, cfg)[0]
    structure_only = structure_only_loss(sbatch, params.type_emb, ScoreKind.ORDER, margin=1.1)
    assert got == pytest.approx(typing_only + 0.7 * structure_only, abs=1e-12)


def test_structure_batch_ignored_at_zero_weight():
    rng = np.random.default_rng(6)
    d = 3
    params = random_model(rng, d, 3, 4)
    wv, span = random_sentence(rng, d)
    prepared = [PreparedMention(word_vectors=wv, span=span, gold=(1,))]
    cfg = small_config(dim=d, mention_score_kind=ScoreKind.DOT, structure_weight=0.0)
    with_batch = loss(prepared, [(0, (1,))], params, cfg)[0]
    without = loss(prepared, None, params, cfg)[0]
    assert with_batch == without


# ----------------------------------------------------------------------
# gradients


def test_backward_closed_form_for_degenerate_encoder():
    rng = np.random.default_rng(7)
    d, n_types = 3, 5
    params = zero_params(d=d, n_types=n_types)
    params.b2 = rng.normal(size=d)
    params.type_emb = rng.normal(size=(n_types, d))
    golds = [(0, 2), (1,), (3, 4)]
    prepared = [
        PreparedMention(word_vectors=rng.normal(size=(4, d)), span=(1, 2), gold=g)
        for g in golds
    ]
    cfg = small_config(dim=d, mention_score_kind=ScoreKind.DOT)
    value, grads = loss(prepared, None, params, cfg, grads=True)

    b2 = params.b2
    u = params.type_emb @ b2
    s = 1.0 / (1.0 + np.exp(-u))
    G = np.zeros((len(golds), n_types))
    for i, g in enumerate(golds):
        G[i, list(g)] = 1.0
    dU = s[None, :] - G  # sigma - gold indicator, every mention encodes to b2
    m = len(golds)
    assert np.allclose(grads.b2, (dU.sum(axis=0) @ params.type_emb) / m, atol=1e-12)
    assert np.allclose(grads.type_emb, dU.sum(axis=0)[:, None] * b2[None, :] / m, atol=1e-12)
    for name in ("cnn_w", "cnn_b", "w1", "b1", "w2"):
        assert np.count_nonzero(getattr(grads, name)) == 0, name
    want_loss = (-np.log(s[None, :]) * G - np.log(1 - s)[None, :] * (1 - G)).sum() / m
    assert value == pytest.approx(want_loss, abs=1e-12)


def test_backward_zero_structure_weight_means_zero_structure_grads():
    rng = np.random.default_rng(8)
    d = 3
    params = random_model(rng, d, 3, 4, with_bilinear=True, with_structure_bilinear=True)
    wv, span = random_sentence(rng, d)
    prepared = [PreparedMention(word_vectors=wv, span=span, gold=(0,))]
    cfg = small_config(dim=d, mention_score_kind=ScoreKind.BILINEAR, structure_weight=0.0)
    loss_a, grads_a = loss(prepared, [(1, (0,))], params, cfg, grads=True)
    loss_b, grads_b = loss(prepared, None, params, cfg, grads=True)
    assert loss_a == loss_b
    assert np.count_nonzero(grads_a.bilinear_structure) == 0
    for name, g in grads_a.tensors().items():
        assert np.array_equal(g, grads_b.tensors()[name]), name


def test_backward_mention_only_means_zero_cnn_grads():
    rng = np.random.default_rng(9)
    d = 3
    params = random_model(rng, d, 3, 4, with_bilinear=False)
    params.b1 = np.full(d, 3.0)  # keep the hidden layer off the ReLU floor
    wv, span = random_sentence(rng, d)
    prepared = [PreparedMention(word_vectors=wv, span=span, gold=(2,))]
    cfg = small_config(dim=d, mention_score_kind=ScoreKind.DOT,
                       encoder_mode=EncoderMode.MENTION_ONLY)
    _, grads = loss(prepared, None, params, cfg, grads=True)
    assert np.count_nonzero(grads.cnn_w) == 0
    assert np.count_nonzero(grads.cnn_b) == 0
    assert np.count_nonzero(grads.w1) and np.count_nonzero(grads.b1)


def test_backward_structure_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    d = 3
    params = random_model(rng, d, 3, 5, with_bilinear=True, with_structure_bilinear=True)
    sbatch = [(0, (1, 2)), (3, (2,)), (4, (0, 1))]
    cfg = small_config(dim=d, mention_score_kind=ScoreKind.BILINEAR,
                       structure_score_kind=ScoreKind.BILINEAR,
                       structure_weight=1.3, margin=0.9)
    _, grads = loss(None, sbatch, params, cfg, grads=True)
    report = oracles.finite_difference_check(oracles.kinked_loss(None, sbatch, params, cfg),
                                             params.tensors(), grads.tensors())
    assert report.checked > 0
    assert report.max_rel_error < 1e-6, report.worst


def test_loss_gradients_are_views_of_one_vector():
    rng = np.random.default_rng(32)
    d = 3
    params = random_model(rng, d, 3, 5, with_bilinear=True, with_structure_bilinear=True)
    wv, span = random_sentence(rng, d)
    prepared = [PreparedMention(word_vectors=wv, span=span, gold=(2,))]
    cfg = small_config(dim=d, mention_score_kind=ScoreKind.BILINEAR,
                       structure_score_kind=ScoreKind.BILINEAR, structure_weight=0.5)
    _, grads = loss(prepared, [(0, (1, 2))], params, cfg, grads=True)
    assert isinstance(grads, ModelParams)
    assert list(grads.tensors()) == list(params.tensors())
    base = grads.flat
    assert base.base is None and base.shape == params.flat.shape
    assert not np.shares_memory(base, params.flat)
    at = base.__array_interface__["data"][0]
    for name, g in grads.tensors().items():
        assert g.base is base and g.shape == params.tensors()[name].shape, name
        assert g.__array_interface__["data"][0] == at and g.flags.c_contiguous, name
        at += g.nbytes
    assert all(np.count_nonzero(getattr(grads, n)) for n in ("w1", "type_emb", "bilinear",
                                                             "bilinear_structure"))


def test_backward_rejects_bad_batches():
    params = zero_params()
    cfg = small_config(dim=3, mention_score_kind=ScoreKind.DOT)
    with pytest.raises(TrainingError):
        loss([], None, params, cfg, grads=True)
    bad = [PreparedMention(word_vectors=np.zeros((2, 3)), span=(0, 0), gold=())]
    with pytest.raises(TrainingError):
        loss(bad, None, params, cfg, grads=True)
    oob = [PreparedMention(word_vectors=np.zeros((2, 3)), span=(0, 0), gold=(9,))]
    with pytest.raises(TrainingError):
        loss(oob, None, params, cfg, grads=True)
    good = [PreparedMention(word_vectors=np.zeros((2, 3)), span=(0, 0), gold=(0,))]
    masks = sample_dropout_masks(np.random.default_rng(0), 2, 3, 0.5)
    with pytest.raises(ModelError, match="dropout masks must be"):
        loss(good, None, params, cfg, masks=masks, grads=True)  # mask count mismatch


def test_prepare_typing_batch():
    hier = TypeHierarchy([("a", "b", "child_of")])
    emb = EmbeddingTable(["x"], np.ones((1, 2)))
    examples = toy_examples(hier, [["a"]], n_tokens=2)
    prepared = prepare_typing_batch(examples, emb)
    assert prepared[0].gold == tuple(t.index for t in examples[0].gold_types)
    assert prepared[0].word_vectors.shape == (2, 2)
    with pytest.raises(TrainingError):
        prepare_typing_batch([], emb)


# ----------------------------------------------------------------------
# finite differences


def quadratic_loss(tensors):
    total = sum(float(np.square(v).sum()) for v in tensors.values())
    return total, b"const"


def test_fd_check_on_smooth_quadratic():
    rng = np.random.default_rng(11)
    params = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4)}
    analytic = {k: 2.0 * v for k, v in params.items()}
    report = oracles.finite_difference_check(quadratic_loss, params, analytic)
    assert report.checked == 10 and report.skipped == 0
    assert report.max_rel_error < 1e-9


def test_fd_check_reports_wrong_gradients():
    params = {"a": np.array([1.0, 2.0])}
    analytic = {"a": np.array([2.0, 7.0])}  # second coordinate is wrong
    report = oracles.finite_difference_check(quadratic_loss, params, analytic)
    assert report.max_rel_error > 0.4
    assert report.worst is not None and report.worst[1] == 1


def test_fd_check_skips_pattern_flips():
    # |x| has a kink at 0; the sign bit is the activation pattern
    def abs_loss(tensors):
        x = tensors["x"]
        return float(np.abs(x).sum()), (x > 0).tobytes()

    params = {"x": np.array([0.5, 1e-7])}  # second coord flips sign under eps
    analytic = {"x": np.array([1.0, 1.0])}
    report = oracles.finite_difference_check(abs_loss, params, analytic, epsilon=1e-5)
    assert report.checked == 1 and report.skipped == 1
    assert report.max_rel_error < 1e-9


def test_fd_check_epsilon_validation():
    params = {"a": np.zeros(1)}
    for bad in (1e-8, 1e-2, 0.0):
        with pytest.raises(TrainingError):
            oracles.finite_difference_check(quadratic_loss, params, params, epsilon=bad)


def test_fd_check_encoder_kink_at_zero_bias():
    # zero inputs put every pre-activation exactly at the ReLU kink, so
    # perturbing either bias flips the activation pattern and gets skipped
    d = 2
    params = zero_params(d=d, n_types=2)
    prepared = [PreparedMention(word_vectors=np.zeros((2, d)), span=(0, 1), gold=(0,))]
    cfg = small_config(dim=d, mention_score_kind=ScoreKind.DOT)
    _, grads = loss(prepared, None, params, cfg, grads=True)
    tensors = params.tensors()
    report = oracles.finite_difference_check(oracles.kinked_loss(prepared, None, params, cfg),
                                             tensors, grads.tensors())
    total = sum(t.size for t in tensors.values())
    assert report.skipped == 2 * d  # every b1 and cnn_b coordinate
    assert report.checked == total - 2 * d
    assert report.max_rel_error < 1e-9


def test_fd_check_skips_the_order_kinks():
    # d = 1, structure only, x = type 0 at 0.0: the negative type 1 at 1.0
    # sits on the hinge (E == margin) and the negative type 2 at 0.0 on the
    # rectifier (y == x), so moving rows 0, 1 or 2 crosses a kink; row 3,
    # the ancestor, is smooth
    d = 1
    params = ModelParams(**zero_encoder_tensors(d, 3),
                         type_emb=np.array([[0.0], [1.0], [0.0], [3.0]]))
    sbatch = [(0, (3,))]
    cfg = small_config(dim=d, mention_score_kind=ScoreKind.ORDER, structure_weight=1.0,
                       margin=1.0)
    _, grads = loss(None, sbatch, params, cfg, grads=True)
    assert grads.type_emb[3, 0] == 6.0  # d(y - x)^2 / dy at y - x = 3
    tensors = params.tensors()
    report = oracles.finite_difference_check(oracles.kinked_loss(None, sbatch, params, cfg),
                                             tensors, grads.tensors())
    assert report.skipped == 3
    assert report.checked == sum(t.size for t in tensors.values()) - 3
    assert report.max_rel_error < 1e-4, report.worst
    # unguarded, the hinge kink reads as a wrong gradient
    unguarded = oracles.finite_difference_check(
        lambda _tensors: (loss(None, sbatch, params, cfg)[0], b""), tensors, grads.tensors())
    assert unguarded.skipped == 0 and unguarded.max_rel_error > 0.4


def _cnn_batch(rng, d, lengths, n_types):
    """Mentions with random word vectors, spans and one gold type each."""
    typing = []
    for i, n in enumerate(lengths):
        t1 = int(rng.integers(n))
        typing.append(PreparedMention(word_vectors=rng.normal(scale=0.8, size=(n, d)),
                                      span=(t1, int(rng.integers(t1, n))), gold=(i % n_types,)))
    return typing


def test_fd_check_ragged_batch_with_dropout():
    # one batched encoder call covers sentences shorter and longer than the
    # filter, so the max-pool gradient scatter and the stacked dropout masks
    # both see mentions with different window counts
    rng = np.random.default_rng(12)
    d, w, n_types = 4, 5, 6
    prepared = _cnn_batch(rng, d, (1, 3, 4, 6, 9, 14), n_types)
    masks = sample_dropout_masks(rng, len(prepared), d, 0.3)
    assert 0.0 in masks.concat or 0.0 in masks.hidden
    for kind in (ScoreKind.ORDER, ScoreKind.BILINEAR, ScoreKind.DOT):
        params = random_model(rng, d, w, n_types, with_bilinear=kind is ScoreKind.BILINEAR)
        cfg = small_config(dim=d, filter_width=w, mention_score_kind=kind)
        _, grads = loss(prepared, None, params, cfg, masks, grads=True)
        report = oracles.finite_difference_check(
            oracles.kinked_loss(prepared, None, params, cfg, masks), params.tensors(), grads.tensors())
        assert np.count_nonzero(grads.cnn_w) > 0
        assert report.checked > 0.9 * sum(t.size for t in params.tensors().values())
        assert report.max_rel_error < 1e-4, (kind, report.worst)


# ----------------------------------------------------------------------
# the membership grid: the tiled, laned order kernel and the logit grid


def _order_case(rng, B, N, d=4):
    x, y = rng.normal(scale=0.6, size=(B, d)), rng.normal(scale=0.6, size=(N, d))
    pos = rng.random((B, N)) < 0.25
    neg = ~pos & (rng.random((B, N)) < 0.8)
    return x, y, pos, neg


def _one_walk(monkeypatch, B, N):
    """Set the kernel to one chunk, one tile and one lane."""
    monkeypatch.setattr(model, "ORDER_CHUNK", max(N, 1))
    monkeypatch.setattr(model, "ORDER_TILE", max(B, 1))
    monkeypatch.setattr(model, "LANES", 1)


def test_order_lanes_are_contiguous_runs_of_whole_chunks(monkeypatch):
    monkeypatch.setattr(model, "ORDER_CHUNK", 32)
    monkeypatch.setattr(model, "LANES", 2)
    for N, bounds in ((0, [(0, 0)]), (5, [(0, 5)]), (32, [(0, 32)]), (33, [(0, 32), (32, 33)]),
                      (97, [(0, 64), (64, 97)]), (1941, [(0, 960), (960, 1941)])):
        assert model._lane_cuts(N, model.ORDER_CHUNK) == bounds, N
    monkeypatch.setattr(model, "ORDER_CHUNK", 5)
    assert model._lane_cuts(12, model.ORDER_CHUNK) == [(0, 5), (5, 12)]


def test_order_grid_chunks_match_one_chunk(monkeypatch):
    # 12 types in chunks of 5, 5 and 2 over lanes [0, 5) and [5, 12), and 7
    # rows in tiles of 3, 3 and 1, on two workers
    rng = np.random.default_rng(40)
    x, y, pos, neg = _order_case(rng, 7, 12)
    monkeypatch.setattr(model, "ORDER_CHUNK", 5)
    monkeypatch.setattr(model, "ORDER_TILE", 3)
    monkeypatch.setattr(model, "LANES", 2)
    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(model, "LANE_MIN_WORK", 0)
    split_loss, split_dx, split_dy, _ = model.membership_grid(
        ScoreKind.ORDER, x, y, None, pos, neg, 1.0)
    split_scores = model.score_all_types(ScoreKind.ORDER, x, y)
    _one_walk(monkeypatch, 7, 12)
    whole_loss, whole_dx, whole_dy, _ = model.membership_grid(
        ScoreKind.ORDER, x, y, None, pos, neg, 1.0)
    assert split_loss == whole_loss
    assert np.allclose(split_dy, whole_dy, rtol=0.0, atol=1e-12)
    assert np.allclose(split_dx, whole_dx, rtol=0.0, atol=1e-12)
    assert np.array_equal(split_scores, model.score_all_types(ScoreKind.ORDER, x, y))


@pytest.mark.parametrize("B", [1, 7, 8, 9, 33])
@pytest.mark.parametrize("N", [5, 32, 33, 97])
def test_order_grid_tiles_and_lanes_match_one_walk(monkeypatch, B, N):
    # the module's ORDER_CHUNK, ORDER_TILE and LANES against one
    # chunk, one tile and one lane; N = 97 splits into lanes of 64 and 33
    rng = np.random.default_rng(1000 * B + N)
    x, y, pos, neg = _order_case(rng, B, N)
    tiled = model.order_grid(x, y, pos, neg, 1.0)
    tiled_fwd = model.order_grid(x, y)
    tiled_loss = model.membership_grid(ScoreKind.ORDER, x, y, None, pos, neg, 1.0)[0]
    tiled_scores = model.score_all_types(ScoreKind.ORDER, x, y)
    _one_walk(monkeypatch, B, N)
    whole = model.order_grid(x, y, pos, neg, 1.0)
    whole_loss = model.membership_grid(ScoreKind.ORDER, x, y, None, pos, neg, 1.0)[0]
    assert np.array_equal(tiled[0], whole[0])
    assert np.array_equal(tiled_fwd[0], whole[0]) and tiled_fwd[1:] == (None, None)
    assert np.array_equal(tiled_scores, model.score_all_types(ScoreKind.ORDER, x, y))
    assert np.allclose(tiled[1], whole[1], rtol=0.0, atol=1e-12)
    assert np.allclose(tiled[2], whole[2], rtol=0.0, atol=1e-12)
    assert tiled_loss == whole_loss


def test_order_grid_matches_the_pairwise_gradient_oracle():
    rng = np.random.default_rng(43)
    x, y, pos, neg = _order_case(rng, 9, 33)
    margin = 1.0
    _, d_x, d_y = model.order_grid(x, y, pos, neg, margin)
    want_x, want_y = np.zeros_like(x), np.zeros_like(y)
    for b in range(x.shape[0]):
        for n in range(y.shape[0]):
            r = np.maximum(y[n] - x[b], 0.0)
            dl_de = float(pos[b, n]) - float(neg[b, n] and r @ r < margin)
            want_x[b] -= 2.0 * dl_de * r
            want_y[n] += 2.0 * dl_de * r
    assert np.allclose(d_x, want_x, rtol=0.0, atol=1e-12)
    assert np.allclose(d_y, want_y, rtol=0.0, atol=1e-12)


def test_order_grid_bits_do_not_depend_on_the_worker_count(monkeypatch):
    rng = np.random.default_rng(44)
    x, y, pos, neg = _order_case(rng, 33, 97, d=6)
    runs = {}
    interval = sys.getswitchinterval()
    try:
        # more workers than lanes or cores, with frequent thread switches
        sys.setswitchinterval(1e-6)
        for lanes, workers in ((2, 1), (2, 2), (4, 1), (4, 4)):
            monkeypatch.setattr(model, "ORDER_CHUNK", 8)
            monkeypatch.setattr(model, "LANES", lanes)
            monkeypatch.setattr(model, "_usable_cpus", lambda: workers)
            monkeypatch.setattr(model, "LANE_MIN_WORK", 0)
            energy, d_x, d_y = model.order_grid(x, y, pos, neg, 1.0)
            loss_sum, grid_d_x, grid_d_y, _ = model.membership_grid(
                ScoreKind.ORDER, x, y, None, pos, neg, 1.0)
            runs[lanes, workers] = (energy, d_x, d_y, loss_sum, grid_d_x, grid_d_y)
    finally:
        sys.setswitchinterval(interval)
    for lanes in (2, 4):
        serial, threaded = runs[lanes, 1], runs[lanes, lanes]
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)
    assert np.array_equal(runs[2, 1][0], runs[4, 1][0])  # energies never depend on lanes


def test_fd_check_multi_chunk_order_grid(monkeypatch):
    # 12 types in chunks of 5, 5 and 2, split into lanes [0, 5) and [5, 12);
    # x rows in tiles of 2, so d_x sums over both lanes
    monkeypatch.setattr(model, "ORDER_CHUNK", 5)
    monkeypatch.setattr(model, "ORDER_TILE", 2)
    monkeypatch.setattr(model, "LANES", 2)
    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(model, "LANE_MIN_WORK", 0)
    rng = np.random.default_rng(41)
    d, n_types = 4, 12
    params = random_model(rng, d, 3, n_types, with_bilinear=False)
    typing = []
    for i in range(5):
        wv, span = random_sentence(rng, d)
        typing.append(PreparedMention(word_vectors=wv, span=span, gold=(i, 11 - i)))
    sbatch = [(0, (1, 6)), (5, (11,)), (11, (2, 7, 10)), (8, (9,))]
    for typing_batch, structure_batch, weight in ((typing, None, 0.0), (None, sbatch, 1.0)):
        cfg = small_config(dim=d, mention_score_kind=ScoreKind.ORDER,
                           structure_score_kind=ScoreKind.ORDER, structure_weight=weight)
        _, grads = loss(typing_batch, structure_batch, params, cfg, grads=True)
        report = oracles.finite_difference_check(
            oracles.kinked_loss(typing_batch, structure_batch, params, cfg), params.tensors(),
            grads.tensors())
        live = grads.type_emb.size + (grads.w1.size if typing_batch else 0)
        assert report.checked > 0.5 * live
        assert report.max_rel_error < 1e-4, report.worst


def test_logit_grid_gradients_match_scalar_oracle():
    rng = np.random.default_rng(42)
    x, y = rng.normal(scale=0.6, size=(5, 4)), rng.normal(scale=0.6, size=(7, 4))
    A = rng.normal(scale=0.6, size=(4, 4))
    pos = rng.random((5, 7)) < 0.3
    neg = ~pos & (rng.random((5, 7)) < 0.8)
    pos[1, 6], neg[1, 6] = False, True
    for kind, mat in ((ScoreKind.BILINEAR, A), (ScoreKind.DOT, None)):
        rows = y.copy()
        v = x[1] @ mat if mat is not None else x[1]
        rows[6] = 40.0 * v / (v @ v)  # logit 40: the capped negative branch
        _, grid_d_x, grid_d_y, grid_d_a = model.membership_grid(kind, x, rows, mat, pos, neg, 1.0)
        assert oracles.capped_negatives(x, rows, mat, neg)[1, 6]
        d_x, d_y, d_a = oracles.logit_grid_gradients(x, rows, pos, neg, mat)
        assert np.allclose(grid_d_x, d_x, rtol=0.0, atol=1e-12), kind
        assert np.allclose(grid_d_y, d_y, rtol=0.0, atol=1e-12), kind
        if mat is None:
            assert grid_d_a is None
        else:
            assert np.allclose(grid_d_a, d_a, rtol=0.0, atol=1e-12)


# ----------------------------------------------------------------------
# the lane pool: the CNN GEMMs, and lanes inside lanes


def test_lane_cuts_of_single_items(monkeypatch):
    monkeypatch.setattr(model, "LANES", 2)
    for n, bounds in ((0, [(0, 0)]), (1, [(0, 1)]), (2, [(0, 1), (1, 2)]), (5, [(0, 2), (2, 5)])):
        assert model._lane_cuts(n) == bounds, n
    monkeypatch.setattr(model, "LANES", 4)
    assert model._lane_cuts(10) == [(0, 2), (2, 5), (5, 7), (7, 10)]
    assert model._lane_cuts(3) == [(0, 1), (1, 2), (2, 3)]


def test_cnn_loss_bits_do_not_depend_on_the_worker_count(monkeypatch):
    # 5 mentions give 36 window rows and w*d = 18 filter rows to cut
    rng = np.random.default_rng(45)
    d, w, n_types = 6, 3, 9
    params = random_model(rng, d, w, n_types, with_bilinear=True)
    typing = _cnn_batch(rng, d, (1, 4, 7, 12, 20), n_types)
    masks = sample_dropout_masks(rng, len(typing), d, 0.3)
    cfg = small_config(dim=d, filter_width=w, mention_score_kind=ScoreKind.BILINEAR)
    monkeypatch.setattr(model, "LANE_MIN_WORK", 0)
    runs = {}
    interval = sys.getswitchinterval()
    try:
        # more workers than cores, with frequent thread switches
        sys.setswitchinterval(1e-6)
        for lanes, workers in ((2, 1), (2, 2), (4, 1), (4, 4)):
            monkeypatch.setattr(model, "LANES", lanes)
            monkeypatch.setattr(model, "_usable_cpus", lambda: workers)
            value, grads = loss(typing, None, params, cfg, masks, grads=True)
            runs[lanes, workers] = value, grads.flat
    finally:
        sys.setswitchinterval(interval)
    for lanes in (2, 4):
        (serial_loss, serial_grads), (lane_loss, lane_grads) = runs[lanes, 1], runs[lanes, lanes]
        assert serial_loss == lane_loss
        assert np.array_equal(serial_grads, lane_grads)
        assert np.count_nonzero(lane_grads[:params.cnn_w.size]) > 0


def test_fd_check_cnn_rows_split_across_two_lanes(monkeypatch):
    monkeypatch.setattr(model, "LANES", 2)
    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(model, "LANE_MIN_WORK", 0)
    rng = np.random.default_rng(46)
    d, w, n_types = 4, 3, 6
    typing = _cnn_batch(rng, d, (2, 5, 9, 3), n_types)
    masks = sample_dropout_masks(rng, len(typing), d, 0.3)
    params = random_model(rng, d, w, n_types, with_bilinear=True)
    cfg = small_config(dim=d, filter_width=w, mention_score_kind=ScoreKind.BILINEAR)
    _, grads = loss(typing, None, params, cfg, masks, grads=True)
    report = oracles.finite_difference_check(
        oracles.kinked_loss(typing, None, params, cfg, masks), params.tensors(), grads.tensors())
    assert np.count_nonzero(grads.cnn_w) > 0
    assert report.checked > 0.9 * sum(t.size for t in params.tensors().values())
    assert report.max_rel_error < 1e-4, report.worst


def test_a_lane_that_runs_lanes_does_not_wait_on_its_own_pool(tmp_path):
    # on two workers both pool threads run outer lanes, so an inner call
    # that queued on the pool would wait forever; a child process keeps a
    # deadlock from hanging this one
    script = tmp_path / "nested.py"
    script.write_text(
        "from hiertype import model\n"
        "model._usable_cpus = lambda: 2\n"
        "seen = []\n"
        "def outer(k):\n"
        "    model._run_lanes(lambda j: seen.append((k, j)), 2, model.LANE_MIN_WORK)\n"
        "model._run_lanes(outer, 2, model.LANE_MIN_WORK)\n"
        "print(sorted(seen))\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(model.__file__).parents[1]))
    try:
        done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                              text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("a lane that runs lanes never finished")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[(0, 0), (0, 1), (1, 0), (1, 1)]"


# ----------------------------------------------------------------------
# Adam


def _gradient(params, values):
    """A gradient for ``params``: a model with its layout over ``values``."""
    return params.over(np.broadcast_to(values, params.flat.shape).astype(np.float64))


def test_adam_zero_gradient_is_a_no_op():
    params = random_model(np.random.default_rng(14), 2, 3, 3)
    before = params.flat.copy()
    state = AdamState.for_params(params)
    adam_step(params, _gradient(params, 0.0), state, lr=0.5)
    assert np.array_equal(params.flat, before)
    assert state.step == 1


def test_adam_first_step_magnitude_is_learning_rate():
    params = zero_params()
    state = AdamState.for_params(params)
    adam_step(params, _gradient(params, 3.0), state, lr=0.1)
    # bias correction makes the first update lr * g / (|g| + eps)
    assert np.allclose(params.flat, -0.1, rtol=0.0, atol=1e-8)


def test_adam_rejects_non_finite_gradients():
    params = zero_params()
    state = AdamState.for_params(params)
    grads = _gradient(params, 1.0)
    for bad in (np.nan, np.inf, -np.inf):
        grads.w2[1, 0] = bad
        with pytest.raises(GradientError, match="non-finite gradient") as exc:
            adam_step(params, grads, state, lr=0.1)
        assert "'w2'" in str(exc.value)


@pytest.mark.parametrize("bad", [1.35e154, -1e200, 1e308])
def test_adam_rejects_a_gradient_whose_square_overflows(bad):
    # every value is finite, but g * g would be inf in v
    params = zero_params()
    state = AdamState.for_params(params)
    grads = _gradient(params, 1.0)
    grads.type_emb[-1, -1] = bad
    with pytest.raises(GradientError, match="too large to square for 'type_emb' at step 1"):
        adam_step(params, grads, state, lr=0.1)
    grads.type_emb[-1, -1] = math.copysign(math.sqrt(sys.float_info.max), bad)  # the largest allowed
    adam_step(params, grads, state, lr=0.1)
    assert np.isfinite(state.v).all() and np.isfinite(params.flat).all()


def test_adam_updates_model_views_in_place():
    rng = np.random.default_rng(12)
    params = random_model(rng, 2, 3, 3, with_bilinear=False)
    state = AdamState.for_params(params)
    before = params.type_emb.copy()
    adam_step(params, _gradient(params, 1.0), state, lr=0.05)
    assert not np.array_equal(params.type_emb, before)  # the tensors are live views of flat


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e2])
def test_adam_matches_the_scalar_loop_bit_for_bit_over_30_steps(scale):
    rng = np.random.default_rng(31)
    params = random_model(rng, 3, 3, 4, with_bilinear=False)
    state = AdamState.for_params(params)
    p = params.flat.tolist()
    m, v = [0.0] * len(p), [0.0] * len(p)
    for t in range(1, 31):
        grads = _gradient(params, scale * rng.normal(size=params.flat.shape))
        adam_step(params, grads, state, lr=0.01)
        oracles.adam_scalar(p, grads.flat.tolist(), m, v, t, lr=0.01)
        assert np.array_equal(params.flat.view(np.int64), np.array(p).view(np.int64)), (scale, t)


@pytest.mark.parametrize("lanes", [1, 2, 4])
@pytest.mark.parametrize("block", [7, None])
def test_adam_matches_whole_tensor_adam_bit_for_bit(monkeypatch, lanes, block):
    # vector sizes that divide by neither the lane count nor the block
    if block is None:
        block, shape = training.ADAM_BLOCK, (21, 5, 3170)  # 70,161 = 2 * 32,768 + 4,625
    else:
        monkeypatch.setattr(training, "ADAM_BLOCK", block)
        shape = (3, 3, 4)  # 75 = 10 * 7 + 5
    monkeypatch.setattr(model, "LANES", lanes)
    monkeypatch.setattr(model, "_usable_cpus", lambda: lanes)
    monkeypatch.setattr(model, "LANE_MIN_WORK", 0)
    rng = np.random.default_rng(33)
    params = random_model(rng, *shape, with_bilinear=False)
    n = params.flat.size
    assert n % block and (lanes == 1 or n % lanes)
    want = params.copy()
    state = AdamState.for_params(params)
    m, v = np.zeros(n), np.zeros(n)
    p_s, m_s, v_s = params.flat.tolist(), [0.0] * n, [0.0] * n
    for t in range(1, 6):
        grads = _gradient(params, rng.normal(scale=10.0 ** (t - 3), size=n))
        adam_step(params, grads, state, lr=0.01)
        oracles.adam_whole_tensors(want.tensors(), grads.tensors(), want.over(m).tensors(),
                                   want.over(v).tensors(), t, lr=0.01)
        oracles.adam_scalar(p_s, grads.flat.tolist(), m_s, v_s, t, lr=0.01)
        for got, whole, one in zip((params.flat, state.m, state.v), (want.flat, m, v), (p_s, m_s, v_s)):
            assert np.array_equal(got.view(np.int64), whole.view(np.int64)), t
            assert np.array_equal(got.view(np.int64), np.array(one).view(np.int64)), t


def test_adam_checks_every_gradient_before_any_tensor_moves():
    params = random_model(np.random.default_rng(15), 2, 3, 3)
    before = params.flat.copy()
    state = AdamState.for_params(params)
    grads = _gradient(params, 1.0)
    grads.type_emb[-1, -1] = np.nan
    with pytest.raises(GradientError, match="'type_emb' at step 1"):
        adam_step(params, grads, state, lr=0.1)
    assert np.array_equal(params.flat, before)
    assert not state.m.any()


@pytest.mark.parametrize("bad", [np.nan, 1e200])
def test_adam_bad_gradient_moves_no_element(bad):
    rng = np.random.default_rng(17)
    params = random_model(rng, 3, 3, 4, with_bilinear=True)
    state = AdamState.for_params(params)
    for _ in range(2):
        adam_step(params, _gradient(params, rng.normal(size=params.flat.size)), state, lr=0.1)
    before = [a.copy() for a in (params.flat, state.m, state.v)]
    grads = _gradient(params, rng.normal(size=params.flat.size))
    grads.cnn_b[1] = bad
    with pytest.raises(GradientError, match="'cnn_b' at step 3"):
        adam_step(params, grads, state, lr=0.1)
    for got, was in zip((params.flat, state.m, state.v), before):
        assert np.array_equal(got.view(np.int64), was.view(np.int64))
    assert state.step == 2


def test_adam_refuses_a_layout_that_differs_from_the_parameters():
    rng = np.random.default_rng(18)
    params = random_model(rng, 2, 3, 3, with_bilinear=False)
    # 36 values each, in other tensors
    same_size = random_model(rng, 2, 3, 1, with_bilinear=True)
    assert same_size.flat.shape == params.flat.shape
    state = AdamState.for_params(params)
    for grads in (same_size, random_model(rng, 2, 3, 4, with_bilinear=False)):
        with pytest.raises(TrainingError, match="laid out like the parameters"):
            adam_step(params, grads, state, lr=0.1)
    grads = _gradient(params, 1.0)
    for moments in (AdamState.for_params(random_model(rng, 2, 3, 4)),
                    AdamState(step=0, m=np.zeros(36), v=np.zeros(35))):
        with pytest.raises(TrainingError, match="laid out like the parameters"):
            adam_step(params, grads, moments, lr=0.1)
    assert state.step == 0 and not state.m.any()
    adam_step(params, grads, state, lr=0.1)
    assert state.step == 1


def test_sample_structure_batch():
    rng = np.random.default_rng(13)
    pool = [(i, (0,)) for i in range(1, 6)]
    assert _sample_structure_batch(pool, 10, rng) == pool
    got = _sample_structure_batch(pool, 3, rng)
    assert len(got) == 3 and len(set(got)) == 3
    assert all(p in pool for p in got)


# ----------------------------------------------------------------------
# the epoch loop


def micro_task(seed=0):
    rng = np.random.default_rng(seed)
    hier = TypeHierarchy([("cat", "animal", "child_of"), ("car", "thing", "child_of")])
    d = 4
    vocab = ["meow", "vroom", "the", "a"]
    emb = EmbeddingTable(vocab, rng.normal(size=(len(vocab), d)))
    examples = []
    for i in range(12):
        noun = "meow" if i % 2 == 0 else "vroom"
        gold = ["cat"] if i % 2 == 0 else ["car"]
        filler = vocab[2 + (i % 2)]
        examples.append(LabeledExample(
            mention=Mention(tokens=(filler, noun, filler), span=(1, 1), entity_id=f"e{i}"),
            gold_types=hier.closure(gold)))
    return hier, emb, examples


def test_train_learns_micro_task_and_improves_loss():
    hier, emb, examples = micro_task()
    cfg = small_config(dim=4, mention_score_kind=ScoreKind.DOT, learning_rate=0.005,
                       max_epochs=30, patience=30, batch_size=4, seed=1)
    result = train(examples, examples, hier, emb, cfg)
    assert result.history[-1].train_loss < result.history[0].train_loss
    assert result.best_dev_map > 0.9
    assert result.best_epoch >= 1
    assert result.params.n_types == len(hier)


def test_train_early_stopping_on_flat_dev():
    # single-type hierarchy: dev MAP is 1.0 from epoch one, so the stop
    # fires exactly when epoch - best_epoch reaches the patience
    hier = TypeHierarchy([], extra_types=["only"])
    emb = EmbeddingTable(["x"], np.ones((1, 3)))
    examples = [LabeledExample(
        mention=Mention(tokens=("x", "x"), span=(0, 0), entity_id=f"e{i}"),
        gold_types=hier.closure(["only"])) for i in range(4)]
    for patience in (1, 3):
        cfg = small_config(dim=3, mention_score_kind=ScoreKind.DOT, max_epochs=50,
                           patience=patience, batch_size=2)
        result = train(examples, examples, hier, emb, cfg)
        assert result.best_epoch == 1
        assert result.best_dev_map == 1.0
        assert len(result.history) == 1 + patience


def test_train_runs_all_epochs_without_stop():
    hier, emb, examples = micro_task()
    cfg = small_config(dim=4, mention_score_kind=ScoreKind.DOT, max_epochs=3,
                       patience=50, batch_size=4)
    result = train(examples, examples, hier, emb, cfg)
    assert [m.epoch for m in result.history] == [1, 2, 3]


def test_train_returns_best_snapshot_not_last():
    hier, emb, examples = micro_task()
    cfg = small_config(dim=4, mention_score_kind=ScoreKind.DOT, learning_rate=0.05,
                       max_epochs=12, patience=12, batch_size=4, seed=1)
    result = train(examples, examples, hier, emb, cfg)
    best = max(result.history, key=lambda m: m.dev_map)
    assert result.best_dev_map == best.dev_map
    assert result.best_epoch <= result.history[-1].epoch


def test_train_deterministic_across_runs():
    hier, emb, examples = micro_task()
    cfg = small_config(dim=4, mention_score_kind=ScoreKind.BILINEAR, dropout=0.3,
                       structure_weight=0.5, max_epochs=3, patience=10, batch_size=4)
    a = train(examples, examples, hier, emb, cfg)
    b = train(examples, examples, hier, emb, cfg)
    assert a.history == b.history
    for name, t in a.params.tensors().items():
        assert np.array_equal(b.params.tensors()[name], t), name


def test_train_seed_changes_the_run():
    hier, emb, examples = micro_task()
    cfg_a = small_config(dim=4, mention_score_kind=ScoreKind.DOT, max_epochs=2, patience=10)
    cfg_b = small_config(dim=4, mention_score_kind=ScoreKind.DOT, max_epochs=2, patience=10, seed=99)
    a = train(examples, examples, hier, emb, cfg_a)
    b = train(examples, examples, hier, emb, cfg_b)
    assert not np.array_equal(a.params.type_emb, b.params.type_emb)


# the five configurations whose checkpoint and history bytes are pinned
# across refactors, plus one whose dev MAP ties from epoch to epoch
TRAJECTORY_CONFIGS = {
    "bilinear_cnn": dict(mention_score_kind=ScoreKind.BILINEAR, dropout=0.5),
    "order_structure": dict(mention_score_kind=ScoreKind.ORDER, structure_weight=0.5,
                            structure_batch_size=8, dropout=0.3),
    "dot_mention": dict(mention_score_kind=ScoreKind.DOT, encoder_mode=EncoderMode.MENTION_ONLY),
    "bilinear_shared": dict(mention_score_kind=ScoreKind.BILINEAR, structure_weight=0.5,
                            structure_batch_size=8, dropout=0.5, share_bilinear=True),
    "bilinear_separate": dict(mention_score_kind=ScoreKind.BILINEAR, structure_weight=0.5,
                              structure_batch_size=8, dropout=0.5),
    "flat_dev": dict(mention_score_kind=ScoreKind.DOT, learning_rate=1e-12, patience=1),
}


@pytest.mark.parametrize("name", list(TRAJECTORY_CONFIGS))
def test_train_follows_the_step_protocol_bit_for_bit(monkeypatch, name):
    hierarchy, emb, train_examples, dev_examples = synthtask.build_in_memory(
        seed=13, count=120, train_count=96, dim=8)
    cfg = TrainConfig(**{**dict(dim=8, filter_width=3, batch_size=16, max_epochs=3, patience=3,
                                seed=13, learning_rate=0.01, dropout=0.0),
                         **TRAJECTORY_CONFIGS[name]})
    steps, history, best_epoch, best = oracles.train_trajectory(
        train_examples, dev_examples, hierarchy, emb, cfg)

    made, seen = [], []
    real_init, real_adam = training.init_model, training.adam_step

    def init_spy(*args, **kwargs):
        made.append(real_init(*args, **kwargs))
        return made[-1]

    def adam_spy(*args, **kwargs):
        real_adam(*args, **kwargs)
        seen.append(made[0].flat.copy())

    monkeypatch.setattr(training, "init_model", init_spy)
    monkeypatch.setattr(training, "adam_step", adam_spy)
    result = train(train_examples, dev_examples, hierarchy, emb, cfg)

    def bits(values):
        return np.asarray(values, dtype=np.float64).view(np.int64)

    assert len(seen) == len(steps)
    for t, (got, want) in enumerate(zip(seen, steps), start=1):
        assert np.array_equal(bits(got), bits(want)), f"parameters differ after step {t}"
    assert [(h.epoch, h.train_loss, h.dev_map) for h in result.history] == history
    assert result.best_epoch == best_epoch
    assert np.array_equal(bits(result.params.flat), bits(best))


def test_train_structure_weight_requires_ancestors():
    hier = TypeHierarchy([], extra_types=["a", "b"])
    emb = EmbeddingTable(["x"], np.ones((1, 3)))
    examples = [LabeledExample(
        mention=Mention(tokens=("x",), span=(0, 0)), gold_types=hier.closure(["a"]))]
    cfg = small_config(dim=3, mention_score_kind=ScoreKind.DOT, structure_weight=0.5)
    with pytest.raises(TrainingError):
        train(examples, examples, hier, emb, cfg)


def test_train_input_validation():
    hier, emb, examples = micro_task()
    cfg = small_config(dim=4, mention_score_kind=ScoreKind.DOT)
    with pytest.raises(TrainingError):
        train([], examples, hier, emb, cfg)
    with pytest.raises(TrainingError):
        train(examples, [], hier, emb, cfg)
    with pytest.raises(ConfigError):
        train(examples, examples, hier, emb, small_config(dim=5, mention_score_kind=ScoreKind.DOT))


def test_write_history_rows_roundtrip(tmp_path):
    history = [EpochMetrics(epoch=1, train_loss=1.5, dev_map=1 / 3),
               EpochMetrics(epoch=2, train_loss=0.1234567890123456789, dev_map=0.25)]
    p = tmp_path / "history.tsv"
    write_history(str(p), history)
    lines = p.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    for line, m in zip(lines, history):
        epoch, loss, dev = line.split("\t")
        assert int(epoch) == m.epoch
        assert float(loss) == m.train_loss  # repr round-trips exactly
        assert float(dev) == m.dev_map


def test_make_checkpoint_records_structure_kind_only_when_used():
    rng = np.random.default_rng(14)
    hier = TypeHierarchy([("a", "b", "child_of")])
    emb = EmbeddingTable(["x"], rng.normal(size=(1, 3)))
    params = random_model(rng, 3, 3, 2, with_bilinear=False)
    cfg = small_config(dim=3, mention_score_kind=ScoreKind.DOT, structure_weight=0.0)
    ckpt = make_checkpoint(params, cfg, hier.type_names, emb)
    assert ckpt.structure_score_kind is None
    cfg = small_config(dim=3, mention_score_kind=ScoreKind.DOT, structure_weight=0.5)
    ckpt = make_checkpoint(params, cfg, hier.type_names, emb)
    assert ckpt.structure_score_kind is ScoreKind.DOT
    assert ckpt.vocab == ("x",)


def test_mention_only_encoder_trains_without_cnn_updates():
    hier, emb, examples = micro_task()
    cfg = small_config(dim=4, mention_score_kind=ScoreKind.DOT,
                       encoder_mode=EncoderMode.MENTION_ONLY, max_epochs=2, patience=10)
    result = train(examples, examples, hier, emb, cfg)
    # cnn tensors exist but get exact-zero gradients, so they never move
    # from the values drawn out of the training init stream
    from hiertype.training import _rng_streams
    init_rng, _, _ = _rng_streams(cfg.seed)
    fresh = init_model(len(hier), cfg, rng=init_rng)
    assert np.array_equal(result.params.cnn_w, fresh.cnn_w)
    assert np.array_equal(result.params.cnn_b, fresh.cnn_b)
    assert not np.array_equal(result.params.type_emb, fresh.type_emb)
