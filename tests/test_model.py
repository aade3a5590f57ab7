import json
import math
from dataclasses import fields

import numpy as np
import pytest

from hiertype import (
    Checkpoint,
    CheckpointError,
    EmbeddingTable,
    EncoderMode,
    Mention,
    ModelError,
    ModelParams,
    ScoreKind,
    SIGMOID_CLAMP,
    encode_mention,
    load_checkpoint,
    log_sigmoid,
    neg_log_one_minus_sigmoid,
    rank_types,
    sample_dropout_masks,
    save_checkpoint,
    score_all_types,
    sigmoid,
    surface_average,
)
from hiertype.model import (_tensor_shapes, cnn_forward_cached, encode_vectors_cached,
                            membership_grid)

import oracles
from generators import (encoder_tensors, random_encoder, random_model, random_sentence,
                        structure_only_loss, zero_encoder_tensors)


def zero_encoder(d=3, w=3):
    return ModelParams(**zero_encoder_tensors(d, w), type_emb=np.zeros((1, d)))


# ----------------------------------------------------------------------
# numerics


def test_sigmoid_family_matches_scalar_reference():
    rng = np.random.default_rng(0)
    zs = np.concatenate([rng.normal(scale=4, size=50), [-1000.0, -30.0, 0.0, 30.0, 1000.0]])
    for z in zs:
        assert float(sigmoid(z)) == pytest.approx(oracles.sigmoid(z), rel=1e-14, abs=1e-300)
        assert float(log_sigmoid(z)) == pytest.approx(oracles.log_sigmoid(z), rel=1e-14, abs=1e-300)
        assert float(neg_log_one_minus_sigmoid(z)) == pytest.approx(
            oracles.neg_log_one_minus_sigmoid(z), rel=1e-14, abs=1e-300)


def test_sigmoid_extremes_stay_finite():
    assert float(sigmoid(1000.0)) == 1.0
    assert float(sigmoid(-1000.0)) == 0.0
    assert float(log_sigmoid(-1000.0)) == -1000.0
    # the clamp keeps the negative-pair penalty finite at huge logits
    saturated = float(neg_log_one_minus_sigmoid(1000.0))
    assert math.isfinite(saturated)
    assert saturated == pytest.approx(-math.log(SIGMOID_CLAMP), rel=1e-5)
    assert float(neg_log_one_minus_sigmoid(-1000.0)) == pytest.approx(0.0, abs=1e-12)


def test_log_sigmoid_at_zero():
    assert float(log_sigmoid(0.0)) == pytest.approx(-math.log(2.0), abs=1e-15)


# ----------------------------------------------------------------------
# encoder shapes and corner cases


def test_encoder_param_validation():
    d = 3
    enc = zero_encoder_tensors(d, 3)
    for bad, message in [
        ({"cnn_w": np.zeros((2, d, d))}, "filter width must be odd and positive"),
        ({"cnn_w": np.zeros((3, d, d + 1))}, "cnn filter must map d -> d"),
        ({"w1": np.zeros((d, d))}, r"w1 must have shape \(3, 6\)"),  # w1 reads the 2d concat
    ]:
        with pytest.raises(ModelError, match=message):
            ModelParams(**{**enc, "type_emb": np.zeros((4, 3)), **bad})


def test_model_param_validation():
    d = 3
    enc = zero_encoder_tensors(d, 3)
    for bad, message in [
        ({"type_emb": np.zeros(4)}, "type embeddings must be"),
        ({"type_emb": np.zeros((4, 2))}, r"type_emb must have shape \(4, 3\)"),
        ({"bilinear": np.zeros((2, 3))}, r"bilinear must have shape \(3, 3\)"),
    ]:
        with pytest.raises(ModelError, match=message):
            ModelParams(**{**enc, "type_emb": np.zeros((4, 3)), **bad})
    p = ModelParams(**enc, type_emb=np.zeros((4, 3)))
    assert p.n_types == 4 and p.dim == 3 and p.filter_width == 3
    assert list(p.tensors()) == ["cnn_w", "cnn_b", "w1", "b1", "w2", "b2", "type_emb"]


def test_model_fields_are_the_tensor_table_in_order():
    names = [f.name for f in fields(ModelParams) if f.name != "flat"]
    assert names == list(_tensor_shapes(3, 3, 4))


def test_width_one_cnn_is_per_token_affine():
    rng = np.random.default_rng(1)
    d = 4
    p = random_encoder(rng, d, w=1)
    wv = rng.normal(size=(5, d))
    got = cnn_forward_cached(p, [wv]).out[0]
    per_token = np.maximum(wv @ p.cnn_w[0] + p.cnn_b, 0.0)
    assert np.allclose(got, per_token.max(axis=0), rtol=1e-12, atol=1e-12)


def test_single_token_lands_on_the_last_tap():
    rng = np.random.default_rng(2)
    d = 3
    p = random_encoder(rng, d, w=3)
    p.cnn_b = np.full(d, 0.2)  # keep some outputs off the ReLU floor
    v = rng.normal(size=(1, d))
    got = cnn_forward_cached(p, [v]).out[0]
    # padded to [0, v, 0]; the single window is placed at the first padded
    # slot, so its taps read [out-of-range zero, pad zero, v]
    expect = np.maximum(v[0] @ p.cnn_w[2] + p.cnn_b, 0.0)
    assert np.allclose(got, expect, atol=1e-15)


def test_two_token_sentence_under_width_three():
    rng = np.random.default_rng(3)
    d = 2
    p = random_encoder(rng, d, w=3)
    wv = rng.normal(size=(2, d))
    # padded to [v0, v1, 0]; the single window reads [oob zero, v0, v1],
    # so the tokens land on taps 1 and 2 and the right pad is never read
    expect = np.maximum(wv[0] @ p.cnn_w[1] + wv[1] @ p.cnn_w[2] + p.cnn_b, 0.0)
    assert np.allclose(cnn_forward_cached(p, [wv]).out[0], expect, atol=1e-15)


def test_boundary_windows_read_zeros():
    rng = np.random.default_rng(4)
    d = 3
    p = random_encoder(rng, d, w=3)
    wv = rng.normal(size=(4, d))
    cache_out = cnn_forward_cached(p, [wv]).out[0]
    oracle = oracles.cnn_pool(p.cnn_w, p.cnn_b, wv)
    assert np.allclose(cache_out, oracle, atol=1e-15)
    # n - w + 1 = 2 windows: window 0 hangs one slot off the left edge
    # (reading a zero there), window 1 is fully in range
    win0 = np.maximum(wv[0] @ p.cnn_w[1] + wv[1] @ p.cnn_w[2] + p.cnn_b, 0.0)
    win1 = np.maximum(wv[0] @ p.cnn_w[0] + wv[1] @ p.cnn_w[1] + wv[2] @ p.cnn_w[2] + p.cnn_b, 0.0)
    assert np.allclose(cache_out, np.maximum(win0, win1), atol=1e-13)


def test_all_negative_preactivations_pool_to_zero():
    d = 3
    p = zero_encoder(d=d)
    p.cnn_b = np.full(d, -1.0)
    assert np.array_equal(cnn_forward_cached(p, [np.ones((4, d))]).out[0], np.zeros(d))


def test_cnn_matches_oracle_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(40):
        d = int(rng.integers(1, 6))
        w = int(rng.choice([1, 3, 5]))
        p = random_encoder(rng, d, w)
        wv, _ = random_sentence(rng, d)
        assert np.allclose(cnn_forward_cached(p, [wv]).out[0],
                           oracles.cnn_pool(p.cnn_w, p.cnn_b, wv), atol=1e-13)


def test_surface_average_inclusive_span():
    wv = np.array([[1.0, 0.0], [3.0, 2.0], [5.0, 4.0]])
    assert np.array_equal(surface_average(wv, (0, 0)), [1.0, 0.0])
    assert np.array_equal(surface_average(wv, (1, 2)), [4.0, 3.0])
    assert np.array_equal(surface_average(wv, (0, 2)), [3.0, 2.0])
    with pytest.raises(ModelError):
        surface_average(wv, (1, 3))


def test_encode_matches_oracle_both_modes():
    rng = np.random.default_rng(6)
    for mode in (EncoderMode.CNN_PLUS_MENTION, EncoderMode.MENTION_ONLY):
        for _ in range(25):
            d = int(rng.integers(1, 5))
            p = random_encoder(rng, d, w=3)
            wv, span = random_sentence(rng, d)
            got = encode_vectors_cached(p, [wv], [span], mode).out[0]
            want = oracles.encode(p.cnn_w, p.cnn_b, p.w1, p.b1, p.w2, p.b2,
                                  wv, span, use_cnn=(mode is EncoderMode.CNN_PLUS_MENTION))
            assert np.allclose(got, want, atol=1e-13)


def test_zero_weights_encode_to_b2():
    d = 3
    p = zero_encoder(d=d)
    p.b2 = np.array([1.0, -2.0, 3.0])
    out = encode_vectors_cached(p, [np.ones((4, d))], [(1, 2)], EncoderMode.CNN_PLUS_MENTION).out[0]
    assert np.array_equal(out, p.b2)


def test_mention_only_ignores_context_tokens():
    rng = np.random.default_rng(7)
    d = 4
    p = random_encoder(rng, d, w=3)
    wv = rng.normal(size=(6, d))
    changed = wv.copy()
    changed[0] += 5.0
    changed[5] -= 3.0
    a = encode_vectors_cached(p, [wv], [(2, 3)], EncoderMode.MENTION_ONLY).out[0]
    b = encode_vectors_cached(p, [changed], [(2, 3)], EncoderMode.MENTION_ONLY).out[0]
    assert np.array_equal(a, b)
    # the CNN view does depend on context
    c = encode_vectors_cached(p, [wv], [(2, 3)], EncoderMode.CNN_PLUS_MENTION).out[0]
    e = encode_vectors_cached(p, [changed], [(2, 3)], EncoderMode.CNN_PLUS_MENTION).out[0]
    assert not np.allclose(c, e)


def test_encode_mention_uses_embedding_lookup():
    rng = np.random.default_rng(8)
    d = 3
    p = random_encoder(rng, d, w=3)
    emb = EmbeddingTable(["cat", "sat"], rng.normal(size=(2, d)))
    m = Mention(tokens=("the", "cat", "sat"), span=(1, 1))
    got = encode_mention(p, [m], emb, EncoderMode.CNN_PLUS_MENTION)[0]
    wv = np.stack([np.zeros(d), emb.lookup("cat"), emb.lookup("sat")])
    want = encode_vectors_cached(p, [wv], [(1, 1)], EncoderMode.CNN_PLUS_MENTION).out[0]
    assert np.array_equal(got, want)


def test_empty_sentence_rejected():
    p = zero_encoder()
    with pytest.raises(ModelError):
        encode_vectors_cached(p, [np.zeros((0, 3))], [(0, 0)], EncoderMode.MENTION_ONLY)


# ----------------------------------------------------------------------
# batches


RAGGED_LENGTHS = (1, 4, 5, 6, 30)  # 1, w - 1, w, w + 1 and a long sentence at w = 5


def ragged_batch(rng, d, lengths=RAGGED_LENGTHS):
    sentences = [rng.normal(scale=0.8, size=(n, d)) for n in lengths]
    spans = [(n // 3, n // 2) for n in lengths]
    return sentences, spans


def test_batched_cnn_rows_match_per_mention_oracle():
    rng = np.random.default_rng(23)
    d = 4
    p = random_encoder(rng, d, w=5)
    sentences, _ = ragged_batch(rng, d)
    cache = cnn_forward_cached(p, sentences)
    assert cache.out.shape == cache.rows.shape == (len(sentences), d)
    assert cache.windows.shape == (sum(max(n, 5) - 4 for n in RAGGED_LENGTHS), 5 * d)
    for b, wv in enumerate(sentences):
        assert np.allclose(cache.out[b], oracles.cnn_pool(p.cnn_w, p.cnn_b, wv),
                           rtol=0.0, atol=1e-12), b


def test_batched_encoder_rows_match_per_mention_oracle():
    rng = np.random.default_rng(24)
    d = 4
    p = random_encoder(rng, d, w=5)
    sentences, spans = ragged_batch(rng, d)
    masks = sample_dropout_masks(rng, len(sentences), d, 0.3)
    for mode in (EncoderMode.CNN_PLUS_MENTION, EncoderMode.MENTION_ONLY):
        for mk in (None, masks):
            got = encode_vectors_cached(p, sentences, spans, mode, mk).out
            assert got.shape == (len(sentences), d)
            for b, (wv, span) in enumerate(zip(sentences, spans)):
                cm, hm = (None, None) if mk is None else (mk.concat[b], mk.hidden[b])
                want = oracles.encode(p.cnn_w, p.cnn_b, p.w1, p.b1, p.w2, p.b2, wv, span,
                                      use_cnn=mode is EncoderMode.CNN_PLUS_MENTION,
                                      concat_mask=cm, hidden_mask=hm)
                assert np.allclose(got[b], want, rtol=0.0, atol=1e-12), (mode, b)


def test_dead_output_dim_pools_to_the_first_window_of_each_mention():
    rng = np.random.default_rng(25)
    d = 3
    p = random_encoder(rng, d, w=5)
    p.cnn_b[1] = -100.0  # output dim 1 is below zero in every window
    sentences, _ = ragged_batch(rng, d)
    cache = cnn_forward_cached(p, sentences)
    counts = [max(n, 5) - 4 for n in RAGGED_LENGTHS]
    first_rows = np.concatenate([[0], np.cumsum(counts)[:-1]])
    assert not cache.active[:, 1].any()
    assert np.array_equal(cache.rows[:, 1], first_rows)
    assert np.array_equal(cache.out[:, 1], np.zeros(len(sentences)))
    # a live dim picks a row inside its own mention's segment
    for o in (0, 2):
        assert np.all(cache.rows[:, o] >= first_rows)
        assert np.all(cache.rows[:, o] < first_rows + counts)


def test_perturbing_one_mention_leaves_the_other_rows_bit_identical():
    rng = np.random.default_rng(26)
    d = 4
    p = random_encoder(rng, d, w=5)
    sentences, spans = ragged_batch(rng, d)
    base = encode_vectors_cached(p, sentences, spans, EncoderMode.CNN_PLUS_MENTION)
    for k in range(len(sentences)):
        changed = list(sentences)
        changed[k] = sentences[k] + rng.normal(size=sentences[k].shape)
        moved = encode_vectors_cached(p, changed, spans, EncoderMode.CNN_PLUS_MENTION)
        others = [b for b in range(len(sentences)) if b != k]
        assert np.array_equal(moved.out[others], base.out[others]), k
        assert np.array_equal(moved.cnn.out[others], base.cnn.out[others]), k
        assert not np.array_equal(moved.out[k], base.out[k]), k


def test_batch_length_mismatches_rejected():
    rng = np.random.default_rng(27)
    d = 3
    p = random_encoder(rng, d, w=3)
    sentences, spans = ragged_batch(rng, d, lengths=(2, 5))
    with pytest.raises(ModelError):
        encode_vectors_cached(p, sentences, spans[:1], EncoderMode.CNN_PLUS_MENTION)
    with pytest.raises(ModelError):
        encode_vectors_cached(p, sentences, spans, EncoderMode.CNN_PLUS_MENTION,
                              sample_dropout_masks(rng, 1, d, 0.5))
    with pytest.raises(ModelError):
        encode_vectors_cached(p, [], [], EncoderMode.CNN_PLUS_MENTION)
    with pytest.raises(ModelError):
        cnn_forward_cached(p, [])


# ----------------------------------------------------------------------
# dropout


def test_dropout_zero_probability_is_identity():
    rng = np.random.default_rng(9)
    masks = sample_dropout_masks(rng, 1, dim=5, p=0.0)
    assert np.array_equal(masks.concat, np.ones((1, 10)))
    assert np.array_equal(masks.hidden, np.ones((1, 5)))
    d = 3
    p = random_encoder(rng, d, w=3)
    wv, span = random_sentence(rng, d)
    m0 = sample_dropout_masks(rng, 1, dim=d, p=0.0)
    assert np.array_equal(
        encode_vectors_cached(p, [wv], [span], EncoderMode.CNN_PLUS_MENTION, m0).out[0],
        encode_vectors_cached(p, [wv], [span], EncoderMode.CNN_PLUS_MENTION, None).out[0],
    )


def test_dropout_half_scales_survivors_by_two():
    rng = np.random.default_rng(10)
    masks = sample_dropout_masks(rng, 1, dim=200, p=0.5)
    assert set(np.unique(masks.concat)) <= {0.0, 2.0}
    assert set(np.unique(masks.hidden)) <= {0.0, 2.0}
    assert 0.0 in masks.concat and 2.0 in masks.concat


def test_dropout_probability_validation():
    rng = np.random.default_rng(11)
    for bad in (1.0, -0.1, 1.5):
        with pytest.raises(ModelError):
            sample_dropout_masks(rng, 1, dim=3, p=bad)


def test_batch_dropout_draw_equals_per_mention_draws():
    d, p, keep = 5, 0.4, 0.6
    batched, sequential = np.random.default_rng(13), np.random.default_rng(13)
    masks = sample_dropout_masks(batched, 7, d, p)
    assert masks.concat.shape == (7, 2 * d) and masks.hidden.shape == (7, d)
    for b in range(7):
        concat = (sequential.random(2 * d) < keep).astype(np.float64) / keep
        hidden = (sequential.random(d) < keep).astype(np.float64) / keep
        assert masks.concat[b].tobytes() == concat.tobytes(), b
        assert masks.hidden[b].tobytes() == hidden.tobytes(), b
    assert batched.random() == sequential.random()


def test_dropout_masks_match_oracle_encode():
    rng = np.random.default_rng(12)
    d = 4
    p = random_encoder(rng, d, w=3)
    wv, span = random_sentence(rng, d)
    masks = sample_dropout_masks(rng, 1, dim=d, p=0.5)
    got = encode_vectors_cached(p, [wv], [span], EncoderMode.CNN_PLUS_MENTION, masks).out[0]
    want = oracles.encode(p.cnn_w, p.cnn_b, p.w1, p.b1, p.w2, p.b2, wv, span,
                          use_cnn=True, concat_mask=masks.concat[0], hidden_mask=masks.hidden[0])
    assert np.allclose(got, want, atol=1e-13)


# ----------------------------------------------------------------------
# pair scoring


def score(kind, x, y, bilinear=None):
    """Membership score of x in the single type row y."""
    return float(score_all_types(kind, x, np.asarray(y)[None, :], bilinear)[0])


def penalty(kind, x, y, bilinear=None, margin=1.0):
    """Non-membership penalty of x against y as the loss charges it.

    Type 0 (= x) is its own only ancestor, so over rows [x, y] the structure
    loss is its self term plus the penalty against y, and over [x] it is
    the self term alone."""
    pair = [(0, (0,))]
    return (structure_only_loss(pair, [x, y], kind, bilinear, margin)
            - structure_only_loss(pair, [x], kind, bilinear, margin))


def test_order_violation_zero_iff_dominating():
    x = np.array([2.0, 3.0])
    energy = -score_all_types(ScoreKind.ORDER, x, np.array([[1.0, 3.0], [3.0, 2.0]]))
    assert energy[0] == 0.0
    assert energy[1] == 1.0  # only the first coord violates
    assert score(ScoreKind.ORDER, np.zeros(2), np.array([1.0, 2.0])) == -5.0


def test_order_score_and_penalty():
    x, y = np.array([2.0, 2.0]), np.array([1.0, 1.0])
    assert score(ScoreKind.ORDER, x, y) == 0.0
    # a perfectly satisfied pair pays the full margin as a negative
    assert penalty(ScoreKind.ORDER, x, y, margin=1.0) == 1.0
    far = np.array([5.0, 5.0])
    assert score(ScoreKind.ORDER, x, far) == -18.0
    assert penalty(ScoreKind.ORDER, x, far, margin=1.0) == 0.0
    with pytest.raises(ModelError):
        penalty(ScoreKind.ORDER, x, y, margin=0.0)


def test_dot_score_orthogonal_vectors():
    x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert score(ScoreKind.DOT, x, y) == pytest.approx(-math.log(2), abs=1e-15)
    assert penalty(ScoreKind.DOT, x, y) == pytest.approx(math.log(2), abs=1e-15)


def test_bilinear_identity_equals_dot():
    rng = np.random.default_rng(13)
    x, y = rng.normal(size=3), rng.normal(size=3)
    eye = np.eye(3)
    assert score(ScoreKind.BILINEAR, x, y, eye) == score(ScoreKind.DOT, x, y)
    assert penalty(ScoreKind.BILINEAR, x, y, eye) == penalty(ScoreKind.DOT, x, y)


def test_bilinear_requires_matrix():
    x = np.ones(3)
    with pytest.raises(ModelError):
        score(ScoreKind.BILINEAR, x, x)
    with pytest.raises(ModelError):
        penalty(ScoreKind.BILINEAR, x, x)
    with pytest.raises(ModelError):
        score_all_types(ScoreKind.BILINEAR, x, np.ones((2, 3)))


def test_penalties_are_nonnegative():
    rng = np.random.default_rng(14)
    for _ in range(50):
        x, y = rng.normal(size=4), rng.normal(size=4)
        A = rng.normal(size=(4, 4))
        assert penalty(ScoreKind.ORDER, x, y, margin=0.5) >= 0.0
        assert penalty(ScoreKind.BILINEAR, x, y, A) >= 0.0
        assert penalty(ScoreKind.DOT, x, y) >= 0.0


def test_score_all_types_matches_pairwise():
    rng = np.random.default_rng(15)
    m = rng.normal(size=4)
    T = rng.normal(size=(6, 4))
    A = rng.normal(size=(4, 4))
    for kind, mat in ((ScoreKind.ORDER, None), (ScoreKind.DOT, None), (ScoreKind.BILINEAR, A)):
        rows = score_all_types(kind, m, T, mat)
        for i in range(6):
            assert rows[i] == pytest.approx(-oracles.positive_term(kind.value, m, T[i], mat),
                                            abs=1e-12)


@pytest.mark.parametrize("kind", list(ScoreKind))
def test_membership_grid_scores_and_loss_agree(kind):
    # ranking and training read one kernel: its forward scores are what
    # score_all_types returns, and the masked loss is built from them
    rng = np.random.default_rng(17)
    x, y = rng.normal(scale=0.8, size=(5, 4)), rng.normal(scale=0.8, size=(9, 4))
    A = rng.normal(size=(4, 4)) if kind is ScoreKind.BILINEAR else None
    pos = rng.random((5, 9)) < 0.3
    neg = ~pos & (rng.random((5, 9)) < 0.8)
    margin = 0.7
    scores = membership_grid(kind, x, y, A)
    assert np.array_equal(score_all_types(kind, x, y, A), scores)
    loss_sum = membership_grid(kind, x, y, A, pos, neg, margin, grads=False)[0]
    want = -scores[pos].sum() + sum(oracles.negative_term(kind.value, x[b], y[n], A, margin)
                                    for b, n in zip(*np.nonzero(neg)))
    assert loss_sum == pytest.approx(want, rel=0.0, abs=1e-12)


def test_scores_match_scalar_oracle():
    rng = np.random.default_rng(16)
    for _ in range(30):
        x, y = rng.normal(size=3), rng.normal(size=3)
        A = rng.normal(size=(3, 3))
        assert score(ScoreKind.ORDER, x, y) == pytest.approx(
            -oracles.order_energy(x, y), abs=1e-12)
        assert score(ScoreKind.DOT, x, y) == pytest.approx(
            -oracles.positive_term("dot", x, y), abs=1e-12)
        assert penalty(ScoreKind.BILINEAR, x, y, A) == pytest.approx(
            oracles.negative_term("bilinear", x, y, A), abs=1e-12)


def test_rank_types_breaks_ties_by_index():
    T = np.ones((5, 3))
    order, scores = rank_types(ScoreKind.DOT, np.zeros(3), T)
    assert np.array_equal(order, np.arange(5))
    assert np.allclose(scores, -math.log(2))


def test_rank_types_descending():
    T = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    order, scores = rank_types(ScoreKind.DOT, np.array([1.0, 0.0]), T)
    assert list(order) == [2, 1, 0]
    assert scores[order[0]] >= scores[order[1]] >= scores[order[2]]


def test_rank_types_batch_rows_equal_single_vector_results():
    # a GEMM row of a batch may round differently from a lone vector, so the
    # bilinear and dot inputs are small integers, whose products and sums are
    # exact in any order; the order energy is elementwise, so floats are fine
    rng = np.random.default_rng(17)
    d, n = 4, 40  # over 16 rows numpy's default argsort is not stable
    ints = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    ints[[3, 7]] = ints[1]  # planted ties: equal rows score equally
    M_ints = rng.integers(-2, 3, size=(5, d)).astype(np.float64)
    M_ints[0] = 0.0         # every dot and bilinear logit is 0: one n-way tie
    A = rng.integers(-2, 3, size=(d, d)).astype(np.float64)
    floats = rng.normal(size=(n, d))
    floats[[2, 5]] = floats[0]
    M_floats = rng.normal(size=(5, d))
    M_floats[0] = floats.max(axis=0)  # dominates every row: all energies 0
    cases = ((ScoreKind.ORDER, M_floats, floats, None), (ScoreKind.DOT, M_ints, ints, None),
             (ScoreKind.BILINEAR, M_ints, ints, A))
    for kind, M, T, mat in cases:
        orders, scores = rank_types(kind, M, T, mat)
        assert orders.shape == scores.shape == (5, n)
        assert np.array_equal(orders[0], np.arange(n)), kind
        for i, m in enumerate(M):
            order, row = rank_types(kind, m, T, mat)
            assert np.array_equal(orders[i], order) and np.array_equal(scores[i], row), (kind, i)
            # descending score, ties by ascending index
            assert np.array_equal(order, np.lexsort((np.arange(n), -row))), (kind, i)
    with pytest.raises(ModelError):
        score_all_types(ScoreKind.ORDER, np.zeros((1, 1, d)), floats)


# ----------------------------------------------------------------------
# checkpoints


def make_checkpoint_fixture(rng, with_bilinear=True, with_structure=False):
    d, w, n = 3, 3, 4
    params = random_model(rng, d, w, n, with_bilinear=with_bilinear,
                          with_structure_bilinear=with_structure)
    vocab = ("the", "cat")
    return Checkpoint(
        params=params,
        type_names=tuple(f"ty{i}" for i in range(n)),
        vocab=vocab,
        word_emb=rng.normal(size=(2, d)),
        encoder_mode=EncoderMode.CNN_PLUS_MENTION,
        mention_score_kind=ScoreKind.BILINEAR if with_bilinear else ScoreKind.DOT,
        structure_score_kind=ScoreKind.ORDER if with_structure else None,
        margin=1.5,
    )


def test_checkpoint_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(17)
    ckpt = make_checkpoint_fixture(rng, with_bilinear=True, with_structure=True)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)
    for name, tensor in ckpt.params.tensors().items():
        assert np.array_equal(back.params.tensors()[name], tensor), name
    assert np.array_equal(back.word_emb, ckpt.word_emb)
    assert back.type_names == ckpt.type_names
    assert back.vocab == ckpt.vocab
    assert back.encoder_mode is EncoderMode.CNN_PLUS_MENTION
    assert back.mention_score_kind is ScoreKind.BILINEAR
    assert back.structure_score_kind is ScoreKind.ORDER
    assert back.margin == 1.5


def test_checkpoint_roundtrip_without_optional_tensors(tmp_path):
    rng = np.random.default_rng(18)
    ckpt = make_checkpoint_fixture(rng, with_bilinear=False)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)
    assert back.params.bilinear is None
    assert back.params.bilinear_structure is None
    assert back.structure_score_kind is None


def test_checkpoint_bytes_deterministic(tmp_path):
    rng = np.random.default_rng(19)
    ckpt = make_checkpoint_fixture(rng)
    a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(a, ckpt)
    save_checkpoint(b, ckpt)
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_checkpoint_corruption_detected(tmp_path):
    rng = np.random.default_rng(20)
    ckpt = make_checkpoint_fixture(rng)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, ckpt)
    with open(path, "rb") as fh:
        raw = fh.read()

    truncated = str(tmp_path / "t.ckpt")
    with open(truncated, "wb") as fh:
        fh.write(raw[:-8])
    with pytest.raises(CheckpointError):
        load_checkpoint(truncated)

    padded = str(tmp_path / "p.ckpt")
    with open(padded, "wb") as fh:
        fh.write(raw + b"\x00" * 8)
    with pytest.raises(CheckpointError):
        load_checkpoint(padded)

    bad_magic = str(tmp_path / "m.ckpt")
    with open(bad_magic, "wb") as fh:
        fh.write(b'{"format":"something"}\n')
    with pytest.raises(CheckpointError):
        load_checkpoint(bad_magic)

    not_json = str(tmp_path / "j.ckpt")
    with open(not_json, "wb") as fh:
        fh.write(b"\xff\xfe garbage\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(not_json)


@pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["true", "float", "string"])
def test_checkpoint_version_must_be_the_integer_one(tmp_path, version):
    # True == 1.0 == 1, so a comparison alone let these load as version 1
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, make_checkpoint_fixture(np.random.default_rng(28)))
    with open(path, "rb") as fh:
        header, blob = json.loads(fh.readline()), fh.read()
    header["version"] = version
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n" + blob)
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == f"{path}: header 'version' must be an integer, got {version!r}"


def test_checkpoint_header_validation():
    rng = np.random.default_rng(21)
    d = 3
    params = random_model(rng, d, 3, 4)
    with pytest.raises(CheckpointError):  # name count mismatch
        Checkpoint(params=params, type_names=("a",), vocab=("x",),
                   word_emb=np.zeros((1, d)), encoder_mode=EncoderMode.MENTION_ONLY,
                   mention_score_kind=ScoreKind.DOT, structure_score_kind=None, margin=1.0)
    with pytest.raises(CheckpointError):  # word block shape mismatch
        Checkpoint(params=params, type_names=tuple("abcd"), vocab=("x",),
                   word_emb=np.zeros((2, d)), encoder_mode=EncoderMode.MENTION_ONLY,
                   mention_score_kind=ScoreKind.DOT, structure_score_kind=None, margin=1.0)


def test_checkpoint_embedding_table(tmp_path):
    rng = np.random.default_rng(22)
    ckpt = make_checkpoint_fixture(rng)
    emb = ckpt.embedding_table()
    assert emb.tokens == ckpt.vocab
    assert np.array_equal(emb.matrix, ckpt.word_emb)


# ----------------------------------------------------------------------
# parameter layout


def _address(a):
    return a.__array_interface__["data"][0]


def _memory_owner(a):
    while isinstance(a, np.ndarray):
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


def test_model_tensors_tile_flat_in_table_order():
    rng = np.random.default_rng(23)
    w1 = rng.normal(size=(3, 6))
    p = ModelParams(**{**encoder_tensors(rng, 3, 3), "w1": w1}, type_emb=rng.normal(size=(4, 3)),
                    bilinear_structure=rng.normal(size=(3, 3)))
    assert list(p.tensors()) == ["cnn_w", "cnn_b", "w1", "b1", "w2", "b2", "type_emb",
                                 "bilinear_structure"]
    assert p.flat.shape == (sum(t.size for t in p.tensors().values()),)
    assert np.array_equal(p.w1, w1)
    w1[0, 0] += 1.0  # the constructor copied its inputs into the arena
    assert not np.array_equal(p.w1, w1)
    p.flat[:] = np.arange(p.flat.size)
    tiled = np.concatenate([t.ravel() for t in p.tensors().values()])
    assert np.array_equal(tiled, np.arange(p.flat.size))


def test_model_copy_shares_no_memory():
    rng = np.random.default_rng(24)
    p = random_model(rng, 3, 3, 4, with_structure_bilinear=True)
    c = p.copy()
    assert not np.shares_memory(c.flat, p.flat)
    for name, t in p.tensors().items():
        assert np.array_equal(c.tensors()[name], t), name
        assert not np.shares_memory(c.tensors()[name], p.flat), name
    c.flat += 1.0
    assert np.array_equal(p.flat, p.copy().flat) and not np.array_equal(c.flat, p.flat)


def test_loaded_params_and_word_emb_are_views_of_one_buffer(tmp_path):
    rng = np.random.default_rng(25)
    ckpt = make_checkpoint_fixture(rng, with_bilinear=True, with_structure=True)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)
    flat = back.params.flat
    assert flat.flags.writeable
    assert isinstance(_memory_owner(flat), bytearray)
    assert _memory_owner(back.word_emb) is _memory_owner(flat)
    assert _address(flat) + flat.nbytes == _address(back.word_emb)
    at = _address(flat)
    for name, t in back.params.tensors().items():
        assert _address(t) == at and t.flags.c_contiguous, name
        at += t.nbytes


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    for seed, kw in ((26, dict(with_bilinear=True, with_structure=True)),
                     (27, dict(with_bilinear=False))):
        ckpt = make_checkpoint_fixture(np.random.default_rng(seed), **kw)
        a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(a, ckpt)
        save_checkpoint(b, load_checkpoint(a))
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()
