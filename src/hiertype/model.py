"""Mention encoder and membership scoring.

The encoder combines two views of a mention: the mean of the raw word
vectors inside the entity span, and a width-w CNN over the whole sentence
followed by elementwise max-pooling.  Window j (0-indexed) is centered on
token j of the (possibly padded) sentence:

    pre[j] = b + sum_k W[k] . v[j - w//2 + k],   k = 0 .. w-1

with out-of-range positions reading a zero vector.  Sentences shorter than
w are zero-padded to length w (centered), so there is always at least one
window.  The pooled CNN vector and the span mean are concatenated and fed
through an affine-ReLU-affine head; in mention-only mode the CNN slot of
the concatenation is zero-filled.  Word vectors are fixed inputs, not
parameters.

The encoder runs on a batch of B mentions at once, with no per-mention
path.  The CNN is one im2col GEMM (Chellapilla et al. 2006): the padded
sentences are stacked into one zero-framed buffer, the windows of every
mention are gathered into a ragged (R, w*d) matrix, R = sum_i J_i with
J_i = max(n_i, w) - w + 1 windows for a sentence of n_i tokens, and
pre = windows @ W.reshape(w*d, d) + b is (R, d), its rows cut into
lanes (see below).  Max-pooling scatters
the ReLU rows into a (B, max J_i, d) grid filled with -1 and takes the
first argmax per mention and output dim.  The head is two GEMMs over
(B, 2d) and (B, d) rows, so every encoder output is (B, d).

The encoder, the type embeddings and the bilinear maps are trained
jointly and live in one ``ModelParams``, whose fields are the tensors of
``_tensor_shapes`` in table order; the encoder functions read it directly.
Dropout masks for a batch come from one ``sample_dropout_masks`` call as
(B, 2d) and (B, d) arrays.

Scoring a pair (x, y) for "x is a member / descendant of y" comes in three
kinds.  Order: score = -||max(0, y - x)||^2 and the non-membership penalty
is the hinge max(0, margin - E).  Bilinear: score = log sigma(x' A y),
penalty = -log(1 - sigma).  Dot: bilinear with A fixed to identity.
Penalties are always >= 0 and are added to losses for negative pairs.

``membership_grid`` is the one scorer kernel and the only place that
branches on the kind.  Ranking calls it for (B, N) scores, through
``score_all_types`` and ``rank_types``, which take one vector m of shape
(d,) or a batch (B, d).  The typing and structure losses call it with
positive and negative masks for the loss sum and its gradients.  The
order energy (Vendrov et al. 2016) is computed by ``order_grid``,
forward only or with its fused backward.  A lane walks the batch in tiles
of ORDER_TILE rows against its whole ORDER_CHUNK chunks of types, through
its own (ORDER_TILE, ORDER_CHUNK, d) buffer, which stays in L2; there is
never a (B, N, d) array.  Energies, and so rankings and MAP, are
bit-identical to a serial walk.  Bilinear scores are associated as
(m @ A) @ T', so no product has N x d x d cost.

One lane pool runs every heavy kernel: the order kernel, the CNN forward
GEMM here, and the ``cnn_w`` gradient GEMM and Adam in ``training``.
Each kernel cuts its work with ``_lane_cuts`` into at most LANES
contiguous ranges and hands them to ``_run_lanes``, which runs them on
min(LANES, usable CPUs) pool threads, or one after another on one CPU,
for small work, or inside a lane.  A lane writes only its own rows of
buffers its caller allocated.  The lane count, never the worker count,
fixes every cut and so the order of every sum: no bit depends on the
CPU count.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .corpus import EmbeddingTable, Mention
from .errors import HiertypeError, Optional, expect, located_decode_errors, parse_json, write_output

# sigma is clamped into [CLAMP, 1 - CLAMP] before log(1 - sigma)
SIGMOID_CLAMP = 1e-12

CHECKPOINT_FORMAT = "hiertype-checkpoint"
CHECKPOINT_VERSION = 1
# the shape of every checkpoint header field after the format tag and version
_HEADER_FIELDS = {"tensors": [(str, [int])], "dim": int, "filter_width": int, "n_types": int,
                  "type_names": [str], "vocab": [str], "margin": float, "encoder_mode": str,
                  "mention_score_kind": str, "structure_score_kind": Optional(str)}


class ModelError(HiertypeError):
    """Inconsistent model parameters or scoring request."""


class CheckpointError(HiertypeError):
    """Unreadable or malformed checkpoint file."""


class EncoderMode(str, Enum):
    MENTION_ONLY = "mention"
    CNN_PLUS_MENTION = "cnn"


class ScoreKind(str, Enum):
    ORDER = "order"
    BILINEAR = "bilinear"
    DOT = "dot"


# ----------------------------------------------------------------------
# parameters


def _tensor_shapes(d: int, width: int, n_types: int, n_vocab: int | None = None) -> dict[str, list[int]]:
    """Every tensor a model or checkpoint may hold, in file order, with its
    shape; ``word_emb`` is listed only when ``n_vocab`` is given.  This is
    the one table of tensor names, shapes and order: shape checks,
    initialization, the parameter arena, gradients and checkpoints follow it."""
    table = {
        "cnn_w": [width, d, d], "cnn_b": [d], "w1": [d, 2 * d], "b1": [d],
        "w2": [d, d], "b2": [d], "type_emb": [n_types, d],
        "bilinear": [d, d], "bilinear_structure": [d, d],
    }
    if n_vocab is not None:
        table["word_emb"] = [n_vocab, d]
    return table


def _check_shapes(tensors: Mapping[str, np.ndarray], table: Mapping[str, list[int]]) -> None:
    for name, t in tensors.items():
        if list(t.shape) != table[name]:
            raise ModelError(f"{name} must have shape {tuple(table[name])}, got {t.shape}")


def _views(vector: np.ndarray, shapes: Mapping[str, Sequence[int]]) -> dict[str, np.ndarray]:
    """Consecutive runs of ``vector``, reshaped to the given shapes in order."""
    out, at = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        out[name] = vector[at:at + size].reshape(shape)
        at += size
    return out


@dataclass
class ModelParams:
    """Full trainable state: one field per ``_tensor_shapes`` tensor, in
    table order; cnn_w is indexed [tap, in, out].

    Every present tensor is a reshaped view of one float64 vector ``flat``,
    laid out in that order.  The constructor copies the given tensors into
    a new vector.  Only code in this module passes ``flat``: a vector that
    already holds the tensors' values in that layout, used as it is, as
    ``over`` does.  Update tensors in place: an attribute rebound to
    another array is no longer part of ``flat``.
    """

    cnn_w: np.ndarray
    cnn_b: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    type_emb: np.ndarray
    bilinear: np.ndarray | None = None
    bilinear_structure: np.ndarray | None = None
    flat: np.ndarray | None = field(default=None, kw_only=True, repr=False)

    def __post_init__(self):
        for name, t in self.tensors().items():
            setattr(self, name, np.asarray(t, dtype=np.float64))
        if self.cnn_w.ndim != 3 or self.cnn_w.shape[1] != self.cnn_w.shape[2]:
            raise ModelError(f"cnn filter must map d -> d, got {self.cnn_w.shape}")
        if self.filter_width % 2 == 0:
            raise ModelError(f"filter width must be odd and positive, got {self.filter_width}")
        if self.type_emb.ndim != 2:
            raise ModelError(f"type embeddings must be (n_types, d), got {self.type_emb.shape}")
        tensors = self.tensors()
        _check_shapes(tensors, _tensor_shapes(self.dim, self.filter_width, self.n_types))
        if self.flat is None:
            self.flat = np.concatenate([t.ravel() for t in tensors.values()])
        for name, view in _views(self.flat, {n: t.shape for n, t in tensors.items()}).items():
            setattr(self, name, view)

    @property
    def dim(self) -> int:
        return self.cnn_w.shape[2]

    @property
    def filter_width(self) -> int:
        return self.cnn_w.shape[0]

    @property
    def n_types(self) -> int:
        return self.type_emb.shape[0]

    def tensors(self) -> dict[str, np.ndarray]:
        """Every present tensor by name, in table order."""
        return {n: t for n, t in vars(self).items() if n != "flat" and t is not None}

    def over(self, vector: np.ndarray) -> "ModelParams":
        """A model with this one's layout whose tensors are views of
        ``vector``, a float64 vector of ``flat``'s shape, used as it is."""
        if vector.dtype != np.float64 or vector.shape != self.flat.shape:
            raise ModelError(f"over needs float64 {self.flat.shape}, got {vector.dtype} {vector.shape}")
        return replace(self, flat=vector)

    def copy(self) -> "ModelParams":
        return self.over(self.flat.copy())


@dataclass(frozen=True)
class DropoutMasks:
    """Inverted-dropout multipliers for a batch of B mentions, one row per
    mention: concat input (B, 2d) and post-ReLU hidden (B, d).  All-ones
    means dropout is a no-op."""

    concat: np.ndarray
    hidden: np.ndarray


def sample_dropout_masks(rng: np.random.Generator, batch: int, dim: int, p: float) -> DropoutMasks:
    """Masks for ``batch`` mentions, cut from one (batch, 3d) uniform draw:
    row i holds mention i's 2d concat values, then its d hidden values, so
    the masks and the generator's next value are those of drawing
    random(2d) and random(d) mention by mention."""
    if not 0.0 <= p < 1.0:
        raise ModelError(f"dropout probability must be in [0, 1), got {p!r}")
    keep = 1.0 - p
    scaled = (rng.random((batch, 3 * dim)) < keep).astype(np.float64) / keep
    return DropoutMasks(concat=scaled[:, :2 * dim], hidden=scaled[:, 2 * dim:])


# ----------------------------------------------------------------------
# numerics


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    t = np.exp(-np.abs(z))  # never overflows
    return np.where(z >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def log_sigmoid(z: np.ndarray) -> np.ndarray:
    # -softplus(-z); equals -log1p(exp(-z)) for z >= 0, z - log1p(exp(z)) otherwise
    z = np.asarray(z, dtype=np.float64)
    return -(np.maximum(-z, 0.0) + np.log1p(np.exp(-np.abs(z))))


# loss of a negative pair once sigma is clamped to 1 - SIGMOID_CLAMP
SATURATED_PENALTY = float(-np.log(1.0 - (1.0 - SIGMOID_CLAMP)))


def neg_log_one_minus_sigmoid(z: np.ndarray) -> np.ndarray:
    # softplus(z); the direct 1 - sigma route loses every significant digit
    # once sigma nears 1, so take the log analytically and cap at the clamp
    z = np.asarray(z, dtype=np.float64)
    softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    return np.minimum(softplus, SATURATED_PENALTY)


# ----------------------------------------------------------------------
# lanes


# every laned kernel cuts its work into at most LANES contiguous ranges;
# the lane count, never the worker count, fixes the order of every sum
LANES = 2

# a kernel with less work, in scalar operations, runs its lanes one after
# another: waking a pool thread costs about 0.1 ms, the time of 1-4M
# operations on one core
LANE_MIN_WORK = 1 << 22

_lane_pools: dict = {}  # worker count -> ThreadPoolExecutor
_lane_pools_lock = threading.Lock()
_LANE_THREAD = "hiertype-lane"


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_lanes(lane, n: int, work: int) -> None:
    """``lane(k)`` for k in range(n), about ``work`` scalar operations in
    all.  With more than one usable CPU the lanes run on a pool of
    min(LANES, CPUs) threads, created on first use; numpy's ufuncs,
    ``einsum`` and BLAS release the GIL, so the lanes overlap.  Below
    LANE_MIN_WORK, and when called from a lane (which would wait on its own
    pool), they run one after another.  Either way each lane does the same
    sums, so no bit depends on where the lanes ran."""
    workers = min(LANES, _usable_cpus())
    if (workers <= 1 or n <= 1 or work < LANE_MIN_WORK
            or threading.current_thread().name.startswith(_LANE_THREAD)):
        for k in range(n):
            lane(k)
        return
    with _lane_pools_lock:
        if workers not in _lane_pools:
            from concurrent.futures import ThreadPoolExecutor
            _lane_pools[workers] = ThreadPoolExecutor(workers, thread_name_prefix=_LANE_THREAD)
        pool = _lane_pools[workers]
    for _ in pool.map(lane, range(n)):
        pass  # re-raises a lane's exception


def _lane_cuts(n: int, unit: int = 1) -> list[tuple[int, int]]:
    """At most LANES contiguous ranges of whole ``unit``-sized runs over n
    items, as even as whole runs allow; one range when n <= unit."""
    runs = -(-n // unit)
    lanes = max(1, min(LANES, runs))
    cuts = [min(k * runs // lanes * unit, n) for k in range(lanes + 1)]
    return list(zip(cuts, cuts[1:]))


# ----------------------------------------------------------------------
# encoder forward


@dataclass
class CnnCache:
    """Everything the CNN backward pass needs from the batched forward pass.
    R is the total window count of the batch, sum over mentions of J_i."""

    windows: np.ndarray   # (R, w*d) im2col rows, zeros where out of range
    active: np.ndarray    # (R, d) bool, pre > 0
    rows: np.ndarray      # (B, d) winning window row per mention and output dim
    out: np.ndarray       # (B, d) pooled ReLU outputs


def _check_word_vectors(word_vectors: np.ndarray, d: int) -> np.ndarray:
    wv = np.asarray(word_vectors, dtype=np.float64)
    if wv.ndim != 2 or wv.shape[1] != d:
        raise ModelError(f"word vectors must be (n, {d}), got {wv.shape}")
    if wv.shape[0] < 1:
        raise ModelError("cannot encode an empty sentence")
    return wv


def cnn_forward_cached(p: ModelParams, sents: Sequence[np.ndarray]) -> CnnCache:
    """CNN + max-pool over (n, d) float64 sentences as one im2col GEMM,
    whose window rows are cut into lanes."""
    w, d = p.filter_width, p.dim
    half = w // 2
    if not sents:
        raise ModelError("cannot encode an empty batch")
    # segment i is half zero rows, then sentence i zero-padded (centred) to
    # at least w rows; windows run j = 0 .. L_i - w, so the last read row is
    # the segment's own last row and no right-hand frame is needed
    lengths = np.array([max(len(wv), w) for wv in sents])
    seg_start = np.concatenate([[0], np.cumsum(lengths + half)])
    framed = np.zeros((seg_start[-1], d), dtype=np.float64)
    for i, wv in enumerate(sents):
        at = seg_start[i] + half + max(w - len(wv), 0) // 2
        framed[at:at + len(wv)] = wv
    counts = lengths - w + 1  # J_i windows per sentence
    first = np.concatenate([[0], np.cumsum(counts)])  # first window row of each mention
    seg = np.repeat(np.arange(len(sents)), counts)
    local = np.arange(first[-1]) - first[seg]  # window j within its mention
    starts = seg_start[seg] + local
    windows = framed[starts[:, None] + np.arange(w)].reshape(-1, w * d)
    # relu = max(0, windows @ W + b), its rows cut into lanes
    relu = np.empty((len(windows), d))
    bounds = _lane_cuts(len(windows))

    def lane(k: int) -> None:
        lo, hi = bounds[k]
        np.matmul(windows[lo:hi], p.cnn_w.reshape(w * d, d), out=relu[lo:hi])
        relu[lo:hi] += p.cnn_b
        np.maximum(relu[lo:hi], 0.0, out=relu[lo:hi])

    _run_lanes(lane, len(bounds), relu.size * w * d)
    # relu >= 0 beats the -1 fill, and argmax keeps the first maximizing
    # window per output dim
    grid = np.full((len(sents), counts.max(), d), -1.0)
    grid[seg, local] = relu
    rows = first[:-1, None] + np.argmax(grid, axis=1)
    out = relu[rows, np.arange(d)]
    return CnnCache(windows=windows, active=relu > 0.0, rows=rows, out=out)


def surface_average(word_vectors: np.ndarray, span: tuple[int, int]) -> np.ndarray:
    """Mean of the raw word vectors over the inclusive span."""
    wv = np.asarray(word_vectors, dtype=np.float64)
    t1, t2 = span
    if not (0 <= t1 <= t2 < wv.shape[0]):
        raise ModelError(f"span {span!r} out of range for {wv.shape[0]} token(s)")
    return wv[t1:t2 + 1].mean(axis=0)


@dataclass
class EncoderCache:
    """Batched encoder forward state; every array has one row per mention.
    The masks are 1.0 when the batch runs without dropout."""

    cnn: CnnCache | None
    concat_mask: np.ndarray | float  # (B, 2d)
    hidden_mask: np.ndarray | float  # (B, d)
    concat_dropped: np.ndarray       # (B, 2d)
    hidden_active: np.ndarray        # (B, d) bool, hidden pre-activation > 0
    hidden_dropped: np.ndarray       # (B, d)
    out: np.ndarray                  # (B, d)


def encode_vectors_cached(
    p: ModelParams,
    word_vectors: Sequence[np.ndarray],
    spans: Sequence[tuple[int, int]],
    mode: EncoderMode,
    masks: DropoutMasks | None = None,
) -> EncoderCache:
    """Encode a batch of mentions, given as word vectors and spans."""
    d = p.dim
    wvs = [_check_word_vectors(wv, d) for wv in word_vectors]
    if len(spans) != len(wvs):
        raise ModelError("need one span per sentence")
    if masks is not None and (masks.concat.shape != (len(wvs), 2 * d)
                              or masks.hidden.shape != (len(wvs), d)):
        raise ModelError(f"dropout masks must be ({len(wvs)}, {2 * d}) and ({len(wvs)}, {d}), "
                         f"got {masks.concat.shape} and {masks.hidden.shape}")
    if not wvs:
        raise ModelError("cannot encode an empty batch")
    sfm = np.stack([surface_average(wv, span) for wv, span in zip(wvs, spans)])
    if mode is EncoderMode.CNN_PLUS_MENTION:
        cnn = cnn_forward_cached(p, wvs)
        m_cnn = cnn.out
    else:
        cnn = None
        m_cnn = np.zeros_like(sfm)
    concat_mask, hidden_mask = (1.0, 1.0) if masks is None else (masks.concat, masks.hidden)
    dropped = np.concatenate([sfm, m_cnn], axis=1) * concat_mask
    pre = dropped @ p.w1.T + p.b1
    hidden_dropped = np.maximum(pre, 0.0) * hidden_mask
    out = hidden_dropped @ p.w2.T + p.b2
    return EncoderCache(
        cnn=cnn, concat_mask=concat_mask, hidden_mask=hidden_mask,
        concat_dropped=dropped, hidden_active=pre > 0.0,
        hidden_dropped=hidden_dropped, out=out,
    )


def encode_mention(
    p: ModelParams,
    mentions: Sequence[Mention],
    emb: EmbeddingTable,
    mode: EncoderMode,
) -> np.ndarray:
    """Encode a batch of mentions into the shared d-dim space, shape (B, d)."""
    return encode_vectors_cached(
        p, [emb.vectors(m.tokens) for m in mentions], [m.span for m in mentions], mode,
    ).out


# ----------------------------------------------------------------------
# pair scoring


# types per chunk of the order kernel: a sweep over 16-96 at d = 300 and
# B = 32 or 128 found 32-64 fastest
ORDER_CHUNK = 32
# x rows per tile: a (ORDER_TILE, ORDER_CHUNK, d) buffer is 614 KB at
# d = 300, so it stays in a 2 MiB L2 whatever the batch size
ORDER_TILE = 8


def order_grid(
    x: np.ndarray,
    y: np.ndarray,
    pos: np.ndarray | None = None,
    neg: np.ndarray | None = None,
    margin: float | None = None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """The order kernel: E[b, n] = ||max(0, y[n] - x[b])||^2 for x (B, d)
    and y (N, d), returned as ``(E, d_x, d_y)``.

    Without masks the gradients are None.  With boolean (B, N) masks
    ``pos`` and ``neg`` they are the gradients of
    sum(E * pos) + sum(max(0, margin - E) * neg) with respect to x and y.

    The rows of y split into ``_lane_cuts`` ranges of whole ORDER_CHUNK
    chunks.  A lane walks its chunks, and within each chunk the rows of x
    in tiles of ORDER_TILE, through its own reused (ORDER_TILE,
    ORDER_CHUNK, d) buffer.  A tile writes its energies and adds its share
    to the lane's d_x partial and to d_y's chunk rows, which no other lane
    touches.  Each energy is one reduction over d, so E is bit-identical
    to a serial one-chunk walk; d_x is the lane partials summed in lane
    order, so no bit depends on how many workers ran the lanes."""
    B, d = x.shape
    N = y.shape[0]
    energy = np.empty((B, N))
    grads = pos is not None
    d_y = np.zeros_like(y) if grads else None
    bounds = _lane_cuts(N, ORDER_CHUNK)
    # the buffers and partials come from this thread's allocator: memory a
    # worker thread allocates stays in its own malloc arena after the call
    bufs = np.empty((len(bounds), min(ORDER_TILE, B), min(ORDER_CHUNK, N), d))
    d_xs = np.zeros((len(bounds), B, d)) if grads else None

    def lane(k: int) -> None:
        lo, hi = bounds[k]
        for s in range(lo, hi, ORDER_CHUNK):
            e = min(s + ORDER_CHUNK, hi)
            for b in range(0, B, ORDER_TILE):
                t = min(b + ORDER_TILE, B)
                r = bufs[k, :t - b, :e - s]
                np.subtract(y[None, s:e], x[b:t, None], out=r)
                np.maximum(r, 0.0, out=r)
                en = energy[b:t, s:e]
                np.einsum("bcd,bcd->bc", r, r, out=en)
                if grads:
                    # dL/dE: 1 on pos, -1 on neg where the hinge is active
                    coeff = np.subtract(pos[b:t, s:e], neg[b:t, s:e] & (en < margin),
                                        dtype=np.float64)
                    d_xs[k, b:t] += np.einsum("bc,bcd->bd", coeff, r)
                    d_y[s:e] += np.einsum("bc,bcd->cd", coeff, r)

    _run_lanes(lane, len(bounds), energy.size * d)
    if not grads:
        return energy, None, None
    d_x = d_xs[0]
    for part in d_xs[1:]:
        d_x += part
    # dE/dx = -2 max(0, y - x), dE/dy = +2 max(0, y - x)
    d_x *= -2.0
    d_y *= 2.0
    return energy, d_x, d_y


def membership_grid(
    kind: ScoreKind,
    x: np.ndarray,
    y: np.ndarray,
    matrix: np.ndarray | None = None,
    pos: np.ndarray | None = None,
    neg: np.ndarray | None = None,
    margin: float = 1.0,
    *,
    grads: bool = True,
):
    """The one membership scorer: every row of x (B, d) against every row
    of y (N, d), for ranking and for both training losses; ``matrix`` is
    the bilinear A.

    Without masks it returns the (B, N) scores.  With boolean (B, N) masks
    ``pos`` and ``neg`` it returns ``(loss_sum, d_x, d_y, d_a)``: the sum
    of -score over pos pairs plus the penalty over neg pairs, and its
    gradients with respect to x, y and A (all None unless ``grads``, and
    d_a None unless the kind is bilinear)."""
    if kind is ScoreKind.ORDER:
        if pos is None:
            scores = order_grid(x, y)[0]
            return np.negative(scores, out=scores)
        if margin <= 0:
            raise ModelError(f"order margin must be positive, got {margin!r}")
        energy, d_x, d_y = order_grid(x, y, pos, neg, margin) if grads else order_grid(x, y)
        loss_sum = float((energy * pos).sum() + (np.maximum(margin - energy, 0.0) * neg).sum())
        return loss_sum, d_x, d_y, None

    if kind is ScoreKind.BILINEAR:
        if matrix is None:
            raise ModelError("bilinear scoring requires a matrix")
        xa = x @ matrix
    else:
        xa = x
    # every GEMM below is B x d x N or B x d x d; none is N x d x d
    logits = xa @ y.T
    if pos is None:
        return log_sigmoid(logits)
    s = sigmoid(logits)
    pos_terms = -log_sigmoid(logits)
    neg_terms = neg_log_one_minus_sigmoid(logits)
    capped = neg_terms >= SATURATED_PENALTY
    loss_sum = float((pos_terms * pos).sum() + (neg_terms * neg).sum())
    if not grads:
        return loss_sum, None, None, None
    # d(-log sigma)/du = sigma - 1; d(-log(1-sigma))/du = sigma, but exactly 0
    # where the cap binds (the implemented loss is locally constant there)
    d_logits = np.where(pos, s - 1.0, 0.0) + np.where(neg & ~capped, s, 0.0)
    dly = d_logits @ y
    d_y = d_logits.T @ xa
    if kind is ScoreKind.BILINEAR:
        return loss_sum, dly @ matrix.T, d_y, x.T @ dly
    return loss_sum, dly, d_y, None


def score_all_types(
    kind: ScoreKind,
    m: np.ndarray,
    type_emb: np.ndarray,
    bilinear: np.ndarray | None = None,
) -> np.ndarray:
    """Membership scores against every type row: shape (N,) for one vector
    m of shape (d,), and (B, N) for a batch of shape (B, d)."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim not in (1, 2):
        raise ModelError(f"mention vectors must be (d,) or (B, d), got {m.shape}")
    scores = membership_grid(kind, np.atleast_2d(m), np.asarray(type_emb, dtype=np.float64), bilinear)
    return scores if m.ndim == 2 else scores[0]


def rank_types(
    kind: ScoreKind,
    m: np.ndarray,
    type_emb: np.ndarray,
    bilinear: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Type indexes ranked by descending score, and the scores, for m of
    shape (d,) or (B, d); ties break by ascending index."""
    scores = score_all_types(kind, m, type_emb, bilinear)
    return np.argsort(-scores, axis=-1, kind="stable"), scores


# ----------------------------------------------------------------------
# checkpoints


@dataclass
class Checkpoint:
    """Self-contained trained model: parameters plus everything needed to
    score new text (frozen word vectors, type names, scoring configuration)."""

    params: ModelParams
    type_names: tuple[str, ...]
    vocab: tuple[str, ...]
    word_emb: np.ndarray
    encoder_mode: EncoderMode
    mention_score_kind: ScoreKind
    structure_score_kind: ScoreKind | None
    margin: float

    def __post_init__(self):
        self.word_emb = np.asarray(self.word_emb, dtype=np.float64)
        if len(self.type_names) != self.params.n_types:
            raise CheckpointError(
                f"{len(self.type_names)} type name(s) for {self.params.n_types} embedding row(s)"
            )
        if self.word_emb.shape != (len(self.vocab), self.params.dim):
            raise CheckpointError(
                f"word embedding block {self.word_emb.shape} does not match "
                f"{len(self.vocab)} token(s) at dim {self.params.dim}"
            )

    def embedding_table(self) -> EmbeddingTable:
        return EmbeddingTable(self.vocab, self.word_emb)


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    """Header JSON line + raw little-endian float64 tensors in table order:
    the parameter arena, then the word embeddings."""
    params = ckpt.params
    table = _tensor_shapes(params.dim, params.filter_width, params.n_types, len(ckpt.vocab))
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "dim": params.dim,
        "filter_width": params.filter_width,
        "n_types": params.n_types,
        "encoder_mode": ckpt.encoder_mode.value,
        "mention_score_kind": ckpt.mention_score_kind.value,
        "structure_score_kind": None if ckpt.structure_score_kind is None else ckpt.structure_score_kind.value,
        "margin": float(ckpt.margin),
        "type_names": list(ckpt.type_names),
        "vocab": list(ckpt.vocab),
        "tensors": [[n, table[n]] for n in [*params.tensors(), "word_emb"]],
    }
    head = json.dumps(header, ensure_ascii=False, separators=(",", ":")).encode("utf-8") + b"\n"
    blocks = (np.ascontiguousarray(block, dtype="<f8") for block in (params.flat, ckpt.word_emb))
    write_output(path, "checkpoint", CheckpointError, itertools.chain([head], blocks), binary=True)


def _checked_header(path: str, line: bytes) -> tuple[dict, list]:
    """The header object of a checkpoint and its tensor list, after every
    check that needs no tensor bytes."""
    with located_decode_errors(path, CheckpointError):
        text = line.decode("utf-8")
    header = expect(parse_json(text, path, CheckpointError), dict, f"{path}: header", CheckpointError)
    if header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a model checkpoint")
    version = expect(header.get("version"), int, f"{path}: header 'version'", CheckpointError)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version!r}")
    for key, shape in _HEADER_FIELDS.items():
        expect(header.get(key), shape, f"{path}: header '{key}'", CheckpointError)
    # a negative dimension fails the comparison with the expected shapes below
    specs, sizes = header["tensors"], [header[k] for k in ("dim", "filter_width", "n_types")]
    if min(sizes) < 1:
        raise CheckpointError(f"{path}: header 'dim', 'filter_width' and 'n_types' must be "
                              "positive integers")
    for key in ("type_names", "vocab"):
        if len(set(header[key])) != len(header[key]):
            repeat = next(e for e, count in Counter(header[key]).items() if count > 1)
            raise CheckpointError(f"{path}: header '{key}' repeats {repeat!r}")
    expected = _tensor_shapes(*sizes, len(header["vocab"]))
    names = [name for name, _ in specs]
    if len(set(names)) != len(names):
        raise CheckpointError(f"{path}: header 'tensors' lists a tensor twice")
    for name, shape in specs:
        if name not in expected:
            raise CheckpointError(f"{path}: unknown tensor {name!r}")
        if shape != expected[name]:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {shape}, but the header's dim, "
                f"filter_width, n_types and vocab give {expected[name]}")
    required = [n for n in expected if n not in ("bilinear", "bilinear_structure")]
    # the matrices the header's score kinds read; a structure kind of
    # bilinear reads the mention matrix when it has none of its own
    if header.get("mention_score_kind") == ScoreKind.BILINEAR.value or (
            header.get("structure_score_kind") == ScoreKind.BILINEAR.value
            and "bilinear_structure" not in names):
        required.append("bilinear")
    missing = [n for n in required if n not in names]
    if missing:
        raise CheckpointError(f"{path}: header 'tensors' lacks required tensor {missing[0]!r}")
    if names != [n for n in expected if n in names]:
        raise CheckpointError(f"{path}: header 'tensors' is not in file order {list(expected)}")
    return header, specs


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint written by ``save_checkpoint``.  The tensor block is
    read once into one buffer; the parameter arena and the word embeddings
    are views of it, so no tensor is copied."""
    with open(path, "rb") as fh:
        header, specs = _checked_header(path, fh.readline())
        ends = list(itertools.accumulate((8 * math.prod(shape) for _, shape in specs), initial=0))
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size < ends[-1]:
            short = next(name for (name, _), end in zip(specs, ends[1:]) if end > size)
            raise CheckpointError(f"{path}: truncated tensor block for {short!r}")
        if size > ends[-1]:
            raise CheckpointError(f"{path}: {size - ends[-1]} trailing byte(s) after tensors")
        block = bytearray(size)
        if fh.readinto(block) != size:
            raise CheckpointError(f"{path}: checkpoint changed while it was read")
    values = np.frombuffer(block, dtype="<f8")
    tensors = _views(values, dict(specs))
    for name, arr in tensors.items():
        # min and max propagate nan and reach +-inf without a temporary
        if arr.size and not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
            raise CheckpointError(f"{path}: tensor {name!r} holds non-finite values")
    try:
        word_emb = tensors.pop("word_emb")
        params = ModelParams(**tensors, flat=values[:values.size - word_emb.size])
        skind = header["structure_score_kind"]
        ckpt = Checkpoint(
            params=params,
            type_names=tuple(header["type_names"]),
            vocab=tuple(header["vocab"]),
            word_emb=word_emb,
            encoder_mode=EncoderMode(header["encoder_mode"]),
            mention_score_kind=ScoreKind(header["mention_score_kind"]),
            structure_score_kind=None if skind is None else ScoreKind(skind),
            margin=float(header["margin"]),
        )
    except (KeyError, ValueError, ModelError, CheckpointError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint: {exc}") from exc
    return ckpt
