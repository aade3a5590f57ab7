"""Independent reference implementations used to verify the package.

Everything here recomputes results through a second, deliberately different
route: scalar Python loops instead of vectorized numpy, breadth-first
reachability instead of the collapsed-class closure DP, per-rank
recomputation instead of a cumulative pass, set inclusion instead of
conditional-frequency counting, and the training loop's step protocol
spelled out around the package's own loss.  The hand-derived gradients are
checked by central differences (``finite_difference_check``), guarded by
kink bits rebuilt from the loss's forward quantities (``kink_pattern``)
rather than taken from the kernels under test.  Tests compare the two
routes; nothing in the package imports this module.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from hiertype import (DropoutMasks, ScoreKind, TrainingError, batch_iter, evaluate_model,
                      init_model, loss, prepare_typing_batch)
from hiertype import model, training

SIGMOID_CLAMP = 1e-12


# ----------------------------------------------------------------------
# scalar numerics


def sigmoid(z: float) -> float:
    if z >= 0:
        t = math.exp(-z)
        return 1.0 / (1.0 + t)
    t = math.exp(z)
    return t / (1.0 + t)


def log_sigmoid(z: float) -> float:
    if z >= 0:
        return -math.log1p(math.exp(-z))
    return z - math.log1p(math.exp(z))


def neg_log_one_minus_sigmoid(z: float) -> float:
    # -log(1 - sigma(z)) = -log(sigma(-z)), capped where the clamp binds;
    # going through 1 - sigma directly would cancel near saturation
    cap = -math.log(1.0 - (1.0 - SIGMOID_CLAMP))
    return min(-log_sigmoid(-z), cap)


# ----------------------------------------------------------------------
# encoder forward, scalar loops


def cnn_pool(cnn_w, cnn_b, word_vectors) -> list[float]:
    """Width-w CNN with centered windows, zero out-of-range reads, ReLU,
    and elementwise max-pooling.  Sentences shorter than w are zero-padded
    to length w with the tokens centered."""
    w = len(cnn_w)
    d = len(cnn_b)
    rows = [[float(v) for v in row] for row in word_vectors]
    n = len(rows)
    if n < w:
        left = (w - n) // 2
        padded = [[0.0] * d for _ in range(left)] + rows
        padded += [[0.0] * d for _ in range(w - left - n)]
    else:
        padded = rows
    length = len(padded)
    half = w // 2
    pooled = None
    for j in range(length - w + 1):
        out = []
        for o in range(d):
            s = float(cnn_b[o])
            for k in range(w):
                p = j - half + k
                if 0 <= p < length:
                    for i in range(d):
                        s += float(cnn_w[k][i][o]) * padded[p][i]
            out.append(s if s > 0.0 else 0.0)
        if pooled is None:
            pooled = out
        else:
            pooled = [max(a, b) for a, b in zip(pooled, out)]
    return pooled


def surface_average(word_vectors, span) -> list[float]:
    t1, t2 = span
    d = len(word_vectors[0])
    out = []
    for i in range(d):
        s = 0.0
        for j in range(t1, t2 + 1):
            s += float(word_vectors[j][i])
        out.append(s / (t2 - t1 + 1))
    return out


def encode(cnn_w, cnn_b, w1, b1, w2, b2, word_vectors, span, use_cnn,
           concat_mask=None, hidden_mask=None) -> list[float]:
    d = len(b2)
    sfm = surface_average(word_vectors, span)
    if use_cnn:
        pooled = cnn_pool(cnn_w, cnn_b, word_vectors)
    else:
        pooled = [0.0] * d
    concat = sfm + pooled
    if concat_mask is not None:
        concat = [c * float(m) for c, m in zip(concat, concat_mask)]
    hidden = []
    for i in range(d):
        s = float(b1[i])
        for j in range(2 * d):
            s += float(w1[i][j]) * concat[j]
        hidden.append(s if s > 0.0 else 0.0)
    if hidden_mask is not None:
        hidden = [h * float(m) for h, m in zip(hidden, hidden_mask)]
    out = []
    for i in range(d):
        s = float(b2[i])
        for j in range(d):
            s += float(w2[i][j]) * hidden[j]
        out.append(s)
    return out


# ----------------------------------------------------------------------
# scoring and losses, scalar loops


def order_energy(x, y) -> float:
    s = 0.0
    for a, b in zip(x, y):
        r = float(b) - float(a)
        if r > 0.0:
            s += r * r
    return s


def pair_logit(x, y, bilinear=None) -> float:
    if bilinear is None:
        return sum(float(a) * float(b) for a, b in zip(x, y))
    s = 0.0
    for i in range(len(x)):
        for j in range(len(y)):
            s += float(x[i]) * float(bilinear[i][j]) * float(y[j])
    return s


def positive_term(kind: str, x, y, bilinear=None) -> float:
    """-score(x a member of y)."""
    if kind == "order":
        return order_energy(x, y)
    return -log_sigmoid(pair_logit(x, y, bilinear if kind == "bilinear" else None))


def negative_term(kind: str, x, y, bilinear=None, margin=1.0) -> float:
    """penalty(x not a member of y), always >= 0."""
    if kind == "order":
        return max(0.0, margin - order_energy(x, y))
    return neg_log_one_minus_sigmoid(pair_logit(x, y, bilinear if kind == "bilinear" else None))


def typing_objective(mentions, type_rows, kind, *, bilinear=None, margin=1.0,
                     cnn_w=None, cnn_b=None, w1=None, b1=None, w2=None, b2=None,
                     use_cnn=True, masks=None) -> float:
    """mentions: list of (word_vectors, span, gold index set)."""
    total = 0.0
    for i, (wv, span, gold) in enumerate(mentions):
        cm = hm = None
        if masks is not None:
            cm, hm = masks[i]
        m = encode(cnn_w, cnn_b, w1, b1, w2, b2, wv, span, use_cnn, cm, hm)
        for t, row in enumerate(type_rows):
            if t in gold:
                total += positive_term(kind, m, row, bilinear)
            else:
                total += negative_term(kind, m, row, bilinear, margin)
    return total / len(mentions)


def structure_objective(pairs, type_rows, kind, *, bilinear=None, margin=1.0) -> float:
    """pairs: list of (type index, ancestor index set)."""
    total = 0.0
    for t, anc in pairs:
        x = type_rows[t]
        anc = set(anc)
        for u, row in enumerate(type_rows):
            if u in anc:
                total += positive_term(kind, x, row, bilinear)
            elif u != t:
                total += negative_term(kind, x, row, bilinear, margin)
    return total / len(pairs)


def logit_grid_gradients(xs, ys, pos, neg, bilinear=None):
    """Gradients of sum over pos pairs of -log sigma(u) plus sum over neg
    pairs of the capped -log(1 - sigma(u)), u = x' A y (A = identity when
    bilinear is None), w.r.t. every x, every y and A, one pair at a time."""
    d = len(xs[0])
    A = [[float(bilinear[i][j]) if bilinear is not None else float(i == j) for j in range(d)]
         for i in range(d)]
    cap = -math.log(1.0 - (1.0 - SIGMOID_CLAMP))
    d_x = [[0.0] * d for _ in xs]
    d_y = [[0.0] * d for _ in ys]
    d_a = [[0.0] * d for _ in range(d)]
    for b, x in enumerate(xs):
        for n, y in enumerate(ys):
            u = sum(float(x[i]) * A[i][j] * float(y[j]) for i in range(d) for j in range(d))
            g = 0.0
            if pos[b][n]:
                g += sigmoid(u) - 1.0
            if neg[b][n] and neg_log_one_minus_sigmoid(u) < cap:
                g += sigmoid(u)
            for i in range(d):
                for j in range(d):
                    d_x[b][i] += g * A[i][j] * float(y[j])
                    d_y[n][j] += g * float(x[i]) * A[i][j]
                    d_a[i][j] += g * float(x[i]) * float(y[j])
    return d_x, d_y, d_a


# ----------------------------------------------------------------------
# ranking metrics


def average_precision(ranking, gold) -> float:
    """Recomputes precision@k from scratch at every gold rank."""
    gold = set(gold)
    ap = 0.0
    for k in range(1, len(ranking) + 1):
        if ranking[k - 1] in gold:
            top = ranking[:k]
            ap += sum(1 for item in top if item in gold) / k
    return ap / len(gold)


# ----------------------------------------------------------------------
# hierarchy semantics by graph search on the raw links


def _adjacency(links):
    """Mixed adjacency: parent links one way, equivalence links both ways.
    parent_of rows carry their columns swapped, same as the file format."""
    adj = defaultdict(list)
    for child, parent, kind in links:
        if kind == "equivalence":
            adj[child].append(parent)
            adj[parent].append(child)
        elif kind == "parent_of":
            adj[parent].append(child)
        else:
            adj[child].append(parent)
    return adj


def reachable(links, start) -> set[str]:
    """Everything reachable from start via one or more edges; equivalence
    edges are free to traverse in both directions.  The start node itself
    appears only if some path loops back to it."""
    adj = _adjacency(links)
    seen: set[str] = set()
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def is_acyclic(names, links) -> bool:
    """True iff no directed cycle uses at least one parent-type edge
    (equivalence-only loops are fine).  Searches the product graph of
    (node, parent-edge-used-yet)."""
    eq = defaultdict(list)
    par = defaultdict(list)
    for child, parent, kind in links:
        if kind == "equivalence":
            eq[child].append(parent)
            eq[parent].append(child)
        elif kind == "parent_of":
            par[parent].append(child)
        else:
            par[child].append(parent)
    for start in names:
        seen = {(start, False)}
        frontier = [(start, False)]
        while frontier:
            nxt = []
            for u, flag in frontier:
                for v in eq[u]:
                    s = (v, flag)
                    if s not in seen:
                        seen.add(s)
                        nxt.append(s)
                for v in par[u]:
                    s = (v, True)
                    if s not in seen:
                        seen.add(s)
                        nxt.append(s)
            frontier = nxt
        if (start, True) in seen:
            return False
    return True


# ----------------------------------------------------------------------
# co-occurrence by set inclusion


def subset_pairs(entity_types) -> set[tuple[str, str]]:
    """(t1, t2) pairs where the entity set of t1 is non-empty and contained
    in the entity set of t2; exactly the threshold-1.0 co-occurrence links."""
    carriers = defaultdict(set)
    for entity, types in entity_types.items():
        for t in types:
            carriers[t].add(entity)
    out = set()
    for t1, e1 in carriers.items():
        if not e1:
            continue
        for t2, e2 in carriers.items():
            if t1 != t2 and e1 <= e2:
                out.add((t1, t2))
    return out


# ----------------------------------------------------------------------
# embedding files, one line and one float() at a time


class EmbeddingFileError(Exception):
    """The error the per-line loader raises; its message is the package's."""


def load_embeddings_per_line(path: str, dim: int, warnings: list[str]):
    """The per-line embedding loader the package had before it parsed the
    values in one pass: returns ``(tokens, rows)`` with ``rows`` lists of
    Python floats, or raises ``EmbeddingFileError``.  Each duplicate-token
    warning is appended to ``warnings`` when the line is reached, so an
    error leaves the ones logged before it.  The file is read in text mode:
    a line that does not decode is reached after the lines of every earlier
    decoded chunk, as in the package.  A leading byte-order mark is dropped,
    and ``\n``, ``\r\n`` and ``\r`` end a line, also where an undecodable
    byte is located."""
    tokens, rows, line_nos, seen = [], [], [], set()
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for line_no, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                token, values = parts[0], parts[1:]
                if len(values) != dim:
                    raise EmbeddingFileError(
                        f"{path}:{line_no}: expected {dim} values, got {len(values)}")
                if token in seen:
                    warnings.append(f"{path}:{line_no}: duplicate token {token!r}, keeping first")
                    continue
                try:
                    row = [float(v) for v in values]
                except ValueError as exc:
                    raise EmbeddingFileError(f"{path}:{line_no}: {exc}") from exc
                seen.add(token)
                tokens.append(token)
                rows.append(row)
                line_nos.append(line_no)
    except UnicodeDecodeError as exc:
        with open(path, encoding="latin-1") as fh:  # one str char per byte
            for line_no, line in enumerate(fh, start=1):
                try:
                    line.encode("latin-1").decode("utf-8")
                except UnicodeDecodeError:
                    break
        raise EmbeddingFileError(f"{path}:{line_no}: not valid UTF-8: {exc.reason}") from exc
    if not tokens:
        raise EmbeddingFileError(f"{path}: no embeddings found")
    for line_no, token, row in zip(line_nos, tokens, rows):
        if not all(math.isfinite(v) for v in row):
            raise EmbeddingFileError(f"{path}:{line_no}: non-finite value for {token!r}")
    return tokens, rows


# ----------------------------------------------------------------------
# the training loop, restated as plain loops


def adam_scalar(p, g, m, v, t, *, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam step ``t`` over lists of Python floats, in
    place, one element at a time in the order ``adam_step`` documents.
    IEEE ``*``, ``/`` and ``sqrt`` round correctly, so each element equals
    numpy's bit for bit."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for i in range(len(p)):
        m[i] = m[i] * beta1 + (1.0 - beta1) * g[i]
        v[i] = v[i] * beta2 + (1.0 - beta2) * (g[i] * g[i])
        p[i] = p[i] - lr * (m[i] / bc1) / (math.sqrt(v[i] / bc2) + eps)


def adam_whole_tensors(params, grads, m, v, t, *, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam step ``t`` over dicts of arrays, in place, one
    whole-tensor numpy expression per step of the order ``adam_step``
    documents, with no blocks and no lanes."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads[name]
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * np.square(g)
        p -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)


def train_trajectory(train_examples, dev_examples, hierarchy, emb, config):
    """``training.train``'s step protocol, restated: returns the parameter
    vector after every step, the ``(epoch, train_loss, dev_map)`` rows, the
    best epoch and the best-epoch parameters.

    Gradients come from ``training.loss``, which the finite differences
    verify; everything around it is spelled out here:
    - three generators spawned from the seed: init, dropout masks,
      structure samples;
    - batch order from ``batch_iter(seed, epoch - 1)``;
    - per step, each mention draws 2d concat then d hidden uniforms from
      the mask stream, kept where below 1 - p and scaled by 1 / (1 - p);
    - per step at a positive structure weight, one sample without
      replacement of the (type, ancestors) pool, or the whole pool when
      the sample would cover it;
    - ``adam_scalar`` with the step count;
    - dev MAP after every epoch, strict improvement, and a stop once the
      epochs since the best reach the patience.
    """
    init_ss, mask_ss, struct_ss = np.random.SeedSequence(config.seed).spawn(3)
    mask_rng, struct_rng = np.random.default_rng(mask_ss), np.random.default_rng(struct_ss)
    params = init_model(len(hierarchy), config, rng=np.random.default_rng(init_ss))
    p = params.flat.tolist()
    m, v = [0.0] * len(p), [0.0] * len(p)
    pool = [(i, hierarchy.ancestor_indexes(i)) for i in range(len(hierarchy))
            if hierarchy.ancestor_indexes(i)]
    keep, d = 1.0 - config.dropout, config.dim
    steps, history, best_epoch, best_map, best = [], [], 0, -1.0, list(p)
    for epoch in range(1, config.max_epochs + 1):
        losses = []
        for batch in batch_iter(train_examples, config.batch_size, config.seed, epoch - 1):
            masks = None
            if config.dropout > 0:
                rows = [[(1.0 if u < keep else 0.0) / keep
                         for u in list(mask_rng.random(2 * d)) + list(mask_rng.random(d))]
                        for _ in batch]
                masks = DropoutMasks(concat=np.array([r[:2 * d] for r in rows]),
                                     hidden=np.array([r[2 * d:] for r in rows]))
            sample = None
            if config.structure_weight > 0:
                sample = pool
                if config.structure_batch_size < len(pool):
                    picked = struct_rng.choice(len(pool), size=config.structure_batch_size,
                                               replace=False)
                    sample = [pool[int(i)] for i in picked]
            params.flat[:] = p
            value, grads = loss(prepare_typing_batch(batch, emb), sample, params, config, masks,
                                grads=True)
            adam_scalar(p, grads.flat.tolist(), m, v, len(steps) + 1, lr=config.learning_rate,
                        beta1=config.adam_beta1, beta2=config.adam_beta2, eps=config.adam_eps)
            steps.append(list(p))
            losses.append(value)
        params.flat[:] = p
        dev_map = evaluate_model(dev_examples, params, emb, config.encoder_mode,
                                 config.mention_score_kind).mean_ap
        history.append((epoch, sum(losses) / len(losses), dev_map))
        if dev_map > best_map:
            best_epoch, best_map, best = epoch, dev_map, list(p)
        elif epoch - best_epoch >= config.patience:
            break
    return steps, history, best_epoch, best


# ----------------------------------------------------------------------
# finite differences and the kink pattern


@dataclass
class FDReport:
    max_rel_error: float
    checked: int
    skipped: int
    worst: tuple[str, int, float, float] | None  # tensor, flat index, analytic, numeric


def finite_difference_check(
    loss_fn: Callable[[dict[str, np.ndarray]], tuple[float, bytes]],
    params: Mapping[str, np.ndarray],
    analytic: Mapping[str, np.ndarray],
    *,
    epsilon: float = 1e-5,
) -> FDReport:
    """Central-difference check of analytic gradients, skipping kinks.

    ``loss_fn`` must be deterministic and return (loss, pattern bytes); a
    coordinate is skipped unless the pattern at theta and theta +/- epsilon
    matches the base pattern exactly.  The error measure is
    |analytic - numeric| / max(1, |analytic|, |numeric|), so large
    gradients are compared relatively and small ones absolutely.
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise TrainingError(f"epsilon must be in [1e-7, 1e-3], got {epsilon!r}")
    params = dict(params)
    base_loss, base_pattern = loss_fn(params)
    if not math.isfinite(base_loss):
        raise TrainingError("loss is not finite at the base point")
    max_rel = 0.0
    worst = None
    checked = 0
    skipped = 0
    for name, theta in params.items():
        grad_flat = np.asarray(analytic[name]).reshape(-1)
        flat = theta.reshape(-1)
        for c in range(flat.size):
            saved = flat[c]
            flat[c] = saved + epsilon
            loss_hi, pat_hi = loss_fn(params)
            flat[c] = saved - epsilon
            loss_lo, pat_lo = loss_fn(params)
            flat[c] = saved
            if pat_hi != base_pattern or pat_lo != base_pattern:
                skipped += 1
                continue
            if not (math.isfinite(loss_hi) and math.isfinite(loss_lo)):
                raise TrainingError(f"loss is not finite near {name!r}[{c}]")
            numeric = (loss_hi - loss_lo) / (2.0 * epsilon)
            ana = float(grad_flat[c])
            rel = abs(ana - numeric) / max(1.0, abs(ana), abs(numeric))
            checked += 1
            if rel > max_rel:
                max_rel = rel
                worst = (name, c, ana, numeric)
    return FDReport(max_rel_error=max_rel, checked=checked, skipped=skipped, worst=worst)


def capped_negatives(x, y, matrix, neg) -> np.ndarray:
    """The (B, N) neg pairs whose -log(1 - sigma) penalty is at the cap, for
    the logits (x @ matrix) @ y' (x @ y' when matrix is None); the loss is
    flat there, so its gradient is 0."""
    logits = (x if matrix is None else x @ matrix) @ y.T
    return (model.neg_log_one_minus_sigmoid(logits) >= model.SATURATED_PENALTY) & neg


def kink_pattern(typing, structure, params, config, masks=None) -> bytes:
    """The kink bits of ``training.loss(typing, structure, params, config,
    masks)``, rebuilt from its public forward quantities.

    With a typing batch: the hidden ReLU signs, then (CNN mode) the CNN
    ReLU signs and max-pool rows from ``encode_vectors_cached``.  Then per
    grid term, typing before structure: for order, the rectifier bits
    y > x over the masked pairs and the active hinges E < margin over the
    negatives, with E from the forward-only ``membership_grid``; for
    bilinear and dot, ``capped_negatives``.  A bilinear term reads the
    matrix ``loss`` reads: ``bilinear`` for typing; ``bilinear_structure``,
    else ``bilinear``, for structure."""
    parts = []
    y = params.type_emb

    def grid_kinks(kind, x, matrix_names, pos, neg):
        if kind is ScoreKind.ORDER:
            rectified = (y[None] > x[:, None]) & (pos | neg)[:, :, None]
            energy = -model.membership_grid(kind, x, y)
            parts.extend(np.packbits(bits).tobytes()
                         for bits in (rectified, (energy < config.margin) & neg))
            return
        matrix = None
        if kind is ScoreKind.BILINEAR:
            matrix = next(getattr(params, n) for n in matrix_names
                          if getattr(params, n) is not None)
        parts.append(np.packbits(capped_negatives(x, y, matrix, neg)).tobytes())

    if typing is not None:
        cache = model.encode_vectors_cached(params, [pm.word_vectors for pm in typing],
                                            [pm.span for pm in typing], config.encoder_mode,
                                            masks)
        parts.append(np.packbits(cache.hidden_active).tobytes())
        if cache.cnn is not None:
            parts += [np.packbits(cache.cnn.active).tobytes(),
                      cache.cnn.rows.astype("<i8").tobytes()]
        pos = np.zeros((len(typing), params.n_types), dtype=bool)
        for i, pm in enumerate(typing):
            pos[i, list(pm.gold)] = True
        grid_kinks(config.mention_score_kind, cache.out, ("bilinear",), pos, ~pos)
    if structure is not None and config.structure_weight != 0.0:
        idx, pos, neg = training._structure_masks(structure, params.n_types)
        grid_kinks(config.effective_structure_kind(), y[idx],
                   ("bilinear_structure", "bilinear"), pos, neg)
    return b"".join(parts)


def kinked_loss(typing, structure, params, config, masks=None):
    """A ``finite_difference_check`` loss function for ``training.loss`` at
    ``params``: the checker perturbs the views of ``params.tensors()`` in
    place, and each call returns the loss and its ``kink_pattern``."""
    def loss_fn(_tensors):
        return (loss(typing, structure, params, config, masks)[0],
                kink_pattern(typing, structure, params, config, masks))
    return loss_fn
