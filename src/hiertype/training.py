"""Training: losses, hand-derived gradients, Adam, and the epoch loop.

The typing loss over a minibatch B1 of labeled mentions is

    (1/|B1|) sum_m [ sum_{t in gold(m)} -score(m, t)
                     + sum_{t not in gold(m)} penalty(m, t) ]

with negatives ranging over every non-gold type.  The structure loss has
the same shape over (type, ancestor-set) pairs, with negatives ranging
over non-ancestors excluding the type itself; types with no ancestors are
never sampled.  The combined objective is typing + structure_weight *
structure, and one structure batch is consumed after every typing batch.

``loss`` is the single entry point for that objective: it returns the
loss value and, on request, its gradients.  Both terms take one routing
path: a call to ``model.membership_grid`` with the term's masks, whose
type-row and matrix gradients are scaled into the named tensors; the
structure term first folds its d_x into its own rows.  Gradients are
derived by hand and computed with plain numpy in float64.  The tests
verify them by central differences (``tests/oracles.py``), comparing a
coordinate only where the loss's kink bits, rebuilt there from forward
quantities, are the same at theta and theta +/- epsilon.

The ``cnn_w`` gradient GEMM and ``adam_step`` run on ``model``'s lane pool,
cut into a fixed number of ranges, so no bit depends on the CPU count;
Adam is elementwise, so its bits do not depend on the cut either.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import EmbeddingTable, LabeledExample, batch_iter
from .errors import HiertypeError, text_lines, write_output
from .evaluation import evaluate_model
from .hierarchy import TypeHierarchy
from .model import (
    Checkpoint,
    DropoutMasks,
    EncoderCache,
    EncoderMode,
    ModelParams,
    ScoreKind,
    encode_vectors_cached,
    membership_grid,
    sample_dropout_masks,
    _lane_cuts,
    _run_lanes,
    _tensor_shapes,
)

log = logging.getLogger(__name__)


class TrainingError(HiertypeError):
    """Unusable training request (empty batches, bad shapes, bad data)."""


class ConfigError(HiertypeError):
    """Malformed or inconsistent training configuration."""


class GradientError(TrainingError):
    """Non-finite gradient; names the offending tensor."""


# ----------------------------------------------------------------------
# configuration


@dataclass
class TrainConfig:
    dim: int = 300
    filter_width: int = 5
    encoder_mode: EncoderMode = EncoderMode.CNN_PLUS_MENTION
    mention_score_kind: ScoreKind = ScoreKind.BILINEAR
    structure_score_kind: ScoreKind | None = None  # None means same as mention kind
    share_bilinear: bool = False
    margin: float = 1.0
    structure_weight: float = 0.0
    dropout: float = 0.5
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 32
    structure_batch_size: int = 128
    max_epochs: int = 100
    patience: int = 5
    seed: int = 13
    embeddings: str | None = None
    # key -> where its value was set ("path:line", "--set 'k=v'"), kept by
    # located_config so that a validate fault names it; not a config key
    where: dict[str, str] = field(default_factory=dict, repr=False, compare=False)

    def effective_structure_kind(self) -> ScoreKind:
        return self.mention_score_kind if self.structure_score_kind is None else self.structure_score_kind

    def validate(self) -> None:
        """Raise ConfigError on the first bad value, prefixed with the
        location ``where`` holds for its key, if any."""
        def fail(key: str, message: str):
            at = self.where.get(key)
            raise ConfigError(f"{at}: {message}" if at else message)

        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                fail(f.name, f"{f.name} must be finite, got {value!r}")
        if self.dim < 1:
            fail("dim", f"dim must be positive, got {self.dim}")
        if self.filter_width < 1 or self.filter_width % 2 == 0:
            fail("filter_width", f"filter_width must be odd and positive, got {self.filter_width}")
        if self.margin <= 0:
            fail("margin", f"margin must be positive, got {self.margin!r}")
        if self.structure_weight < 0:
            fail("structure_weight", f"structure_weight must be >= 0, got {self.structure_weight!r}")
        if not 0.0 <= self.dropout < 1.0:
            fail("dropout", f"dropout must be in [0, 1), got {self.dropout!r}")
        if self.learning_rate <= 0:
            fail("learning_rate", f"learning_rate must be positive, got {self.learning_rate!r}")
        if min(self.batch_size, self.structure_batch_size) < 1:
            fail("batch_size" if self.batch_size < 1 else "structure_batch_size", "batch sizes must be positive")
        if self.max_epochs < 1:
            fail("max_epochs", f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            fail("patience", f"patience must be >= 1, got {self.patience}")
        if not 0.0 <= self.adam_beta1 < 1.0 or not 0.0 <= self.adam_beta2 < 1.0:
            fail("adam_beta1" if not 0.0 <= self.adam_beta1 < 1.0 else "adam_beta2", "adam betas must be in [0, 1)")
        if self.adam_eps <= 0:
            fail("adam_eps", f"adam_eps must be positive, got {self.adam_eps!r}")
        if self.seed < 0:
            fail("seed", f"seed must be a non-negative integer, got {self.seed}")
        if self.share_bilinear:
            if self.mention_score_kind is not ScoreKind.BILINEAR or self.effective_structure_kind() is not ScoreKind.BILINEAR:
                fail("share_bilinear", "share_bilinear requires bilinear mention and structure scoring")


def _parse_bool(text: str) -> bool:
    s = text.strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_score_kind(text: str) -> ScoreKind:
    return ScoreKind(text.strip().lower())


def _parse_optional_score_kind(text: str) -> ScoreKind | None:
    s = text.strip().lower()
    if s in ("", "none"):
        return None
    return ScoreKind(s)


def _parse_encoder_mode(text: str) -> EncoderMode:
    return EncoderMode(text.strip().lower())


def _parse_optional_path(text: str) -> str | None:
    s = text.strip()
    if "\0" in s:  # open() would raise a bare ValueError
        raise ValueError("path contains a NUL byte")
    return s or None


_CONFIG_PARSERS: dict[str, Callable[[str], object]] = {
    "dim": int,
    "filter_width": int,
    "encoder_mode": _parse_encoder_mode,
    "mention_score_kind": _parse_score_kind,
    "structure_score_kind": _parse_optional_score_kind,
    "share_bilinear": _parse_bool,
    "margin": float,
    "structure_weight": float,
    "dropout": float,
    "learning_rate": float,
    "adam_beta1": float,
    "adam_beta2": float,
    "adam_eps": float,
    "batch_size": int,
    "structure_batch_size": int,
    "max_epochs": int,
    "patience": int,
    "seed": int,
    "embeddings": _parse_optional_path,
}
assert set(_CONFIG_PARSERS) == {f.name for f in fields(TrainConfig)} - {"where"}


def config_from_strings(pairs: Mapping[str, str], base: TrainConfig | None = None) -> TrainConfig:
    return located_config({key: ("", raw) for key, raw in pairs.items()}, base)


def located_config(located: Mapping[str, tuple[str, str]], base: TrainConfig | None = None) -> TrainConfig:
    """A config from ``key -> (location, value)`` strings; an unknown key or
    a value that does not parse is reported at its location, if any, and
    ``cfg.where`` keeps each key's location for ``validate``."""
    cfg = replace(base) if base is not None else TrainConfig()
    cfg.where = dict(cfg.where)
    for key, (where, raw) in located.items():
        at = f"{where}: " if where else ""
        parser = _CONFIG_PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"{at}unknown config key: {key!r}")
        try:
            setattr(cfg, key, parser(raw))
        except ValueError as exc:
            raise ConfigError(f"{at}bad value for {key!r}: {exc}") from exc
        if where:
            cfg.where[key] = where
        else:
            cfg.where.pop(key, None)
    return cfg


def load_train_config(path: str, base: TrainConfig | None = None) -> TrainConfig:
    """Flat ``key=value`` file with ``#`` comments and blank lines."""
    located: dict[str, tuple[str, str]] = {}
    for line_no, line in text_lines(path, ConfigError, comments=True):
        key, sep, value = line.strip().partition("=")
        if not sep:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {line.strip()!r}")
        located[key.strip()] = (f"{path}:{line_no}", value.strip())
    return located_config(located, base)


# ----------------------------------------------------------------------
# initialization


def glorot_init(shape: Sequence[int], rng: np.random.Generator | int) -> np.ndarray:
    """Glorot uniform for 2-d/3-d tensors, zeros for 1-d biases.

    Fan convention: (out, in) for matrices; (taps, d_in, d_out) filters use
    fan_in = taps * d_in, fan_out = taps * d_out.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    shape = tuple(int(s) for s in shape)
    if any(s < 1 for s in shape):
        raise TrainingError(f"bad tensor shape {shape}")
    if len(shape) == 1:
        return np.zeros(shape, dtype=np.float64)
    if len(shape) == 2:
        fan_out, fan_in = shape
    elif len(shape) == 3:
        taps, d_in, d_out = shape
        fan_in, fan_out = taps * d_in, taps * d_out
    else:
        raise TrainingError(f"glorot init supports 1-3 dims, got shape {shape}")
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_model(n_types: int, config: TrainConfig, rng: np.random.Generator | None = None) -> ModelParams:
    """Fresh parameters: every present tensor is drawn with ``glorot_init`` in table order."""
    config.validate()
    if n_types < 1:
        raise TrainingError("cannot build a model for zero types")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    present = {
        "bilinear": config.mention_score_kind is ScoreKind.BILINEAR,
        "bilinear_structure": (config.structure_weight > 0 and not config.share_bilinear
                               and config.effective_structure_kind() is ScoreKind.BILINEAR),
    }
    shapes = _tensor_shapes(config.dim, config.filter_width, n_types)
    return ModelParams(**{n: glorot_init(s, rng) for n, s in shapes.items() if present.get(n, True)})


# ----------------------------------------------------------------------
# batches


@dataclass(frozen=True)
class PreparedMention:
    """A mention reduced to what the loss needs: fixed word vectors, the
    span, and gold type indexes."""

    word_vectors: np.ndarray
    span: tuple[int, int]
    gold: tuple[int, ...]


StructurePair = tuple[int, tuple[int, ...]]  # (type index, ancestor indexes)


def prepare_typing_batch(batch: Sequence[LabeledExample], emb: EmbeddingTable) -> list[PreparedMention]:
    if not batch:
        raise TrainingError("empty typing batch")
    return [
        PreparedMention(
            word_vectors=emb.vectors(ex.mention.tokens),
            span=ex.mention.span,
            gold=tuple(t.index for t in ex.gold_types),
        )
        for ex in batch
    ]


def structure_pool(hierarchy: TypeHierarchy) -> list[StructurePair]:
    """All (type, ancestors) pairs with a non-empty ancestor set."""
    pool = []
    for i in range(len(hierarchy)):
        anc = hierarchy.ancestor_indexes(i)
        if anc:
            pool.append((i, anc))
    return pool


# ----------------------------------------------------------------------
# the loss


def _encoder_backward(
    p: ModelParams,
    cache: EncoderCache,
    g: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    """Accumulate d(loss)/d(encoder tensors) for a batch, given the (B, d)
    gradient at the encoder outputs; word vectors are fixed inputs, so the
    chain stops at the concat layer."""
    grads["w2"] += g.T @ cache.hidden_dropped
    grads["b2"] += g.sum(axis=0)
    dpre = (g @ p.w2) * cache.hidden_mask * cache.hidden_active
    grads["w1"] += dpre.T @ cache.concat_dropped
    grads["b1"] += dpre.sum(axis=0)
    if cache.cnn is None:
        return
    d = p.dim
    d_pool = ((dpre @ p.w1) * cache.concat_mask)[:, d:]
    cnn = cache.cnn
    cols = np.arange(d)
    # max-pool routes each (mention, output dim) to its first argmax window;
    # a window whose ReLU is inactive passes nothing
    contrib = np.where(cnn.active[cnn.rows, cols], d_pool, 0.0)
    grads["cnn_b"] += contrib.sum(axis=0)
    g_pre = np.zeros(cnn.active.shape, dtype=np.float64)
    g_pre[cnn.rows, cols] = contrib  # (row, dim) pairs are distinct across the batch
    # windows.T @ g_pre, its w*d output rows cut into lanes
    d_w = np.empty((cnn.windows.shape[1], d))
    acc = grads["cnn_w"].reshape(d_w.shape)
    bounds = _lane_cuts(len(d_w))

    def lane(k: int) -> None:
        lo, hi = bounds[k]
        np.matmul(cnn.windows[:, lo:hi].T, g_pre, out=d_w[lo:hi])
        acc[lo:hi] += d_w[lo:hi]

    _run_lanes(lane, len(bounds), d_w.size * len(g_pre))


def _structure_masks(
    batch: Sequence[StructurePair], n_types: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Type indexes of a structure batch, its ancestor (positive) mask, and
    its negative mask: every non-ancestor except the type itself."""
    if not batch:
        raise TrainingError("empty structure batch")
    idx = np.array([t for t, _ in batch], dtype=np.intp)
    if idx.min() < 0 or idx.max() >= n_types:
        raise TrainingError("structure type index out of range")
    pos = np.zeros((len(batch), n_types), dtype=bool)
    for b, (t, anc) in enumerate(batch):
        if not anc:
            raise TrainingError(f"type {t} has no ancestors; exclude it from structure batches")
        pos[b, list(anc)] = True
    neg = ~pos
    neg[np.arange(len(batch)), idx] = False
    return idx, pos, neg


def loss(
    typing: Sequence[PreparedMention] | None,
    structure: Sequence[StructurePair] | None,
    params: ModelParams,
    config: TrainConfig,
    masks: DropoutMasks | None = None,
    *,
    grads: bool = False,
) -> tuple[float, dict[str, np.ndarray] | None]:
    """The combined objective typing + structure_weight * structure.

    This is the one entry point for the loss value and its exact analytic
    gradients for every tensor (``grads=True``); it returns ``(loss, grads
    or None)``.  Either batch may be None, and the structure batch is
    ignored at structure_weight 0.
    Tensors that do not participate (CNN filters in mention-only mode, the
    structure machinery at structure_weight 0) get exact zero gradients.
    """
    n_types = params.n_types
    total = 0.0
    out = params.split(np.zeros_like(params.flat)) if grads else None

    def grid_term(kind, x, matrix_names, pos, neg, scale, rows=None):
        """One grid term, x against every type row: its unnormalized loss
        sum and d_x.  A bilinear kind reads the first present tensor of
        ``matrix_names``.  Adds ``scale`` times the type-row and matrix
        gradients to ``out``; when x holds the type rows ``rows``, d_x is
        folded into those rows first."""
        key = next((n for n in matrix_names if getattr(params, n) is not None), None)
        loss_sum, d_x, d_y, d_a = membership_grid(
            kind, x, params.type_emb, getattr(params, key) if key else None, pos, neg,
            config.margin, grads=grads)
        if grads:
            if rows is not None:
                np.add.at(d_y, rows, d_x)
            out["type_emb"] += scale * d_y
            if d_a is not None:
                out[key] += scale * d_a
        return loss_sum, d_x

    if typing is not None:
        if not typing:
            raise TrainingError("empty typing batch")
        pos = np.zeros((len(typing), n_types), dtype=bool)
        for i, pm in enumerate(typing):
            if not pm.gold:
                raise TrainingError("mention with empty gold set")
            if max(pm.gold) >= n_types or min(pm.gold) < 0:
                raise TrainingError("gold type index out of range")
            pos[i, list(pm.gold)] = True
        cache = encode_vectors_cached(params, [pm.word_vectors for pm in typing],
                                      [pm.span for pm in typing], config.encoder_mode, masks)
        scale = 1.0 / len(typing)
        loss_sum, d_x = grid_term(config.mention_score_kind, cache.out, ("bilinear",), pos, ~pos,
                                  scale)
        total += loss_sum / len(typing)
        if grads:
            _encoder_backward(params, cache, scale * d_x, out)
        # freed before the structure grid allocates its larger buffers
        del cache, d_x, pos

    weight = config.structure_weight
    if structure is not None and weight != 0.0:
        idx, pos, neg = _structure_masks(structure, n_types)
        # x rows are copies of rows of type_emb, so d_x folds back into them
        loss_sum, _ = grid_term(config.effective_structure_kind(), params.type_emb[idx],
                                ("bilinear_structure", "bilinear"), pos, neg,
                                weight / len(structure), rows=idx)
        total += weight * loss_sum / len(structure)

    return float(total), out


# ----------------------------------------------------------------------
# Adam


# elements per Adam block: a lane makes 12 numpy calls per block, and each
# one takes the GIL, so blocks are large
ADAM_BLOCK = 32768


@dataclass
class AdamState:
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def for_params(cls, params: Mapping[str, np.ndarray]) -> "AdamState":
        return cls(
            step=0,
            m={k: np.zeros_like(v) for k, v in params.items()},
            v={k: np.zeros_like(v) for k, v in params.items()},
        )


def adam_step(
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    state: AdamState,
    *,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update, applied in place, per tensor in this
    order: ``m *= b1; m += (1-b1)*g; v *= b2; v += (1-b2)*g*g;
    p -= lr*(m/bc1)/(sqrt(v/bc2)+eps)`` with ``bc = 1 - b**t``.

    Every gradient is checked before any tensor moves.  Each tensor's
    elements are then cut into lanes, and lane k walks the k-th range of
    every tensor in blocks of ADAM_BLOCK, through its own two scratch rows.
    The update is elementwise, so no bit depends on the cut."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    flat = []  # (p, g, m, v, lane ranges), each tensor flattened
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise GradientError(f"non-finite gradient for {name!r} at step {t}")
        m, v = state.m[name], state.v[name]
        if not all(a.flags.c_contiguous for a in (p, m, v)):
            raise TrainingError(f"adam_step updates C-contiguous tensors only; {name!r} is not")
        flat.append((*(a.reshape(-1) for a in (p, g, m, v)), _lane_cuts(p.size)))
    largest = max((p.size for p, *_ in flat), default=0)
    scratch = np.empty((len(_lane_cuts(largest)), 2, min(ADAM_BLOCK, largest)))

    def lane(k: int) -> None:
        s_row, r_row = scratch[k]
        for p, g, m, v, bounds in flat:
            start, stop = bounds[k] if k < len(bounds) else (0, 0)
            for lo in range(start, stop, ADAM_BLOCK):
                hi = min(lo + ADAM_BLOCK, stop)
                gb, mb, vb, s, r = g[lo:hi], m[lo:hi], v[lo:hi], s_row[:hi - lo], r_row[:hi - lo]
                mb *= beta1
                mb += np.multiply(1.0 - beta1, gb, out=s)
                vb *= beta2
                np.square(gb, out=s)
                vb += np.multiply(1.0 - beta2, s, out=s)
                np.divide(mb, bc1, out=s)
                np.multiply(lr, s, out=s)
                np.divide(vb, bc2, out=r)
                np.sqrt(r, out=r)
                r += eps
                s /= r
                p[lo:hi] -= s

    _run_lanes(lane, len(scratch), 12 * sum(p.size for p, *_ in flat))


# ----------------------------------------------------------------------
# the epoch loop


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    train_loss: float
    dev_map: float


@dataclass
class TrainResult:
    params: ModelParams
    history: list[EpochMetrics]
    best_epoch: int
    best_dev_map: float


def write_history(path: str, history: Sequence[EpochMetrics]) -> None:
    """``epoch<TAB>train_loss<TAB>dev_map`` rows; floats via repr so the
    bytes round-trip exactly."""
    write_output(path, "history", TrainingError,
                 (f"{m.epoch}\t{m.train_loss!r}\t{m.dev_map!r}\n" for m in history))


def _rng_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    init_ss, mask_ss, struct_ss = np.random.SeedSequence(seed).spawn(3)
    return (
        np.random.default_rng(init_ss),
        np.random.default_rng(mask_ss),
        np.random.default_rng(struct_ss),
    )


def _sample_structure_batch(
    pool: Sequence[StructurePair],
    batch_size: int,
    rng: np.random.Generator,
) -> list[StructurePair]:
    if batch_size >= len(pool):
        return list(pool)
    chosen = rng.choice(len(pool), size=batch_size, replace=False)
    return [pool[int(i)] for i in chosen]


def train(
    train_examples: Sequence[LabeledExample],
    dev_examples: Sequence[LabeledExample],
    hierarchy: TypeHierarchy,
    emb: EmbeddingTable,
    config: TrainConfig,
) -> TrainResult:
    """Run Adam over shuffled minibatches with early stopping on dev MAP.

    Improvement means strictly greater dev MAP; training stops once the
    epochs since the best dev MAP reach the patience, and the returned
    parameters are the best-epoch snapshot.
    """
    config.validate()
    if not train_examples:
        raise TrainingError("no training examples")
    if not dev_examples:
        raise TrainingError("no dev examples")
    if emb.dim != config.dim:
        raise ConfigError(f"embedding dim {emb.dim} does not match config dim {config.dim}")
    init_rng, mask_rng, struct_rng = _rng_streams(config.seed)
    params = init_model(len(hierarchy), config, rng=init_rng)
    tensors = params.tensors()
    state = AdamState.for_params(tensors)
    pool = structure_pool(hierarchy)
    if config.structure_weight > 0 and not pool:
        raise TrainingError("structure_weight is positive but no type has ancestors")

    history: list[EpochMetrics] = []
    best_params = params.copy()
    best_epoch = 0
    best_map = -1.0
    for epoch in range(1, config.max_epochs + 1):
        losses = []
        for batch in batch_iter(train_examples, config.batch_size, config.seed, epoch - 1):
            prepared = prepare_typing_batch(batch, emb)
            masks = None
            if config.dropout > 0:
                masks = sample_dropout_masks(mask_rng, len(prepared), config.dim, config.dropout)
            sbatch = None
            if config.structure_weight > 0:
                sbatch = _sample_structure_batch(pool, config.structure_batch_size, struct_rng)
            value, grads = loss(prepared, sbatch, params, config, masks, grads=True)
            adam_step(
                tensors, grads, state,
                lr=config.learning_rate,
                beta1=config.adam_beta1, beta2=config.adam_beta2, eps=config.adam_eps,
            )
            losses.append(value)
        train_loss = sum(losses) / len(losses)
        report = evaluate_model(
            dev_examples, params, emb, config.encoder_mode, config.mention_score_kind
        )
        history.append(EpochMetrics(epoch=epoch, train_loss=train_loss, dev_map=report.mean_ap))
        log.info("epoch %d: train_loss=%.6f dev_map=%.6f", epoch, train_loss, report.mean_ap)
        if report.mean_ap > best_map:
            best_map = report.mean_ap
            best_epoch = epoch
            best_params = params.copy()
        elif epoch - best_epoch >= config.patience:
            log.info("stopping: no dev improvement in %d epoch(s)", epoch - best_epoch)
            break
    return TrainResult(params=best_params, history=history, best_epoch=best_epoch, best_dev_map=best_map)


def make_checkpoint(
    params: ModelParams,
    config: TrainConfig,
    type_names: Sequence[str],
    emb: EmbeddingTable,
) -> Checkpoint:
    """Bundle trained parameters with everything scoring needs."""
    return Checkpoint(
        params=params,
        type_names=tuple(type_names),
        vocab=emb.tokens,
        word_emb=np.asarray(emb.matrix),
        encoder_mode=config.encoder_mode,
        mention_score_kind=config.mention_score_kind,
        structure_score_kind=config.effective_structure_kind() if config.structure_weight > 0 else None,
        margin=config.margin,
    )
