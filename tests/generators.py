"""Random instance generators and small model builders shared by unit and
acceptance tests."""

from __future__ import annotations

import numpy as np

from hiertype import ModelParams, TrainConfig, loss

LINK_KINDS = ("child_of", "fb_fb", "wordnet_hypernym")


def random_dag_links(rng: np.random.Generator, max_nodes: int = 50, *,
                     p_equiv: float = 0.0, extra_edges: int = 0):
    """Random link lines over up to max_nodes types.

    The base construction only adds edges from later to earlier positions of
    a hidden random order, so it is acyclic; equivalence links and extra
    uniformly random edges can break that, which is exactly what the
    accept/reject agreement tests want.  Returns (names, links) where links
    are (child, parent, kind-token) triples; parent_of rows are emitted with
    swapped columns so every file kind appears.
    """
    n = int(rng.integers(1, max_nodes + 1))
    names = [f"t{i:02d}" for i in range(n)]
    order = rng.permutation(n)
    links = []
    density = min(1.0, 2.5 / max(1, n - 1))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                child, parent = names[order[j]], names[order[i]]
                kind = LINK_KINDS[int(rng.integers(len(LINK_KINDS)))]
                if rng.random() < 0.15:
                    links.append((parent, child, "parent_of"))
                else:
                    links.append((child, parent, kind))
    if p_equiv > 0 and n >= 2:
        for _ in range(int(rng.integers(1, max(2, n // 8) + 1))):
            if rng.random() < p_equiv * 4:
                a, b = rng.choice(n, size=2, replace=False)
                links.append((names[a], names[b], "equivalence"))
    for _ in range(extra_edges):
        a, b = rng.integers(n), rng.integers(n)
        if a != b:
            links.append((names[a], names[b], LINK_KINDS[int(rng.integers(len(LINK_KINDS)))]))
    return names, links


def random_entity_table(rng: np.random.Generator, max_entities: int = 30,
                        max_pool: int = 8) -> dict[str, set[str]]:
    pool = [f"ty{i}" for i in range(int(rng.integers(2, max_pool + 1)))]
    table = {}
    for e in range(int(rng.integers(1, max_entities + 1))):
        k = int(rng.integers(1, min(4, len(pool)) + 1))
        chosen = rng.choice(len(pool), size=k, replace=False)
        table[f"e{e}"] = {pool[i] for i in chosen}
    return table


def encoder_tensors(rng: np.random.Generator, d: int, w: int,
                    scale: float = 0.6) -> dict[str, np.ndarray]:
    """Random encoder tensors, drawn in table order, as ModelParams keywords."""
    return dict(
        cnn_w=rng.normal(scale=scale, size=(w, d, d)),
        cnn_b=rng.normal(scale=scale, size=d),
        w1=rng.normal(scale=scale, size=(d, 2 * d)),
        b1=rng.normal(scale=scale, size=d),
        w2=rng.normal(scale=scale, size=(d, d)),
        b2=rng.normal(scale=scale, size=d),
    )


def zero_encoder_tensors(d: int, w: int) -> dict[str, np.ndarray]:
    return dict(
        cnn_w=np.zeros((w, d, d)), cnn_b=np.zeros(d),
        w1=np.zeros((d, 2 * d)), b1=np.zeros(d),
        w2=np.zeros((d, d)), b2=np.zeros(d),
    )


def random_encoder(rng: np.random.Generator, d: int, w: int, scale: float = 0.6) -> ModelParams:
    """A model with random encoder tensors and one zero type row, for
    tests that only encode."""
    return ModelParams(**encoder_tensors(rng, d, w, scale), type_emb=np.zeros((1, d)))


def random_model(rng: np.random.Generator, d: int, w: int, n_types: int, *,
                 with_bilinear: bool = True, with_structure_bilinear: bool = False,
                 scale: float = 0.6) -> ModelParams:
    return ModelParams(
        **encoder_tensors(rng, d, w, scale),
        type_emb=rng.normal(scale=scale, size=(n_types, d)),
        bilinear=rng.normal(scale=scale, size=(d, d)) if with_bilinear else None,
        bilinear_structure=rng.normal(scale=scale, size=(d, d)) if with_structure_bilinear else None,
    )


def random_sentence(rng: np.random.Generator, d: int, max_len: int = 10,
                    scale: float = 0.8) -> tuple[np.ndarray, tuple[int, int]]:
    n = int(rng.integers(1, max_len + 1))
    wv = rng.normal(scale=scale, size=(n, d))
    t1 = int(rng.integers(n))
    t2 = int(rng.integers(t1, n))
    return wv, (t1, t2)


def type_rows_model(type_emb, bilinear=None) -> ModelParams:
    """A model whose live tensors are the given type rows and an optional
    bilinear matrix; its encoder is all zeros and never read by the
    structure loss."""
    type_emb = np.asarray(type_emb, dtype=np.float64)
    return ModelParams(**zero_encoder_tensors(type_emb.shape[1], 1), type_emb=type_emb,
                       bilinear=bilinear)


def structure_only_loss(pairs, type_emb, kind, bilinear=None, margin=1.0) -> float:
    """The structure loss of (type, ancestors) pairs over the given type
    rows, read from ``loss`` at structure_weight 1 with no typing batch."""
    model = type_rows_model(type_emb, bilinear)
    cfg = TrainConfig(dim=model.type_emb.shape[1], filter_width=1, mention_score_kind=kind,
                      margin=margin, structure_weight=1.0)
    return loss(None, pairs, model, cfg)[0]
