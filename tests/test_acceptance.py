"""Acceptance gate: one test per release criterion, each printing a verdict.

Every test records one ``ACCEPTANCE <n> <name>: PASS|FAIL`` line; conftest.py
replays the collected lines in a terminal summary section so they appear in
ordinary captured runs, and ``-s`` shows them live as well.  Numeric
tolerances are pinned here, not derived from the code under test; the
independent scalar oracles in tests/oracles.py supply the expected values
wherever a second route exists.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from hiertype import (
    CycleError,
    EmbeddingTable,
    EncoderMode,
    EntityTypeTable,
    LinkKind,
    Mention,
    ModelParams,
    ScoreKind,
    TrainConfig,
    TypeHierarchy,
    average_precision,
    derive_cooccurrence_links,
    encode_mention,
    loss,
    sample_dropout_masks,
    structure_pool,
    train,
)
from hiertype.cli import main as cli_main
from hiertype.model import cnn_forward_cached
from hiertype.training import AdamState, PreparedMention, adam_step

import oracles
import synthtask
from generators import (encoder_tensors, random_dag_links, random_encoder, random_entity_table,
                        random_model, structure_only_loss)


VERDICTS: list[str] = []


def _say(line: str) -> None:
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


@contextmanager
def verdict(num: int, name: str):
    """Print one PASS/FAIL line for a criterion, re-raising on failure."""
    info: dict[str, str] = {}
    try:
        yield info
    except BaseException:
        _say(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    note = info.get("note", "")
    _say(f"ACCEPTANCE {num} {name}: PASS" + (f" ({note})" if note else ""))


def within(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def vec_within(a, b, tol: float = 1e-12) -> bool:
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    return len(a) == len(b) and all(within(x, y, tol) for x, y in zip(a, b))


# ----------------------------------------------------------------------
# 1. analytic gradients vs central finite differences


_DIAMOND_LINKS = [
    ("x01", "x00", "child_of"), ("x02", "x00", "child_of"),
    ("x03", "x01", "child_of"), ("x03", "x02", "child_of"),
    ("x04", "x02", "child_of"), ("x05", "x03", "child_of"),
    ("x06", "x03", "child_of"), ("x07", "x04", "child_of"),
    ("x08", "x05", "child_of"), ("x09", "x06", "child_of"),
    ("x10", "x07", "child_of"), ("x11", "x00", "child_of"),
]


def _random_typing_batch(rng, d: int, n_types: int, m_count: int = 2,
                         max_len: int = 10) -> list[PreparedMention]:
    batch = []
    for _ in range(m_count):
        n = int(rng.integers(1, max_len + 1))
        wv = rng.normal(scale=0.8, size=(n, d))
        t1 = int(rng.integers(n))
        t2 = int(rng.integers(t1, n))
        k = int(rng.integers(1, min(3, n_types) + 1))
        gold = tuple(int(i) for i in rng.choice(n_types, size=k, replace=False))
        batch.append(PreparedMention(word_vectors=wv, span=(t1, t2), gold=gold))
    return batch


def test_c1_gradients_match_finite_differences():
    hier = TypeHierarchy(_DIAMOND_LINKS)
    assert len(hier) == 12
    pool = structure_pool(hier)
    kinds = (ScoreKind.ORDER, ScoreKind.BILINEAR, ScoreKind.DOT)
    modes = (EncoderMode.CNN_PLUS_MENTION, EncoderMode.MENTION_ONLY)
    with verdict(1, "gradient check") as info:
        start = time.perf_counter()
        worst_rel = 0.0
        worst_combo = None
        total_checked = 0
        total_skipped = 0
        combo = 0
        for kind in kinds:
            for mode in modes:
                for lam in (0.0, 0.5):
                    for skind in kinds:
                        rng = np.random.default_rng(1000 + 17 * combo)
                        combo += 1
                        params = random_model(rng, 8, 3, 12, with_bilinear=True,
                                              with_structure_bilinear=True)
                        typing = _random_typing_batch(rng, 8, 12)
                        sbatch = None
                        if lam > 0:
                            picked = rng.choice(len(pool), size=4, replace=False)
                            sbatch = [pool[int(i)] for i in picked]
                        cfg = TrainConfig(
                            dim=8, filter_width=3, encoder_mode=mode,
                            mention_score_kind=kind, structure_score_kind=skind,
                            margin=1.0, structure_weight=lam, dropout=0.0,
                        )
                        _, grads = loss(typing, sbatch, params, cfg, grads=True)
                        rep = oracles.finite_difference_check(
                            oracles.kinked_loss(typing, sbatch, params, cfg), params.tensors(),
                            grads.tensors(), epsilon=1e-5)
                        assert rep.checked > 0
                        total_checked += rep.checked
                        total_skipped += rep.skipped
                        if rep.max_rel_error > worst_rel:
                            worst_rel = rep.max_rel_error
                            worst_combo = (kind.value, mode.value, lam, skind.value, rep.worst)
                        assert rep.max_rel_error < 1e-4, (
                            f"combo {kind.value}/{mode.value}/lambda={lam}/{skind.value}: "
                            f"worst {rep.worst}")
        elapsed = time.perf_counter() - start
        assert combo == 36
        assert elapsed < 120.0, f"gradient sweep took {elapsed:.1f}s"
        info["note"] = (f"36 combos, {total_checked} coords checked, "
                        f"{total_skipped} kink-skipped, max rel {worst_rel:.2e}, "
                        f"{elapsed:.1f}s; worst at {worst_combo}")


# ----------------------------------------------------------------------
# 2. forward computations vs scalar oracles


def test_c2_forward_computations_match_scalar_oracles():
    with verdict(2, "forward oracles") as info:
        checked = 0

        for i in range(100):
            rng = np.random.default_rng(3000 + i)
            d = int(rng.integers(2, 7))
            w = (1, 3, 5)[i % 3]
            enc = random_encoder(rng, d, w)
            n = int(rng.integers(1, 8))
            wv = rng.normal(scale=0.8, size=(n, d))
            got = cnn_forward_cached(enc, [wv]).out[0]
            want = oracles.cnn_pool(enc.cnn_w, enc.cnn_b, wv)
            assert vec_within(got, want), f"cnn instance {i}"
            checked += 1

        for i in range(100):
            rng = np.random.default_rng(4000 + i)
            d = int(rng.integers(2, 6))
            w = (1, 3)[i % 2]
            enc = random_encoder(rng, d, w)
            vocab = [f"w{j}" for j in range(int(rng.integers(4, 9)))]
            matrix = rng.normal(scale=0.7, size=(len(vocab), d))
            emb = EmbeddingTable(vocab, matrix)
            row_of = dict(zip(vocab, matrix))
            n = int(rng.integers(1, 9))
            tokens = tuple(
                "zz-oov" if rng.random() < 0.2 else vocab[int(rng.integers(len(vocab)))]
                for _ in range(n))
            t1 = int(rng.integers(n))
            t2 = int(rng.integers(t1, n))
            mention = Mention(tokens=tokens, span=(t1, t2))
            use_cnn = i % 2 == 0
            mode = EncoderMode.CNN_PLUS_MENTION if use_cnn else EncoderMode.MENTION_ONLY
            got = encode_mention(enc, [mention], emb, mode)[0]
            wv_manual = [list(row_of[t]) if t in row_of else [0.0] * d for t in tokens]
            want = oracles.encode(enc.cnn_w, enc.cnn_b, enc.w1, enc.b1, enc.w2, enc.b2,
                                  wv_manual, (t1, t2), use_cnn)
            assert vec_within(got, want), f"encode_mention instance {i}"
            checked += 1

        kinds = (ScoreKind.ORDER, ScoreKind.BILINEAR, ScoreKind.DOT)
        margins = (0.5, 1.0, 1.7)
        for i in range(100):
            rng = np.random.default_rng(5000 + i)
            d = int(rng.integers(2, 6))
            w = (1, 3)[i % 2]
            n_types = int(rng.integers(2, 9))
            kind = kinds[i % 3]
            margin = margins[(i // 3) % 3]
            params = random_model(rng, d, w, n_types,
                                  with_bilinear=kind is ScoreKind.BILINEAR)
            batch = _random_typing_batch(rng, d, n_types,
                                         m_count=int(rng.integers(1, 4)), max_len=6)
            mode = EncoderMode.CNN_PLUS_MENTION if i % 2 == 0 else EncoderMode.MENTION_ONLY
            masks = None
            oracle_masks = None
            if i % 3 == 0:
                masks = sample_dropout_masks(rng, len(batch), d, 0.4)
                oracle_masks = list(zip(masks.concat, masks.hidden))
            cfg = TrainConfig(dim=d, filter_width=w, encoder_mode=mode,
                              mention_score_kind=kind, margin=margin,
                              structure_weight=0.0, dropout=0.0)
            got = loss(batch, None, params, cfg, masks)[0]
            want = oracles.typing_objective(
                [(pm.word_vectors, pm.span, set(pm.gold)) for pm in batch],
                params.type_emb, kind.value, bilinear=params.bilinear, margin=margin,
                cnn_w=params.cnn_w, cnn_b=params.cnn_b,
                w1=params.w1, b1=params.b1,
                w2=params.w2, b2=params.b2,
                use_cnn=mode is EncoderMode.CNN_PLUS_MENTION, masks=oracle_masks)
            assert within(got, want), f"typing instance {i}: {got} vs {want}"
            checked += 1

        for i in range(100):
            rng = np.random.default_rng(6000 + i)
            d = int(rng.integers(2, 6))
            n_types = int(rng.integers(3, 11))
            kind = kinds[i % 3]
            margin = margins[(i // 5) % 3]
            t_emb = rng.normal(scale=0.6, size=(n_types, d))
            bilinear = rng.normal(scale=0.6, size=(d, d)) if kind is ScoreKind.BILINEAR else None
            pairs = []
            for _ in range(int(rng.integers(1, 5))):
                t = int(rng.integers(n_types))
                others = [u for u in range(n_types) if u != t]
                k = int(rng.integers(1, len(others) + 1))
                anc = tuple(int(others[j]) for j in rng.choice(len(others), size=k, replace=False))
                pairs.append((t, anc))
            got = structure_only_loss(pairs, t_emb, kind, bilinear, margin)
            want = oracles.structure_objective(pairs, t_emb, kind.value,
                                               bilinear=bilinear, margin=margin)
            assert within(got, want), f"structure instance {i}: {got} vs {want}"
            checked += 1

        info["note"] = f"{checked} random instances, tolerance 1e-12"


# ----------------------------------------------------------------------
# 3. hierarchy closure vs brute-force reachability


def test_c3_hierarchy_closure_matches_reachability():
    with verdict(3, "hierarchy closure") as info:
        discrepancies = 0
        accepted = 0
        rejected = 0
        for i in range(500):
            rng = np.random.default_rng(20_000 + i)
            if i % 5 == 3:
                names, links = random_dag_links(rng, max_nodes=50, p_equiv=0.3)
            elif i % 5 == 4:
                names, links = random_dag_links(rng, max_nodes=50, p_equiv=0.15, extra_edges=3)
            else:
                names, links = random_dag_links(rng, max_nodes=50)
            acyclic = oracles.is_acyclic(names, links)
            try:
                h = TypeHierarchy(links, extra_types=names)
            except CycleError:
                h = None
            if (h is not None) != acyclic:
                discrepancies += 1
                continue
            if h is None:
                rejected += 1
                continue
            accepted += 1
            anc = {name: {t.name for t in h.ancestors(name)} for name in names}
            for name in names:
                if anc[name] != oracles.reachable(links, name):
                    discrepancies += 1
            # transitivity of the closure
            for name in names:
                for a in anc[name]:
                    if not anc[a] <= anc[name]:
                        discrepancies += 1
            # monotonicity: fewer links never grow an ancestor set
            sub = TypeHierarchy(links[: len(links) // 2], extra_types=names)
            for name in names:
                if not {t.name for t in sub.ancestors(name)} <= anc[name]:
                    discrepancies += 1
            # idempotence: feeding the closure back reproduces it (pure
            # parent graphs only; closures of equivalence classes contain
            # mutual pairs, which are correctly rejected as cycles)
            if all(k != "equivalence" for _, _, k in links):
                closure_links = [(t, a, "child_of") for t in names for a in anc[t]]
                h2 = TypeHierarchy(closure_links, extra_types=names)
                for name in names:
                    if {t.name for t in h2.ancestors(name)} != anc[name]:
                        discrepancies += 1
        assert accepted + rejected == 500
        assert accepted > 50 and rejected > 50, (accepted, rejected)
        assert discrepancies == 0
        info["note"] = f"500 graphs ({accepted} accepted, {rejected} rejected), 0 discrepancies"


# ----------------------------------------------------------------------
# 4. co-occurrence link derivation


def test_c4_cooccurrence_derivation():
    with verdict(4, "co-occurrence derivation") as info:
        table = EntityTypeTable({"e1": {"A", "B"}, "e2": {"A", "B"}, "e3": {"A"}})
        got = [(l.child.name, l.parent.name, l.kind) for l in
               derive_cooccurrence_links(table, 0.7)]
        assert got == [("B", "A", LinkKind.FB_FB)]

        for i in range(200):
            rng = np.random.default_rng(30_000 + i)
            raw = random_entity_table(rng)
            derived = {(l.child.name, l.parent.name)
                       for l in derive_cooccurrence_links(EntityTypeTable(raw), 1.0)}
            assert derived == oracles.subset_pairs(raw), f"table instance {i}"
        info["note"] = "fixture exact, 200 random tables at threshold 1.0"


# ----------------------------------------------------------------------
# 5. average precision vs per-rank oracle


def test_c5_average_precision_matches_oracle():
    with verdict(5, "average precision") as info:
        assert abs(average_precision(("b", "a", "c"), {"a", "c"}) - 7.0 / 12.0) <= 1e-12
        for i in range(1000):
            rng = np.random.default_rng(40_000 + i)
            n = int(rng.integers(1, 21))
            ranking = [f"t{j}" for j in rng.permutation(n)]
            k = int(rng.integers(1, n + 1))
            gold = {ranking[int(j)] for j in rng.choice(n, size=k, replace=False)}
            got = average_precision(ranking, gold)
            want = oracles.average_precision(ranking, gold)
            assert abs(got - want) <= 1e-12, f"instance {i}: {got} vs {want}"
        info["note"] = "worked example 7/12 exact, 1000 random instances at 1e-12"


# ----------------------------------------------------------------------
# 6. synthetic task end to end


def test_c6_synthetic_task_end_to_end():
    hier, emb, train_ex, dev_ex = synthtask.build_in_memory(seed=13, count=500,
                                                            train_count=400, dim=16)
    assert len(hier) == 20 and hier.stats().max_depth == 4
    assert len(train_ex) == 400 and len(dev_ex) == 100
    base = TrainConfig(
        dim=16, filter_width=3,
        encoder_mode=EncoderMode.CNN_PLUS_MENTION,
        mention_score_kind=ScoreKind.BILINEAR,
        margin=1.0, structure_weight=0.0, dropout=0.0,
        learning_rate=5e-3, batch_size=32,
        max_epochs=500, patience=25, seed=13,
    )
    with verdict(6, "synthetic end-to-end") as info:
        t0 = time.perf_counter()
        r_cnn = train(train_ex, dev_ex, hier, emb, base)
        cnn_secs = time.perf_counter() - t0
        assert cnn_secs < 300.0, f"cnn training took {cnn_secs:.0f}s"
        assert r_cnn.best_dev_map >= 0.95, f"cnn dev MAP {r_cnn.best_dev_map:.4f}"

        t0 = time.perf_counter()
        r_men = train(train_ex, dev_ex, hier, emb,
                      replace(base, encoder_mode=EncoderMode.MENTION_ONLY))
        men_secs = time.perf_counter() - t0
        assert men_secs < 300.0, f"mention training took {men_secs:.0f}s"
        assert r_men.best_dev_map >= 0.80, f"mention dev MAP {r_men.best_dev_map:.4f}"

        assert r_cnn.best_dev_map > r_men.best_dev_map, (
            f"cnn {r_cnn.best_dev_map:.4f} not above mention {r_men.best_dev_map:.4f}")
        info["note"] = (
            f"cnn MAP {r_cnn.best_dev_map:.4f} in {len(r_cnn.history)} epochs/{cnn_secs:.0f}s, "
            f"mention MAP {r_men.best_dev_map:.4f} in {len(r_men.history)} epochs/{men_secs:.0f}s")


# ----------------------------------------------------------------------
# 7. order-embedding geometry from structure-only training


def test_c7_order_embedding_geometry():
    hier = synthtask.build_hierarchy()
    n = len(hier)
    pool = structure_pool(hier)
    anc_of = {t: set(anc) for t, anc in pool}
    for t in range(n):
        anc_of.setdefault(t, set())
    pos_pairs = [(t, a) for t, anc in pool for a in anc]
    neg_pairs = [(t, u) for t in range(n) for u in range(n)
                 if u != t and u not in anc_of[t]]
    assert len(pos_pairs) == 45 and len(neg_pairs) == n * (n - 1) - 45

    rng = np.random.default_rng(7)
    params = ModelParams(
        **encoder_tensors(rng, 8, 1, scale=0.1),
        type_emb=rng.normal(scale=0.3, size=(n, 8)),
        bilinear=None, bilinear_structure=None,
    )
    cfg = TrainConfig(dim=8, filter_width=1, encoder_mode=EncoderMode.MENTION_ONLY,
                      mention_score_kind=ScoreKind.ORDER, structure_score_kind=ScoreKind.ORDER,
                      margin=1.0, structure_weight=1.0, dropout=0.0, learning_rate=0.02)

    def geometry():
        T = params.type_emb
        worst_pos = max(oracles.order_energy(T[t], T[a]) for t, a in pos_pairs)
        ok = sum(1 for t, u in neg_pairs if oracles.order_energy(T[t], T[u]) >= 0.5)
        return worst_pos, ok / len(neg_pairs)

    with verdict(7, "order geometry") as info:
        state = AdamState.for_params(params)
        steps = 0
        worst_pos, frac_ok = geometry()
        for step in range(1, 2001):
            _, grads = loss(None, pool, params, cfg, grads=True)
            adam_step(params, grads, state, lr=cfg.learning_rate)
            steps = step
            if step % 25 == 0:
                worst_pos, frac_ok = geometry()
                if worst_pos <= 0.01 and frac_ok >= 0.90:
                    break
        worst_pos, frac_ok = geometry()
        assert steps <= 2000
        assert worst_pos <= 0.01, f"worst ancestor-pair energy {worst_pos:.4f}"
        assert frac_ok >= 0.90, f"only {frac_ok:.1%} of non-ancestor pairs at margin/2"
        info["note"] = (f"{steps} steps, worst ancestor energy {worst_pos:.2e}, "
                        f"{frac_ok:.1%} of {len(neg_pairs)} non-ancestor pairs >= 0.5")


# ----------------------------------------------------------------------
# 8. pipeline determinism


_DETERMINISM_CONFIG = """\
dim = 16
filter_width = 3
encoder_mode = cnn
mention_score_kind = bilinear
structure_score_kind = order
structure_weight = 0.5
margin = 1.0
dropout = 0.3
learning_rate = 0.005
batch_size = 32
structure_batch_size = 16
max_epochs = 5
patience = 5
seed = 13
"""


def test_c8_pipeline_determinism(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    paths = synthtask.write_task_files(str(data), seed=13)
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text(_DETERMINISM_CONFIG + f"embeddings = {paths['embeddings']}\n",
                        encoding="utf-8")

    def run(tag: str) -> tuple[bytes, bytes, str]:
        ckpt = tmp_path / f"model-{tag}.ckpt"
        hist = tmp_path / f"history-{tag}.tsv"
        rc = cli_main(["train", "--config", str(cfg_path),
                       "--hierarchy", paths["links"],
                       "--train", paths["train"], "--dev", paths["dev"],
                       "--out", str(ckpt), "--history", str(hist)])
        assert rc == 0
        capsys.readouterr()
        rc = cli_main(["eval", "--model", str(ckpt), "--corpus", paths["dev"],
                       "--hierarchy", paths["links"]])
        assert rc == 0
        eval_out = capsys.readouterr().out
        return ckpt.read_bytes(), hist.read_bytes(), eval_out

    with verdict(8, "determinism") as info:
        ck1, h1, e1 = run("a")
        ck2, h2, e2 = run("b")
        assert ck1 == ck2, "checkpoint bytes differ between identical runs"
        assert h1 == h2, "history bytes differ between identical runs"
        assert e1 == e2, "eval output differs between identical runs"
        info["note"] = (f"checkpoint {len(ck1)} bytes and history {len(h1)} bytes "
                        f"identical across two seed-13 runs")
