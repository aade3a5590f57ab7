import logging

import numpy as np
import pytest

from hiertype import (
    CorpusError,
    CorpusRecord,
    EmbeddingError,
    EmbeddingTable,
    LabeledExample,
    Mention,
    TypeHierarchy,
    batch_iter,
    distant_label,
    examples_to_records,
    label_records,
    read_corpus,
    write_corpus,
)
from hiertype.cli import main as cli_main


@pytest.fixture
def hier():
    return TypeHierarchy.from_links(
        [("cat", "animal", "child_of"), ("dog", "animal", "child_of"),
         ("animal", "thing", "child_of")]
    )


def mention(tokens=("a", "b", "c"), span=(1, 1)):
    return Mention(tokens=tuple(tokens), span=span)


# ----------------------------------------------------------------------
# mentions and records


def test_span_validation():
    mention(span=(0, 2))
    mention(span=(2, 2))
    for bad in ((-1, 1), (2, 1), (0, 3), (3, 3)):
        with pytest.raises(CorpusError):
            mention(span=bad)


def test_span_must_be_integer_pair():
    with pytest.raises(CorpusError):
        mention(span=(0.0, 1))
    with pytest.raises(CorpusError):
        mention(span=(0, 1, 2))
    with pytest.raises(CorpusError):
        Mention(tokens=(), span=(0, 0))


def test_record_validates_like_mention():
    with pytest.raises(CorpusError):
        CorpusRecord(tokens=("x",), span=(0, 1))
    rec = CorpusRecord(tokens=("x", "y"), span=(0, 1), entity_id="e", types=("t",))
    m = rec.to_mention()
    assert m.tokens == ("x", "y") and m.entity_id == "e"


def test_labeled_example_requires_gold():
    with pytest.raises(CorpusError):
        LabeledExample(mention=mention(), gold_types=())


# ----------------------------------------------------------------------
# embeddings


def test_embedding_lookup_and_oov(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("the 1.0 2.0\nCat 3.5 -1.25\n", encoding="utf-8")
    emb = EmbeddingTable.load(str(p), dim=2)
    assert emb.dim == 2 and len(emb) == 2
    assert np.array_equal(emb.lookup("the"), [1.0, 2.0])
    assert np.array_equal(emb.lookup("Cat"), [3.5, -1.25])
    # case sensitive, unknown tokens read as zeros
    assert np.array_equal(emb.lookup("cat"), [0.0, 0.0])
    assert "the" in emb and "cat" not in emb
    got = emb.vectors(["Cat", "nope", "the"])
    assert np.array_equal(got, [[3.5, -1.25], [0.0, 0.0], [1.0, 2.0]])


def test_embedding_matrix_is_read_only(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("a 1.0\n", encoding="utf-8")
    emb = EmbeddingTable.load(str(p), dim=1)
    with pytest.raises(ValueError):
        emb.matrix[0, 0] = 9.0
    with pytest.raises(ValueError):
        emb.lookup("zzz")[0] = 9.0


def test_embedding_load_errors(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("a 1.0 2.0\nb 1.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingError) as exc:
        EmbeddingTable.load(str(p), dim=2)
    assert ":2:" in str(exc.value)

    p.write_text("a 1.0 oops\n", encoding="utf-8")
    with pytest.raises(EmbeddingError):
        EmbeddingTable.load(str(p), dim=2)

    p.write_text("\n\n", encoding="utf-8")
    with pytest.raises(EmbeddingError):
        EmbeddingTable.load(str(p), dim=2)

    with pytest.raises(EmbeddingError):
        EmbeddingTable.load(str(p), dim=0)


def test_embedding_load_rejects_non_finite_values(tmp_path):
    p = tmp_path / "emb.txt"
    for bad in ("nan", "inf", "-Infinity"):
        p.write_text(f"a 1.0 2.0\n\nb 3.0 {bad}\nc 4.0 5.0\n", encoding="utf-8")
        with pytest.raises(EmbeddingError) as exc:
            EmbeddingTable.load(str(p), dim=2)
        assert f"{p}:3:" in str(exc.value) and "'b'" in str(exc.value), bad


def test_embedding_load_locates_bytes_that_are_not_utf8(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_bytes(b"a 1.0 2.0\nb\xff 3.0 4.0\n")
    with pytest.raises(EmbeddingError) as exc:
        EmbeddingTable.load(str(p), dim=2)
    assert f"{p}:2:" in str(exc.value) and "UTF-8" in str(exc.value)


def test_embedding_duplicate_token_keeps_first(tmp_path, caplog):
    p = tmp_path / "emb.txt"
    p.write_text("a 1.0\na 2.0\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="hiertype.corpus"):
        emb = EmbeddingTable.load(str(p), dim=1)
    assert len(emb) == 1
    assert emb.lookup("a")[0] == 1.0
    assert any("duplicate" in r.message for r in caplog.records)


def test_embedding_table_shape_check():
    with pytest.raises(EmbeddingError):
        EmbeddingTable(["a", "b"], np.zeros((3, 2)))
    with pytest.raises(EmbeddingError):
        EmbeddingTable(["a", "a"], np.zeros((2, 2)))


# ----------------------------------------------------------------------
# corpus io


def test_jsonl_roundtrip(tmp_path):
    recs = [
        CorpusRecord(tokens=("the", "cat", "sat"), span=(1, 1), entity_id="e1", types=("cat",)),
        CorpusRecord(tokens=("dogs",), span=(0, 0), entity_id="e2", types=("dog", "animal")),
    ]
    p = tmp_path / "corpus.jsonl"
    write_corpus(str(p), recs)
    assert read_corpus(str(p)) == recs


def test_jsonl_bytes_deterministic(tmp_path):
    recs = [CorpusRecord(tokens=("a", "b"), span=(0, 1), entity_id="e", types=("t2", "t1"))]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_corpus(str(a), recs)
    write_corpus(str(b), list(recs))
    assert a.read_bytes() == b.read_bytes()
    line = a.read_text(encoding="utf-8").splitlines()[0]
    assert line.index('"tokens"') < line.index('"span"') < line.index('"entity_id"') < line.index('"types"')


def test_tsv_corpus(tmp_path):
    p = tmp_path / "corpus.tsv"
    p.write_text(
        "# comment\n"
        "e1\t1\t1\tthe cat sat\tcat,animal\n"
        "e2\t0\t0\tdogs\n",
        encoding="utf-8",
    )
    recs = read_corpus(str(p))
    assert recs[0].tokens == ("the", "cat", "sat")
    assert recs[0].span == (1, 1)
    assert recs[0].types == ("cat", "animal")
    assert recs[1].types == ()


def test_corpus_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "corpus.jsonl"
    p.write_text('{"tokens":["a"],"span":[0,0]}\n{"tokens":["a"],"span":[0,5]}\n', encoding="utf-8")
    with pytest.raises(CorpusError) as exc:
        read_corpus(str(p))
    assert ":2:" in str(exc.value)

    t = tmp_path / "corpus.tsv"
    t.write_text("e1\t0\t0\n", encoding="utf-8")
    with pytest.raises(CorpusError) as exc:
        read_corpus(str(t))
    assert ":1:" in str(exc.value)

    t.write_text("e1\tzero\t0\ta b\n", encoding="utf-8")
    with pytest.raises(CorpusError):
        read_corpus(str(t))


def test_bool_span_endpoints_rejected(tmp_path, capsys):
    # bool is a subclass of int, so true/false must be refused explicitly
    for span in ((True, 1), (0, False)):
        with pytest.raises(CorpusError):
            Mention(tokens=("a", "b"), span=span)
    links = tmp_path / "links.tsv"
    links.write_text("cat\tanimal\tchild_of\n", encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"tokens":["a","cat"],"span":[1,1],"types":["cat"]}\n'
                      '{"tokens":["a","cat"],"span":[true,1],"types":["cat"]}\n',
                      encoding="utf-8")
    out = tmp_path / "labeled.jsonl"
    assert cli_main(["label", "--hierarchy", str(links), "--corpus", str(corpus),
                     "--out", str(out)]) == 2
    assert f"{corpus}:2:" in capsys.readouterr().err
    assert not out.exists()


def test_jsonl_rejects_non_object_and_bad_fields(tmp_path):
    p = tmp_path / "corpus.jsonl"
    for bad in (
        '{"span":[0,0]}\n',
        '{"tokens":"ab","span":[0,0]}\n',
        '{"tokens":["a"],"span":[0]}\n',
        '{"tokens":["a"],"span":[0,0]\n',
    ):
        p.write_text(bad, encoding="utf-8")
        with pytest.raises(CorpusError):
            read_corpus(str(p))


# ----------------------------------------------------------------------
# distant supervision


def test_distant_label_closure(hier):
    ex = distant_label(hier, ["cat"], mention())
    assert {t.name for t in ex.gold_types} == {"cat", "animal", "thing"}


def test_distant_label_drops_unknown_names(hier):
    ex = distant_label(hier, ["cat", "martian"], mention())
    assert {t.name for t in ex.gold_types} == {"cat", "animal", "thing"}


def test_distant_label_skips_when_nothing_usable(hier):
    assert distant_label(hier, ["martian"], mention()) is None
    assert distant_label(hier, [], mention()) is None


def test_distant_label_unions_multiple_types(hier):
    ex = distant_label(hier, ["cat", "dog"], mention())
    assert {t.name for t in ex.gold_types} == {"cat", "dog", "animal", "thing"}


def test_label_records_counts_skips(hier):
    recs = [
        CorpusRecord(tokens=("a",), span=(0, 0), entity_id="e1", types=("cat",)),
        CorpusRecord(tokens=("b",), span=(0, 0), entity_id="e2", types=("martian",)),
        CorpusRecord(tokens=("c",), span=(0, 0), entity_id="e3", types=()),
    ]
    examples, skipped = label_records(hier, recs)
    assert len(examples) == 1 and skipped == 2
    assert examples[0].mention.entity_id == "e1"


def test_examples_to_records_roundtrip(hier):
    recs = [CorpusRecord(tokens=("a", "b"), span=(0, 0), entity_id="e", types=("cat",))]
    examples, _ = label_records(hier, recs)
    back = examples_to_records(examples)
    assert back[0].tokens == ("a", "b")
    assert set(back[0].types) == {"cat", "animal", "thing"}
    # relabeling the expanded record reproduces the same gold set
    again, _ = label_records(hier, back)
    assert again[0].gold_types == examples[0].gold_types


# ----------------------------------------------------------------------
# batching


def _examples(n, hier):
    return [
        distant_label(hier, ["cat"], Mention(tokens=("t", str(i)), span=(0, 0), entity_id=f"e{i}"))
        for i in range(n)
    ]


def test_batch_iter_covers_every_example_once(hier):
    examples = _examples(10, hier)
    batches = list(batch_iter(examples, batch_size=3, seed=7))
    assert [len(b) for b in batches] == [3, 3, 3, 1]
    seen = [ex.mention.entity_id for b in batches for ex in b]
    assert sorted(seen) == sorted(ex.mention.entity_id for ex in examples)


def test_batch_iter_deterministic_and_epoch_dependent(hier):
    examples = _examples(8, hier)

    def ids(epoch):
        return [ex.mention.entity_id for b in batch_iter(examples, 4, seed=3, epoch=epoch) for ex in b]

    assert ids(0) == ids(0)
    assert ids(1) == ids(1)
    assert ids(0) != ids(1)  # reshuffles across epochs
    # seed + epoch is the stream key, so (seed=3, epoch=1) == (seed=4, epoch=0)
    shifted = [ex.mention.entity_id for b in batch_iter(examples, 4, seed=4, epoch=0) for ex in b]
    assert ids(1) == shifted


def test_batch_iter_errors(hier):
    with pytest.raises(CorpusError):
        list(batch_iter([], 4, seed=0))
    with pytest.raises(CorpusError):
        list(batch_iter(_examples(3, hier), 0, seed=0))


def test_batch_iter_single_batch(hier):
    examples = _examples(3, hier)
    batches = list(batch_iter(examples, batch_size=10, seed=0))
    assert len(batches) == 1 and len(batches[0]) == 3
