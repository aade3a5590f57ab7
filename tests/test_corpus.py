import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles

from hiertype import (
    CorpusError,
    CorpusRecord,
    EmbeddingError,
    EmbeddingTable,
    EntityTypeTable,
    LabeledExample,
    Mention,
    TypeHierarchy,
    batch_iter,
    distant_label,
    examples_to_records,
    label_records,
    load_train_config,
    read_corpus,
    write_corpus,
)
from hiertype.cli import _load_allowed_pairs, main as cli_main


@pytest.fixture
def hier():
    return TypeHierarchy(
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


@pytest.fixture
def per_line_loads(monkeypatch):
    """Paths that ``EmbeddingTable.load`` handed to its per-line loader."""
    calls = []
    per_line = EmbeddingTable._load_per_line

    def spy(cls, path, dim):
        calls.append(path)
        return per_line(path, dim)

    monkeypatch.setattr(EmbeddingTable, "_load_per_line", classmethod(spy))
    return calls


def test_embedding_lookup_and_oov(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("the 1.0 2.0\nCat 3.5 -1.25\n", encoding="utf-8")
    emb = EmbeddingTable.load(str(p), dim=2)
    assert emb.dim == 2 and len(emb) == 2
    assert np.array_equal(emb.vectors(["the"])[0], [1.0, 2.0])
    assert np.array_equal(emb.vectors(["Cat"])[0], [3.5, -1.25])
    # case sensitive, unknown tokens read as zeros
    assert np.array_equal(emb.vectors(["cat"])[0], [0.0, 0.0])
    assert "the" in emb and "cat" not in emb
    got = emb.vectors(["Cat", "nope", "the"])
    assert np.array_equal(got, [[3.5, -1.25], [0.0, 0.0], [1.0, 2.0]])


def test_embedding_matrix_is_read_only(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("a 1.0\n", encoding="utf-8")
    emb = EmbeddingTable.load(str(p), dim=1)
    with pytest.raises(ValueError):
        emb.matrix[0, 0] = 9.0
    emb.vectors(["zzz", "a"])[:] = 9.0  # a fresh array, so the table stays as it was
    assert np.array_equal(emb.vectors(["zzz", "a"]), [[0.0], [1.0]])


def test_embedding_load_errors(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("a 1.0 2.0\nb 1.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingError) as exc:
        EmbeddingTable.load(str(p), dim=2)
    assert ":2:" in str(exc.value)
    assert str(exc.value) == f"{p}:2: expected 2 values, got 1"

    p.write_text("a 1.0 oops\n", encoding="utf-8")
    with pytest.raises(EmbeddingError) as exc:
        EmbeddingTable.load(str(p), dim=2)
    assert str(exc.value) == f"{p}:1: could not convert string to float: 'oops'"

    # every row the same wrong width, a lone token, and a comment character
    # float() does not read: np.loadtxt alone would take the first and last
    for text, message in (("a 1 2 3\nb 4 5 6\n", "1: expected 2 values, got 3"),
                          ("a\n", "1: expected 2 values, got 0"),
                          ("a 1.0 2.0#\n", "1: could not convert string to float: '2.0#'")):
        p.write_text(text, encoding="utf-8")
        with pytest.raises(EmbeddingError) as exc:
            EmbeddingTable.load(str(p), dim=2)
        assert str(exc.value) == f"{p}:{message}"

    p.write_text("\n\n", encoding="utf-8")
    with pytest.raises(EmbeddingError) as exc:
        EmbeddingTable.load(str(p), dim=2)
    assert str(exc.value) == f"{p}: no embeddings found"

    with pytest.raises(EmbeddingError) as exc:
        EmbeddingTable.load(str(p), dim=0)
    assert str(exc.value) == "embedding dimension must be positive, got 0"


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


def test_embedding_duplicate_token_keeps_first(tmp_path, caplog, per_line_loads):
    p = tmp_path / "emb.txt"
    # the second file holds a literal only float() reads, so the per-line
    # loader reads it after the one-pass parse gave up
    for text, per_line in (("a 1.0\na 2.0\n", 0), ("a 1.0\na 2.0\nb 1_0\n", 1)):
        p.write_text(text, encoding="utf-8")
        caplog.clear()
        per_line_loads.clear()
        with caplog.at_level(logging.WARNING, logger="hiertype.corpus"):
            emb = EmbeddingTable.load(str(p), dim=1)
        assert len(emb) == text.count("\n") - 1
        assert emb.vectors(["a"])[0, 0] == 1.0
        assert any("duplicate" in r.message for r in caplog.records)
        assert [r.getMessage() for r in caplog.records] == [
            f"{p}:2: duplicate token 'a', keeping first"]
        assert len(per_line_loads) == per_line


def test_embedding_table_shape_check():
    with pytest.raises(EmbeddingError):
        EmbeddingTable(["a", "b"], np.zeros((3, 2)))
    with pytest.raises(EmbeddingError):
        EmbeddingTable(["a", "a"], np.zeros((2, 2)))


def test_embedding_table_freezes_a_view_not_the_callers_array():
    a = np.zeros((2, 3))
    table = EmbeddingTable(["x", "y"], a)
    assert a.flags.writeable
    assert not table.matrix.flags.writeable
    assert np.shares_memory(a, table.matrix)
    a[1, 2] = 4.0
    assert table.vectors(["y"])[0, 2] == 4.0


# Literals whose float64 bits are easy to get wrong: a subnormal, a signed
# zero, the largest double, a mantissa beyond 17 digits, and an explicit
# sign with no integer digits.  np.loadtxt reads these as float() does.
HARD_LITERALS = ("1e-320", "-0.0", "1.7976931348623157e308",
                 "0.1000000000000000055511151231257827", "+.5e-3")
# float() also reads underscores and non-ASCII digits; np.loadtxt does not,
# so a file that holds one goes to the per-line loader
PER_LINE_LITERALS = ("1_0", "1e5_0", "\u0661\u0662", "\uff11\uff12")
SEPARATORS = (" ", "\t", "\xa0", "\u2003", "\u3000", "\x0c", "\x1c")
LINE_ENDS = (b"\n", b"\r\n", b"\r")


@pytest.mark.parametrize("literals, per_line", [
    (HARD_LITERALS, 0), (HARD_LITERALS + PER_LINE_LITERALS, 1)])
def test_embedding_load_reads_hard_literals_bit_exactly(tmp_path, per_line_loads,
                                                        literals, per_line):
    p = tmp_path / "emb.txt"
    rows = [(lit, literals[-1 - i]) for i, lit in enumerate(literals)]
    with open(p, "wb") as fh:
        for i, values in enumerate(rows):
            sep = SEPARATORS[i % len(SEPARATORS)]
            line = sep.join((f"t{i}", *values)).encode("utf-8")
            fh.write(line + LINE_ENDS[i % len(LINE_ENDS)])
    emb = EmbeddingTable.load(str(p), dim=2)
    want = np.array([[float(v) for v in values] for values in rows])
    assert emb.tokens == tuple(f"t{i}" for i in range(len(rows)))
    assert np.array_equal(emb.matrix.view(np.int64), want.view(np.int64))
    assert len(per_line_loads) == per_line


# pieces of generated embedding files: few tokens so duplicates are common,
# rows of the right width or not, values that are good, non-finite or not
# numbers at all, and every separator str.split() and np.loadtxt agree on
EMB_DIM = 2
EMB_TOKENS = st.sampled_from(["a", "b", "c", "d", "e", "\u00e9"])
EMB_GOOD = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     st.integers(-10**20, 10**20).map(str),
                     st.sampled_from(["0.5", "-1e-320", "+.5e-3", "1E5"]))
EMB_ODD = st.sampled_from(["nan", "-inf", "Infinity", "1e999", "oops", "0x1p3", "1_0",
                           "\u0661", "1.0#", ".", "1,5"])
EMB_BLANK = st.sampled_from(["", " ", "\t\x0c"])


def _emb_row(values):
    return st.tuples(EMB_TOKENS, values, st.sampled_from(SEPARATORS)).map(
        lambda t: t[2].join((t[0], *t[1])))


EMB_CLEAN_LINE = EMB_BLANK | _emb_row(st.lists(EMB_GOOD, min_size=EMB_DIM, max_size=EMB_DIM))
EMB_LINE = EMB_CLEAN_LINE | _emb_row(st.lists(EMB_GOOD | EMB_ODD, max_size=4))
# a file of clean lines can still hold duplicates; it takes the one-pass route
EMB_HEAD = st.lists(EMB_CLEAN_LINE, max_size=8) | st.lists(EMB_LINE, max_size=8)


def test_embedding_load_matches_the_per_line_oracle(tmp_path, caplog, per_line_loads):
    p = tmp_path / "emb.txt"
    paths = {"one pass": 0, "per line": 0}

    @settings(max_examples=150)
    @given(EMB_HEAD, st.lists(EMB_LINE, max_size=4),
           st.sampled_from(LINE_ENDS), st.integers(-12, 3))
    def check(head, tail, end, bad_byte_at):
        # a padding block of good rows pushes the tail past the first 8 KiB
        # text chunk, where a byte that is not UTF-8 sits
        lines = [line.encode("utf-8") for line in head]
        if bad_byte_at >= 0:
            lines += [f"pad{i} 0.25 -1.5".encode() for i in range(600)]
            tail_lines = [line.encode("utf-8") for line in tail]
            tail_lines.insert(min(bad_byte_at, len(tail_lines)), b"a\xff 1 2")
            lines += tail_lines
        p.write_bytes(b"".join(line + end for line in lines))
        want_warnings = []
        try:
            want = oracles.load_embeddings_per_line(str(p), EMB_DIM, want_warnings)
        except oracles.EmbeddingFileError as exc:
            want = str(exc)
        caplog.clear()
        per_line_loads.clear()
        try:
            emb = EmbeddingTable.load(str(p), dim=EMB_DIM)
        except EmbeddingError as exc:
            assert str(exc) == want
        else:
            assert not isinstance(want, str), want
            tokens, rows = want
            assert emb.tokens == tuple(tokens)
            got, expect = emb.matrix, np.array(rows, dtype=np.float64)
            assert np.array_equal(got.view(np.int64), expect.view(np.int64))
        assert [r.getMessage() for r in caplog.records] == want_warnings
        paths["per line" if per_line_loads else "one pass"] += 1

    with caplog.at_level(logging.WARNING, logger="hiertype.corpus"):
        check()
    assert all(paths.values()), paths


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


@pytest.mark.parametrize("field, message", [
    ('"types":"ab"', "types must be a list of strings, got 'ab'"),
    ('"types":[1,null]', "types must be a list of strings, got [1, None]; item [0] is 1"),
    ('"types":{"a":1}', "types must be a list of strings, got {'a': 1}"),
    ('"entity_id":null', "entity_id must be a string, got None"),
])
def test_jsonl_types_and_entity_id_are_not_coerced(tmp_path, field, message):
    # a types string was split into one type per character, and a
    # non-string element or id went through str()
    p = tmp_path / "corpus.jsonl"
    p.write_text('{"tokens":["x"],"span":[0,0],"types":["a"]}\n'
                 f'{{"tokens":["x"],"span":[0,0],{field}}}\n', encoding="utf-8")
    with pytest.raises(CorpusError) as exc:
        read_corpus(str(p))
    assert str(exc.value) == f"{p}:2: {message}"


# ----------------------------------------------------------------------
# text inputs: byte-order mark, line ends, line numbers


def _embeddings(path):
    emb = EmbeddingTable.load(path, dim=2)
    return emb.tokens, emb.matrix.tobytes()


# each text format, one file of it, and a reader whose result compares by value
TEXT_FORMATS = {
    "config": ("# trainer\ndim=4\nseed=3\n", load_train_config),
    "links": ("# header\na\tb\tchild_of\nlonely\n", lambda p: TypeHierarchy.load(p).to_dict()),
    "hierarchy json": (json.dumps(TypeHierarchy([("a", "b", "child_of")]).to_dict(), indent=1),
                       lambda p: TypeHierarchy.load(p).to_dict()),
    "entity table": ("e1\tA,B\ne2\tB\n",
                     lambda p: {e: t.types_of(e) for t in [EntityTypeTable.load(p)] for e in t.entities()}),
    "allowed pairs": ("A\tB\nB\tC\n", _load_allowed_pairs),
    "tsv corpus": ("e1\t1\t1\tthe cat sat\tcat\n", read_corpus),
    "jsonl corpus": ('{"tokens":["a"],"span":[0,0],"types":["t"]}\n', read_corpus),
    # 1_0 is a literal only float() reads, so that file takes the per-line route
    "embeddings one pass": ("a 1 2\nb 3 4\n", _embeddings),
    "embeddings per line": ("a 1 2\nb 1_0 4\n", _embeddings),
}


@pytest.mark.parametrize("fmt", sorted(TEXT_FORMATS))
def test_a_byte_order_mark_is_dropped(tmp_path, fmt, per_line_loads):
    text, read = TEXT_FORMATS[fmt]
    p = tmp_path / "input"
    p.write_bytes(text.encode("utf-8"))
    plain = read(str(p))
    p.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert read(str(p)) == plain
    assert len(per_line_loads) == 2 * (fmt == "embeddings per line")


def test_corpus_round_trips_tokens_holding_unicode_line_separators(tmp_path):
    # str.splitlines() breaks at each of these; only \n, \r\n and \r end a line
    recs = [CorpusRecord(tokens=(f"x{c}y", "z"), span=(0, 1), entity_id=f"e{c}", types=(f"t{c}",))
            for c in "\v\f\x1c\x1d\x1e\x85\u2028\u2029"]
    p = tmp_path / "corpus.jsonl"
    write_corpus(str(p), recs)
    assert read_corpus(str(p)) == recs


def test_a_form_feed_in_a_tsv_field_does_not_shift_line_numbers(tmp_path):
    p = tmp_path / "corpus.tsv"
    p.write_text("e1\t0\t0\ta\tcat\ne2\t0\t0\tb\tcat\f\ne3\t0\n", encoding="utf-8")
    with pytest.raises(CorpusError) as exc:
        read_corpus(str(p))
    assert str(exc.value) == f"{p}:3: expected 4 or 5 tab-separated fields, got 2"


def test_tsv_comments_may_be_indented(tmp_path):
    p = tmp_path / "corpus.tsv"
    p.write_text("  # note\ne1\t0\t0\ta\n", encoding="utf-8")
    assert read_corpus(str(p)) == [CorpusRecord(tokens=("a",), span=(0, 0), entity_id="e1")]


def test_carriage_return_lines_locate_bytes_that_are_not_utf8(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_bytes(b"a 1 2\rb 3 4\rc\xff 5 6\r")
    with pytest.raises(EmbeddingError) as exc:
        EmbeddingTable.load(str(p), dim=2)
    assert str(exc.value) == f"{p}:3: not valid UTF-8: invalid start byte"


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
