import json
import logging
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hiertype import (
    CycleError,
    EntityTypeTable,
    HierarchyError,
    HierarchyParseError,
    LinkKind,
    TypeHierarchy,
    UnknownTypeError,
    derive_cooccurrence_links,
    load_hierarchy,
    write_links,
)
import hiertype.hierarchy as hierarchy_module

from generators import random_dag_links
from oracles import is_acyclic, reachable


def build(links, types=()):
    return TypeHierarchy.from_links(links, types=types)


# ----------------------------------------------------------------------
# closure basics


def test_two_type_chain():
    h = build([("a", "b", "child_of")])
    assert h.type_names == ("a", "b")
    assert [t.name for t in h.ancestors("a")] == ["b"]
    assert h.ancestors("b") == ()
    assert h.depth_of("b") == 1
    assert h.depth_of("a") == 2
    assert h.stats().as_line() == "type_count=2 max_depth=2 mean_depth=1.5 links_child_of=1"


def test_diamond_closure_and_depth():
    h = build([("d", "b", "child_of"), ("d", "c", "child_of"),
               ("b", "a", "child_of"), ("c", "a", "child_of")])
    assert {t.name for t in h.ancestors("d")} == {"a", "b", "c"}
    assert {t.name for t in h.ancestors("b")} == {"a"}
    assert h.depth_of("a") == 1
    assert h.depth_of("d") == 3
    # closure adds the inputs themselves
    assert [t.name for t in h.closure(["b"])] == ["b", "a"] or \
        {t.name for t in h.closure(["b"])} == {"a", "b"}
    assert {t.name for t in h.closure(["d"])} == {"a", "b", "c", "d"}


def test_closure_is_sorted_by_index():
    h = build([("d", "b", "child_of"), ("b", "a", "child_of")])
    got = h.closure(["d"])
    assert [t.index for t in got] == sorted(t.index for t in got)


def test_isolated_types_have_no_ancestors():
    h = build([("a", "b", "child_of")], types=["lonely"])
    assert "lonely" in h
    assert h.ancestors("lonely") == ()
    assert h.depth_of("lonely") == 1


def test_resolve_accepts_name_index_and_typeid():
    h = build([("a", "b", "child_of")])
    t = h.resolve("a")
    assert h.resolve(0) == t and h.resolve(t) == t
    assert t.index == 0 and t.name == "a"
    with pytest.raises(UnknownTypeError):
        h.resolve("missing")
    with pytest.raises(UnknownTypeError):
        h.resolve(99)
    with pytest.raises(UnknownTypeError):
        h.resolve(("a", 1))  # TypeId-shaped but wrong index
    assert "missing" not in h


def test_multiple_parents_allowed():
    h = build([("x", "p", "child_of"), ("x", "q", "child_of")])
    assert {t.name for t in h.ancestors("x")} == {"p", "q"}


# ----------------------------------------------------------------------
# equivalence classes


def test_equivalence_class_includes_itself():
    h = build([("a", "b", "equivalence")])
    assert {t.name for t in h.ancestors("a")} == {"a", "b"}
    assert {t.name for t in h.ancestors("b")} == {"a", "b"}
    assert h.depth_of("a") == h.depth_of("b") == 1


def test_equivalence_class_shares_parents():
    h = build([("a", "b", "equivalence"), ("a", "r", "child_of")])
    assert {t.name for t in h.ancestors("a")} == {"a", "b", "r"}
    assert {t.name for t in h.ancestors("b")} == {"a", "b", "r"}
    assert h.depth_of("a") == h.depth_of("b") == 2
    assert h.depth_of("r") == 1


def test_equivalence_self_link_marks_class_cyclic():
    h = build([("a", "a", "equivalence")])
    assert [t.name for t in h.ancestors("a")] == ["a"]


def test_plain_types_exclude_self_from_ancestors():
    h = build([("a", "b", "child_of")])
    assert all(t.name != "a" for t in h.ancestors("a"))


def test_child_link_inside_equivalence_class_is_a_cycle():
    with pytest.raises(CycleError):
        build([("a", "b", "equivalence"), ("a", "b", "child_of")])


# ----------------------------------------------------------------------
# rejection


def test_cycle_rejected_with_concrete_cycle():
    with pytest.raises(CycleError) as exc:
        build([("a", "b", "child_of"), ("b", "c", "child_of"), ("c", "a", "child_of")])
    assert set(exc.value.cycle) == {"a", "b", "c"}
    assert "->" in str(exc.value)
    with pytest.raises(CycleError, match="^mem: hierarchy contains a cycle: a -> b -> a$") as exc:
        TypeHierarchy.from_links([("a", "b", "child_of"), ("b", "a", "child_of")], source="mem")
    assert exc.value.cycle == ("a", "b")


def test_self_link_rejected():
    with pytest.raises(HierarchyError):
        build([("a", "a", "child_of")])


def test_two_cycles_one_reported():
    links = [("a", "b", "child_of"), ("b", "a", "child_of"),
             ("x", "y", "child_of"), ("y", "x", "child_of")]
    with pytest.raises(CycleError) as exc:
        build(links)
    assert set(exc.value.cycle) in ({"a", "b"}, {"x", "y"})


def test_reported_cycle_is_a_closed_chain_of_links():
    rejected = 0
    for seed in range(400):
        rng = np.random.default_rng(seed)
        names, links = random_dag_links(rng, max_nodes=30, extra_edges=int(rng.integers(1, 6)))
        edges = {(b, a) if kind == "parent_of" else (a, b) for a, b, kind in links}
        try:
            TypeHierarchy.from_links(links, types=names)
        except CycleError as exc:
            rejected += 1
            cycle = exc.cycle
            assert len(set(cycle)) == len(cycle) >= 2, (seed, cycle)
            for child, parent in zip(cycle, cycle[1:] + cycle[:1]):
                assert (child, parent) in edges, (seed, cycle)
    assert rejected >= 50


def test_unknown_kind_rejected():
    with pytest.raises(HierarchyError):
        build([("a", "b", "sibling_of")])


LINK_FAULTS = {
    "empty_name": (("a", "", "child_of"), "empty type name"),
    "unknown_kind": (("a", "b", "bogus"), "unknown link kind: 'bogus'"),
    "self_link": (("a", "a", "child_of"), "self link on 'a' (child_of)"),
}


@pytest.mark.parametrize("fault", sorted(LINK_FAULTS))
@pytest.mark.parametrize("route", ["text", "from_links", "from_dict"])
def test_link_faults_name_their_location(tmp_path, route, fault):
    """One resolver judges every route's links; each route names where the
    faulty link sits: file:line for text, the link's index otherwise."""
    bad, message = LINK_FAULTS[fault]
    links = [("x", "y", "child_of"), bad]
    with pytest.raises(HierarchyError) as exc:
        if route == "text":
            p = tmp_path / "links.tsv"
            p.write_text("".join("\t".join(link) + "\n" for link in links), encoding="utf-8")
            load_hierarchy(str(p))
        elif route == "from_links":
            TypeHierarchy.from_links(links, source="mem")
        else:
            TypeHierarchy.from_dict({"format": "hiertype-hierarchy", "version": 1,
                                     "types": ["x", "y", "a", "b"], "links": links},
                                    source="h.json")
    where = {"text": f"{tmp_path / 'links.tsv'}:2", "from_links": "mem: link 1",
             "from_dict": "h.json: link 1"}[route]
    assert str(exc.value) == f"{where}: {message}"


def test_thousand_type_chain_needs_no_recursion():
    names = [f"t{i:04d}" for i in range(1000)]
    h = build([(child, parent, "child_of") for parent, child in zip(names, names[1:])])
    assert h.depth_of(names[-1]) == 1000
    assert [t.name for t in h.ancestors(names[-1])] == sorted(names[:-1], key=lambda n: h.resolve(n).index)
    assert h.depth_of(names[0]) == 1 and h.ancestors(names[0]) == ()


# ----------------------------------------------------------------------
# link text parsing


def test_parent_of_rows_are_reversed(tmp_path):
    p = tmp_path / "links.tsv"
    p.write_text("b\ta\tparent_of\n", encoding="utf-8")
    h = load_hierarchy(str(p))
    assert [t.name for t in h.ancestors("a")] == ["b"]
    assert h.links[0].child.name == "a" and h.links[0].parent.name == "b"
    assert h.links[0].kind is LinkKind.CHILD_OF


def test_hypernym_alias(tmp_path):
    p = tmp_path / "links.tsv"
    p.write_text("dog\tcanine\thypernym\n", encoding="utf-8")
    h = load_hierarchy(str(p))
    assert h.links[0].kind is LinkKind.WORDNET_HYPERNYM
    assert [t.name for t in h.ancestors("dog")] == ["canine"]


def test_comments_blanks_and_isolated_lines(tmp_path):
    p = tmp_path / "links.tsv"
    p.write_text("# header\n\na\tb\tchild_of\nlonely\n", encoding="utf-8")
    h = load_hierarchy(str(p))
    assert set(h.type_names) == {"a", "b", "lonely"}
    assert h.ancestors("lonely") == ()


def test_parse_error_carries_path_and_line(tmp_path):
    p = tmp_path / "links.tsv"
    p.write_text("a\tb\tchild_of\na\tb\n", encoding="utf-8")
    with pytest.raises(HierarchyParseError) as exc:
        load_hierarchy(str(p))
    assert exc.value.line_no == 2
    assert f"{p}:2:" in str(exc.value)


def test_parse_rejects_empty_names_and_bad_kinds(tmp_path):
    p = tmp_path / "links.tsv"
    p.write_text("\tb\tchild_of\n", encoding="utf-8")
    with pytest.raises(HierarchyParseError):
        load_hierarchy(str(p))
    p.write_text("a\tb\tnonsense\n", encoding="utf-8")
    with pytest.raises(HierarchyParseError):
        load_hierarchy(str(p))


def test_a_form_feed_in_a_link_field_does_not_shift_line_numbers(tmp_path):
    p = tmp_path / "links.tsv"
    p.write_text("a\tb\tchild_of\nc\fd\tb\tchild_of\ne\tb\n", encoding="utf-8")
    with pytest.raises(HierarchyParseError) as exc:
        load_hierarchy(str(p))
    assert str(exc.value) == f"{p}:3: expected 3 tab-separated fields, got 2"


def test_each_link_of_a_links_file_is_resolved_once(tmp_path, monkeypatch):
    calls = []
    resolve = hierarchy_module._resolve_link
    monkeypatch.setattr(hierarchy_module, "_resolve_link", lambda *link: calls.append(link) or resolve(*link))
    p = tmp_path / "links.tsv"
    p.write_text("a\tb\tchild_of\nc\tb\tparent_of\nlonely\nb\tx\tequivalence\n", encoding="utf-8")
    assert len(load_hierarchy(str(p)).links) == 3
    assert calls == [("a", "b", "child_of"), ("c", "b", "parent_of"), ("b", "x", "equivalence")]


def test_duplicate_links_collapse_with_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="hiertype.hierarchy"):
        h = build([("a", "b", "child_of"), ("a", "b", "child_of")])
    assert len(h.links) == 1
    assert any("duplicate" in r.message for r in caplog.records)


def test_equivalence_duplicates_canonicalize_both_directions():
    h = build([("a", "b", "equivalence"), ("b", "a", "equivalence")])
    assert len(h.links) == 1


def test_first_appearance_interning_order():
    h = build([("z", "m", "child_of"), ("a", "z", "child_of")])
    assert h.type_names == ("z", "m", "a")


# ----------------------------------------------------------------------
# serialization


def test_json_roundtrip_preserves_everything(tmp_path):
    h = build([("d", "b", "child_of"), ("b", "a", "child_of"),
               ("x", "y", "equivalence")], types=["lonely"])
    p = tmp_path / "h.json"
    h.save(str(p))
    g = load_hierarchy(str(p))
    assert g.type_names == h.type_names
    assert g.links == h.links
    for name in h.type_names:
        assert g.ancestors(name) == h.ancestors(name)
        assert g.depth_of(name) == h.depth_of(name)


def test_save_bytes_are_deterministic(tmp_path):
    h = build([("d", "b", "child_of"), ("b", "a", "child_of")])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    h.save(str(a))
    build([("d", "b", "child_of"), ("b", "a", "child_of")]).save(str(b))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_tampered_ancestors_rejected(tmp_path):
    h = build([("a", "b", "child_of")])
    data = h.to_dict()
    data["ancestors"] = [[], []]  # drop a's real ancestor
    with pytest.raises(HierarchyError):
        TypeHierarchy.from_dict(data)


def test_link_outside_declared_types_rejected():
    data = {"format": "hiertype-hierarchy", "version": 1, "types": ["a", "b"],
            "links": [["a", "zzz", "child_of"]]}
    with pytest.raises(HierarchyError, match="^h.json: link 0: type 'zzz' is not in the declared order$"):
        TypeHierarchy.from_dict(data, source="h.json")
    data["links"] = [["a", "b", "child_of"], ["x", "a", "parent_of"]]
    with pytest.raises(HierarchyError, match="^h.json: link 1: type 'x' is not in the declared order$"):
        TypeHierarchy.from_dict(data, source="h.json")


@pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["true", "float", "string"])
def test_version_must_be_the_integer_one(version):
    # True == 1.0 == 1, so a comparison alone let these load as version 1
    data = build([("a", "b", "child_of")]).to_dict()
    data["version"] = version
    with pytest.raises(HierarchyError) as exc:
        TypeHierarchy.from_dict(data, source="h.json")
    assert str(exc.value) == (f"h.json: malformed hierarchy payload: 'version' must be an "
                              f"integer, got {version!r}")


def test_bad_payloads_rejected():
    with pytest.raises(HierarchyError):
        TypeHierarchy.from_dict({"format": "something-else"})
    with pytest.raises(HierarchyError):
        TypeHierarchy.from_dict({"format": "hiertype-hierarchy", "version": 99})
    with pytest.raises(HierarchyError):
        TypeHierarchy.from_dict({"format": "hiertype-hierarchy", "version": 1, "types": ["a"]})
    data = build([("a", "b", "child_of")]).to_dict()
    for bad in ([["x"], []], 5, [5, []], [[None], []]):
        data["ancestors"] = bad
        with pytest.raises(HierarchyError, match="^h.json: malformed"):
            TypeHierarchy.from_dict(data, source="h.json")


@pytest.mark.parametrize("key, value, message", [
    ("types", "ab", "malformed hierarchy payload: 'types' must be a list of strings, got 'ab'"),
    ("types", {"a": 1, "b": 2}, "malformed hierarchy payload: 'types' must be a list of strings, "
                                "got {'a': 1, 'b': 2}"),
    ("types", ["a", 1], "malformed hierarchy payload: 'types' must be a list of strings, "
                        "got ['a', 1]; item [1] is 1"),
    ("links", "ab", "malformed hierarchy payload: 'links' must be a list, got 'ab'"),
    ("links", [["a", "b", "child_of"], "abc"], "link 1: must be a list of three strings, got 'abc'"),
    ("links", [["a", "b"]], "link 0: must be a list of three strings, got ['a', 'b']"),
    ("links", [["a", "b", "child_of", "x"]],
     "link 0: must be a list of three strings, got ['a', 'b', 'child_of', 'x']"),
    ("links", [["a", 1, "child_of"]], "link 0: must be a list of three strings, got ['a', 1, 'child_of']"),
    ("ancestors", [[1], [True]], "malformed hierarchy payload: 'ancestors' must be a list of lists "
                                 "of integers or null, got [[1], [True]]; item [1][0] is True"),
    ("ancestors", [[1.0], []], "malformed hierarchy payload: 'ancestors' must be a list of lists "
                               "of integers or null, got [[1.0], []]; item [0][0] is 1.0"),
    ("ancestors", [[1], "1"], "malformed hierarchy payload: 'ancestors' must be a list of lists "
                              "of integers or null, got [[1], '1']; item [1] is '1'"),
    # the whole payload: these once raised AttributeError on .get
    (None, [], "serialized hierarchy must be an object, got []"),
    (None, "x", "serialized hierarchy must be an object, got 'x'"),
    (None, 1, "serialized hierarchy must be an object, got 1"),
    (None, 1.0, "serialized hierarchy must be an object, got 1.0"),
    (None, None, "serialized hierarchy must be an object, got None"),
    (None, True, "serialized hierarchy must be an object, got True"),
])
def test_payload_fields_are_not_coerced(key, value, message):
    # a types string once loaded as one type per character, and ancestor
    # values went through int()
    data = build([("a", "b", "child_of")]).to_dict()
    if key is None:
        data = value
    else:
        data[key] = value
    with pytest.raises(HierarchyError) as exc:
        TypeHierarchy.from_dict(data, source="h.json")
    assert str(exc.value) == f"h.json: {message}"


def test_load_sniffs_json_vs_links(tmp_path):
    h = build([("a", "b", "child_of")])
    j = tmp_path / "h.json"
    h.save(str(j))
    assert load_hierarchy(str(j)).type_names == h.type_names
    t = tmp_path / "h.tsv"
    t.write_text("a\tb\tchild_of\n", encoding="utf-8")
    assert load_hierarchy(str(t)).type_names == ("a", "b")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(HierarchyError):
        load_hierarchy(str(bad))


def test_write_links_roundtrip(tmp_path):
    h = build([("d", "b", "child_of"), ("x", "y", "equivalence")])
    p = tmp_path / "out.tsv"
    write_links(str(p), h.links, header="rebuilt")
    text = p.read_text(encoding="utf-8")
    assert text.startswith("# rebuilt\n")
    g = load_hierarchy(str(p))
    assert g.links == h.links


def test_stats_json_matches_line():
    h = build([("a", "b", "child_of"), ("x", "y", "equivalence")])
    d = h.stats().as_dict()
    assert d["type_count"] == 4
    assert d["links_child_of"] == 1 and d["links_equivalence"] == 1
    assert h.stats().as_line().startswith("type_count=4 max_depth=2 ")


# ----------------------------------------------------------------------
# randomized closure properties


@given(st.integers(0, 10_000), st.booleans())
def test_random_graphs_match_reachability_oracle(seed, with_equiv):
    rng = np.random.default_rng(seed)
    names, links = random_dag_links(rng, max_nodes=18, p_equiv=0.25 if with_equiv else 0.0)
    if not is_acyclic(names, links):
        with pytest.raises(CycleError):
            TypeHierarchy.from_links(links, types=names)
        return
    h = TypeHierarchy.from_links(links, types=names)
    for name in names:
        assert {t.name for t in h.ancestors(name)} == reachable(links, name)


@given(st.integers(0, 10_000))
def test_dag_closure_is_transitive_and_irreflexive(seed):
    rng = np.random.default_rng(seed)
    names, links = random_dag_links(rng, max_nodes=15)
    h = TypeHierarchy.from_links(links, types=names)
    for name in names:
        anc = h.ancestors(name)
        assert all(t.name != name for t in anc)
        for a in anc:
            assert set(h.ancestors(a)) <= set(anc)
            assert h.depth_of(a) < h.depth_of(name)


@given(st.integers(0, 10_000))
def test_closure_is_idempotent_and_monotone(seed):
    rng = np.random.default_rng(seed)
    names, links = random_dag_links(rng, max_nodes=15, p_equiv=0.2)
    if not is_acyclic(names, links):
        return
    h = TypeHierarchy.from_links(links, types=names)
    k = max(1, len(names) // 3)
    subset = list(rng.choice(names, size=k, replace=False))
    once = h.closure(subset)
    assert set(h.closure(once)) == set(once)
    assert set(h.closure(subset[:1])) <= set(once)


# ----------------------------------------------------------------------
# entity tables and co-occurrence links


def test_entity_table_load(tmp_path):
    p = tmp_path / "entities.tsv"
    p.write_text("# comment\ne1\tA,B\ne2\tA\ne1\tC\nbare\n", encoding="utf-8")
    table = EntityTypeTable.load(str(p))
    assert len(table) == 3
    assert table.types_of("e1") == {"A", "B", "C"}
    assert table.types_of("e2") == {"A"}
    assert table.types_of("bare") == frozenset()
    assert table.types_of("missing") == frozenset()
    assert table.all_type_names() == ("A", "B", "C")
    assert "e1" in table and "missing" not in table


def test_entity_table_rejects_extra_fields(tmp_path):
    p = tmp_path / "entities.tsv"
    p.write_text("e1\tA\textra\n", encoding="utf-8")
    with pytest.raises(HierarchyParseError):
        EntityTypeTable.load(str(p))


def test_cooccurrence_fixture_exact():
    table = EntityTypeTable({"e1": {"A", "B"}, "e2": {"A", "B"}, "e3": {"A"}})
    links = derive_cooccurrence_links(table, threshold=0.7)
    # P(A|B) = 1.0 passes, P(B|A) = 2/3 does not
    assert [(l.child.name, l.parent.name, l.kind) for l in links] == [("B", "A", LinkKind.FB_FB)]


def test_cooccurrence_threshold_boundary():
    table = EntityTypeTable({"e1": {"A", "B"}, "e2": {"A", "B"}, "e3": {"A"}})
    got = derive_cooccurrence_links(table, threshold=2 / 3)
    assert {(l.child.name, l.parent.name) for l in got} == {("B", "A"), ("A", "B")}


def test_cooccurrence_allow_list():
    table = EntityTypeTable({"e1": {"A", "B"}, "e2": {"A", "B"}, "e3": {"A"}})
    assert derive_cooccurrence_links(table, 0.7, allowed_pairs={("A", "B")}) == []
    got = derive_cooccurrence_links(table, 0.7, allowed_pairs={("B", "A")})
    assert [(l.child.name, l.parent.name) for l in got] == [("B", "A")]


def test_cooccurrence_threshold_validation():
    table = EntityTypeTable({"e1": {"A"}})
    for bad in (0.0, -0.1, 1.0001):
        with pytest.raises(HierarchyError):
            derive_cooccurrence_links(table, threshold=bad)


def test_cooccurrence_output_sorted_and_loadable(tmp_path):
    # carriers: X {e0} < Y {e0,e1} < Z {e0,e1,e2}, a strict chain
    table = EntityTypeTable({"e0": {"X", "Y", "Z"}, "e1": {"Y", "Z"}, "e2": {"Z"}})
    links = derive_cooccurrence_links(table, threshold=1.0)
    keys = [(l.child.name, l.parent.name) for l in links]
    assert keys == sorted(keys)
    assert keys == [("X", "Y"), ("X", "Z"), ("Y", "Z")]
    p = tmp_path / "derived.tsv"
    write_links(str(p), links)
    h = load_hierarchy(str(p))
    assert set(h.type_names) == {"X", "Y", "Z"}
    assert {t.name for t in h.ancestors("X")} == {"Y", "Z"}


@pytest.mark.skipif(not os.environ.get("TYPENET_LINKS"),
                    reason="set TYPENET_LINKS to a full released links file to run")
def test_released_links_file_loads_clean():
    h = load_hierarchy(os.environ["TYPENET_LINKS"])
    stats = h.stats()
    assert stats.type_count > 1000
    assert stats.max_depth >= 5
    assert sum(1 for t in h.type_names if h.ancestors(t)) > stats.type_count * 0.9
