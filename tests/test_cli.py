import ast
import copy
import errno
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hiertype import CheckpointError, CorpusError, EpochMetrics, HierarchyError, HiertypeError, \
    TypeHierarchy, errors, load_checkpoint, read_corpus, save_checkpoint, training, write_corpus, \
    write_history, write_links
from hiertype.cli import build_parser, main

import synthtask

LINKS = "cat\tanimal\tchild_of\ncar\tthing\tchild_of\n"
STATS_LINE = "type_count=4 max_depth=2 mean_depth=1.5 links_child_of=2"


def test_package_imports_only_the_standard_library_and_numpy():
    # numpy is the one runtime dependency; test-only modules stay out of src/
    repo = Path(__file__).resolve().parents[1]
    for path in sorted((repo / "src" / "hiertype").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            for root in roots:
                assert root in sys.stdlib_module_names or root == "numpy", (path.name, root)
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(repo / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == ["numpy>=1.24"]


def test_json_is_parsed_only_by_parse_json():
    # errors.parse_json is the one JSON route: it owns the fault form and
    # turns a too-deep document into a located error
    repo = Path(__file__).resolve().parents[1]
    users = set()
    for path in sorted((repo / "src" / "hiertype").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name) and node.value.id == "json") or (
                    isinstance(node, ast.ImportFrom) and node.module == "json"):
                users.add(path.name)
    assert users == {"errors.py"}


def test_text_files_are_read_only_through_errors():
    # errors.text_lines is the one text route: it owns the encoding, the
    # byte-order mark, the line ends and the located decode fault
    repo = Path(__file__).resolve().parents[1]
    splitters, readers = set(), set()
    for path in sorted((repo / "src" / "hiertype").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("splitlines", "read_text"):
                splitters.add(path.name)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
                modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
                assert all(isinstance(m, ast.Constant) for m in modes), (path.name, node.lineno)
                mode = modes[0].value if modes else "r"
                if "b" not in mode and ("+" in mode or not set(mode) & set("wax")):
                    readers.add(path.name)
    assert splitters == set()
    assert readers == {"errors.py"}


_MODULE_OPENERS = {"io", "builtins", "codecs", "gzip", "bz2", "lzma", "tarfile", "zipfile"}


def _writes_files(source: str) -> bool:
    """Does ``source`` call anything that opens a file for writing or writes
    one?  A mode that is not a constant counts as a write."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        owner = func.value.id if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) else None
        if name == "open" and owner != "os":
            # open(file, mode) and module.open(file, mode); Path.open(mode)
            index = 1 if isinstance(func, ast.Name) or owner in _MODULE_OPENERS else 0
            modes = node.args[index:index + 1] + [k.value for k in node.keywords if k.arg == "mode"]
            mode = modes[0].value if modes and isinstance(modes[0], ast.Constant) else "w" if modes else "r"
            if not isinstance(mode, str) or set(mode) & set("wax+"):
                return True
        elif (name in ("write_text", "write_bytes", "tofile", "savetxt")
              or owner == "os" and name in ("open", "fdopen", "replace", "rename", "write")
              or owner in ("np", "numpy") and name.startswith("save")
              or owner == "shutil" and (name.startswith("copy") or name == "move")):
            return True
    return False


def test_the_write_guard_sees_every_way_to_write_a_file():
    for source in ["open(p, 'w')", "open(p, mode)", "open(p, mode='a')", "open(p, 'r+b')",
                   "Path(p).open('w')", "Path(p).open(mode)", "io.open(p, 'x')", "gzip.open(p, 'wt')",
                   "os.fdopen(fd, 'w')", "os.open(p, flags)", "np.save(p, a)", "numpy.savez(p, a=a)",
                   "a.tofile(p)", "Path(p).write_text(t)", "shutil.copyfile(a, b)", "shutil.move(a, b)"]:
        assert _writes_files(source), source
    for source in ["open(p)", "open(p, 'rb')", "open(p, encoding='utf-8')", "Path(p).open()",
                   "Path(p).open('rb')", "gzip.open(p, 'rt')", "np.load(p)", "fh.read()"]:
        assert not _writes_files(source), source


def test_files_are_written_only_through_errors():
    # errors.write_output is the one output route: it owns the mode, the encoding
    # and the moment the old file is replaced
    repo = Path(__file__).resolve().parents[1]
    writers = {path.name for path in sorted((repo / "src" / "hiertype").glob("*.py"))
               if _writes_files(path.read_text(encoding="utf-8"))}
    assert writers == {"errors.py"}


@pytest.fixture
def task(tmp_path):
    """Micro end-to-end task: two separable types plus their parents."""
    rng = np.random.default_rng(5)
    d = 4
    paths = {
        "links": tmp_path / "links.tsv",
        "emb": tmp_path / "emb.txt",
        "train": tmp_path / "train.jsonl",
        "dev": tmp_path / "dev.jsonl",
        "config": tmp_path / "train.cfg",
        "model": tmp_path / "model.ckpt",
    }
    paths["links"].write_text(LINKS, encoding="utf-8")
    vocab = ["meow", "vroom", "the", "a"]
    with open(paths["emb"], "w", encoding="utf-8") as fh:
        for tok in vocab:
            fh.write(tok + " " + " ".join(repr(float(v)) for v in rng.normal(size=d)) + "\n")

    def rows(count, start=0):
        out = []
        for i in range(start, start + count):
            noun, ty = ("meow", "cat") if i % 2 == 0 else ("vroom", "car")
            filler = vocab[2 + i % 2]
            out.append({"tokens": [filler, noun, filler], "span": [1, 1],
                        "entity_id": f"e{i}", "types": [ty]})
        return out

    for name, count, start in (("train", 12, 0), ("dev", 6, 100)):
        with open(paths[name], "w", encoding="utf-8") as fh:
            for obj in rows(count, start):
                fh.write(json.dumps(obj) + "\n")
    paths["config"].write_text(
        "dim=4\nfilter_width=3\nmention_score_kind=dot\ndropout=0.0\n"
        "learning_rate=0.05\nbatch_size=4\nmax_epochs=6\npatience=6\nseed=5\n"
        f"embeddings={paths['emb']}\n",
        encoding="utf-8",
    )
    return {k: str(v) for k, v in paths.items()}


def run_train(task, out=None, extra=()):
    out = out or task["model"]
    rc = main(["train", "--config", task["config"], "--hierarchy", task["links"],
               "--train", task["train"], "--dev", task["dev"], "--out", out, *extra])
    assert rc == 0
    return out


# ----------------------------------------------------------------------
# exit codes and argument handling


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "build-hierarchy" in capsys.readouterr().out
    assert main(["train", "--help"]) == 0


def test_unknown_flag_is_usage_error(capsys):
    assert main(["stats", "--bogus"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error():
    assert main([]) == 1


def test_missing_file_is_data_error(tmp_path, capsys):
    assert main(["stats", "--hierarchy", str(tmp_path / "nope.tsv")]) == 2
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# hierarchy commands


def test_stats_line(tmp_path, capsys):
    p = tmp_path / "links.tsv"
    p.write_text(LINKS, encoding="utf-8")
    assert main(["stats", "--hierarchy", str(p)]) == 0
    assert capsys.readouterr().out == STATS_LINE + "\n"


def test_stats_json(tmp_path, capsys):
    p = tmp_path / "links.tsv"
    p.write_text(LINKS, encoding="utf-8")
    assert main(["stats", "--hierarchy", str(p), "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got == {"type_count": 4, "max_depth": 2, "mean_depth": 1.5, "links_child_of": 2}


def test_stats_rejects_malformed_ancestors(tmp_path, capsys):
    links = tmp_path / "links.tsv"
    links.write_text(LINKS, encoding="utf-8")
    out = tmp_path / "h.json"
    assert main(["build-hierarchy", "--links", str(links), "--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    data["ancestors"][0] = ["x"]
    out.write_text(json.dumps(data), encoding="utf-8")
    assert main(["stats", "--hierarchy", str(out)]) == 2
    assert f"error: {out}:" in capsys.readouterr().err


def test_stats_names_the_file_and_link_of_a_bad_json_link(tmp_path, capsys):
    p = tmp_path / "h.json"
    p.write_text(json.dumps({"format": "hiertype-hierarchy", "version": 1, "types": ["a", "b"],
                             "links": [["a", "b", "bogus"]]}), encoding="utf-8")
    assert main(["stats", "--hierarchy", str(p)]) == 2
    assert f"error: {p}: link 0: unknown link kind: 'bogus'" in capsys.readouterr().err


def test_stats_rejects_a_types_string(tmp_path, capsys):
    # "ab" once loaded as the two types 'a' and 'b'
    p = tmp_path / "h.json"
    p.write_text(json.dumps({"format": "hiertype-hierarchy", "version": 1, "types": "ab",
                             "links": []}), encoding="utf-8")
    assert main(["stats", "--hierarchy", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == (f"error: {p}: malformed hierarchy payload: 'types' must be a "
                                    "list of strings, got 'ab'")
    assert captured.out == ""


def test_stats_rejects_a_boolean_version(tmp_path, capsys):
    # true == 1, so it once loaded as version 1
    p = tmp_path / "h.json"
    p.write_text(json.dumps({"format": "hiertype-hierarchy", "version": True, "types": ["a", "b"],
                             "links": [["a", "b", "child_of"]]}), encoding="utf-8")
    assert main(["stats", "--hierarchy", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == (f"error: {p}: malformed hierarchy payload: 'version' must be "
                                    "an integer, got True")
    assert captured.out == ""


def test_build_hierarchy_deterministic_and_loadable(tmp_path, capsys):
    links = tmp_path / "links.tsv"
    links.write_text(LINKS, encoding="utf-8")
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["build-hierarchy", "--links", str(links), "--out", str(out_a)]) == 0
    assert main(["build-hierarchy", "--links", str(links), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert main(["stats", "--hierarchy", str(out_a)]) == 0
    assert capsys.readouterr().out == STATS_LINE + "\n"


def test_build_hierarchy_rejects_cycles(tmp_path, capsys):
    links = tmp_path / "cycle.tsv"
    links.write_text("a\tb\tchild_of\nb\ta\tchild_of\n", encoding="utf-8")
    assert main(["build-hierarchy", "--links", str(links), "--out", str(tmp_path / "o.json")]) == 2
    assert "cycle" in capsys.readouterr().err


def test_build_hierarchy_rejects_links_outside_declared_types(tmp_path, capsys):
    serialized = tmp_path / "h.json"
    serialized.write_text(json.dumps({
        "format": "hiertype-hierarchy", "version": 1, "types": ["a", "b"],
        "links": [["a", "zzz", "child_of"]]}), encoding="utf-8")
    out = tmp_path / "o.json"
    assert main(["build-hierarchy", "--links", str(serialized), "--out", str(out)]) == 2
    assert f"error: {serialized}: link 0: type 'zzz' is not in the declared order" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("route", ["links", "json"])
def test_build_hierarchy_cycle_names_the_file(tmp_path, capsys, route):
    if route == "links":
        src = tmp_path / "cyc.tsv"
        src.write_text("a\tb\tchild_of\nb\ta\tchild_of\n", encoding="utf-8")
    else:
        src = tmp_path / "cyc.json"
        src.write_text(json.dumps({
            "format": "hiertype-hierarchy", "version": 1, "types": ["a", "b"],
            "links": [["a", "b", "child_of"], ["b", "a", "child_of"]]}), encoding="utf-8")
    out = tmp_path / "o.json"
    assert main(["build-hierarchy", "--links", str(src), "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip() == f"error: {src}: hierarchy contains a cycle: a -> b -> a"
    assert not out.exists()


def test_derive_links_fixture(tmp_path):
    entities = tmp_path / "entities.tsv"
    entities.write_text("e1\tA,B\ne2\tA,B\ne3\tA\n", encoding="utf-8")
    out = tmp_path / "derived.tsv"
    assert main(["derive-links", "--entities", str(entities), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == \
        "# derived co-occurrence links, threshold=0.7\nB\tA\tfb_fb\n"


def test_derive_links_threshold_and_allow(tmp_path):
    entities = tmp_path / "entities.tsv"
    entities.write_text("e1\tA,B\ne2\tA,B\ne3\tA\n", encoding="utf-8")
    out = tmp_path / "derived.tsv"
    assert main(["derive-links", "--entities", str(entities), "--threshold", "0.5",
                 "--out", str(out)]) == 0
    body = [l for l in out.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    assert body == ["A\tB\tfb_fb", "B\tA\tfb_fb"]

    allow = tmp_path / "allow.tsv"
    allow.write_text("A\tB\n", encoding="utf-8")
    assert main(["derive-links", "--entities", str(entities), "--threshold", "0.5",
                 "--allow", str(allow), "--out", str(out)]) == 0
    body = [l for l in out.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    assert body == ["A\tB\tfb_fb"]

    assert main(["derive-links", "--entities", str(entities), "--threshold", "1.5",
                 "--out", str(out)]) == 2


def test_label_pipeline(tmp_path, capsys):
    links = tmp_path / "links.tsv"
    links.write_text(LINKS, encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"tokens": ["a", "cat"], "span": [1, 1],
                             "entity_id": "e1", "types": ["cat"]}) + "\n")
        fh.write(json.dumps({"tokens": ["a", "ufo"], "span": [1, 1],
                             "entity_id": "e2", "types": ["ufo"]}) + "\n")
    out = tmp_path / "labeled.jsonl"
    assert main(["label", "--hierarchy", str(links), "--corpus", str(corpus),
                 "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert obj["entity_id"] == "e1"
    assert set(obj["types"]) == {"cat", "animal"}


def test_label_reads_its_own_output(tmp_path):
    # the output holds \x85 and \u2028 unescaped; neither may end a line
    links = tmp_path / "links.tsv"
    links.write_text(LINKS, encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"tokens": ["x\u0085y", "a\u2028cat"], "span": [1, 1],
                                  "types": ["cat"]}) + "\n", encoding="utf-8")
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    for src, out in ((corpus, first), (first, second)):
        assert main(["label", "--hierarchy", str(links), "--corpus", str(src), "--out", str(out)]) == 0
    assert second.read_bytes() == first.read_bytes()
    assert "\u2028".encode("utf-8") in first.read_bytes()


def test_label_rejects_a_types_string(tmp_path, capsys):
    # "ab" once labeled the mention with the types 'a' and 'b'
    links = tmp_path / "links.tsv"
    links.write_text("a\tb\tchild_of\n", encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"tokens":["x"],"span":[0,0],"types":"ab"}\n', encoding="utf-8")
    out = tmp_path / "labeled.jsonl"
    assert main(["label", "--hierarchy", str(links), "--corpus", str(corpus),
                 "--out", str(out)]) == 2
    assert f"error: {corpus}:1: types must be a list of strings, got 'ab'\n" in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------------------------------------
# train / eval / score


def test_train_eval_score_pipeline(task, tmp_path, capsys):
    model = run_train(task)
    history = model + ".history.tsv"
    with open(history, encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    assert len(rows) == 6
    assert all(len(r.split("\t")) == 3 for r in rows)

    per_mention = str(tmp_path / "per_mention.tsv")
    assert main(["eval", "--model", model, "--corpus", task["dev"],
                 "--hierarchy", task["links"], "--per-mention", per_mention]) == 0
    out = capsys.readouterr().out
    assert out.startswith("map=")
    dev_map = float(out.strip().split("=")[1])
    assert 0.0 <= dev_map <= 1.0
    assert dev_map > 0.9  # separable micro task
    with open(per_mention, encoding="utf-8") as fh:
        ap_rows = fh.read().splitlines()
    assert len(ap_rows) == 6
    aps = [float(r.split("\t")[1]) for r in ap_rows]
    assert abs(sum(aps) / len(aps) - dev_map) < 1e-12

    assert main(["score", "--model", model, "--hierarchy", task["links"],
                 "--text", "the meow the", "--span", "1", "1", "--top", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    names = [l.split("\t")[0] for l in lines]
    scores = [float(l.split("\t")[1]) for l in lines]
    assert set(names) <= {"cat", "animal", "car", "thing"}
    assert scores == sorted(scores, reverse=True)
    assert names[0] in ("cat", "animal")


def test_train_is_deterministic_at_the_byte_level(task, tmp_path):
    a = run_train(task, out=str(tmp_path / "a.ckpt"))
    b = run_train(task, out=str(tmp_path / "b.ckpt"))
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()
    with open(a + ".history.tsv", "rb") as fa, open(b + ".history.tsv", "rb") as fb:
        assert fa.read() == fb.read()


def test_train_seed_flag_changes_the_model(task, tmp_path):
    a = run_train(task, out=str(tmp_path / "a.ckpt"))
    b = run_train(task, out=str(tmp_path / "b.ckpt"), extra=["--seed", "99"])
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() != fb.read()


def test_train_set_overrides(task, tmp_path, capsys):
    model = run_train(task, out=str(tmp_path / "short.ckpt"), extra=["--set", "max_epochs=2"])
    with open(model + ".history.tsv", encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) == 2
    ckpt = load_checkpoint(model)
    assert ckpt.mention_score_kind.value == "dot"

    assert main(["train", "--config", task["config"], "--hierarchy", task["links"],
                 "--train", task["train"], "--dev", task["dev"],
                 "--out", str(tmp_path / "x.ckpt"), "--set", "dropout"]) == 1
    assert "usage error" in capsys.readouterr().err

    assert main(["train", "--config", task["config"], "--hierarchy", task["links"],
                 "--train", task["train"], "--dev", task["dev"],
                 "--out", str(tmp_path / "x.ckpt"), "--set", "warp_speed=9"]) == 2
    assert "warp_speed" in capsys.readouterr().err


@pytest.mark.parametrize("route", ["config", "set"])
@pytest.mark.parametrize("item, message", [
    ("dimm=3", "unknown config key: 'dimm'"),
    ("dim=abc", "bad value for 'dim'"),
    ("dim=0", "dim must be positive, got 0"),
    ("adam_beta2=1.5", "adam betas must be in [0, 1)"),
])
def test_train_config_faults_name_their_location(task, tmp_path, capsys, route, item, message):
    config, extra = task["config"], ["--set", item]
    if route == "config":
        text = Path(task["config"]).read_text(encoding="utf-8") + item + "\n"
        config, extra = tmp_path / "faulty.cfg", []
        config.write_text(text, encoding="utf-8")
        where = f"{config}:{len(text.splitlines())}"
    else:
        where = f"--set {item!r}"
    assert main(["train", "--config", str(config), "--hierarchy", task["links"],
                 "--train", task["train"], "--dev", task["dev"],
                 "--out", str(tmp_path / "x.ckpt"), *extra]) == 2
    assert f"error: {where}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("items, message", [
    (["dim=0"], "dim must be positive, got 0"),
    (["margin=nan"], "margin must be finite, got nan"),
    (["seed=-1"], "seed must be a non-negative integer, got -1"),
    (["adam_beta2=1.5"], "adam betas must be in [0, 1)"),
    (["mention_score_kind=dot", "share_bilinear=true"],
     "share_bilinear requires bilinear mention and structure scoring"),
])
def test_train_config_faults_exit_before_any_data_is_read(tmp_path, capsys, items, message):
    # every input path is missing, so reading any of them would fail
    # with another message: the config is validated first
    config = tmp_path / "empty.cfg"
    config.write_text("", encoding="utf-8")
    missing = {name: str(tmp_path / f"missing.{name}") for name in ("links", "jsonl", "emb")}
    overrides = [arg for item in items for arg in ("--set", item)]
    assert main(["train", "--config", str(config), "--hierarchy", missing["links"],
                 "--train", missing["jsonl"], "--dev", missing["jsonl"],
                 "--embeddings", missing["emb"], "--out", str(tmp_path / "x.ckpt"),
                 *overrides]) == 2
    assert capsys.readouterr().err == f"error: --set {items[-1]!r}: {message}\n"
    assert not (tmp_path / "x.ckpt").exists()


def test_train_seed_flag_fault_names_the_flag(task, tmp_path, capsys):
    assert main(["train", "--config", task["config"], "--hierarchy", task["links"],
                 "--train", task["train"], "--dev", task["dev"],
                 "--out", str(tmp_path / "x.ckpt"), "--seed", "-1"]) == 2
    assert "error: --seed: seed must be a non-negative integer, got -1" in capsys.readouterr().err


def test_train_requires_embeddings(task, tmp_path, capsys):
    cfg = tmp_path / "bare.cfg"
    cfg.write_text("dim=4\nmention_score_kind=dot\nmax_epochs=1\n", encoding="utf-8")
    assert main(["train", "--config", str(cfg), "--hierarchy", task["links"],
                 "--train", task["train"], "--dev", task["dev"],
                 "--out", str(tmp_path / "x.ckpt")]) == 2
    assert "embeddings" in capsys.readouterr().err
    # the same config trains once --embeddings points at the vectors
    rc = main(["train", "--config", str(cfg), "--hierarchy", task["links"],
               "--train", task["train"], "--dev", task["dev"],
               "--out", str(tmp_path / "x.ckpt"), "--embeddings", task["emb"],
               "--set", "dropout=0.0"])
    assert rc == 0


def test_eval_rejects_mismatched_hierarchy(task, tmp_path, capsys):
    model = run_train(task)
    other = tmp_path / "other.tsv"
    other.write_text(LINKS + "extra\tthing\tchild_of\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--model", model, "--corpus", task["dev"],
                 "--hierarchy", str(other)]) == 2
    assert capsys.readouterr().err == (f"error: hierarchy {other} does not match the type inventory "
                                       f"of checkpoint {model}: the hierarchy has 5 types, the checkpoint 4\n")


def test_hierarchy_mismatch_names_the_first_type_that_differs(task, tmp_path, capsys):
    model = run_train(task)
    other = tmp_path / "other.tsv"
    other.write_text("car\tthing\tchild_of\ncat\tanimal\tchild_of\n", encoding="utf-8")
    capsys.readouterr()
    for argv in (["eval", "--corpus", task["dev"]], ["score", "--text", "a meow", "--span", "1", "1"]):
        assert main([*argv, "--model", model, "--hierarchy", str(other)]) == 2
        assert capsys.readouterr().err == (
            f"error: hierarchy {other} does not match the type inventory of checkpoint {model}: "
            "type 0 is 'car' in the hierarchy, 'cat' in the checkpoint\n"), argv


def test_eval_rejects_malformed_checkpoint_tensor_list(task, tmp_path, capsys):
    model = run_train(task)
    with open(model, "rb") as fh:
        header = json.loads(fh.readline())
        blob = fh.read()
    name, shape = header["tensors"][0]
    assert (name, shape) == ("cnn_w", [3, 4, 4])
    form = "header 'tensors' must be a list of lists [a string, a list of integers], got"
    for bad, message in (
        (None, f"{form} None"),
        (5, f"{form} 5"),
        ([[name]], f"{form} [['cnn_w']]; item [0] is ['cnn_w']"),
        ([[7, shape]], f"{form} [[7, [3, 4, 4]]]; item [0] is [7, [3, 4, 4]]"),
        # a negative dimension cannot match the shape the header's sizes give
        ([[name, [-1] + shape[1:]]], "tensor 'cnn_w' has shape [-1, 4, 4], but the header's dim, "
                                     "filter_width, n_types and vocab give [3, 4, 4]"),
        ([[name, [True] + shape[1:]]], f"{form} [['cnn_w', [True, 4, 4]]]; item [0] is "
                                       "['cnn_w', [True, 4, 4]]"),
        ([[name, 3]], f"{form} [['cnn_w', 3]]; item [0] is ['cnn_w', 3]"),
    ):
        if bad is None:
            del header["tensors"]
        else:
            header["tensors"] = bad
        broken = tmp_path / "broken.ckpt"
        broken.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
        assert main(["eval", "--model", str(broken), "--corpus", task["dev"],
                     "--hierarchy", task["links"]]) == 2, bad
        err = capsys.readouterr().err
        assert f"error: {broken}: {message}\n" in err, (bad, err)


def _rewrite_checkpoint(path, edit):
    """Apply ``edit(header, blob) -> blob`` to a checkpoint file in place."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        blob = fh.read()
    blob = edit(header, blob)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n" + blob)


def _set_header(key, value):
    def edit(header, blob):
        header[key] = value
        return blob
    return edit


def _add_junk_tensor(header, blob):
    header["tensors"].append(["junk", [2]])
    return blob + np.zeros(2, dtype="<f8").tobytes()


def _drop_first_tensor(header, blob):
    _, shape = header["tensors"].pop(0)
    return blob[8 * int(np.prod(shape)):]


def _poison(index, value):
    def edit(header, blob):
        arr = np.frombuffer(blob, dtype="<f8").copy()
        arr[index] = value
        return arr.tobytes()
    return edit


@pytest.mark.parametrize("edit, message", [
    (_set_header("dim", 999), "tensor 'cnn_w' has shape [3, 4, 4]"),
    (_set_header("filter_width", 5), "tensor 'cnn_w' has shape [3, 4, 4]"),
    (_set_header("n_types", 7), "tensor 'type_emb' has shape [4, 4]"),
    (_set_header("dim", True), "header 'dim' must be an integer, got True"),
    (_set_header("dim", 0), "header 'dim', 'filter_width' and 'n_types' must be positive integers"),
    # found by the type-confusion fuzz: this fault once named no file
    (_set_header("type_names", ["cat"]), "malformed checkpoint: 1 type name(s) for 4 embedding row(s)"),
    (_add_junk_tensor, "unknown tensor 'junk'"),
    (_drop_first_tensor, "header 'tensors' lacks required tensor 'cnn_w'"),
    (_poison(0, np.nan), "tensor 'cnn_w' holds non-finite values"),
    (_poison(-1, -np.inf), "tensor 'word_emb' holds non-finite values"),
], ids=["dim", "filter_width", "n_types", "bool_dim", "zero_dim", "type_names_count",
        "unknown_tensor", "missing_cnn_w", "nan", "inf"])
def test_eval_rejects_inconsistent_checkpoint(task, capsys, edit, message):
    model = run_train(task)
    _rewrite_checkpoint(model, edit)
    assert main(["eval", "--model", model, "--corpus", task["dev"],
                 "--hierarchy", task["links"]]) == 2
    err = capsys.readouterr().err
    assert f"error: {model}: " in err and message in err, err


def _drop_tensor(name):
    def edit(header, blob):
        sizes = [8 * int(np.prod(shape)) for _, shape in header["tensors"]]
        at = [n for n, _ in header["tensors"]].index(name)
        del header["tensors"][at]
        start = sum(sizes[:at])
        return blob[:start] + blob[start + sizes[at]:]
    return edit


@pytest.mark.parametrize("settings, cut", [
    (["--set", "mention_score_kind=bilinear"], "bilinear"),
    (["--set", "structure_weight=0.5", "--set", "structure_score_kind=bilinear"],
     "bilinear_structure"),
], ids=["mention", "structure"])
def test_eval_rejects_a_checkpoint_without_the_bilinear_matrix_its_kinds_read(
        task, tmp_path, capsys, settings, cut):
    model = run_train(task, extra=["--seed", "13", *settings])
    _rewrite_checkpoint(model, _drop_tensor(cut))
    assert main(["eval", "--model", model, "--corpus", task["dev"],
                 "--hierarchy", task["links"]]) == 2
    err = capsys.readouterr().err
    assert f"error: {model}: header 'tensors' lacks required tensor 'bilinear'" in err, err


@pytest.mark.parametrize("key, value, message", [
    ("margin", [1.0], "header 'margin' must be a finite number, got [1.0]"),
    ("margin", {"value": 1.0}, "header 'margin' must be a finite number, got {'value': 1.0}"),
    ("margin", None, "header 'margin' must be a finite number, got None"),
    ("margin", float("nan"), "header 'margin' must be a finite number, got nan"),
    ("type_names", None, "header 'type_names' must be a list of strings, got None"),
    ("vocab", None, "header 'vocab' must be a list of strings, got None"),
    ("vocab", ["meow", ["vroom"], "the", "a"],
     "header 'vocab' must be a list of strings, got ['meow', ['vroom'], 'the', 'a']; "
     "item [1] is ['vroom']"),
    ("version", True, "header 'version' must be an integer, got True"),
    # a repeated token once surfaced as "duplicate tokens in embedding table",
    # with no file named
    ("vocab", ["meow", "the", "meow", "a"], "header 'vocab' repeats 'meow'"),
    ("type_names", ["cat", "animal", "cat", "thing"], "header 'type_names' repeats 'cat'"),
    ("encoder_mode", None, "header 'encoder_mode' must be a string, got None"),
    ("structure_score_kind", 1, "header 'structure_score_kind' must be a string or null, got 1"),
], ids=["margin_list", "margin_dict", "margin_null", "margin_nan", "type_names_null",
        "vocab_null", "vocab_holds_list", "version_true", "vocab_repeat", "type_names_repeat",
        "encoder_mode_null", "structure_kind_int"])
def test_eval_rejects_mistyped_checkpoint_header_values(task, capsys, key, value, message):
    model = run_train(task)
    _rewrite_checkpoint(model, _set_header(key, value))
    assert main(["eval", "--model", model, "--corpus", task["dev"],
                 "--hierarchy", task["links"]]) == 2
    err = capsys.readouterr().err
    assert f"error: {model}: {message}\n" in err, err


def test_eval_rejects_tensors_listed_out_of_file_order(task, capsys):
    model = run_train(task)

    def swap_first_two(header, blob):
        (a, shape_a), (b, shape_b) = header["tensors"][:2]
        size_a, size_b = 8 * int(np.prod(shape_a)), 8 * int(np.prod(shape_b))
        header["tensors"][:2] = [[b, shape_b], [a, shape_a]]
        return blob[size_a:size_a + size_b] + blob[:size_a] + blob[size_a + size_b:]

    _rewrite_checkpoint(model, swap_first_two)
    assert main(["eval", "--model", model, "--corpus", task["dev"],
                 "--hierarchy", task["links"]]) == 2
    err = capsys.readouterr().err
    assert f"error: {model}: " in err and "not in file order" in err, err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=8,
)


def test_eval_on_a_mutated_checkpoint_exits_0_or_2(task, tmp_path, capsys):
    with open(run_train(task), "rb") as fh:
        raw = fh.read()
    header_line, _, blob = raw.partition(b"\n")
    header = json.loads(header_line)
    mutated = tmp_path / "mutated.ckpt"

    @settings(max_examples=120)
    @given(st.one_of(
        st.tuples(st.sampled_from(sorted(header)), JSON_VALUES),
        st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)),
        st.tuples(st.just("confused"), type_confusions(header)),
    ))
    def check(mutation):
        where, what = mutation
        if where == "confused":  # one member or element type-confused, or one member deleted
            data = json.dumps(what).encode("utf-8") + b"\n" + blob
        elif isinstance(where, str):  # one header value replaced by any JSON value
            data = json.dumps({**header, where: what}).encode("utf-8") + b"\n" + blob
        else:  # one byte anywhere in the file overwritten
            data = raw[:where] + bytes([what]) + raw[where + 1:]
        mutated.write_bytes(data)
        fault = _read_or_error(lambda: load_checkpoint(str(mutated)), CheckpointError)
        rc = main(["eval", "--model", str(mutated), "--corpus", task["dev"],
                   "--hierarchy", task["links"]])
        err = capsys.readouterr().err
        assert rc in (0, 2), mutation
        if fault is not None:
            assert str(fault).startswith(f"{mutated}:") and rc == 2, (mutation, err)
            assert err == f"error: {fault}\n"

    check()


def test_train_rejects_nul_byte_in_config_embeddings_path(task, tmp_path, capsys):
    # found by the byte-mutation test below: open() raised a bare ValueError
    config = tmp_path / "nul.cfg"
    config.write_bytes(Path(task["config"]).read_bytes().replace(b"emb.txt", b"emb\0.txt"))
    assert main(["train", "--config", str(config), "--hierarchy", task["links"],
                 "--train", task["train"], "--dev", task["dev"],
                 "--out", str(tmp_path / "x.ckpt")]) == 2
    err = capsys.readouterr().err
    assert "embeddings" in err and "NUL" in err, err


BYTE_EDITS =st.lists(st.tuples(st.sampled_from("rid"), st.integers(0, 1 << 20), st.integers(0, 255)),
                      min_size=1, max_size=3)


def _edit_bytes(data: bytes, edits) -> bytes:
    """Apply (replace | insert | delete, position, byte) edits; positions wrap."""
    for op, at, byte in edits:
        if op == "i":
            at %= len(data) + 1
            data = data[:at] + bytes([byte]) + data[at:]
        elif data:
            at %= len(data)
            data = data[:at] + (bytes([byte]) if op == "r" else b"") + data[at + 1:]
    return data


def test_cli_on_byte_mutated_inputs_exits_0_or_2(tmp_path, capsys):
    # every reader the CLI has, fed a few byte edits of a valid synthetic input
    paths = synthtask.write_task_files(str(tmp_path), count=12, train_count=8, dim=4)
    hierarchy, entities, model = (str(tmp_path / n) for n in ("h.json", "ents.tsv", "m.ckpt"))
    config = tmp_path / "train.cfg"
    config.write_text("dim=4\nfilter_width=3\nmention_score_kind=order\nstructure_weight=0.5\n"
                      "structure_batch_size=4\ndropout=0.1\nbatch_size=4\npatience=2\n"
                      f"embeddings={paths['embeddings']}\nmax_epochs=2", encoding="utf-8")
    with open(entities, "w", encoding="utf-8") as fh:
        for record in read_corpus(paths["train"]):
            fh.write(f"{record.entity_id}\t{','.join(record.types)}\n")
    train = ["train", "--config", str(config), "--hierarchy", paths["links"], "--train",
             paths["train"], "--dev", paths["dev"], "--out", str(tmp_path / "out.ckpt")]
    assert main(["build-hierarchy", "--links", paths["links"], "--out", hierarchy]) == 0
    assert main([*train[:-1], model]) == 0
    out = str(tmp_path / "out.txt")
    targets = {  # name: (valid input, command reading the mutated copy at {})
        "links": (paths["links"], ["stats", "--hierarchy", "{}"]),
        "hierarchy": (hierarchy, ["stats", "--json", "--hierarchy", "{}"]),
        "label": (paths["dev"], ["label", "--hierarchy", paths["links"], "--corpus", "{}",
                                 "--out", out]),
        "eval": (paths["dev"], ["eval", "--model", model, "--hierarchy", paths["links"],
                                "--corpus", "{}"]),
        "embeddings": (paths["embeddings"], [*train, "--embeddings", "{}"]),
        "config": (str(config), [*train[:2], "{}", *train[3:]]),
        "entities": (entities, ["derive-links", "--entities", "{}", "--out", out]),
    }
    originals = {name: Path(src).read_bytes() for name, (src, _) in targets.items()}
    mutated = tmp_path / "mutated"

    @settings(max_examples=200)
    @given(st.sampled_from(sorted(targets)), BYTE_EDITS)
    def check(name, edits):
        mutated.write_bytes(_edit_bytes(originals[name], edits))
        argv = [str(mutated) if a == "{}" else a for a in targets[name][1]]
        rc = main(argv)
        capsys.readouterr()
        assert rc in (0, 2), (name, edits)

    check()


@pytest.mark.parametrize("setting, key", [
    ("learning_rate=nan", "learning_rate"),
    ("adam_eps=0", "adam_eps"),
])
def test_train_rejects_bad_numeric_settings(task, tmp_path, capsys, setting, key):
    assert main(["train", "--config", task["config"], "--hierarchy", task["links"],
                 "--train", task["train"], "--dev", task["dev"],
                 "--out", str(tmp_path / "x.ckpt"), "--set", setting]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "x.ckpt").exists()


def test_train_rejects_negative_seed(task, tmp_path, capsys):
    negative_config = tmp_path / "negative.cfg"
    negative_config.write_text(Path(task["config"]).read_text(encoding="utf-8") + "seed=-1\n",
                               encoding="utf-8")
    for config, extra in ((task["config"], ["--seed", "-1"]),
                          (task["config"], ["--set", "seed=-3"]),
                          (str(negative_config), [])):
        assert main(["train", "--config", config, "--hierarchy", task["links"],
                     "--train", task["train"], "--dev", task["dev"],
                     "--out", str(tmp_path / "x.ckpt"), *extra]) == 2, extra
        assert "seed must be a non-negative integer" in capsys.readouterr().err, extra
        assert not (tmp_path / "x.ckpt").exists()


def test_label_locates_bytes_that_are_not_utf8(task, tmp_path, capsys):
    corpus = tmp_path / "bad.jsonl"
    with open(task["train"], "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    corpus.write_bytes(b"".join(lines[:2]) + b'{"tokens": ["\xff"], "span": [0, 0]}\n')
    assert main(["label", "--hierarchy", task["links"], "--corpus", str(corpus),
                 "--out", str(tmp_path / "out.jsonl")]) == 2
    err = capsys.readouterr().err
    assert f"error: {corpus}:3: not valid UTF-8" in err, err


def test_every_text_reader_locates_bytes_that_are_not_utf8(task, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"# comment\n\xfe\n")
    train = ["train", "--config", task["config"], "--hierarchy", task["links"],
             "--train", task["train"], "--dev", task["dev"], "--out", str(tmp_path / "m.ckpt")]
    commands = [
        ["stats", "--hierarchy", str(bad)],
        ["derive-links", "--entities", str(bad), "--out", str(tmp_path / "l.tsv")],
        ["train", "--config", str(bad), *train[3:]],
        [*train, "--embeddings", str(bad)],
    ]
    for argv in commands:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert f"error: {bad}:2: not valid UTF-8" in err, (argv, err)


def test_eval_rejects_unlabelable_corpus(task, tmp_path, capsys):
    model = run_train(task)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"tokens": ["x"], "span": [0, 0],
                               "entity_id": "e", "types": ["ufo"]}) + "\n", encoding="utf-8")
    assert main(["eval", "--model", model, "--corpus", str(bad),
                 "--hierarchy", task["links"]]) == 2
    capsys.readouterr()


def test_score_validates_span_and_top(task, capsys):
    model = run_train(task)
    assert main(["score", "--model", model, "--hierarchy", task["links"],
                 "--text", "the meow", "--span", "5", "9"]) == 2
    assert "span" in capsys.readouterr().err
    assert main(["score", "--model", model, "--hierarchy", task["links"],
                 "--text", "the meow", "--span", "1", "1", "--top", "0"]) == 1
    capsys.readouterr()


def test_score_top_defaults_to_full_list_when_large(task, capsys):
    model = run_train(task)
    assert main(["score", "--model", model, "--hierarchy", task["links"],
                 "--text", "vroom", "--span", "0", "0", "--top", "99"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4  # only four types exist


def test_log_level_environment_variable(task, tmp_path, capsys, monkeypatch):
    links, corpus, out = task["links"], task["train"], str(tmp_path / "l.jsonl")
    monkeypatch.delenv("HIERTYPE_LOG", raising=False)
    assert main(["label", "--hierarchy", links, "--corpus", corpus, "--out", out]) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setenv("HIERTYPE_LOG", "info")
    assert main(["label", "--hierarchy", links, "--corpus", corpus, "--out", out]) == 0
    assert "labeled" in capsys.readouterr().err


# ----------------------------------------------------------------------
# JSON inputs: deep nesting and type confusion

def _hierarchy_holding(value, tmp_path, task):
    p = tmp_path / "h.json"
    p.write_text('{"format":"hiertype-hierarchy","version":1,"types":%s,"links":[]}' % value,
                 encoding="utf-8")
    return p, ["stats", "--hierarchy", str(p)]


def _corpus_holding(value, tmp_path, task):
    p = tmp_path / "corpus.jsonl"
    p.write_text('{"tokens":["x"],"span":[0,0]}\n{"tokens":%s,"span":[0,0]}\n' % value,
                 encoding="utf-8")
    return f"{p}:2", ["label", "--hierarchy", task["links"], "--corpus", str(p),
                      "--out", str(tmp_path / "out.jsonl")]


def _checkpoint_holding(value, tmp_path, task):
    model = run_train(task)
    with open(model, "rb") as fh:
        fh.readline()
        blob = fh.read()
    with open(model, "wb") as fh:
        fh.write(b'{"format":"hiertype-checkpoint","vocab":%s}\n' % value.encode() + blob)
    return model, ["eval", "--model", model, "--corpus", task["dev"], "--hierarchy", task["links"]]


@pytest.mark.parametrize("route", [_hierarchy_holding, _corpus_holding, _checkpoint_holding],
                         ids=["hierarchy", "corpus", "checkpoint"])
@pytest.mark.parametrize("value, reason", [
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
    ("[%s]" % ("1" * 5_000), "Exceeds the limit (4300 digits) for integer string conversion"),
    # no UTF-8 output can hold one: label and build-hierarchy once ended in a
    # UnicodeEncodeError traceback and a 0-byte --out file
    ('["ok", "x\\udc80"]', "lone surrogate '\\udc80'"),
    ('["\\ud83d\\ude00", "\\ud800"]', "lone surrogate '\\ud800'"),
], ids=["deep", "long_int", "low_surrogate", "high_surrogate"])
def test_json_the_parser_refuses_exits_2_with_its_location(task, tmp_path, capsys, route, value,
                                                           reason):
    # the parser's RecursionError, and its ValueError for an integer longer
    # than the interpreter converts, once escaped as tracebacks with exit 1
    if "digits" in reason and getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300:
        pytest.skip("this interpreter has no 4300-digit integer conversion limit")
    where, argv = route(value, tmp_path, task)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: invalid JSON: {reason}"), err
    assert not (tmp_path / "out.jsonl").exists()


def test_build_hierarchy_rejects_a_lone_surrogate_and_writes_nothing(tmp_path, capsys):
    src, out = tmp_path / "h.json", tmp_path / "out.json"
    src.write_text('{"format":"hiertype-hierarchy","version":1,"types":["a","\\ud800"],"links":[]}',
                   encoding="utf-8")
    assert main(["build-hierarchy", "--links", str(src), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {src}: invalid JSON: lone surrogate '\\ud800'\n"
    assert not out.exists()


CONFUSIONS = (True, 1, 1.0, "x", None, [], {})
DELETE = object()


def _json_paths(doc, path=()):
    """The path of every object member and list element in ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield (*path, key)
        yield from _json_paths(value, (*path, key))


def type_confusions(doc):
    """``doc`` with one member or element replaced by a value of another JSON
    type, or with one object member deleted."""
    def confuse(path, value):
        out = copy.deepcopy(doc)
        parent = out
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        return out

    paths = list(_json_paths(doc))
    replaced = st.builds(confuse, st.sampled_from(paths), st.sampled_from(CONFUSIONS))
    members = [p for p in paths if isinstance(p[-1], str)]
    deleted = st.builds(confuse, st.sampled_from(members), st.just(DELETE))
    return replaced | deleted


def _read_or_error(read, error):
    try:
        read()
    except error as exc:
        return exc
    return None


def test_type_confused_hierarchy_json_exits_2_with_its_location(tmp_path, capsys):
    valid = TypeHierarchy.from_links([("cat", "animal", "child_of"), ("car", "thing", "child_of"),
                                      ("auto", "car", "equivalence")]).to_dict()
    p = tmp_path / "h.json"

    @settings(max_examples=80)
    @given(type_confusions(valid))
    def check(doc):
        p.write_text(json.dumps(doc), encoding="utf-8")
        fault = _read_or_error(lambda: TypeHierarchy.load(str(p)), HierarchyError)
        rc = main(["stats", "--hierarchy", str(p)])
        err = capsys.readouterr().err
        if fault is None:
            assert rc == 0, (doc, err)
        else:
            assert str(fault).startswith(f"{p}: ") and rc == 2, (doc, err)
            assert err == f"error: {fault}\n"

    check()


def test_type_confused_corpus_record_exits_2_with_its_location(tmp_path, capsys):
    valid = {"tokens": ["a", "cat"], "span": [1, 1], "entity_id": "e1", "types": ["cat"]}
    links, corpus = tmp_path / "links.tsv", tmp_path / "corpus.jsonl"
    links.write_text(LINKS, encoding="utf-8")
    out = tmp_path / "labeled.jsonl"

    @settings(max_examples=80)
    @given(type_confusions(valid))
    def check(record):
        corpus.write_text(json.dumps(valid) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
        fault = _read_or_error(lambda: read_corpus(str(corpus)), CorpusError)
        rc = main(["label", "--hierarchy", str(links), "--corpus", str(corpus), "--out", str(out)])
        err = capsys.readouterr().err
        if fault is None:
            assert rc == 0, (record, err)
        else:
            assert str(fault).startswith(f"{corpus}:2: ") and rc == 2, (record, err)
            assert err == f"error: {fault}\n"

    check()


# ----------------------------------------------------------------------
# outputs: checked before the work, replaced whole


def _output_commands(tmp_path):
    """(flag, argv) for each of the six outputs, with every input missing and
    the output at ``{}``."""
    missing = str(tmp_path / "missing.in")
    return [
        ("--out", ["build-hierarchy", "--links", missing, "--out", "{}"]),
        ("--out", ["derive-links", "--entities", missing, "--out", "{}"]),
        ("--out", ["label", "--hierarchy", missing, "--corpus", missing, "--out", "{}"]),
        ("--out", ["train", "--config", missing, "--hierarchy", missing, "--train", missing,
                   "--dev", missing, "--out", "{}"]),
        ("--history", ["train", "--config", missing, "--hierarchy", missing, "--train", missing,
                       "--dev", missing, "--out", str(tmp_path / "m.ckpt"), "--history", "{}"]),
        ("--per-mention", ["eval", "--model", missing, "--corpus", missing, "--hierarchy", missing,
                           "--per-mention", "{}"]),
    ]


@pytest.mark.parametrize("index", range(6), ids=["build-hierarchy", "derive-links", "label",
                                                 "train-out", "train-history", "eval"])
@pytest.mark.parametrize("fault", ["missing_dir", "file_as_dir", "empty", "directory",
                                   "unwritable_dir", "read_only"])
def test_every_output_is_checked_before_any_input_is_read(tmp_path, capsys, monkeypatch, index, fault):
    (tmp_path / "plain.txt").write_text("x", encoding="utf-8")
    (tmp_path / "ro").mkdir(mode=0o555)
    (tmp_path / "ro.txt").write_text("x", encoding="utf-8")
    (tmp_path / "ro.txt").chmod(0o444)
    if os.geteuid() == 0:  # root passes every access check; judge by the owner's bits
        monkeypatch.setattr(os, "access", lambda p, mode: os.path.exists(p) and (
            not mode & os.W_OK or bool(os.stat(p).st_mode & stat.S_IWUSR)))
    target, reason = {
        "missing_dir": (tmp_path / "nodir" / "o", f"directory {tmp_path / 'nodir'} does not exist"),
        "file_as_dir": (tmp_path / "plain.txt" / "o", f"{tmp_path / 'plain.txt'} is not a directory"),
        "empty": ("", "the path is empty"),
        "directory": (tmp_path, "it is a directory"),
        "unwritable_dir": (tmp_path / "ro" / "o", f"directory {tmp_path / 'ro'} is not writable"),
        "read_only": (tmp_path / "ro.txt", "it is not writable"),
    }[fault]
    flag, argv = _output_commands(tmp_path)[index]
    assert main([str(target) if a == "{}" else a for a in argv]) == 2
    assert capsys.readouterr().err == f"error: cannot write {flag} {target}: {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.txt", "ro", "ro.txt"]
    assert not any((tmp_path / "ro").iterdir()) and (tmp_path / "ro.txt").read_text(encoding="utf-8") == "x"


def test_train_checks_its_outputs_before_any_step(task, tmp_path, capsys, monkeypatch):
    # a mistyped --out directory once cost the whole run: every epoch trained,
    # then [Errno 2] without the flag
    steps = []
    adam_step = training.adam_step
    monkeypatch.setattr(training, "adam_step", lambda *a, **k: steps.append(1) or adam_step(*a, **k))
    run_train(task, out=str(tmp_path / "ok.ckpt"))
    assert steps  # the counter sees the steps of a valid run
    steps.clear()
    bad = tmp_path / "missing" / "m.ckpt"
    assert main(["train", "--config", task["config"], "--hierarchy", task["links"],
                 "--train", task["train"], "--dev", task["dev"], "--out", str(bad)]) == 2
    assert capsys.readouterr().err == \
        f"error: cannot write --out {bad}: directory {bad.parent} does not exist\n"
    # the default history path is checked too
    (tmp_path / "m.ckpt.history.tsv").mkdir()
    out = tmp_path / "m.ckpt"
    assert main(["train", "--config", task["config"], "--hierarchy", task["links"],
                 "--train", task["train"], "--dev", task["dev"], "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: cannot write --history {out}.history.tsv: it is a directory\n"
    assert steps == [] and not out.exists()


def test_eval_writes_per_mention_before_it_prints_map(task, tmp_path, capsys, monkeypatch):
    model = run_train(task)
    capsys.readouterr()
    monkeypatch.setattr(errors, "open", _failing_open(OSError(errno.ENOSPC, "No space left on device")),
                        raising=False)
    ap = tmp_path / "ap.tsv"
    assert main(["eval", "--model", model, "--corpus", task["dev"], "--hierarchy", task["links"],
                 "--per-mention", str(ap)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write --per-mention {ap}: No space left on device\n"
    assert not ap.exists()


class _FailingFile:
    """Writes half of the first chunk, then raises ``exc``."""

    def __init__(self, fh, exc):
        self.fh, self.exc = fh, exc

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def writelines(self, chunks):
        chunk = next(iter(chunks))
        self.fh.write(chunk[:len(chunk) // 2])
        self.fh.flush()
        raise self.exc


def _failing_open(exc):
    real = open

    def fake(file, mode="r", **kwargs):
        fh = real(file, mode, **kwargs)
        return _FailingFile(fh, exc) if "w" in mode else fh
    return fake


def _writers(task):
    """(what, write(path)) for each of the six outputs."""
    model = run_train(task)
    ckpt = load_checkpoint(model)
    h = TypeHierarchy.load(task["links"])
    history = [EpochMetrics(epoch=1, train_loss=0.5, dev_map=0.25)] * 3
    records = read_corpus(task["train"])

    def per_mention(path):
        args = build_parser().parse_args(["eval", "--model", model, "--corpus", task["dev"],
                                          "--hierarchy", task["links"], "--per-mention", path])
        args.handler(args)

    return {
        "checkpoint": ("checkpoint", lambda path: save_checkpoint(path, ckpt)),
        "history": ("history", lambda path: write_history(path, history)),
        "hierarchy": ("hierarchy", h.save),
        "links": ("links", lambda path: write_links(path, h.links, header="links")),
        "corpus": ("corpus", lambda path: write_corpus(path, records)),
        "per-mention": ("--per-mention", per_mention),
    }


WRITERS = ["checkpoint", "history", "hierarchy", "links", "corpus", "per-mention"]


@pytest.mark.parametrize("name", WRITERS)
@pytest.mark.parametrize("exc", [KeyboardInterrupt(), OSError(errno.ENOSPC, "No space left on device")],
                         ids=["interrupt", "disk_full"])
def test_a_failed_write_keeps_the_old_file(task, tmp_path, capsys, monkeypatch, name, exc):
    what, write = _writers(task)[name]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    target = out_dir / "target"
    target.write_bytes(b"the previous good file\n")
    monkeypatch.setattr(errors, "open", _failing_open(exc), raising=False)
    if isinstance(exc, OSError):
        with pytest.raises(HiertypeError) as info:
            write(str(target))
        assert str(info.value) == f"cannot write {what} {target}: No space left on device"
    else:
        with pytest.raises(KeyboardInterrupt):
            write(str(target))
    assert target.read_bytes() == b"the previous good file\n"
    assert [p.name for p in out_dir.iterdir()] == ["target"]
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name", WRITERS)
def test_a_fresh_output_gets_the_mode_open_gives(task, tmp_path, name):
    write = _writers(task)[name][1]
    umask = os.umask(0o027)
    try:
        write(str(tmp_path / "fresh"))
    finally:
        os.umask(umask)
    assert stat.S_IMODE((tmp_path / "fresh").stat().st_mode) == 0o640
    # a replaced file keeps its mode
    target = tmp_path / "again"
    target.write_bytes(b"old")
    target.chmod(0o600)
    write(str(target))
    assert target.read_bytes() == (tmp_path / "fresh").read_bytes()
    assert stat.S_IMODE(target.stat().st_mode) == 0o600


@pytest.mark.parametrize("name", WRITERS)
def test_a_symlinked_output_is_written_through(task, tmp_path, name):
    write = _writers(task)[name][1]
    out = tmp_path / "out"
    (out / "elsewhere").mkdir(parents=True)
    write(str(out / "direct"))
    target, link = out / "elsewhere" / "target", out / "link"
    link.symlink_to(target)
    write(str(link))  # a dangling link makes its target
    assert link.is_symlink() and target.read_bytes() == (out / "direct").read_bytes()
    target.write_bytes(b"old")
    write(str(link))
    assert link.is_symlink() and target.read_bytes() == (out / "direct").read_bytes()
    assert sorted(p.name for p in out.iterdir()) == ["direct", "elsewhere", "link"]
    assert [p.name for p in (out / "elsewhere").iterdir()] == ["target"]


def test_a_fifo_output_is_written_in_place(task, tmp_path):
    # a device or a FIFO (/dev/null, /dev/stdout, a named pipe) is written as
    # open() writes it; replacing it would turn it into a regular file
    out = tmp_path / "out"
    out.mkdir()
    fifo = out / "history.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open it without blocking
    try:
        run_train(task, out=str(out / "m.ckpt"), extra=["--history", str(fifo)])
        got = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    run_train(task, out=str(out / "m.ckpt"), extra=["--history", str(out / "h.tsv")])
    assert got == (out / "h.tsv").read_bytes() and got.count(b"\n") >= 1
    assert sorted(p.name for p in out.iterdir()) == ["h.tsv", "history.fifo", "m.ckpt"]


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_checkpoint_bytes_do_not_depend_on_the_blas_environment(tmp_path):
    # at d = 300 the CNN GEMMs are large enough for a multi-threaded BLAS
    # to split them, which changes their bits; importing the package pins
    # BLAS to one thread, so a run with the variables unset matches one
    # with them at 1
    data = tmp_path / "data"
    data.mkdir()
    paths = synthtask.write_task_files(str(data), count=80, train_count=64, dim=300)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"dim = 300\nfilter_width = 5\nencoder_mode = cnn\nmax_epochs = 2\n"
                   f"patience = 2\nbatch_size = 32\nembeddings = {paths['embeddings']}\n",
                   encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for blas in (None, "1"):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env["PYTHONPATH"] = src
        if blas is not None:
            env.update(dict.fromkeys(BLAS_VARS, blas))
        ckpt, hist = tmp_path / f"m-{blas}.ckpt", tmp_path / f"h-{blas}.tsv"
        done = subprocess.run(
            [sys.executable, "-m", "hiertype", "train", "--config", str(cfg),
             "--hierarchy", paths["links"], "--train", paths["train"], "--dev", paths["dev"],
             "--out", str(ckpt), "--history", str(hist)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append((ckpt.read_bytes(), hist.read_bytes()))
    assert outputs[0][0] == outputs[1][0], "checkpoint bytes depend on the BLAS environment"
    assert outputs[0][1] == outputs[1][1], "history bytes depend on the BLAS environment"
