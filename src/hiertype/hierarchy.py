"""Type hierarchy DAG: loading, validation, ancestor closure, and the
dataset-construction utilities built on top of it.

A hierarchy is a set of named types connected by directed child -> parent
links.  Equivalence links are collapsed into a single class node before any
reachability computation, so every member of a multi-type equivalence class
reports the whole class (itself included) among its ancestors.  The graph of
collapsed classes must be acyclic; anything else is rejected with a concrete
cycle in the error message.

The text format is one link per line, ``child<TAB>parent<TAB>kind``.  Lines
starting with ``#`` and blank lines are ignored.  Accepted kinds are
``child_of``, ``parent_of`` (stored reversed so memory holds a single
direction), ``equivalence``, ``fb_fb``, and ``wordnet_hypernym``.  A line
with a single column declares an isolated type with no links.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import HiertypeError, Optional, expect, parse_json, read_text, starts_json, text_lines

log = logging.getLogger(__name__)

SERIAL_FORMAT = "hiertype-hierarchy"
SERIAL_VERSION = 1


class HierarchyError(HiertypeError):
    """Malformed or inconsistent hierarchy data."""


class HierarchyParseError(HierarchyError):
    def __init__(self, source: str, line_no: int, message: str):
        super().__init__(f"{source}:{line_no}: {message}")
        self.source = source
        self.line_no = line_no


class CycleError(HierarchyError):
    """Raised when the collapsed child->parent graph is not acyclic; the
    message names the input the links came from."""

    def __init__(self, cycle: Sequence[str], source: str = "<memory>"):
        names = list(cycle)
        loop = " -> ".join(names + names[:1])
        super().__init__(f"{source}: hierarchy contains a cycle: {loop}")
        self.cycle = tuple(names)


class UnknownTypeError(HierarchyError):
    def __init__(self, ref: object):
        super().__init__(f"unknown type: {ref!r}")
        self.ref = ref


class LinkKind(str, Enum):
    CHILD_OF = "child_of"
    EQUIVALENCE = "equivalence"
    FB_FB = "fb_fb"
    WORDNET_HYPERNYM = "wordnet_hypernym"


# File tokens accepted in the kind column.  parent_of rows are reversed on
# input so the in-memory graph has a single child -> parent direction.
_KIND_TOKENS: dict[str, tuple[LinkKind, bool]] = {
    "child_of": (LinkKind.CHILD_OF, False),
    "parent_of": (LinkKind.CHILD_OF, True),
    "equivalence": (LinkKind.EQUIVALENCE, False),
    "fb_fb": (LinkKind.FB_FB, False),
    "wordnet_hypernym": (LinkKind.WORDNET_HYPERNYM, False),
    "hypernym": (LinkKind.WORDNET_HYPERNYM, False),
}


class TypeId(NamedTuple):
    name: str
    index: int


class Link(NamedTuple):
    child: TypeId
    parent: TypeId
    kind: LinkKind


RawLink = tuple[str, str, LinkKind]


def _resolve_link(child: str, parent: str, kind: str) -> RawLink:
    """The one check of a link: both names non-empty, the kind a LinkKind or
    a file token (``parent_of`` reversed), and no self link other than an
    equivalence.  Callers prefix the fault with its location."""
    if not child or not parent:
        raise HierarchyError("empty type name")
    token = kind.value if isinstance(kind, LinkKind) else kind
    if token not in _KIND_TOKENS:
        raise HierarchyError(f"unknown link kind: {token!r}")
    resolved, reverse = _KIND_TOKENS[token]
    if reverse:
        child, parent = parent, child
    if child == parent and resolved is not LinkKind.EQUIVALENCE:
        raise HierarchyError(f"self link on {child!r} ({resolved.value})")
    return (child, parent, resolved)


@dataclass(frozen=True)
class HierarchyStats:
    """Summary statistics over a validated hierarchy.

    Depth is defined on the equivalence-collapsed graph: a class with no
    parents has depth 1, every other class has depth 1 + max over its parent
    classes, and each type inherits the depth of its class.  ``mean_depth``
    averages over types, not classes.
    """

    type_count: int
    max_depth: int
    mean_depth: float
    link_counts: Mapping[str, int]

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "type_count": self.type_count,
            "max_depth": self.max_depth,
            "mean_depth": self.mean_depth,
        }
        for kind in sorted(self.link_counts):
            out[f"links_{kind}"] = self.link_counts[kind]
        return out

    def as_line(self) -> str:
        return " ".join(f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in self.as_dict().items())


class TypeHierarchy:
    """Validated, immutable type DAG with a precomputed ancestor closure.

    Each link is a ``(child, parent, kind)`` triple whose kind is a
    ``LinkKind`` or a file token; a faulty link is named by its index, or
    by ``source:line`` when ``line_nos`` gives each link's line."""

    def __init__(
        self,
        links: Iterable[tuple[str, str, str]],
        extra_types: Sequence[str] = (),
        source: str = "<memory>",
        name_order: Sequence[str] | None = None,
        line_nos: Sequence[int] | None = None,
    ):
        names: list[str] = []
        index: dict[str, int] = {}

        def intern(name: str) -> int:
            if not name:
                raise HierarchyError(f"{source}: empty type name")
            got = index.get(name)
            if got is None:
                got = len(names)
                index[name] = got
                names.append(name)
            return got

        if name_order is not None:
            for name in name_order:
                if name in index:
                    raise HierarchyError(f"{source}: duplicate type name {name!r}")
                intern(name)

        deduped: list[RawLink] = []
        seen: set[tuple] = set()
        duplicates = 0
        for i, link in enumerate(links):
            link = expect(link, (str, str, str), f"{source}: link {i}:", HierarchyError)
            try:
                child, parent, kind = _resolve_link(*link)
            except HierarchyError as exc:
                if line_nos is not None:
                    raise HierarchyParseError(source, line_nos[i], str(exc)) from exc
                raise HierarchyError(f"{source}: link {i}: {exc}") from exc
            if name_order is not None:
                for name in (child, parent):
                    if name not in index:
                        raise HierarchyError(
                            f"{source}: link {i}: type {name!r} is not in the declared order")
            ci, pi = intern(child), intern(parent)
            if kind is LinkKind.EQUIVALENCE:
                key = (kind, min(ci, pi), max(ci, pi))
            else:
                key = (kind, ci, pi)
            if key in seen:
                duplicates += 1
                continue
            seen.add(key)
            deduped.append((child, parent, kind))
        if duplicates:
            log.warning("%s: dropped %d duplicate link(s)", source, duplicates)

        for name in extra_types:
            intern(name)

        self._names: tuple[str, ...] = tuple(names)
        self._index = index
        self._ids = tuple(TypeId(n, i) for i, n in enumerate(names))
        self.links: tuple[Link, ...] = tuple(
            Link(self._ids[index[c]], self._ids[index[p]], k) for c, p, k in deduped
        )
        self._build_closure(source)

    # ------------------------------------------------------------------
    # construction internals

    def _build_closure(self, source: str) -> None:
        n = len(self._names)

        # Union-find over equivalence links; collapse before reachability.
        uf = list(range(n))

        def find(i: int) -> int:
            while uf[i] != i:
                uf[i] = uf[uf[i]]
                i = uf[i]
            return i

        equivalences = [l for l in self.links if l.kind is LinkKind.EQUIVALENCE]
        for link in equivalences:
            a, b = find(link.child.index), find(link.parent.index)
            uf[max(a, b)] = min(a, b)  # the class rep is its smallest index

        rep_of = [find(i) for i in range(n)]
        members: dict[int, list[int]] = {}
        for i, r in enumerate(rep_of):
            members.setdefault(r, []).append(i)
        # a class holding an equivalence link, even a self one, is its own ancestor
        cyclic_classes = {rep_of[link.child.index] for link in equivalences}

        parents: dict[int, set[int]] = {r: set() for r in members}
        for link in self.links:
            if link.kind is LinkKind.EQUIVALENCE:
                continue
            c, p = rep_of[link.child.index], rep_of[link.parent.index]
            if c == p:
                # child-of edge inside one equivalence class: collapsed self loop
                raise CycleError([link.child.name, link.parent.name], source)
            parents[c].add(p)

        # Depth-first over class parents in sorted order; each class gets its
        # ancestor types and depth in post-order.  ``walk`` maps the classes
        # on the current path, root first, to their unvisited parents; a
        # parent met on the path closes a cycle.
        anc: dict[int, set[int]] = {}
        depth: dict[int, int] = {}
        for root in sorted(members):
            walk = {} if root in anc else {root: iter(sorted(parents[root]))}
            while walk:
                k = next(reversed(walk))
                for p in walk[k]:
                    if p in walk:
                        path = list(walk)
                        raise CycleError([self._names[r] for r in path[path.index(p):]], source)
                    if p not in anc:
                        walk[p] = iter(sorted(parents[p]))
                        break
                else:
                    del walk[k]
                    acc = set(members[k]) if k in cyclic_classes else set()
                    for p in parents[k]:
                        acc.update(members[p])
                        acc |= anc[p]
                    anc[k] = acc
                    depth[k] = 1 + max((depth[p] for p in parents[k]), default=0)

        ordered = {r: tuple(sorted(acc)) for r, acc in anc.items()}
        self._ancestors = tuple(ordered[r] for r in rep_of)
        self._depths = tuple(depth[r] for r in rep_of)

    # ------------------------------------------------------------------
    # queries

    def __len__(self) -> int:
        return len(self._names)

    @property
    def type_names(self) -> tuple[str, ...]:
        return self._names

    def __contains__(self, ref: object) -> bool:
        try:
            self.resolve(ref)
        except UnknownTypeError:
            return False
        return True

    def resolve(self, ref: object) -> TypeId:
        """Map a name, index, or TypeId onto this hierarchy's TypeId."""
        if isinstance(ref, TypeId):
            i = ref.index
            if 0 <= i < len(self._ids) and self._names[i] == ref.name:
                return self._ids[i]
            raise UnknownTypeError(ref)
        if isinstance(ref, str):
            i = self._index.get(ref)
            if i is None:
                raise UnknownTypeError(ref)
            return self._ids[i]
        if isinstance(ref, int):
            if 0 <= ref < len(self._ids):
                return self._ids[ref]
            raise UnknownTypeError(ref)
        raise UnknownTypeError(ref)

    def ancestors(self, ref: object) -> tuple[TypeId, ...]:
        """All types reachable through one or more parent links.

        The type itself is excluded unless it sits inside an equivalence
        class, in which case the whole class (itself included) is returned
        along with the class ancestors.  Result is sorted by type index.
        """
        t = self.resolve(ref)
        return tuple(self._ids[i] for i in self._ancestors[t.index])

    def ancestor_indexes(self, index: int) -> tuple[int, ...]:
        return self._ancestors[index]

    def closure(self, refs: Iterable[object]) -> tuple[TypeId, ...]:
        """The input types plus all their ancestors, sorted by index."""
        acc: set[int] = set()
        for ref in refs:
            t = self.resolve(ref)
            acc.add(t.index)
            acc.update(self._ancestors[t.index])
        return tuple(self._ids[i] for i in sorted(acc))

    def depth_of(self, ref: object) -> int:
        return self._depths[self.resolve(ref).index]

    def stats(self) -> HierarchyStats:
        counts = Counter(link.kind.value for link in self.links)
        n = len(self._names)
        mean = sum(self._depths) / n if n else 0.0
        return HierarchyStats(
            type_count=n,
            max_depth=max(self._depths, default=0),
            mean_depth=mean,
            link_counts=dict(counts),
        )

    # ------------------------------------------------------------------
    # serialization

    def to_dict(self) -> dict[str, object]:
        return {
            "format": SERIAL_FORMAT,
            "version": SERIAL_VERSION,
            "types": list(self._names),
            "links": [[l.child.name, l.parent.name, l.kind.value] for l in self.links],
            "ancestors": [list(a) for a in self._ancestors],
        }

    @classmethod
    def from_dict(cls, data: dict[str, object], source: str = "<dict>") -> "TypeHierarchy":
        expect(data, dict, f"{source}: serialized hierarchy", HierarchyError)
        if data.get("format") != SERIAL_FORMAT:
            raise HierarchyError(f"{source}: not a serialized hierarchy")
        at = f"{source}: malformed hierarchy payload: "
        version = expect(data.get("version"), int, f"{at}'version'", HierarchyError)
        if version != SERIAL_VERSION:
            raise HierarchyError(f"{source}: unsupported version {version!r}")
        types = expect(data.get("types"), [str], f"{at}'types'", HierarchyError)
        # each link's own shape is checked where the link is resolved
        links = expect(data.get("links"), list, f"{at}'links'", HierarchyError)
        stored = expect(data.get("ancestors"), Optional([[int]]), f"{at}'ancestors'", HierarchyError)
        h = cls(links, source=source, name_order=types)
        if stored is not None:
            recomputed = [list(a) for a in h._ancestors]
            if stored != recomputed:
                raise HierarchyError(f"{source}: stored ancestor sets do not match recomputed closure")
        return h

    def save(self, path: str) -> None:
        payload = json.dumps(self.to_dict(), ensure_ascii=False, separators=(",", ":"))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")

    @classmethod
    def from_links(
        cls,
        links: Iterable[tuple[str, str, str]],
        types: Sequence[str] = (),
        source: str = "<memory>",
    ) -> "TypeHierarchy":
        return cls(links, extra_types=types, source=source)

    @classmethod
    def load(cls, path: str) -> "TypeHierarchy":
        if starts_json(path, HierarchyError):
            return cls.from_dict(parse_json(read_text(path, HierarchyError), path, HierarchyError),
                                 source=path)
        links, line_nos, isolated = [], [], []
        for line_no, line in text_lines(path, HierarchyError, comments=True):
            fields = [f.strip() for f in line.strip().split("\t")]
            if len(fields) == 1:
                isolated.append(fields[0])
            elif len(fields) == 3:
                links.append(fields)
                line_nos.append(line_no)
            else:
                raise HierarchyParseError(path, line_no, f"expected 3 tab-separated fields, got {len(fields)}")
        return cls(links, extra_types=isolated, source=path, line_nos=line_nos)


def load_hierarchy(path: str) -> TypeHierarchy:
    return TypeHierarchy.load(path)


def write_links(path: str, links: Iterable[Link], header: str | None = None) -> None:
    """Write links in the one-per-line text format (deterministic bytes)."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for link in links:
            fh.write(f"{link.child.name}\t{link.parent.name}\t{link.kind.value}\n")


# ----------------------------------------------------------------------
# dataset-construction helpers


class EntityTypeTable:
    """Mapping from entity id to the set of raw type names it carries.

    File format: ``entity_id<TAB>type1,type2,...`` with ``#`` comments;
    duplicate type names collapse, duplicate entity rows union.
    """

    def __init__(self, table: Mapping[str, Iterable[str]]):
        self._table: dict[str, frozenset[str]] = {
            str(e): frozenset(str(t) for t in ts) for e, ts in table.items()
        }

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, entity: str) -> bool:
        return entity in self._table

    def entities(self) -> tuple[str, ...]:
        return tuple(sorted(self._table))

    def types_of(self, entity: str) -> frozenset[str]:
        return self._table.get(entity, frozenset())

    def all_type_names(self) -> tuple[str, ...]:
        acc: set[str] = set()
        for ts in self._table.values():
            acc |= ts
        return tuple(sorted(acc))

    @classmethod
    def load(cls, path: str) -> "EntityTypeTable":
        table: dict[str, set[str]] = {}
        for line_no, line in text_lines(path, HierarchyError, comments=True):
            fields = line.strip().split("\t")
            if len(fields) > 2:
                raise HierarchyParseError(path, line_no, f"expected 2 tab-separated fields, got {len(fields)}")
            entity, type_field = (fields + [""])[:2]
            if not entity:
                raise HierarchyParseError(path, line_no, "empty entity id")
            types = {t.strip() for t in type_field.split(",") if t.strip()}
            table.setdefault(entity, set()).update(types)
        return cls(table)


def derive_cooccurrence_links(
    table: EntityTypeTable,
    threshold: float = 0.7,
    allowed_pairs: set[tuple[str, str]] | None = None,
) -> list[Link]:
    """Infer child -> parent links from type co-occurrence over entities.

    Emits ``t1 -> t2`` (kind fb_fb) when the conditional frequency
    P(t2 | t1) = |entities with both| / |entities with t1| reaches the
    threshold.  Self pairs are never emitted and types never attached to
    any entity produce nothing.  ``allowed_pairs`` optionally restricts
    output to a precomputed candidate set.  Output is sorted by
    (child index, parent index) over indexes minted from sorted names.
    """
    if not 0.0 < threshold <= 1.0:
        raise HierarchyError(f"threshold must be in (0, 1], got {threshold!r}")
    names = table.all_type_names()
    ids = {name: TypeId(name, i) for i, name in enumerate(names)}
    singles: Counter[str] = Counter()
    pairs: Counter[tuple[str, str]] = Counter()
    for entity in table.entities():
        ts = sorted(table.types_of(entity))
        singles.update(ts)
        for t1 in ts:
            for t2 in ts:
                if t1 != t2:
                    pairs[(t1, t2)] += 1
    # a pair that never co-occurs has frequency 0 < threshold, and sorted
    # names give (child index, parent index) order
    return [
        Link(ids[t1], ids[t2], LinkKind.FB_FB)
        for (t1, t2), both in sorted(pairs.items())
        if both / singles[t1] >= threshold and (allowed_pairs is None or (t1, t2) in allowed_pairs)
    ]
