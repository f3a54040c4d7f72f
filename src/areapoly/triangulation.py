"""Combinatorial triangulations of a quadrilateral.

A triangulation here is purely symbolic: named vertices, of which the
four corners ``p, q, r, s`` trace the boundary in counterclockwise
order, and a list of named, counterclockwise-oriented triangles.  Every
side of the quadrilateral must be a single edge; vertices other than
the corners are interior.  Dissections whose triangles subdivide an
edge are first converted by :func:`areapoly.dissection.poof`, which
inserts zero-area fan triangles until this shape is reached.

Validation checks the usual disc-triangulation facts: consistent
orientation (each directed edge at most once), boundary exactly the
four corner edges, Euler count ``V - E + F == 1``, triangle count
``F == 2V - 6``, edge-connected dual, and a single link cycle or path
around every vertex.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

__all__ = [
    "CORNERS",
    "Triangle",
    "CombinatorialTriangulation",
    "InvalidTriangulationError",
    "diagonal_family",
    "center_fan",
    "barycentric_refine",
    "triangles_from_json",
    "triangles_to_json",
    "triangulation_from_json",
    "triangulation_to_json",
]

CORNERS = ("p", "q", "r", "s")


class InvalidTriangulationError(ValueError):
    """Raised when a triangulation fails validation; carries the problems."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class Triangle:
    """A named oriented triangle; the vertex cycle is counterclockwise."""

    name: str
    vertices: tuple[str, str, str]

    def directed_edges(self) -> tuple[tuple[str, str], ...]:
        a, b, c = self.vertices
        return ((a, b), (b, c), (c, a))

    def link_edge(self, vertex: str) -> tuple[str, str]:
        """The oriented opposite edge as seen from one vertex."""
        a, b, c = self.vertices
        if vertex == a:
            return (b, c)
        if vertex == b:
            return (c, a)
        if vertex == c:
            return (a, b)
        raise ValueError(f"vertex {vertex!r} not in triangle {self.name}")


@dataclass(frozen=True)
class CombinatorialTriangulation:
    vertices: tuple[str, ...]
    triangles: tuple[Triangle, ...]

    @property
    def triangle_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.triangles)

    def triangle(self, name: str) -> Triangle:
        for t in self.triangles:
            if t.name == name:
                return t
        raise KeyError(f"no triangle named {name!r}")

    def interior_vertices(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if v not in CORNERS)

    # -- validation --------------------------------------------------------

    def validate(self) -> list[str]:
        """All structural problems found, empty when the triangulation is valid."""
        problems: list[str] = []
        if len(set(self.vertices)) != len(self.vertices):
            problems.append("duplicate vertex ids")
        for corner in CORNERS:
            if corner not in self.vertices:
                problems.append(f"missing corner vertex {corner!r}")
        names = [t.name for t in self.triangles]
        if len(set(names)) != len(names):
            problems.append("duplicate triangle names")
        if not self.triangles:
            problems.append("no triangles")
        known = set(self.vertices)
        for t in self.triangles:
            if len(set(t.vertices)) != 3:
                problems.append(f"triangle {t.name} repeats a vertex")
            for v in t.vertices:
                if v not in known:
                    problems.append(f"triangle {t.name} uses unknown vertex {v!r}")
        if problems:
            return problems

        vertex_sets = Counter(frozenset(t.vertices) for t in self.triangles)
        for vset, count in vertex_sets.items():
            if count > 1:
                problems.append(f"triangles share the vertex set {sorted(vset)}")

        directed = Counter(e for t in self.triangles for e in t.directed_edges())
        for edge, count in directed.items():
            if count > 1:
                problems.append(f"directed edge {edge} appears {count} times")
        undirected = Counter(frozenset(e) for e in directed)
        for edge, count in undirected.items():
            if count > 2:
                problems.append(f"edge {sorted(edge)} borders {count} triangles")
        if problems:
            return problems

        boundary = {e for e in directed if (e[1], e[0]) not in directed}
        quad_cycle = {
            (CORNERS[i], CORNERS[(i + 1) % 4]) for i in range(4)
        }
        if boundary != quad_cycle:
            problems.append(
                f"boundary edges are {sorted(boundary)}, expected the corner cycle {sorted(quad_cycle)}"
            )

        links: dict[str, list[tuple[str, str]]] = defaultdict(list)
        for t in self.triangles:
            for v in t.vertices:
                links[v].append(t.link_edge(v))
        for v in self.vertices:
            if v not in links:
                problems.append(f"vertex {v!r} belongs to no triangle")

        v_count = len(self.vertices)
        e_count = len(undirected)
        f_count = len(self.triangles)
        if v_count - e_count + f_count != 1:
            problems.append(
                f"Euler count V-E+F = {v_count}-{e_count}+{f_count} != 1"
            )
        if f_count != 2 * v_count - 6:
            problems.append(f"triangle count {f_count} != 2V-6 = {2 * v_count - 6}")

        problems.extend(self._dual_connectivity())
        for v in sorted(links):
            problems.extend(self._link_problems(v, links[v]))
        return problems

    def _dual_connectivity(self) -> list[str]:
        by_edge: dict[frozenset, list[int]] = defaultdict(list)
        for i, t in enumerate(self.triangles):
            for e in t.directed_edges():
                by_edge[frozenset(e)].append(i)
        adjacency: dict[int, set[int]] = defaultdict(set)
        for members in by_edge.values():
            if len(members) == 2:
                a, b = members
                adjacency[a].add(b)
                adjacency[b].add(a)
        seen = {0}
        stack = [0]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != len(self.triangles):
            return ["triangles do not form an edge-connected disc"]
        return []

    def _link_problems(self, vertex: str, edges: list[tuple[str, str]]) -> list[str]:
        """The link of an interior vertex must be one cycle, of a corner one
        path; ``edges`` are its link edges in triangle order."""
        succ: dict[str, str] = {}
        pred: dict[str, str] = {}
        for a, b in edges:
            if a in succ or b in pred:
                return [f"link of vertex {vertex!r} branches"]
            succ[a] = b
            pred[b] = a
        nodes = set(succ) | set(pred)
        sources = [n for n in nodes if n not in pred]
        is_corner = vertex in CORNERS
        if is_corner:
            if len(sources) != 1:
                return [f"link of corner {vertex!r} is not a single path"]
            start = sources[0]
            length = 0
            node: str | None = start
            while node in succ:
                node = succ[node]
                length += 1
            if length != len(edges):
                return [f"link of corner {vertex!r} is not a single path"]
        else:
            if sources:
                return [f"link of interior vertex {vertex!r} is not a closed cycle"]
            start = edges[0][0]
            node = succ[start]
            length = 1
            while node != start and length <= len(edges):
                node = succ[node]
                length += 1
            if length != len(edges):
                return [f"link of interior vertex {vertex!r} is not a single cycle"]
        return []

    def require_valid(self) -> "CombinatorialTriangulation":
        problems = self.validate()
        if problems:
            raise InvalidTriangulationError(problems)
        return self


# ---------------------------------------------------------------------------
# standard families
# ---------------------------------------------------------------------------


def _default_names(count: int) -> tuple[str, ...]:
    return tuple(f"B{i}" for i in range(1, count + 1))


def make_triangulation(
    vertices: Iterable[str],
    triangles: Iterable[tuple[str, str, str]],
    names: Iterable[str] | None = None,
) -> CombinatorialTriangulation:
    tris = tuple(tuple(t) for t in triangles)
    use_names = tuple(names) if names is not None else _default_names(len(tris))
    if len(use_names) != len(tris):
        raise ValueError("name count does not match triangle count")
    return CombinatorialTriangulation(
        vertices=tuple(vertices),
        triangles=tuple(Triangle(n, v) for n, v in zip(use_names, tris)),
    )


def diagonal_family(n: int) -> CombinatorialTriangulation:
    """The staircase family along the diagonal from ``p`` to ``r``.

    ``n`` interior vertices ``p1 .. pn`` sit along a path from ``p`` to
    ``r``.  Walking the path, each step ``i = 1 .. n+1`` contributes the
    triangle ``Ai`` with apex ``s`` on one side and ``Bi`` with apex
    ``q`` on the other, listed as ``A1 .. A(n+1)`` then ``B1 .. B(n+1)``.
    """
    if n < 0:
        raise ValueError("family index must be nonnegative")
    chain = [f"p{i}" for i in range(1, n + 1)]
    path = ["p", *chain, "r"]
    a_tris = [(("s", path[i - 1], path[i]), f"A{i}") for i in range(1, n + 2)]
    b_tris = [(("q", path[i], path[i - 1]), f"B{i}") for i in range(1, n + 2)]
    return make_triangulation(
        vertices=(*CORNERS, *chain),
        triangles=[t for t, _ in (*a_tris, *b_tris)],
        names=[name for _, name in (*a_tris, *b_tris)],
    )


def center_fan(center: str = "c") -> CombinatorialTriangulation:
    """Four triangles sharing one interior apex, one per side of the quad."""
    return make_triangulation(
        vertices=(*CORNERS, center),
        triangles=[("p", "q", center), ("q", "r", center), ("r", "s", center), ("s", "p", center)],
    )


def barycentric_refine(
    tri: CombinatorialTriangulation,
    triangle_name: str,
    new_vertex: str | None = None,
) -> CombinatorialTriangulation:
    """Split one triangle into three around a fresh interior vertex.

    The triangle ``N = (a, b, c)`` is replaced in place by ``Na = (a, b, m)``,
    ``Nb = (b, c, m)`` and ``Nc = (c, a, m)`` where ``m`` is the new vertex.
    """
    m = new_vertex if new_vertex is not None else f"m_{triangle_name}"
    if m in tri.vertices:
        raise ValueError(f"vertex id {m!r} already in use")
    out: list[Triangle] = []
    found = False
    for t in tri.triangles:
        if t.name != triangle_name:
            out.append(t)
            continue
        found = True
        a, b, c = t.vertices
        out.extend(
            [
                Triangle(f"{t.name}a", (a, b, m)),
                Triangle(f"{t.name}b", (b, c, m)),
                Triangle(f"{t.name}c", (c, a, m)),
            ]
        )
    if not found:
        raise KeyError(f"no triangle named {triangle_name!r}")
    return CombinatorialTriangulation(
        vertices=(*tri.vertices, m), triangles=tuple(out)
    )


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def triangles_to_json(triangles: Iterable[Triangle]) -> list[dict]:
    return [{"name": t.name, "vertices": list(t.vertices)} for t in triangles]


def triangles_from_json(raw: object) -> tuple[Triangle, ...]:
    """A JSON list of triangles, each an object with ``vertices`` and an
    optional ``name`` or a bare three-element vertex list; names default
    to ``B1, B2, ...``."""
    if not isinstance(raw, list):
        raise ValueError(f"'triangles' must be a JSON list, got {type(raw).__name__}")
    triangles: list[Triangle] = []
    for i, entry in enumerate(raw):
        verts, name = entry, f"B{i + 1}"
        if isinstance(entry, Mapping):
            name = str(entry.get("name", name))
            if "vertices" not in entry:
                raise ValueError(f"triangle {name} has no 'vertices' key")
            verts = entry["vertices"]
        if not isinstance(verts, list) or len(verts) != 3:
            raise ValueError(f"triangle {name} must have a list of exactly three vertices")
        triangles.append(Triangle(name, tuple(str(v) for v in verts)))
    return tuple(triangles)


def triangulation_to_json(tri: CombinatorialTriangulation) -> dict:
    return {"vertices": list(tri.vertices), "triangles": triangles_to_json(tri.triangles)}


def triangulation_from_json(data: Mapping) -> CombinatorialTriangulation:
    """Build from a JSON object with ``vertices`` and ``triangles``."""
    try:
        vertices = data["vertices"]
        raw = data["triangles"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"triangulation JSON needs 'vertices' and 'triangles': {exc}") from exc
    if not isinstance(vertices, list):
        raise ValueError("triangulation JSON 'vertices' must be a list of names")
    vertices = tuple(str(v) for v in vertices)
    return CombinatorialTriangulation(vertices=vertices, triangles=triangles_from_json(raw))


def save_triangulation(tri: CombinatorialTriangulation, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(triangulation_to_json(tri), fh, indent=2)
        fh.write("\n")
