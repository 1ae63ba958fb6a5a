"""Simple graphs over ring elements: zero-divisor graphs and the
complemented / uniquely-complemented machinery.

Two vertices are *orthogonal* when they are adjacent and share no common
neighbor (the edge lies in no triangle); they are *similar* when they are
non-adjacent with identical neighborhoods. A graph is *complemented* when
every vertex has an orthogonal partner, and *uniquely complemented* when
additionally all orthogonal partners of a vertex are pairwise similar.

A graph is its boolean adjacency matrix over the ascending vertex keys, and
every predicate is read off that matrix. In a loop-free graph equal
neighborhoods already force non-adjacency, so similar vertices are exactly
those with equal adjacency rows. An edge is orthogonal when its entry of
A @ A (the common-neighbor count) is zero, which is triangle detection by
matrix product (Itai & Rodeh, SIAM J. Comput. 7(4), 1978). Vertices with
equal rows of A have equal rows of A @ A, so only one row per class of
equal adjacency rows is multiplied, in float32, which holds every count
below 2^24 exactly. The classes are the vertices of the compressed
zero-divisor graph (Mulay, Comm. Algebra 30, 2002), and zero-divisor graphs
have few of them (68 for the 2047 vertices of Gamma(Z_4096)).

``gamma_ideal`` and ``gamma`` share one builder. Gamma_I(R) takes its
vertices from the ideal's cached ``Ideal.vertex_mask`` and Gamma(R) from
the ring's cached zero-divisor mask; each then gathers only the V x V block
of R's own multiplication table for its adjacency, so no order x order
product mask is built.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ImproperIdealError, UnknownVertexError
from .ideals import Ideal
from .rings import FiniteRing, row_blocks, zero_divisor_mask


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def row_classes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, labels) for the rows of a 2-D boolean array: rows share a
    label exactly when they are equal, and ``first[c]`` is the index of the
    first row with label c."""
    rows = np.ascontiguousarray(rows, dtype=bool)
    if rows.shape[1] == 0:
        return np.zeros(min(1, rows.shape[0]), dtype=np.intp), np.zeros(rows.shape[0], dtype=np.intp)
    keys = rows.view(np.dtype((np.void, rows.shape[1])))[:, 0]
    _, first, labels = np.unique(keys, return_index=True, return_inverse=True)
    return first, labels


def first_class_split(sel: np.ndarray, classes: np.ndarray) -> tuple[int, int] | None:
    """The first (row, column), in row-major order, at which a row of the
    boolean matrix ``sel`` selects a column whose class differs from that of
    the row's first selected column; None when every row stays in one class."""
    if sel.size == 0:
        return None
    split = sel & (classes[None, :] != classes[sel.argmax(axis=1)][:, None])
    if not split.any():
        return None
    return divmod(int(split.argmax()), sel.shape[1])


class SimpleGraph:
    """Undirected loop-free graph on integer vertex keys with display labels.

    Vertices are kept in ascending key order, which makes every exported
    artifact byte-deterministic; ``adj`` is the read-only boolean adjacency
    matrix in that order. Immutable after construction.
    """

    def __init__(self, vertices: Iterable[int], labels: Mapping[int, str], edges, name: str = ""):
        vs = sorted(int(v) for v in vertices)
        if len(vs) != len(set(vs)):
            raise ValueError("duplicate vertex keys")
        pos = {v: k for k, v in enumerate(vs)}
        adj = np.zeros((len(vs), len(vs)), dtype=bool)
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValueError("self-loops are not allowed")
            if a not in pos or b not in pos:
                raise UnknownVertexError(f"edge ({a},{b}) uses an unknown vertex")
            adj[pos[a], pos[b]] = adj[pos[b], pos[a]] = True
        self._init(vs, labels, adj, name)

    @classmethod
    def _from_matrix(
        cls, vertices: Sequence[int], labels: Mapping[int, str], adj: np.ndarray, name: str
    ) -> "SimpleGraph":
        """Graph on ascending ``vertices`` from a symmetric loop-free matrix."""
        g = cls.__new__(cls)
        g._init(vertices, labels, adj, name)
        return g

    def _init(self, vs: Sequence[int], labels: Mapping[int, str], adj: np.ndarray, name: str) -> None:
        self.name = str(name)
        self.vertices = tuple(vs)
        self.labels = {v: str(labels[v]) for v in vs}
        self._pos = {v: k for k, v in enumerate(vs)}
        self.adj = np.ascontiguousarray(adj, dtype=bool)
        self.adj.setflags(write=False)

    @cached_property
    def _classes(self) -> tuple[np.ndarray, np.ndarray]:
        """``row_classes(adj)``: the classes of similar vertices."""
        return row_classes(self.adj)

    @cached_property
    def orth(self) -> np.ndarray:
        """Read-only boolean matrix of orthogonal pairs: edges in no triangle.

        Row v of A @ A depends only on row v of A, so the product R @ A is
        taken over the rows R of the first vertex of each class of equal
        rows, and every vertex reads the zero pattern of its class's row.
        It runs in float32 through BLAS; common-neighbor counts stay below
        the vertex count, far inside float32's exact range.
        """
        first, labels = self._classes
        a = self.adj.astype(np.float32)
        orth = self.adj & ((a[first] @ a) == 0)[labels]
        orth.setflags(write=False)
        return orth

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.adj)) // 2

    def _edge_positions(self):
        ii, jj = np.nonzero(np.triu(self.adj, 1))
        return zip(ii.tolist(), jj.tolist())

    def edge_list(self) -> list[tuple[int, int]]:
        vs = self.vertices
        return [(vs[i], vs[j]) for i, j in self._edge_positions()]

    def _index(self, v: int) -> int:
        if v not in self._pos:
            raise UnknownVertexError(f"vertex {v!r} is not in the graph")
        return self._pos[v]

    def _keys(self, row: np.ndarray) -> tuple[int, ...]:
        return tuple(self.vertices[k] for k in np.flatnonzero(row).tolist())

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(self._keys(self.adj[self._index(v)]))

    def adjacent(self, a: int, b: int) -> bool:
        return bool(self.adj[self._index(a), self._index(b)])

    def are_orthogonal(self, a: int, b: int) -> bool:
        """Adjacent with no common neighbor."""
        i, j = self._index(a), self._index(b)
        if a == b:
            raise ValueError("orthogonality needs two distinct vertices")
        return bool(self.orth[i, j])

    def are_similar(self, a: int, b: int) -> bool:
        """Non-adjacent with identical neighborhoods; a vertex is similar to itself."""
        i, j = self._index(a), self._index(b)
        return bool((self.adj[i] == self.adj[j]).all())

    def complements(self, a: int) -> tuple[int, ...]:
        """All vertices orthogonal to ``a``, ascending."""
        return self._keys(self.orth[self._index(a)])

    def is_complemented(self) -> bool:
        """Every vertex has an orthogonal partner (vacuously true when empty)."""
        return bool(self.orth.any(axis=1).all())

    def is_uniquely_complemented(self) -> bool:
        """Complemented, and the complements of each vertex are pairwise
        similar: each row of ``orth`` selects a single adjacency-row class."""
        return self.is_complemented() and first_class_split(self.orth, self._classes[1]) is None

    def is_complete(self) -> tuple[bool, int]:
        """(all distinct pairs adjacent, vertex count) -- i.e. whether this is K^n."""
        n = len(self.vertices)
        return (self.edge_count == n * (n - 1) // 2, n)

    def to_dot(self) -> str:
        lines = [f"graph {_dot_quote(self.name)} {{"]
        for v in self.vertices:
            lines.append(f"  {_dot_quote(self.labels[v])};")
        for a, b in self.edge_list():
            lines.append(f"  {_dot_quote(self.labels[a])} -- {_dot_quote(self.labels[b])};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "vertices": [self.labels[v] for v in self.vertices],
            "edges": [[i, j] for i, j in self._edge_positions()],
        }

    def __repr__(self) -> str:
        return f"SimpleGraph({self.name!r}, vertices={self.vertex_count}, edges={self.edge_count})"


def _ideal_graph(r: FiniteRing, in_i: np.ndarray, vertices: np.ndarray, name: str) -> SimpleGraph:
    """The graph on the vertex mask ``vertices`` in which distinct x and y
    are adjacent when x*y lies in the subset ``in_i``. Only the V x V block
    of ``mul_table`` at the vertices is read: in row blocks, each the
    vertices' rows taken at the vertices' columns and cast to intp."""
    varr = np.flatnonzero(vertices)
    adj = np.empty((len(varr), len(varr)), dtype=bool)
    for block in row_blocks(len(varr), len(varr)):
        adj[block] = in_i[r.mul_table[varr[block]].take(varr, axis=1).astype(np.intp)]
    np.fill_diagonal(adj, False)
    verts = varr.tolist()
    return SimpleGraph._from_matrix(verts, {v: r.element_names[v] for v in verts}, adj, name)


def gamma(r: FiniteRing) -> SimpleGraph:
    """The zero-divisor graph: vertices are the nonzero zero-divisors,
    distinct x and y adjacent exactly when x*y = 0. The vertices come from
    the ring's cached zero-divisor mask."""
    zero = np.arange(r.order) == r.zero
    return _ideal_graph(r, zero, zero_divisor_mask(r) & ~zero, f"Gamma({r.spec})")


def gamma_ideal(r: FiniteRing, i: Ideal) -> SimpleGraph:
    """The ideal-based zero-divisor graph: vertices are the x outside I
    with x*y in I for some y outside I (``Ideal.vertex_mask``, cached on the
    ideal); distinct x and y adjacent exactly when x*y lands in I.
    Coincides with ``gamma`` at the zero ideal."""
    if not i.is_proper:
        raise ImproperIdealError("the ideal-based graph needs a proper ideal")
    gens = i.generators if i.generators else (r.zero,)
    name = f"Gamma_{{{','.join(str(g) for g in gens)}}}({r.spec})"
    return _ideal_graph(r, i.mask, i.vertex_mask, name)
