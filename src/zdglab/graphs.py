"""Simple graphs over ring elements: zero-divisor graphs and the
complemented / uniquely-complemented machinery.

Two vertices are *orthogonal* when they are adjacent and share no common
neighbor (the edge lies in no triangle); they are *similar* when they are
non-adjacent with identical neighborhoods. A graph is *complemented* when
every vertex has an orthogonal partner, and *uniquely complemented* when
additionally all orthogonal partners of a vertex are pairwise similar.

A graph's whole state is ``vertices`` (ascending keys), ``labels`` (one per
vertex) and ``adj``, the boolean adjacency matrix in that order; every
predicate is read off that matrix. In a loop-free graph equal
neighborhoods already force non-adjacency, so similar vertices are exactly
those with equal adjacency rows. An edge is orthogonal when its entry of
A @ A (the common-neighbor count) is zero, which is triangle detection by
matrix product (Itai & Rodeh, SIAM J. Comput. 7(4), 1978). Vertices with
equal rows of A have equal rows of A @ A, so only one row per class of
equal adjacency rows is multiplied, in float32, which holds every count
below 2^24 exactly. The classes are the vertices of the compressed
zero-divisor graph (Mulay, Comm. Algebra 30, 2002), and zero-divisor graphs
have few of them (68 for the 2047 vertices of Gamma(Z_4096)).

A graph's labels are the ring's element names at its vertices. They are
built on the first read of ``SimpleGraph.labels``: only ``to_dot`` and
``to_json_obj`` read them, and ``verify`` calls neither.

``gamma_ideal`` and ``gamma`` share one builder. Gamma_I(R) takes its
vertices from the ideal's cached ``Ideal.vertex_mask`` and Gamma(R) from
the ring's cached zero-divisor mask; each then gathers only the V x V block
of R's own multiplication table for its adjacency, so no order x order
product mask is built.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ImproperIdealError
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
    """Undirected loop-free graph: ascending integer vertex keys, one display
    label per vertex (a tuple aligned with ``vertices``), and ``adj``, the
    read-only symmetric boolean adjacency matrix in that order. Ascending
    keys make every exported artifact byte-deterministic. Immutable after
    construction.

    ``labels`` may be given as a function returning them; it is called on
    the first read of ``labels``, which only the exports make.
    """

    def __init__(
        self,
        vertices: Sequence[int],
        labels: Sequence[str] | Callable[[], Iterable[str]],
        adj: np.ndarray,
        name: str,
    ):
        self.name = str(name)
        self.vertices = tuple(vertices)
        self._labels = labels if callable(labels) else tuple(labels)
        self.adj = np.ascontiguousarray(adj, dtype=bool)
        self.adj.setflags(write=False)

    @property
    def labels(self) -> tuple[str, ...]:
        """One display label per vertex, aligned with ``vertices``."""
        labels = self._labels
        if callable(labels):
            labels = self._labels = tuple(labels())
        return labels

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

    def edges(self) -> list[tuple[int, int]]:
        """Position pairs (i, j) with i < j of the edges, in row-major order."""
        ii, jj = np.nonzero(np.triu(self.adj, 1))
        return list(zip(ii.tolist(), jj.tolist()))

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
        labels = [_dot_quote(label) for label in self.labels]
        lines = [f"graph {_dot_quote(self.name)} {{"]
        lines += [f"  {label};" for label in labels]
        lines += [f"  {labels[i]} -- {labels[j]};" for i, j in self.edges()]
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {"vertices": list(self.labels), "edges": [[i, j] for i, j in self.edges()]}

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

    def labels():
        names = r.element_names
        return (names[v] for v in verts)

    return SimpleGraph(verts, labels, adj, name)


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
