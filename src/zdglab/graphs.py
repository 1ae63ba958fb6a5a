"""Simple graphs over ring elements: zero-divisor graphs and the
complemented / uniquely-complemented machinery.

Two vertices are *orthogonal* when they are adjacent and share no common
neighbor (the edge lies in no triangle); they are *similar* when they are
non-adjacent with identical neighborhoods. A graph is *complemented* when
every vertex has an orthogonal partner, and *uniquely complemented* when
additionally all orthogonal partners of a vertex are pairwise similar.

A graph's whole state is ``vertices`` (ascending keys) and ``adj``, the
boolean adjacency matrix in that order, which the constructor checks is
square, symmetric and loop-free; every predicate is read off that matrix.
In a loop-free graph equal neighborhoods already force non-adjacency, so
similar vertices are exactly those with equal adjacency rows. These classes
are the vertices of the compressed zero-divisor graph (Mulay, Comm. Algebra
30, 2002; Spiroff & Wickham, Comm. Algebra 39, 2011), and zero-divisor
graphs have few of them (68 for the 2047 vertices of Gamma(Z_4096)).

Both predicates are decided on that class graph. Let C be the c x c block
of ``adj`` between the first vertices of the classes. By symmetry and equal
rows, a vertex of class i and one of class l are adjacent exactly when
C[i, l], and x is a common neighbor of both exactly when C[i, k] and
C[k, l] for the class k of x; no loop means C[i, i] is false. So the two
vertices are orthogonal exactly when C[i, l] and no class k has C[i, k] and
C[k, l]. The common-neighbor test runs on the rows of C packed into 64-bit
words, one AND per word, and only on the adjacent class pairs i < l. A
vertex is complemented exactly when its class has a lone (orthogonal)
partner class, and its complements are pairwise similar exactly when that
partner class is unique. The vertex x vertex matrix of orthogonal pairs,
``SimpleGraph.orth``, is gathered from the class matrix only when a caller
reads it.

The classes and the class matrix are found once per graph, on first use,
from ``adj`` alone.

A graph is its vertices and adjacency alone: no name, no display labels
and no reference to its ring, so a graph kept in the verifier's quotient
memo cannot keep its ring's tables alive. ``to_dot`` and ``to_json_obj``
take the ring's element names and label each vertex key with its name, and
``to_dot`` takes the graph's title too; ``verify`` calls neither.

``gamma_ideal`` and ``gamma`` share one builder. Gamma_I(R) takes its
vertices from the ideal's cached ``Ideal.vertex_mask`` and Gamma(R) from
the ring's cached zero-divisor mask; each then reads only the V x V block
of R's own multiplication table for its adjacency and tests it with
``rings.membership``, a compare with zero for Gamma(R) and the zero ideal,
so no order x order product mask is built.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ImproperIdealError
from .ideals import Ideal
from .rings import FiniteRing, membership, packed_words, row_blocks, row_classes


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


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


def _lone_classes(adj: np.ndarray, first: np.ndarray) -> np.ndarray:
    """c x c boolean matrix over the classes whose first vertices are
    ``first``: the class pairs whose vertices are orthogonal (see the
    module docstring).

    C is the block of ``adj`` between the classes' first vertices, its rows
    packed into 64-bit words. Each adjacent pair i < l is tested for a
    common neighbor class with one AND per word, in blocks of pairs, and
    the verdict is written at (i, l) and (l, i).
    """
    between = adj.take(first, axis=0).take(first, axis=1)
    words = packed_words(between)
    ii, ll = between.nonzero()
    upper = ii < ll
    ii, ll = ii[upper], ll[upper]
    lone = np.zeros(between.shape, dtype=bool)
    for block in row_blocks(len(ii), words.shape[1]):
        i, l = ii[block], ll[block]
        lone[i, l] = lone[l, i] = ~(words[i] & words[l]).any(axis=1)
    return lone


class SimpleGraph:
    """Undirected loop-free graph: strictly ascending integer vertex keys and
    ``adj``, the read-only symmetric boolean adjacency matrix in that order.
    Ascending keys make every exported artifact byte-deterministic, and
    distinct keys give each key one position. Immutable after construction,
    and it reads no process-global state: its classes are a cached property.
    Keys that are not strictly ascending raise ``ValueError``, as does an
    ``adj`` that is not square over the vertices, not symmetric or has a
    loop: the class-graph predicates are exact only on such a matrix. A
    writeable or non-contiguous ``adj`` is copied; a read-only C-contiguous
    one is kept.
    """

    def __init__(self, vertices: Sequence[int], adj: np.ndarray):
        self.vertices = tuple(vertices)
        if list(self.vertices) != sorted(set(self.vertices)):
            raise ValueError("vertex keys must be strictly ascending")
        adj = np.asarray(adj, dtype=bool)
        if adj.flags.writeable or not adj.flags.c_contiguous:
            adj = adj.copy()
        n = len(self.vertices)
        if adj.shape != (n, n):
            raise ValueError(f"adjacency matrix of {n} vertices has shape {adj.shape}")
        if np.count_nonzero(adj.diagonal()):
            raise ValueError("adjacency matrix has a loop")
        for rows in row_blocks(n, n):  # the upper triangle, with no V x V temporary
            if (adj[rows, rows.start :] != adj[rows.start :, rows].T).any():
                raise ValueError("adjacency matrix is not symmetric")
        adj.setflags(write=False)
        self.adj = adj

    @cached_property
    def _classes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(first, labels, lone): ``row_classes`` of ``adj``, the classes of
        similar vertices, and ``_lone_classes`` of them."""
        first, labels = row_classes(packed_words(self.adj))
        return first, labels, _lone_classes(self.adj, first)

    @cached_property
    def _partners(self) -> np.ndarray:
        """The number of lone partner classes of each class."""
        return self._classes[2].sum(axis=1)

    @cached_property
    def orth(self) -> np.ndarray:
        """Read-only boolean matrix of orthogonal pairs: edges in no triangle.

        Gathered from the class matrix of ``_classes`` at each vertex's
        class on the first read; the predicates never read it. The argument
        that two vertices' orthogonality depends only on their classes needs
        ``adj`` symmetric and loop-free, which the constructor checks.
        """
        _, labels, lone = self._classes
        orth = lone.take(labels, axis=0).take(labels, axis=1)
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
        """Every vertex has an orthogonal partner (vacuously true when empty):
        every class has a lone partner class."""
        return bool(self._partners.all())

    def is_uniquely_complemented(self) -> bool:
        """Complemented, and the complements of each vertex are pairwise
        similar. Similar vertices are the classes of equal adjacency rows,
        so this is: every class has exactly one lone partner class."""
        return bool((self._partners == 1).all())

    def is_complete(self) -> tuple[bool, int]:
        """(all distinct pairs adjacent, vertex count) -- i.e. whether this is K^n."""
        n = len(self.vertices)
        return (self.edge_count == n * (n - 1) // 2, n)

    def to_dot(self, names: Sequence[str], title: str) -> str:
        """DOT text of the graph ``title`` with each vertex labelled by its
        key's entry of ``names`` (the ring's ``element_names``)."""
        labels = [_dot_quote(names[v]) for v in self.vertices]
        lines = [f"graph {_dot_quote(title)} {{"]
        lines += [f"  {label};" for label in labels]
        lines += [f"  {labels[i]} -- {labels[j]};" for i, j in self.edges()]
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self, names: Sequence[str]) -> dict:
        """The vertices' entries of ``names`` and the edges as position pairs."""
        return {"vertices": [names[v] for v in self.vertices], "edges": [[i, j] for i, j in self.edges()]}

    def __repr__(self) -> str:
        return f"SimpleGraph(vertices={self.vertex_count}, edges={self.edge_count})"


def _ideal_graph(r: FiniteRing, in_i: np.ndarray, vertices: np.ndarray) -> SimpleGraph:
    """The graph on the vertex mask ``vertices`` in which distinct x and y
    are adjacent when x*y lies in the subset ``in_i``. Only the V x V block
    of ``mul_table`` at the vertices is read: in row blocks, each the
    vertices' rows taken at the vertices' columns and tested by
    ``rings.membership``."""
    varr = np.flatnonzero(vertices)
    member = membership(in_i)
    adj = np.empty((len(varr), len(varr)), dtype=bool)
    for block in row_blocks(len(varr), len(varr)):
        adj[block] = member(r.mul_table[varr[block]].take(varr, axis=1))
    np.fill_diagonal(adj, False)
    adj.setflags(write=False)
    return SimpleGraph(varr.tolist(), adj)


def gamma(r: FiniteRing) -> SimpleGraph:
    """The zero-divisor graph: vertices are the nonzero zero-divisors,
    distinct x and y adjacent exactly when x*y = 0. The vertices come from
    the ring's cached zero-divisor mask."""
    zero = np.arange(r.order) == r.zero
    return _ideal_graph(r, zero, r.zero_divisor_mask & ~zero)


def gamma_ideal(r: FiniteRing, i: Ideal) -> SimpleGraph:
    """The ideal-based zero-divisor graph: vertices are the x outside I
    with x*y in I for some y outside I (``Ideal.vertex_mask``, cached on the
    ideal); distinct x and y adjacent exactly when x*y lands in I.
    Coincides with ``gamma`` at the zero ideal."""
    if not i.is_proper:
        raise ImproperIdealError("the ideal-based graph needs a proper ideal")
    return _ideal_graph(r, i.mask, i.vertex_mask)
