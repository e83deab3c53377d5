"""Canonical labeling and generation up to isomorphism: the census.

``canonical_form`` is the least graph6 encoding over all vertex orders,
and ``enumerate_graphs`` lists one canonically labeled graph per
isomorphism class.  Only the work that needs them loads this module: the
girth exceptions, minimal-graph enumeration and duplication closures.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import LimitExceeded
from .formats import g6_bytes_from_columns, rows_from_g6_bytes
from .graphs import LabeledGraph, _bits

CANONICAL_VERTEX_BOUND = 10


# -- canonical form ---------------------------------------------------------


def canonical_form(g: LabeledGraph, max_vertices: int = CANONICAL_VERTEX_BOUND) -> bytes:
    """Canonical byte string: equal iff graphs are isomorphic.

    The least graph6 encoding over all vertex permutations, found by a
    branch-and-bound search over ordered cells of open inner order
    (McKay's ordered partitions): independent vertices with the same placed
    neighbours join one cell, in ascending order, instead of branching
    over their orders.  The least encoding opens with a largest
    independent set (graph6 columns 1 ... alpha-1 are zero, alpha the
    independence number), so the search starts from each such set as one
    cell and never builds a smaller one.  Partial upper-triangle
    comparison bounds the search, and a twin of a tried vertex is skipped.
    """
    n = g.n
    if n > max_vertices:
        raise LimitExceeded(f"canonical form limited to {max_vertices} vertices (got {n})")
    return _canonical_g6_cached(n, g.rows)


def canonical_graph(g: LabeledGraph) -> LabeledGraph:
    """Canonically labeled representative of g's isomorphism class."""
    n, rows = rows_from_g6_bytes(canonical_form(g))
    return LabeledGraph.from_rows(tuple(map(str, range(n))), rows)


def isomorphic(g: LabeledGraph, h: LabeledGraph) -> bool:
    if g.n != h.n or sum(r.bit_count() for r in g.rows) != sum(r.bit_count() for r in h.rows):
        return False
    return canonical_form(g) == canonical_form(h)


@lru_cache(maxsize=200_000)
def _canonical_g6_cached(n: int, rows: tuple[int, ...]) -> bytes:
    # Columns are packed into integers, first placed position at the high
    # bit, so integer order equals lexicographic bit order.  The placed
    # vertices form ordered cells (bit masks) of still open inner order; a
    # candidate's column is, per cell of size s holding t of its
    # neighbours, 0^(s-t) 1^t: the least any inner order allows.  Placing
    # v splits each cell into (non-neighbours, neighbours), the one order
    # giving v that column, and appends the cell {v}; but v joins the last
    # cell instead when it has the same placed neighbours as its members.
    # Joins go in ascending order, so each such set is built once.
    # colbits[c] follows the cells: col << 1 | adjacency when no cell
    # splits, one more position in the last segment on a join, and a
    # recount from the cells after a split.
    #
    # An all-zero column is the least of its width, so the least encoding
    # opens with a largest independent set S: columns 1 ... alpha-1 are
    # zero (alpha = |S|, the independence number) and column alpha is not.
    # The members of S have no placed neighbours, so S is one cell; the
    # search starts at depth alpha from the cell S, once for each S that
    # _largest_independent_sets lists.
    #
    # No node with one vertex left is built: that vertex's column ends the
    # encoding, so a node with two free vertices computes it for each of
    # the two orders and records the encoding where a leaf would.
    best: list[int] | None = None
    generation = 0
    shift = n.bit_length()  # candidates sort as col << shift | cand
    low = (1 << shift) - 1

    twins = _twin_masks(rows)
    starts = _largest_independent_sets(rows, twins)
    columns = [0] * starts[0].bit_count()
    if len(columns) >= n - 1:
        # no edge, or a star plus isolated vertices: the one vertex left is
        # the centre, and its column 1^deg closes the encoding
        if len(columns) < n:
            columns.append((1 << max(map(int.bit_count, rows))) - 1)
        return g6_bytes_from_columns(n, columns)

    def rec(cells: list[int], placed: int, free: list[int], colbits, equals_best: bool) -> None:
        nonlocal best, generation
        depth = len(columns)
        if colbits is None:
            colbits = [0] * n
            sizes = [cell.bit_count() for cell in cells]
            for cand in free:
                row = rows[cand]
                col = 0
                for cell, size in zip(cells, sizes):
                    col = col << size | (1 << (row & cell).bit_count()) - 1
                colbits[cand] = col
        last = cells[-1]
        last_row = rows[(last & -last).bit_length() - 1] & placed
        if best is not None and equals_best:
            limit = best[depth]
            keys = [colbits[cand] << shift | cand for cand in free if colbits[cand] <= limit]
        else:
            keys = [colbits[cand] << shift | cand for cand in free]
        keys.sort()
        singletons = len(cells) == depth
        tried = 0
        local_generation = generation
        for key in keys:
            col = key >> shift
            cand = key & low
            if generation != local_generation:
                # a deeper call improved best, which now extends our prefix
                equals_best = True
                local_generation = generation
            if best is not None and equals_best:
                if col > best[depth]:
                    break
                child_equals = col == best[depth]
            else:
                child_equals = False
            if twins[cand] & tried:
                continue
            tried |= 1 << cand
            row = rows[cand]
            join = row & placed == last_row
            if join and 1 << cand < last:
                continue  # the branch placing cand first covers it; it stays tried
            if depth == n - 2:  # the other free vertex's column is the last
                other = free[0] + free[1] - cand
                bits, a = colbits[other], row >> other & 1
                if join:
                    s = last.bit_count()
                    final = bits >> s << s + 1 | (bits & (1 << s) - 1) << a | a
                elif singletons:
                    final = bits << 1 | a
                else:  # recount over the split cells
                    final = 0
                    for cell in cells:
                        for part in (cell & ~row, cell & row):
                            if part:
                                final = final << part.bit_count() | (1 << (rows[other] & part).bit_count()) - 1
                    final = final << 1 | a
                # the node below would skip other by the join rule when it
                # has cand's placed neighbours and comes before it
                if best is None or not child_equals or final < best[depth + 1]:
                    if other > cand or a or rows[other] & placed != row & placed:
                        best = columns + [col, final]
                        generation += 1
                continue
            if join:
                child = cells[:-1]
                child.append(last | 1 << cand)
                # the last segment becomes 0^(s+1-t-a) 1^(t+a), a = adjacency to cand
                s = last.bit_count()
                segment = (1 << s) - 1
                child_bits = [
                    bits >> s << s + 1 | ((bits & segment) << 1 | 1 if row >> i & 1 else bits & segment)
                    for i, bits in enumerate(colbits)
                ]
            else:
                if singletons:
                    child = cells + [1 << cand]
                else:
                    child = [part for cell in cells for part in (cell & ~row, cell & row) if part]
                    child.append(1 << cand)
                if len(child) == len(cells) + 1:  # no cell split
                    child_bits = [bits << 1 | row >> i & 1 for i, bits in enumerate(colbits)]
                else:
                    child_bits = None
            child_free = free.copy()
            child_free.remove(cand)
            columns.append(col)
            rec(child, placed | 1 << cand, child_free, child_bits, child_equals)
            columns.pop()

    for start in starts:
        free = [cand for cand in range(n) if not start >> cand & 1]
        rec([start], start, free, None, best is not None)
    assert best is not None
    return g6_bytes_from_columns(n, best)


def _twin_masks(rows) -> list[int]:
    """twins[v]: the vertices w != v with the neighbours of v, v and w aside:
    equal rows, or equal rows plus own bit (no row equals such a row)."""
    classes: dict[int, int] = {}
    get = classes.get
    for v, row in enumerate(rows):
        bit = 1 << v
        classes[row] = get(row, 0) | bit
        classes[row | bit] = get(row | bit, 0) | bit
    return [(classes[row] | classes[row | 1 << v]) & ~(1 << v) for v, row in enumerate(rows)]


def _largest_independent_sets(rows: tuple[int, ...], twins: list[int]) -> list[int]:
    """The largest independent sets, as bit masks, built in ascending order.

    A vertex is skipped where a twin (``twins[v]``) was tried before it in
    the same place: swapping the two is an automorphism fixing the set so
    far, so the sets it leads to are images of sets already listed.
    """
    found: list[int] = []
    most = 0

    def grow(chosen: int, size: int, open_: int) -> None:
        nonlocal most
        if not open_:
            if size > most:
                most = size
                found.clear()
            if size == most:
                found.append(chosen)
            return
        tried = 0
        while open_ and size + open_.bit_count() >= most:
            bit = open_ & -open_
            open_ ^= bit
            v = bit.bit_length() - 1
            if twins[v] & tried:
                continue
            tried |= bit
            grow(chosen | bit, size + 1, open_ & ~rows[v])
            if not rows[v] & open_:
                break  # a set of the later vertices alone leaves room for v

    grow(0, 0, (1 << len(rows)) - 1)
    return found


# -- exhaustive generation up to isomorphism -------------------------------


@lru_cache(maxsize=None)
def _generated_forms(n: int, triangle_free: bool) -> tuple[tuple[int, ...], ...]:
    """The canonical rows of each class, decoded once, in canonical-form order."""
    if n <= 1:
        return ((0,) * n,)
    forms = {
        _canonical_g6_cached(n, rows)
        for parent in _generated_forms(n - 1, triangle_free)
        for rows in _children(parent, triangle_free)
    }
    return tuple(rows_from_g6_bytes(form)[1] for form in sorted(forms))


def _children(rows: tuple[int, ...], triangle_free: bool):
    """The children enumerate_graphs keeps of a parent, as rows: the
    parent's plus vertex n = len(rows) on each neighbour set that passes."""
    n = len(rows)
    twins = _twin_masks(rows)
    sets = [0]  # the neighbour sets within vertices 0 ... v-1
    for v, row in enumerate(rows):
        needs = twins[v] & (1 << v) - 1  # v joins after all its earlier twins
        banned = row if triangle_free else 0
        sets += [s | 1 << v for s in sets if s & needs == needs and not s & banned]
    degree = [row.bit_count() for row in rows]
    of_degree = [sum(1 << v for v, d in enumerate(degree) if d == k) for k in range(n + 1)]
    top = max(degree)
    for mask in sets:
        k = mask.bit_count()  # the new vertex's degree
        if k < top or mask & of_degree[k]:
            continue  # an old vertex has a larger degree
        child = [row | (mask >> v & 1) << n for v, row in enumerate(rows)]
        child.append(mask)
        ties = of_degree[k] | of_degree[k - 1] & mask  # old vertices of degree k
        if ties:
            degrees = [row.bit_count() for row in child]
            new = sorted(degrees[u] for u in _bits(mask))
            if any(sorted(degrees[u] for u in _bits(child[v])) > new for v in _bits(ties)):
                continue
        yield tuple(child)


def enumerate_graphs(n: int, triangle_free: bool = False) -> tuple[LabeledGraph, ...]:
    """All graphs on exactly n vertices up to isomorphism, canonical labels.

    Augments each canonical (n-1)-vertex representative by one new vertex
    and deduplicates by canonical form; with ``triangle_free`` the new
    vertex only attaches to independent sets.  The neighbour sets are
    built vertex by vertex, and two tests skip a child before its
    canonical form is computed (the first steps of McKay's canonical
    augmentation):

    - twin pruning, inside that build: when parent vertices u < w are
      twins, the set may take w only if it holds u.  Swapping twins is a
      parent automorphism, so a skipped child is isomorphic to a kept one.
    - greatest invariant: the child is kept only if no old vertex has a
      larger (degree, sorted neighbour degrees) than the new vertex.  A
      degree test runs first; neighbour degrees are sorted on degree ties
      only.  Both families are closed under induced subgraphs, so every
      class arises from the parent left by deleting one of its vertices of
      greatest invariant, with the new vertex in that role.

    The result is the same as without them, sorted by canonical form.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > 10:
        raise LimitExceeded("exhaustive generation limited to 10 vertices")
    labels = tuple(map(str, range(n)))
    return tuple(LabeledGraph.from_rows(labels, rows) for rows in _generated_forms(n, triangle_free))
