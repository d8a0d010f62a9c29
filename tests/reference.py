"""Independent reference routes for the closure tests."""

import numpy as np

from omegagroups import zariski
from omegagroups.terms import grid_points


def worklist_membership(algebra, pts, cand):
    """Membership of one candidate by the subalgebra of H^(pts + candidate).

    The candidate is outside iff the closure of the coordinate projections
    over the columns pts + candidate holds a row vanishing on every point
    but not at the candidate.  The closure is semi-naive, as in the row
    kernel, but uncapped and keyed on whole rows, each read as one integer
    in base |H| and kept in a sorted array; every block of operation values
    is searched for a separating row as it is formed, so a separator found
    early ends the search.
    """
    n, width = algebra.size, len(pts) + 1
    assert n**width < 2**62, "rows too wide for integer codes"
    weights = n ** np.arange(width - 1, -1, -1, dtype=np.int64)

    def decode(codes):
        return (codes[:, None] // weights % n).astype(np.uint8)

    columns = np.array(list(pts) + [cand], dtype=np.uint8)
    start = np.concatenate([np.zeros((1, width), dtype=np.uint8), columns.T])
    seen = np.unique(start @ weights)
    rows = frontier = decode(seen)
    while len(frontier):
        older = rows[: len(rows) - len(frontier)]
        formed = [seen[:0]]
        for op in zariski._signature_ops(algebra):
            for j in range(op.ndim):
                axes = [older] * j + [frontier] + [rows] * (op.ndim - 1 - j)
                for block in zariski._op_values(op, axes):
                    if (~block[:, :-1].any(axis=1) & (block[:, -1] != 0)).any():
                        return False
                    formed.append(np.unique(block @ weights))
        new = np.setdiff1d(np.concatenate(formed), seen)
        seen = np.union1d(seen, new)
        frontier = decode(new)
        rows = np.concatenate([rows, frontier])
    return True


def full_width_oracle(algebra, n_vars, point_sets, max_depth):
    """The bounded-depth oracle with every round over the whole grid.

    The term functions of depth at most max_depth are closed as rows over
    all cells and read by the grid route's table filter, once for each
    point set.  Returns the list of zero sets, or None when a round passes
    the row kernel's entry budget.
    """
    start = zariski._projection_rows(algebra, n_vars)
    try:
        table, _ = zariski._close_rows(zariski._signature_ops(algebra), start, steps=max_depth)
    except zariski._GridOverflow:
        return None
    return [closure_from_table(algebra, n_vars, set(pts), table) for pts in point_sets]


def closure_from_table(algebra, n_vars, pts, table):
    """The closure of pts read from a table of term functions by two row filters.

    The rows vanishing on every point, then the cells where all of them
    vanish.  The grid route reads the same table by its zero bitsets.
    """
    cols = [zariski._cell_index(algebra, p) for p in sorted(pts)]
    vanishing = table[(table[:, cols] == 0).all(axis=1)] if cols else table
    member_mask = (vanishing == 0).all(axis=0)
    cells = list(grid_points(algebra.size, n_vars))
    return frozenset(cells[i] for i in np.nonzero(member_mask)[0])
