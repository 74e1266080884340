"""Complementarity-constrained feasible sets and their polyhedral geometry.

A :class:`ComplementaritySet` is the region

    { x : A x <= b,  A_eq x = b_eq,  z = M x + q,
          0 <= x_{c_i}  perp  z_i >= 0  for each pair i }

which is a finite union of polyhedra: fixing, per pair, which side is
pinned to zero yields one "selected" polyhedron per 0/1 encoding.  This
module enumerates the nonempty selected polyhedra, lifts a finite union
to its closed convex hull via the Balas extended formulation, and
minimizes linear objectives over the set by branch-and-bound that
branches directly on violated complementarity pairs (no big-M needed).
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .hotlp import INF, RangedLp
from .lp import (
    DimensionMismatch,
    LinearProgram,
    LpStatus,
    TimeLimitReached,
    solve_lp,
)
from .tolerances import COMP_TOL, ENUM_CAP, FEAS_TOL


class EncodingLengthMismatch(ValueError):
    pass


class TooManyComplementarities(ValueError):
    pass


class EmptyPieceList(ValueError):
    pass


class Deadline:
    """Wall-clock budget; every search node polls it through ``tick``."""

    def __init__(self, seconds: float | None = None):
        self.seconds = seconds
        self.start = time.monotonic()
        self.nodes = 0

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.start

    @property
    def remaining(self) -> float | None:
        """Seconds left, or None without a budget."""
        return None if self.seconds is None else self.seconds - self.elapsed

    def check(self) -> None:
        if self.seconds is not None and self.elapsed > self.seconds:
            raise TimeLimitReached()

    def tick(self) -> None:
        self.nodes += 1
        self.check()


def default_equalities(obj, n: int) -> None:
    """Give a frozen dataclass with no ``a_eq`` an empty (0, n) equality
    block (dense: building a sparse one costs more than the rest of a
    small player), and check the shape of one it has."""
    if obj.a_eq is None and obj.b_eq is None:
        object.__setattr__(obj, "a_eq", np.zeros((0, n)))
        object.__setattr__(obj, "b_eq", np.zeros(0))
    elif obj.a_eq is None or obj.b_eq is None or obj.a_eq.shape != (len(obj.b_eq), n):
        raise DimensionMismatch("A_eq must have one row per b_eq entry and n columns")


@dataclass(frozen=True)
class Polyhedron:
    """{ x : a x <= b,  a_eq x = b_eq } over free variables."""

    a: object  # (m, n) ndarray or scipy sparse
    b: np.ndarray
    a_eq: object | None = None  # (m_eq, n); no equality rows by default
    b_eq: np.ndarray | None = None

    def __post_init__(self):
        if self.a.shape[0] != len(self.b):
            raise DimensionMismatch("row count of A must equal length of b")
        default_equalities(self, self.n)

    @property
    def n(self) -> int:
        return self.a.shape[1]

    @property
    def m(self) -> int:
        return self.a.shape[0]

    def program(self, objective: np.ndarray) -> LinearProgram:
        """min objective @ x over the polyhedron."""
        return LinearProgram(objective, self.a, self.b, a_eq=self.a_eq, b_eq=self.b_eq)


def is_feasible(poly: Polyhedron) -> bool:
    out = solve_lp(poly.program(np.zeros(poly.n)))
    return out.status is not LpStatus.INFEASIBLE


@dataclass(frozen=True)
class ComplementaritySet:
    """Feasible set with rows ``a x <= b`` and ``a_eq x = b_eq`` and
    complementarity pairs (x_{comp[i]}, [m_mat x + q]_i)."""

    a: object  # (m, n)
    b: np.ndarray
    m_mat: object  # (p, n)
    q: np.ndarray
    comp: tuple[int, ...]
    a_eq: object | None = None  # (m_eq, n); no equality rows by default
    b_eq: np.ndarray | None = None

    def __post_init__(self):
        n = self.n
        if self.a.shape[0] != len(self.b):
            raise DimensionMismatch("A/b row mismatch")
        default_equalities(self, n)
        if self.m_mat.shape[0] != len(self.q) or len(self.q) != len(self.comp):
            raise DimensionMismatch("M/q/comp size mismatch")
        if self.m_mat.shape[0] > 0 and self.m_mat.shape[1] != n:
            raise DimensionMismatch("M column count differs from A")
        if any(c < 0 or c >= n for c in self.comp):
            raise DimensionMismatch("complementarity index out of range")

    @property
    def n(self) -> int:
        return self.a.shape[1]

    @property
    def num_pairs(self) -> int:
        return len(self.comp)

    def slacks(self, x: np.ndarray) -> np.ndarray:
        if self.num_pairs == 0:
            return np.zeros(0)
        return np.asarray(self.m_mat @ x).ravel() + self.q


class PieceRows:
    """Every selected polyhedron of one set, as rows of one shared system.

    ``sides`` stacks one row per pair side: row i is x_{c_i} and row
    p + i is [M x]_i, and ``side_b`` = [0; -q] is the value a pin fixes
    it at.  Encoding e pins the rows ``arange(p) + p * e`` as equalities
    and keeps each other side as one ``>= side_b`` row.  The ranged LP
    instead bounds each complementary column to [0, inf) and keeps
    M x + q >= 0 as one row per pair, so a 0-side pin is a column-bound
    edit and a 1-side pin a row-bound edit.
    """

    def __init__(self, s: ComplementaritySet):
        self.set = s
        p = s.num_pairs
        unit = sp.csr_matrix(
            (np.ones(p), (np.arange(p), np.array(s.comp, dtype=int))), shape=(p, s.n)
        )
        self.sides = sp.vstack([unit, sp.csr_matrix(s.m_mat)], format="csr")
        self.side_b = np.concatenate([np.zeros(p), -np.asarray(s.q, dtype=float)])

    @property
    def num_pairs(self) -> int:
        return self.set.num_pairs

    @cached_property
    def relaxation(self) -> Polyhedron:
        """Both sides of every pair kept as >= rows."""
        s = self.set
        if s.num_pairs == 0:
            return Polyhedron(s.a, np.asarray(s.b, dtype=float), s.a_eq, s.b_eq)
        return Polyhedron(
            sp.vstack([s.a, -self.sides], format="csr"),
            np.concatenate([s.b, -self.side_b]),
            s.a_eq,
            s.b_eq,
        )

    @cached_property
    def lp(self) -> RangedLp:
        """Zero-objective ranged LP shared by the feasibility checks."""
        return self.ranged(np.zeros(self.set.n))

    def piece(self, encoding: tuple[int, ...]) -> Polyhedron:
        """The selected polyhedron of ``encoding``: the pinned sides as
        equalities after the set's own, the other sides as >= rows after
        the set's ``<=`` rows."""
        p = self.num_pairs
        if len(encoding) != p:
            raise EncodingLengthMismatch(
                f"encoding has {len(encoding)} bits, set has {p} pairs"
            )
        if p == 0:
            return self.relaxation
        s = self.set
        pinned = np.arange(p) + p * np.asarray(encoding, dtype=int)
        other = np.arange(p) + p * (1 - np.asarray(encoding, dtype=int))
        return Polyhedron(
            sp.vstack([s.a, -self.sides[other]], format="csr"),
            np.concatenate([s.b, -self.side_b[other]]),
            sp.vstack([s.a_eq, self.sides[pinned]], format="csr"),
            np.concatenate([s.b_eq, self.side_b[pinned]]),
        )

    def ranged(self, objective: np.ndarray) -> RangedLp:
        """The relaxation as one incremental LP whose nodes are bound edits.

        Rows: ``a`` as <= b rows, the equalities with lo = hi, then one
        M x + q >= 0 row per pair; every complementary column is bounded
        to [0, inf).
        """
        s = self.set
        q = np.asarray(s.q, dtype=float)
        col_lo = np.full(s.n, -INF)
        col_lo[list(s.comp)] = 0.0
        return RangedLp(
            objective,
            sp.vstack([sp.csr_matrix(m) for m in (s.a, s.a_eq, s.m_mat)], format="csr"),
            np.concatenate([np.full(s.a.shape[0], -INF), s.b_eq, -q]),
            np.concatenate([np.asarray(s.b, float), s.b_eq, np.full(s.num_pairs, INF)]),
            col_lo,
        )

    def pin_bounds(self, pins, cols: dict | None = None) -> tuple[dict, dict]:
        """Row and column bounds of ``ranged`` that pin side ``bit`` of each
        ``(pair, bit)``, beside the column bounds ``cols``: side 0 fixes
        x_{c_i} at 0, side 1 fixes pair row i at -q_i."""
        s = self.set
        first = s.a.shape[0] + s.a_eq.shape[0]
        rows, cols = {}, dict(cols or {})
        for i, bit in pins:
            if bit:
                rows[first + i] = (-float(s.q[i]), -float(s.q[i]))
            else:
                cols[s.comp[i]] = (0.0, 0.0)
        return rows, cols

    def feasible(self, prefix: tuple[int, ...], time_limit: float | None = None) -> bool:
        """Whether the relaxation with the pairs of ``prefix`` pinned is
        nonempty; ``time_limit`` caps the LP as in ``RangedLp.solve``."""
        self.lp.move_to(*self.pin_bounds(enumerate(prefix)))
        return self.lp.solve(time_limit)[0] is not LpStatus.INFEASIBLE


def polyhedral_relaxation(s: ComplementaritySet) -> Polyhedron:
    """Drop the orthogonality, keep both nonnegativity sides."""
    return PieceRows(s).relaxation


def _pin_row(s: ComplementaritySet, pair: int, bit: int):
    """Row and value of one side of a pair: bit 0 -> x_{c_i}, 0; bit 1 -> [M x]_i, -q_i."""
    if bit == 0:
        row = sp.csr_matrix(
            (np.ones(1), (np.zeros(1, dtype=int), np.array([s.comp[pair]]))),
            shape=(1, s.n),
        )
        rhs = 0.0
    else:
        mrow = s.m_mat.getrow(pair) if sp.issparse(s.m_mat) else s.m_mat[pair : pair + 1]
        row = sp.csr_matrix(mrow)
        rhs = -float(s.q[pair])
    return row, rhs


def selected_polyhedron(s: ComplementaritySet, encoding: tuple[int, ...]) -> Polyhedron:
    """The set with the side ``encoding`` picks of each pair pinned as an
    equality and the other side kept as a >= row.

    Its rows are built one pair at a time, apart from the shared block
    of :class:`PieceRows`; kept as the reference that block is tested
    against.
    """
    if len(encoding) != s.num_pairs:
        raise EncodingLengthMismatch(
            f"encoding has {len(encoding)} bits, set has {s.num_pairs} pairs"
        )
    if s.num_pairs == 0:
        return polyhedral_relaxation(s)
    rows, rhs, eq_rows, eq_rhs = [], [], [], []
    for i, bit in enumerate(encoding):
        row, value = _pin_row(s, i, int(bit))
        eq_rows.append(row)
        eq_rhs.append(value)
        row, value = _pin_row(s, i, 1 - int(bit))
        rows.append(-row)
        rhs.append(-value)
    return Polyhedron(
        sp.vstack([s.a] + rows, format="csr"),
        np.concatenate([s.b, np.array(rhs)]),
        sp.vstack([s.a_eq] + eq_rows, format="csr"),
        np.concatenate([s.b_eq, np.array(eq_rhs)]),
    )


def iter_encodings(
    rows: PieceRows,
    first: int = 0,
    deadline: Deadline | None = None,
) -> Iterator[tuple[int, ...]]:
    """Encodings with a nonempty selected polyhedron, depth-first and lazily.

    Each pair tries side ``first`` before the other, so 0 gives the
    lexicographic order and 1 exactly its reverse.  A prefix whose
    partial system is already infeasible prunes all its completions, so
    the cost scales with the number of nonempty pieces rather than
    2^pairs, and a lazy walk has no cap on the number of pairs.
    """
    p = rows.num_pairs
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        if deadline is not None:
            deadline.tick()
        if not rows.feasible(prefix, None if deadline is None else deadline.remaining):
            continue
        if len(prefix) == p:
            yield prefix
            continue
        stack.append(prefix + (1 - first,))
        stack.append(prefix + (first,))


def enumerate_pieces(
    s: ComplementaritySet | PieceRows,
    cap: int = ENUM_CAP,
    deadline: Deadline | None = None,
) -> list[tuple[tuple[int, ...], Polyhedron]]:
    """All encodings with a nonempty selected polyhedron, lexicographic,
    with their pieces; a set with more than ``cap`` pairs is refused.
    Given a set's ``PieceRows``, the walk runs on its LP."""
    rows = s if isinstance(s, PieceRows) else PieceRows(s)
    if rows.num_pairs > cap:
        raise TooManyComplementarities(f"{rows.num_pairs} pairs exceeds cap {cap}")
    return [(e, rows.piece(e)) for e in iter_encodings(rows, 0, deadline)]


def contains(s: ComplementaritySet, x: np.ndarray, tol: float = FEAS_TOL) -> bool:
    """Membership of a point: rows (an equality in both directions), both
    signs, and pair products within tol."""
    x = np.asarray(x, dtype=float)
    if len(x) != s.n:
        raise DimensionMismatch("point dimension mismatch")
    resid = np.asarray(s.a @ x).ravel() - s.b
    if resid.size and resid.max() > tol:
        return False
    resid = np.abs(np.asarray(s.a_eq @ x).ravel() - s.b_eq)
    if resid.size and resid.max() > tol:
        return False
    if s.num_pairs == 0:
        return True
    xc = x[list(s.comp)]
    z = s.slacks(x)
    if xc.min() < -tol or z.min() < -tol:
        return False
    return bool(np.max(xc * z) <= tol)


@dataclass(frozen=True)
class HullFormulation:
    """Balas lift of cl conv of a finite union of nonempty polyhedra.

    Variables are laid out ``[copies of fat pieces | delta (k) | x (n)]``
    with rows

        A^i x^i <= delta_i b^i,  A_eq^i x^i = delta_i b_eq^i  (fat pieces),
        delta >= 0,
        sum_w x^w + sum_j delta_j v_j = x,   sum_w delta_w = 1,

    the inequalities in ``a``/``b`` and the equalities in ``a_eq``/
    ``b_eq``.  A piece that is a single point v_j needs no copy block:
    its Balas system ``A x <= delta b`` forces exactly ``x = delta v_j``,
    so it enters the aggregation row directly.  A copy leaves out every
    column that a one-entry equality row with right-hand side 0 fixes at
    0 (with the row), so ``copy_cols[i]`` lists the ambient columns it
    keeps.  Any point of piece i is recovered with delta the i-th unit
    vector.
    """

    a: object
    b: np.ndarray
    a_eq: object
    b_eq: np.ndarray
    n: int
    k: int
    points: tuple  # per piece: its single point, or None if fat
    copy_cols: tuple  # per piece: the ambient columns of its copy, or None if a point
    copy_start: tuple[int, ...]  # per piece: copy offset, or -1 if a point
    num_copies: int
    copy_vars: int  # columns of all copy blocks together

    @property
    def num_vars(self) -> int:
        return self.copy_vars + self.k + self.n

    def copy_slice(self, i: int) -> slice:
        start = self.copy_start[i]
        if start < 0:
            raise IndexError(f"piece {i} is a point and has no copy block")
        return slice(start, start + len(self.copy_cols[i]))

    def delta_index(self, i: int) -> int:
        return self.copy_vars + i

    @property
    def agg_slice(self) -> slice:
        base = self.copy_vars + self.k
        return slice(base, base + self.n)

    def piece_point(self, lifted: np.ndarray, i: int) -> np.ndarray:
        """The pure point piece i contributes at a lifted solution."""
        if self.points[i] is not None:
            return np.asarray(self.points[i])
        w = float(lifted[self.delta_index(i)])
        point = np.zeros(self.n)
        point[self.copy_cols[i]] = np.asarray(lifted[self.copy_slice(i)]) / w
        return point


# Width below which a piece counts as a single point: the spread of x_0
# over it, and the distance from the candidate point to a row's hyperplane
# for the row to count as active there.
_POINT_TOL = 1e-9


def _nonzero_rows(a: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the rows of ``a`` with a nonzero norm, and the row norms."""
    norms = np.sqrt(np.asarray(a.multiply(a).sum(axis=1)).ravel())
    return norms > 0, norms


def _single_point_of(piece: Polyhedron, time_limit: float | None = None) -> np.ndarray | None:
    """The piece's unique point if it is a singleton, else None.

    Two LPs bound x_0; only when they meet is their minimizer x tested.
    With A_I the inequality rows active at x and E the equality rows
    (active in both directions), the piece is {x} exactly when no d != 0
    has A_I d <= 0 and E d = 0, that is (Stiemke's lemma) when [A_I; E]
    has rank n and some y_I >= 1 and free y_E have A_I^T y_I + E^T y_E
    = 0: one more LP, over |I| + |E| variables.  ``time_limit`` caps
    each of the three LPs as in ``RangedLp.solve``.
    """
    n = piece.n
    b = np.asarray(piece.b, float)
    e0 = np.zeros(n)
    e0[0] = 1.0
    a, eq = sp.csr_matrix(piece.a), sp.csr_matrix(piece.a_eq)
    lp = RangedLp(
        e0,
        sp.vstack([a, eq], format="csr"),
        np.concatenate([np.full(piece.m, -INF), piece.b_eq]),
        np.concatenate([b, piece.b_eq]),
    )
    status, x, lo = lp.solve(time_limit)
    if status is not LpStatus.OPTIMAL:
        return None
    lp.set_objective(-e0)
    status, _, neg_hi = lp.solve(time_limit)
    if status is not LpStatus.OPTIMAL or -neg_hi - lo > _POINT_TOL:
        return None
    rows, norms = _nonzero_rows(a)
    active = a[rows & (b - a @ x <= _POINT_TOL * norms)]
    eq = eq[_nonzero_rows(eq)[0]]
    tight = sp.vstack([active, eq], format="csr")
    if tight.shape[0] < n or np.linalg.matrix_rank(tight.toarray()) < n:
        return None
    k = active.shape[0]
    col_lo = np.concatenate([np.ones(k), np.full(eq.shape[0], -INF)])
    cone = RangedLp(np.zeros(tight.shape[0]), tight.T, np.zeros(n), np.zeros(n), col_lo=col_lo)
    return x if cone.solve(time_limit)[0] is LpStatus.OPTIMAL else None


def _zero_pins(piece: Polyhedron) -> np.ndarray:
    """Mask of the equality rows that fix one column at 0: one nonzero
    entry and a right-hand side of 0."""
    eq = sp.csr_matrix(piece.a_eq)
    per_row = np.bincount(
        np.repeat(np.arange(eq.shape[0]), np.diff(eq.indptr))[eq.data != 0],
        minlength=eq.shape[0],
    )
    return (per_row == 1) & (np.asarray(piece.b_eq) == 0)


class Triplets:
    """A sparse matrix assembled from COO triplets, block by block."""

    def __init__(self):
        self.rows, self.cols, self.vals = [], [], []

    def add(self, rows, cols, vals) -> None:
        self.rows.append(rows)
        self.cols.append(cols)
        self.vals.append(vals)

    def put(self, block, row0: int, col0: int) -> None:
        """Add ``block`` (dense or sparse) with its corner at (row0, col0)."""
        if 0 in block.shape:
            return
        coo = sp.coo_matrix(block)
        self.add(coo.row + row0, coo.col + col0, coo.data)

    def csr(self, shape) -> sp.csr_matrix:
        """The matrix, duplicates summed and explicit zeros dropped."""
        if not self.vals:
            return sp.csr_matrix(shape)
        out = sp.csr_matrix(
            (np.concatenate(self.vals), (np.concatenate(self.rows), np.concatenate(self.cols))),
            shape=shape,
        )
        out.eliminate_zeros()
        return out


def balas_hull(
    pieces: list[Polyhedron], points: list[np.ndarray | None]
) -> HullFormulation:
    """Balas lift of the pieces; ``points`` gives, per piece, its single
    point (``_single_point_of``) or None."""
    if not pieces:
        raise EmptyPieceList("hull of zero pieces is undefined")
    n = pieces[0].n
    if any(p.n != n for p in pieces):
        raise DimensionMismatch("pieces must share the ambient dimension")
    k = len(pieces)
    span = np.arange(n)
    fat = [i for i, pt in enumerate(points) if pt is None]

    # per fat piece: its kept columns, and the map from ambient column to
    # lifted copy column (-1 where a pin fixes the column at 0)
    copy_cols: list[np.ndarray | None] = [None] * k
    copy_start = [-1] * k
    col_map = {}
    top = 0
    for i in fat:
        pinned = sp.csr_matrix(pieces[i].a_eq)[_zero_pins(pieces[i])].tocoo()
        kept = np.ones(n, dtype=bool)
        kept[pinned.col[pinned.data != 0]] = False
        copy_cols[i] = span[kept]
        col_map[i] = np.full(n, -1)
        col_map[i][kept] = top + np.arange(len(copy_cols[i]))
        copy_start[i] = top
        top += len(copy_cols[i])
    d_off = top
    x_off = d_off + k

    def copy_rows(out: Triplets, row0: int, i: int, a, rhs, implied) -> int:
        """Add the rows ``a x^i - rhs delta_i`` from ``row0``; their count.
        A row left with no copy column is dropped when ``implied(rhs)``
        says delta_i >= 0 implies it (a pin row is one)."""
        block = sp.coo_matrix(a)
        cols_i = col_map[i][block.col]
        keep = (cols_i >= 0) & (block.data != 0)
        rhs = np.asarray(rhs, dtype=float)
        live = (np.bincount(block.row[keep], minlength=len(rhs)) > 0) | ~implied(rhs)
        row_of = row0 + np.cumsum(live) - 1
        out.add(row_of[block.row[keep]], cols_i[keep], block.data[keep])
        out.add(row_of[live], np.full(int(live.sum()), d_off + i), -rhs[live])
        return int(live.sum())

    # inequalities: A^i x^i - b^i delta_i <= 0, then delta >= 0
    ineq = Triplets()
    top = 0
    for i in fat:
        top += copy_rows(ineq, top, i, pieces[i].a, pieces[i].b, lambda r: r >= 0)
    ineq.add(top + np.arange(k), d_off + np.arange(k), -np.ones(k))
    top += k
    a = ineq.csr((top, x_off + n))

    # equalities: A_eq^i x^i - b_eq^i delta_i = 0, the aggregation
    # sum_w x^w + sum_j delta_j v_j - x = 0, and sum_w delta_w = 1
    eq = Triplets()
    top = 0
    for i in fat:
        top += copy_rows(eq, top, i, pieces[i].a_eq, pieces[i].b_eq, lambda r: r == 0)
    for i, pt in enumerate(points):
        if pt is None:
            eq.add(top + copy_cols[i], col_map[i][copy_cols[i]], np.ones(len(copy_cols[i])))
        else:
            eq.add(top + span, np.full(n, d_off + i), np.asarray(pt, dtype=float))
    eq.add(top + span, x_off + span, -np.ones(n))
    top += n
    eq.add(np.full(k, top), d_off + np.arange(k), np.ones(k))
    top += 1
    b_eq = np.zeros(top)
    b_eq[-1] = 1.0
    return HullFormulation(
        a=a,
        b=np.zeros(a.shape[0]),
        a_eq=eq.csr((top, x_off + n)),
        b_eq=b_eq,
        n=n,
        k=k,
        points=tuple(points),
        copy_cols=tuple(copy_cols),
        copy_start=tuple(copy_start),
        num_copies=len(fat),
        copy_vars=d_off,
    )


@dataclass(frozen=True)
class SetOutcome:
    status: LpStatus
    point: np.ndarray | None = None
    value: float | None = None
    ray: np.ndarray | None = None


@dataclass(frozen=True)
class BinaryVar:
    """A variable branched to {0, 1}; at the 0 branch ``zero_block`` is pinned.

    Pinning the piece copy to zero alongside its convex weight keeps the
    recession cone of switched-off unbounded pieces from leaking into
    the aggregate point.
    """

    index: int
    zero_block: tuple[int, ...] = ()


_BIN_TOL = 1e-7


def optimize_over_set(
    s: ComplementaritySet,
    c: np.ndarray,
    deadline: Deadline | None = None,
    binaries: tuple[BinaryVar, ...] = (),
) -> SetOutcome:
    """Global min of c @ x over the set by disjunctive branch-and-bound.

    Depth-first, 0-side child first; branch variable is the pair with
    the largest product at the node relaxation optimum (ties to the
    lowest index), then the most fractional binary.  With a zero
    objective the search stops at the first complementary leaf.  An
    unbounded result is only reported from a fully pinned branch, whose
    system is a subset of the set itself.
    """
    c = np.asarray(c, dtype=float)
    if len(c) != s.n:
        raise DimensionMismatch("objective length mismatch")
    p = s.num_pairs
    comp_idx = np.array(s.comp, dtype=int) if p else np.zeros(0, dtype=int)

    feasibility_mode = not np.any(c)
    if feasibility_mode and p:
        # Guiding objective sum_i (x_{c_i} + z_i): nonnegative on the
        # relaxation, and zero exactly at complementary points.
        guide = np.zeros(s.n)
        np.add.at(guide, comp_idx, 1.0)
        guide = guide + np.asarray(s.m_mat.sum(axis=0)).ravel()
    else:
        guide = c

    rows = PieceRows(s)
    lp = rows.ranged(guide)
    m_t = s.m_mat.T

    def move_to(pins, bins):
        cols = {}
        for bi, side in bins:
            bv = binaries[bi]
            if side == 0:
                cols[bv.index] = (-INF, 0.0)
                for col in bv.zero_block:
                    cols[col] = (0.0, 0.0)
            else:
                cols[bv.index] = (1.0, INF)
        lp.move_to(*rows.pin_bounds(pins, cols))

    def solve():
        return lp.solve(None if deadline is None else deadline.remaining)

    def polish(x: np.ndarray) -> np.ndarray:
        """Drive the node point toward complementarity.

        Re-solves the node LP a few times, minimizing the linearization
        of sum_i x_{c_i} z_i at the current point; every iterate stays
        feasible for the node system, so this only ever finds leaves
        faster, never changes what the search can reach.
        """
        for _ in range(8):
            z = s.slacks(x)
            xc = x[comp_idx]
            if np.max(xc * z) <= COMP_TOL:
                return x
            c_lin = np.zeros(s.n)
            np.add.at(c_lin, comp_idx, np.maximum(z, 0.0))
            c_lin += np.asarray(m_t @ np.maximum(xc, 0.0)).ravel()
            top = np.abs(c_lin).max()
            if top > 0:
                c_lin /= top
            lp.set_objective(c_lin)
            status, x_new, _ = solve()
            if status is not LpStatus.OPTIMAL:
                break
            new_viol = int(
                np.sum(x_new[comp_idx] * s.slacks(x_new) > COMP_TOL)
            )
            old_viol = int(np.sum(xc * z > COMP_TOL))
            if new_viol >= old_viol:
                break
            x = x_new
        return x

    best_val = np.inf
    best_pt: np.ndarray | None = None

    # Node = (pair pins, binary pins, point): the pins as immutable
    # tuples, and the node's polished point when a look-ahead already
    # solved it (else None); depth-first.
    stack: list[tuple[tuple, tuple, np.ndarray | None]] = [((), (), None)]

    while stack:
        pins, bins, x = stack.pop()
        if deadline is not None:
            deadline.tick()
        looked_ahead = x is not None
        if looked_ahead:
            status = LpStatus.OPTIMAL
        else:
            move_to(pins, bins)
            if feasibility_mode:
                lp.set_objective(guide)
            status, x, _ = solve()

        if status is LpStatus.INFEASIBLE:
            continue

        if status is LpStatus.UNBOUNDED:
            # Only possible in optimization mode (the guide is bounded below).
            pinned = {i for i, _ in pins}
            free_pairs = [i for i in range(p) if i not in pinned]
            branched = {bi for bi, _ in bins}
            free_bins = [bi for bi in range(len(binaries)) if bi not in branched]
            if not free_pairs and not free_bins:
                return SetOutcome(LpStatus.UNBOUNDED, point=lp.feasible_point(), ray=lp.ray())
            if free_pairs:
                i = free_pairs[0]
                stack.append((pins + ((i, 1),), bins, None))
                stack.append((pins + ((i, 0),), bins, None))
            else:
                bi = free_bins[0]
                stack.append((pins, bins + ((bi, 0),), None))
                stack.append((pins, bins + ((bi, 1),), None))
            continue

        true_val = float(c @ x)
        if not feasibility_mode and true_val >= best_val:
            # The guide equals c here, so the LP value is a valid bound.
            continue

        if feasibility_mode and p and not looked_ahead:
            x = polish(x)

        pinned = {i for i, _ in pins}
        if p:
            prod = x[comp_idx] * s.slacks(x)
            if pinned:
                prod[list(pinned)] = -np.inf
            worst = int(np.argmax(prod))
            if prod[worst] > COMP_TOL:
                if not feasibility_mode:
                    stack.append((pins + ((worst, 1),), bins, None))
                    stack.append((pins + ((worst, 0),), bins, None))
                    continue
                # Look ahead: polish both children and explore the more
                # complementary one first; a child that polishes clean
                # and has no fractional binaries is already a leaf.  A
                # child keeps its polished point, so it is not solved
                # again when popped.
                scored = []
                for side in (0, 1):
                    child = pins + ((worst, side),)
                    move_to(child, bins)
                    lp.set_objective(guide)
                    st2, x2, _ = solve()
                    if st2 is not LpStatus.OPTIMAL:
                        continue
                    x2 = polish(x2)
                    prod2 = x2[comp_idx] * s.slacks(x2)
                    done = {i for i, _ in child}
                    prod2[list(done)] = -np.inf
                    nv = int(np.sum(prod2 > COMP_TOL))
                    if nv == 0 and not binaries:
                        return SetOutcome(
                            LpStatus.OPTIMAL, point=x2, value=float(c @ x2)
                        )
                    scored.append((nv, side, child, x2))
                # push the worse child first so the better one pops first;
                # ties keep the 0-side ahead
                scored.sort(key=lambda t: (-t[0], -t[1]))
                for _, _, child, x2 in scored:
                    stack.append((child, bins, x2))
                continue

        if binaries:
            branched = {bi for bi, _ in bins}
            frac = np.array(
                [
                    -np.inf
                    if bi in branched
                    else min(abs(x[bv.index]), abs(x[bv.index] - 1.0))
                    for bi, bv in enumerate(binaries)
                ]
            )
            worst_b = int(np.argmax(frac))
            if frac[worst_b] > _BIN_TOL:
                # select-the-piece child first: fixing a weight to one is
                # far more constraining than switching one off
                stack.append((pins, bins + ((worst_b, 0),), None))
                stack.append((pins, bins + ((worst_b, 1),), None))
                continue

        if feasibility_mode:
            return SetOutcome(LpStatus.OPTIMAL, point=x, value=true_val)
        if true_val < best_val:
            best_val = true_val
            best_pt = x

    if best_pt is None:
        return SetOutcome(LpStatus.INFEASIBLE)
    return SetOutcome(LpStatus.OPTIMAL, point=best_pt, value=best_val)
