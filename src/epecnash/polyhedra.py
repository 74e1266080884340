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

A set's matrices may be dense arrays, SciPy sparse matrices or
``SparseMatrix`` (the solver's own type, from ``hotlp``); every
matrix this module builds is a ``SparseMatrix``, assembled by
``Triplets``, and no function here needs ``scipy.sparse``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hotlp import INF, RangedLp, SparseMatrix, triplets
from .lp import (
    Deadline,
    DimensionMismatch,
    LinearProgram,
    LpOutcome,
    LpStatus,
    TimeLimitReached,
    solve_lp,
)
from .tolerances import COMP_TOL, ENUM_CAP, FEAS_TOL


class TooManyComplementarities(ValueError):
    pass


class EmptyPieceList(ValueError):
    pass


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
class ComplementaritySet:
    """Feasible set with rows ``a x <= b`` and ``a_eq x = b_eq`` and
    complementarity pairs (x_{comp[i]}, [m_mat x + q]_i).

    Without ``m_mat``, ``q`` and ``comp`` it has no pairs: the polyhedron
    ``{x : a x <= b, a_eq x = b_eq}``, the form a selected piece takes.
    """

    a: object  # (m, n)
    b: np.ndarray
    m_mat: object | None = None  # (p, n); no pairs by default
    q: np.ndarray | None = None
    comp: tuple[int, ...] = ()
    a_eq: object | None = None  # (m_eq, n); no equality rows by default
    b_eq: np.ndarray | None = None

    def __post_init__(self):
        n = self.n
        if self.a.shape[0] != len(self.b):
            raise DimensionMismatch("A/b row mismatch")
        default_equalities(self, n)
        if self.m_mat is None:
            object.__setattr__(self, "m_mat", np.zeros((0, n)))
        if self.q is None:
            object.__setattr__(self, "q", np.zeros(0))
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


def is_feasible(s: ComplementaritySet) -> bool:
    """Whether a pair-free set (a selected piece) has a point."""
    if s.num_pairs:
        raise ValueError("is_feasible takes a set without pairs")
    out = solve_lp(LinearProgram(np.zeros(s.n), s.a, s.b, a_eq=s.a_eq, b_eq=s.b_eq))
    return out.status is not LpStatus.INFEASIBLE


# Distance from a piece's witness point to a row's hyperplane below which
# the row counts as active there.
_POINT_TOL = 1e-9


def _bitmask(flags: np.ndarray) -> int:
    """The int whose bit i is ``flags[i]``."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


class PieceRows:
    """Every selected polyhedron of one set, as rows of one shared system.

    Each pair has two sides: x_{c_i} and [M x]_i, pinned at 0 and -q_i.
    Encoding e pins side e_i of each pair as an equality and keeps the
    other side as one ``>=`` row.  The ranged LP ``lp``, the set's one
    model of its relaxation, instead bounds each complementary column to
    [0, inf) and keeps M x + q >= 0 as one row per pair, so a 0-side pin
    is a column-bound edit and a 1-side pin a row-bound edit; witnesses,
    scans and searches all run on it.  A piece stays an encoding: its
    rows are indexed out of one dense ``block`` (``piece_rows``), and its
    singleton test edits the bounds of ``lp`` and ``cone``.  Every model
    runs under ``deadline``, which the enumeration walk also ticks.
    """

    def __init__(self, s: ComplementaritySet, deadline: Deadline | None = None):
        self.set = s
        self.deadline = deadline or Deadline()

    @property
    def num_pairs(self) -> int:
        return self.set.num_pairs

    @cached_property
    def lp(self) -> RangedLp:
        """The relaxation as one incremental LP whose nodes are bound edits,
        kept for every LP over it; it starts at a zero objective.

        Rows: ``a`` as <= b rows, the equalities with lo = hi, then one
        M x + q >= 0 row per pair; every complementary column is bounded
        to [0, inf).
        """
        s = self.set
        q = np.asarray(s.q, dtype=float)
        col_lo = np.full(s.n, -INF)
        col_lo[self.comp] = 0.0
        rows, top = Triplets(), 0
        for m in (s.a, s.a_eq, s.m_mat):
            rows.put(m, top, 0)
            top += m.shape[0]
        return RangedLp(
            np.zeros(s.n),
            rows.matrix((top, s.n)),
            np.concatenate([np.full(s.a.shape[0], -INF), s.b_eq, -q]),
            np.concatenate([np.asarray(s.b, float), s.b_eq, np.full(s.num_pairs, INF)]),
            col_lo,
            deadline=self.deadline,
        )

    @cached_property
    def comp(self) -> np.ndarray:
        """Each pair's column, as an index array."""
        return np.array(self.set.comp, dtype=int)

    @cached_property
    def _farkas(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What ``certificate`` reads, built once per set from ``block``:
        ``lp``'s rows ``[a; a_eq; m_mat]`` transposed, the value each row
        holds where its finite bound or its pin binds, ``[b; b_eq; -q]``,
        and the free columns."""
        p = self.num_pairs
        rows, rhs = self.block
        keep = np.r_[0 : len(rhs) - 2 * p, len(rhs) - p : len(rhs)]
        free = np.setdiff1d(np.arange(self.set.n), self.comp)
        return np.ascontiguousarray(rows[keep].T), rhs[keep], free

    def certificate(
        self, y: np.ndarray, w: np.ndarray | None = None
    ) -> tuple[int, int, float] | None:
        """What row multipliers y on ``lp``'s rows prove about min w.x
        (w = 0 for a dual ray): the pins y needs, as bitmasks of the pairs
        whose side 1 and whose side 0 must be pinned, and the bound y.rhs
        that holds on every node with those pins.  None if y needs an
        infinite bound, or both pins of one pair.

        With d = w - A'y, w.x = d.x + y.(A x), and each term has a finite
        lower bound where: an ``a`` row has y <= 0; a pair row has y >= 0,
        or its side-1 pin; a pair's column has d >= 0, or its side-0 pin;
        a free column has d = 0.  An entry of y below 1e-9 of y's largest
        counts as 0, and so does an entry of d below 1e-9 of the larger of
        y's largest and w's largest.
        """
        at, rhs, free = self._farkas
        size = np.abs(y)
        y_max = size.max(initial=0.0)
        y = np.where(size > 1e-9 * y_max, y, 0.0)
        if y[: self.set.a.shape[0]].max(initial=0.0) > 0:
            return None
        d = -(at @ y) if w is None else w - at @ y
        tol = 1e-9 * max(y_max, 0.0 if w is None else np.abs(w).max(initial=0.0))
        if np.abs(d[free]).max(initial=0.0) > tol:
            return None
        need0 = _bitmask(d[self.comp] < -tol)
        need1 = _bitmask(y[len(y) - self.num_pairs :] < 0)
        if need0 & need1:
            return None
        return need1, need0, float(y @ rhs)

    def pin_bounds(self, pins, cols: dict | None = None) -> tuple[dict, dict]:
        """Row and column bounds of ``lp`` that pin side ``bit`` of each
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

    def witness(self, prefix: tuple[int, ...]) -> tuple[bool, np.ndarray | None]:
        """Whether the relaxation with the pairs of ``prefix`` pinned is
        nonempty, and the LP's point if it has one, under a zero objective."""
        return self.witness_pins(enumerate(prefix))

    def witness_pins(self, pins) -> tuple[bool, np.ndarray | None]:
        """``witness`` with the pins given as ``(pair, bit)``."""
        self.lp.set_objective(np.zeros(self.set.n))
        self.lp.move_to(*self.pin_bounds(pins))
        status, x, _ = self.lp.solve()
        return status is not LpStatus.INFEASIBLE, x

    def conflict(self) -> tuple[int, int] | None:
        """The pins that empty every node having them, read off the dual ray
        of the last ``witness`` LP, which was infeasible: the ``certificate``
        masks of the ray, under the sign that makes its Farkas gap y.rhs
        positive, if that gap exceeds ``FEAS_TOL`` with the ray scaled to a
        largest entry of 1; else None."""
        ray = self.lp.dual_ray()
        if ray is None or not ray.any():
            return None
        y = ray / np.abs(ray).max()
        if y @ self._farkas[1] < 0:
            y = -y
        cert = self.certificate(y)
        return cert[:2] if cert is not None and cert[2] > FEAS_TOL else None

    def holds(self, pair: int, bit: int, x: np.ndarray) -> bool:
        """Whether side ``bit`` of ``pair`` is exactly at its pin at x:
        x_{c_i} == 0, or [M x]_i == -q_i."""
        rows, rhs = self.block
        r = len(rhs) - self.num_pairs * (2 - bit) + pair
        return bool(rows[r] @ x == rhs[r])

    def zero_sides(self, x: np.ndarray) -> np.ndarray:
        """Per pair, whether side 0 holds exactly at x: x_{c_i} == 0."""
        return x[self.comp] == 0

    @cached_property
    def block(self) -> tuple[np.ndarray, np.ndarray]:
        """Every row a piece uses, ``[a; a_eq; sides]``, as one dense
        array, with its right-hand sides ``[b; b_eq; 0; -q]``: side row i
        is x_{c_i} and side row p + i is [M x]_i."""
        s, p = self.set, self.num_pairs
        dense = [
            m.toarray() if hasattr(m, "toarray") else np.asarray(m, float)
            for m in (s.a, s.a_eq, s.m_mat)
        ]
        unit = np.zeros((p, s.n))
        unit[np.arange(p), self.comp] = 1.0
        # + 0.0 stores a -0.0 of M as 0.0, as a sparse matrix of its entries does
        return (
            np.vstack(dense[:2] + [unit, dense[2] + 0.0]),
            np.concatenate(
                [np.asarray(s.b, float), s.b_eq, np.zeros(p), -np.asarray(s.q, dtype=float)]
            ),
        )

    @cached_property
    def norms(self) -> np.ndarray:
        """Euclidean norm of each row of ``block``."""
        rows = self.block[0]
        return np.sqrt((rows * rows).sum(axis=1))

    def piece_rows(self, encodings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows of ``block`` each encoding's piece uses, one row of
        indices per encoding: its ``<=`` rows, their signs (the same for
        every piece), and its equality rows.  A ``<=`` row is
        ``sign * block[r] x <= sign * rhs[r]``: ``a`` with sign 1, then
        each pair's other side with sign -1; the equalities are ``a_eq``,
        then each pinned side.
        """
        s, p = self.set, self.num_pairs
        m, m_eq = s.a.shape[0], s.a_eq.shape[0]
        bits = np.asarray(encodings, dtype=int).reshape(len(encodings), p)
        sides = m + m_eq + np.arange(p)
        count = len(bits)
        ineq = np.hstack([np.broadcast_to(np.arange(m), (count, m)), sides + p * (1 - bits)])
        eq = np.hstack([np.broadcast_to(m + np.arange(m_eq), (count, m_eq)), sides + p * bits])
        return ineq, np.concatenate([np.ones(m), -np.ones(p)]), eq

    @cached_property
    def cone(self) -> RangedLp:
        """Stiemke's LP over every row of ``block``: ``block^T y = 0`` with
        each y fixed at 0; a singleton test bounds or frees the y of its
        piece's active rows."""
        rows = self.block[0]
        zero, origin = np.zeros(len(rows)), np.zeros(self.set.n)
        return RangedLp(zero, rows.T, origin, origin, zero, zero, self.deadline)

    @cached_property
    def unit_cols(self) -> np.ndarray:
        """Per row of ``block``, the column of its one nonzero entry, or -1
        for a row with none or several."""
        nonzero = self.block[0] != 0
        return np.where(nonzero.sum(axis=1) == 1, np.argmax(nonzero, axis=1), -1)

    def rank(self, idx: np.ndarray) -> int:
        """Rank of the rows ``idx`` of ``block``.  Its rows with one
        nonzero entry span exactly the unit vectors of their columns P, so
        the rank is |P| plus that of the other rows on the columns outside
        P: an SVD of the smaller rest."""
        cols = self.unit_cols[idx]
        unit = cols >= 0
        free = np.ones(self.set.n, dtype=bool)
        free[cols[unit]] = False
        rest = self.block[0][idx[~unit]][:, free]
        pinned = self.set.n - int(free.sum())
        return pinned + (int(np.linalg.matrix_rank(rest)) if rest.size else 0)

    def single_point(
        self, encoding: tuple[int, ...], x: np.ndarray | None = None
    ) -> np.ndarray | None:
        """The piece's unique point if it is a singleton, else None.

        ``x`` is a point of the piece, by default ``witness``'s.  With A_I
        the ``<=`` rows active at x and E the equality rows (active in both
        directions), the piece is {x} exactly when no d != 0 has
        A_I d <= 0 and E d = 0, that is (Stiemke's lemma) when some
        y_I >= 1 and free y_E have A_I^T y_I + E^T y_E = 0 and [A_I; E]
        has rank n.  The rank decides first: below n, not a point; n with
        no active ``<=`` row, a point; n with linearly independent rows of
        which one is a ``<=`` row, not a point, as only y = 0 solves the
        system.  Only dependent rows with a ``<=`` row among them take the
        LP, on ``cone``.
        """
        n = self.set.n
        if x is None:
            _, x = self.witness(encoding)
            if x is None:
                return None
        (ineq,), sign, (eq,) = self.piece_rows([encoding])
        rows, rhs = self.block
        norms = self.norms
        slack = sign * (rhs[ineq] - rows[ineq] @ x)
        active = (norms[ineq] > 0) & (slack <= _POINT_TOL * norms[ineq])
        eq = eq[norms[eq] > 0]
        tight = np.concatenate([ineq[active], eq])
        if len(tight) < n or (rank := self.rank(tight)) < n:
            return None
        if not active.any():
            return x
        if rank == len(tight):
            return None
        # y >= 1 on an active row, y <= -1 on an active negated one (the
        # other side of a pair), y free on an equality
        cols = {
            int(r): (1.0, INF) if g > 0 else (-INF, -1.0)
            for r, g in zip(ineq[active], sign[active])
        }
        cols.update((int(r), (-INF, INF)) for r in eq)
        self.cone.move_to({}, cols)
        return x if self.cone.solve()[0] is LpStatus.OPTIMAL else None


def iter_encodings(
    rows: PieceRows, first: int = 0
) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Encodings with a nonempty selected polyhedron, depth-first and
    lazily, each with a point of its piece.

    Each pair tries side ``first`` before the other, so 0 gives the
    lexicographic order and 1 exactly its reverse.  A prefix whose
    partial system is already infeasible prunes all its completions, so
    the cost scales with the number of nonempty pieces rather than
    2^pairs, and a lazy walk has no cap on the number of pairs.  A child
    whose new pin holds exactly at its parent's LP point is feasible
    with that point and runs no LP; a leaf's point is the last LP point
    on its path, which ``PieceRows.single_point`` takes instead of
    solving ``witness`` again.  An infeasible LP's dual ray names the
    pins that empty it (``PieceRows.conflict``), and for the rest of the
    walk a node that has every pin of such a conflict is pruned with no
    LP (conflict analysis, Achterberg 2007).  Every node ticks the rows'
    deadline.
    """
    p = rows.num_pairs
    conflicts: list[tuple[int, int]] = []
    # node: its depth, its pins as bitmasks of the pairs pinned at side 1
    # and at side 0, its parent's point and, per pair, whether side 0
    # holds there
    stack: list[tuple[int, int, int, np.ndarray | None, np.ndarray | None]] = [
        (0, 0, 0, None, None)
    ]
    while stack:
        depth, ones, zeros, x, at0 = stack.pop()
        rows.deadline.tick()
        last = depth - 1
        if x is None or not (at0[last] if zeros >> last & 1 else rows.holds(last, 1, x)):
            if any(n1 & ones == n1 and n0 & zeros == n0 for n1, n0 in conflicts):
                continue
            feasible, x = rows.witness_pins((i, ones >> i & 1) for i in range(depth))
            if not feasible:
                if (pins := rows.conflict()) is not None:
                    conflicts.append(pins)
                continue
            at0 = rows.zero_sides(x)
        if depth == p:
            yield tuple(ones >> i & 1 for i in range(p)), x
            continue
        bit = 1 << depth
        for side in (1 - first, first):
            child = (ones | bit, zeros) if side else (ones, zeros | bit)
            stack.append((depth + 1, *child, x, at0))


def enumerate_pieces(rows: PieceRows) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """All encodings with a nonempty selected polyhedron of the set of
    ``rows``, lexicographic, each with a point of its piece; a set with
    more than ``ENUM_CAP`` pairs is refused."""
    if rows.num_pairs > ENUM_CAP:
        raise TooManyComplementarities(f"{rows.num_pairs} pairs exceeds cap {ENUM_CAP}")
    return list(iter_encodings(rows))


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
class HullLayout:
    """Where a Balas lift of k pieces keeps each piece's columns.

    Variables are laid out ``[copies of fat pieces | delta (k) | x (n)]``.
    A piece that is a single point v_j has no copy block: it enters the
    aggregation row as delta_j v_j.  A copy leaves out every column that a
    one-entry equality row with right-hand side 0 fixes at 0, so
    ``copy_cols[i]`` lists the ambient columns it keeps.
    """

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


@dataclass(frozen=True)
class HullFormulation(HullLayout):
    """Balas lift of cl conv of a finite union of nonempty polyhedra, laid
    out as its ``HullLayout``, with rows

        A^i x^i <= delta_i b^i,  A_eq^i x^i = delta_i b_eq^i  (fat pieces),
        delta >= 0,
        sum_w x^w + sum_j delta_j v_j = x,   sum_w delta_w = 1,

    the inequalities as ``a v <= 0`` and the equalities in ``a_eq``/
    ``b_eq``.  A single point v_j needs no copy block: its Balas system
    ``A x <= delta b`` forces exactly ``x = delta v_j``.  Any point of piece
    i is recovered with delta the i-th unit vector.
    """

    a: object
    a_eq: object
    b_eq: np.ndarray


class Triplets:
    """A ``SparseMatrix`` assembled from COO triplets, block by block."""

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
        rows, cols, vals = triplets(block)
        self.add(rows + row0, cols + col0, vals)

    def matrix(self, shape) -> SparseMatrix:
        """The matrix, duplicates summed and explicit zeros dropped."""
        if not self.vals:
            return SparseMatrix.build([], [], [], shape)
        return SparseMatrix.build(
            np.concatenate(self.rows), np.concatenate(self.cols), np.concatenate(self.vals), shape
        )


@dataclass(frozen=True)
class PieceBlock:
    """The Balas rows of some fat pieces, over local columns: every kept
    copy column, piece by piece in order, then one delta per piece.

    ``ineq`` holds the rows A^i x^i - b^i delta_i <= 0 and ``eq`` the rows
    A_eq^i x^i - b_eq^i delta_i = 0, each as (row, column, value) triplets
    and a row count, the rows of one piece after those of the one before.
    """

    kept: np.ndarray  # (pieces, n): the ambient columns each copy keeps
    ineq: tuple[np.ndarray, np.ndarray, np.ndarray, int]
    eq: tuple[np.ndarray, np.ndarray, np.ndarray, int]

    @property
    def copy_vars(self) -> int:
        return int(self.kept.sum())

    @property
    def starts(self) -> np.ndarray:
        """Each piece's first local copy column."""
        sizes = self.kept.sum(axis=1)
        return np.cumsum(sizes) - sizes


def piece_block(rows: PieceRows, encodings) -> PieceBlock:
    """The Balas rows of the fat pieces of ``encodings``, read off
    ``rows.block`` at once.

    An equality row with one nonzero entry and a right-hand side of 0 pins
    its column at 0: the column leaves the copy.  A row left with no copy
    column is dropped where delta_i >= 0 implies it (a pin row is one).
    """
    block, rhs = rows.block
    ineq, sign, eq = rows.piece_rows(encodings)
    pin_col = np.where(rhs == 0, rows.unit_cols, -1)[eq]
    kept = np.ones((len(encodings), rows.set.n), dtype=bool)
    at = np.nonzero(pin_col >= 0)
    kept[at[0], pin_col[at]] = False
    # local copy column of each kept (piece, ambient column), -1 where pinned
    col_map = np.where(kept, np.cumsum(kept).reshape(kept.shape) - 1, -1)
    d_off = int(kept.sum())

    def copy_rows(idx, signs, implied):
        vals = signs[:, None] * block[idx]
        r = signs * rhs[idx]
        keep = (vals != 0) & kept[:, None, :]
        live = keep.any(axis=2) | ~implied(r)
        row_of = np.cumsum(live).reshape(live.shape) - 1
        f, j, c = np.nonzero(keep)
        g, i = np.nonzero(live)
        return (
            np.concatenate([row_of[f, j], row_of[g, i]]),
            np.concatenate([col_map[f, c], d_off + g]),
            np.concatenate([vals[f, j, c], -r[g, i]]),
            int(live.sum()),
        )

    return PieceBlock(
        kept=kept,
        ineq=copy_rows(ineq, sign, lambda r: r >= 0),
        eq=copy_rows(eq, np.ones(eq.shape[1]), lambda r: r == 0),
    )


def balas_hull(
    rows: PieceRows, encodings: list[tuple[int, ...]], points: list[np.ndarray | None]
) -> HullFormulation:
    """Balas lift of the pieces of ``encodings``; ``points`` gives, per
    piece, its single point (``PieceRows.single_point``) or None.  Every
    copy block comes from one ``piece_block``."""
    if not encodings:
        raise EmptyPieceList("hull of zero pieces is undefined")
    n = rows.set.n
    k = len(encodings)
    span = np.arange(n)
    fat = np.array([i for i, pt in enumerate(points) if pt is None], dtype=int)
    solid = np.array([i for i, pt in enumerate(points) if pt is not None], dtype=int)
    blk = piece_block(rows, [encodings[i] for i in fat])
    d_off = blk.copy_vars
    x_off = d_off + k
    lifted = np.concatenate([np.arange(d_off), d_off + fat])  # local column -> lifted

    # inequalities: A^i x^i - b^i delta_i <= 0, then delta >= 0
    ineq_rows = Triplets()
    r, c, v, top = blk.ineq
    ineq_rows.add(r, lifted[c], v)
    ineq_rows.add(top + np.arange(k), d_off + np.arange(k), -np.ones(k))
    top += k
    a = ineq_rows.matrix((top, x_off + n))

    # equalities: A_eq^i x^i - b_eq^i delta_i = 0, the aggregation
    # sum_w x^w + sum_j delta_j v_j - x = 0, and sum_w delta_w = 1
    eq_rows = Triplets()
    r, c, v, top = blk.eq
    eq_rows.add(r, lifted[c], v)
    _, c = np.nonzero(blk.kept)
    eq_rows.add(top + c, np.arange(d_off), np.ones(d_off))
    eq_rows.add(
        top + np.tile(span, len(solid)),
        d_off + np.repeat(solid, n),
        np.ravel([points[i] for i in solid]).astype(float),
    )
    eq_rows.add(top + span, x_off + span, -np.ones(n))
    top += n
    eq_rows.add(np.full(k, top), d_off + np.arange(k), np.ones(k))
    top += 1
    b_eq = np.zeros(top)
    b_eq[-1] = 1.0
    copy_cols: list[np.ndarray | None] = [None] * k
    copy_start = [-1] * k
    for f, (i, start) in enumerate(zip(fat, blk.starts)):
        copy_cols[i] = span[blk.kept[f]]
        copy_start[i] = int(start)
    return HullFormulation(
        a=a,
        a_eq=eq_rows.matrix((top, x_off + n)),
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
    rows: PieceRows,
    c: np.ndarray,
    binaries: tuple[BinaryVar, ...] = (),
    bound: float = np.inf,
) -> LpOutcome:
    """Global min of c @ x over ``rows.set`` by disjunctive branch-and-bound.

    Depth-first.  A node branches on its most fractional free binary,
    select (1) child first; with none, on the pair with the largest
    product at the node relaxation optimum (ties to the lowest index),
    0-side child first.  An unbounded node scores every free pair and
    binary as 1, so it branches the first free binary, then the first
    free pair; only an unbounded leaf, whose system is a subset of the
    set itself, reports the set unbounded.  With a zero objective the
    search stops at the first complementary leaf, and it looks ahead:
    both children are solved, and the one with fewer violated pairs is
    explored first, the first-visited one on a tie.

    In that zero-objective search, the root is solved under the guide
    sum_i (x_{c_i} + z_i), then at most once more under the
    linearization of sum_i x_{c_i} z_i at that optimum; every other node
    is one LP, under the linearization at its parent's point.

    With an objective, ``bound`` is the search's first incumbent value: a
    node whose relaxation value reaches it is pruned, so the search finds
    the minimum only where it lies below ``bound`` and is ``INFEASIBLE``
    otherwise.

    The search sets the objective of the set's one relaxation model,
    ``rows.lp``, and runs on it, warm from wherever the last LP on it left
    it, within ``rows.deadline``.
    """
    s = rows.set
    c = np.asarray(c, dtype=float)
    if len(c) != s.n:
        raise DimensionMismatch("objective length mismatch")
    p = s.num_pairs
    comp_idx = rows.comp
    bin_idx = np.array([bv.index for bv in binaries], dtype=int)

    feasibility_mode = not np.any(c)
    if feasibility_mode and p:
        # Guiding objective sum_i (x_{c_i} + z_i): nonnegative on the
        # relaxation, and zero exactly at complementary points.
        guide = np.zeros(s.n)
        np.add.at(guide, comp_idx, 1.0)
        guide = guide + np.asarray(s.m_mat.sum(axis=0)).ravel()
    else:
        guide = c

    lp = rows.lp
    lp.set_objective(guide)
    m_t = s.m_mat.T

    def violated(x: np.ndarray, pins=()) -> int:
        """Number of free pairs with x_{c_i} z_i > COMP_TOL."""
        return int(np.sum(free(x[comp_idx] * s.slacks(x), pins) > COMP_TOL))

    def linearization(x: np.ndarray) -> np.ndarray:
        """Gradient of sum_i x_{c_i} z_i at x, negative parts cut to 0 and
        scaled to a largest entry of 1: nonnegative weights on every x_{c_i}
        and z_i, so an LP under it is bounded below on the relaxation."""
        c_lin = np.zeros(s.n)
        np.add.at(c_lin, comp_idx, np.maximum(s.slacks(x), 0.0))
        c_lin += np.asarray(m_t @ np.maximum(x[comp_idx], 0.0)).ravel()
        top = np.abs(c_lin).max(initial=0.0)
        return c_lin / top if top > 0 else c_lin

    def visit(pins, bins, objective=None) -> tuple[LpStatus, np.ndarray | None]:
        """Move to the node and solve it, under ``objective`` if given."""
        cols = {}
        for bi, side in bins:
            bv = binaries[bi]
            cols[bv.index] = (1.0, INF) if side else (-INF, 0.0)
            if not side:
                cols.update(dict.fromkeys(bv.zero_block, (0.0, 0.0)))
        lp.move_to(*rows.pin_bounds(pins, cols))
        if objective is not None:
            lp.set_objective(objective)
        status, x, _ = lp.solve()
        return status, x

    def free(score: np.ndarray, pins) -> np.ndarray:
        """``score`` with -inf at each pinned pair, or branched binary."""
        if pins:
            score[[i for i, _ in pins]] = -np.inf
        return score

    best_val = bound
    best_pt: np.ndarray | None = None

    # Node = (pair pins, binary pins, point): the pins as immutable
    # tuples, and the node's point when a look-ahead already solved it
    # (else None); depth-first.
    stack: list[tuple[tuple, tuple, np.ndarray | None]] = [((), (), None)]

    while stack:
        pins, bins, x = stack.pop()
        rows.deadline.tick()
        if x is None:
            status, x = visit(pins, bins)
            if status is LpStatus.INFEASIBLE:
                continue
            if feasibility_mode and p and (nv := violated(x)):
                # the root only: one re-solve under the linearization at
                # the guide's optimum, kept when it leaves fewer pairs violated
                status, x_lin = visit(pins, bins, linearization(x))
                if status is LpStatus.OPTIMAL and violated(x_lin) < nv:
                    x = x_lin
        # an unbounded node (x None) occurs only with an objective, as the
        # guide is bounded below on the relaxation; it scores every free
        # pair and binary as 1
        if x is not None:
            true_val = float(c @ x)
            if not feasibility_mode and true_val >= best_val:
                # The guide equals c here, so the LP value is a valid bound.
                continue

        # the two children in visit order: a binary's, else a pair's
        children = ()
        if binaries:
            if x is None:
                frac = np.ones(len(binaries))
            else:
                frac = np.minimum(np.abs(x[bin_idx]), np.abs(x[bin_idx] - 1.0))
            frac = free(frac, bins)
            worst = int(np.argmax(frac))
            if frac[worst] > _BIN_TOL:
                children = tuple((pins, bins + ((worst, side),)) for side in (1, 0))
        if p and not children:
            prod = free(np.ones(p) if x is None else x[comp_idx] * s.slacks(x), pins)
            worst = int(np.argmax(prod))
            if prod[worst] > COMP_TOL:
                children = tuple((pins + ((worst, side),), bins) for side in (0, 1))
        if children:
            if not feasibility_mode:
                stack.extend((*child, None) for child in reversed(children))
                continue
            # Look ahead: solve both children, each by one LP under the
            # linearization at this node's point, and push the one with more
            # violated pairs first, so the other pops first (on a tie, the
            # first visited).  A child keeps its point, so it is not solved
            # again when popped; without binaries, one that ends clean is a
            # leaf.  The linearization is bounded below, so a child ends
            # optimal or infeasible.
            c_lin = linearization(x)
            scored = []
            for order, (cpins, cbins) in enumerate(children):
                st2, x2 = visit(cpins, cbins, c_lin)
                if st2 is not LpStatus.OPTIMAL:
                    continue
                nv = violated(x2, cpins)
                if nv == 0 and not binaries:
                    return LpOutcome(LpStatus.OPTIMAL, point=x2, value=float(c @ x2))
                scored.append((nv, order, cpins, cbins, x2))
            scored.sort(key=lambda t: (-t[0], -t[1]))
            stack.extend((cpins, cbins, x2) for _, _, cpins, cbins, x2 in scored)
            continue

        if x is None:
            return LpOutcome(LpStatus.UNBOUNDED, point=lp.feasible_point(), ray=lp.ray())
        if feasibility_mode:
            return LpOutcome(LpStatus.OPTIMAL, point=x, value=true_val)
        if true_val < best_val:
            best_val = true_val
            best_pt = x

    if best_pt is None:
        return LpOutcome(LpStatus.INFEASIBLE)
    return LpOutcome(LpStatus.OPTIMAL, point=best_pt, value=best_val)
