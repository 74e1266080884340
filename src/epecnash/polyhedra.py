"""Complementarity-constrained feasible sets and their polyhedral geometry.

A :class:`ComplementaritySet` is the region

    { x : A x <= b,  z = M x + q,  0 <= x_{c_i}  perp  z_i >= 0  for each pair i }

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


@dataclass(frozen=True)
class Polyhedron:
    """{ x : a x <= b } over free variables."""

    a: object  # (m, n) ndarray or scipy sparse
    b: np.ndarray

    def __post_init__(self):
        if self.a.shape[0] != len(self.b):
            raise DimensionMismatch("row count of A must equal length of b")

    @property
    def n(self) -> int:
        return self.a.shape[1]

    @property
    def m(self) -> int:
        return self.a.shape[0]


def is_feasible(poly: Polyhedron) -> bool:
    out = solve_lp(LinearProgram(np.zeros(poly.n), poly.a, poly.b))
    return out.status is not LpStatus.INFEASIBLE


@dataclass(frozen=True)
class ComplementaritySet:
    """Feasible set with complementarity pairs (x_{comp[i]}, [m_mat x + q]_i)."""

    a: object  # (m, n)
    b: np.ndarray
    m_mat: object  # (p, n)
    q: np.ndarray
    comp: tuple[int, ...]

    def __post_init__(self):
        n = self.n
        if self.a.shape[0] != len(self.b):
            raise DimensionMismatch("A/b row mismatch")
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

    ``pins`` stacks one pin row per pair side: row i is x_{c_i} <= 0 and
    row p + i is [M x]_i <= -q_i, so encoding e pins the rows
    ``arange(p) + p * e``.  The relaxation is the base rows plus the
    negated pin block, and the ranged LP keeps the pin block as >= rows
    that a pin turns into equations.
    """

    def __init__(self, s: ComplementaritySet):
        self.set = s
        p = s.num_pairs
        unit = sp.csr_matrix(
            (np.ones(p), (np.arange(p), np.array(s.comp, dtype=int))), shape=(p, s.n)
        )
        self.pins = sp.vstack([unit, sp.csr_matrix(s.m_mat)], format="csr")
        self.pin_b = np.concatenate([np.zeros(p), -np.asarray(s.q, dtype=float)])

    @property
    def num_pairs(self) -> int:
        return self.set.num_pairs

    @cached_property
    def relaxation(self) -> Polyhedron:
        s = self.set
        if s.num_pairs == 0:
            return Polyhedron(s.a, np.asarray(s.b, dtype=float))
        a = sp.vstack([s.a, -self.pins], format="csr")
        b = np.concatenate([s.b, np.zeros(s.num_pairs), np.asarray(s.q, dtype=float)])
        return Polyhedron(a, b)

    @cached_property
    def lp(self) -> RangedLp:
        """Zero-objective ranged LP shared by the feasibility checks."""
        return self.ranged(np.zeros(self.set.n))

    def pin_rows(self, pairs, bits):
        """Pin rows and right-hand sides fixing ``bits`` on ``pairs``."""
        idx = np.asarray(pairs, dtype=int) + self.num_pairs * np.asarray(bits, dtype=int)
        return self.pins[idx], self.pin_b[idx]

    def piece(self, encoding: tuple[int, ...]) -> Polyhedron:
        """The selected polyhedron of ``encoding``."""
        p = self.num_pairs
        if len(encoding) != p:
            raise EncodingLengthMismatch(
                f"encoding has {len(encoding)} bits, set has {p} pairs"
            )
        if p == 0:
            return self.relaxation
        a, b = self.pin_rows(np.arange(p), encoding)
        return Polyhedron(
            sp.vstack([self.relaxation.a, a], format="csr"),
            np.concatenate([self.relaxation.b, b]),
        )

    def ranged(self, objective: np.ndarray) -> RangedLp:
        """The relaxation as one incremental LP with pinnable pair rows.

        Row layout: the m base rows, then the pin block as >= rows, so
        every search node is a bound edit on this single model.
        """
        s = self.set
        m = s.a.shape[0]
        row_lo = np.concatenate([np.full(m, -INF), self.pin_b])
        row_hi = np.concatenate([np.asarray(s.b, float), np.full(2 * s.num_pairs, INF)])
        return RangedLp(objective, sp.vstack([s.a, self.pins], format="csr"), row_lo, row_hi)

    def pin_bounds(self, pins) -> dict[int, tuple[float, float]]:
        """Row bounds of ``ranged`` that pin side ``bit`` of each ``(pair, bit)``."""
        m, p = self.set.a.shape[0], self.num_pairs
        out = {}
        for i, bit in pins:
            r = i + p * bit
            out[m + r] = (self.pin_b[r], self.pin_b[r])
        return out

    def feasible(self, prefix: tuple[int, ...], time_limit: float | None = None) -> bool:
        """Whether the relaxation with the pairs of ``prefix`` pinned is
        nonempty; ``time_limit`` caps the LP as in ``RangedLp.solve``."""
        self.lp.move_to(self.pin_bounds(enumerate(prefix)))
        return self.lp.solve(time_limit)[0] is not LpStatus.INFEASIBLE


def polyhedral_relaxation(s: ComplementaritySet) -> Polyhedron:
    """Drop the orthogonality, keep both nonnegativity sides."""
    return PieceRows(s).relaxation


def _pin_row(s: ComplementaritySet, pair: int, bit: int):
    """Inequality pinning one side of a pair: bit 0 -> x <= 0, bit 1 -> z <= 0."""
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
    """Relaxation intersected with the per-pair pins given by ``encoding``.

    Its pin rows are built one pair at a time, apart from the shared
    block of :class:`PieceRows`; kept as the reference that block is
    tested against.
    """
    if len(encoding) != s.num_pairs:
        raise EncodingLengthMismatch(
            f"encoding has {len(encoding)} bits, set has {s.num_pairs} pairs"
        )
    relax = polyhedral_relaxation(s)
    if s.num_pairs == 0:
        return relax
    rows = []
    rhs = []
    for i, bit in enumerate(encoding):
        r, v = _pin_row(s, i, int(bit))
        rows.append(r)
        rhs.append(v)
    a = sp.vstack([relax.a] + rows, format="csr")
    b = np.concatenate([relax.b, np.array(rhs)])
    return Polyhedron(a, b)


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
    """Membership of a point: rows, both signs, and pair products within tol."""
    x = np.asarray(x, dtype=float)
    if len(x) != s.n:
        raise DimensionMismatch("point dimension mismatch")
    resid = np.asarray(s.a @ x).ravel() - s.b
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

        A^i x^i <= delta_i b^i  (fat pieces),
        sum_w x^w + sum_j delta_j v_j = x,   sum_w delta_w = 1,
        delta >= 0,

    equalities written as inequality pairs so the whole system is one
    ``a x <= b`` block.  A piece that is a single point v_j needs no
    copy block: its Balas system ``A x <= delta b`` forces exactly
    ``x = delta v_j``, so it enters the aggregation row directly.  Any
    point of piece i is recovered with delta the i-th unit vector.
    """

    a: object
    b: np.ndarray
    n: int
    k: int
    points: tuple  # per piece: its single point, or None if fat
    copy_start: tuple[int, ...]  # per piece: copy offset, or -1 if a point
    num_copies: int

    @property
    def num_vars(self) -> int:
        return self.n * self.num_copies + self.k + self.n

    def copy_slice(self, i: int) -> slice:
        start = self.copy_start[i]
        if start < 0:
            raise IndexError(f"piece {i} is a point and has no copy block")
        return slice(start, start + self.n)

    def delta_index(self, i: int) -> int:
        return self.n * self.num_copies + i

    @property
    def agg_slice(self) -> slice:
        base = self.n * self.num_copies + self.k
        return slice(base, base + self.n)

    def piece_point(self, lifted: np.ndarray, i: int) -> np.ndarray:
        """The pure point piece i contributes at a lifted solution."""
        if self.points[i] is not None:
            return np.asarray(self.points[i])
        w = float(lifted[self.delta_index(i)])
        return np.asarray(lifted[self.copy_slice(i)]) / w


# Width below which a piece counts as a single point: the spread of x_0
# over it, and the distance from the candidate point to a row's hyperplane
# for the row to count as active there.
_POINT_TOL = 1e-9


def _single_point_of(piece: Polyhedron, time_limit: float | None = None) -> np.ndarray | None:
    """The piece's unique point if it is a singleton, else None.

    Two LPs bound x_0; only when they meet is their minimizer x tested.
    With A_I the rows active at x, the piece is {x} exactly when no
    d != 0 has A_I d <= 0, that is (Stiemke's lemma) when A_I has rank
    n and some y >= 1 has A_I^T y = 0: one more LP, over |I| variables.
    ``time_limit`` caps each of the three LPs as in ``RangedLp.solve``.
    """
    n = piece.n
    b = np.asarray(piece.b, float)
    e0 = np.zeros(n)
    e0[0] = 1.0
    lp = RangedLp(e0, piece.a, np.full(piece.m, -INF), b)
    status, x, lo = lp.solve(time_limit)
    if status is not LpStatus.OPTIMAL:
        return None
    lp.set_objective(-e0)
    status, _, neg_hi = lp.solve(time_limit)
    if status is not LpStatus.OPTIMAL or -neg_hi - lo > _POINT_TOL:
        return None
    a = sp.csr_matrix(piece.a)
    norms = np.sqrt(np.asarray(a.multiply(a).sum(axis=1)).ravel())
    active = a[(norms > 0) & (b - a @ x <= _POINT_TOL * norms)]
    k = active.shape[0]
    # y > 0 with A_I^T y = 0 makes the rows dependent, so k > n
    if k <= n or np.linalg.matrix_rank(active.toarray()) < n:
        return None
    cone = RangedLp(np.zeros(k), active.T, np.zeros(n), np.zeros(n), col_lo=np.ones(k))
    return x if cone.solve(time_limit)[0] is LpStatus.OPTIMAL else None


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
    fat = [i for i, pt in enumerate(points) if pt is None]
    copy_start = [-1] * k
    for j, i in enumerate(fat):
        copy_start[i] = j * n
    num_copies = len(fat)
    nvar = n * num_copies + k + n
    d_off = n * num_copies
    x_off = d_off + k
    span = np.arange(n)

    # triplets of the rows in order; ``top`` is the next free row
    rows, cols, vals = [], [], []
    top = 0
    for i in fat:
        # A^i x^i - b^i delta_i <= 0
        block = sp.coo_matrix(pieces[i].a)
        m = pieces[i].m
        rows += [block.row + top, top + np.arange(m)]
        cols += [block.col + copy_start[i], np.full(m, d_off + i)]
        vals += [block.data, -np.asarray(pieces[i].b, dtype=float)]
        top += m
    # delta >= 0
    rows.append(top + np.arange(k))
    cols.append(d_off + np.arange(k))
    vals.append(-np.ones(k))
    top += k
    # sum_w x^w + sum_j delta_j v_j - x = 0 as a pair of inequality blocks
    agg_cols = [
        copy_start[i] + span if pt is None else np.full(n, d_off + i)
        for i, pt in enumerate(points)
    ]
    agg_vals = [np.ones(n) if pt is None else np.asarray(pt, dtype=float) for pt in points]
    agg_cols.append(x_off + span)
    agg_vals.append(-np.ones(n))
    for sign in (1.0, -1.0):
        rows += [top + span] * (k + 1)
        cols += agg_cols
        vals += [sign * v for v in agg_vals]
        top += n
    # sum_w delta_w = 1 as a pair of rows
    for sign in (1.0, -1.0):
        rows.append(np.full(k, top))
        cols.append(d_off + np.arange(k))
        vals.append(np.full(k, sign))
        top += 1
    a = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(top, nvar),
    )
    a.eliminate_zeros()
    b = np.zeros(top)
    b[-2:] = (1.0, -1.0)
    return HullFormulation(
        a=a,
        b=b,
        n=n,
        k=k,
        points=tuple(points),
        copy_start=tuple(copy_start),
        num_copies=num_copies,
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
        lp.move_to(rows.pin_bounds(pins), cols)

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
