"""Incremental LP used by the branch-and-bound inner loops.

One HiGHS model is kept per relaxation for every LP over it: witnesses,
scans and every tree node differ from the base relaxation only in the
objective and row/column *bounds* (a pinned complementarity side fixes
its column at 0 or turns its pair row into an equation; a branched
convex weight turns into a fixed column).  Moving between nodes edits only the bounds
that differ, and warm-started re-solves are orders of magnitude cheaper
than rebuilding the LP per node.  A model can also grow: columns and rows
added in place keep the basis, so a restricted master that takes new
pieces re-solves warm.  A solve also leaves its certificates: the row
duals of an optimum and the dual ray of an infeasible node.

Models take their rows as a :class:`SparseMatrix`, the solver's one sparse
type: sorted COO triplets whose rows ``_compressed`` groups into the
arrays HiGHS takes.  A dense array or a SciPy sparse matrix is accepted
too, read through ``tocoo``/``toarray`` duck typing, so the solver never
imports ``scipy.sparse``.

Loads SciPy's HiGHS extension ``scipy.optimize._highspy._core`` (SciPy 1.15
and later) from its file, so ``scipy.optimize``'s ``__init__`` never runs;
with an older SciPy, importing this module (and ``epecnash``) fails.
"""

from __future__ import annotations

from functools import cached_property
from importlib import machinery, util

import numpy as np
import scipy

from .lp import Deadline, LpStatus, NumericalFailure, TimeLimitReached
from .tolerances import FEAS_TOL

INF = 1e30


def _load_core(directory: str):
    """The extension ``scipy.optimize._highspy._core`` in ``directory``."""
    spec = machinery.PathFinder.find_spec("scipy.optimize._highspy._core", [directory])
    if spec is None:
        raise ImportError(f"no HiGHS extension (_core) in {directory}; epecnash needs SciPy >= 1.15")
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_hc = _load_core(f"{scipy.__path__[0]}/optimize/_highspy")

# Model statuses of a HiGHS run that a stale warm basis can cause; the
# solve retries them cold.  A warm run can also end in error with the
# status still ``kNotset``.
_RETRY = (
    _hc.HighsModelStatus.kUnknown,
    _hc.HighsModelStatus.kIterationLimit,
    _hc.HighsModelStatus.kNotset,
)

_PRIMAL_SIMPLEX = 4  # HiGHS ``simplex_strategy`` value
_ERROR = _hc.HighsStatus.kError


def _compressed(major, minor, values, count: int):
    """Triplets as HiGHS takes a model's rows or added rows or columns: the
    start of each of ``count`` major indices, then the minor index and
    value of each entry, grouped by major index in their order.  The one
    path from triplets to compressed arrays."""
    order = np.argsort(major, kind="stable")
    counts = np.bincount(major, minlength=count)
    starts = np.cumsum(counts) - counts
    return (
        starts.astype(np.int32),
        np.asarray(minor)[order].astype(np.int32),
        np.asarray(values, float)[order],
    )


def triplets(block) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (row, column, value) triplets of a ``SparseMatrix``, a SciPy
    sparse matrix (its stored entries) or a dense array (its nonzero ones,
    row by row)."""
    if hasattr(block, "tocoo"):
        coo = block.tocoo()
        return coo.row, coo.col, coo.data
    block = np.asarray(block)
    rows, cols = np.nonzero(block)
    return rows, cols, block[rows, cols]


class SparseMatrix:
    """A sparse matrix as COO triplets sorted by row, then column, with no
    duplicate and no explicit zero: the solver's one sparse type.

    It offers what the solver uses: ``shape`` and ``nnz``; products with a
    dense vector or matrix, each row summed in column order as SciPy's CSR
    product sums it; the transpose ``T``; column and row sums;
    ``toarray``; and ``tocoo``, itself, whose ``row``, ``col`` and
    ``data`` any triplet reader takes.  ``build`` makes one from triplets
    in any order.
    """

    def __init__(self, row, col, data, shape):
        self.row, self.col, self.data = row, col, data
        self.shape = (int(shape[0]), int(shape[1]))

    @classmethod
    def build(cls, row, col, data, shape) -> SparseMatrix:
        """The matrix of triplets in any order: duplicates summed in their
        order, then explicit zeros dropped."""
        width = max(int(shape[1]), 1)
        key = np.asarray(row, dtype=np.intp) * width + np.asarray(col, dtype=np.intp)
        order = np.argsort(key, kind="stable")
        key, data = key[order], np.asarray(data, float)[order]
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        if not first.all():
            data = np.bincount(np.cumsum(first) - 1, weights=data)
            key = key[first]
        nonzero = data != 0
        key = key[nonzero]
        return cls(key // width, key % width, data[nonzero], shape)

    @classmethod
    def of(cls, m) -> SparseMatrix:
        """``m`` itself, or a dense array or SciPy sparse matrix as one."""
        return m if isinstance(m, cls) else cls.build(*triplets(m), m.shape)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def tocoo(self) -> SparseMatrix:
        return self

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.row, self.col] = self.data
        return out

    def __neg__(self) -> SparseMatrix:
        return SparseMatrix(self.row, self.col, -self.data, self.shape)

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim == 1:
            return np.bincount(self.row, self.data * x[self.col], minlength=self.shape[0])
        out = np.zeros((self.shape[0],) + x.shape[1:])
        np.add.at(out, self.row, self.data.reshape((-1,) + (1,) * (x.ndim - 1)) * x[self.col])
        return out

    @cached_property
    def T(self) -> SparseMatrix:
        order = np.argsort(self.col, kind="stable")
        return SparseMatrix(self.col[order], self.row[order], self.data[order], self.shape[::-1])

    def sum(self, axis: int) -> np.ndarray:
        """Column sums (``axis`` 0) or row sums (1), each in index order."""
        index, size = (self.col, self.shape[1]) if axis == 0 else (self.row, self.shape[0])
        return np.bincount(index, self.data, minlength=size)


class RangedLp:
    """min c x  s.t.  row_lo <= A x <= row_hi,  col_lo <= x <= col_hi; each
    HiGHS run is capped by what ``deadline`` (if any) has left when it starts.
    HiGHS runs dual simplex unless ``primal`` asks for primal simplex."""

    def __init__(
        self, objective, a, row_lo, row_hi, col_lo=None, col_hi=None, deadline=None, primal=False
    ):
        self.deadline = deadline or Deadline()
        self.n = len(objective)
        self.m = a.shape[0]
        self._a = SparseMatrix.of(a)
        self._added: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # entries not in _a yet
        self._base_row = (np.asarray(row_lo, float).copy(), np.asarray(row_hi, float).copy())
        self._base_col = (
            np.full(self.n, -INF) if col_lo is None else np.asarray(col_lo, float).copy(),
            np.full(self.n, INF) if col_hi is None else np.asarray(col_hi, float).copy(),
        )
        # bounds that differ from the base, by row and by column
        self._rows: dict[int, tuple[float, float]] = {}
        self._cols: dict[int, tuple[float, float]] = {}
        self._objective = np.asarray(objective, float).copy()
        lp = _hc.HighsLp()
        lp.num_col_ = self.n
        lp.num_row_ = self.m
        lp.col_cost_ = self._objective
        lp.col_lower_ = self._base_col[0].copy()
        lp.col_upper_ = self._base_col[1].copy()
        lp.row_lower_ = self._base_row[0].copy()
        lp.row_upper_ = self._base_row[1].copy()
        starts, index, value = _compressed(self._a.row, self._a.col, self._a.data, self.m)
        lp.a_matrix_.format_ = _hc.MatrixFormat.kRowwise
        lp.a_matrix_.start_ = np.append(starts, len(value)).astype(np.int64)
        lp.a_matrix_.index_ = index.astype(np.int64)
        lp.a_matrix_.value_ = value
        self._h = _hc._Highs()
        self._h.setOptionValue("output_flag", False)
        self._h.setOptionValue("threads", 1)
        self._h.setOptionValue("random_seed", 0)
        if primal:
            self._h.setOptionValue("simplex_strategy", _PRIMAL_SIMPLEX)
        if self._h.passModel(lp) == _ERROR:
            raise NumericalFailure("could not build incremental LP")

    # -- growth --------------------------------------------------------
    def add_cols(self, cost, col_lo, col_hi, entries) -> None:
        """Append ``len(cost)`` columns.  ``entries`` are their (row,
        column, value) triplets in the rows the model has, columns counted
        from the first new one.  The basis is kept, the new columns
        nonbasic."""
        k = len(cost)
        starts, index, value = _compressed(entries[1], entries[0], entries[2], k)
        if self._h.addCols(k, cost, col_lo, col_hi, len(value), starts, index, value) == _ERROR:
            raise NumericalFailure("could not add columns to the incremental LP")
        self._added.append((entries[0], entries[1] + self.n, entries[2]))
        self._objective = np.concatenate([self._objective, cost])
        self._base_col = tuple(np.concatenate(b) for b in zip(self._base_col, (col_lo, col_hi)))
        self.n += k

    def add_rows(self, row_lo, row_hi, entries) -> None:
        """Append ``len(row_lo)`` rows.  ``entries`` are their (row, column,
        value) triplets, rows counted from the first new one, over every
        column of the model.  The basis is kept, the new rows basic."""
        k = len(row_lo)
        starts, index, value = _compressed(entries[0], entries[1], entries[2], k)
        if self._h.addRows(k, row_lo, row_hi, len(value), starts, index, value) == _ERROR:
            raise NumericalFailure("could not add rows to the incremental LP")
        self._added.append((entries[0] + self.m, entries[1], entries[2]))
        self._base_row = tuple(np.concatenate(b) for b in zip(self._base_row, (row_lo, row_hi)))
        self.m += k

    @property
    def matrix(self) -> SparseMatrix:
        """The constraint matrix, grown columns and rows included."""
        if self._added:
            a = self._a
            rows, cols, vals = map(np.concatenate, zip((a.row, a.col, a.data), *self._added))
            self._a = SparseMatrix.build(rows, cols, vals, (self.m, self.n))
            self._added = []
        return self._a

    # -- node edits ----------------------------------------------------
    def move_to(self, rows: dict, cols: dict | None = None) -> None:
        """Make ``rows`` and ``cols`` (index -> (lo, hi)) the only bounds
        that differ from the base.

        Only the bounds that differ from the node applied last are
        edited; an index that drops out gets its base bounds back, which
        happens only when the new node does not extend the last one.
        """
        cols = {} if cols is None else cols
        for r in self._rows.keys() - rows.keys():
            self._h.changeRowBounds(r, self._base_row[0][r], self._base_row[1][r])
        for r, (lo, hi) in rows.items():
            if self._rows.get(r) != (lo, hi):
                self._h.changeRowBounds(r, lo, hi)
        for c in self._cols.keys() - cols.keys():
            self._h.changeColBounds(c, self._base_col[0][c], self._base_col[1][c])
        for c, (lo, hi) in cols.items():
            if self._cols.get(c) != (lo, hi):
                self._h.changeColBounds(c, lo, hi)
        self._rows = dict(rows)
        self._cols = dict(cols)

    def set_objective(self, c: np.ndarray) -> None:
        """Make ``c`` the objective; no HiGHS call when it already is."""
        c = np.asarray(c, float)
        if np.array_equal(c, self._objective):
            return
        self._objective = c.copy()
        self._h.changeColsCost(
            self.n, np.arange(self.n, dtype=np.int64), self._objective
        )

    # -- solving --------------------------------------------------------
    def _run(self):
        """One HiGHS run under the budget left; its model status, or
        ``TimeLimitReached``."""
        # HiGHS compares its limit with the run time summed over every run
        # of the model, so the cap is set past the time already run
        left = self.deadline.remaining
        self._h.setOptionValue(
            "time_limit", np.inf if left is None else self._h.getRunTime() + max(left, 0.0)
        )
        self._h.run()
        status = self._h.getModelStatus()
        if status == _hc.HighsModelStatus.kTimeLimit:
            raise TimeLimitReached()
        return status

    def solve(self):
        """(status, point, value); point/value only when optimal."""
        status = self._run()
        if status in _RETRY:
            # a stale warm basis can defeat the solve; retry cold, then
            # without presolve
            self._h.clearSolver()
            status = self._run()
            if status in _RETRY:
                self._h.setOptionValue("presolve", "off")
                self._h.clearSolver()
                try:
                    status = self._run()
                finally:
                    self._h.setOptionValue("presolve", "choose")
        if status == _hc.HighsModelStatus.kOptimal:
            x = np.array(self._h.getSolution().col_value)
            return LpStatus.OPTIMAL, x, float(self._h.getObjectiveValue())
        if status == _hc.HighsModelStatus.kInfeasible:
            return LpStatus.INFEASIBLE, None, None
        if status == _hc.HighsModelStatus.kUnbounded:
            return LpStatus.UNBOUNDED, None, None
        if status == _hc.HighsModelStatus.kUnboundedOrInfeasible:
            return (
                (LpStatus.UNBOUNDED, None, None)
                if self.feasible_point() is not None
                else (LpStatus.INFEASIBLE, None, None)
            )
        raise NumericalFailure(f"incremental LP ended with status {status}")

    def row_duals(self) -> np.ndarray:
        """HiGHS's row duals of the last optimal solve: d(optimum)/d(row
        bound), so a binding ``<=`` row of a minimization has one <= 0."""
        solution = self._h.getSolution()
        if not solution.dual_valid:
            raise NumericalFailure("incremental LP has no valid row duals")
        return np.array(solution.row_dual)

    def dual_ray(self) -> np.ndarray | None:
        """HiGHS's dual ray of the last solve, if it ended infeasible: row
        multipliers y that prove the node empty (Farkas) under one of their
        two signs.  None when HiGHS has none, or when the bindings cannot
        read one."""
        read = getattr(self._h, "getDualRay", None)
        if read is None:
            return None
        status, exists, y = read()
        return np.array(y) if exists and status != _hc.HighsStatus.kError else None

    def feasible_point(self) -> np.ndarray | None:
        """A point of the current node system, or None if it is empty: one
        zero-objective HiGHS run, not counted as a ``solve``."""
        saved = self._objective
        self.set_objective(np.zeros(self.n))
        try:
            status = self._run()
            x = (
                np.array(self._h.getSolution().col_value)
                if status == _hc.HighsModelStatus.kOptimal
                else None
            )
        finally:
            self.set_objective(saved)
        return x

    def ray(self) -> np.ndarray:
        """A direction d of the current node system with c d < 0.

        The recession cone of the node, cut by a unit box: a finite
        bound side of a row or column becomes 0, every other column side
        is +-1.  Exists whenever the node is feasible and unbounded.
        The cone LP runs under the model's deadline.
        """
        bounds = []
        for base, edits in ((self._base_row, self._rows), (self._base_col, self._cols)):
            lo, hi = base[0].copy(), base[1].copy()
            for i, (l, h) in edits.items():
                lo[i], hi[i] = l, h
            bounds.append((np.where(lo > -INF, 0.0, -INF), np.where(hi < INF, 0.0, INF)))
        (row_lo, row_hi), (col_lo, col_hi) = bounds
        cone = RangedLp(
            self._objective,
            self.matrix,
            row_lo,
            row_hi,
            np.maximum(col_lo, -1.0),
            np.minimum(col_hi, 1.0),
            self.deadline,
        )
        status, d, value = cone.solve()
        if status is not LpStatus.OPTIMAL or value >= -FEAS_TOL:
            raise NumericalFailure("unbounded LP without a certifying ray")
        return d
