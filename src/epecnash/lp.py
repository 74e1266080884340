"""The LP types of the solver stack, and one-shot LP solving.

``solve_lp`` is a thin, deterministic wrapper around
``scipy.optimize.linprog`` (HiGHS, imported on first use); only
``polyhedra.is_feasible`` and the tests reach it, as every search runs
on the incremental models of ``hotlp``.  Problems are minimization over
``A x <= b`` and ``A_eq x = b_eq`` with optional variable bounds.
Unbounded problems come back with an explicit recession ray so callers
can report unboundedness meaningfully (a best response with no optimum
is game-relevant information, not an error).  ``Deadline`` is the
wall-clock budget of one solve, which every incremental LP reads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tolerances import FEAS_TOL


class LpError(Exception):
    pass


class DimensionMismatch(LpError):
    pass


class NumericalFailure(LpError):
    pass


class TimeLimitReached(Exception):
    pass


class Deadline:
    """Wall-clock budget of one solve; every search node polls it through ``tick``."""

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


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """min objective @ x  s.t.  a @ x <= b,  a_eq @ x = b_eq,  lower <= x <= upper."""

    objective: np.ndarray
    a: object  # (m, n) ndarray, SparseMatrix or scipy sparse
    b: np.ndarray
    lower: np.ndarray | None = None  # -inf where absent
    upper: np.ndarray | None = None  # +inf where absent
    a_eq: object | None = None  # (m_eq, n); no equality rows when absent
    b_eq: np.ndarray | None = None

    def dims(self) -> tuple[int, int]:
        m = self.a.shape[0] if self.a is not None else 0
        n = len(self.objective)
        return m, n


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    point: np.ndarray | None = None
    value: float | None = None
    ray: np.ndarray | None = None


def _check_dims(lp: LinearProgram) -> None:
    n = len(lp.objective)
    if lp.a is not None and lp.a.shape[0] > 0:
        if lp.a.shape[1] != n:
            raise DimensionMismatch(
                f"A has {lp.a.shape[1]} columns, objective has {n} entries"
            )
        if lp.a.shape[0] != len(lp.b):
            raise DimensionMismatch(
                f"A has {lp.a.shape[0]} rows, b has {len(lp.b)} entries"
            )
    if lp.a_eq is not None and lp.a_eq.shape != (len(lp.b_eq), n):
        raise DimensionMismatch("A_eq must have one row per b_eq entry and n columns")
    for bound, label in ((lp.lower, "lower"), (lp.upper, "upper")):
        if bound is not None and len(bound) != n:
            raise DimensionMismatch(f"{label} bounds have wrong length")
    if lp.lower is not None and lp.upper is not None:
        both = np.isfinite(lp.lower) & np.isfinite(lp.upper)
        if np.any(lp.lower[both] > lp.upper[both]):
            raise DimensionMismatch("lower bound exceeds upper bound")


def _bounds_list(lp: LinearProgram) -> list[tuple[float | None, float | None]]:
    n = len(lp.objective)
    lo = lp.lower if lp.lower is not None else np.full(n, -np.inf)
    hi = lp.upper if lp.upper is not None else np.full(n, np.inf)
    return [
        (None if not np.isfinite(l) else float(l), None if not np.isfinite(h) else float(h))
        for l, h in zip(lo, hi)
    ]


def _run_highs(c, a, b, bounds, a_eq=None, b_eq=None):
    from scipy.optimize import linprog

    from .hotlp import SparseMatrix

    def taken(m):  # linprog takes dense arrays and SciPy sparse matrices
        return m.toarray() if isinstance(m, SparseMatrix) else m

    kwargs = {}
    if a is not None and a.shape[0] > 0:
        kwargs["A_ub"] = taken(a)
        kwargs["b_ub"] = b
    if a_eq is not None and a_eq.shape[0] > 0:
        kwargs["A_eq"] = taken(a_eq)
        kwargs["b_eq"] = b_eq
    return linprog(c, bounds=bounds, method="highs", **kwargs)


def _recession_ray(lp: LinearProgram) -> np.ndarray:
    """A direction d with A d <= 0, A_eq d = 0, bound-compatible, and
    objective @ d < 0.

    Exists whenever the LP is feasible and unbounded; found by minimizing
    the objective over the recession cone intersected with a unit box.
    """
    m, n = lp.dims()
    lo = np.full(n, -1.0)
    hi = np.full(n, 1.0)
    if lp.lower is not None:
        lo[np.isfinite(lp.lower)] = 0.0
    if lp.upper is not None:
        hi[np.isfinite(lp.upper)] = 0.0
    a = lp.a if m > 0 else None
    m_eq = 0 if lp.a_eq is None else lp.a_eq.shape[0]
    res = _run_highs(lp.objective, a, np.zeros(m), list(zip(lo, hi)), lp.a_eq, np.zeros(m_eq))
    if res.status != 0 or res.fun >= -FEAS_TOL:
        raise NumericalFailure("unbounded LP without a certifying ray")
    return np.asarray(res.x, dtype=float)


def solve_lp(lp: LinearProgram) -> LpOutcome:
    _check_dims(lp)
    m, _ = lp.dims()
    a = lp.a if m > 0 else None
    res = _run_highs(
        np.asarray(lp.objective, dtype=float), a, lp.b, _bounds_list(lp), lp.a_eq, lp.b_eq
    )
    if res.status == 0:
        return LpOutcome(LpStatus.OPTIMAL, point=np.asarray(res.x, dtype=float), value=float(res.fun))
    if res.status == 2:
        return LpOutcome(LpStatus.INFEASIBLE)
    if res.status == 3:
        return LpOutcome(LpStatus.UNBOUNDED, ray=_recession_ray(lp))
    raise NumericalFailure(f"LP backend failed: {res.message}")

