"""Shared fixtures: hand-built sets with known piece structure."""

import numpy as np
import scipy.sparse as sp

from epecnash.hotlp import INF, RangedLp
from epecnash.lp import LinearProgram, LpStatus, solve_lp
from epecnash.nashgame import PolyhedralNashGame, QuadraticPlayer, find_pne
from epecnash.polyhedra import (
    ComplementaritySet,
    HullFormulation,
    Polyhedron,
    _single_point_of,
    balas_hull,
)
from epecnash.rng import Lcg


def interval_of(poly: Polyhedron, coord: int) -> tuple[float, float]:
    """(min, max) of one coordinate over a polyhedron; +-inf if unbounded."""
    lo_obj = np.zeros(poly.n)
    lo_obj[coord] = 1.0
    lo = solve_lp(poly.program(lo_obj))
    hi = solve_lp(poly.program(-lo_obj))
    lo_val = -np.inf if lo.status is LpStatus.UNBOUNDED else lo.value
    hi_val = np.inf if hi.status is LpStatus.UNBOUNDED else -hi.value
    return lo_val, hi_val


def hull_of(pieces: list[Polyhedron]) -> HullFormulation:
    """Balas hull of hand-made pieces, each with its singleton test run."""
    return balas_hull(pieces, [_single_point_of(p) for p in pieces])


def untaxed_supply(producers, alpha: float, beta: float) -> float:
    """Total production of the producers' Cournot game at zero taxes and
    without trade, solved as a Nash game by branch-and-bound."""
    n = len(producers)
    players = []
    for p, prod in enumerate(producers):
        coupling = np.full((1, n), beta)
        coupling[0, p] = 0.0
        players.append(
            QuadraticPlayer(
                c=np.array([prod.lin_cost - alpha]),
                a=np.array([[-1.0], [1.0]]),
                b=np.array([0.0, prod.capacity]),
                q=np.array([[prod.quad_cost + 2.0 * beta]]),
                coupling=coupling,
            )
        )
    out = find_pne(PolyhedralNashGame(players=tuple(players)))
    return float(np.concatenate(out.strategies()).sum())


def single_point_by_coordinates(poly: Polyhedron) -> np.ndarray | None:
    """Coordinate-wise singleton test: the midpoint of every coordinate's
    range when each range is at most 1e-9 wide, else None (2n LPs)."""
    n = poly.n
    lp = RangedLp(
        np.zeros(n),
        sp.vstack([sp.csr_matrix(poly.a), sp.csr_matrix(poly.a_eq)], format="csr"),
        np.concatenate([np.full(poly.m, -INF), poly.b_eq]),
        np.concatenate([np.asarray(poly.b, float), poly.b_eq]),
    )
    lo = np.empty(n)
    hi = np.empty(n)
    for j in range(n):
        c = np.zeros(n)
        c[j] = 1.0
        lp.set_objective(c)
        status, _, val = lp.solve()
        if status is not LpStatus.OPTIMAL:
            return None
        lo[j] = val
        lp.set_objective(-c)
        status, _, val = lp.solve()
        if status is not LpStatus.OPTIMAL:
            return None
        hi[j] = -val
        if hi[j] - lo[j] > 1e-9:
            return None
    return (lo + hi) / 2.0


def split_interval_set() -> ComplementaritySet:
    """KKT set whose projection onto coordinate 0 is [-5,-1] union [1,5].

    Variables (xi, chi, mu1, mu2): xi in [-5,5], chi >= 0, mu1+mu2 = 1,
    with pairs  mu1 perp chi+xi+1  and  mu2 perp chi-xi+1  (the KKT of
    minimizing chi subject to chi >= -xi-1 and chi >= xi-1).  Encoding
    (0,1) selects the [1,5] branch, (1,0) the [-5,-1] branch.
    """
    a = np.array(
        [
            [-1.0, 0.0, 0.0, 0.0],  # xi >= -5
            [1.0, 0.0, 0.0, 0.0],  # xi <= 5
            [0.0, -1.0, 0.0, 0.0],  # chi >= 0
            [0.0, 0.0, 1.0, 1.0],  # mu1 + mu2 = 1
            [0.0, 0.0, -1.0, -1.0],
        ]
    )
    b = np.array([5.0, 5.0, 0.0, 1.0, -1.0])
    m = np.array(
        [
            [1.0, 1.0, 0.0, 0.0],  # z0 = chi + xi + 1
            [-1.0, 1.0, 0.0, 0.0],  # z1 = chi - xi + 1
        ]
    )
    q = np.array([1.0, 1.0])
    return ComplementaritySet(a=a, b=b, m_mat=m, q=q, comp=(2, 3))


def box_set(lo: float, hi: float) -> ComplementaritySet:
    """Plain interval as a pair-free set."""
    return ComplementaritySet(
        a=np.array([[-1.0], [1.0]]),
        b=np.array([-lo, hi]),
        m_mat=np.zeros((0, 1)),
        q=np.zeros(0),
        comp=(),
    )


def scalar_set(m: float, q: float, extra_rows=None) -> ComplementaritySet:
    """1-D set {0 <= x  perp  m*x + q >= 0}."""
    a = np.zeros((0, 1)) if extra_rows is None else np.asarray(extra_rows[0])
    b = np.zeros(0) if extra_rows is None else np.asarray(extra_rows[1])
    return ComplementaritySet(
        a=a, b=b, m_mat=np.array([[m]]), q=np.array([q]), comp=(0,)
    )


def random_comp_set(seed: int, max_dim: int = 4, max_pairs: int = 6) -> ComplementaritySet:
    """Seeded random complementarity set, mostly bounded, sometimes not."""
    rng = Lcg(seed)
    n = 2 + rng.randint(max_dim - 1)
    p = 1 + rng.randint(min(max_pairs, n))
    comp = list(range(n))
    rng.shuffle(comp)
    comp = tuple(sorted(comp[:p]))
    rows = [np.eye(n), -np.eye(n)]
    rhs = [
        np.array([rng.uniform(0.5, 3.0) for _ in range(n)]),
        np.array([rng.uniform(0.5, 3.0) for _ in range(n)]),
    ]
    if rng.randint(4) == 0:
        # occasionally drop an upper bound so unbounded statuses occur
        drop = rng.randint(n)
        rhs[0][drop] = 1e9
    for _ in range(rng.randint(3)):
        rows.append(np.array([[rng.uniform(-1, 1) for _ in range(n)]]))
        rhs.append(np.array([rng.uniform(0.0, 2.0)]))
    m_mat = np.array(
        [[round(rng.uniform(-2, 2), 1) for _ in range(n)] for _ in range(p)]
    )
    q = np.array([round(rng.uniform(-1.5, 1.5), 1) for _ in range(p)])
    return ComplementaritySet(
        a=np.vstack(rows), b=np.concatenate(rhs), m_mat=m_mat, q=q, comp=comp
    )
