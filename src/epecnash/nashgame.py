"""Simultaneous games of convex-quadratic players over polyhedra.

Each player i solves

    min  1/2 v_i' Q_i v_i + (c_i + K_i [v_{-i}; pi])' v_i
    s.t. A_i v_i <= b_i  (- P_i x  when parameterized by an external x),
         E_i v_i  = e_i

optionally tied together by shared market-clearing equalities whose
free multipliers ``pi`` act as prices the players take as given (the
"invisible hand": the clearing rows are the stationarity conditions of
a fictitious price-setting agent, so the game stays a standard Nash
game).  Stacking every player's KKT system yields one complementarity
set whose solutions are exactly the game's pure equilibria.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .lp import DimensionMismatch, LpError, LpStatus
from .polyhedra import (
    BinaryVar,
    ComplementaritySet,
    Deadline,
    Triplets,
    default_equalities,
    optimize_over_set,
)


class NonPsdObjective(ValueError):
    pass


@dataclass(frozen=True)
class QuadraticPlayer:
    """One player's data.

    ``coupling`` maps the concatenation of *all* players' strategy
    blocks followed by the market-price block to this player's linear
    objective coefficients; its own block must be zero.  ``param_obj``
    and ``param_rhs`` carry the simple parameterization in an external
    decision x: an objective shift ``(param_obj x)' v`` and a right-hand
    side shift ``A v <= b - param_rhs x``.  The equality rows
    ``a_eq v = b_eq`` take no parameter shift.
    """

    c: np.ndarray
    a: object
    b: np.ndarray
    q: np.ndarray | None = None
    coupling: object | None = None
    param_obj: object | None = None
    param_rhs: object | None = None
    a_eq: object | None = None  # (m_eq, n); no equality rows by default
    b_eq: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.c)

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def m_eq(self) -> int:
        return self.a_eq.shape[0]

    def __post_init__(self):
        if self.a.shape[1] != self.n:
            raise DimensionMismatch("player constraint columns != variable count")
        if self.a.shape[0] != len(self.b):
            raise DimensionMismatch("player A/b mismatch")
        default_equalities(self, self.n)
        if self.q is not None:
            qm = np.asarray(self.q, dtype=float)
            if qm.shape != (self.n, self.n):
                raise DimensionMismatch("Q must be square over the player's variables")
            if np.abs(qm - qm.T).max() > 1e-9:
                raise NonPsdObjective("Q must be symmetric")
            if qm.size and np.linalg.eigvalsh(qm).min() < -1e-8:
                raise NonPsdObjective("Q must be positive semidefinite")


@dataclass(frozen=True)
class PolyhedralNashGame:
    """Players plus optional shared clearing equalities over their blocks."""

    players: tuple[QuadraticPlayer, ...]
    clearing: object | None = None  # (n_mkt, sum n_i) rows; equality = 0
    n_param: int = 0

    @property
    def strategy_dim(self) -> int:
        return sum(p.n for p in self.players)

    @property
    def n_market(self) -> int:
        return 0 if self.clearing is None else self.clearing.shape[0]

    def __post_init__(self):
        width = self.strategy_dim + self.n_market
        for p in self.players:
            if p.coupling is not None and p.coupling.shape != (p.n, width):
                raise DimensionMismatch(
                    "coupling must span all strategy blocks plus market prices"
                )
            if p.param_obj is not None and p.param_obj.shape != (p.n, self.n_param):
                raise DimensionMismatch("param_obj shape mismatch")
            if p.param_rhs is not None and p.param_rhs.shape != (p.m, self.n_param):
                raise DimensionMismatch("param_rhs shape mismatch")
        if self.clearing is not None and self.clearing.shape[1] != self.strategy_dim:
            raise DimensionMismatch("clearing rows must span the strategy blocks")


@dataclass(frozen=True)
class KktLayout:
    """Positions of the blocks inside the stacked KKT variable vector."""

    var_slices: tuple[slice, ...]
    mult_slices: tuple[slice, ...]
    eq_mult_slices: tuple[slice, ...]
    market_slice: slice
    total: int

    def strategies(self, w: np.ndarray) -> list[np.ndarray]:
        return [np.asarray(w[s]) for s in self.var_slices]

    def market(self, w: np.ndarray) -> np.ndarray:
        return np.asarray(w[self.market_slice])


def kkt_layout(g: PolyhedralNashGame) -> KktLayout:
    """[parameter | strategies | inequality multipliers | equality
    multipliers | prices], each block player by player."""
    pos = g.n_param
    blocks = []
    for size in ("n", "m", "m_eq"):
        slices = []
        for p in g.players:
            slices.append(slice(pos, pos + getattr(p, size)))
            pos += getattr(p, size)
        blocks.append(tuple(slices))
    return KktLayout(
        var_slices=blocks[0],
        mult_slices=blocks[1],
        eq_mult_slices=blocks[2],
        market_slice=slice(pos, pos + g.n_market),
        total=pos + g.n_market,
    )


def kkt_system(g: PolyhedralNashGame) -> tuple[ComplementaritySet, KktLayout]:
    """The game's KKT conditions as one complementarity set.

    Equalities, in order: each player's stationarity rows, the clearing
    rows, each player's own equality rows (whose multipliers are free
    and take no pair).  Pairs: each inequality multiplier against its
    row slack ``b - param_rhs x - A v``.
    """
    lay = kkt_layout(g)
    total = lay.total
    strat0 = g.n_param

    eq = Triplets()
    b_eq = []
    top = 0
    for i, p in enumerate(g.players):
        if p.q is not None and np.any(p.q):
            eq.put(p.q, top, lay.var_slices[i].start)
        if p.coupling is not None:
            # a dense coupling is sliced as it is; a sparse one as CSR
            coup = sp.csr_matrix(p.coupling) if sp.issparse(p.coupling) else p.coupling
            eq.put(coup[:, : g.strategy_dim], top, strat0)
            if g.n_market:
                eq.put(coup[:, g.strategy_dim :], top, lay.market_slice.start)
        if p.param_obj is not None:
            eq.put(p.param_obj, top, 0)
        eq.put(p.a.T, top, lay.mult_slices[i].start)
        eq.put(p.a_eq.T, top, lay.eq_mult_slices[i].start)
        b_eq.append(-np.asarray(p.c, dtype=float))
        top += p.n
    if g.n_market:
        eq.put(g.clearing, top, strat0)
        b_eq.append(np.zeros(g.n_market))
        top += g.n_market
    for i, p in enumerate(g.players):
        eq.put(p.a_eq, top, lay.var_slices[i].start)
        b_eq.append(np.asarray(p.b_eq, dtype=float))
        top += p.m_eq

    pairs = Triplets()
    q_parts = []
    comp: list[int] = []
    top = 0
    for i, p in enumerate(g.players):
        pairs.put(-p.a, top, lay.var_slices[i].start)
        if p.param_rhs is not None:
            pairs.put(-p.param_rhs, top, 0)
        q_parts.append(np.asarray(p.b, dtype=float))
        comp.extend(range(lay.mult_slices[i].start, lay.mult_slices[i].stop))
        top += p.m

    set_ = ComplementaritySet(
        a=sp.csr_matrix((0, total)),
        b=np.zeros(0),
        m_mat=pairs.csr((top, total)),
        q=np.concatenate(q_parts) if q_parts else np.zeros(0),
        comp=tuple(comp),
        a_eq=eq.csr((sum(len(v) for v in b_eq), total)),
        b_eq=np.concatenate(b_eq) if b_eq else np.zeros(0),
    )
    return set_, lay


@dataclass(frozen=True)
class PneOutcome:
    found: bool
    point: np.ndarray | None = None
    layout: KktLayout | None = None

    def strategies(self) -> list[np.ndarray]:
        return self.layout.strategies(self.point)

    def market(self) -> np.ndarray:
        return self.layout.market(self.point)


def find_pne(
    g: PolyhedralNashGame,
    selection: np.ndarray | None = None,
    deadline: Deadline | None = None,
    binaries: tuple[BinaryVar, ...] = (),
) -> PneOutcome:
    """A pure equilibrium of the game, or a certificate that none exists.

    ``selection`` (over the concatenated strategy blocks) picks among
    equilibria by minimizing a linear criterion over the whole KKT set;
    without it the search stops at the first equilibrium found.

    The game is searched on its KKT system.  A game whose players meet
    only through the market price has a planner LP instead, which the
    solvers in ``algorithms`` keep and grow in place
    (``RestrictedPlanner``).  They reach this search only for games whose
    leaders meet through each other's strategies: their restricted hull
    games, and their one-shot hull game under a selection or, with binary
    weights, in a pure search.
    """
    if g.n_param:
        raise LpError("cannot solve a game that still has free parameters")
    deadline = deadline or Deadline()
    set_, lay = kkt_system(g)
    deadline.check()
    c = np.zeros(lay.total)
    if selection is not None:
        if len(selection) != g.strategy_dim:
            raise DimensionMismatch("selection objective spans the strategy blocks")
        c[lay.var_slices[0].start : lay.var_slices[0].start + g.strategy_dim] = selection
    out = optimize_over_set(set_, c, deadline=deadline, binaries=binaries)
    if out.status is LpStatus.OPTIMAL:
        return PneOutcome(found=True, point=out.point, layout=lay)
    if out.status is LpStatus.INFEASIBLE:
        return PneOutcome(found=False)
    raise LpError("selection objective is unbounded over the equilibrium set")
