"""Leaders of bilevel programs playing a simultaneous game.

Each leader commits decision variables x subject to joint constraints
with its followers' responses y; the followers then play a quadratic
Nash game among themselves, parameterized in x, whose (unique, by
strict convexity) equilibrium the leader anticipates.  Replacing the
followers by their KKT systems turns the leader's feasible region into
a complementarity set over (x, y, multipliers) -- a finite union of
polyhedra that the solver enumerates and lifts.

At the top level, leaders interact only through bilinear objective
terms (and, optionally, shared market-clearing equalities priced by a
free multiplier block).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lp import DimensionMismatch
from .nashgame import PolyhedralNashGame, kkt_layout, kkt_system
from .polyhedra import ComplementaritySet, Triplets


class DenseRows:
    """Dense constraint rows ``a v <= b`` over ``width`` columns, added one
    sparse row at a time; repeated columns of a row add up."""

    def __init__(self, width: int):
        self.width = width
        self._rows: list[np.ndarray] = []
        self._rhs: list[float] = []

    def add(self, coeffs: dict[int, float], bound: float) -> None:
        row = np.zeros(self.width)
        for col, val in coeffs.items():
            row[col] += val
        self._rows.append(row)
        self._rhs.append(bound)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.vstack(self._rows), np.array(self._rhs, dtype=float)


@dataclass(frozen=True)
class StackelbergLeader:
    """One leader: own constraints over (x, y) plus a follower game in x.

    ``poly_a`` spans the leader's decision block (first ``n_leader``
    columns) and the follower strategy blocks.  ``followers`` must have
    ``n_param == n_leader``; a leader without followers gets the empty
    follower game, whose KKT system adds no column, row or pair.
    ``feasible`` short-circuits the KKT derivation when the leader was
    loaded in raw matrix form.
    """

    name: str
    n_leader: int
    poly_a: object
    poly_b: np.ndarray
    followers: PolyhedralNashGame | None = None
    feasible: ComplementaritySet | None = None

    @cached_property
    def ambient(self) -> int:
        """Dimension of (x, y, follower multipliers, follower prices)."""
        if self.feasible is not None:
            return self.feasible.n
        return kkt_layout(self.followers).total

    def __post_init__(self):
        if self.feasible is not None:
            return
        followers = self.followers or PolyhedralNashGame(players=(), n_param=self.n_leader)
        object.__setattr__(self, "followers", followers)
        expected = self.n_leader + followers.strategy_dim
        if self.poly_a.shape[1] != expected:
            raise DimensionMismatch(
                f"leader '{self.name}' constraint width {self.poly_a.shape[1]} "
                f"!= leader+follower variables {expected}"
            )
        if self.poly_a.shape[0] != len(self.poly_b):
            raise DimensionMismatch("leader polyhedron A/b mismatch")
        if followers.n_param != self.n_leader:
            raise DimensionMismatch("follower game must be parameterized in x")


def leader_feasible_set(leader: StackelbergLeader) -> ComplementaritySet:
    """The leader's feasible region as one complementarity system.

    Rows: own (x, y) constraints as inequalities, and the followers'
    stationarity rows as equalities; pairs: follower constraint
    multipliers against their slacks.  Its projection onto (x, y) is the
    set of leader decisions together with the followers' anticipated
    equilibrium response.
    """
    if leader.feasible is not None:
        return leader.feasible
    inner, lay = kkt_system(leader.followers)
    own = Triplets()
    own.put(leader.poly_a, 0, 0)
    return ComplementaritySet(
        a=own.matrix((leader.poly_a.shape[0], lay.total)),
        b=np.asarray(leader.poly_b, dtype=float),
        m_mat=inner.m_mat,
        q=inner.q,
        comp=inner.comp,
        a_eq=inner.a_eq,
        b_eq=inner.b_eq,
    )


@dataclass(frozen=True)
class MultiLeaderGame:
    """Linear Nash game among Stackelberg leaders.

    ``objectives[i]`` and ``couplings[i]`` give leader i's payoff
    ``(objectives[i] + couplings[i] @ [all ambient blocks; prices])' v_i``
    over its own ambient block v_i; the own-block columns of a coupling
    must be zero.  ``clearing`` rows (over the concatenated ambient
    blocks) must hold at equilibrium and are priced by free multipliers
    that enter the couplings' trailing columns.
    """

    leaders: tuple[StackelbergLeader, ...]
    objectives: tuple[np.ndarray, ...]
    couplings: tuple[object | None, ...]
    clearing: object | None = None

    @property
    def n_market(self) -> int:
        return 0 if self.clearing is None else self.clearing.shape[0]

    @property
    def ambients(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.objectives)

    @property
    def total_ambient(self) -> int:
        return sum(self.ambients)

    def ambient_offset(self, i: int) -> int:
        return sum(self.ambients[:i])

    def __post_init__(self):
        if not (len(self.leaders) == len(self.objectives) == len(self.couplings)):
            raise DimensionMismatch("leaders/objectives/couplings disagree")
        width = self.total_ambient + self.n_market
        for i, leader in enumerate(self.leaders):
            amb = leader.ambient
            if len(self.objectives[i]) != amb:
                raise DimensionMismatch(
                    f"objective {i} has length {len(self.objectives[i])}, "
                    f"leader ambient is {amb}"
                )
            coup = self.couplings[i]
            if coup is not None:
                if coup.shape != (amb, width):
                    raise DimensionMismatch(f"coupling {i} has wrong shape")
                own = coup[:, self.ambient_offset(i) : self.ambient_offset(i) + amb]
                own = own.toarray() if hasattr(own, "toarray") else np.asarray(own)
                if own.size and np.abs(own).max() > 0:
                    raise DimensionMismatch("coupling own-block must be zero")
        if self.clearing is not None and self.clearing.shape[1] != self.total_ambient:
            raise DimensionMismatch("clearing width must match total ambient")

    def rival_objective(self, i: int, means: list[np.ndarray], prices: np.ndarray) -> np.ndarray:
        """Leader i's effective linear objective given rivals' mean play."""
        obj = np.asarray(self.objectives[i], dtype=float).copy()
        if self.couplings[i] is not None:
            stacked = np.concatenate(list(means) + [prices])
            obj += np.asarray(self.couplings[i] @ stacked).ravel()
        return obj
