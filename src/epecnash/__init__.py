"""Equilibrium solver for simultaneous games among bilevel leaders.

Feasible sets of bilevel leaders are finite unions of polyhedra; the
solver enumerates (or grows) those pieces, lifts each union to its
convex hull, and solves the resulting game of linear players as a
complementarity system by disjunctive branch-and-bound.  Mixed
strategies fall out of the hull weights; an empty complementarity
system certifies that no equilibrium exists.
"""

from .algorithms import (
    Deviation,
    MixedProfile,
    SolveReport,
    decompose_mixed,
    deviation_check,
    full_enumeration,
    inner_approximation,
    pure_enumeration,
)
from .energy import (
    CountrySpec,
    EnergyInstance,
    EnergyReport,
    ProducerSpec,
    build_game,
    report,
)
from .generators import (
    GenConfig,
    SubsetSumInterval,
    gen_energy,
    gen_mne_hardness,
    gen_pne_hardness,
    matching_pennies_game,
    random_trivial_game,
    split_interval_game,
)
from .leadergame import MultiLeaderGame, StackelbergLeader, leader_feasible_set
from .lp import LpStatus
from .nashgame import PolyhedralNashGame, QuadraticPlayer, find_pne
from .polyhedra import (
    ComplementaritySet,
    HullFormulation,
    PieceRows,
    balas_hull,
    contains,
    enumerate_pieces,
    optimize_over_set,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
