"""Shared fixtures: hand-built sets with known piece structure."""

import dataclasses

import numpy as np
import scipy.sparse as sp

from epecnash.energy import CountrySpec, EnergyInstance, ProducerSpec
from epecnash.hotlp import INF, RangedLp
from epecnash.leadergame import leader_feasible_set
from epecnash.lp import DimensionMismatch, LinearProgram, LpStatus, solve_lp
from epecnash.nashgame import KktLayout, PolyhedralNashGame, QuadraticPlayer, find_pne
from epecnash.polyhedra import (
    _POINT_TOL,
    ComplementaritySet,
    EmptyPieceList,
    HullFormulation,
    PieceRows,
    Triplets,
    enumerate_pieces,
    optimize_over_set,
    selected_polyhedron,
)
from epecnash.rng import Lcg


def program(s: ComplementaritySet, objective: np.ndarray) -> LinearProgram:
    """min objective @ x over the rows of a pair-free set."""
    return LinearProgram(objective, s.a, s.b, a_eq=s.a_eq, b_eq=s.b_eq)


def interval_of(poly: ComplementaritySet, coord: int) -> tuple[float, float]:
    """(min, max) of one coordinate over a pair-free set; +-inf if unbounded."""
    lo_obj = np.zeros(poly.n)
    lo_obj[coord] = 1.0
    lo = solve_lp(program(poly, lo_obj))
    hi = solve_lp(program(poly, -lo_obj))
    lo_val = -np.inf if lo.status is LpStatus.UNBOUNDED else lo.value
    hi_val = np.inf if hi.status is LpStatus.UNBOUNDED else -hi.value
    return lo_val, hi_val


def pieces_of(s: ComplementaritySet) -> list[tuple[tuple[int, ...], ComplementaritySet]]:
    """Every nonempty piece of a set with its encoding, lexicographic,
    each built by the ``selected_polyhedron`` oracle."""
    return [(e, selected_polyhedron(s, e)) for e, _ in enumerate_pieces(PieceRows(s))]


def _nonzero_rows(a: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the rows of ``a`` with a nonzero norm, and the row norms."""
    norms = np.sqrt(np.asarray(a.multiply(a).sum(axis=1)).ravel())
    return norms > 0, norms


def single_point_of(piece: ComplementaritySet) -> np.ndarray | None:
    """The piece's unique point if it is a singleton, else None: the
    reference ``PieceRows.single_point`` is tested against, one fresh
    model per LP.

    Two LPs bound x_0; only when they meet is their minimizer x tested.
    With A_I the inequality rows active at x and E the equality rows
    (active in both directions), the piece is {x} exactly when no d != 0
    has A_I d <= 0 and E d = 0, that is (Stiemke's lemma) when [A_I; E]
    has rank n and some y_I >= 1 and free y_E have A_I^T y_I + E^T y_E
    = 0: one more LP, over |I| + |E| variables.
    """
    n = piece.n
    b = np.asarray(piece.b, float)
    e0 = np.zeros(n)
    e0[0] = 1.0
    a, eq = sp.csr_matrix(piece.a), sp.csr_matrix(piece.a_eq)
    lp = RangedLp(
        e0,
        sp.vstack([a, eq], format="csr"),
        np.concatenate([np.full(piece.a.shape[0], -INF), piece.b_eq]),
        np.concatenate([b, piece.b_eq]),
    )
    status, x, lo = lp.solve()
    if status is not LpStatus.OPTIMAL:
        return None
    lp.set_objective(-e0)
    status, _, neg_hi = lp.solve()
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
    return x if cone.solve()[0] is LpStatus.OPTIMAL else None


def _zero_pins(piece: ComplementaritySet) -> np.ndarray:
    """Mask of the equality rows that fix one column at 0: one nonzero
    entry and a right-hand side of 0."""
    eq = sp.csr_matrix(piece.a_eq)
    per_row = np.bincount(
        np.repeat(np.arange(eq.shape[0]), np.diff(eq.indptr))[eq.data != 0],
        minlength=eq.shape[0],
    )
    return (per_row == 1) & (np.asarray(piece.b_eq) == 0)


def hull_of(pieces: list[ComplementaritySet], points=None) -> HullFormulation:
    """Balas lift of hand-made pieces, one piece at a time: the reference
    ``balas_hull`` is tested against.  ``points`` gives, per piece, its
    single point or None; by default each piece's singleton test runs."""
    if points is None:
        points = [single_point_of(p) for p in pieces]
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


def strategy_coupling(g: PolyhedralNashGame) -> sp.csr_matrix | None:
    """The stacked strategy coupling K of a game whose players are linear
    and take the market price as given; None for any other game.

    That is a game with no free parameter, no nonzero Q and a stacked
    price coupling equal to the clearing rows transposed (or no market).
    """
    if g.n_param or any(p.q is not None and np.any(p.q) for p in g.players):
        return None
    width = g.strategy_dim + g.n_market
    coupling = sp.vstack(
        [sp.csr_matrix((p.n, width) if p.coupling is None else p.coupling) for p in g.players],
        format="csr",
    )
    price = coupling[:, g.strategy_dim :]
    if g.n_market and (price - sp.csr_matrix(g.clearing).T).count_nonzero():
        return None
    return coupling[:, : g.strategy_dim]


def planner_lp(g: PolyhedralNashGame, lay: KktLayout) -> RangedLp | None:
    """The planner LP of a game whose players meet only through the
    market price; None for any other game: the one-shot reference that
    ``algorithms.RestrictedPlanner`` is tested against.

    With ``strategy_coupling`` K = 0, player i's KKT conditions are
    c_i + A_i' lam_i + E_i' mu_i + clearing_i' pi = 0, lam_i >= 0 perp
    b_i - A_i v_i >= 0 and E_i v_i = e_i, and clearing v = 0 ties the
    players together.  These are the optimality conditions of

        min sum_i c_i.v_i  s.t.  A_i v_i <= b_i,  E_i v_i = e_i,  clearing v = 0

    with lam, mu and pi as its row multipliers (Samuelson, "Spatial price
    equilibrium and linear programming", AER 1952), so the game's
    equilibria are this LP's optimal primal-dual pairs.  Its columns are
    the strategies, and the multiplier of row r is KKT column
    ``strategy_dim + r``.  It runs primal simplex.
    """
    strat = strategy_coupling(g)
    if strat is None or strat.count_nonzero():
        return None
    n = g.strategy_dim
    rows = Triplets()
    for i, p in enumerate(g.players):
        rows.put(p.a, lay.mult_slices[i].start - n, lay.var_slices[i].start)
        rows.put(p.a_eq, lay.eq_mult_slices[i].start - n, lay.var_slices[i].start)
    if g.n_market:
        rows.put(g.clearing, lay.market_slice.start - n, 0)
    b = [np.asarray(p.b, float) for p in g.players]
    b_eq = [np.asarray(p.b_eq, float) for p in g.players] + [np.zeros(g.n_market)]
    return RangedLp(
        np.concatenate([p.c for p in g.players]),
        rows.csr((lay.total - n, n)),
        np.concatenate([np.full(sum(map(len, b)), -INF)] + b_eq),
        np.concatenate(b + b_eq),
        primal=True,
    )


def exporting_point(game, export: float = 1.0) -> np.ndarray:
    """The point of the first leader's own set that is least, among those
    at least ``export``, in its first column of the first clearing row:
    beside the other leaders' points of an equilibrium that trades less
    than that, the market no longer clears."""
    s = leader_feasible_set(game.leaders[0])
    clearing = game.clearing.toarray() if sp.issparse(game.clearing) else game.clearing
    col = np.flatnonzero(np.asarray(clearing)[0, : s.n])[0]
    row = np.zeros((1, s.n))
    row[0, col] = -1.0
    at_least = dataclasses.replace(
        s, a=sp.vstack([s.a, row], format="csr"), b=np.append(s.b, -export)
    )
    return optimize_over_set(at_least, -row[0]).point


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


def single_point_by_coordinates(poly: ComplementaritySet) -> np.ndarray | None:
    """Coordinate-wise singleton test: the midpoint of every coordinate's
    range when each range is at most 1e-9 wide, else None (2n LPs)."""
    n = poly.n
    lp = RangedLp(
        np.zeros(n),
        sp.vstack([sp.csr_matrix(poly.a), sp.csr_matrix(poly.a_eq)], format="csr"),
        np.concatenate([np.full(poly.a.shape[0], -INF), poly.b_eq]),
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
    return ComplementaritySet(a=np.array([[-1.0], [1.0]]), b=np.array([-lo, hi]))


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


def symmetric_pair(trade=True, tax_revenue=False, paradigm="standard"):
    """Two identical countries of two producers each."""

    def country(name):
        return CountrySpec(
            name=name,
            producers=(
                ProducerSpec(150.0, 0.3, 1000.0, 100.0),
                ProducerSpec(200.0, 0.2, 500.0, 300.0),
            ),
            demand_intercept=350.0,
            demand_slope=0.7,
            price_cap=300.0,
            tax_caps=(100.0, 250.0),
            tax_paradigm=paradigm,
            tax_revenue=tax_revenue,
        )

    return EnergyInstance(countries=(country("a"), country("b")), trade=trade)
