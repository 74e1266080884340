import numpy as np
import pytest
import scipy.optimize._highspy._core as _hc
import scipy.sparse as sp

from epecnash.hotlp import INF, RangedLp
from epecnash.lp import Deadline, LpStatus, NumericalFailure, TimeLimitReached
from epecnash.polyhedra import ComplementaritySet, PieceRows, optimize_over_set
from epecnash.rng import Lcg

from tests.helpers import random_comp_set


def _bounds(lp: RangedLp) -> list[np.ndarray]:
    model = lp._h.getLp()
    return [
        np.array(v)
        for v in (model.row_lower_, model.row_upper_, model.col_lower_, model.col_upper_)
    ]


class _CountingHighs:
    """Forwards to a HiGHS object and counts its bound edits."""

    def __init__(self, h):
        self._inner = h
        self.edits = 0

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name in ("changeRowBounds", "changeColBounds"):
            def counted(*args):
                self.edits += 1
                return attr(*args)
            return counted
        return attr


def _random_walk(rng: Lcg, p: int, n: int, steps: int):
    """Nodes of a search: each extends the last by one pin or column
    bound, or first backtracks to a random prefix of it."""
    node: list = []
    for _ in range(steps):
        if node and rng.randint(3) == 0:
            node = node[: rng.randint(len(node))]
        if rng.randint(4) == 0:
            node.append(("col", rng.randint(n), float(rng.randint(2))))
        else:
            node.append(("pin", rng.randint(p), rng.randint(2)))
        yield list(node)


def _apply(rows: PieceRows, lp: RangedLp, node) -> None:
    # later entries win, as later pins did on the model
    pins = dict((i, bit) for kind, i, bit in node if kind == "pin")
    cols = {j: (v, v) for kind, j, v in node if kind == "col"}
    lp.move_to(*rows.pin_bounds(pins.items(), cols))


class TestNodeMoves:
    def test_moves_leave_the_bounds_of_a_full_repin(self):
        for seed in range(4):
            s = random_comp_set(9000 + seed)
            rows = PieceRows(s)
            moved = rows.ranged(np.zeros(s.n))
            for node in _random_walk(Lcg(seed), s.num_pairs, s.n, 60):
                _apply(rows, moved, node)
                repinned = rows.ranged(np.zeros(s.n))
                repinned.move_to({})
                _apply(rows, repinned, node)
                for got, want in zip(_bounds(moved), _bounds(repinned)):
                    assert got.tobytes() == want.tobytes(), node
                assert moved.solve()[0] is repinned.solve()[0]

    def test_back_to_the_root_restores_the_base(self):
        s = random_comp_set(9003)
        rows = PieceRows(s)
        lp = rows.ranged(np.zeros(s.n))
        base = _bounds(lp)
        for node in _random_walk(Lcg(7), s.num_pairs, s.n, 20):
            _apply(rows, lp, node)
        lp.move_to({})
        for got, want in zip(_bounds(lp), base):
            assert got.tobytes() == want.tobytes()

    def test_only_differing_bounds_are_edited(self):
        s = random_comp_set(9001)
        assert s.num_pairs >= 2
        rows = PieceRows(s)
        lp = rows.ranged(np.zeros(s.n))
        lp._h = counter = _CountingHighs(lp._h)
        lp.move_to(*rows.pin_bounds([(0, 1)]))
        assert counter.edits == 1
        lp.move_to(*rows.pin_bounds([(0, 1), (1, 0)]))  # extend: one new pin
        assert counter.edits == 2
        lp.move_to(*rows.pin_bounds([(0, 1), (1, 0)]))  # same node: nothing
        assert counter.edits == 2
        lp.move_to(*rows.pin_bounds([(0, 1), (1, 1)]))  # sibling: unpin, pin
        assert counter.edits == 4
        lp.move_to(*rows.pin_bounds([(0, 1)], {0: (0.0, 0.0)}))  # backtrack, one column
        assert counter.edits == 6


def _assert_ray(lp: RangedLp, d: np.ndarray) -> None:
    """d lowers the objective and keeps every finite bound side of the
    node lp is at."""
    assert lp._objective @ d < 0
    row_lo, row_hi, col_lo, col_hi = _bounds(lp)
    ad = lp._a @ d
    tol = 1e-9
    assert np.all(ad[row_lo > -INF] >= -tol) and np.all(ad[row_hi < INF] <= tol)
    assert np.all(d[col_lo > -INF] >= -tol) and np.all(d[col_hi < INF] <= tol)


class TestRay:
    def _no_rows(self, c, col_lo=None, col_hi=None) -> RangedLp:
        return RangedLp(np.array(c), sp.csr_matrix((0, len(c))), np.zeros(0), np.zeros(0), col_lo, col_hi)

    def test_half_line_column(self):
        # HiGHS reports kUnbounded here without a primal ray of its own
        lp = self._no_rows([-1.0], col_lo=np.zeros(1), col_hi=np.full(1, INF))
        assert lp.solve()[0] is LpStatus.UNBOUNDED
        d = lp.ray()
        _assert_ray(lp, d)
        assert d[0] > 0

    def test_half_line_column_beside_a_free_one(self):
        # the cheaper direction leaves the half-line, so only the kept
        # bound side stops it
        lp = self._no_rows([1.0, -1.0], col_lo=np.array([0.0, -INF]))
        assert lp.solve()[0] is LpStatus.UNBOUNDED
        d = lp.ray()
        _assert_ray(lp, d)
        assert d[1] > 0

    def test_free_column(self):
        lp = self._no_rows([2.0])
        assert lp.solve()[0] is LpStatus.UNBOUNDED
        d = lp.ray()
        _assert_ray(lp, d)
        assert d[0] < 0

    def test_node_with_a_pinned_row_and_a_branched_column(self):
        # x0 >= 0; pair x1 perp z = x0 - x2; pinning z = 0 ties x0 to x2,
        # and branching x2 >= 1 leaves x0 = x2 unbounded above; x1 costs,
        # so only its pin row's kept side holds it at zero
        s = ComplementaritySet(
            a=np.array([[-1.0, 0.0, 0.0]]),
            b=np.zeros(1),
            m_mat=np.array([[1.0, 0.0, -1.0]]),
            q=np.zeros(1),
            comp=(1,),
        )
        rows = PieceRows(s)
        lp = rows.ranged(np.array([-1.0, 1.0, 0.0]))
        lp.move_to(*rows.pin_bounds([(0, 1)], {2: (1.0, INF)}))
        assert lp.solve()[0] is LpStatus.UNBOUNDED
        d = lp.ray()
        _assert_ray(lp, d)
        assert d[0] == pytest.approx(d[2]) and d[0] > 0

    def test_bounded_node_has_no_ray(self):
        lp = self._no_rows([1.0], col_lo=np.zeros(1), col_hi=np.ones(1))
        with pytest.raises(NumericalFailure):
            lp.ray()

    def test_spent_budget_stops_the_cone_lp(self):
        # x0 - x1 >= -1 over x >= 0: HiGHS honours a 0 s limit even on
        # this 2-column cone LP, which inherits the model's deadline
        deadline = Deadline()
        lp = RangedLp(
            np.array([-1.0, 1.0]), sp.csr_matrix([[1.0, -1.0]]), -np.ones(1), np.full(1, INF),
            np.zeros(2), deadline=deadline,
        )
        assert lp.solve()[0] is LpStatus.UNBOUNDED
        deadline.seconds = 0.0
        with pytest.raises(TimeLimitReached):
            lp.ray()

    @staticmethod
    def _wedge() -> ComplementaritySet:
        # x0 - x1 >= -1 over x >= 0, the set of the cone LP above
        return ComplementaritySet(
            a=np.array([[-1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), b=np.array([1.0, 0.0, 0.0])
        )

    def test_unbounded_leaf_gives_the_ray_the_budget_left(self, monkeypatch):
        limits = []
        ray = RangedLp.ray

        def spied(lp):
            limits.append(lp.deadline.remaining)
            return ray(lp)

        monkeypatch.setattr(RangedLp, "ray", spied)
        out = optimize_over_set(self._wedge(), np.array([-1.0, 1.0]), deadline=Deadline(60.0))
        assert out.status is LpStatus.UNBOUNDED
        assert len(limits) == 1 and 0.0 < limits[0] <= 60.0

    def test_unbounded_leaf_runs_its_cone_lp_under_the_deadline(self, monkeypatch):
        # the budget runs out between the leaf's feasible point and its
        # ray: only the cone LP can notice
        deadline = Deadline(60.0)
        ray = RangedLp.ray

        def expiring(lp):
            deadline.seconds = 0.0
            return ray(lp)

        monkeypatch.setattr(RangedLp, "ray", expiring)
        with pytest.raises(TimeLimitReached):
            optimize_over_set(self._wedge(), np.array([-1.0, 1.0]), deadline=deadline)


def _slow_lp_rows():
    """A 300 x 300 LP that takes HiGHS a few hundred simplex iterations."""
    n = 300
    a = sp.random(n, n, density=0.05, random_state=1, format="csr")
    return n, a


def _slow_lp(deadline: Deadline | None = None) -> RangedLp:
    n, a = _slow_lp_rows()
    return RangedLp(
        -np.ones(n), a, np.full(n, -1e30), np.ones(n), np.zeros(n), np.full(n, 10.0),
        deadline,
    )


def _random_lp(seed: int, m: int, n: int):
    """A bounded LP: random rows with finite sides, columns in [-1, 2]."""
    rng = Lcg(seed)
    a = np.array([[rng.uniform(-1, 1) if rng.randint(3) else 0.0 for _ in range(n)] for _ in range(m)])
    lo = np.array([rng.uniform(-3, -1) for _ in range(m)])
    hi = np.array([rng.uniform(1, 3) for _ in range(m)])
    c = np.array([rng.uniform(-1, 1) for _ in range(n)])
    return c, a, lo, hi


def _triplets(block: np.ndarray):
    rows, cols = np.nonzero(block)
    return rows, cols, block[rows, cols]


class TestGrowth:
    @pytest.mark.parametrize("seed", range(5))
    def test_a_grown_model_is_the_model_built_whole(self, seed):
        # the first 4 columns and 3 rows, then 3 columns, then 4 rows
        c, a, lo, hi = _random_lp(seed, 7, 7)
        col_lo, col_hi = np.full(7, -1.0), np.full(7, 2.0)
        whole = RangedLp(c, a, lo, hi, col_lo, col_hi)
        grown = RangedLp(c[:4], a[:3, :4], lo[:3], hi[:3], col_lo[:4], col_hi[:4])
        assert grown.solve()[0] is LpStatus.OPTIMAL
        grown.add_cols(c[4:], col_lo[4:], col_hi[4:], _triplets(a[:3, 4:]))
        grown.add_rows(lo[3:], hi[3:], _triplets(a[3:]))
        assert (grown.m, grown.n) == (7, 7)
        assert grown.matrix.toarray() == pytest.approx(a)
        for got, want in zip(_bounds(grown), _bounds(whole)):
            assert got == pytest.approx(want)
        status, x, value = grown.solve()
        assert status is LpStatus.OPTIMAL
        assert value == pytest.approx(whole.solve()[2], abs=1e-9)
        # an edit of a grown bound comes back to it
        grown.move_to({6: (0.0, 0.0)}, {6: (0.0, 0.0)})
        grown.move_to({})
        assert _bounds(grown)[0][6] == pytest.approx(lo[6])
        assert _bounds(grown)[2][6] == pytest.approx(-1.0)

    def test_growth_keeps_the_basis(self):
        # min -x0 - x1 over x0 + x1 <= 1: a new column that does not pay
        # and a new row that the optimum meets leave nothing to pivot
        lp = RangedLp([-1.0, -1.0], np.array([[1.0, 1.0]]), [-INF], [1.0], [0.0, 0.0])
        assert lp.solve()[2] == pytest.approx(-1.0)
        lp.add_cols(np.array([1.0]), np.zeros(1), np.full(1, INF), (np.array([0]), np.array([0]), np.array([1.0])))
        lp.add_rows(np.array([-INF]), np.array([5.0]), (np.array([0]), np.array([2]), np.array([1.0])))
        status, x, value = lp.solve()
        assert status is LpStatus.OPTIMAL and value == pytest.approx(-1.0) and x[2] == 0.0
        assert lp._h.getInfoValue("simplex_iteration_count")[1] == 0

    def test_a_grown_unbounded_model_has_a_ray(self):
        # min -x1 over x0 >= 0, x1 >= 0 and the grown row x1 - x0 <= 0:
        # every ray raises x0 with x1, which the cone LP sees only through
        # the grown rows
        lp = RangedLp([0.0], np.array([[1.0]]), [0.0], [INF])
        none = np.zeros(0, dtype=int)
        lp.add_cols(np.array([-1.0]), np.zeros(1), np.full(1, INF), (none, none, np.zeros(0)))
        lp.add_rows(
            np.array([-INF]), np.array([0.0]), (np.array([0, 0]), np.array([0, 1]), np.array([-1.0, 1.0]))
        )
        assert lp.solve()[0] is LpStatus.UNBOUNDED
        d = lp.ray()
        assert d[1] > 0 and d[0] >= d[1] - 1e-9


class TestTimeLimit:
    def test_limit_stops_a_run_midway(self):
        full = _slow_lp()
        assert full.solve()[0] is LpStatus.OPTIMAL
        full_iters = full._h.getInfoValue("simplex_iteration_count")[1]
        lp = _slow_lp(Deadline(1e-3))
        with pytest.raises(TimeLimitReached):
            lp.solve()
        assert lp._h.getInfoValue("simplex_iteration_count")[1] < full_iters

    def test_limit_counts_this_call_only(self):
        # HiGHS sums run time over every run of a model; the cold solves
        # together run past one budget, and none of them, each with a
        # fresh budget, may hit it
        limit = 0.25
        lp = _slow_lp()
        while lp._h.getRunTime() <= 2 * limit:
            lp._h.clearSolver()
            lp.deadline = Deadline(limit)
            assert lp.solve()[0] is LpStatus.OPTIMAL

    def test_expired_deadline_stops_a_fresh_feasible_point(self):
        # a zero-objective run on a model that never ran a solve: its
        # equality rows take simplex iterations, and the spent budget
        # stops them
        n, a = _slow_lp_rows()
        rhs = a @ np.ones(n)
        lp = RangedLp(np.zeros(n), a, rhs, rhs, np.zeros(n), np.full(n, 10.0))
        assert lp.feasible_point() is not None
        lp = RangedLp(np.zeros(n), a, rhs, rhs, np.zeros(n), np.full(n, 10.0), Deadline(0.0))
        with pytest.raises(TimeLimitReached):
            lp.feasible_point()

    def test_deadline_reaches_into_the_lp(self, monkeypatch):
        # with the clock never read between nodes, only the LP's own
        # limit can end the search
        monkeypatch.setattr(Deadline, "check", lambda self: None)
        n, a = _slow_lp_rows()
        box = sp.vstack([a, sp.eye(n), -sp.eye(n)], format="csr")
        rhs = np.concatenate([np.ones(n), np.full(n, 10.0), np.zeros(n)])
        s = ComplementaritySet(a=box, b=rhs, m_mat=np.zeros((0, n)), q=np.zeros(0), comp=())
        with pytest.raises(TimeLimitReached):
            optimize_over_set(s, -np.ones(n), deadline=Deadline(1e-3))


class _ScriptedHighs:
    """Forwards to a HiGHS object, but its first runs end with the model
    statuses of ``statuses``; it records the presolve option of each run."""

    def __init__(self, h, statuses):
        self._inner = h
        self.statuses = list(statuses)
        self.presolve = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def run(self):
        self.presolve.append(self._inner.getOptionValue("presolve")[1])
        return self._inner.run()

    def getModelStatus(self):
        return self.statuses.pop(0) if self.statuses else self._inner.getModelStatus()


def _scripted(lp: RangedLp, *statuses) -> _ScriptedHighs:
    lp._h = _ScriptedHighs(lp._h, statuses)
    return lp._h


_S = _hc.HighsModelStatus


class TestStatuses:
    @staticmethod
    def _interval(lo: float) -> RangedLp:
        # min x over lo <= x <= 1: optimal at lo when lo <= 1, else empty
        return RangedLp(np.ones(1), sp.csr_matrix([[1.0]]), [lo], [1.0])

    @pytest.mark.parametrize(
        "script, presolve",
        [
            ((_S.kUnknown, _S.kIterationLimit), ["choose", "choose", "off"]),
            ((_S.kNotset, _S.kIterationLimit), ["choose", "choose", "off"]),
            # a warm run that errs leaves the status unset; the cold retry ends it
            ((_S.kNotset,), ["choose", "choose"]),
        ],
        ids=["unknown", "notset", "notset-cold"],
    )
    def test_retries_cold_then_without_presolve(self, script, presolve):
        lp = self._interval(0.0)
        h = _scripted(lp, *script)
        status, x, value = lp.solve()
        assert status is LpStatus.OPTIMAL and x == pytest.approx([0.0]) and value == 0.0
        assert h.presolve == presolve
        assert h.getOptionValue("presolve")[1] == "choose"

    def test_presolve_comes_back_after_a_stopped_retry(self):
        lp = self._interval(0.0)
        h = _scripted(lp, _S.kIterationLimit, _S.kUnknown, _S.kTimeLimit)
        with pytest.raises(TimeLimitReached):
            lp.solve()
        assert h.presolve == ["choose", "choose", "off"]
        assert h.getOptionValue("presolve")[1] == "choose"

    @pytest.mark.parametrize("lo, status", [(0.0, LpStatus.UNBOUNDED), (2.0, LpStatus.INFEASIBLE)])
    def test_unbounded_or_infeasible_asks_for_a_point(self, lo, status):
        # the zero-objective run after the scripted one finds a point of
        # [0, 1] and none of [2, 1]
        lp = self._interval(lo)
        _scripted(lp, _S.kUnboundedOrInfeasible)
        assert lp.solve() == (status, None, None)


class TestDuals:
    @pytest.mark.parametrize("primal", [False, True])
    def test_row_duals_are_derivatives_of_the_optimum(self, primal):
        # min -x - 2y  s.t.  x + y <= 3,  y - x = 1:  the optimum x = 1,
        # y = 2 moves by -3/2 per unit of the first row's bound and by
        # -1/2 per unit of the second's
        a = np.array([[1.0, 1.0], [-1.0, 1.0]])
        lp = RangedLp([-1.0, -2.0], a, [-INF, 1.0], [3.0, 1.0], primal=primal)
        status, x, value = lp.solve()
        assert status is LpStatus.OPTIMAL
        assert x == pytest.approx([1.0, 2.0]) and value == pytest.approx(-5.0)
        assert lp.row_duals() == pytest.approx([-1.5, -0.5])
        assert lp._h.getOptionValue("simplex_strategy")[1] == (4 if primal else 1)

    def test_no_duals_without_an_optimum(self):
        lp = RangedLp([1.0], np.array([[1.0]]), [2.0], [1.0])
        assert lp.solve()[0] is LpStatus.INFEASIBLE
        with pytest.raises(NumericalFailure):
            lp.row_duals()

    def test_a_dual_ray_proves_an_infeasible_node_empty(self):
        # x + y <= 1 and x + y >= 3 over x, y >= 0: under one of its two
        # signs the ray y gives y.A = 0 and a positive Farkas gap
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        lp = RangedLp([0.0, 0.0], a, [-INF, 3.0], [1.0, INF], [0.0, 0.0])
        assert lp.solve()[0] is LpStatus.INFEASIBLE
        ray = lp.dual_ray()
        assert ray is not None and ray @ a == pytest.approx([0.0, 0.0])
        y = ray if ray[0] < 0 else -ray
        assert y[1] > 0 and y @ [1.0, 3.0] > 0

    def test_no_dual_ray_without_the_bindings_to_read_it(self):
        lp = RangedLp([1.0], np.array([[1.0]]), [2.0], [1.0])
        assert lp.solve()[0] is LpStatus.INFEASIBLE
        lp._h = object()  # bindings without getDualRay
        assert lp.dual_ray() is None
