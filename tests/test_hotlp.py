import numpy as np
import pytest
import scipy.sparse as sp

from epecnash.hotlp import RangedLp
from epecnash.lp import LpStatus, TimeLimitReached
from epecnash.polyhedra import ComplementaritySet, Deadline, PieceRows, optimize_over_set
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
    lp.move_to(rows.pin_bounds(pins.items()), cols)


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
        lp.move_to(rows.pin_bounds([(0, 1)]))
        assert counter.edits == 1
        lp.move_to(rows.pin_bounds([(0, 1), (1, 0)]))  # extend: one new pin
        assert counter.edits == 2
        lp.move_to(rows.pin_bounds([(0, 1), (1, 0)]))  # same node: nothing
        assert counter.edits == 2
        lp.move_to(rows.pin_bounds([(0, 1), (1, 1)]))  # sibling: unpin, pin
        assert counter.edits == 4
        lp.move_to(rows.pin_bounds([(0, 1)]), {0: (0.0, 0.0)})  # backtrack, one column
        assert counter.edits == 6


def _slow_lp_rows():
    """A 300 x 300 LP that takes HiGHS a few hundred simplex iterations."""
    n = 300
    a = sp.random(n, n, density=0.05, random_state=1, format="csr")
    return n, a


def _slow_lp() -> RangedLp:
    n, a = _slow_lp_rows()
    return RangedLp(
        -np.ones(n), a, np.full(n, -1e30), np.ones(n), np.zeros(n), np.full(n, 10.0)
    )


class TestTimeLimit:
    def test_limit_stops_a_run_midway(self):
        full = _slow_lp()
        assert full.solve()[0] is LpStatus.OPTIMAL
        full_iters = full._h.getInfoValue("simplex_iteration_count")[1]
        lp = _slow_lp()
        with pytest.raises(TimeLimitReached):
            lp.solve(time_limit=1e-3)
        assert lp._h.getInfoValue("simplex_iteration_count")[1] < full_iters

    def test_limit_counts_this_call_only(self):
        # HiGHS sums run time over every run of a model; the cold solves
        # together run past one call's limit, and none of them may hit it
        limit = 0.25
        lp = _slow_lp()
        while lp._h.getRunTime() <= 2 * limit:
            lp._h.clearSolver()
            assert lp.solve(time_limit=limit)[0] is LpStatus.OPTIMAL

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
