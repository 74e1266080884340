import functools
import itertools
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from epecnash.algorithms import _assemble_hull_game, deviation_check, full_enumeration
from epecnash.energy import build_game
from epecnash.generators import (
    GenConfig,
    SubsetSumInterval,
    gen_energy,
    gen_pne_hardness,
    matching_pennies_game,
    random_trivial_game,
    split_interval_game,
)
from epecnash.hotlp import RangedLp, SparseMatrix
from epecnash.leadergame import leader_feasible_set
from epecnash.lp import LinearProgram, LpStatus, solve_lp
from epecnash.nashgame import kkt_system
from epecnash.polyhedra import (
    BinaryVar,
    ComplementaritySet,
    Deadline,
    EmptyPieceList,
    PieceRows,
    TimeLimitReached,
    TooManyComplementarities,
    Triplets,
    balas_hull,
    contains,
    enumerate_pieces,
    is_feasible,
    iter_encodings,
    optimize_over_set,
)
from epecnash.rng import Lcg
from epecnash.tolerances import ENUM_CAP

from tests.helpers import (
    EncodingLengthMismatch,
    _sides,
    box_set,
    csr,
    hull_of,
    interval_of,
    pieces_of,
    planner_lp,
    random_comp_set,
    scalar_set,
    selected_polyhedron,
    single_point_by_coordinates,
    program,
    single_point_of,
    split_interval_set,
    tax_revenue_game,
)


class TestFeasibility:
    def test_simple(self):
        assert is_feasible(ComplementaritySet(np.array([[1.0], [-1.0]]), np.array([1.0, 0.0])))
        assert not is_feasible(
            ComplementaritySet(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))
        )
        with pytest.raises(ValueError):  # a set with pairs is not one polyhedron
            is_feasible(scalar_set(1.0, -1.0))

    def test_sum_bound(self):
        # x1 + x2 <= 1 with both >= 0.6 is empty
        a = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        b = np.array([1.0, -0.6, -0.6])
        assert not is_feasible(ComplementaritySet(a, b))


class TestSelectedPolyhedron:
    def test_scalar_sides(self):
        # {0 <= x perp 1 - x >= 0}
        s = scalar_set(-1.0, 1.0)
        zero_side = selected_polyhedron(s, (0,))
        assert interval_of(zero_side, 0) == pytest.approx((0.0, 0.0), abs=1e-9)
        one_side = selected_polyhedron(s, (1,))
        assert interval_of(one_side, 0) == pytest.approx((1.0, 1.0), abs=1e-9)

    def test_split_interval_empty_encodings(self):
        s = split_interval_set()
        assert not is_feasible(selected_polyhedron(s, (0, 0)))
        assert not is_feasible(selected_polyhedron(s, (1, 1)))

    def test_length_mismatch(self):
        with pytest.raises(EncodingLengthMismatch):
            selected_polyhedron(split_interval_set(), (0,))


def _same_bytes(x, y) -> bool:
    if isinstance(x, SparseMatrix):
        return type(y) is SparseMatrix and x.shape == y.shape and all(
            _same_bytes(getattr(x, name), getattr(y, name)) for name in ("row", "col", "data")
        )
    if not hasattr(x, "indptr"):
        return type(x) is type(y) and np.asarray(x).tobytes() == np.asarray(y).tobytes()
    return (
        x.shape == y.shape
        and x.indptr.dtype == y.indptr.dtype
        and x.indices.dtype == y.indices.dtype
        and x.indptr.tobytes() == y.indptr.tobytes()
        and x.indices.tobytes() == y.indices.tobytes()
        and x.data.tobytes() == y.data.tobytes()
    )


LADDER = [(2, 4), (2, 6), (2, 8), (3, 4), (3, 6)]


def _energy_sets(seed, countries, followers):
    game = build_game(gen_energy(GenConfig(seed=seed, countries=countries, followers=(followers, followers))))
    return [leader_feasible_set(l) for l in game.leaders]


def _encodings(rows):
    """The encodings ``enumerate_pieces`` yields, without their points."""
    return [e for e, _ in enumerate_pieces(rows)]


def _with_pieces(sets):
    """Each set with its nonempty encodings and their oracle pieces."""
    out = []
    for s in sets:
        encodings = _encodings(PieceRows(s))
        out.append((s, encodings, [selected_polyhedron(s, e) for e in encodings]))
    return out


@functools.cache
def _ladder(countries, followers):
    """``_with_pieces`` of one ladder rung's sets, seeds 0-2: built once
    and shared by every test that reads them."""
    return _with_pieces(s for seed in range(3) for s in _energy_sets(seed, countries, followers))


def _game_sets(game):
    return [leader_feasible_set(l) for l in game.leaders]


def _subset_sum_sets():
    """The leader sets of the pure-bnb workload's subset-sum pair."""
    designs = (SubsetSumInterval(q=(1,), p=2, t=4, r=1), SubsetSumInterval(q=(1, 2), p=1, t=3, r=1))
    return [s for d in designs for s in _game_sets(gen_pne_hardness(d))]


@functools.cache
def _pure_bnb():
    """``_with_pieces`` of the sets the pure-bnb workload solves over,
    shared like ``_ladder``."""
    sets = [s for seed in range(10) for s in _energy_sets(seed, 2, 2)]
    return _with_pieces(sets + _subset_sum_sets())


def _generator_sets():
    games = [split_interval_game(), matching_pennies_game()]
    games += [random_trivial_game(seed) for seed in range(5)]
    sets = [s for g in games for s in _game_sets(g)]
    sets += [split_interval_set(), scalar_set(1.0, -1.0), box_set(0.0, 2.0)]
    return sets + [random_comp_set(9000 + seed) for seed in range(8)]


def _pin_block(s):
    """``PieceRows.block`` built from the oracle's sparse side rows: every
    0 side, then every 1 side."""
    sides, pins = _sides(s)
    dense = [m.toarray() if hasattr(m, "toarray") else np.asarray(m, float) for m in (s.a, s.a_eq)]
    return np.vstack(dense + [sides.toarray()]), np.concatenate([np.asarray(s.b, float), s.b_eq, pins])


class TestPieceRows:
    def _assert_matches_oracle(self, s, encodings, pieces):
        # the rows piece_rows indexes out of block, which balas_hull and
        # single_point read, are the oracle's piece byte for byte
        rows = PieceRows(s)
        block, rhs = rows.block
        ineq, sign, eq = rows.piece_rows(encodings)
        for e, i, q, want in zip(encodings, ineq, eq, pieces):
            assert _same_bytes(sp.csr_matrix(sign[:, None] * block[i]), sp.csr_matrix(want.a)), e
            assert _same_bytes(sign * rhs[i], want.b), e
            assert _same_bytes(sp.csr_matrix(block[q]), sp.csr_matrix(want.a_eq)), e
            assert _same_bytes(rhs[q], want.b_eq), e

    def test_energy_pieces_match_oracle_bytes(self):
        for s, encodings, pieces in _ladder(2, 4) + _ladder(3, 4):
            self._assert_matches_oracle(s, encodings, pieces)

    def test_generator_sets_match_oracle_bytes_on_every_encoding(self):
        sets = [split_interval_set(), scalar_set(1.0, -1.0), box_set(0.0, 2.0)]
        sets += [random_comp_set(9000 + seed) for seed in range(8)]
        for s in sets:
            encodings = list(itertools.product((0, 1), repeat=s.num_pairs))
            self._assert_matches_oracle(
                s, encodings, [selected_polyhedron(s, e) for e in encodings]
            )

    def test_block_matches_the_pin_rows_bytes(self):
        shared = [t for rung in LADDER for t in _ladder(*rung)] + _pure_bnb()
        for s in [s for s, _, _ in shared] + _generator_sets():
            got, want = PieceRows(s).block, _pin_block(s)
            assert _same_bytes(got[0], want[0]) and _same_bytes(got[1], want[1])

    def test_feasible_prefixes(self):
        rows = PieceRows(split_interval_set())
        feasible = {enc: rows.witness(enc)[0] for enc in [(), (0, 1), (1, 0), (0, 0), (1, 1)]}
        assert feasible == {(): True, (0, 1): True, (1, 0): True, (0, 0): False, (1, 1): False}


class TestDeadline:
    def test_every_tick_reads_the_clock(self):
        deadline = Deadline(1e-3)
        deadline.tick()
        time.sleep(2e-3)
        with pytest.raises(TimeLimitReached):
            deadline.tick()
        assert deadline.nodes == 2


def _counted_walk(monkeypatch, s, first=0):
    """The encodings of one walk, its LP count and nodes."""
    count = [0]
    solve = RangedLp.solve

    def counted(lp, *args, **kwargs):
        count[0] += 1
        return solve(lp, *args, **kwargs)

    deadline = Deadline()
    with monkeypatch.context() as m:
        m.setattr(RangedLp, "solve", counted)
        encodings = [e for e, _ in iter_encodings(PieceRows(s, deadline), first)]
    return encodings, count[0], deadline.nodes


class TestEnumeration:
    def test_no_pairs(self):
        assert _encodings(PieceRows(box_set(0.0, 2.0))) == [()]

    def test_split_interval_pieces(self):
        pieces = pieces_of(split_interval_set())
        assert [e for e, _ in pieces] == [(0, 1), (1, 0)]
        spans = {e: interval_of(poly, 0) for e, poly in pieces}
        assert spans[(0, 1)] == pytest.approx((1.0, 5.0), abs=1e-9)
        assert spans[(1, 0)] == pytest.approx((-5.0, -1.0), abs=1e-9)

    def test_scalar_single_piece(self):
        # {0 <= x perp x + 1 >= 0}: the z-pinned side is empty, x pinned gives {0}
        pieces = pieces_of(scalar_set(1.0, 1.0))
        assert [e for e, _ in pieces] == [(0,)]
        assert interval_of(pieces[0][1], 0) == pytest.approx((0.0, 0.0), abs=1e-9)

    def test_cap(self):
        n = ENUM_CAP + 1
        s = ComplementaritySet(
            a=np.zeros((0, n)),
            b=np.zeros(0),
            m_mat=np.eye(n),
            q=np.ones(n),
            comp=tuple(range(n)),
        )
        with pytest.raises(TooManyComplementarities):
            enumerate_pieces(PieceRows(s))

    def test_lazy_walk_has_no_cap(self):
        # 30 pairs x_i perp x_i + 1: only the all-zero encoding is nonempty
        n = 30
        s = ComplementaritySet(
            a=np.zeros((0, n)), b=np.zeros(0), m_mat=np.eye(n), q=np.ones(n), comp=tuple(range(n))
        )
        assert next(iter_encodings(PieceRows(s)))[0] == (0,) * n
        with pytest.raises(TooManyComplementarities):
            enumerate_pieces(PieceRows(s))

    def test_lp_time_limit_ends_the_walk(self, monkeypatch):
        # the clock is never read between nodes, so only the time limit
        # of an enumeration LP can stop the walk before its end
        monkeypatch.setattr(Deadline, "check", lambda self: None)
        s = _energy_sets(8, 2, 2)[0]
        count = [0]
        solve = RangedLp.solve

        def counted(lp, *args, **kwargs):
            count[0] += 1
            return solve(lp, *args, **kwargs)

        monkeypatch.setattr(RangedLp, "solve", counted)
        enumerate_pieces(PieceRows(s))
        walk, count[0] = count[0], 0
        with pytest.raises(TimeLimitReached):
            enumerate_pieces(PieceRows(s, Deadline(0.0)))
        assert 0 < count[0] < walk

    @pytest.mark.parametrize("countries, followers", LADDER)
    def test_witness_walk_matches_a_walk_that_solves_every_node(
        self, monkeypatch, countries, followers
    ):
        # a child whose pin holds exactly at its parent's point skips its
        # LP; without dual rays (no node pruned by a conflict), the walk
        # yields what an LP at every node yields, with fewer LPs
        for s in (s for seed in range(3) for s in _energy_sets(seed, countries, followers)):
            with monkeypatch.context() as m:
                m.setattr(RangedLp, "dual_ray", lambda self: None)
                got, lps, nodes = _counted_walk(monkeypatch, s)
                m.setattr(PieceRows, "holds", lambda self, pair, bit, x: False)
                m.setattr(PieceRows, "zero_sides", lambda self, x: np.zeros(len(self.comp), bool))
                want, every, also_nodes = _counted_walk(monkeypatch, s)
            assert got == want
            assert every == nodes == also_nodes and lps < every

    def test_walk_matches_the_selected_polyhedron_oracle(self):
        # every encoding of small sets, each piece built and tested alone
        sets = [split_interval_set(), scalar_set(1.0, -1.0), scalar_set(1.0, 1.0)]
        sets += [random_comp_set(9000 + seed) for seed in range(8)]
        for s in sets:
            want = [
                e
                for e in itertools.product((0, 1), repeat=s.num_pairs)
                if is_feasible(selected_polyhedron(s, e))
            ]
            assert _encodings(PieceRows(s)) == want
            assert [e for e, _ in iter_encodings(PieceRows(s), 1)] == want[::-1]

    def test_each_piece_comes_with_a_point_of_it(self):
        # the walk's last LP point on a leaf's path, which the singleton
        # test takes instead of solving the leaf again
        sets = [split_interval_set(), scalar_set(1.0, -1.0)] + _energy_sets(0, 2, 4)
        sets += [random_comp_set(9000 + seed) for seed in range(8)]
        for s in sets:
            for first in (0, 1):
                for e, x in iter_encodings(PieceRows(s), first):
                    assert contains(selected_polyhedron(s, e), x, 1e-9)

    def test_small_ladder_pieces_are_nonempty(self):
        for s in _energy_sets(0, 2, 4) + _energy_sets(0, 3, 4):
            pieces = _encodings(PieceRows(s))
            assert all(is_feasible(selected_polyhedron(s, e)) for e in pieces)

    def test_a_pin_must_hold_exactly(self):
        # {0 <= x perp x - 1 >= 0}: side 0 is x == 0, side 1 is x - 1 == 0
        rows = PieceRows(scalar_set(1.0, -1.0))
        assert rows.holds(0, 0, np.array([0.0]))
        assert not rows.holds(0, 0, np.array([1e-12]))
        assert rows.holds(0, 1, np.array([1.0]))
        assert not rows.holds(0, 1, np.array([1.0 + 1e-12]))

    def test_a_pin_that_holds_within_tolerance_runs_its_lp(self, monkeypatch):
        # without dual rays, so that every node whose pin does not hold
        # runs its LP
        monkeypatch.setattr(RangedLp, "dual_ray", lambda self: None)
        s = _energy_sets(0, 2, 4)[0]
        exact, lps, nodes = _counted_walk(monkeypatch, s)
        assert lps < nodes
        witness = PieceRows.witness_pins

        def nudged(rows, pins):
            feasible, x = witness(rows, pins)
            return feasible, None if x is None else np.where(x == 0.0, 1e-12, x * (1 + 1e-12))

        monkeypatch.setattr(PieceRows, "witness_pins", nudged)
        got, lps, nodes = _counted_walk(monkeypatch, s)
        assert got == exact
        assert lps == nodes


def _pins(ones: int, zeros: int, p: int) -> list[tuple[int, int]]:
    """The (pair, side) pins of a conflict's two bitmasks."""
    return [(i, 1) for i in range(p) if ones >> i & 1] + [(i, 0) for i in range(p) if zeros >> i & 1]


class TestConflicts:
    @staticmethod
    def _assert_rays_change_no_piece(monkeypatch, sets) -> tuple[int, int]:
        """Both walk orders of every set yield, with rays, the encodings of
        the walk without them; the LP counts with and without, summed."""
        lps = [0, 0]
        for s in sets:
            for first in (0, 1):
                got, with_rays, _ = _counted_walk(monkeypatch, s, first)
                with monkeypatch.context() as m:
                    m.setattr(RangedLp, "dual_ray", lambda self: None)
                    want, without, _ = _counted_walk(monkeypatch, s, first)
                assert got == want
                lps[0] += with_rays
                lps[1] += without
        return lps[0], lps[1]

    @pytest.mark.parametrize("countries, followers", LADDER)
    def test_the_ladder_walks_yield_the_walks_without_rays(
        self, monkeypatch, countries, followers
    ):
        sets = [s for seed in range(6) for s in _energy_sets(seed, countries, followers)]
        with_rays, without = self._assert_rays_change_no_piece(monkeypatch, sets)
        assert with_rays < without

    def test_the_small_walks_yield_the_walks_without_rays(self, monkeypatch):
        sets = [random_comp_set(9000 + seed) for seed in range(30)] + _subset_sum_sets()
        with_rays, without = self._assert_rays_change_no_piece(monkeypatch, sets)
        assert with_rays < without

    def test_large_entries_leave_the_reduced_costs_exact(self, monkeypatch):
        # leader 2 of the tax-revenue game: a reduced-cost tolerance scaled
        # by its largest entry, 1e7, read reduced costs up to 1e-2 as 0, and
        # the conflicts so read emptied the lexicographic walk.  Both orders
        # yield the walk without rays, whose pieces are the four that one LP
        # per encoding finds among all 4 096
        s = leader_feasible_set(tax_revenue_game().leaders[2])
        want = [
            (1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1, 0),
            (1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 0),
            (1, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0),
            (1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0),
        ]
        assert all(is_feasible(selected_polyhedron(s, e)) for e in want)
        with monkeypatch.context() as m:
            m.setattr(RangedLp, "dual_ray", lambda self: None)
            assert _encodings(PieceRows(s)) == want
        assert _encodings(PieceRows(s)) == want
        assert [e for e, _ in iter_encodings(PieceRows(s), 1)] == want[::-1]

    def test_the_pins_of_each_conflict_alone_empty_the_relaxation(self, monkeypatch):
        learned = []
        conflict = PieceRows.conflict

        def recorded(rows):
            pins = conflict(rows)
            if pins is not None:
                learned.append((rows.set, pins))
            return pins

        monkeypatch.setattr(PieceRows, "conflict", recorded)
        sets = _energy_sets(0, 2, 8) + _energy_sets(1, 3, 6) + _subset_sum_sets()
        sets += [random_comp_set(9000 + seed) for seed in range(30)]
        for s in sets:
            for first in (0, 1):
                list(iter_encodings(PieceRows(s), first))
        assert len(learned) > 100
        for s, (ones, zeros) in learned:
            rows = PieceRows(s)
            rows.lp.move_to(*rows.pin_bounds(_pins(ones, zeros, s.num_pairs)))
            assert rows.lp.solve()[0] is LpStatus.INFEASIBLE

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_ray_is_read_with_either_sign(self, monkeypatch, sign):
        # {0 <= x perp x + 1 >= 0} with side 1 pinned: x + 1 == 0 and x >= 0
        rows = PieceRows(scalar_set(1.0, 1.0))
        assert not rows.witness((1,))[0]
        ray = rows.lp.dual_ray()
        assert ray is not None and ray.any()
        monkeypatch.setattr(RangedLp, "dual_ray", lambda self: sign * ray)
        assert rows.conflict() == (1, 0)
        # the multiplier -1 on the pair row proves 0 >= 1 under the pin; +1
        # proves only 0 >= -1, under the other side's pin
        assert rows.certificate(np.array([-1.0])) == (1, 0, 1.0)
        assert rows.certificate(np.array([1.0])) == (0, 1, -1.0)

    def test_a_feasible_node_leaves_no_conflict(self):
        rows = PieceRows(scalar_set(1.0, 1.0))
        assert rows.witness((0,))[0]
        assert rows.conflict() is None

    def test_multipliers_that_need_an_infinite_bound_prove_nothing(self):
        # split interval: rows -xi <= 5, xi <= 5, -chi <= 0, mu1 + mu2 <= 1,
        # -mu1 - mu2 <= -1, then the pair rows chi + xi + 1 >= 0 and
        # chi - xi + 1 >= 0; xi and chi free, mu1 and mu2 >= 0
        rows = PieceRows(split_interval_set())
        e = np.eye(7)
        # xi >= -5 from the row -xi <= 5 ...
        assert rows.certificate(-e[0], np.array([1.0, 0.0, 0.0, 0.0])) == (0, 0, -5.0)
        # ... but a positive multiplier on it needs the row's lower bound
        assert rows.certificate(e[0], np.array([-1.0, 0.0, 0.0, 0.0])) is None
        # a reduced cost on the free xi needs one of its bounds
        assert rows.certificate(np.zeros(7), np.array([1.0, 0.0, 0.0, 0.0])) is None
        # -xi - chi + mu1 >= 1 where side 1 of pair 0 is pinned ...
        assert rows.certificate(-e[5], np.array([-1.0, -1.0, 1.0, 0.0])) == (1, 0, 1.0)
        # ... and with the cost of mu1 negative it needs side 0 too
        assert rows.certificate(-e[5], np.array([-1.0, -1.0, -1.0, 0.0])) is None


def _hull_min(hull, c_agg):
    c = np.zeros(hull.num_vars)
    c[hull.agg_slice] = c_agg
    out = solve_lp(LinearProgram(c, hull.a, np.zeros(hull.a.shape[0]), a_eq=hull.a_eq, b_eq=hull.b_eq))
    return out


class TestTriplets:
    @staticmethod
    def _coo_put(out, block, row0, col0):
        """``Triplets.put`` by way of SciPy's ``coo_matrix``: the reference
        the direct route is checked against."""
        if 0 in block.shape:
            return
        coo = csr(block).tocoo()
        out.add(coo.row + row0, coo.col + col0, coo.data)

    @staticmethod
    def _matrices(countries, followers):
        """Every matrix that ``Triplets.put`` builds for one ladder rung,
        seeds 0-2: the leader sets, and the KKT system and planner LP of
        the hull game over every piece."""
        out = []
        pieces = iter(_ladder(countries, followers))
        for seed in range(3):
            cfg = GenConfig(seed=seed, countries=countries, followers=(followers, followers))
            game = build_game(gen_energy(cfg))
            hulls = []
            for leader in game.leaders:
                s = leader_feasible_set(leader)
                out += [s.a, s.a_eq, s.m_mat]
                _, encodings, _ = next(pieces)
                hulls.append(balas_hull(PieceRows(s), encodings, [None] * len(encodings)))
            hull_game = _assemble_hull_game(game, hulls).game
            kkt, lay = kkt_system(hull_game)
            out += [kkt.a, kkt.a_eq, kkt.m_mat, planner_lp(hull_game, lay)._a]
        return out

    @pytest.mark.parametrize("countries, followers", LADDER)
    def test_direct_put_matches_the_coo_route_bytes(self, monkeypatch, countries, followers):
        direct = self._matrices(countries, followers)
        monkeypatch.setattr(Triplets, "put", self._coo_put)
        reference = self._matrices(countries, followers)
        assert len(direct) == len(reference)
        for i, (got, want) in enumerate(zip(direct, reference)):
            assert _same_bytes(got, want), i


class TestBalasHull:
    def test_single_piece(self):
        piece = ComplementaritySet(np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]))
        hull = hull_of([piece])
        lo = _hull_min(hull, np.array([1.0]))
        hi = _hull_min(hull, np.array([-1.0]))
        assert lo.value == pytest.approx(0.0, abs=1e-9)
        assert -hi.value == pytest.approx(1.0, abs=1e-9)
        assert lo.point[hull.delta_index(0)] == pytest.approx(1.0, abs=1e-9)

    def test_two_intervals(self):
        mk = lambda lo, hi: ComplementaritySet(np.array([[1.0], [-1.0]]), np.array([hi, -lo]))
        hull = hull_of([mk(0.0, 1.0), mk(2.0, 3.0)])
        assert _hull_min(hull, np.array([1.0])).value == pytest.approx(0.0, abs=1e-9)
        assert _hull_min(hull, np.array([-1.0])).value == pytest.approx(-3.0, abs=1e-9)

    def test_two_points_give_segment(self):
        point = lambda v: ComplementaritySet(
            np.vstack([np.eye(2), -np.eye(2)]),
            np.concatenate([v, -v]),
        )
        hull = hull_of([point(np.zeros(2)), point(np.ones(2))])
        # the projection is the segment x1 = x2 in [0, 1]
        for c, expect in [
            (np.array([1.0, 0.0]), 0.0),
            (np.array([-1.0, 0.0]), -1.0),
            (np.array([1.0, -1.0]), 0.0),
            (np.array([-1.0, 1.0]), 0.0),
        ]:
            assert _hull_min(hull, c).value == pytest.approx(expect, abs=1e-9)

    def test_pinned_columns_leave_the_copy(self):
        # {0 <= x0 <= 1, x1 = 0} and {x0 = 0, 0 <= x1 <= 1}: each copy
        # keeps only its free column, and the hull is their triangle
        box = np.array([[1.0], [-1.0]])
        pieces = [
            ComplementaritySet(
                np.hstack([box, np.zeros((2, 1))]), np.array([1.0, 0.0]),
                a_eq=np.array([[0.0, 1.0]]), b_eq=np.zeros(1),
            ),
            ComplementaritySet(
                np.hstack([np.zeros((2, 1)), box]), np.array([1.0, 0.0]),
                a_eq=np.array([[2.0, 0.0]]), b_eq=np.zeros(1),
            ),
        ]
        hull = hull_of(pieces)
        assert [list(c) for c in hull.copy_cols] == [[0], [1]]
        assert hull.num_vars == 1 + 1 + 2 + 2
        assert _hull_min(hull, np.array([-1.0, -1.0])).value == pytest.approx(-1.0, abs=1e-9)
        out = _hull_min(hull, np.array([-1.0, -2.0]))
        assert out.value == pytest.approx(-2.0, abs=1e-9)
        assert hull.piece_point(out.point, 1) == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_rejects_empty_input(self):
        with pytest.raises(EmptyPieceList):
            balas_hull(PieceRows(box_set(0.0, 1.0)), [], [])

    def _assert_matches_oracle_bytes(self, with_pieces):
        # both from the same points: a point from the shared model can
        # differ from the oracle's in its last bit (TestSinglePoint bounds
        # the gap), and that bit would reach the aggregation row
        for s, encodings, pieces in with_pieces:
            rows = PieceRows(s)
            points = [rows.single_point(e) for e in encodings]
            got = balas_hull(rows, encodings, points)
            want = hull_of(pieces, points)
            for name in ("a", "a_eq", "b_eq"):
                assert _same_bytes(getattr(got, name), getattr(want, name)), name
            assert got.copy_start == want.copy_start
            assert [None if c is None else list(c) for c in got.copy_cols] == [
                None if c is None else list(c) for c in want.copy_cols
            ]

    @pytest.mark.parametrize("countries, followers", LADDER)
    def test_ladder_hulls_match_the_piece_by_piece_oracle_bytes(self, countries, followers):
        self._assert_matches_oracle_bytes(_ladder(countries, followers))

    def test_point_and_generator_hulls_match_the_oracle_bytes(self):
        sets = [split_interval_set(), scalar_set(1.0, -1.0), box_set(0.0, 2.0)]
        sets += [random_comp_set(9000 + seed) for seed in range(8)]
        self._assert_matches_oracle_bytes(t for t in _pure_bnb() + _with_pieces(sets) if t[1])

    @given(st.integers(0, 30))
    def test_hull_matches_piecewise_minimum_on_random_boxes(self, seed):
        rng = Lcg(4000 + seed)
        pieces = []
        for _ in range(1 + rng.randint(3)):
            lo = np.array([rng.uniform(-3, 3) for _ in range(2)])
            hi = lo + np.array([rng.uniform(0.1, 2) for _ in range(2)])
            pieces.append(
                ComplementaritySet(np.vstack([np.eye(2), -np.eye(2)]), np.concatenate([hi, -lo]))
            )
        hull = hull_of(pieces)
        for _ in range(16):
            c = np.array([rng.uniform(-1, 1) for _ in range(2)])
            hull_val = _hull_min(hull, c).value
            piece_val = min(
                solve_lp(program(p, c)).value for p in pieces
            )
            assert hull_val == pytest.approx(piece_val, abs=1e-7)


class TestSinglePoint:
    """The singleton test on a set's shared models agrees with the
    piece-by-piece Stiemke oracle and the coordinate-wise one."""

    def test_rank_sets_the_unit_rows_apart(self):
        # rows with one nonzero entry, among them repeated and negated
        # ones, beside rows that also touch their columns
        rng = Lcg(11)
        sets = _energy_sets(0, 2, 4) + [random_comp_set(9000 + seed) for seed in range(8)]
        for s in sets:
            rows = PieceRows(s)
            block = rows.block[0]
            for _ in range(20):
                idx = np.array(
                    [r for r in range(len(block)) if rng.randint(3) == 0], dtype=int
                )
                want = np.linalg.matrix_rank(block[idx]) if len(idx) else 0
                assert rows.rank(idx) == want

    def _assert_matches_oracle(self, with_pieces) -> int:
        points = 0
        for s, encodings, pieces in with_pieces:
            rows = PieceRows(s)
            for e, piece in zip(encodings, pieces):
                got = rows.single_point(e)
                want, coords = single_point_of(piece), single_point_by_coordinates(piece)
                assert (got is None) == (want is None) == (coords is None), e
                if got is not None:
                    assert np.abs(got - want).max() <= 1e-9, e
                    assert np.abs(got - coords).max() <= 1e-9, e
                    points += 1
        return points

    @pytest.mark.parametrize("countries, followers", LADDER)
    def test_energy_ladder_pieces(self, countries, followers):
        self._assert_matches_oracle(_ladder(countries, followers))

    def test_pure_bnb_pieces(self):
        assert self._assert_matches_oracle(_pure_bnb()) == 67

    def test_generator_sets(self):
        assert self._assert_matches_oracle(_with_pieces(_generator_sets())) > 0

    @staticmethod
    def _cut_point() -> ComplementaritySet:
        """The point (1, ..., 1) of R^10 cut out by 30 random rows through
        it, which positively span R^10: HiGHS's presolve finishes neither
        its witness LP nor its cone LP."""
        rng, n = Lcg(7), 10
        g = np.array([[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(3 * n)])
        return ComplementaritySet(a=g, b=g @ np.ones(n))

    @staticmethod
    def _spied(rows: PieceRows) -> list:
        """Each run of the witness and the cone LP of ``rows``, in order,
        as (model, status), or (model, "stopped") when it hits its limit."""
        runs = []
        for name in ("lp", "cone"):
            model = getattr(rows, name)

            def spied(solve=model.solve, name=name):
                try:
                    out = solve()
                except TimeLimitReached:
                    runs.append((name, "stopped"))
                    raise
                runs.append((name, out[0]))
                return out

            model.solve = spied
        return runs

    def test_time_limit_reaches_the_lps(self):
        # without a budget the piece is a point, found by both LPs; at a
        # 0 s limit the witness LP stops, and the shared model keeps its
        # zero objective
        s = self._cut_point()
        rows = PieceRows(s)
        runs = self._spied(rows)
        assert rows.single_point(()) == pytest.approx(np.ones(s.n), abs=1e-9)
        assert runs == [("lp", LpStatus.OPTIMAL), ("cone", LpStatus.OPTIMAL)]
        rows = PieceRows(s, Deadline(0.0))
        runs = self._spied(rows)
        with pytest.raises(TimeLimitReached):
            rows.single_point(())
        assert runs == [("lp", "stopped")]
        assert not np.any(rows.lp._objective)

    def test_each_lp_reads_the_budget_left(self):
        # 60 s left when the witness LP starts, none when the cone LP
        # does: the cone LP stops, with the witness point in hand
        class Scripted(Deadline):
            reads = [60.0]

            @property
            def remaining(self):
                return self.reads.pop(0) if self.reads else 0.0

        rows = PieceRows(self._cut_point(), Scripted())
        runs = self._spied(rows)
        with pytest.raises(TimeLimitReached):
            rows.single_point(())
        assert runs == [("lp", LpStatus.OPTIMAL), ("cone", "stopped")]
        assert not np.any(rows.lp._objective)

    @pytest.mark.parametrize(
        "rows, rhs, point",
        [
            # (1, 1) cut out by x <= 1, y <= 1, x + y >= 2, plus rows that
            # also pass through it: x <= y, a copy of x <= 1 and 2y <= 2
            (
                [[1, 0], [0, 1], [-1, -1], [1, -1], [1, 0], [0, 2]],
                [1, 1, -2, 0, 1, 2],
                [1.0, 1.0],
            ),
            # x_0 in [0, 1], x_1 in [0, 1e-6]: wide in both coordinates
            ([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1e-6, 0], None),
            # x_0 = 2, x_1 in [0, 1e-6]: wider than the tolerance in x_1 only
            ([[1, 0], [-1, 0], [0, 1], [0, -1]], [2, -2, 1e-6, 0], None),
            # x_0 = 2, x_1 in [0, 1e-10]: thinner than the tolerance
            ([[1, 0], [-1, 0], [0, 1], [0, -1]], [2, -2, 1e-10, 0], [2.0, 0.0]),
            # x_0 = 0, x_1 >= 0: unbounded, with x_0 fixed
            ([[1, 0], [-1, 0], [0, -1]], [0, 0, 0], None),
            # x_0 >= 0 unbounded
            ([[-1, 0], [0, 1], [0, -1]], [0, 0, 0], None),
            # segment with x_0 = 1: x_1 + x_2 = 1, x_1, x_2 >= 0
            (
                [[1, 0, 0], [-1, 0, 0], [0, 1, 1], [0, -1, -1], [0, -1, 0], [0, 0, -1]],
                [1, -1, 1, -1, 0, 0],
                None,
            ),
            # the line x_0 = 0: two active rows of rank 1
            ([[1, 0], [-1, 0]], [0, 0], None),
        ],
    )
    def test_hand_made_cases(self, rows, rhs, point):
        piece = ComplementaritySet(np.array(rows, float), np.array(rhs, float))
        s = ComplementaritySet(
            a=piece.a, b=piece.b, m_mat=np.zeros((0, piece.n)), q=np.zeros(0), comp=()
        )
        got = PieceRows(s).single_point(())
        for want in (single_point_of(piece), single_point_by_coordinates(piece)):
            if point is None:
                assert got is None and want is None
            else:
                assert got == pytest.approx(point, abs=1e-9)
                assert want == pytest.approx(point, abs=1e-9)

    def test_the_rank_decides_before_the_cone_model_is_built(self):
        # the quadrant (two independent active rows, both inequalities),
        # the line x_0 = 0 (rank 1) and a point cut out by equalities alone
        # are decided by the rank; only dependent active rows with an
        # inequality among them, as at the corner of x, y <= 1, x + y >= 2,
        # build and run the cone LP
        cases = [
            (ComplementaritySet(-np.eye(2), np.zeros(2)), None, False),
            (ComplementaritySet(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2)), None, False),
            (
                ComplementaritySet(
                    np.zeros((0, 2)), np.zeros(0), a_eq=np.eye(2), b_eq=np.array([1.0, 2.0])
                ),
                [1.0, 2.0],
                False,
            ),
            (
                ComplementaritySet(
                    np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]), np.array([1.0, 1.0, -2.0])
                ),
                [1.0, 1.0],
                True,
            ),
        ]
        for s, point, cone in cases:
            rows = PieceRows(s)
            got = rows.single_point(())
            assert got is None if point is None else got == pytest.approx(point, abs=1e-9)
            assert ("cone" in vars(rows)) is cone

    def test_hand_made_pairs(self):
        # x_0 perp x_1 - x_0 >= 0 with x_1 <= 0: both pieces are {(0, 0)},
        # certified through an active a row (y >= 1) and an active unpinned
        # side (y <= -1); with x_1 in [0, 1] instead, the 1-side piece is
        # the segment x_0 = x_1 in [0, 1]
        point = ComplementaritySet(
            a=np.array([[0.0, 1.0]]), b=np.array([0.0]),
            m_mat=np.array([[-1.0, 1.0]]), q=np.array([0.0]), comp=(0,),
        )
        segment = ComplementaritySet(
            a=np.array([[0.0, 1.0], [0.0, -1.0]]), b=np.array([1.0, 0.0]),
            m_mat=np.array([[-1.0, 1.0]]), q=np.array([0.0]), comp=(0,),
        )
        rows = PieceRows(point)
        for e in ((0,), (1,)):
            assert rows.single_point(e) == pytest.approx([0.0, 0.0], abs=1e-9)
            assert single_point_of(selected_polyhedron(point, e)) == pytest.approx(
                [0.0, 0.0], abs=1e-9
            )
        assert PieceRows(segment).single_point((1,)) is None
        assert single_point_of(selected_polyhedron(segment, (1,))) is None
        # the empty piece {x = 0, x - 1 >= 0} has no point
        assert PieceRows(scalar_set(1.0, -1.0)).single_point((0,)) is None


class TestSharedModel:
    """Every LP over a set's relaxation runs on its one model,
    ``PieceRows.lp``: what a search leaves on it changes no later answer."""

    @staticmethod
    def _runaway_set() -> ComplementaritySet:
        # (x0, x1, x2, y0, y1, y2): y_i >= 0 perp 1 - x_i + y_i >= 0, so
        # side 0 keeps x_i <= 1 and side 1 makes x_i = 1 + y_i >= 1, and
        # x0 + x1 >= 3 empties the pieces with both of pairs 0 and 1 at 0
        m_mat = np.hstack([-np.eye(3), np.eye(3)])
        return ComplementaritySet(
            a=np.array([[-1.0, -1.0, 0.0, 0.0, 0.0, 0.0]]),
            b=np.array([-3.0]),
            m_mat=m_mat,
            q=np.ones(3),
            comp=(3, 4, 5),
        )

    def test_a_witness_after_an_unbounded_search_matches_a_fresh_model(self):
        s = self._runaway_set()
        c = np.array([-1.0, -1.0, -1.0, 0.0, 0.0, 0.0])
        rows = PieceRows(s)
        rows.lp.set_objective(c)
        assert rows.lp.solve()[0] is LpStatus.UNBOUNDED  # on the relaxation
        assert optimize_over_set(rows, c).status is LpStatus.UNBOUNDED
        # the search left its model at a leaf, under its objective
        assert len(rows.lp._rows) + len(rows.lp._cols) == s.num_pairs
        assert np.array_equal(rows.lp._objective, c)
        feasible = 0
        for e in itertools.product((0, 1), repeat=s.num_pairs):
            got, x = rows.witness(e)
            assert not np.any(rows.lp._objective)
            assert got == PieceRows(s).witness(e)[0] == is_feasible(selected_polyhedron(s, e))
            if got:
                assert contains(selected_polyhedron(s, e), x, 1e-9), e
                feasible += 1
        assert 0 < feasible < 2**s.num_pairs

    @pytest.mark.parametrize(
        "game, points",
        [
            (lambda: build_game(gen_energy(GenConfig(seed=0, countries=2, followers=(4, 4)))), 0),
            (lambda: gen_pne_hardness(SubsetSumInterval(q=(1, 2), p=1, t=3, r=1)), 41),
        ],
        ids=["C2F4s0", "ss-no"],
    )
    def test_a_deviation_check_flips_no_singleton_decision(self, game, points):
        # a piece tested on the model a best response searched decides as
        # on a fresh model, with the same point to 1e-9
        game = game()
        sets = _game_sets(game)
        kept = [PieceRows(s) for s in sets]
        assert deviation_check(game, full_enumeration(game).profile, rows=kept) == [None] * len(sets)
        found = 0
        for s, rows in zip(sets, kept):
            assert np.any(rows.lp._objective)
            for e, _ in enumerate_pieces(PieceRows(s)):
                got, want = rows.single_point(e), PieceRows(s).single_point(e)
                assert (got is None) == (want is None), e
                if got is not None:
                    assert np.abs(got - want).max() <= 1e-9, e
                    found += 1
        assert found == points


class TestContains:
    def test_scalar_examples(self):
        s = scalar_set(1.0, -1.0)  # {0 <= x perp x-1 >= 0}
        assert contains(s, np.array([1.0]))
        assert not contains(s, np.array([0.5]))  # z = -0.5 < 0
        assert not contains(s, np.array([2.0]))  # x*z = 2

    def test_relaxation_containment(self):
        # a piece's point keeps the set's rows and both sides of every
        # pair at or above their pin values
        s = split_interval_set()
        rows, rhs = PieceRows(s).block
        sides = slice(len(rhs) - 2 * s.num_pairs, None)
        for e, poly in pieces_of(s):
            out = solve_lp(program(poly, np.ones(4)))
            assert contains(s, out.point, 1e-7)
            assert (s.a @ out.point - s.b).max() <= 1e-7
            assert (rhs[sides] - rows[sides] @ out.point).max() <= 1e-7


class TestOptimizeOverSet:
    def test_split_interval_linear_min(self):
        s = split_interval_set()
        c = np.array([1.0, 0.0, 0.0, 0.0])
        out = optimize_over_set(PieceRows(s), c)
        assert out.status is LpStatus.OPTIMAL
        assert out.point[0] == pytest.approx(-5.0, abs=1e-7)

    def test_a_bound_finds_the_minimum_below_it_and_nothing_else(self):
        checked = 0
        for seed in range(12):
            s = random_comp_set(9100 + seed)
            rng = Lcg(9200 + seed)
            c = np.array([rng.uniform(-1, 1) for _ in range(s.n)])
            free = optimize_over_set(PieceRows(s), c)
            if free.status is not LpStatus.OPTIMAL:
                continue
            below = optimize_over_set(PieceRows(s), c, bound=free.value + 1e-3)
            assert below.status is LpStatus.OPTIMAL
            assert below.value == pytest.approx(free.value, abs=1e-9)
            for bound in (free.value, free.value - 1e-3):
                assert optimize_over_set(PieceRows(s), c, bound=bound).status is LpStatus.INFEASIBLE
            checked += 1
        assert checked >= 8

    def test_box_min(self):
        out = optimize_over_set(PieceRows(box_set(0.0, 1.0)), np.array([1.0]))
        assert out.status is LpStatus.OPTIMAL
        assert out.value == pytest.approx(0.0, abs=1e-9)

    def test_halfline_unbounded(self):
        s = ComplementaritySet(
            a=np.array([[-1.0]]),
            b=np.array([0.0]),
            m_mat=np.zeros((0, 1)),
            q=np.zeros(0),
            comp=(),
        )
        out = optimize_over_set(PieceRows(s), np.array([-5.0]))
        assert out.status is LpStatus.UNBOUNDED
        assert out.ray is not None and out.ray[0] > 0
        assert contains(s, out.point)

    def test_rowless_set_is_unbounded_with_a_ray(self):
        # a raw game leader with no rows and no pairs reaches this
        # through deviation_check
        s = ComplementaritySet(
            a=np.zeros((0, 1)), b=np.zeros(0), m_mat=np.zeros((0, 1)), q=np.zeros(0), comp=()
        )
        c = np.array([-1.0])
        out = optimize_over_set(PieceRows(s), c)
        assert out.status is LpStatus.UNBOUNDED
        assert out.point is not None and c @ out.ray < 0

    def test_unbounded_root_branches_into_bounded_pieces(self):
        # pair a _|_ b with |a - b| <= 1: the root relaxation runs off
        # along a = b, but each piece is a unit segment
        s = ComplementaritySet(
            a=np.array([[1.0, -1.0], [-1.0, 1.0]]),
            b=np.ones(2),
            m_mat=np.array([[0.0, 1.0]]),
            q=np.zeros(1),
            comp=(0,),
        )
        deadline = Deadline()
        out = optimize_over_set(PieceRows(s, deadline), np.array([-1.0, -1.0]))
        assert out.status is LpStatus.OPTIMAL
        assert out.value == pytest.approx(-1.0, abs=1e-9)
        assert contains(s, out.point)
        assert deadline.nodes == 3  # the root and both pieces

    def test_unbounded_leaf_below_a_branched_pair(self):
        # y _|_ 1 - x + y: the piece y = 0 stops at x = 1, the piece
        # x = 1 + y runs off
        s = ComplementaritySet(
            a=np.zeros((0, 2)),
            b=np.zeros(0),
            m_mat=np.array([[-1.0, 1.0]]),
            q=np.ones(1),
            comp=(1,),
        )
        c = np.array([-1.0, 0.0])
        deadline = Deadline()
        out = optimize_over_set(PieceRows(s, deadline), c)
        assert out.status is LpStatus.UNBOUNDED
        assert c @ out.ray < 0
        for t in (1.0, 10.0):
            assert contains(s, out.point + t * out.ray)
        assert deadline.nodes == 3

    def test_unbounded_node_branches_a_free_binary(self):
        # no pairs; delta in [0, 1] is a binary and x >= 0 is free above
        s = ComplementaritySet(
            a=np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
            b=np.array([0.0, 1.0, 0.0]),
            m_mat=np.zeros((0, 2)),
            q=np.zeros(0),
            comp=(),
        )
        c = np.array([-1.0, 0.0])
        deadline = Deadline()
        out = optimize_over_set(PieceRows(s, deadline), c, binaries=(BinaryVar(index=1),))
        assert out.status is LpStatus.UNBOUNDED
        assert c @ out.ray < 0
        assert out.point[1] == pytest.approx(1.0)  # the delta = 1 child pops first
        assert deadline.nodes == 2

    def test_feasibility_mode_returns_member(self):
        s = split_interval_set()
        out = optimize_over_set(PieceRows(s), np.zeros(4))
        assert out.status is LpStatus.OPTIMAL
        assert contains(s, out.point, 1e-6)

    @given(st.integers(0, 60))
    def test_branch_and_bound_matches_piece_enumeration(self, seed):
        s = random_comp_set(9000 + seed)
        rng = Lcg(77 + seed)
        c = np.array([round(rng.uniform(-1, 1), 2) for _ in range(s.n)])
        pieces = pieces_of(s)
        # feasibility mode: a point of the set exactly when it has a piece
        found = optimize_over_set(PieceRows(s), np.zeros(s.n))
        if pieces:
            assert found.status is LpStatus.OPTIMAL and contains(s, found.point)
        else:
            assert found.status is LpStatus.INFEASIBLE
        bb = optimize_over_set(PieceRows(s), c)
        if not pieces:
            assert bb.status is LpStatus.INFEASIBLE
            return
        piece_outs = [solve_lp(program(p, c)) for _, p in pieces]
        if any(o.status is LpStatus.UNBOUNDED for o in piece_outs):
            assert bb.status is LpStatus.UNBOUNDED
            return
        best = min(o.value for o in piece_outs)
        assert bb.status is LpStatus.OPTIMAL
        assert bb.value == pytest.approx(best, abs=1e-7)

    @given(st.integers(0, 30))
    def test_a_kept_model_finds_what_fresh_models_find(self, seed):
        # one relaxation model for several searches, each warm from the last
        s = random_comp_set(9000 + seed)
        rng = Lcg(91 + seed)
        rows = PieceRows(s)
        for _ in range(4):
            c = np.array([round(rng.uniform(-1, 1), 2) for _ in range(s.n)])
            fresh = optimize_over_set(PieceRows(s), c)
            kept = optimize_over_set(rows, c)
            assert kept.status is fresh.status
            if fresh.status is LpStatus.OPTIMAL:
                assert kept.value == pytest.approx(fresh.value, abs=1e-7)

    @given(st.integers(0, 25))
    def test_piece_union_soundness(self, seed):
        s = random_comp_set(12000 + seed)
        rng = Lcg(5 + seed)
        for e, poly in pieces_of(s):
            c = np.array([rng.uniform(-1, 1) for _ in range(s.n)])
            out = solve_lp(program(poly, c))
            if out.status is LpStatus.OPTIMAL:
                assert contains(s, out.point, 1e-6)
