"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavyweight
energy grid is shared between the two market criteria via a module
fixture.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from epecnash.algorithms import (
    deviation_check,
    full_enumeration,
    inner_approximation,
    pure_enumeration,
)
from epecnash.cli import main as cli_main
from epecnash.energy import EnergyInstance, build_game, report
from epecnash.generators import (
    GenConfig,
    SubsetSumInterval,
    gen_energy,
    gen_pne_hardness,
    matching_pennies_game,
    product_gadget_leader,
    random_trivial_game,
    split_interval_game,
)
from epecnash.leadergame import leader_feasible_set
from epecnash.lp import LinearProgram, LpStatus, solve_lp
from epecnash.rng import Lcg
from epecnash.serialize import dumps, game_to_dict

from tests.helpers import pieces_of, program, random_comp_set


def _announce(num: int, text: str) -> None:
    print(f"\n[PASS] criterion {num}: {text}", flush=True)


# --------------------------------------------------------------------
# criterion 1: the split-interval triptych
# --------------------------------------------------------------------
def test_criterion_1_split_interval_triptych():
    t0 = time.monotonic()
    # (a) the plain game has no equilibrium under either algorithm
    game = split_interval_game()
    assert full_enumeration(game).status == "NoEquilibrium"
    inner = inner_approximation(game, "seq", k=1, seed=0)
    assert inner.status == "NoEquilibrium"

    # (b) the first restricted game (pieces {(0,1)}, the [1,5] branch)
    # has the pure equilibrium interval=1 / line=0, found before the
    # deviation check fires
    first = inner.trace[0]
    assert first["restricted"] is not None
    assert first["restricted"].mean(0)[0] == pytest.approx(0.0, abs=1e-6)
    assert first["restricted"].mean(1)[0] == pytest.approx(1.0, abs=1e-6)
    dev = first["deviations"][1]
    assert dev is not None and dev.point[0] == pytest.approx(-5.0, abs=1e-6)

    # (c) the sign-flipped game has the unique equilibrium with
    # components 0 (line) and 5 (interval)
    flipped = full_enumeration(split_interval_game(flipped=True))
    assert flipped.status == "PNE"
    assert flipped.profile.mean(0)[0] == pytest.approx(0.0, abs=1e-6)
    assert flipped.profile.mean(1)[0] == pytest.approx(5.0, abs=1e-6)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _announce(1, f"split-interval triptych exact in {elapsed:.2f}s (< 1s)")


# --------------------------------------------------------------------
# criterion 2: forced-vertex matching pennies
# --------------------------------------------------------------------
def test_criterion_2_matching_pennies():
    t0 = time.monotonic()
    game = matching_pennies_game()
    assert pure_enumeration(game).status == "NoEquilibrium"
    rep = full_enumeration(game)
    assert rep.status == "MNE"
    # 2x2 normal-form oracle: matcher payoff 1 on match, mismatcher 1
    # on mismatch; indifference p*1 = (1-p)*1 forces p = 1/2 for both
    for sup in rep.profile.supports:
        assert sorted(pr for _, pr in sup) == pytest.approx([0.5, 0.5], abs=1e-6)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _announce(2, f"matching pennies: no PNE, MNE mixes (1/2, 1/2) in {elapsed:.2f}s")


# --------------------------------------------------------------------
# criteria 3 and 4 share the 50 random games
# --------------------------------------------------------------------
RANDOM_SEEDS = [30_000 + s for s in range(50)]


@pytest.fixture(scope="module")
def random_games():
    return {seed: random_trivial_game(seed) for seed in RANDOM_SEEDS}


@pytest.fixture(scope="module")
def random_full_reports(random_games):
    return {
        seed: full_enumeration(game, budget=120)
        for seed, game in random_games.items()
    }


def _oracle_best_response(s, objective):
    """Best response by independent per-piece LP enumeration."""
    best = np.inf
    unbounded = False
    for _, poly in pieces_of(s):
        out = solve_lp(program(poly, objective))
        if out.status is LpStatus.UNBOUNDED:
            unbounded = True
        elif out.status is LpStatus.OPTIMAL:
            best = min(best, out.value)
    return -np.inf if unbounded else best


def test_criterion_3_certification_against_piece_oracle(random_games, random_full_reports):
    t0 = time.monotonic()
    checked = 0
    for seed, game in random_games.items():
        rep = random_full_reports[seed]
        assert rep.status in ("MNE", "PNE", "NoEquilibrium"), seed
        if rep.profile is None:
            continue
        means = rep.profile.means()
        for i in range(2):
            s = leader_feasible_set(game.leaders[i])
            obj = game.rival_objective(i, means, rep.profile.market)
            played = float(obj @ means[i])
            best = _oracle_best_response(s, obj)
            assert played <= best + 1e-6, (seed, i, played, best)
        checked += 1
    assert checked >= 15  # the sample must actually contain equilibria
    _announce(
        3,
        f"{checked}/50 games returned equilibria, all certified against the "
        f"piece-enumeration oracle at 1e-6 in {time.monotonic()-t0:.0f}s",
    )


def test_criterion_4_algorithm_agreement(random_games, random_full_reports):
    t0 = time.monotonic()
    engineered = [split_interval_game(scale=1.0 + 0.5 * j) for j in range(10)]
    cases = [(seed, g, random_full_reports[seed]) for seed, g in random_games.items()]
    cases += [
        (f"engineered{j}", g, full_enumeration(g, budget=120))
        for j, g in enumerate(engineered)
    ]
    disagreements = []
    for label, game, full in cases:
        exists_full = full.status in ("MNE", "PNE")
        assert full.status != "TimeLimit", label
        for strategy in ("seq", "rseq", "rand"):
            for k in (1, 3):
                inner = inner_approximation(game, strategy, k, seed=7, budget=120)
                assert inner.status != "TimeLimit", (label, strategy, k)
                if (inner.status in ("MNE", "PNE")) != exists_full:
                    disagreements.append((label, strategy, k))
    assert not disagreements, disagreements
    for j, g in enumerate(engineered):
        assert full_enumeration(g, budget=120).status == "NoEquilibrium", j
    _announce(
        4,
        f"existence status identical on 60 instances x 6 inner configurations "
        f"in {time.monotonic()-t0:.0f}s",
    )


# --------------------------------------------------------------------
# criterion 5: branch-and-bound against piece enumeration
# --------------------------------------------------------------------
def test_criterion_5_branch_and_bound_oracle_equivalence():
    from epecnash.polyhedra import PieceRows, optimize_over_set

    t0 = time.monotonic()
    rng = Lcg(123)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for trial in range(100):
        s = random_comp_set(60_000 + trial, max_dim=5, max_pairs=8)
        c = np.array([round(rng.uniform(-1, 1), 2) for _ in range(s.n)])
        bb = optimize_over_set(PieceRows(s), c)
        pieces = pieces_of(s)
        outs = [solve_lp(program(poly, c)) for _, poly in pieces]
        if not pieces:
            assert bb.status is LpStatus.INFEASIBLE, trial
            statuses["infeasible"] += 1
        elif any(o.status is LpStatus.UNBOUNDED for o in outs):
            assert bb.status is LpStatus.UNBOUNDED, trial
            statuses["unbounded"] += 1
        else:
            best = min(o.value for o in outs)
            assert bb.status is LpStatus.OPTIMAL, trial
            assert bb.value == pytest.approx(best, abs=1e-7), trial
            statuses["optimal"] += 1
    _announce(
        5,
        f"100 sets agree with the per-piece oracle within 1e-7 "
        f"({statuses}) in {time.monotonic()-t0:.0f}s",
    )


# --------------------------------------------------------------------
# criteria 6 and 7: energy market directions
# --------------------------------------------------------------------
@pytest.fixture(scope="module")
def energy_grid():
    """First ten seeded instances whose whole config grid solves.

    Seeds advance deterministically from 1000; an instance is kept only
    if trade on/off (no revenue) and revenue on (with trade) all yield
    an equilibrium within the budget, mirroring how timed-out instances
    are dropped from market studies.
    """
    grid = []
    seed = 1000
    while len(grid) < 10 and seed < 1100:
        cfg = GenConfig(seed=seed, countries=2, followers=(3, 3), paradigms=("carbon",))
        base = gen_energy(cfg)
        entry = {"seed": seed}
        ok = True
        for label, trade, taxb in (
            ("trade", True, False),
            ("no_trade", False, False),
            ("revenue", True, True),
        ):
            inst = EnergyInstance(
                countries=tuple(replace(c, tax_revenue=taxb) for c in base.countries),
                trade=trade,
            )
            rep = full_enumeration(build_game(inst), budget=120)
            if rep.profile is None:
                ok = False
                break
            entry[label] = report(inst, rep.profile).total_emission
        if ok:
            grid.append(entry)
        seed += 1
    assert len(grid) == 10
    return grid


def test_criterion_6_trade_lowers_emission(energy_grid):
    scale = max(e["no_trade"] for e in energy_grid)
    holds = [e["trade"] <= e["no_trade"] + 1e-6 * scale for e in energy_grid]
    assert sum(holds) == 10
    reductions = [
        (e["no_trade"] - e["trade"]) / e["no_trade"] for e in energy_grid
    ]
    mean_red = float(np.mean(reductions))
    assert mean_red > 0.0
    _announce(
        6,
        f"trade never raises emission (10/10), mean reduction {100*mean_red:.1f}%",
    )


def test_criterion_7_tax_revenue_raises_emission(energy_grid):
    base = float(np.mean([e["trade"] for e in energy_grid]))
    with_rev = float(np.mean([e["revenue"] for e in energy_grid]))
    assert with_rev >= base - 1e-9
    _announce(
        7,
        "revenue-seeking carbon taxation raises mean emission by "
        f"{100*(with_rev-base)/base:.2f}% (directional check)",
    )


# --------------------------------------------------------------------
# criterion 8: subset-sum reduction round trip
# --------------------------------------------------------------------
def test_criterion_8_hardness_round_trip():
    t0 = time.monotonic()
    yes = SubsetSumInterval(q=(1,), p=2, t=4, r=1)
    no = SubsetSumInterval(q=(1, 2), p=1, t=3, r=1)
    assert yes.decision() is True and no.decision() is False

    rep = pure_enumeration(gen_pne_hardness(yes), budget=110)
    assert rep.status == "PNE"
    assert all(d is None for d in deviation_check(gen_pne_hardness(yes), rep.profile))
    assert pure_enumeration(gen_pne_hardness(no), budget=110).status == "NoEquilibrium"

    # product-gadget projection: h = x * y on 100 sampled piece points
    s = leader_feasible_set(product_gadget_leader())
    pieces = pieces_of(s)
    rng = Lcg(2024)
    checked = 0
    while checked < 100:
        _, poly = pieces[rng.randint(len(pieces))]
        c = np.array([rng.uniform(-1, 1) for _ in range(s.n)])
        out = solve_lp(program(poly, c))
        if out.status is not LpStatus.OPTIMAL:
            continue
        h, y, x = out.point[:3]
        assert h == pytest.approx(x * y, abs=1e-7)
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _announce(8, f"subset-sum round trip and gadget identity in {elapsed:.0f}s (<= 2 min)")


# --------------------------------------------------------------------
# criterion 9: byte-identical repetition
# --------------------------------------------------------------------
def test_criterion_9_determinism(tmp_path):
    runs = []
    inst_energy = tmp_path / "energy.json"
    assert cli_main(
        ["generate", "--seed", "77", "--countries", "2", "--followers", "2",
         "--out", str(inst_energy)]
    ) == 0
    inst_game = tmp_path / "game.json"
    inst_game.write_text(dumps(game_to_dict(split_interval_game(flipped=True))))

    jobs = [
        (inst_energy, ["--algorithm", "full"]),
        (inst_energy, ["--algorithm", "inner", "--strategy", "rand", "--seed", "5"]),
        (inst_energy, ["--algorithm", "pure"]),
        (inst_game, ["--algorithm", "full"]),
    ]
    for repeat in range(2):
        blob = []
        for i, (inst, flags) in enumerate(jobs):
            out = tmp_path / f"r{repeat}_{i}.json"
            code = cli_main(["solve", "--in", str(inst), "--out", str(out), *flags])
            assert code in (0, 2)
            blob.append(out.read_bytes())
        # regenerating the instance must also be byte-identical
        regen = tmp_path / f"regen{repeat}.json"
        assert cli_main(
            ["generate", "--seed", "77", "--countries", "2", "--followers", "2",
             "--out", str(regen)]
        ) == 0
        blob.append(regen.read_bytes())
        runs.append(blob)
    assert runs[0] == runs[1]
    _announce(9, "repeated runs produce byte-identical result JSON")
