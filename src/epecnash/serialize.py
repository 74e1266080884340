"""JSON round-trips for instances, games, and solver results.

Two instance kinds share one file format, discriminated by ``kind``:

``energy``
    Mirrors the energy-market specs: countries with producers, demand,
    price cap, tax paradigm/caps, plus the instance-level trade flag.

``game``
    A multi-leader game in raw matrix form: per leader its derived
    feasible set (dense A, b, M, q and the complementarity indices)
    and linear objective; game-level bilinear couplings and optional
    market-clearing rows.

Results carry full support points as arrays.  Serialization is
deterministic: keys sorted, no whitespace, floats written with
shortest-round-trip precision (17 significant digits when needed).
"""

from __future__ import annotations

import json

import numpy as np
import scipy.sparse as sp

from .algorithms import MixedProfile, SolveReport
from .energy import CountrySpec, EnergyInstance, EnergyReport, ProducerSpec
from .leadergame import (
    MultiLeaderGame,
    StackelbergLeader,
    equality_blocks,
    leader_feasible_set,
)
from .lp import DimensionMismatch
from .polyhedra import ComplementaritySet


class FormatError(ValueError):
    pass


def _mat(x) -> list:
    arr = np.asarray(x, dtype=float) if not hasattr(x, "toarray") else x.toarray()
    return arr.tolist()


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# --------------------------------------------------------------------
# instances
# --------------------------------------------------------------------
def energy_to_dict(inst: EnergyInstance) -> dict:
    return {
        "kind": "energy",
        "trade": inst.trade,
        "countries": [
            {
                "name": c.name,
                "demand_intercept": c.demand_intercept,
                "demand_slope": c.demand_slope,
                "price_cap": c.price_cap,
                "tax_paradigm": c.tax_paradigm,
                "tax_revenue": c.tax_revenue,
                "tax_caps": list(c.tax_caps),
                "producers": [
                    {
                        "lin_cost": p.lin_cost,
                        "quad_cost": p.quad_cost,
                        "capacity": p.capacity,
                        "emission_cost": p.emission_cost,
                    }
                    for p in c.producers
                ],
            }
            for c in inst.countries
        ],
    }


def energy_from_dict(data: dict) -> EnergyInstance:
    countries = []
    for c in data["countries"]:
        countries.append(
            CountrySpec(
                name=c["name"],
                producers=tuple(
                    ProducerSpec(
                        lin_cost=float(p["lin_cost"]),
                        quad_cost=float(p["quad_cost"]),
                        capacity=float(p["capacity"]),
                        emission_cost=float(p["emission_cost"]),
                    )
                    for p in c["producers"]
                ),
                demand_intercept=float(c["demand_intercept"]),
                demand_slope=float(c["demand_slope"]),
                price_cap=float(c["price_cap"]),
                tax_caps=tuple(float(v) for v in c["tax_caps"]),
                tax_paradigm=c["tax_paradigm"],
                tax_revenue=bool(c["tax_revenue"]),
            )
        )
    return EnergyInstance(countries=tuple(countries), trade=bool(data["trade"]))


def _inequality_rows(leader: StackelbergLeader, s: ComplementaritySet):
    """``s``'s rows as ``<=`` rows only, as the file stores them: its own,
    then each block of equalities (``equality_blocks``) followed by its
    negation."""
    a_eq = sp.csr_matrix(s.a_eq)
    rows, rhs = [sp.csr_matrix(s.a)], [np.asarray(s.b, dtype=float)]
    top = 0
    for size in equality_blocks(leader):
        block = slice(top, top + size)
        rows += [a_eq[block], -a_eq[block]]
        rhs += [s.b_eq[block], -s.b_eq[block]]
        top += size
    return sp.vstack(rows, format="csr"), np.concatenate(rhs)


def game_to_dict(game: MultiLeaderGame) -> dict:
    """The game in raw matrix form; each leader's set is written with
    ``<=`` rows only, every equality as its two inequalities."""
    leaders = []
    for i, leader in enumerate(game.leaders):
        s = leader_feasible_set(leader)
        a, b = _inequality_rows(leader, s)
        leaders.append(
            {
                "name": leader.name,
                "n_leader": leader.n_leader,
                "objective": _mat(game.objectives[i]),
                "set": {
                    "a": _mat(a),
                    "b": _mat(b),
                    "m": _mat(s.m_mat),
                    "q": _mat(s.q),
                    "comp": list(s.comp),
                },
            }
        )
    return {
        "kind": "game",
        "leaders": leaders,
        "couplings": [None if c is None else _mat(c) for c in game.couplings],
        "clearing": None if game.clearing is None else _mat(game.clearing),
    }


def _fold_equalities(a: np.ndarray, b: np.ndarray):
    """``a x <= b`` as ``<=`` rows and equalities: a block of rows directly
    followed by its exact negation (rows and right-hand sides), as
    ``game_to_dict`` writes a block of equalities, is read as that block
    of equalities.  Each part keeps its row order."""
    if len(b) != a.shape[0]:
        raise DimensionMismatch("A/b row mismatch")
    rows = np.hstack([a, b[:, None]]) + 0.0  # + 0.0 turns -0.0 into 0.0
    key = [r.tobytes() for r in rows]
    neg = [(0.0 - r).tobytes() for r in rows]
    m = len(key)
    equal = np.zeros(m, dtype=bool)
    ineq = np.ones(m, dtype=bool)
    i = 0
    while i < m:
        # the shortest block at row i that its negation follows, or 0
        size = next(
            (k for k in range(1, (m - i) // 2 + 1)
             if key[i + k] == neg[i] and key[i + k : i + 2 * k] == neg[i : i + k]),
            0,
        )
        if size:
            equal[i : i + size] = True
            ineq[i : i + 2 * size] = False
            i += 2 * size
        else:
            i += 1
    return a[ineq], b[ineq], a[equal], b[equal]


def game_from_dict(data: dict) -> MultiLeaderGame:
    """The game a ``game_to_dict`` file holds, its equalities folded back
    (``_fold_equalities``)."""
    leaders = []
    objectives = []
    for entry in data["leaders"]:
        raw = entry["set"]
        n = len(entry["objective"])
        a, b, a_eq, b_eq = _fold_equalities(
            np.array(raw["a"], dtype=float).reshape(-1, n), np.array(raw["b"], dtype=float)
        )
        feasible = ComplementaritySet(
            a=a,
            b=b,
            a_eq=a_eq,
            b_eq=b_eq,
            m_mat=np.array(raw["m"], dtype=float).reshape(-1, n),
            q=np.array(raw["q"], dtype=float),
            comp=tuple(int(i) for i in raw["comp"]),
        )
        leaders.append(
            StackelbergLeader(
                name=entry["name"],
                n_leader=int(entry["n_leader"]),
                poly_a=np.zeros((0, int(entry["n_leader"]))),
                poly_b=np.zeros(0),
                feasible=feasible,
            )
        )
        objectives.append(np.array(entry["objective"], dtype=float))
    couplings = tuple(
        None if c is None else np.array(c, dtype=float) for c in data["couplings"]
    )
    clearing = (
        None if data.get("clearing") is None else np.array(data["clearing"], dtype=float)
    )
    return MultiLeaderGame(
        leaders=tuple(leaders),
        objectives=tuple(objectives),
        couplings=couplings,
        clearing=clearing,
    )


def load_instance(data: dict):
    """The instance a parsed file describes; a missing, mistyped or
    misshapen entry raises ``FormatError``."""
    kind = data.get("kind") if isinstance(data, dict) else None
    readers = {"energy": energy_from_dict, "game": game_from_dict}
    if kind not in readers:
        raise FormatError(f"unknown instance kind {kind!r}")
    try:
        return readers[kind](data)
    except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
        raise FormatError(f"malformed {kind} instance: {type(exc).__name__}: {exc}") from exc


# --------------------------------------------------------------------
# results
# --------------------------------------------------------------------
def result_to_dict(report: SolveReport, algorithm: str) -> dict:
    out = {
        "kind": "result",
        "algorithm": algorithm,
        "status": report.status,
        "iterations": report.iterations,
        "pieces_per_leader": list(report.pieces_per_leader),
        "objective_values": list(report.objective_values),
        "leaders": None,
        "market_prices": [],
    }
    if report.profile is not None:
        out["market_prices"] = report.profile.market.tolist()
        out["leaders"] = [
            {
                "support": [
                    {"point": pt.tolist(), "probability": float(pr)} for pt, pr in sup
                ]
            }
            for sup in report.profile.supports
        ]
    return out


def profile_from_dict(data: dict) -> MixedProfile:
    """The profile a parsed result file carries; a missing, mistyped or
    empty entry raises ``FormatError``."""
    if data.get("leaders") is None:
        raise FormatError("result carries no equilibrium profile")
    try:
        supports = tuple(
            tuple(
                (np.array(e["point"], dtype=float), float(e["probability"]))
                for e in leader["support"]
            )
            for leader in data["leaders"]
        )
        market = np.array(data.get("market_prices", []), dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed result: {type(exc).__name__}: {exc}") from exc
    if not all(supports) or any(pt.ndim != 1 for sup in supports for pt, _ in sup):
        raise FormatError("malformed result: an empty support or a point that is not a list")
    return MixedProfile(supports=supports, market=market)


def energy_report_to_dict(rep: EnergyReport) -> dict:
    return {
        "kind": "energy_report",
        "clearing_price": rep.clearing_price,
        "total_emission": rep.total_emission,
        "trade_volume": rep.trade_volume,
        "countries": [
            {
                "name": c.name,
                "production": list(c.production),
                "price": c.price,
                "imports": c.imports,
                "exports": c.exports,
                "taxes": list(c.taxes),
                "emission": c.emission,
            }
            for c in rep.countries
        ],
    }
