"""JSON round-trips for instances, games, and solver results.

Two instance kinds share one file format, discriminated by ``kind``:

``energy``
    Mirrors the energy-market specs: countries with producers, demand,
    price cap, tax paradigm/caps, plus the instance-level trade flag.

``game``
    A multi-leader game in raw matrix form: per leader its derived
    feasible set (dense A, b, A_eq, b_eq, M, q and the complementarity
    indices; a set without A_eq has no equality rows) and linear
    objective; game-level bilinear couplings and optional
    market-clearing rows.

Results carry full support points as arrays.  Serialization is
deterministic: keys sorted, no whitespace, floats written with
shortest-round-trip precision (17 significant digits when needed).
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .algorithms import MixedProfile, SolveReport
from .energy import CountrySpec, EnergyInstance, EnergyReport, ProducerSpec
from .leadergame import MultiLeaderGame, StackelbergLeader, leader_feasible_set
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
    return {"kind": "energy", **asdict(inst)}


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


def game_to_dict(game: MultiLeaderGame) -> dict:
    """The game in raw matrix form: each leader's set as it is, its
    inequality and equality rows apart."""
    leaders = []
    for i, leader in enumerate(game.leaders):
        s = leader_feasible_set(leader)
        leaders.append(
            {
                "name": leader.name,
                "n_leader": leader.n_leader,
                "objective": _mat(game.objectives[i]),
                "set": {
                    "a": _mat(s.a),
                    "b": _mat(s.b),
                    "a_eq": _mat(s.a_eq),
                    "b_eq": _mat(s.b_eq),
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


def _matrix(rows: list, n: int) -> np.ndarray:
    """A file's list of rows as an (m, n) array; an empty list is (0, n)."""
    return np.array(rows, dtype=float).reshape(-1, n)


def game_from_dict(data: dict) -> MultiLeaderGame:
    """The game a ``game_to_dict`` file holds.  A set without ``a_eq``
    has no equality rows, as in files that wrote each equality as two
    ``<=`` rows; those load as written."""
    leaders = []
    objectives = []
    for entry in data["leaders"]:
        raw = entry["set"]
        n = len(entry["objective"])
        feasible = ComplementaritySet(
            a=_matrix(raw["a"], n),
            b=np.array(raw["b"], dtype=float),
            a_eq=_matrix(raw["a_eq"], n) if "a_eq" in raw else None,
            b_eq=np.array(raw["b_eq"], dtype=float) if "b_eq" in raw else None,
            m_mat=_matrix(raw["m"], n),
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
    return {"kind": "energy_report", **asdict(rep)}
