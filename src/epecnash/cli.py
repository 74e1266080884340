"""Command-line front end.

Subcommands: ``generate`` (random energy instances), ``solve`` (full /
inner / pure algorithms), ``validate`` (re-certify a stored result),
``report`` (market quantities for energy instances).  Exit codes:

    0  solved with an equilibrium / validation passed
    2  solved: no equilibrium exists (still a successful solve)
    3  time limit reached
    4  input or invariant error (including a command-line usage error,
       a malformed instance file, and a set with more complementarity
       pairs than full piece enumeration accepts)
    5  internal numerical failure
    6  out of memory
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .algorithms import (
    clearing_residual,
    deviation_check,
    full_enumeration,
    inner_approximation,
    pure_enumeration,
)
from .energy import EnergyInstance, InvalidInstance, ProfileMismatch, build_game
from .energy import report as energy_report
from .generators import GenConfig, InvalidConfig, gen_energy
from .leadergame import MultiLeaderGame, leader_feasible_set
from .lp import LpError, NumericalFailure
from .polyhedra import TooManyComplementarities, contains
from .tolerances import DEVIATION_TOL, REPORT_TOL
from . import serialize

EXIT_EQUILIBRIUM = 0
EXIT_NO_EQUILIBRIUM = 2
EXIT_TIME_LIMIT = 3
EXIT_INPUT = 4
EXIT_NUMERICAL = 5
EXIT_MEMORY = 6

DEFAULT_TIME_LIMIT = 1800.0


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise serialize.FormatError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise serialize.FormatError(f"{path} holds no JSON object")
    return data


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize.dumps(payload))


def _as_game(obj) -> MultiLeaderGame:
    return build_game(obj) if isinstance(obj, EnergyInstance) else obj


def _selection_vector(game: MultiLeaderGame) -> np.ndarray:
    """Selection criterion: minimize the sum of the leaders' own linear
    objective terms (bilinear parts are not linear in one profile and
    stay out of the criterion)."""
    return np.concatenate([np.asarray(c, dtype=float) for c in game.objectives])


def cmd_generate(args) -> int:
    cfg = GenConfig(
        seed=args.seed,
        countries=args.countries,
        followers=(args.followers_min, args.followers),
        trade=not args.no_trade,
        tax_revenue=args.tax_revenue,
        paradigms=tuple(args.paradigms.split(",")),
    )
    inst = gen_energy(cfg)
    _write(args.out, serialize.energy_to_dict(inst))
    return EXIT_EQUILIBRIUM


def cmd_solve(args) -> int:
    obj = serialize.load_instance(_read_json(getattr(args, "in")))
    game = _as_game(obj)
    selection = _selection_vector(game) if args.select else None
    if args.algorithm == "full":
        rep = full_enumeration(game, selection=selection, budget=args.timelimit)
    elif args.algorithm == "pure":
        rep = pure_enumeration(game, selection=selection, budget=args.timelimit)
    else:
        rep = inner_approximation(
            game,
            strategy=args.strategy,
            k=args.k,
            seed=args.seed,
            budget=args.timelimit,
        )
    _write(args.out, serialize.result_to_dict(rep, args.algorithm))
    print(
        f"status={rep.status} iterations={rep.iterations} "
        f"pieces={list(rep.pieces_per_leader)} wall={rep.wall_time:.2f}s",
        file=sys.stderr,
    )
    if rep.status == "TimeLimit":
        return EXIT_TIME_LIMIT
    if rep.status == "NoEquilibrium":
        return EXIT_NO_EQUILIBRIUM
    return EXIT_EQUILIBRIUM


def cmd_validate(args) -> int:
    obj = serialize.load_instance(_read_json(getattr(args, "in")))
    game = _as_game(obj)
    data = _read_json(args.result)
    if data.get("status") in ("NoEquilibrium", "TimeLimit"):
        print("result carries no profile; nothing to validate", file=sys.stderr)
        return EXIT_EQUILIBRIUM
    profile = serialize.profile_from_dict(data)
    if len(profile.supports) != len(game.leaders):
        print("validate: wrong number of leaders", file=sys.stderr)
        return EXIT_INPUT
    if len(profile.market) != game.n_market:
        print(
            f"validate: {len(profile.market)} market prices for {game.n_market} clearing rows",
            file=sys.stderr,
        )
        return EXIT_INPUT
    sets = [leader_feasible_set(leader) for leader in game.leaders]
    for i, sup in enumerate(profile.supports):
        probs = [pr for _, pr in sup]
        if min(probs) < -1e-9 or abs(sum(probs) - 1.0) > 1e-9:
            print(f"validate: leader {i} probabilities invalid", file=sys.stderr)
            return EXIT_INPUT
        for pt, _ in sup:
            if len(pt) != sets[i].n or not contains(sets[i], pt, DEVIATION_TOL):
                print(f"validate: leader {i} support point infeasible", file=sys.stderr)
                return EXIT_INPUT
    residual = clearing_residual(game, profile)
    print(f"validate: clearing residual {residual:.3e}", file=sys.stderr)
    if residual > REPORT_TOL:
        print("validate: market clearing violated", file=sys.stderr)
        return EXIT_INPUT
    devs = deviation_check(game, profile, sets=sets)
    for dev in devs:
        if dev is not None:
            print(
                f"validate: leader {dev.leader} improves by {dev.improvement:.3e}",
                file=sys.stderr,
            )
            return EXIT_INPUT
    print("validate: certified equilibrium", file=sys.stderr)
    return EXIT_EQUILIBRIUM


def cmd_report(args) -> int:
    obj = serialize.load_instance(_read_json(getattr(args, "in")))
    if not isinstance(obj, EnergyInstance):
        print("report: needs an energy instance", file=sys.stderr)
        return EXIT_INPUT
    data = _read_json(args.result)
    profile = serialize.profile_from_dict(data)
    rep = energy_report(obj, profile)
    _write(args.out, serialize.energy_report_to_dict(rep))
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["country", "price", "imports", "exports", "emission", "taxes", "production"]
            )
            for c in rep.countries:
                writer.writerow(
                    [
                        c.name,
                        c.price,
                        c.imports,
                        c.exports,
                        c.emission,
                        " ".join(repr(t) for t in c.taxes),
                        " ".join(repr(v) for v in c.production),
                    ]
                )
    return EXIT_EQUILIBRIUM


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 4, since 2 (argparse's own code) means that no
    equilibrium exists; ``--help`` still exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="epecnash",
        description="equilibria for Nash games among bilevel leaders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a random energy instance")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--countries", type=int, default=2)
    g.add_argument("--followers", type=int, default=3, help="max followers per country")
    g.add_argument("--followers-min", type=int, default=None)
    g.add_argument("--no-trade", action="store_true")
    g.add_argument("--tax-revenue", action="store_true")
    g.add_argument("--paradigms", default="standard,single,carbon")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="compute an equilibrium")
    s.add_argument("--in", required=True)
    s.add_argument("--algorithm", choices=("full", "inner", "pure"), default="full")
    s.add_argument("--strategy", choices=("seq", "rseq", "rand"), default="seq")
    s.add_argument("--k", type=positive_int, default=1)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--timelimit", type=float, default=DEFAULT_TIME_LIMIT)
    s.add_argument("--select", action="store_true", help="equilibrium selection")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("validate", help="re-certify a stored result")
    v.add_argument("--in", required=True)
    v.add_argument("--result", required=True)
    v.set_defaults(func=cmd_validate)

    r = sub.add_parser("report", help="market quantities for an energy result")
    r.add_argument("--in", required=True)
    r.add_argument("--result", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--csv", default=None)
    r.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate" and args.followers_min is None:
        args.followers_min = args.followers
    try:
        return args.func(args)
    except (
        serialize.FormatError,
        InvalidInstance,
        InvalidConfig,
        ProfileMismatch,
        TooManyComplementarities,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalFailure, LpError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
