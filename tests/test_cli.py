import json
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from epecnash import cli
from epecnash.cli import EXIT_INPUT, EXIT_MEMORY, main
from epecnash.generators import matching_pennies_game, split_interval_game
from epecnash.serialize import (
    dumps,
    energy_from_dict,
    energy_to_dict,
    game_from_dict,
    game_to_dict,
)
from epecnash.algorithms import LeaderPieces, _assemble_hull_game, full_enumeration
from epecnash.leadergame import leader_feasible_set
from epecnash.nashgame import kkt_system
from epecnash.polyhedra import Deadline
from epecnash.energy import PARADIGMS, ProfileMismatch, build_game, report
from epecnash.generators import GenConfig, gen_energy
from epecnash.serialize import profile_from_dict

from tests.helpers import exporting_point, symmetric_pair


def _write_game(path, game):
    path.write_text(dumps(game_to_dict(game)))


def _dense(m) -> np.ndarray:
    return m.toarray() if sp.issparse(m) else np.asarray(m)


def _hull_kkt_size(game) -> tuple:
    """Rows, columns, pairs and nonzeros of the full-enumeration KKT system."""
    hulls = []
    for leader in game.leaders:
        sel = LeaderPieces(leader_feasible_set(leader), None, Deadline())
        sel.extend()
        hulls.append(sel.hull())
    s, _ = kkt_system(_assemble_hull_game(game, hulls).game)
    return s.a.shape, s.a_eq.shape, s.num_pairs, sp.csr_matrix(s.a_eq).nnz


class TestSerialization:
    def test_energy_round_trip(self):
        inst = gen_energy(GenConfig(seed=5))
        data = json.loads(dumps(energy_to_dict(inst)))
        again = energy_from_dict(data)
        assert dumps(energy_to_dict(again)) == dumps(energy_to_dict(inst))

    def test_game_round_trip_preserves_solutions(self):
        game = split_interval_game(flipped=True)
        data = json.loads(dumps(game_to_dict(game)))
        again = game_from_dict(data)
        first = full_enumeration(game)
        second = full_enumeration(again)
        assert first.status == second.status == "PNE"
        assert second.profile.mean(1)[0] == pytest.approx(
            first.profile.mean(1)[0], abs=1e-9
        )

    def test_game_file_keeps_equalities(self):
        # the file holds each set's equality rows as they are, so C2F8 s1
        # read back has the built game's sets and the same hull-game KKT size
        game = build_game(gen_energy(GenConfig(seed=1, countries=2, followers=(8, 8))))
        again = game_from_dict(json.loads(dumps(game_to_dict(game))))
        for built, read in zip(game.leaders, again.leaders):
            s, r = leader_feasible_set(built), leader_feasible_set(read)
            for name in ("a", "b", "a_eq", "b_eq", "m_mat", "q"):
                assert np.array_equal(_dense(getattr(s, name)), _dense(getattr(r, name))), name
        assert _hull_kkt_size(again) == _hull_kkt_size(game)

    @pytest.mark.parametrize(
        "make",
        [lambda: split_interval_game(flipped=True), matching_pennies_game],
        ids=["split-interval-flipped", "matching-pennies"],
    )
    def test_inequality_only_file_still_solves(self, make):
        # a file that wrote each equality as a row block followed by its
        # negation, with no a_eq, loads as those <= rows and solves alike
        game = make()
        data = json.loads(dumps(game_to_dict(game)))
        for entry in data["leaders"]:
            raw = entry["set"]
            a_eq, b_eq = raw.pop("a_eq"), raw.pop("b_eq")
            raw["a"] += a_eq + [[-v for v in row] for row in a_eq]
            raw["b"] += b_eq + [-v for v in b_eq]
        again = game_from_dict(data)
        assert all(leader_feasible_set(l).a_eq.shape[0] == 0 for l in again.leaders)
        first, second = full_enumeration(game), full_enumeration(again)
        assert first.status == second.status
        for i in range(len(game.leaders)):
            assert second.profile.mean(i) == pytest.approx(first.profile.mean(i), abs=1e-7)


class TestCli:
    def test_no_equilibrium_exit_code(self, tmp_path):
        inst = tmp_path / "game.json"
        out = tmp_path / "result.json"
        _write_game(inst, split_interval_game())
        code = main(["solve", "--in", str(inst), "--algorithm", "full", "--out", str(out)])
        assert code == 2
        assert json.loads(out.read_text())["status"] == "NoEquilibrium"

    def test_pure_vs_full_on_matching_pennies(self, tmp_path):
        inst = tmp_path / "game.json"
        _write_game(inst, matching_pennies_game())
        out_pure = tmp_path / "pure.json"
        assert main(["solve", "--in", str(inst), "--algorithm", "pure", "--out", str(out_pure)]) == 2
        out_full = tmp_path / "full.json"
        assert main(["solve", "--in", str(inst), "--algorithm", "full", "--out", str(out_full)]) == 0
        data = json.loads(out_full.read_text())
        assert data["status"] == "MNE"
        for leader in data["leaders"]:
            probs = sorted(e["probability"] for e in leader["support"])
            assert probs == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_round_trip_generate_solve_validate_report(self, tmp_path):
        inst = tmp_path / "inst.json"
        res = tmp_path / "res.json"
        rep = tmp_path / "rep.json"
        csvf = tmp_path / "rep.csv"
        assert main(["generate", "--seed", "11", "--countries", "2",
                     "--followers", "2", "--out", str(inst)]) == 0
        assert main(["solve", "--in", str(inst), "--algorithm", "inner",
                     "--strategy", "rseq", "--k", "1", "--out", str(res)]) == 0
        assert main(["validate", "--in", str(inst), "--result", str(res)]) == 0
        assert main(["report", "--in", str(inst), "--result", str(res),
                     "--out", str(rep), "--csv", str(csvf)]) == 0
        data = json.loads(rep.read_text())
        assert data["total_emission"] > 0
        assert csvf.read_text().startswith("country,")

    def test_twenty_seeded_round_trips(self, tmp_path):
        # generate -> solve -> validate for 20 small seeded instances
        for seed in range(200, 220):
            inst = tmp_path / f"i{seed}.json"
            res = tmp_path / f"r{seed}.json"
            assert main(["generate", "--seed", str(seed), "--countries", "2",
                         "--followers", "2", "--followers-min", "1",
                         "--out", str(inst)]) == 0
            code = main(["solve", "--in", str(inst), "--algorithm", "full",
                         "--timelimit", "60", "--out", str(res)])
            assert code in (0, 2), seed
            if code == 0:
                assert main(["validate", "--in", str(inst), "--result", str(res)]) == 0, seed

    def test_tampered_probabilities_fail_validation(self, tmp_path):
        inst = tmp_path / "game.json"
        res = tmp_path / "res.json"
        _write_game(inst, matching_pennies_game())
        assert main(["solve", "--in", str(inst), "--algorithm", "full", "--out", str(res)]) == 0
        data = json.loads(res.read_text())
        data["leaders"][0]["support"][0]["probability"] = 0.6
        res.write_text(json.dumps(data))
        assert main(["validate", "--in", str(inst), "--result", str(res)]) == 4

    @pytest.mark.parametrize("paradigm", PARADIGMS)
    @pytest.mark.parametrize("trade", [True, False])
    @pytest.mark.parametrize("tax_revenue", [False, True])
    def test_validate_rejects_what_report_rejects_on_clearing(
        self, tmp_path, capsys, paradigm, trade, tax_revenue
    ):
        # validate reads the clearing rows of the game, report the
        # country totals of the energy instance: on every profile a solve
        # returns, both accept, and validate certifies it
        inst = tmp_path / "inst.json"
        res = tmp_path / "res.json"
        energy = symmetric_pair(trade=trade, tax_revenue=tax_revenue, paradigm=paradigm)
        inst.write_text(dumps(energy_to_dict(energy)))
        for algorithm in ("full", "inner"):
            code = main(["solve", "--in", str(inst), "--algorithm", algorithm,
                         "--out", str(res)])
            assert code == 0, algorithm
            report(energy, profile_from_dict(json.loads(res.read_text())))
            capsys.readouterr()
            assert main(["validate", "--in", str(inst), "--result", str(res)]) == 0, algorithm
            err = capsys.readouterr().err
            assert "clearing residual" in err and "certified equilibrium" in err

    def test_validate_and_report_refuse_a_profile_that_breaks_clearing(
        self, tmp_path, capsys
    ):
        # a crafted profile: the first country's point is its least export
        # of at least 1 over its own set, the second's is its equilibrium
        # point, at which the countries do not trade, so each point lies in
        # its set but the trade no longer balances
        energy = symmetric_pair(trade=True)
        inst = tmp_path / "inst.json"
        res = tmp_path / "res.json"
        inst.write_text(dumps(energy_to_dict(energy)))
        assert main(["solve", "--in", str(inst), "--algorithm", "pure", "--out", str(res)]) == 0
        data = json.loads(res.read_text())
        data["leaders"][0]["support"][0]["point"] = exporting_point(build_game(energy)).tolist()
        res.write_text(json.dumps(data))
        with pytest.raises(ProfileMismatch, match="market clearing"):
            report(energy, profile_from_dict(data))
        capsys.readouterr()
        assert main(["validate", "--in", str(inst), "--result", str(res)]) == EXIT_INPUT
        assert "market clearing violated" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "report"])
    @pytest.mark.parametrize(
        "prices",
        [None, [], [1.0, 1.0]],
        ids=["missing", "short", "long"],
    )
    def test_a_wrong_count_of_market_prices_is_an_input_error(
        self, tmp_path, capsys, command, prices
    ):
        # a traded instance has one clearing row, so its result carries one
        # price; validate and report refuse any other count
        energy = symmetric_pair(trade=True)
        inst = tmp_path / "inst.json"
        res = tmp_path / "res.json"
        inst.write_text(dumps(energy_to_dict(energy)))
        assert main(["solve", "--in", str(inst), "--algorithm", "pure", "--out", str(res)]) == 0
        data = json.loads(res.read_text())
        assert len(data["market_prices"]) == 1
        if prices is None:
            del data["market_prices"]
        else:
            data["market_prices"] = prices
        res.write_text(json.dumps(data))
        argv = [command, "--in", str(inst), "--result", str(res)]
        if command == "report":
            argv += ["--out", str(tmp_path / "out.json")]
        capsys.readouterr()
        assert main(argv) == EXIT_INPUT
        assert "market prices for 1 clearing rows" in capsys.readouterr().err

    def test_solve_deterministic_bytes(self, tmp_path):
        inst = tmp_path / "inst.json"
        assert main(["generate", "--seed", "21", "--countries", "2",
                     "--followers", "2", "--out", str(inst)]) == 0
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["solve", "--in", str(inst), "--algorithm", "full",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_bad_input_exit_code(self, tmp_path):
        missing = tmp_path / "missing.json"
        out = tmp_path / "out.json"
        assert main(["solve", "--in", str(missing), "--out", str(out)]) == 4
        junk = tmp_path / "junk.json"
        junk.write_text('{"kind": "nonsense"}')
        assert main(["solve", "--in", str(junk), "--out", str(out)]) == 4
        junk.write_text("[]")
        assert main(["solve", "--in", str(junk), "--out", str(out)]) == 4

    @pytest.mark.parametrize(
        "kind, breaks",
        [
            ("game", lambda d: d["leaders"][0]["set"]["b"].pop()),  # A/b row mismatch
            ("game", lambda d: d["leaders"][0].pop("set")),
            # the interval leader's one equality row, one column too wide
            ("game", lambda d: d["leaders"][1]["set"]["a_eq"][0].append(0.0)),
            ("game", lambda d: d["leaders"][1]["set"]["b_eq"].append(0.0)),  # A_eq/b_eq rows
            ("energy", lambda d: d["countries"][0]["producers"][0].pop("capacity")),
        ],
        ids=["game-ab-rows", "game-no-set", "game-aeq-width", "game-aeq-beq-rows",
             "energy-no-capacity"],
    )
    def test_malformed_instance_is_an_input_error(self, tmp_path, capsys, kind, breaks):
        if kind == "game":
            data = game_to_dict(split_interval_game())
        else:
            data = energy_to_dict(gen_energy(GenConfig(seed=1)))
        breaks(data)
        inst = tmp_path / "inst.json"
        inst.write_text(dumps(data))
        code = main(["solve", "--in", str(inst), "--out", str(tmp_path / "out.json")])
        assert code == EXIT_INPUT
        assert f"input error: malformed {kind} instance" in capsys.readouterr().err

    @staticmethod
    def _check_result(tmp_path, command: str, result) -> int:
        """``command`` run on an energy instance and the JSON ``result``."""
        inst, res = tmp_path / "inst.json", tmp_path / "res.json"
        inst.write_text(dumps(energy_to_dict(gen_energy(GenConfig(seed=1)))))
        res.write_text(json.dumps(result))
        argv = [command, "--in", str(inst), "--result", str(res)]
        if command == "report":
            argv += ["--out", str(tmp_path / "out.json")]
        return main(argv)

    @pytest.mark.parametrize("command", ["validate", "report"])
    @pytest.mark.parametrize(
        "support",
        [
            [{"probability": 1.0}],
            [{"point": "abc", "probability": 1.0}],
            [{"point": 0.0, "probability": 1.0}],
            [],
        ],
        ids=["no-point", "point-not-numbers", "point-not-a-list", "empty-support"],
    )
    def test_malformed_result_is_an_input_error(self, tmp_path, capsys, command, support):
        valid = [{"point": [0.0], "probability": 1.0}]
        result = {
            "kind": "result",
            "status": "PNE",
            "leaders": [{"support": support}, {"support": valid}],  # the instance has two
            "market_prices": [],
        }
        assert self._check_result(tmp_path, command, result) == EXIT_INPUT
        assert "input error: malformed result" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "report"])
    def test_result_that_is_not_an_object_is_an_input_error(self, tmp_path, capsys, command):
        assert self._check_result(tmp_path, command, []) == EXIT_INPUT
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--algorithm", "nope"],
            ["--timelimit", "abc"],
            ["--algorithm", "inner", "--k", "0"],
            ["--timelimit", "nan"],
            ["--timelimit", "-1"],
            ["--timelimit", "0"],
        ],
        ids=["bad-choice", "bad-float", "k-below-one", "nan-limit", "negative-limit", "zero-limit"],
    )
    def test_usage_error_is_an_input_error(self, tmp_path, capsys, extra):
        inst = tmp_path / "game.json"
        out = tmp_path / "out.json"
        _write_game(inst, split_interval_game())
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--in", str(inst), "--out", str(out), *extra])
        assert exc.value.code == EXIT_INPUT
        assert "error: argument" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert "--timelimit" in capsys.readouterr().out

    def test_console_entry_point(self, tmp_path):
        inst = tmp_path / "inst.json"
        proc = subprocess.run(
            [sys.executable, "-m", "epecnash.cli", "generate", "--seed", "1",
             "--countries", "2", "--followers", "1", "--out", str(inst)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert json.loads(inst.read_text())["kind"] == "energy"

    def test_timelimit_exit_code(self, tmp_path):
        inst = tmp_path / "inst.json"
        out = tmp_path / "out.json"
        assert main(["generate", "--seed", "31", "--countries", "2",
                     "--followers", "3", "--out", str(inst)]) == 0
        code = main(["solve", "--in", str(inst), "--timelimit", "1e-5",
                     "--out", str(out)])
        assert code == 3
        assert json.loads(out.read_text())["status"] == "TimeLimit"

    def test_too_many_complementarities_is_an_input_error(self, tmp_path, capsys):
        # 13 producers per country give 26 pairs, above the enumeration cap
        inst = tmp_path / "inst.json"
        out = tmp_path / "out.json"
        assert main(["generate", "--seed", "1", "--countries", "2",
                     "--followers", "13", "--out", str(inst)]) == 0
        code = main(["solve", "--in", str(inst), "--out", str(out)])
        assert code == EXIT_INPUT
        assert "exceeds cap" in capsys.readouterr().err

    def test_unknown_paradigm_is_an_input_error(self, tmp_path, capsys):
        # seed 4 draws no country with the bad name, so only the config
        # check can refuse it
        inst = tmp_path / "inst.json"
        code = main(["generate", "--countries", "2", "--followers", "2",
                     "--paradigms", "standard,bogus", "--seed", "4", "--out", str(inst)])
        assert code == EXIT_INPUT
        assert "bogus" in capsys.readouterr().err
        assert not inst.exists()

    def test_memory_error_exit_code(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 11.4 GiB")

        monkeypatch.setattr(cli, "full_enumeration", exhausted)
        inst = tmp_path / "game.json"
        out = tmp_path / "out.json"
        _write_game(inst, matching_pennies_game())
        code = main(["solve", "--in", str(inst), "--algorithm", "full", "--out", str(out)])
        assert code == EXIT_MEMORY
        assert "out of memory" in capsys.readouterr().err
        assert not out.exists()
