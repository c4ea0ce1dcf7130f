"""Command-line front end: parsing, formats, exit codes."""

import argparse
import csv
import io
import json
import warnings

import pytest

import twostate.pointer
from twostate.cli import build_parser, main

MZ_DOC = {
    "name": "mz-file",
    "dim": 2,
    "pre": [1, 0],
    "timeline": [
        {"unitary": [[[0.7071067811865476, 0], [0, 0.7071067811865476]],
                     [[0, 0.7071067811865476], [0.7071067811865476, 0]]]},
    ],
    "post": {"observable": {"pauli": "z"}, "select": 1},
    "trials": 2000,
    "seed": 3,
}


OUTPUT = {"--format", "--out"}
SELECTIONS = {"--pre", "--post", "--obs"}
SAMPLING = {"--trials", "--seed"}
OPTIONS = {
    "born": {"--state", "--obs"} | OUTPUT,
    "abl": SELECTIONS | OUTPUT,
    "weak": SELECTIONS | OUTPUT,
    "pointer-sweep": SELECTIONS | {"--couplings", "--sigma", "--n", "--span"} | OUTPUT,
    "simulate": {"--pre", "--measure", "--post", "--select"} | SAMPLING | OUTPUT,
    "scenario": {"--builtin", "--file", "--mode", "--z", "--no-which-path", "--theta", "--theta-ab",
                 "--theta-bc", "--theta-1a", "--theta-1b", "--theta-2a", "--theta-2b", "--phi"}
    | SAMPLING | OUTPUT,
    "paper-checks": {"--z"} | SAMPLING | OUTPUT,
}
# the smallest valid argument list of each command that does not take --trials, --seed and --z
VALID = {
    "born": ["--state", "up-z", "--obs", "pauli-z"],
    "abl": ["--pre", "up-z", "--post", "up-x", "--obs", "pauli-z"],
    "weak": ["--pre", "up-z", "--post", "up-x", "--obs", "pauli-z"],
    "pointer-sweep": ["--pre", "up-z", "--post", "up-x", "--obs", "pauli-z"],
    "simulate": ["--pre", "up-z", "--post", "pauli-z"],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOptions:
    def test_each_command_takes_exactly_the_options_it_reads(self):
        parser = build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        taken = {
            name: {s for action in sub._actions for s in action.option_strings} - {"-h", "--help"}
            for name, sub in commands.items()
        }
        assert taken == OPTIONS
        assert sum(map(len, taken.values())) == 53

    @pytest.mark.parametrize("command, flag", [
        *((command, flag) for command in ("born", "abl", "weak", "pointer-sweep")
          for flag in ("--trials", "--seed", "--z")),
        ("simulate", "--z"),
    ])
    def test_options_a_command_ignores_are_rejected(self, capsys, command, flag):
        build_parser().parse_args([command, *VALID[command]])
        with pytest.raises(SystemExit) as exc:
            main([command, *VALID[command], flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


class TestAbl:
    def test_orthogonal_post_kills_branch(self, capsys):
        code, out, _ = run(capsys, "abl", "--pre", "up-z", "--post", "up-x", "--obs", "pauli-z")
        assert code == 0
        lines = {l.split()[0]: l.split()[1] for l in out.strip().splitlines()[1:]}
        assert lines["1"] == "1" and lines["-1"] == "0"

    def test_equal_selections_tilted(self, capsys):
        code, out, _ = run(
            capsys, "abl", "--pre", "up-z", "--post", "up-z", "--obs", "spin:1.0471975511965976"
        )
        assert code == 0
        assert "0.9" in out

    def test_zero_denominator_exit_code(self, capsys):
        code, _, err = run(capsys, "abl", "--pre", "up-z", "--post", "down-z", "--obs", "pauli-z")
        assert code == 3
        assert "unreachable" in err

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "abl", "--pre", "sideways", "--post", "up-z", "--obs", "pauli-z")
        assert code == 2
        assert "unknown state" in err

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "abl", "--pre", "up-z", "--post", "up-x", "--obs", "pauli-z",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert {row["eigenvalue"]: row["probability"] for row in rows} == {1.0: 1.0, -1.0: 0.0}


class TestWeak:
    def test_imaginary_weak_value(self, capsys):
        code, out, _ = run(capsys, "weak", "--pre", "up-z", "--post", "up-x", "--obs", "pauli-y")
        assert code == 0
        assert "0 + 1i" in out

    def test_zero_overlap_exit_code(self, capsys):
        code, _, _ = run(capsys, "weak", "--pre", "up-z", "--post", "down-z", "--obs", "pauli-y")
        assert code == 3

    def test_json_and_csv_formats(self, capsys):
        argv = ["weak", "--pre", "up-z", "--post", "up-x", "--obs", "pauli-y", "--format"]
        code, out, _ = run(capsys, *argv, "json")
        assert code == 0
        re, im = json.loads(out)["weak_value"]
        assert re == 0.0 and im == pytest.approx(1.0, abs=1e-15)
        assert out == json.dumps({"weak_value": [re, im]}, indent=2) + "\n"
        # full precision and \r\n rows, like every other CSV
        code, out, _ = run(capsys, *argv, "csv")
        assert (code, out) == (0, "re,im\r\n0.0,0.9999999999999997\r\n")


class TestBorn:
    def test_distribution(self, capsys):
        code, out, _ = run(
            capsys, "born", "--state", "up-z", "--obs", "spin:1.0471975511965976",
            "--format", "json",
        )
        assert code == 0
        rows = {r["eigenvalue"]: r["probability"] for r in json.loads(out)}
        assert rows[1.0] == pytest.approx(0.75)


class TestSimulate:
    def test_conditional_frequency(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--pre", "up-z", "--measure", "spin:1.5707963267948966",
            "--post", "pauli-z", "--select", "1", "--trials", "20000", "--seed", "2",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        probe = [r for r in rows if r["stage"] == "m0" and r["eigenvalue"] == 1.0]
        assert abs(probe[0]["frequency"] - 0.5) < 0.02

    def test_all_rejected_exit_code(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--pre", "up-z", "--post", "pauli-z", "--select", "-1",
            "--trials", "100",
        )
        assert code == 4
        assert "zero accepted" in err

    def test_bad_select_exit_code(self, capsys):
        code, _, _ = run(
            capsys, "simulate", "--pre", "up-z", "--post", "pauli-z", "--select", "0.3",
            "--trials", "100",
        )
        assert code == 2

    def test_seed_beyond_64_bits_exit_code(self, capsys):
        # 2**64 must not alias seed 0
        code, _, err = run(
            capsys, "simulate", "--pre", "up-z", "--post", "pauli-z",
            "--trials", "100", "--seed", str(2**64),
        )
        assert code == 2
        assert "seed" in err

    def test_twenty_alternating_stages(self, capsys):
        measures = ["--measure", "spin:1.0:0.5", "--measure", "pauli-x"] * 10
        code, out, _ = run(
            capsys, "simulate", "--pre", "up-z", *measures, "--post", "pauli-x",
            "--trials", "4000", "--seed", "3", "--format", "json",
        )
        assert code == 0
        assert {r["stage"] for r in json.loads(out)} == {"acceptance"} | {f"m{i}" for i in range(20)}


class TestScenario:
    def test_builtin_with_params(self, capsys):
        code, out, _ = run(
            capsys, "scenario", "--builtin", "sharp-shanks",
            "--theta-ab", "1.0471975511965976", "--theta-bc", "1.5707963267948966",
            "--mode", "both", "--trials", "30000", "--seed", "3",
        )
        assert code == 0
        assert "analytic 0.75" in out
        assert "verdict: pass" in out

    def test_non_list_counterfactuals_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(MZ_DOC, counterfactuals=5)))
        code, _, err = run(capsys, "scenario", "--file", str(path))
        assert code == 2
        assert "counterfactuals" in err

    def test_top_seed_derives_wrapped_sub_seeds(self, capsys):
        # the counterfactual oracle runs use seed + 1 + j, reduced mod 2**64
        code, out, _ = run(
            capsys, "scenario", "--builtin", "reality-pair", "--trials", "2000",
            "--seed", str(2**64 - 1),
        )
        assert code == 0
        assert "verdict: pass" in out

    def test_all_rejected_counterfactual_run_names_the_scenario(self, capsys):
        code, _, err = run(capsys, "scenario", "--builtin", "reality-pair", "--trials", "1", "--seed", "3")
        assert code == 4
        assert "scenario 'reality-pair': zero accepted" in err

    @pytest.mark.parametrize("argv, named", [
        (("reality-pair", "--trials", "1", "--seed", "8"), "scenario 'reality-pair', stage 'counterfactual:sz': 1 "),
        (("spin-zz-xi", "--trials", "120", "--seed", "2"), "scenario 'spin-zz-xi', stage 'probe': 71 "),
    ], ids=["counterfactual-row", "stage-row"])
    def test_comparison_below_the_floor_names_the_scenario_and_stage(self, capsys, argv, named):
        code, _, err = run(capsys, "scenario", "--builtin", *argv)
        assert code == 4
        assert err == f"error: {named}accepted trials < floor 100\n"

    @pytest.mark.parametrize("strength", [0, -0.1, float("nan")])
    def test_bad_weak_strength_exit_code(self, capsys, tmp_path, strength):
        doc = dict(MZ_DOC, timeline=[
            {"weak_measure": {"operator": {"pauli": "z"}, "strength": strength, "label": "wz"}}
        ])
        path = tmp_path / "weak.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "scenario", "--file", str(path))
        assert code == 2
        assert "timeline[0].weak_measure.strength" in err

    @pytest.mark.parametrize("mode, exit_code", [("analytic", 0), ("oracle", 2), ("both", 2)])
    def test_weak_strength_beyond_the_grid(self, capsys, tmp_path, mode, exit_code):
        # the pointer check couples at the stated strength, whose shift the grid holds up to span/4 = 16 sigma;
        # the analytic mode reads no pointer
        doc = dict(MZ_DOC, timeline=[
            {"weak_measure": {"operator": {"pauli": "z"}, "strength": 1e300, "label": "wz"}}
        ])
        path = tmp_path / "weak.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "scenario", "--file", str(path), "--mode", mode)
        assert code == exit_code
        if exit_code:
            assert out == ""
            assert err.startswith("error: timeline[0].weak_measure.strength: max branch shift 1e+300 exceeds "
                                  "span/4 = 16")
        else:
            assert "weak probe wz (strength 1e+300): 1 + 0i" in out

    @pytest.mark.parametrize("field, entry", [
        ("counterfactuals", {"label": "p", "observable": {"pauli": "x"}}),
        ("products", {"label": "p", "left": {"pauli": "x"}, "right": {"pauli": "z"}}),
    ])
    def test_duplicate_labels_exit_code(self, capsys, tmp_path, field, entry):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(dict(MZ_DOC, timeline=[], **{field: [entry, entry]})))
        code, _, err = run(capsys, "scenario", "--file", str(path))
        assert code == 2
        assert f"{field}: labels must be unique" in err

    @pytest.mark.parametrize("fields, named", [
        ({"pre": [True, False]}, "pre[0]: expected a number or [re, im] pair, got True"),
        ({"post": {"observable": {"which_path": [1, 2, 3]}, "select": 1}}, "post.observable.which_path"),
        ({"dim": 4, "pre": [1, 0, 0, 0], "timeline": [],
          "post": {"observable": {"bell_basis": "anything"}, "select": 1}}, "post.observable.bell_basis"),
    ])
    def test_ignored_values_now_exit_2(self, capsys, tmp_path, fields, named):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(MZ_DOC, **fields)))
        code, _, err = run(capsys, "scenario", "--file", str(path))
        assert code == 2
        assert named in err

    def test_non_string_name_exit_code(self, capsys, tmp_path):
        path = tmp_path / "nameless.json"
        path.write_text(json.dumps(dict(MZ_DOC, name=None)))
        code, _, err = run(capsys, "scenario", "--file", str(path))
        assert code == 2
        assert "name: expected a string" in err

    @pytest.mark.parametrize("fields, named", [
        ({"timeline": [{"measure": {"observable": {"pauli": "x"}, "label": "m"}},
                       {"weak_measure": {"operator": {"pauli": "z"}, "strength": 0.05, "label": "w"}}]},
         "timeline[1].weak_measure: weak stages require a timeline free of strong measurement stages; "
         "timeline[0] is one"),
        ({"timeline": [{"measure": {"observable": {"pauli": "x"}, "label": "m"}}],
          "counterfactuals": [{"label": "c", "observable": {"pauli": "y"}}]},
         "counterfactuals[0]: counterfactuals require a timeline free of strong measurement stages"),
        ({"dim": 4, "pre": [1, 0, 0, 0], "timeline": [],
          "post": {"observable": {"explicit": [
              {"eigenvalue": 1, "projector": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]},
              {"eigenvalue": 0, "projector": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
          ]}, "select": 1},
          "products": [{"label": "p", "left": {"bell_basis": {}}, "right": {"bell_basis": {}}}]},
         "products[0]: products require a rank-1 post-selection branch; post.select picks one of rank 2"),
    ], ids=["weak-strong", "counterfactual-strong", "product-rank-2"])
    def test_pure_two_state_readers_exit_2(self, capsys, tmp_path, fields, named):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(dict(MZ_DOC, **fields)))
        for mode in ("analytic", "oracle", "both"):
            code, _, err = run(capsys, "scenario", "--file", str(path), "--mode", mode)
            assert code == 2
            assert named in err

    @pytest.mark.parametrize("mode", ["analytic", "oracle", "both"])
    def test_unreachable_post_selection_exits_3_in_every_mode(self, capsys, tmp_path, mode):
        path = tmp_path / "dead.json"
        path.write_text(json.dumps(dict(MZ_DOC, timeline=[], post={"observable": {"pauli": "z"}, "select": -1})))
        code, _, err = run(capsys, "scenario", "--file", str(path), "--mode", mode)
        assert code == 3
        assert "post-selection unreachable" in err

    def test_unknown_builtin_lists_catalog(self, capsys):
        code, _, err = run(capsys, "scenario", "--builtin", "nope")
        assert code == 2
        assert "sharp-shanks" in err

    def test_file_scenario(self, capsys, tmp_path):
        path = tmp_path / "mz.json"
        path.write_text(json.dumps(MZ_DOC))
        code, out, _ = run(capsys, "scenario", "--file", str(path), "--mode", "analytic")
        assert code == 0
        assert "acceptance probability: 0.5" in out

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "scenario", "--builtin", "spin-zz-xi", "--mode", "both",
            "--trials", "20000", "--seed", "4", "--format", "csv",
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header == "scenario,stage,eigenvalue,analytic,frequency,se,z,pass"

    def test_file_keeps_its_trials_and_seed(self, capsys, tmp_path):
        path = tmp_path / "mz.json"
        path.write_text(json.dumps(MZ_DOC))
        code, out, _ = run(capsys, "scenario", "--file", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["scenario"], payload["trials"], payload["seed"]) == ("mz-file", 2000, 3)
        code, out, _ = run(
            capsys, "scenario", "--file", str(path), "--trials", "5000", "--seed", "9", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["trials"], payload["seed"]) == (5000, 9)

    def test_builtin_defaults_to_100000_trials_at_seed_7(self, capsys):
        code, out, _ = run(capsys, "scenario", "--builtin", "spin-zz-xi", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["trials"], payload["seed"], payload["passed"]) == (100_000, 7, True)

    @pytest.mark.parametrize("flags", [["--theta", "1.0"], ["--no-which-path"]])
    def test_file_rejects_builtin_parameters(self, capsys, tmp_path, flags):
        path = tmp_path / "mz.json"
        path.write_text(json.dumps(MZ_DOC))
        code, out, err = run(capsys, "scenario", "--file", str(path), *flags)
        assert code == 2
        assert out == ""
        assert f"error: {flags[0]} sets a builtin parameter" in err

    @pytest.mark.parametrize("flag", ["--trials", "--seed", "--z"])
    def test_analytic_mode_rejects_oracle_options(self, capsys, tmp_path, flag):
        path = tmp_path / "mz.json"
        path.write_text(json.dumps(MZ_DOC))
        for source in (["--builtin", "spin-zz-xi"], ["--file", str(path)]):
            code, out, err = run(capsys, "scenario", *source, "--mode", "analytic", flag, "3")
            assert (code, out) == (2, "")
            assert f"{flag} sets the Monte-Carlo oracle, which --mode analytic does not run" in err
            code, _, _ = run(capsys, "scenario", *source, "--mode", "oracle", flag, "3")
            assert code == 0

    def test_default_threshold_is_4(self, capsys):
        default = run(capsys, "scenario", "--builtin", "spin-zz-xi", "--trials", "20000", "--format", "json")
        explicit = run(capsys, "scenario", "--builtin", "spin-zz-xi", "--trials", "20000", "--format", "json",
                       "--z", "4")
        assert default == explicit
        default = run(capsys, "paper-checks", "--trials", "2000")
        assert default[1].startswith("validation report  (trials=2000, seed=7, z=4)")

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "scenario", "--mode", "analytic")
        assert code == 2
        assert "exactly one" in err


class TestPaperChecks:
    def test_small_run_passes_and_is_deterministic(self, capsys, tmp_path):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        # modest trial count keeps this fast; statistical rows may warn but not fail
        code1 = main(["paper-checks", "--trials", "20000", "--seed", "7", "--out", str(out1)])
        code2 = main(["paper-checks", "--trials", "20000", "--seed", "7", "--out", str(out2)])
        capsys.readouterr()
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_top_seed_derives_wrapped_sub_seeds(self, capsys):
        # rows use seed + 1 ... seed + 8 and deeper offsets, reduced mod 2**64
        code, out, _ = run(
            capsys, "paper-checks", "--trials", "2000", "--seed", str(2**64 - 1)
        )
        assert code == 0
        assert out.endswith("overall: PASS\n")

    @pytest.mark.parametrize("trials,seed", [(1, 7), (50, 0)])
    def test_low_trial_budgets_warn_and_exit_zero(self, capsys, trials, seed):
        # every trial rejected (trials 1) or a Bell branch with a handful of
        # accepted trials (trials 50) is a WARN row, not exit 4 or 1
        code, out, _ = run(capsys, "paper-checks", "--trials", str(trials), "--seed", str(seed))
        assert code == 0
        assert "WARN" in out and out.endswith("overall: PASS\n")

    @pytest.mark.parametrize("z", ["nan", "inf", "-inf", "0"])
    def test_z_must_be_finite_and_positive(self, capsys, z):
        # rejected before any check runs: nan used to run the battery and
        # exit 1, inf let every comparison pass
        code, out, err = run(capsys, "paper-checks", "--trials", "100", f"--z={z}")
        assert code == 2
        assert out == ""
        assert "--z must be a finite number > 0" in err

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "paper-checks", "--trials", "20000", "--seed", "9", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert any(r["name"] == "product-rule-failure" for r in payload["results"])


    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "paper-checks", "--trials", "2000", "--seed", "5", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert list(rows[0]) == ["name", "status", "summary"]
        assert {r["status"] for r in rows} <= {"pass", "warn"}
        assert "product-rule-failure" in {r["name"] for r in rows}


class TestPointerSweep:
    def test_csv_schema_and_convergence(self, capsys):
        code, out, _ = run(
            capsys, "pointer-sweep", "--pre", "up-z", "--post", "up-x", "--obs", "pauli-z",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "coupling,shift,shift_per_coupling,weak_value_re,abs_error"
        assert len(lines) == 4
        last = lines[-1].split(",")
        assert float(last[4]) < 1e-3

    @pytest.mark.parametrize("couplings", ["0", "-0.1", "0.1,nan", "inf"])
    def test_couplings_must_be_finite_and_positive(self, capsys, couplings):
        code, out, err = run(
            capsys, "pointer-sweep", "--pre", "up-z", "--post", "up-x", "--obs", "pauli-z",
            f"--couplings={couplings}",
        )
        assert code == 2
        assert out == ""
        assert "--couplings must be finite numbers > 0" in err

    @pytest.mark.parametrize("flag, value", [
        ("--sigma", "nan"), ("--sigma", "inf"), ("--span", "nan"), ("--span", "inf"),
    ])
    def test_grid_parameters_must_be_finite(self, capsys, flag, value):
        code, out, err = run(
            capsys, "pointer-sweep", "--pre", "up-z", "--post", "up-x", "--obs", "pauli-z",
            "--couplings", "0.1", flag, value,
        )
        assert code == 2
        assert out == ""
        assert f"{flag[2:]} must be finite, got {value}" in err


    @pytest.mark.parametrize("sigma", ["1e-300", "1e155", "1e306"])
    def test_extreme_sigma_runs(self, capsys, sigma):
        # sigma**2 overflows at 1e155 and underflows at 1e-300
        code, out, err = run(
            capsys, "pointer-sweep", "--pre", "up-z", "--post", "up-x", "--obs", "pauli-z",
            "--couplings", f"{float(sigma) / 100!r}", "--sigma", sigma, "--format", "csv",
        )
        assert (code, err) == (0, "")
        per_coupling = float(out.strip().splitlines()[1].split(",")[2])
        assert per_coupling == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("argv, named", [
        (["--sigma", "1e155"], "--couplings 0.1 shifts the pointer by at most 0.1"),
        (["--couplings", "1e-12"], "--couplings 1e-12 shifts the pointer by at most 1e-12"),
        (["--sigma", "1e-306", "--couplings", "1e-308"], "pointer grid (--sigma, --span, --n): sigma 1e-306 too small"),
        (["--sigma", "1e-307", "--couplings", "1e-309"], "pointer grid (--sigma, --span, --n): sigma 1e-307 too small"),
        (["--sigma", "1e-308", "--couplings", "1e-310"], "pointer grid (--sigma, --span, --n): sigma 1e-308 too small"),
    ], ids=["sigma-1e155", "coupling-1e-12", "sigma-1e-306", "sigma-1e-307", "sigma-1e-308"])
    def test_unresolvable_sigma_or_coupling_exits_2_without_warning(self, capsys, argv, named):
        # numpy's overflow warnings come from numpy modules, which the pytest filter does not cover
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "pointer-sweep", "--pre", "up-x", "--post", "spin:1.0", "--obs", "pauli-z", *argv
            )
        assert (code, out) == (2, "")
        assert named in err
        assert "--sigma" in err

    @pytest.mark.parametrize("argv", [
        ["--sigma", "1e307", "--couplings", "1e305"],
        ["--sigma", "1e300", "--span", "1e10", "--couplings", "1e298"],
    ])
    def test_span_times_sigma_must_be_finite(self, capsys, argv):
        code, out, err = run(
            capsys, "pointer-sweep", "--pre", "up-x", "--post", "spin:1.0", "--obs", "pauli-z", *argv
        )
        assert (code, out) == (2, "")
        assert "pointer grid (--span × --sigma):" in err
        assert "overflows" in err

    @pytest.mark.parametrize("span, code", [("15", 2), ("16", 2), ("16.003", 2), ("16.004", 0)])
    def test_span_floor_is_the_8_sigma_reach(self, capsys, span, code):
        # the outermost of 4096 points reaches 8 sigma from span 16·4096/4095 = 16.0039 on; one rule says so
        code_, out, err = run(
            capsys, "pointer-sweep", "--pre", "up-x", "--post", "spin:1.0", "--obs", "pauli-z", "--span", span,
            "--format", "csv",
        )
        assert code_ == code
        if code:
            assert err == ("error: pointer grid (--sigma, --span, --n): "
                           "grid must span at least 8 sigma on each side of center\n")
        else:
            assert err == "" and out.startswith("coupling,shift,")

    @pytest.mark.parametrize("argv", [
        ["--sigma", "1e-305", "--couplings", "1e-307"],
        ["--sigma", "1e-304", "--couplings", "1e-306", "--n", "262144", "--span", "256"],
        ["--couplings", "1e-11"],
    ])
    def test_resolvable_extremes_run_without_warning(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "pointer-sweep", "--pre", "up-x", "--post", "spin:1.0", "--obs", "pauli-z",
                "--format", "csv", *argv,
            )
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 2

    def test_couplings_beyond_the_grid_exit_2_before_any_coupling(self, capsys, monkeypatch):
        # couple's bound is span/4 = 16 sigma on the default grid; a sweep checks every coupling against it first
        made = []
        couple = twostate.pointer.couple
        monkeypatch.setattr(twostate.pointer, "couple", lambda *args: made.append(args) or couple(*args))
        code, out, err = run(capsys, "pointer-sweep", *VALID["pointer-sweep"], "--couplings", "0.1,16,100")
        assert (code, out, made) == (2, "", [])
        assert err == ("error: --couplings 100.0 shifts the pointer by up to 100.0, beyond the grid's "
                       "span/4 = 16.0 (--span × --sigma / 4)\n")
        code, out, err = run(capsys, "pointer-sweep", *VALID["pointer-sweep"], "--couplings", "0.1,16")
        assert (code, err, len(made)) == (0, "", 2)


class TestAngles:
    @pytest.mark.parametrize("flag, text", [
        ("--pre", "spin:nan"), ("--post", "spin:1:inf"), ("--obs", "spin:inf"), ("--obs", "spin:0.3:-inf"),
    ])
    def test_non_finite_angle_quoted(self, capsys, flag, text):
        argv = {"--pre": "up-z", "--post": "up-x", "--obs": "pauli-z", flag: text}
        code, out, err = run(capsys, "abl", *(x for item in argv.items() for x in item))
        assert code == 2
        assert out == ""
        assert err == f"error: bad angle in {text!r}: angles must be finite\n"

    @pytest.mark.parametrize("command", ["born", "abl", "weak", "pointer-sweep"])
    @pytest.mark.parametrize("text", ["spin:1e300", "spin:0.5:1e300"])
    def test_huge_observable_angle_names_the_observable(self, capsys, command, text):
        # finite, but so large that the two spin projectors round apart
        code, out, err = run(capsys, command, *VALID[command][:-1], text)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: observable {text!r}: branches 0 and 1: projectors are not ")


class TestGuards:
    @pytest.mark.parametrize("argv, named", [
        (["born", "--state", "up-z", "--obs", "foo"], "unknown observable 'foo'"),
        (["born", "--state", "up-z", "--obs", "spin:1:2:3"], "bad angle spec 'spin:1:2:3'"),
        (["born", "--state", "up-z", "--obs", "spin:abc"], "bad angle in 'spin:abc'"),
        (["pointer-sweep", *VALID["pointer-sweep"], "--couplings", "0.1,x"], "bad --couplings"),
        (["pointer-sweep", *VALID["pointer-sweep"], "--couplings", ","],
         "--couplings must list at least one value"),
        (["simulate", *VALID["simulate"], "--trials", "0"], "--trials must be >= 1"),
    ], ids=["obs", "angle-count", "angle-value", "coupling-value", "no-couplings", "trials"])
    def test_exits_2_naming_the_input(self, capsys, argv, named):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert named in err

    @pytest.mark.parametrize("argv", [
        ["abl", "--pre=up-z", "--post=--", "--obs=pauli-x"],
        ["simulate", *VALID["simulate"], "--trials=--"],
        ["simulate", *VALID["simulate"], "--measure=--"],
    ], ids=["state", "trials", "repeatable"])
    def test_a_double_dash_value_exits_2_naming_the_flag(self, capsys, argv):
        flag = next(arg for arg in argv if arg.endswith("=--"))[:-3]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert captured.err.endswith(f"error: argument {flag}: expected one argument\n")

    def test_missing_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "missing.json"
        code, out, err = run(capsys, "scenario", "--file", str(path))
        assert (code, out) == (2, "")
        assert f"cannot read {path}" in err

    @pytest.mark.parametrize("content, reason", [
        (b"not json", "Expecting value: line 1 column 1 (char 0)"),
        (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff in position 0"),
    ], ids=["malformed-json", "not-utf-8"])
    def test_unparsable_scenario_file(self, capsys, tmp_path, content, reason):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "scenario", "--file", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read --file {path}: {reason}")

    def test_csv_of_a_scenario_without_measurement_rows(self, capsys, tmp_path):
        path = tmp_path / "mz.json"
        path.write_text(json.dumps(MZ_DOC))
        code, out, err = run(capsys, "scenario", "--file", str(path), "--mode", "analytic", "--format", "csv")
        assert (code, out, err) == (2, "", "error: scenario produced no per-outcome rows to write as CSV\n")

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, target):
        path = tmp_path / "missing" / "x.txt" if target == "missing-dir" else tmp_path
        code, out, err = run(capsys, "born", "--state", "up-z", "--obs", "pauli-x", "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write --out {path}: ")
        assert "Traceback" not in err


# one small valid run of every subcommand
CONTRACT = {
    "born": ["born", "--state", "up-x", "--obs", "spin:1.0"],
    "abl": ["abl", "--pre", "up-z", "--post", "up-x", "--obs", "spin:1.0"],
    "weak": ["weak", "--pre", "up-z", "--post", "up-x", "--obs", "pauli-y"],
    "simulate": ["simulate", "--pre", "up-x", "--measure", "pauli-z", "--post", "pauli-x", "--trials", "2000"],
    "scenario": ["scenario", "--builtin", "spin-zz-xi", "--trials", "2000"],
    "paper-checks": ["paper-checks", "--trials", "2000"],
    "pointer-sweep": ["pointer-sweep", "--pre", "up-z", "--post", "up-x", "--obs", "pauli-z", "--n", "1024"],
}


class TestOutputContract:
    def test_covers_every_subcommand(self):
        assert set(CONTRACT) == set(OPTIONS)

    @pytest.mark.parametrize("command", sorted(CONTRACT))
    def test_json_csv_and_out(self, capsys, tmp_path, command):
        outputs = {}
        for fmt in ("table", "json", "csv"):
            code, out, err = run(capsys, *CONTRACT[command], "--format", fmt)
            assert (code, err) == (0, "")
            path = tmp_path / f"{fmt}.out"
            assert run(capsys, *CONTRACT[command], "--format", fmt, "--out", str(path)) == (0, "", "")
            assert path.read_bytes() == out.encode()
            outputs[fmt] = out
        json.loads(outputs["json"])
        rows = list(csv.DictReader(io.StringIO(outputs["csv"], newline="")))
        assert rows and all(rows[0])
        lines = outputs["csv"].split("\n")
        assert lines[-1] == "" and all(line.endswith("\r") for line in lines[:-1])
