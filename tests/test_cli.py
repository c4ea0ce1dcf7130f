"""Command-line front end: parsing, formats, exit codes."""

import json

import pytest

from twostate.cli import main

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


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_non_string_name_exit_code(self, capsys, tmp_path):
        path = tmp_path / "nameless.json"
        path.write_text(json.dumps(dict(MZ_DOC, name=None)))
        code, _, err = run(capsys, "scenario", "--file", str(path))
        assert code == 2
        assert "name: expected a string" in err

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
