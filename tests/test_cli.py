import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rydqubo import cli, models
from rydqubo.annealer import PropagationConfig, Schedule, propagate
from rydqubo.cli import main
from rydqubo.hardness import format_value
from rydqubo.models import model_from_dict
from rydqubo.optimizer import AnnealObjective, initial_parameters
from rydqubo.pipeline import default_schedule, encode_for_annealing
from rydqubo.problems import PRESET_NAMES, preset_instance

from conftest import TIED_START_MODEL, source_optimum

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_problem_preset_json(capsys, tmp_path):
    path = tmp_path / "model.json"
    code, out, _ = run(capsys, "problem", "--preset", "xor_sat",
                       "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["n"] == 3
    assert data["convention"] == "qubo"
    assert data["metadata"]["preset"] == "xor_sat"


def test_problem_family_build(capsys):
    params = json.dumps({"n": 2, "constraints": [[0, 1, 1]]})
    code, out, _ = run(capsys, "problem", "--family", "xor_sat",
                       "--params", params)
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 2


def test_problem_bad_params_exit_2(capsys):
    code, _, err = run(capsys, "problem", "--family", "xor_sat",
                       "--params", "{not json")
    assert code == 2


def test_problem_invalid_instance_exit_3(capsys):
    params = json.dumps({"n": 2, "constraints": [[0, 0, 1]]})
    code, _, err = run(capsys, "problem", "--family", "xor_sat",
                       "--params", params)
    assert code == 3
    assert "error" in err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.fixture
def xor_model_file(tmp_path, capsys):
    path = tmp_path / "xor.json"
    assert main(["problem", "--preset", "xor_sat", "--out", str(path)]) == 0
    capsys.readouterr()
    return str(path)


def test_spectrum_output(capsys, xor_model_file):
    code, out, _ = run(capsys, "spectrum", "--model", xor_model_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "energy,multiplicity"
    assert lines[1] == "1,6"
    assert "D_opt=6" in lines[-1]


def test_spectrum_missing_file_exit_2(capsys):
    code, _, _ = run(capsys, "spectrum", "--model", "/nonexistent.json")
    assert code == 2


def test_encode_output(capsys, xor_model_file):
    code, out, _ = run(capsys, "encode", "--model", xor_model_file)
    assert code == 0
    data = json.loads(out)
    assert data["delta_final"] == [2.0, 2.0, 2.0]
    assert data["signed_interactions"] is False


def test_encode_frustrated_physical_exit_3(capsys, tmp_path):
    path = tmp_path / "mixed.json"
    assert main(["problem", "--preset", "mixed", "--out", str(path)]) == 0
    capsys.readouterr()
    code, _, err = run(capsys, "encode", "--model", str(path),
                       "--mode", "physical")
    assert code == 3
    assert "not encodable" in err


def test_layout_and_validate(capsys, xor_model_file, tmp_path):
    layout_path = tmp_path / "layout.json"
    code, _, _ = run(capsys, "layout", "--model", xor_model_file,
                     "--out", str(layout_path))
    assert code == 0
    code, out, _ = run(capsys, "validate", "--model", xor_model_file,
                       "--layout", str(layout_path))
    assert code == 0
    assert "passed=True" in out


def test_hardness_row(capsys, xor_model_file):
    code, out, _ = run(capsys, "hardness", "--model", xor_model_file,
                       "--name", "xor", "--csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("problem,")
    assert row.startswith("xor,")


def test_anneal_trajectory(capsys, xor_model_file, tmp_path):
    out_path = tmp_path / "traj.csv"
    code, _, _ = run(capsys, "anneal", "--model", xor_model_file,
                     "--duration", "5", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].split(",")[:3] == ["t_us", "omega", "delta_G"]
    assert len(lines) > 100


def test_pipeline_threshold_exit_4(capsys, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(
        {"stages": [{"kind": "gradient", "max_evals": 5}]}))
    code, out, _ = run(capsys, "pipeline", "--preset", "xor_sat",
                       "--plan", str(plan), "--threshold", "1.01",
                       "--out-dir", str(tmp_path))
    assert code == 4
    assert (tmp_path / "xor_sat_result.json").exists()
    assert (tmp_path / "xor_sat_trajectory.csv").exists()
    assert (tmp_path / "xor_sat_hardness.csv").exists()


@pytest.mark.parametrize("flag, content", [
    ("--plan", {"steps": []}),        # no "stages"
    ("--schedule", None),             # missing file
    ("--config", {"rmin": 3.0}),      # unknown HardwareLimits field
])
def test_pipeline_malformed_input_file_exit_2(capsys, tmp_path, flag, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(json.dumps(content))
    code, _, err = run(capsys, "pipeline", "--preset", "xor_sat", flag,
                       str(path), "--out-dir", str(tmp_path))
    assert code == 2
    assert "error: cannot load" in err


def test_pipeline_requires_input(capsys):
    code, _, err = run(capsys, "pipeline")
    assert code == 2


def test_report_from_spectral_closure(capsys, tmp_path):
    rows = [{"problem": "two_sat", "E0": -0.15, "gap": 0.30, "D_opt": 4,
             "D_E1": 4, "threat_degeneracies": [[4, 0.30]]},
            {"problem": "xor_sat", "E0": -0.30, "gap": 0.60, "D_opt": 6,
             "D_E1": 2, "threat_degeneracies": [[2, 0.60]]}]
    path = tmp_path / "spectral.json"
    path.write_text(json.dumps(rows))
    code, out, _ = run(capsys, "report", "--from-spectral", str(path), "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    hp1 = float(lines[1].split(",")[7])
    hp2 = float(lines[2].split(",")[7])
    assert hp1 == pytest.approx(27.25, rel=0.01)
    assert hp2 == pytest.approx(1.13, rel=0.01)


def test_report_from_spectral_malformed_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"problem": "x"}]))
    code, _, _ = run(capsys, "report", "--from-spectral", str(path))
    assert code == 2


def test_report_from_spectral_zero_degeneracy_exit_2(capsys, tmp_path):
    path = tmp_path / "spectral.json"
    path.write_text(json.dumps([{"problem": "x", "E0": -1.0, "gap": 0.5,
                                 "D_opt": 0, "threat_degeneracies": []}]))
    code, _, err = run(capsys, "report", "--from-spectral", str(path))
    assert code == 2
    assert "HardnessError" in err


@pytest.mark.parametrize("command, option, value", [
    ("anneal", "--seed", "5"),
    ("anneal", "--out-dir", "runs"),
    ("encode", "--seed", "5"),
    ("layout", "--out-dir", "runs"),
    ("validate", "--seed", "5"),
    # no prefix matching: --mode is not --model, --energy not --energy-shift
    ("layout", "--mode", "physical"),
    ("validate", "--mode", "ideal"),
    ("hardness", "--energy", "1.0"),
    ("anneal", "--dur", "5"),
])
def test_subcommand_rejects_options_it_ignores(capsys, xor_model_file,
                                               command, option, value):
    argv = [command, "--model", xor_model_file, option, value]
    if command == "validate":
        argv += ["--layout", "layout.json"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_report_presets_flags_unpinned_rows(capsys):
    code, out, _ = run(capsys, "report", "--presets")
    assert code == 0
    for name in ("qap", "clustering", "protein"):
        line = next(l for l in out.splitlines() if l.startswith(name))
        assert "degeneracy depends on unpinned penalty defaults" in line
    two_sat_line = next(l for l in out.splitlines() if l.startswith("two_sat"))
    assert "unpinned" not in two_sat_line


def test_report_no_inputs_exit_2(capsys):
    code, _, _ = run(capsys, "report")
    assert code == 2


def exit_status(capsys, argv):
    """(exit code, stderr) of one CLI run; argparse errors exit by SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


@pytest.fixture
def input_files(tmp_path, xor_model_file):
    """Named input files: the xor_sat preset, the frustrated mixed preset, an
    11-variable model, a model whose n overflows int, layouts of two atoms
    and of three atoms of which two coincide, a schedule in a basis other
    than Fourier, a one-evaluation plan, a plan naming the simplex kind and
    a one-row spectral input; files that hold NaN or Infinity, a string or
    a boolean where a number is read, a fractional number where an integer
    is read, a negative omega_max or a negative stage tolerance; a finite
    model whose encoding overflows, and two whose lowest or highest energy
    overflows; an output path in a missing directory, and an output
    directory."""
    nan, schedule = float("nan"), {"T_us": 2.0, "delta": {"coeffs": [0.5]},
                                   "omega": {"coeffs": [1.0]}}
    gradient = {"kind": "gradient", "max_evals": 1}
    spectral = {"problem": "x", "E0": -1.0, "gap": 0.5, "D_opt": 1,
                "threat_degeneracies": []}
    data = {"mixed": preset_instance("mixed").model.to_dict(),
            "n11": {"n": 11, "linear": [1.0] * 11,
                    "quadratic": [[0, 1, 1.0]]},
            "overflow": {"n": 1e400, "linear": [], "quadratic": []},
            "nan_model": {"n": 2, "linear": [nan, 1.0], "quadratic": []},
            "fractional_n_model": {"n": 2.9, "linear": [1.0, 1.0],
                                   "quadratic": []},
            "fractional_pair_model": {"n": 3, "linear": [1.0] * 3,
                                      "quadratic": [[0.5, 2, 1.0]]},
            "nan_schedule": {**schedule, "delta": {"coeffs": [nan]}},
            "nan_duration_schedule": {**schedule, "T_us": nan},
            "fractional_schedule": {**schedule, "sample_count": 3.7},
            "nan_config": {"omega_max": nan},
            "infinite_config": {"t_max": float("inf")},
            "nan_plan": {"stages": [{**gradient, "tolerance": nan}]},
            "fractional_plan": {"stages": [{**gradient, "max_evals": 2.9}]},
            "negative_tolerance_plan": {"stages": [{**gradient,
                                                    "tolerance": -1}]},
            "infinite_spectral": [{**spectral, "E0": -float("inf")}],
            "fractional_spectral": [{**spectral, "D_opt": 1.5}],
            "pair_layout": {"positions_um": [[0.0, 0.0], [10.0, 0.0]]},
            "coincident_layout": {"positions_um": [[0.0, 0.0], [0.0, 0.0],
                                                   [10.0, 0.0]]},
            "spline_schedule": {"T_us": 2.0, "basis": "spline",
                                "delta": {"coeffs": [0.5]},
                                "omega": {"coeffs": [1.0]}},
            "one_eval_plan": {"stages": [{"kind": "gradient",
                                          "max_evals": 1}]},
            "spectral": [{"problem": "x", "E0": -1.0, "gap": 0.5, "D_opt": 1,
                          "threat_degeneracies": []}],
            "string_model": {"n": 3, "linear": ["nan", 1, 1],
                             "quadratic": []},
            "string_schedule": {**schedule, "delta": {"coeffs": ["nan"]}},
            "negative_omega_schedule": {**schedule, "omega": {
                "coeffs": [1.0], "omega_max": -1.0}},
            "string_plan": {"stages": [{**gradient, "tolerance": "nan"}]},
            "simplex_plan": {"stages": [{**gradient, "kind": "simplex"}]},
            "string_spectral": [{**spectral, "E0": "nan"}],
            "fractional_threat_spectral": [
                {**spectral, "threat_degeneracies": [[1.5, 0.5]]}],
            "string_layout": {"positions_um": [[0.0, 0.0], [10.0, 0.0]],
                              "C6": "nan"},
            "string_result": {"instance": "x", "C_opt": "nan", "R": 0.5,
                              "ground_states": [0]},
            "bool_config": {"omega_max": True},
            "bool_model": {"n": 2, "linear": [True, 1.0], "quadratic": []},
            "bool_r_result": {"instance": "x", "R": True,
                              "ground_states": [0]},
            "overflowing_encoding_model": {
                "n": 3, "linear": [1e308, 1, 1],
                "quadratic": [[0, 1, 1e308], [1, 2, 1]],
                "convention": "ising"},
            "overflowing_low_model": {"n": 2, "linear": [-1e308, -1e308],
                                      "quadratic": []},
            "overflowing_high_model": {"n": 2, "linear": [1e308, 1e308],
                                       "quadratic": []}}
    files = {"{xor}": xor_model_file,
             "{missing_dir_out}": str(tmp_path / "missing" / "out.json"),
             "{out_dir}": str(tmp_path / "runs")}
    for name, content in data.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(content))
        files["{" + name + "}"] = str(path)
    return files


def two_sat(params):
    return ["problem", "--family", "two_sat", "--params", params]


QAP_PARAMS = json.dumps({"flow": [[0, 1], [1, 0]], "distance": [[0, 2], [2, 0]],
                         "penalty_facility": 8, "penalty_location": 8})


@pytest.mark.parametrize("argv, code, err_start", [
    pytest.param(two_sat('{"n": 2, "clauses": [[0, 1]]}'), 2,
                 "error: bad family parameters: TypeError: ",
                 id="params-TypeError"),
    pytest.param(two_sat('{"n": "x", "clauses": []}'), 2,
                 "error: bad family parameters: ValueError: ",
                 id="params-ValueError"),
    pytest.param(two_sat('{"n": 1e400, "clauses": []}'), 2,
                 "error: bad family parameters: OverflowError: ",
                 id="params-OverflowError"),
    # a ModelError from the instance itself is not a usage error
    pytest.param(two_sat('{"n": -1, "clauses": []}'), 3,
                 "error: n must be nonnegative", id="params-ModelError"),
    # an integer field is not truncated, and a key the family does not
    # read is not ignored
    pytest.param(two_sat('{"n": 2.9, "clauses": [[[0, false], [1.9, false]]]}'),
                 2, "error: bad family parameters: ValueError: ",
                 id="params-fractional-index"),
    # a negation flag is a boolean, 0 or 1; "false" is not false
    pytest.param(two_sat('{"n": 2, "clauses": [[[0, "false"], [1, 0.5]]]}'),
                 2, "error: bad family parameters: ValueError: ",
                 id="params-non-boolean-flag"),
    pytest.param(["problem", "--family", "protein", "--params",
                  '{"length": 4, "hydrophobic": [1.7, 1, 0, 1]}'],
                 2, "error: bad family parameters: ValueError: ",
                 id="params-fractional-flag"),
    pytest.param(["problem", "--family", "xor_sat", "--params",
                  '{"n": 2, "constraints": [[0, 1, 1.5]]}'],
                 2, "error: bad family parameters: ValueError: ",
                 id="params-fractional-parity"),
    pytest.param(["problem", "--family", "qap", "--params", QAP_PARAMS,
                  "--n", "7"],
                 2, "error: bad family parameters: ValueError: ",
                 id="params-unread-n"),
    pytest.param(["problem", "--family", "xor_sat", "--params",
                  '{"n": 2, "constraints": [[0, 1, 1]]}', "--clauses", "[]"],
                 2, "error: bad family parameters: ValueError: ",
                 id="params-unread-clauses"),
    pytest.param(two_sat('{"n": 2, "clauses": [[[0, false], [1, false]]], '
                         '"penalty": NaN}'),
                 2, "error: bad family parameters: ValueError: non-finite",
                 id="params-nan"),
    pytest.param(["problem", "--family", "xor_sat", "--params", '{"n": 2}',
                  "--constraints", "[[0, 1, Infinity]]"],
                 2, "error: bad family parameters: ValueError: non-finite",
                 id="constraints-infinity"),
    pytest.param(["problem", "--family", "two_sat", "--n", "2",
                  "--clauses", "[[[0, false], [1, 1e400]]]"],
                 2, "error: bad family parameters: OverflowError: ",
                 id="clauses-overflow"),
    pytest.param(["spectrum", "--model", "{nan_model}"], 2,
                 "error: cannot load model ", id="model-nan"),
    pytest.param(["hardness", "--model", "{nan_model}"], 2,
                 "error: cannot load model ", id="hardness-model-nan"),
    pytest.param(["spectrum", "--model", "{fractional_n_model}"], 2,
                 "error: cannot load model ", id="model-fractional-n"),
    pytest.param(["spectrum", "--model", "{fractional_pair_model}"], 2,
                 "error: cannot load model ", id="model-fractional-pair"),
    pytest.param(["anneal", "--model", "{xor}", "--schedule",
                  "{nan_schedule}"],
                 2, "error: cannot load schedule ", id="schedule-nan"),
    pytest.param(["anneal", "--model", "{xor}", "--schedule",
                  "{nan_duration_schedule}"],
                 2, "error: cannot load schedule ", id="schedule-nan-duration"),
    pytest.param(["anneal", "--model", "{xor}", "--schedule",
                  "{fractional_schedule}"],
                 2, "error: cannot load schedule ", id="schedule-fractional"),
    pytest.param(["anneal", "--model", "{xor}", "--config", "{nan_config}"],
                 2, "error: cannot load config ", id="config-nan"),
    pytest.param(["anneal", "--model", "{xor}", "--config",
                  "{infinite_config}"],
                 2, "error: cannot load config ", id="config-infinity"),
    pytest.param(["pipeline", "--preset", "xor_sat", "--plan", "{nan_plan}",
                  "--out-dir", "{out_dir}"], 2, "error: cannot load plan ", id="plan-nan"),
    pytest.param(["pipeline", "--preset", "xor_sat", "--plan",
                  "{fractional_plan}", "--out-dir", "{out_dir}"],
                 2, "error: cannot load plan ", id="plan-fractional"),
    pytest.param(["pipeline", "--preset", "xor_sat", "--plan",
                  "{negative_tolerance_plan}", "--out-dir", "{out_dir}"],
                 2, "error: cannot load plan ", id="plan-negative-tolerance"),
    pytest.param(["report", "--from-spectral", "{infinite_spectral}"], 2,
                 "error: cannot load spectral input ", id="spectral-infinity"),
    pytest.param(["report", "--from-spectral", "{fractional_spectral}"], 2,
                 "error: cannot load spectral input ",
                 id="spectral-fractional"),
    pytest.param(["anneal", "--model", "{xor}", "--steps", "0"], 2,
                 "usage: rydqubo anneal", id="anneal-steps-zero"),
    pytest.param(["anneal", "--model", "{xor}", "--steps", "-5"], 2,
                 "usage: rydqubo anneal", id="anneal-steps-negative"),
    pytest.param(["problem"], 2, "error: provide --preset or --family",
                 id="problem-no-source"),
    pytest.param(["anneal", "--model", "{xor}", "--duration", "-1"], 2,
                 "usage: rydqubo anneal", id="anneal-duration"),
    pytest.param(["anneal", "--model", "{n11}"], 5,
                 "error: propagation failed: ", id="anneal-over-cap"),
    pytest.param(["spectrum", "--model", "{overflow}"], 2,
                 "error: cannot load model ", id="model-overflow"),
    pytest.param(["validate", "--model", "{xor}", "--layout", "{pair_layout}"],
                 2, "error: bad layout ", id="validate-atom-count"),
    pytest.param(["validate", "--model", "{xor}",
                  "--layout", "{coincident_layout}"],
                 2, "error: bad layout ", id="validate-coincident"),
    pytest.param(["validate", "--model", "{mixed}",
                  "--layout", "{pair_layout}"],
                 3, "error: not encodable: ", id="validate-not-encodable"),
    pytest.param(["anneal", "--model", "{xor}",
                  "--schedule", "{spline_schedule}"],
                 2, "error: cannot load schedule ", id="schedule-spline-basis"),
    pytest.param(["problem", "--preset", "xor_sat", "--out",
                  "{missing_dir_out}"],
                 2, "error: cannot write ", id="out-unwritable"),
    # --out-dir names an existing regular file, so it cannot be a directory
    pytest.param(["pipeline", "--preset", "xor_sat", "--plan",
                  "{one_eval_plan}", "--out-dir", "{xor}"],
                 2, "error: cannot write ", id="out-dir-unwritable"),
    # the spectrum's levels are the subspaces: no second tolerance to set,
    # so --epsilon is an unknown flag whatever its value
    pytest.param(["hardness", "--model", "{xor}", "--epsilon", "-1"],
                 2, "usage: rydqubo ", id="hardness-epsilon"),
    pytest.param(["report", "--presets", "--epsilon", "-1"],
                 2, "usage: rydqubo ", id="report-epsilon"),
    pytest.param(["hardness", "--model", "{xor}", "--epsilon", "inf"],
                 2, "usage: rydqubo ", id="hardness-epsilon-inf"),
    pytest.param(["report", "--presets", "--epsilon", "inf"],
                 2, "usage: rydqubo ", id="report-epsilon-inf"),
    # the lowest (highest) energy -2e308 (2e308) is -inf (inf): no gap
    pytest.param(["hardness", "--model", "{overflowing_low_model}"], 3,
                 "error: a level is not finite", id="hardness-level-minus-inf"),
    pytest.param(["hardness", "--model", "{overflowing_high_model}", "--csv"],
                 3, "error: a level is not finite", id="hardness-level-inf"),
    # one input source per report: --presets does not ignore the others
    pytest.param(["report", "--presets", "missing.json"],
                 2, "error: give one of ", id="report-presets-and-file"),
    pytest.param(["report", "--from-spectral", "{spectral}", "--presets"],
                 2, "error: give one of ", id="report-spectral-and-presets"),
    # a quoted number is a string, and float("nan") would read it as NaN
    pytest.param(["anneal", "--model", "{xor}", "--schedule",
                  "{string_schedule}"],
                 2, "error: cannot load schedule ", id="schedule-string"),
    pytest.param(["spectrum", "--model", "{string_model}"], 2,
                 "error: cannot load model ", id="model-string"),
    pytest.param(two_sat('{"n": 2, "clauses": [[[0, false], [1, false]]], '
                         '"penalty": "nan"}'),
                 2, "error: bad family parameters: ValueError: ",
                 id="params-string"),
    pytest.param(["report", "--from-spectral", "{string_spectral}"], 2,
                 "error: cannot load spectral input ", id="spectral-string"),
    pytest.param(["pipeline", "--preset", "xor_sat", "--plan",
                  "{string_plan}", "--out-dir", "{out_dir}"],
                 2, "error: cannot load plan ", id="plan-string"),
    # "gradient" is the only stage kind
    pytest.param(["pipeline", "--preset", "xor_sat", "--plan",
                  "{simplex_plan}", "--out-dir", "{out_dir}"],
                 2, "error: cannot load plan ", id="plan-simplex"),
    pytest.param(["validate", "--model", "{xor}", "--layout",
                  "{string_layout}"],
                 2, "error: cannot load layout ", id="layout-string"),
    pytest.param(["report", "--from-spectral", "{fractional_threat_spectral}"],
                 2, "error: cannot load spectral input ",
                 id="spectral-fractional-threat"),
    pytest.param(["anneal", "--model", "{xor}", "--schedule",
                  "{negative_omega_schedule}"],
                 2, "error: cannot load schedule ",
                 id="schedule-negative-omega-max"),
    pytest.param(["optimize", "--preset", "xor_sat"], 2, "usage: rydqubo",
                 id="optimize-removed"),
    pytest.param(["report", "{string_result}"], 2,
                 "error: cannot load result ", id="result-string"),
    # a JSON boolean is not a number: true would read as 1
    pytest.param(["anneal", "--model", "{xor}", "--config", "{bool_config}",
                  "--duration", "2", "--steps", "20"],
                 2, "error: cannot load config ", id="config-bool"),
    pytest.param(["spectrum", "--model", "{bool_model}"], 2,
                 "error: cannot load model ", id="model-bool"),
    # two equal clauses sum their 1e308 penalties to an infinite coupling
    pytest.param(two_sat('{"n": 2, "clauses": [[[0, false], [1, false]], '
                         '[[0, false], [1, false]]], "penalty": 1e308}'),
                 3, "error: model coefficients must be finite",
                 id="params-overflowing-model"),
    # V = 4 J overflows, and rescaling it by 0 used to give NaN
    pytest.param(["encode", "--model", "{overflowing_encoding_model}"], 3,
                 "error: not encodable: ", id="encode-overflow"),
    pytest.param(["anneal", "--model", "{overflowing_encoding_model}"], 3,
                 "error: not encodable: ", id="anneal-encode-overflow"),
    pytest.param(["layout", "--model", "{xor}", "--seed", "-1"], 2,
                 "usage: rydqubo layout", id="layout-seed-negative"),
    pytest.param(["pipeline", "--preset", "xor_sat", "--seed", "-1"], 2,
                 "usage: rydqubo pipeline", id="pipeline-seed-negative"),
    pytest.param(["hardness", "--model", "{xor}", "--energy-shift", "nan"], 2,
                 "usage: rydqubo hardness", id="hardness-energy-shift-nan"),
    pytest.param(["hardness", "--model", "{xor}", "--energy-shift", "inf"], 2,
                 "usage: rydqubo hardness", id="hardness-energy-shift-inf"),
    pytest.param(["validate", "--model", "{xor}", "--layout", "{pair_layout}",
                  "--tol", "nan"], 2, "usage: rydqubo validate",
                 id="validate-tol-nan"),
    pytest.param(["validate", "--model", "{xor}", "--layout", "{pair_layout}",
                  "--tol", "-1"], 2, "usage: rydqubo validate",
                 id="validate-tol-negative"),
    pytest.param(["pipeline", "--preset", "xor_sat", "--threshold", "nan"], 2,
                 "usage: rydqubo pipeline", id="pipeline-threshold-nan"),
    pytest.param(["anneal", "--model", "{xor}", "--duration", "inf"], 2,
                 "usage: rydqubo anneal", id="anneal-duration-infinite"),
    pytest.param(["report", "{bool_r_result}"], 2,
                 "error: cannot load result ", id="result-bool-R"),
])
def test_failure_exit_codes(capsys, input_files, argv, code, err_start):
    status, err = exit_status(capsys, [input_files.get(a, a) for a in argv])
    assert status == code
    assert err.startswith(err_start), err


def test_out_dir_fails_before_the_run(monkeypatch, capsys, input_files):
    def run_pipeline(*args, **kwargs):
        raise AssertionError("the run started before --out-dir was created")

    monkeypatch.setattr(cli, "run_pipeline", run_pipeline)
    status, err = exit_status(capsys, ["pipeline", "--preset", "xor_sat",
                                       "--out-dir", input_files["{xor}"]])
    assert status == 2
    assert err.startswith("error: cannot write ")


def test_anneal_tied_start_runs_where_pipeline_starts(capsys, tmp_path):
    path = tmp_path / "tied.json"
    path.write_text(json.dumps(TIED_START_MODEL))
    code, out, err = run(capsys, "anneal", "--model", str(path),
                         "--duration", "2", "--steps", "20")
    assert code == 0, err
    assert err.startswith("# E(T)=")
    # E(0) is the target energy of basis state 6, where pipeline starts too
    header, first = out.splitlines()[:2]
    e0 = float(first.split(",")[header.split(",").index("E")])
    enc = encode_for_annealing(model_from_dict(TIED_START_MODEL)).target
    assert e0 == pytest.approx(enc.diagonal_energies()[6] + enc.constant,
                               rel=1e-11)


def test_anneal_default_drives_the_optimizer_start_pulse(capsys,
                                                         xor_model_file):
    code, out, err = run(capsys, "anneal", "--model", xor_model_file,
                         "--duration", "2", "--steps", "20")
    assert code == 0, err
    header, *rows = [line.split(",") for line in out.splitlines()]
    omega = [float(row[header.index("omega")]) for row in rows]
    assert all(w > 0 for w in omega[1:-1])
    model = preset_instance("xor_sat").model
    enc = encode_for_annealing(model).target
    template = default_schedule(None, enc, t_total=2.0)
    _, traj = propagate(enc, AnnealObjective(enc, template).schedule_for(
        initial_parameters(template)), PropagationConfig(initial_steps=20),
        ground_indices=source_optimum(model)["ground_indices"])
    assert [row[header.index("E")] for row in rows] == [
        format_value(e) for e in traj.energy.tolist()]


def near_tie_file(tmp_path, d):
    """A QUBO whose two lowest patterns, 1 and 2, are d apart: the spectrum's
    level rule splits them at d = 1e-13 and ties them at d = 1e-14."""
    path = tmp_path / "near_tie.json"
    path.write_text(json.dumps({"n": 3, "linear": [-1.0, -1.0 - d, 0.5],
                                "quadratic": [[0, 1, 2.0], [1, 2, 1.0]]}))
    return str(path)


def test_fidelity_counts_only_the_spectrum_ground_states(
        capsys, short_run_files, tmp_path):
    """At d = 1e-13 the spectrum has one ground state, pattern 2, and both
    the pipeline's F_final and the last F of ``anneal`` are its probability
    alone, though pattern 1 is populated too."""
    path = near_tie_file(tmp_path, 1e-13)
    model = model_from_dict(json.loads(Path(path).read_text()))
    outcome = encode_for_annealing(model)
    enc = outcome.target
    assert outcome.flips == (0, 0, 0)
    assert models.enumerate_spectrum(model).ground_states == (2,)

    def fidelities(schedule, steps):
        return [propagate(enc, schedule, PropagationConfig(steps),
                          ground_indices=ground)[1].fidelity[-1]
                for ground in ([2], [1])]

    plan, schedule = short_run_files
    code, _, err = run(capsys, "pipeline", "--model", path, "--plan", plan,
                       "--schedule", schedule, "--threshold", "0",
                       "--out-dir", str(tmp_path))
    assert code == 0, err
    result = json.loads((tmp_path / "near_tie_result.json").read_text())
    alone, other = fidelities(Schedule.from_dict(result["schedule"]), 200)
    assert result["F_final"] == alone
    assert other > 0.01

    code, _, err = run(capsys, "anneal", "--model", path, "--duration", "2",
                       "--steps", "20")
    assert code == 0, err
    template = default_schedule(None, enc, t_total=2.0)
    alone, other = fidelities(AnnealObjective(enc, template).schedule_for(
        initial_parameters(template)), 20)
    assert err.split()[-1] == f"F(T)={format_value(alone)}"
    assert other > 0.01


def test_one_ground_set_across_commands(capsys, short_run_files, tmp_path):
    """At d = 1e-14 patterns 1 and 2 are one level, and ``spectrum``,
    ``hardness --csv`` and the pipeline result JSON all say so."""
    path = near_tie_file(tmp_path, 1e-14)
    code, out, _ = run(capsys, "spectrum", "--model", path)
    assert code == 0
    assert out.splitlines()[-1].endswith(" D_opt=2 grounds=100 010")
    code, out, _ = run(capsys, "hardness", "--model", path, "--csv")
    assert code == 0
    header, row = (line.split(",") for line in out.splitlines())
    assert row[header.index("D_opt")] == "2"
    plan, schedule = short_run_files
    code, _, err = run(capsys, "pipeline", "--model", path, "--plan", plan,
                       "--schedule", schedule, "--threshold", "0",
                       "--out-dir", str(tmp_path))
    assert code == 0, err
    result = json.loads((tmp_path / "near_tie_result.json").read_text())
    assert result["ground_states"] == [1, 2]
    hardness = (tmp_path / "near_tie_hardness.csv").read_text().splitlines()
    assert hardness[1].split(",")[header.index("D_opt")] == "2"


@pytest.fixture
def short_run_files(tmp_path):
    """(plan, schedule) files of a two-evaluation run over 2 us."""
    plan, schedule = tmp_path / "plan.json", tmp_path / "schedule.json"
    plan.write_text(json.dumps(
        {"stages": [{"kind": "gradient", "max_evals": 2}]}))
    schedule.write_text(json.dumps(
        {"T_us": 2.0, "delta": {"coeffs": [0.0]}, "omega": {"coeffs": [1.0]},
         "sample_count": 11}))
    return str(plan), str(schedule)


def test_pipeline_enumerates_the_spectrum_once(monkeypatch, capsys,
                                               short_run_files, tmp_path):
    """The hardness row reads the spectrum the run enumerated."""
    real = models.enumerate_spectrum
    calls = []

    def counting(model):
        calls.append(model.n)
        return real(model)

    patched = [name for name, module in list(sys.modules.items())
               if name.split(".")[0] == "rydqubo"
               and getattr(module, "enumerate_spectrum", None) is real]
    assert {"rydqubo.pipeline", "rydqubo.hardness"} <= set(patched)
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "enumerate_spectrum", counting)
    plan, schedule = short_run_files
    code, _, err = run(capsys, "pipeline", "--preset", "xor_sat",
                       "--plan", plan, "--schedule", schedule,
                       "--threshold", "0", "--out-dir", str(tmp_path))
    assert code == 0, err
    assert calls == [3]
    assert (tmp_path / "xor_sat_hardness.csv").read_text().startswith(
        "problem,")


def test_anneal_and_pipeline_share_one_trajectory_table(
        capsys, xor_model_file, short_run_files, tmp_path):
    """The pipeline trajectory file is its manifest line and then the table
    ``anneal`` prints for the optimized schedule."""
    plan, schedule = short_run_files
    code, _, err = run(capsys, "pipeline", "--model", xor_model_file,
                       "--plan", plan, "--schedule", schedule,
                       "--threshold", "0", "--out-dir", str(tmp_path))
    assert code == 0, err
    result = json.loads((tmp_path / "xor_result.json").read_text())
    optimized = tmp_path / "optimized.json"
    optimized.write_text(json.dumps(result["schedule"]))
    code, out, err = run(capsys, "anneal", "--model", xor_model_file,
                         "--schedule", str(optimized))
    assert code == 0, err
    manifest, table = (tmp_path / "xor_trajectory.csv").read_text().split(
        "\n", 1)
    assert manifest == f"# manifest {result['manifest_hash']}"
    assert table == out
    assert len(out.splitlines()) == 1 + 11


def test_physical_pipeline_runs_without_couplings(capsys, input_files,
                                                  tmp_path):
    path = tmp_path / "uncoupled.json"
    path.write_text(json.dumps({"n": 2, "linear": [1, -1], "quadratic": []}))
    code, _, err = run(capsys, "pipeline", "--model", str(path),
                       "--mode", "physical", "--threshold", "0",
                       "--plan", input_files["{one_eval_plan}"],
                       "--out-dir", str(tmp_path))
    assert code == 0, err
    assert (tmp_path / "uncoupled_result.json").exists()


# SHA-256 over the exit code and stdout of each run in
# test_arithmetic_outputs_pinned
ARITHMETIC_OUTPUTS_SHA256 = (
    "3c7dd7397ce04e15b1459f0a405e386e729f81ac63ccd787c6491bc604ff8e23")


def test_arithmetic_outputs_pinned(capsys, tmp_path):
    """problem, spectrum, encode (both modes) and hardness --csv on every
    preset, and report --presets --csv: outputs of pure arithmetic at 12
    significant digits, pinned byte for byte."""
    digest = hashlib.sha256()

    def record(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        digest.update(f"{code}\n{out}".encode())
        return out

    for name in PRESET_NAMES:
        path = tmp_path / f"{name}.json"
        path.write_text(record("problem", "--preset", name))
        for argv in (["spectrum"], ["encode", "--mode", "ideal"],
                     ["encode", "--mode", "physical"], ["hardness", "--csv"]):
            record(argv[0], "--model", str(path), *argv[1:])
    record("report", "--presets", "--csv")
    assert digest.hexdigest() == ARITHMETIC_OUTPUTS_SHA256


def test_unexpected_exception_keeps_traceback(monkeypatch, xor_model_file):
    def broken(args):
        raise RuntimeError("a bug, not a failure with an exit code")

    monkeypatch.setattr(cli, "cmd_spectrum", broken)
    with pytest.raises(RuntimeError, match="a bug"):
        main(["spectrum", "--model", xor_model_file])


def test_bad_duration_exits_2_without_traceback(xor_model_file):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "rydqubo.cli", "anneal",
                           "--model", xor_model_file, "--duration", "-1"],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "--duration: must be positive" in proc.stderr


@pytest.mark.parametrize("key", ["{overflowing_low_model}",
                                 "{overflowing_high_model}"])
def test_overflowing_levels_print_the_error_line_first(input_files, key):
    """numpy's overflow warning from the energy doubling used to come first
    on stderr; the error line must lead, with nothing before it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "rydqubo.cli", "hardness",
                           "--model", input_files[key]], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: a level is not finite")


def test_closed_stdout_exits_0_quietly():
    """A reader that closes the pipe early, as ``| head`` does, is no failure.
    The read end is closed before the child starts, so its first write fails
    whatever the pipe's buffer size."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "rydqubo.cli", "problem",
                               "--preset", "two_sat"], env=env,
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == ""
