import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rydqubo import cli, models
from rydqubo.annealer import PropagationConfig, Schedule, propagate
from rydqubo.cli import main
from rydqubo.hardness import format_value
from rydqubo.models import (QuboModel, enumerate_spectrum, model_from_dict,
                            state_bits)
from rydqubo.optimizer import AnnealObjective, initial_parameters
from rydqubo.pipeline import default_schedule, encode_for_annealing
from rydqubo.problems import PRESET_NAMES, preset_instance

from conftest import TIED_START_MODEL, random_qubo, source_optimum

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


@pytest.mark.parametrize("model", [
    QuboModel(12, (0.0,) * 12, {}),  # every one of 4,096 patterns is ground
    QuboModel(0, (), {}, 1.5),
    QuboModel(1, (-1.0,), {}),
], ids=["flat-12", "n-0", "n-1"])
def test_spectrum_grounds_spell_state_bits(capsys, tmp_path, model):
    """Each ground state prints as its state_bits, x_0 first, in ascending
    pattern order, one space apart."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model.to_dict()))
    code, out, _ = run(capsys, "spectrum", "--model", str(path))
    table = enumerate_spectrum(model)
    grounds = [''.join(map(str, state_bits(s, model.n)))
               for s in table.ground_states.tolist()]
    assert code == 0
    assert out.splitlines()[-1] == (
        f"# C_opt={format_value(table.e_min)} C_max={format_value(table.e_max)}"
        f" D_opt={len(grounds)} grounds={' '.join(grounds)}")


def test_spectrum_writes_every_level_in_one_print(capsys, tmp_path,
                                                monkeypatch):
    """A random float model at n = 12 has one level per pattern.  Its 4,096
    lines are the format_value of each level, in order, and the whole table
    goes out in one print, the footer in another."""
    model = random_qubo(np.random.default_rng(12), 12)
    table = enumerate_spectrum(model)
    assert len(table.energies) == 4096
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model.to_dict()))
    calls = []
    monkeypatch.setattr(cli, "print", lambda *args, **kwargs: (
        calls.append(args), print(*args, **kwargs)), raising=False)
    code, out, _ = run(capsys, "spectrum", "--model", str(path))
    assert code == 0
    assert len(calls) == 2
    assert out.splitlines()[:-1] == ["energy,multiplicity", *(
        f"{format_value(e)},{c}" for e, c in zip(table.energies.tolist(),
                                                 table.counts.tolist()))]


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


def test_one_atom_layout_and_validate_agree(capsys, tmp_path):
    """A one-atom model has no pair to get wrong: `layout` reports a zero
    residual, and `validate` passes the same layout with the same numbers."""
    model_path, layout_path = tmp_path / "one.json", tmp_path / "layout.json"
    model_path.write_text('{"n": 1, "linear": [1.0], "quadratic": []}')
    code, _, _ = run(capsys, "layout", "--model", str(model_path),
                     "--out", str(layout_path))
    assert code == 0
    written = json.loads(layout_path.read_text())
    code, out, _ = run(capsys, "validate", "--model", str(model_path),
                       "--layout", str(layout_path))
    assert code == 0
    assert (written["max_rel_error"], written["worst_pair"]) == (0.0, [-1, -1])
    assert out == ("max_rel_error=0 worst_pair=(-1, -1) worst_unwanted=0 "
                   "passed=True\n")


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
        {"stages": [{"kind": "gradient", "max_evals": 1}]}))
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


def test_report_result_file_prints_the_presets_row(capsys, short_run_files,
                                                   tmp_path):
    """The spectral columns of a pipeline result are the preset's row of
    ``report --presets``; the note leads with R."""
    plan, schedule = short_run_files
    code, _, err = run(capsys, "pipeline", "--preset", "two_sat", "--plan",
                       plan, "--schedule", schedule, "--threshold", "0",
                       "--out-dir", str(tmp_path))
    assert code == 0, err
    result = json.loads((tmp_path / "two_sat_result.json").read_text())
    code, out, _ = run(capsys, "report", str(tmp_path / "two_sat_result.json"),
                       "--csv")
    assert code == 0
    header, row = out.splitlines()
    code, presets, _ = run(capsys, "report", "--presets", "--csv")
    assert code == 0
    want = next(line for line in presets.splitlines()
                if line.startswith("two_sat,"))
    assert header == presets.splitlines()[0]
    assert row.rsplit(",", 1)[0] == want.rsplit(",", 1)[0]
    assert row.rsplit(",", 1)[1] == (f"R={result['R']:.6f}; "
                                     "normalized by spectral width")
    assert (tmp_path / "two_sat_hardness.csv").read_text() == \
        presets.splitlines()[0] + "\n" + want + "\n"


def test_report_result_file_prints_an_error_row(capsys, short_run_files,
                                                tmp_path):
    """A one-level spectrum has no hardness: the run stores the error, and
    ``report`` prints it as ``report_rows`` prints an error row."""
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"n": 2, "linear": [0.0, 0.0],
                                "quadratic": [], "constant": 1.5}))
    plan, schedule = short_run_files
    code, _, err = run(capsys, "pipeline", "--model", str(path), "--plan",
                       plan, "--schedule", schedule, "--threshold", "0",
                       "--out-dir", str(tmp_path))
    assert code == 0
    assert err == ("warning: hardness row failed: constant spectrum: no "
                   "excited subspace\n")
    assert not (tmp_path / "flat_hardness.csv").exists()
    result = json.loads((tmp_path / "flat_result.json").read_text())
    assert result["hardness"] == {
        "error": "constant spectrum: no excited subspace"}
    code, out, _ = run(capsys, "report", str(tmp_path / "flat_result.json"),
                       "--csv")
    assert code == 0
    cells = ["constant spectrum: no excited subspace"] * 7
    assert out.splitlines()[1] == ",".join(["flat", *cells, "R=1.000000"])


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
    11-variable model, a 21-variable chain, a Fourier schedule, a model whose n overflows int, layouts of two atoms
    and of three atoms of which two coincide, a schedule in a basis other
    than Fourier, a one-evaluation plan, a plan naming the simplex kind and
    a one-row spectral input; files that hold NaN or Infinity, a string or
    a boolean where a number is read, a fractional number where an integer
    is read, a negative omega_max or a negative stage tolerance; a finite
    model whose encoding overflows, two whose lowest or highest energy
    overflows and one whose HP overflows; a config whose t_max is 10 and one that sets the removed
    lifetime_us, schedules whose T_us or omega_max exceed the default
    limits, a schedule that sets a Delta_G(0) other than 0, layouts whose C6
    is 0 or -1, a result file without its hardness row; an output path in a
    missing directory, and an output directory."""
    nan, schedule = float("nan"), {"T_us": 2.0, "delta": {"coeffs": [0.5]},
                                   "omega": {"coeffs": [1.0]}}
    gradient = {"kind": "gradient", "max_evals": 1}
    spectral = {"problem": "x", "E0": -1.0, "gap": 0.5, "D_opt": 1,
                "threat_degeneracies": []}
    hardness = {"problem": "x", "E0": -1.0, "gap": 0.5, "D_opt": 1, "D_E1": 1,
                "threats": 0, "Sigma": 0.0, "HP": 0.0, "note": ""}
    data = {"mixed": preset_instance("mixed").model.to_dict(),
            "n11": {"n": 11, "linear": [1.0] * 11,
                    "quadratic": [[0, 1, 1.0]]},
            "n21_chain": {"n": 21, "linear": [1.0] * 21,
                          "quadratic": [[i, i + 1, 1.0] for i in range(20)]},
            "schedule": schedule,
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
            "string_result": {"instance": "x", "R": 0.5,
                              "hardness": {**hardness, "E0": "nan"}},
            "fractional_result": {"instance": "x", "R": 0.5,
                                  "hardness": {**hardness, "D_opt": 1.5}},
            "no_hardness_result": {"instance": "x", "R": 0.5,
                                   "ground_states": [0]},
            "bool_config": {"omega_max": True},
            "short_t_max_config": {"t_max": 10},
            "long_schedule": {**schedule, "T_us": 500},
            "strong_schedule": {**schedule, "omega": {"coeffs": [1.0],
                                                      "omega_max": 1000}},
            "delta0_schedule": {**schedule, "delta": {"coeffs": [0.5],
                                                      "delta0": -1.0}},
            "zero_c6_layout": {"positions_um": [[0.0, 0.0], [10.0, 0.0]],
                               "C6": 0},
            "negative_c6_layout": {"positions_um": [[0.0, 0.0], [10.0, 0.0]],
                                   "C6": -1},
            "bool_model": {"n": 2, "linear": [True, 1.0], "quadratic": []},
            "bool_r_result": {"instance": "x", "R": True,
                              "hardness": hardness},
            "lifetime_config": {"lifetime_us": 234.0},
            "overflowing_encoding_model": {
                "n": 3, "linear": [1e308, 1, 1],
                "quadratic": [[0, 1, 1e308], [1, 2, 1]],
                "convention": "ising"},
            "overflowing_low_model": {"n": 2, "linear": [-1e308, -1e308],
                                      "quadratic": []},
            "overflowing_high_model": {"n": 2, "linear": [1e308, 1e308],
                                       "quadratic": []},
            "tiny_gap_model": {"n": 1, "linear": [1e-105], "quadratic": [],
                               "constant": 1e-100}}
    files = {"{xor}": xor_model_file,
             "{missing_dir_out}": str(tmp_path / "missing" / "out.json"),
             "{out_dir}": str(tmp_path / "runs")}
    for name, content in data.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(content))
        files["{" + name + "}"] = str(path)
    return files


OVER_CAP = ("error: propagation failed: n=21 exceeds the propagation cap of 10 "
            "atoms")

def two_sat(params):
    return ["problem", "--family", "two_sat", "--params", params]


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
    pytest.param(["problem", "--family", "qap", "--params", json.dumps(
        {"flow": [[0, 1], [1, 0]], "distance": [[0, 2], [2, 0]],
         "penalty_facility": 8, "penalty_location": 8, "n": 7})],
                 2, "error: bad family parameters: ValueError: ",
                 id="params-unread-n"),
    pytest.param(["problem", "--family", "xor_sat", "--params",
                  '{"n": 2, "constraints": [[0, 1, 1]], "clauses": []}'],
                 2, "error: bad family parameters: ValueError: ",
                 id="params-unread-clauses"),
    pytest.param(two_sat('{"n": 2, "clauses": [[[0, false], [1, false]]], '
                         '"penalty": NaN}'),
                 2, "error: bad family parameters: ValueError: non-finite",
                 id="params-nan"),
    pytest.param(["problem", "--family", "xor_sat", "--params",
                  '{"n": 2, "constraints": [[0, 1, Infinity]]}'],
                 2, "error: bad family parameters: ValueError: non-finite",
                 id="constraints-infinity"),
    pytest.param(two_sat('{"n": 2, "clauses": [[[0, false], [1, 1e400]]]}'),
                 2, "error: bad family parameters: OverflowError: ",
                 id="clauses-overflow"),
    # family parameters are read from --params alone
    pytest.param(["problem", "--family", "two_sat", "--clauses", "[]"],
                 2, "usage: rydqubo ", id="clauses-option-removed"),
    pytest.param(two_sat('{"clauses": []}'), 2,
                 "error: bad family parameters: TypeError: ",
                 id="params-missing-n"),
    # the ground states of a negative weight violate every constraint
    pytest.param(["problem", "--family", "xor_sat", "--params",
                  '{"n": 2, "constraints": [[0, 1, 1]], "weight": -1}'],
                 3, "error: weight must be positive", id="params-negative-weight"),
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
    pytest.param(["anneal", "--model", "{xor}", "--schedule", "{schedule}",
                  "--duration", "50"], 2, "usage: rydqubo anneal",
                 id="anneal-duration-with-schedule"),
    pytest.param(["anneal", "--model", "{n11}"], 5,
                 "error: propagation failed: ", id="anneal-over-cap"),
    # past the enumeration cap of 20 too, with or without --schedule: the
    # propagation cap is checked before the spectrum is enumerated
    pytest.param(["anneal", "--model", "{n21_chain}"], 5, OVER_CAP,
                 id="anneal-over-both-caps"),
    pytest.param(["anneal", "--model", "{n21_chain}", "--schedule",
                  "{schedule}"], 5, OVER_CAP, id="anneal-schedule-over-both-caps"),
    pytest.param(["pipeline", "--model", "{n21_chain}", "--out-dir",
                  "{out_dir}"], 5, OVER_CAP, id="pipeline-over-both-caps"),
    pytest.param(["pipeline", "--model", "{n21_chain}", "--schedule",
                  "{schedule}", "--out-dir", "{out_dir}"], 5, OVER_CAP,
                 id="pipeline-schedule-over-both-caps"),
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
    pytest.param(["anneal", "--model", "{xor}",
                  "--schedule", "{delta0_schedule}"],
                 2, "error: cannot load schedule ", id="schedule-nonzero-delta0"),
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
    # |E0| G^2 = 1e-310 puts HP past the float range
    pytest.param(["hardness", "--model", "{tiny_gap_model}"], 3,
                 "error: HP overflows a float", id="hardness-hp-inf"),
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
    pytest.param(["report", "{fractional_result}"], 2,
                 "error: cannot load result ", id="result-fractional-d-opt"),
    pytest.param(["report", "{no_hardness_result}"], 2,
                 "error: cannot load result ", id="result-without-hardness"),
    # the removed lifetime_us is an unknown key, as any other is
    pytest.param(["anneal", "--model", "{xor}", "--config",
                  "{lifetime_config}", "--duration", "2", "--steps", "20"],
                 2, "error: cannot load config ", id="config-lifetime-removed"),
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
    # removed: the model's constant sets the energy zero
    pytest.param(["hardness", "--model", "{xor}", "--energy-shift", "nan"], 2,
                 "usage: rydqubo [-h]", id="hardness-energy-shift-nan"),
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
    # a layout whose C6 is not positive is malformed, not a failed layout
    pytest.param(["validate", "--model", "{xor}", "--layout",
                  "{zero_c6_layout}"], 2, "error: cannot load layout ",
                 id="layout-c6-zero"),
    pytest.param(["validate", "--model", "{xor}", "--layout",
                  "{negative_c6_layout}"], 2, "error: cannot load layout ",
                 id="layout-c6-negative"),
    # every schedule a run uses, default or from a file, is checked against
    # the limits: nothing is clipped
    pytest.param(["anneal", "--model", "{xor}", "--duration", "500"], 2,
                 "error: schedule T_us = 500.0 exceeds the hardware limit "
                 "t_max = 200.0", id="anneal-duration-past-t-max"),
    pytest.param(["anneal", "--model", "{xor}", "--config",
                  "{short_t_max_config}"], 2,
                 "error: schedule T_us = 60.0 exceeds the hardware limit "
                 "t_max = 10.0", id="anneal-default-past-t-max"),
    pytest.param(["anneal", "--model", "{xor}", "--schedule",
                  "{long_schedule}"], 2,
                 "error: schedule T_us = 500.0 exceeds ",
                 id="anneal-schedule-past-t-max"),
    pytest.param(["anneal", "--model", "{xor}", "--schedule",
                  "{strong_schedule}"], 2,
                 "error: schedule omega_max = 1000.0 exceeds the hardware "
                 "limit omega_max = 31.4", id="anneal-schedule-past-omega-max"),
    pytest.param(["pipeline", "--preset", "xor_sat", "--config",
                  "{short_t_max_config}", "--out-dir", "{out_dir}"], 2,
                 "error: schedule T_us = 40.0 exceeds the hardware limit "
                 "t_max = 10.0", id="pipeline-default-past-t-max"),
    pytest.param(["pipeline", "--preset", "xor_sat", "--schedule",
                  "{long_schedule}", "--out-dir", "{out_dir}"], 2,
                 "error: schedule T_us = 500.0 exceeds ",
                 id="pipeline-schedule-past-t-max"),
    pytest.param(["pipeline", "--preset", "xor_sat", "--schedule",
                  "{strong_schedule}", "--out-dir", "{out_dir}"], 2,
                 "error: schedule omega_max = 1000.0 exceeds ",
                 id="pipeline-schedule-past-omega-max"),
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
    """Whatever ties the target has, ``anneal`` starts where ``pipeline``
    does, at |00..0>: E(0) is the target energy of basis state 0, and each
    Delta_j(0) is -s, the uniform term alone."""
    path = tmp_path / "tied.json"
    path.write_text(json.dumps(TIED_START_MODEL))
    code, out, err = run(capsys, "anneal", "--model", str(path),
                         "--duration", "2", "--steps", "20")
    assert code == 0, err
    assert err.startswith("# E(T)=")
    header, first = (line.split(",") for line in out.splitlines()[:2])
    enc = encode_for_annealing(model_from_dict(TIED_START_MODEL)).target
    assert float(first[header.index("E")]) == pytest.approx(
        enc.diagonal_energies()[0] + enc.constant, rel=1e-11)
    assert [first[header.index(f"delta_{j + 1}")] for j in range(enc.n)] == \
        [format_value(-enc.energy_scale)] * enc.n


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


def test_anneal_schedule_file_drives_the_anneal(capsys, input_files):
    """``--schedule`` gives the pulse as it is read from the file."""
    path = input_files["{schedule}"]
    code, out, err = run(capsys, "anneal", "--model", input_files["{xor}"],
                         "--schedule", path, "--steps", "20")
    assert code == 0, err
    header, *rows = [line.split(",") for line in out.splitlines()]
    model = preset_instance("xor_sat").model
    enc = encode_for_annealing(model).target
    schedule = Schedule.from_dict(json.loads(Path(path).read_text()))
    _, traj = propagate(enc, schedule, PropagationConfig(initial_steps=20),
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
    assert models.enumerate_spectrum(model).ground_states.tolist() == [2]

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
    """(plan, schedule) files of a one-evaluation run over 2 us."""
    plan, schedule = tmp_path / "plan.json", tmp_path / "schedule.json"
    plan.write_text(json.dumps(
        {"stages": [{"kind": "gradient", "max_evals": 1}]}))
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
