import json
import math

import pytest

from rydqubo.cli import main


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


def test_optimize_matches_pipeline(capsys, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(
        {"stages": [{"kind": "gradient", "max_evals": 3}]}))
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps(
        {"T_us": 2.0, "delta": {"coeffs": [0.0]}, "omega": {"coeffs": [1.0]},
         "sample_count": 11}))
    outputs = {}
    for command in ("optimize", "pipeline"):
        out_dir = tmp_path / command
        code, out, _ = run(capsys, command, "--preset", "xor_sat",
                           "--plan", str(plan), "--schedule", str(schedule),
                           "--out-dir", str(out_dir))
        result = json.loads((out_dir / "xor_sat_result.json").read_text())
        del result["manifest"]["timestamp"]
        files = [(out_dir / f"xor_sat_{kind}.csv").read_text()
                 for kind in ("trajectory", "hardness")]
        outputs[command] = (code, out, result, files)
    assert outputs["optimize"] == outputs["pipeline"]


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
