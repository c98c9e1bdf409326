import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import levysheet
from levysheet.cli import main


@pytest.fixture
def brownian_file(tmp_path):
    f = tmp_path / "brownian.json"
    f.write_text(json.dumps({"gamma": [0.0], "gaussian": [[1.0]]}))
    return str(f)


@pytest.fixture
def one_atom_file(tmp_path):
    f = tmp_path / "one_atom.json"
    f.write_text(json.dumps({
        "gamma": [1.0], "gaussian": [[0.0]],
        "jumps": {"kind": "discrete", "atoms": [{"x": [1.0], "mass": 1.0}]},
    }))
    return str(f)


@pytest.fixture
def bridge_file(tmp_path):
    f = tmp_path / "bridge.json"
    f.write_text(json.dumps({"form": "linear", "a": 0.0, "b": 1.0, "c": 1.0,
                             "d": 1.0, "t_lo": 0.0, "t_hi": 1.0}))
    return str(f)


@pytest.fixture
def exp_file(tmp_path):
    f = tmp_path / "exp.json"
    f.write_text(json.dumps({"form": "exponential", "a": 1.0, "b": 1.0, "c": 1.0,
                             "t_lo": 0.0, "t_hi": 1.0}))
    return str(f)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestClassify:
    def test_exponential(self, capsys, exp_file):
        code, out = run_json(capsys, ["classify", "--path", exp_file])
        assert code == 0
        assert out["class"] == "exponential"
        assert out["phi"] == {"a": 1.0, "b": 1.0, "c": 1.0}

    def test_linear(self, capsys, bridge_file):
        code, out = run_json(capsys, ["classify", "--path", bridge_file])
        assert code == 0
        assert out["class"] == "linear"


class TestCF:
    def test_bridge_midpoint(self, capsys, brownian_file, bridge_file):
        code, out = run_json(capsys, ["cf", "--triplet", brownian_file,
                                      "--path", bridge_file,
                                      "--times", "0.5", "--z", "1"])
        assert code == 0
        assert out["re"] == pytest.approx(0.8825, abs=5e-5)
        assert out["im"] == 0.0

    def test_increment_pinned(self, capsys, brownian_file, bridge_file):
        code, out = run_json(capsys, ["increment-cf", "--triplet", brownian_file,
                                      "--path", bridge_file,
                                      "--s", "0", "--t", "1", "--z", "2.0"])
        assert code == 0
        assert out["re"] == pytest.approx(1.0)

    def test_wrong_probe_count(self, capsys, brownian_file, bridge_file):
        code = main(["cf", "--triplet", brownian_file, "--path", bridge_file,
                     "--times", "0.5", "0.7", "--z", "1"])
        assert code == 1
        assert "--z" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--format", "csv"], ["--seed", "3"]])
    def test_rejects_unused_flags(self, capsys, brownian_file, bridge_file, flag):
        # cf draws nothing and writes JSON only, so it takes neither flag.
        with pytest.raises(SystemExit) as exc:
            main(["cf", "--triplet", brownian_file, "--path", bridge_file,
                  "--times", "0.5", "--z", "1"] + flag)
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err


class TestEquivalent:
    def test_scaled(self, capsys, bridge_file, tmp_path):
        other = tmp_path / "scaled.json"
        other.write_text(json.dumps({"form": "linear", "a": 0.0, "b": 2.0,
                                     "c": 0.5, "d": 0.5, "t_lo": 0.0, "t_hi": 1.0}))
        code, out = run_json(capsys, ["equivalent", "--path", bridge_file,
                                      "--path2", str(other)])
        assert code == 0
        assert out["equivalent"] is True
        assert out["p"] == pytest.approx(2.0)


class TestSimulate:
    def test_gauss_deterministic_output(self, tmp_path, bridge_file):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--law", "gauss", "--path", bridge_file,
                "--grid", "0", "1", "11", "--seed", "7"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "t,v1"
        assert len(lines) == 12
        assert lines[1].split(",")[1] == "0.0"  # pinned start

    def test_cpp_events(self, capsys, one_atom_file, bridge_file):
        code = main(["simulate", "--law", "cpp", "--triplet", one_atom_file,
                     "--path", bridge_file, "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "tau,dj1"

    def test_cpp_json_field(self, capsys, one_atom_file, bridge_file):
        code, out = run_json(capsys, ["simulate", "--law", "cpp", "--triplet",
                                      one_atom_file, "--path", bridge_file,
                                      "--seed", "3", "--format", "json"])
        assert code == 0
        assert "field" in out and "events" in out

    def test_stationary(self, capsys, one_atom_file):
        code = main(["simulate", "--law", "stationary", "--triplet", one_atom_file,
                     "--a", "1", "--b", "0.5", "--c", "1",
                     "--grid", "0", "1", "5", "--seed", "4"])
        assert code == 0
        assert capsys.readouterr().out.startswith("t,v1")

    def test_gauss_needs_path(self, capsys):
        assert main(["simulate", "--law", "gauss"]) == 1
        assert "--path" in capsys.readouterr().err


class TestExperiments:
    def test_ou_witness(self, capsys, one_atom_file):
        code, out = run_json(capsys, ["experiment", "ou", "--triplet",
                                      one_atom_file, "--c", "1.0"])
        assert code == 0
        assert out["witness"] is not None
        assert out["witness"]["gap"] > 1e-3

    def test_ou_gaussian_null(self, capsys, brownian_file):
        code, out = run_json(capsys, ["experiment", "ou", "--triplet",
                                      brownian_file, "--c", "1.0"])
        assert code == 0
        assert out["witness"] is None

    def test_zerocross(self, capsys, bridge_file):
        code, out = run_json(capsys, ["experiment", "zerocross", "--path",
                                      bridge_file, "--s", "0.25", "--t", "0.75",
                                      "--n", "2000", "--grid-points", "500",
                                      "--seed", "2", "--z", "0.1"])
        assert code == 0
        assert abs(out["empirical"] - out["analytic"]) < 0.05
        assert 0.0 < out["conditional"] < 1.0

    def test_bridge(self, capsys):
        code, out = run_json(capsys, ["experiment", "bridge", "--rate", "200",
                                      "--n", "400", "--grid", "0", "1", "5",
                                      "--seed", "2"])
        assert code == 0
        assert len(out["variance"]) == len(out["variance_target"])

    def test_rwbridge(self, capsys):
        code, out = run_json(capsys, ["experiment", "rwbridge", "--rate", "300",
                                      "--n", "1000", "--s", "0.3", "--t", "0.6",
                                      "--seed", "2"])
        assert code == 0
        assert abs(out["covariance"] - out["covariance_target"]) <= 6 * out["se"]

    @pytest.mark.parametrize("argv", [
        ["rwbridge", "--n", "200", "--rate", "50", "--grid", "0", "1", "3",
         "--path", "nonexistent.json", "--z", "5"],
        ["ou", "--triplet", "t.json", "--seed", "3"],
    ])
    def test_flags_of_other_kinds_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["experiment"] + argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_required_inputs(self, capsys):
        for kind, flag in (("ou", "--triplet"), ("zerocross", "--path")):
            with pytest.raises(SystemExit) as exc:
                main(["experiment", kind])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err


class TestVerify:
    def test_stationary_suite_passes(self, capsys, tmp_path):
        out = tmp_path / "reports.jsonl"
        code = main(["verify", "--suite", "stationary", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert all(l["passed"] for l in lines)
        assert any(l["name"].startswith("c9.") for l in lines)
        summary = capsys.readouterr().out
        assert "PASS" in summary


class TestErrors:
    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["classify", "--path", str(bad)])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_field_named(self, capsys, tmp_path):
        bad = tmp_path / "triplet.json"
        bad.write_text(json.dumps({"gaussian": [[1.0]]}))
        code = main(["cf", "--triplet", str(bad), "--path", str(bad),
                     "--times", "0.5", "--z", "1"])
        assert code == 1
        assert "gamma" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        code = main(["classify", "--path", "/nonexistent/p.json"])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_unknown_form(self, capsys, tmp_path):
        bad = tmp_path / "p.json"
        bad.write_text(json.dumps({"form": "spiral"}))
        assert main(["classify", "--path", str(bad)]) == 1
        assert "spiral" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    """scipy is imported where a statistic needs it, so one-shot commands start fast."""
    src = str(Path(levysheet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, levysheet.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
