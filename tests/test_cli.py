import ast
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import levysheet
from levysheet import gauss, jumpsim, stationary
from levysheet.cli import build_parser, main
from levysheet.exponent import triplet_from_dict
from levysheet.paths import path_from_dict, path_to_dict


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

    def test_rejects_nan_time(self, capsys, brownian_file, bridge_file):
        code = main(["cf", "--triplet", brownian_file, "--path", bridge_file,
                     "--times", "nan", "--z", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "outside the path domain" in captured.err

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


def write_json(tmp_path, name, obj) -> str:
    f = tmp_path / name
    f.write_text(json.dumps(obj))
    return str(f)


def mixed_triplet_dict(dim):
    """Drift, Gaussian part and non-symmetric atom jumps together."""
    points = [[1.0], [-0.5]] if dim == 1 else [[1.0, 0.5], [-0.5, 0.25]]
    return {"gamma": [0.4, -0.3][:dim],
            "gaussian": [[0.7]] if dim == 1 else [[0.7, 0.2], [0.2, 0.5]],
            "jumps": {"kind": "scaled", "rate": 3.0,
                      "dist": {"name": "categorical",
                               "params": {"points": points, "probs": [0.7, 0.3]}}}}


class TestSimulate:
    def test_gauss_deterministic_output(self, tmp_path, brownian_file, bridge_file):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--triplet", brownian_file, "--path", bridge_file,
                "--grid", "0", "1", "11", "--seed", "7"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "t,v1"
        assert len(lines) == 12
        assert lines[1].split(",")[1] == "0.0"  # pinned start

    def test_cpp_events(self, capsys, one_atom_file, bridge_file):
        code = main(["simulate", "--events", "--triplet", one_atom_file,
                     "--path", bridge_file, "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "tau,dj1"

    def test_cpp_json_field(self, capsys, one_atom_file, bridge_file):
        code, out = run_json(capsys, ["simulate", "--events", "--triplet",
                                      one_atom_file, "--path", bridge_file,
                                      "--seed", "3", "--format", "json"])
        assert code == 0
        assert "field" in out and "events" in out

    def test_stationary(self, capsys, one_atom_file, exp_file):
        code = main(["simulate", "--triplet", one_atom_file, "--path", exp_file,
                     "--grid", "0", "1", "5", "--seed", "4"])
        assert code == 0
        assert capsys.readouterr().out.startswith("t,v1")

    @pytest.mark.parametrize("dim", [1, 2])
    def test_gauss_is_the_gaussian_sampler(self, capsys, tmp_path, bridge_file, dim):
        brownian = write_json(tmp_path, "brownian.json",
                              {"gamma": [0.0] * dim, "gaussian": np.eye(dim).tolist()})
        assert main(["simulate", "--triplet", brownian, "--path", bridge_file,
                     "--grid", "0", "1", "21", "--seed", "5"]) == 0
        grid = np.linspace(0.0, 1.0, 21)
        path = path_from_dict(json.loads(Path(bridge_file).read_text()))
        law = gauss.GaussPathLaw(path, dim=dim)
        draw = gauss.simulate_paths(law, grid, np.random.default_rng(5))[0]
        assert capsys.readouterr().out == gauss.SamplePathGrid(grid, draw).to_csv()

    def test_stationary_is_simulate_stationary(self, capsys, tmp_path, one_atom_file):
        exp = write_json(tmp_path, "exp.json", {"form": "exponential", "a": 1, "b": 0.5, "c": 1,
                                                "t_lo": 0, "t_hi": 2})
        assert main(["simulate", "--triplet", one_atom_file, "--path", exp,
                     "--grid", "0", "2", "41", "--seed", "4"]) == 0
        triplet = triplet_from_dict(json.loads(Path(one_atom_file).read_text()))
        law = stationary.StationaryLaw(triplet, a=1.0, b=0.5, c=1.0)
        draw = stationary.simulate_stationary(law, np.linspace(0.0, 2.0, 41),
                                              np.random.default_rng(4))
        assert capsys.readouterr().out == draw.to_csv()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_mixed_triplet_on_tabulated_path(self, capsys, tmp_path, flat_stretch_path, dim):
        triplet = write_json(tmp_path, "mixed.json", mixed_triplet_dict(dim))
        path = write_json(tmp_path, "flat.json", path_to_dict(flat_stretch_path))
        assert main(["simulate", "--triplet", triplet, "--path", path,
                     "--grid", "0", "1", "33", "--seed", "6"]) == 0
        grid = np.linspace(0.0, 1.0, 33)
        draw = jumpsim.simulate_triplet(triplet_from_dict(mixed_triplet_dict(dim)),
                                        flat_stretch_path, grid, 1, np.random.default_rng(6))[0]
        assert capsys.readouterr().out == gauss.SamplePathGrid(grid, draw).to_csv()

    # SHA-256 of stdout by (dim, seed) (numpy 2.4's Generator streams).  A batch of at most
    # 2^19 jump events draws from the seeded generator itself, so how larger batches are cut
    # into blocks does not reach these bytes.
    PINNED = {(1, 1): "38734770e079502be9a1821e9793aae16af8a988aefd65add42a9318aabf0c2c",
              (1, 2): "da412224f3afd18a41efc923c9c0c640fa0a4c232ba2b436ba82a2a194ed66b4",
              (1, 3): "7f19ad1f145ab0ac7e19b464ba4a4a35d0a5ecdd56466d5bdf155f03f767c868",
              (2, 1): "6dbe1b8dda252a3d8b8fc860519d2a13fd500bdba800b4b1222a78bf51d60df6",
              (2, 2): "aecbbc1938532d56db86060e4ff5c81a70f285fe948c2ac43e7b88563e31bdc3",
              (2, 3): "83288a6b550d3bea93f75f0c696d8c00094ba659ec1ad5e4ce67c6e70a24f29b"}

    @pytest.mark.parametrize("dim, seed", PINNED)
    def test_mixed_triplet_output_is_pinned(self, capsys, tmp_path, flat_stretch_path, dim, seed):
        triplet = write_json(tmp_path, "mixed.json", mixed_triplet_dict(dim))
        path = write_json(tmp_path, "flat.json", path_to_dict(flat_stretch_path))
        assert main(["simulate", "--triplet", triplet, "--path", path,
                     "--grid", "0", "1", "33", "--seed", str(seed)]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == self.PINNED[dim, seed]

    def test_cpp_rejects_drift_and_gaussian_part(self, capsys, tmp_path, bridge_file):
        mixed = tmp_path / "mixed.json"
        mixed.write_text(json.dumps({
            "gamma": [5.0], "gaussian": [[1.0]],
            "jumps": {"kind": "discrete", "atoms": [{"x": [1.0], "mass": 2.0}]},
        }))
        for seed in ("1", "2", "3"):
            assert main(["simulate", "--events", "--triplet", str(mixed),
                         "--path", bridge_file, "--seed", seed]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "drift" in captured.err and "Gaussian part" in captured.err

    def test_gauss_rejects_dim_zero(self, capsys, tmp_path, bridge_file):
        empty = write_json(tmp_path, "empty.json", {"gamma": [], "gaussian": []})
        assert main(["simulate", "--triplet", empty, "--path", bridge_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "gamma must be a nonempty" in captured.err

    def test_gauss_needs_path(self, capsys, brownian_file):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--triplet", brownian_file])
        assert exc.value.code == 2
        assert "--path" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--law", "gauss"], ["--dim", "2"], ["--a", "1"],
                                      ["--b", "0.5"], ["--c", "1"], ["--events", "--grid", "0", "1", "5"]])
    def test_rejects_removed_and_unused_flags(self, capsys, brownian_file, bridge_file, flag):
        # the law and path come only from their files; --events draws no grid, so takes no --grid
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--triplet", brownian_file, "--path", bridge_file] + flag)
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_help_lists_its_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        assert set(re.findall(r"--[a-z]+", capsys.readouterr().out)) == {
            "--help", "--triplet", "--path", "--grid", "--events", "--seed", "--format", "--out"}

    @pytest.mark.parametrize("grid", [["0", "1", "inf"], ["0", "1", "nan"], ["0", "1", "10.7"],
                                      ["0", "1", "1"], ["1", "1", "5"], ["0", "inf", "5"],
                                      ["nan", "1", "5"]])
    def test_grid_is_validated(self, capsys, brownian_file, bridge_file, grid):
        for argv in (["simulate", "--triplet", brownian_file, "--path", bridge_file],
                     ["experiment", "bridge", "--n", "10"]):
            assert main(argv + ["--grid"] + grid) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: --grid needs")


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

    def test_zerocross_to_vanishing_y(self, capsys, bridge_file):
        # the bridge is pinned to 0 at t = 1: every probability is the limit 1
        code, out = run_json(capsys, ["experiment", "zerocross", "--path",
                                      bridge_file, "--t", "1", "--n", "200",
                                      "--grid-points", "50", "--seed", "2", "--z", "0.1"])
        assert code == 0
        assert out["analytic"] == out["empirical"] == out["conditional"] == 1.0

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_zerocross_rejects_degenerate_grid(self, capsys, bridge_file, points):
        code = main(["experiment", "zerocross", "--path", bridge_file, "--s", "0.25",
                     "--t", "0.75", "--n", "10", "--grid-points", points])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: grid_points")

    def test_zerocross_checks_z_before_drawing(self, capsys, monkeypatch, bridge_file):
        def estimate(*args):
            raise AssertionError("the Monte Carlo estimate ran before --z was checked")

        monkeypatch.setattr(gauss, "zero_crossing_frequency", estimate)
        assert main(["experiment", "zerocross", "--path", bridge_file, "--z", "nan"]) == 1
        assert capsys.readouterr().err.startswith("error: conditioning value")

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

    def test_knot_row_of_length_two(self, capsys, tmp_path):
        bad = tmp_path / "p.json"
        bad.write_text(json.dumps({"form": "tabulated",
                                   "knots": [[0.0, [1.0, 2.0]], [0.5, [2.0, 1.5]], [1.0, [3.0, 1.0]]]}))
        assert main(["classify", "--path", str(bad)]) == 1
        assert "[t, x, y]" in capsys.readouterr().err

    def test_unknown_form(self, capsys, tmp_path):
        bad = tmp_path / "p.json"
        bad.write_text(json.dumps({"form": "spiral"}))
        assert main(["classify", "--path", str(bad)]) == 1
        assert "spiral" in capsys.readouterr().err


# (argv, flags that take a float, flags that take an integer); each argv keeps
# its run small, and the bad value comes after it, so it wins
_NUMERIC_FLAGS = [
    (["classify"], ["--tol"], []),
    (["equivalent"], ["--tol"], []),
    (["experiment", "ou"], ["--c"], []),
    (["experiment", "zerocross", "--n", "10", "--grid-points", "50"], ["--s", "--t", "--z"],
     ["--n", "--grid-points"]),
    (["experiment", "bridge", "--n", "10", "--rate", "20"], ["--l", "--grid"], ["--rate", "--n"]),
    (["experiment", "rwbridge", "--n", "10", "--rate", "20"], ["--l", "--s", "--t"],
     ["--rate", "--n"]),
]


def _bad_numbers():
    for argv, floats, ints in _NUMERIC_FLAGS:
        for flag in floats:
            for bad in ("nan", "inf", "-inf"):
                if flag == "--grid":  # LO, HI and N in turn; argparse reads " -inf" as a value
                    for k in range(3):
                        grid = ["0", "1", "5"]
                        grid[k] = " " + bad
                        yield argv, [flag] + grid
                else:
                    yield argv, [f"{flag}={bad}"]
        for flag in ints:
            for bad in ("0", "-1"):
                yield argv, [f"{flag}={bad}"]


@pytest.mark.parametrize("argv, bad", list(_bad_numbers()),
                         ids=" ".join)
def test_bad_numbers_exit_1(capsys, brownian_file, bridge_file, argv, bad):
    inputs = {"classify": ["--path", bridge_file],
              "equivalent": ["--path", bridge_file, "--path2", bridge_file],
              "ou": ["--triplet", brownian_file], "zerocross": ["--path", bridge_file]}
    kind = argv[1] if argv[0] == "experiment" else argv[0]
    assert main(argv + inputs.get(kind, []) + bad) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert "nan" not in captured.out.lower()

def test_cli_import_loads_no_scipy():
    """scipy is imported where a statistic needs it, so one-shot commands start fast."""
    src = str(Path(levysheet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, levysheet.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_readme_examples_parse():
    """Every `levysheet` line of README's command-line block parses, so a removed
    or renamed flag fails here instead of leaving the docs stale."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("levysheet ")]
    assert len(lines) >= 10
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


def test_readme_names_exist():
    """Every backticked snake_case name with an underscore in README.md is defined in
    src/levysheet (a function, class, parameter or assigned name) or is a string literal
    there (a JSON key such as `x_intercept`), so a deleted or renamed name fails here."""
    root = Path(__file__).resolve().parents[1]
    defined = set()
    for path in (root / "src" / "levysheet").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.arg):
                defined.add(node.arg)
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
                defined.add(getattr(node, "id", None) or node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                defined.add(node.value)
    spans = re.findall(r"`([^`\n]+)`", (root / "README.md").read_text())
    names = {name for span in spans for name in re.findall(r"\b[a-z][a-z0-9]*(?:_[a-z0-9]+)+\b", span)}
    assert len(names) >= 20
    assert not names - defined, f"README names no longer in src/levysheet: {sorted(names - defined)}"
