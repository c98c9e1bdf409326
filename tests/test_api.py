"""Every public name is reached by the program, not only by the tests, and every
value type compares and hashes without raising.

A name in a module's `__all__` counts as reached when some identifier in
`src/levysheet` outside its own top-level definition, or in `demos/` or
`perfbench/`, refers to it.  Imports and the `__all__` strings are not
references.
"""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

from levysheet import exponent, gauss, jumpsim, paths, stationary, verify

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "levysheet"

# The writers of the JSON schemas that the CLI reads; their round-trip tests pin the readers.
ALLOWED = {"path_to_dict", "triplet_to_dict"}


def _identifiers(node) -> set[str]:
    """Names and attribute names used in the node."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def _exported(tree) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def test_every_public_name_is_reached():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    # per module, (top-level definition name or None, identifiers used in it)
    parts = {stem: [(getattr(node, "name", None), _identifiers(node)) for node in tree.body]
             for stem, tree in trees.items()}
    programs = set()
    for folder in ("demos", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            programs |= _identifiers(ast.parse(path.read_text()))
    unreached = []
    for stem, tree in trees.items():
        outside = programs.union(*(ids for other, chunk in parts.items() if other != stem
                                   for _, ids in chunk))
        for name in _exported(tree):
            used = outside.union(*(ids for defined, ids in parts[stem] if defined != name))
            if name not in used and name not in ALLOWED:
                unreached.append(f"{stem}.{name}")
    assert not unreached, f"public names only the tests reach: {unreached}"


def test_import_loads_only_the_core_modules():
    """`import levysheet` loads its six core modules and nothing that costs start-up time:
    no scipy, no thread pool, and not the CLI or the verification modules."""
    code = ("import sys, levysheet\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('levysheet.'))))\n"
            "print(' '.join(m for m in ('scipy', 'concurrent.futures') if m in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout.split("\n")
    core = ("exponent", "fdd", "gauss", "jumpsim", "paths", "stationary")
    assert out[0].split() == [f"levysheet.{name}" for name in core]
    assert out[1] == ""


def _array_holding_dataclasses():
    return {cls for mod in (exponent, gauss, jumpsim, paths, stationary, verify) for cls in vars(mod).values()
            if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == mod.__name__
            and any("ndarray" in str(f.type) for f in dataclasses.fields(cls))}


def test_array_holding_dataclasses_compare_by_identity():
    holders = _array_holding_dataclasses()
    assert {cls.__name__ for cls in holders} >= {
        "Categorical", "ScaledJumps", "LevyTriplet", "TabulatedPath", "SamplePathGrid"}
    for cls in holders:
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls.__name__


def test_equality_never_raises():
    makers = [lambda: exponent.TwoPoint(1.0), lambda: exponent.brownian(1), lambda: exponent.brownian(2),
              lambda: paths.TabulatedPath([0.0, 0.5, 1.0], [0.5, 1.0, 1.5], [2.0, 1.5, 1.0]),
              lambda: gauss.SamplePathGrid([0.0, 1.0], [[0.0], [1.0]]),
              lambda: stationary.StationaryLaw(exponent.brownian(1), 1.0, 0.5, 2.0)]
    for make in makers:
        one, other = make(), make()
        assert (one == one) is True and (one == other) is False
        assert hash(one) == hash(one)
    # the closed path forms, a Gaussian path law and a path class keep value equality
    line = paths.LinearPath(0.25, 1.0, 2.0, 1.5, 0.0, 1.0)
    assert line == paths.LinearPath(0.25, 1.0, 2.0, 1.5, 0.0, 1.0)
    assert gauss.GaussPathLaw(line) == gauss.GaussPathLaw(paths.LinearPath(0.25, 1.0, 2.0, 1.5, 0.0, 1.0))
    assert paths.classify(line) == paths.classify(paths.LinearPath(0.25, 1.0, 2.0, 1.5, 0.0, 1.0))
