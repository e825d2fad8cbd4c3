"""The package namespace is the union of its modules' ``__all__`` lists,
and the README's library quick start runs on it."""

import contextlib
import io
import re
import types
from pathlib import Path

import mm1game
from mm1game import analysis, dynamics, mechanism, model, simulator

MODULES = (analysis, dynamics, mechanism, model, simulator)


def test_the_package_exports_exactly_each_modules_public_names():
    public = {
        name
        for name, value in vars(mm1game).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared)) == 54
    assert public == set(declared)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(mm1game, name) is getattr(module, name), (module.__name__, name)


def test_the_readme_quick_start_prints_what_it_says():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 3
    assert lines[0] == "(2.4, 2.4)"
    assert lines[1].startswith("1.3395919")
    assert lines[2].startswith("True ")
