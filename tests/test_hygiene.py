"""Repository hygiene: the README's examples and commands run, no module
imports a name it never uses, the polynomial core does not import
``fractions`` and handles no processes or threads, and the rest of the
package uses only public names of the polynomial core."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from orbitflex import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "orbitflex"
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)
README_COMMANDS = re.search(r"## Command line\n\n```sh\n(.*?)```", README, re.S)[1].splitlines()


def test_readme_has_python_examples():
    assert len(README_BLOCKS) >= 3


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(README_BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_has_commands():
    assert len(README_COMMANDS) >= 7
    assert all(line.startswith("orbitflex ") for line in README_COMMANDS)


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_command_runs(line, capsys):
    assert cli.main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().err == ""


def _names_used(tree: ast.AST) -> set[str]:
    """Names read anywhere, including inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= _names_used(ast.parse(note.value, mode="eval"))
    return used


def unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if any("noqa" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = _names_used(tree)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the modules a file imports (absolute imports)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize(
    "path", sorted((PACKAGE / "exactpoly").glob("*.py")), ids=lambda p: p.name
)
def test_exactpoly_has_integer_coefficients_only(path):
    # MultiPoly and the kernels under it work over the integers; the parser
    # clears denominators before a form gets here.
    assert "fractions" not in imported_modules(path)


@pytest.mark.parametrize(
    "path", sorted((PACKAGE / "exactpoly").glob("*.py")), ids=lambda p: p.name
)
def test_exactpoly_starts_no_processes_or_threads(path):
    # The kernel stays serial; flexlab alone forks children.
    assert not {"os", "marshal", "threading"} & imported_modules(path)


def private_exactpoly_imports(path: Path, package: tuple[str, ...]) -> list[str]:
    """Underscore names a module of ``package`` imports from ``exactpoly``."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            base = package[: len(package) + 1 - node.level] if node.level else ()
            if (base + tuple((node.module or "").split(".")))[:2] == ("orbitflex", "exactpoly"):
                names += [alias.name for alias in node.names if alias.name.startswith("_")]
    return names


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.rglob("*.py") if "exactpoly" not in p.relative_to(PACKAGE).parts),
    ids=lambda p: str(p.relative_to(PACKAGE)),
)
def test_only_public_exactpoly_names_outside_it(path):
    package = ("orbitflex", *path.relative_to(PACKAGE).parent.parts)
    assert private_exactpoly_imports(path, package) == []


def test_unused_import_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from typing import Mapping, Sequence\n"
        "import os.path  # noqa: F401\n"
        'def f(x: "Mapping[int, int]") -> None: ...\n'
    )
    assert unused_imports(module) == ["Sequence (line 1)"]
    assert imported_modules(module) == {"typing", "os"}


def test_private_exactpoly_import_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from .exactpoly import MultiPoly\n"
        "from .exactpoly.unipoly import _primitive, gcd\n"
        "from orbitflex.exactpoly.resultant import _horner\n"
        "from .polyparse import _tokens\n"
    )
    assert private_exactpoly_imports(module, ("orbitflex",)) == ["_primitive", "_horner"]
