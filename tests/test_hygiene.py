"""Source hygiene checks over the package modules."""

import argparse
import ast
import dataclasses
import re
from pathlib import Path

import pytest

from chrono_shield import cli, harness

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chrono_shield"
# __init__.py imports only to re-export.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a bare name or
    as the root of an attribute chain; `from __future__` imports are exempt."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_modules_are_found():
    assert {"attack.py", "cnn.py", "harness.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    src = "from __future__ import annotations\nimport os\nimport numpy as np\nfrom a import b, c\nnp.x(c)\n"
    assert unused_imports(src) == ["line 2: os", "line 4: b"]


def imported_roots(source: str) -> set[str]:
    """The top-level package of every module an import statement names."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_detects_imported_roots():
    src = "import os.path, numpy as np\nfrom urllib3.util import Retry\nfrom . import codecs\n"
    assert imported_roots(src) == {"os", "numpy", "urllib3"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_third_party_http_library(path):
    """The history client speaks HTTP through the standard library's
    http.client; requests and urllib3 are test-only dependencies."""
    assert imported_roots(path.read_text()) & {"requests", "urllib3"} == set()


def private_imports(source: str) -> list[str]:
    """Underscored names a `from .module import` statement takes from a
    sibling module: a private name is its own module's business."""
    return [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_detects_a_private_import():
    src = "from __future__ import annotations\nfrom ._x import y\nfrom .history import HistoryQuery, _records\n"
    assert private_imports(src) == ["line 3: _records"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_is_imported_across_modules(path):
    assert private_imports(path.read_text()) == []


def test_cli_errors_leave_through_main_only():
    """A command handles no exception itself (serve-fixture's ctrl-c stop
    aside): main() turns the typed input errors into one stderr line and
    exit 2, and lets everything else, bugs included, propagate."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    caught = {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and (fn.name.startswith("_cmd_") or fn.name == "main"):
            for node in ast.walk(fn):
                if isinstance(node, ast.ExceptHandler):
                    caught.setdefault(fn.name, []).append(ast.unparse(node.type) if node.type else "")
    assert caught == {"_cmd_serve_fixture": ["KeyboardInterrupt"], "main": ["_INPUT_ERRORS"]}
    assert all(exc.__module__.startswith("chrono_shield.") for exc in cli._INPUT_ERRORS)


def test_readme_csv_header_matches_the_code():
    """README's "Reports" section shows the report.csv header wrapped over
    several lines after the comment lines; joined, it is the header."""
    section = (ROOT / "README.md").read_text().split("### Reports", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    header = "".join(line for line in block.splitlines() if not line.startswith("#"))
    assert header.split(",") == harness._CSV_HEADER


def dotted_dests(parser: argparse.ArgumentParser) -> list[str]:
    """The dotted dest of every option in parser and its subcommands."""
    dests = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                dests += dotted_dests(sub)
        elif "." in action.dest:
            dests.append(action.dest)
    return dests


def test_every_stage_flag_names_a_stage_field():
    """A stage flag's dest is the `<stage>.<field>` config key it sets."""
    dests = dotted_dests(cli._build_parser())
    assert len(dests) == 10
    for dest in dests:
        stage, _, name = dest.partition(".")
        assert name in {f.name for f in dataclasses.fields(harness.STAGES[stage])}, dest


def test_readme_configuration_table_lists_every_stage_field():
    """README's "Configuration" table has one row per `<stage>.<field>` key."""
    section = (ROOT / "README.md").read_text().split("## Configuration", 1)[1].split("\n## ", 1)[0]
    keys = re.findall(r"^\| `([a-z_]+\.[a-z_]+)` \|", section, re.M)
    fields = [f"{stage}.{f.name}" for stage, config in harness.STAGES.items() for f in dataclasses.fields(config)]
    assert sorted(keys) == sorted(fields)
