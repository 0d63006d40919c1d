"""Modules under src/airshield use only each other's public names."""

import ast
from pathlib import Path

import airshield

PACKAGE_DIR = Path(airshield.__file__).parent


def private_imports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "airshield"
        if internal:
            found += [f"{node.module or '.'}.{a.name}" for a in node.names
                      if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_another():
    offenders = {path.name: names for path in sorted(PACKAGE_DIR.glob("*.py"))
                 if (names := private_imports(path.read_text(encoding="utf-8")))}
    assert offenders == {}


def test_guard_sees_relative_and_absolute_private_imports():
    assert private_imports("from .airflow import JetModel, _helper") == ["airflow._helper"]
    assert private_imports("from airshield.sim import _TASK_MOVE") == ["airshield.sim._TASK_MOVE"]
    assert private_imports("from numpy import _globals") == []
