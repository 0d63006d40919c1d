"""Modules under src/airshield use only each other's public names."""

import ast
from collections import Counter
from pathlib import Path

import airshield

PACKAGE_DIR = Path(airshield.__file__).parent


def private_imports(source: str) -> list[str]:
    """Private names taken from airshield modules: ``from x import _name``,
    and ``x._name`` read from a module ``x`` bound by an import."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            internal = node.level > 0 or (node.module or "").split(".")[0] == "airshield"
            if internal:
                found += [f"{node.module or '.'}.{a.name}" for a in node.names
                          if a.name.startswith("_")]
            if internal and node.module in (None, "airshield"):
                modules |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names
                        if a.name.split(".")[0] == "airshield"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.endswith("__") and (owner := dotted(node.value)) in modules):
            found.append(f"{owner}.{node.attr}")
    return found


def dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and (base := dotted(node.value)) is not None:
        return f"{base}.{node.attr}"
    return None


def test_no_module_imports_a_private_name_from_another():
    offenders = {path.name: names for path in sorted(PACKAGE_DIR.glob("*.py"))
                 if (names := private_imports(path.read_text(encoding="utf-8")))}
    assert offenders == {}


def test_guard_sees_relative_and_absolute_private_imports():
    assert private_imports("from .airflow import JetModel, _helper") == ["airflow._helper"]
    assert private_imports("from airshield.sim import _TASK_MOVE") == ["airshield.sim._TASK_MOVE"]
    assert private_imports("from numpy import _globals") == []


def test_guard_sees_private_attribute_reads_of_sibling_modules():
    assert private_imports("from . import cli, sim\nsim._MAX_LINE") == ["sim._MAX_LINE"]
    assert private_imports("from airshield import wire as w\nw._x") == ["w._x"]
    assert private_imports("import airshield.sim\nairshield.sim._BLOCK") == [
        "airshield.sim._BLOCK"]
    assert private_imports("from . import sim\nsim.__name__\nself._cache\nnp._core") == []


def all_mismatch(source: str) -> tuple[list[str], list[str]]:
    """(names __all__ lists but the module lacks, public classes and
    functions the module defines but __all__ leaves out)."""
    tree = ast.parse(source)
    listed, bound, defined = None, set(), set()
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            bound.add(node.name)
            if not node.name.startswith("_"):
                defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            bound |= names
            if "__all__" in names:
                listed = ast.literal_eval(node.value)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
    if listed is None:
        return [], []
    return sorted(set(listed) - bound), sorted(defined - set(listed))


def test_every_all_matches_its_module():
    offenders = {path.name: bad for path in sorted(PACKAGE_DIR.glob("*.py"))
                 if any(bad := all_mismatch(path.read_text(encoding="utf-8")))}
    assert offenders == {}


def test_all_guard_sees_stale_and_unlisted_names():
    source = '__all__ = ["Gone", "kept"]\ndef kept(): pass\ndef extra(): pass\n'
    assert all_mismatch(source) == (["Gone"], ["extra"])
    assert all_mismatch("def anything(): pass\n") == ([], [])


# The library's callers: itself, the acceptance criteria and the benchmark.
REPO_DIR = Path(__file__).resolve().parents[1]
CALLER_FILES = [*sorted(PACKAGE_DIR.glob("*.py")), REPO_DIR / "tests" / "test_acceptance.py",
                *sorted((REPO_DIR / "perfbench").rglob("*.py"))]
# Item 3's tracked distance source (ROADMAP) will measure through it.
UNCALLED_ALLOWED = {"geometry.marker_to_tcp_distance"}


def reads(node: ast.AST) -> tuple[Counter, Counter]:
    """(names loaded, attributes taken) anywhere under ``node``."""
    names, attrs = Counter(), Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            attrs[n.attr] += 1
    return names, attrs


def unreferenced(sources: dict[str, str], modules: list[str]) -> list[str]:
    """``module.name`` for each name in a listed module's ``__all__`` that no
    source reads outside its own definition, and ``module.Class.method`` for
    each public method of such a class that no source takes as an attribute
    outside its own body. Names are matched by spelling, not by binding."""
    trees = {label: ast.parse(text) for label, text in sources.items()}
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        n, a = reads(tree)
        names += n
        attrs += a
    found = []
    for module in modules:
        body = trees[module].body
        listed = next((ast.literal_eval(node.value) for node in body
                       if isinstance(node, ast.Assign)
                       and any(getattr(t, "id", None) == "__all__" for t in node.targets)), [])
        defs = {node.name: node for node in body
                if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
        for name in listed:
            own_names, own_attrs = reads(defs[name]) if name in defs else (Counter(), Counter())
            if names[name] + attrs[name] == own_names[name] + own_attrs[name]:
                found.append(f"{module}.{name}")
            if not isinstance(defs.get(name), ast.ClassDef):
                continue
            for method in defs[name].body:
                if (isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
                        and attrs[method.name] == reads(method)[1][method.name]):
                    found.append(f"{module}.{name}.{method.name}")
    return sorted(found)


def test_every_public_name_has_a_caller():
    sources = {path.stem if path.parent == PACKAGE_DIR else str(path.relative_to(REPO_DIR)):
               path.read_text(encoding="utf-8") for path in CALLER_FILES}
    modules = [path.stem for path in sorted(PACKAGE_DIR.glob("*.py"))]
    assert set(unreferenced(sources, modules)) == UNCALLED_ALLOWED


def test_caller_guard_sees_unused_names_and_methods():
    lib = ('__all__ = ["used", "alone", "Box", "LIMIT"]\n'
           "LIMIT = 3\n"
           "def used(): pass\n"
           "def alone(): return alone()\n"
           "class Box:\n"
           "    def kept(self): pass\n"
           "    def dropped(self): return self.dropped()\n")
    caller = "lib.used()\nBox().kept()\n"
    assert unreferenced({"lib": lib, "caller": caller}, ["lib"]) == [
        "lib.Box.dropped", "lib.LIMIT", "lib.alone"]
    assert unreferenced({"lib": lib, "caller": caller + "alone(LIMIT)\n"}, ["lib"]) == [
        "lib.Box.dropped"]


def called_name(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def unconfigured_trial_calls(source: str) -> list[int]:
    """Lines of ``run_trial(...)`` calls that do not pass both ``tick_ms=``
    and ``duty_on=``, so would run a loop other than the configured one."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and called_name(node) == "run_trial"
                and not {"tick_ms", "duty_on"} <= {k.arg for k in node.keywords}):
            lines.append(node.lineno)
    return lines


def test_every_trial_runs_the_configured_tick_and_duty():
    offenders = {path.name: lines for path in sorted(PACKAGE_DIR.glob("*.py"))
                 if (lines := unconfigured_trial_calls(path.read_text(encoding="utf-8")))}
    assert offenders == {}


def test_trial_guard_sees_missing_tick_or_duty():
    source = ("run_trial(c, h, tr, z, j, p, lat, 120.0, 1, tick_ms=t, duty_on=d)\n"
              "sim.run_trial(c, h, tr, z, j, p, lat, 120.0, 1, tick_ms=t)\n"
              "run_trial(c, h, tr, z, j, p, lat, 120.0, 1)\n")
    assert unconfigured_trial_calls(source) == [2, 3]


def trial_calls(source: str) -> list[int]:
    """Lines of ``run_trial(...)`` calls, however the function is reached."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and called_name(node) == "run_trial"]


def test_one_driver_runs_every_trial():
    calls = {path.name: lines for path in sorted(PACKAGE_DIR.glob("*.py"))
             if (lines := trial_calls(path.read_text(encoding="utf-8")))}
    assert list(calls) == ["sim.py"] and len(calls["sim.py"]) == 1


def test_trial_call_guard_sees_every_call():
    source = ("def run_trial(): pass\n"
              "run_trial(c)\n"
              "sim.run_trial(c, tick_ms=t, duty_on=d)\n"
              "run_trials(cfg, conds, seeds)\n")
    assert trial_calls(source) == [2, 3]


def unseeded_rng_calls(source: str) -> list[int]:
    """Lines of ``default_rng()`` calls with no seed, which draw fresh OS
    entropy and so break the promise that a run is fixed by ``--seed``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and called_name(node) == "default_rng"
                and not node.args and not node.keywords):
            lines.append(node.lineno)
    return lines


def test_no_random_generator_is_left_unseeded():
    offenders = {path.name: lines for path in sorted(PACKAGE_DIR.glob("*.py"))
                 if (lines := unseeded_rng_calls(path.read_text(encoding="utf-8")))}
    assert offenders == {}


def test_rng_guard_sees_unseeded_generators():
    source = ("np.random.default_rng(seed)\n"
              "np.random.default_rng()\n"
              "default_rng()\n"
              "default_rng(seed=s)\n")
    assert unseeded_rng_calls(source) == [2, 3]


EXIT_CODES = {"EXIT_USAGE", "EXIT_IO", "EXIT_ANALYSIS"}


def exit_codes_outside_main(source: str) -> list[int]:
    """Lines reading an error exit code outside ``main``, the one place
    that turns an error into an exit code and a message."""
    tree = ast.parse(source)
    in_main = {id(node) for fn in tree.body
               if isinstance(fn, ast.FunctionDef) and fn.name == "main"
               for node in ast.walk(fn)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in EXIT_CODES
            and isinstance(node.ctx, ast.Load) and id(node) not in in_main]


def test_only_main_turns_errors_into_exit_codes():
    offenders = {path.name: lines for path in sorted(PACKAGE_DIR.glob("*.py"))
                 if (lines := exit_codes_outside_main(path.read_text(encoding="utf-8")))}
    assert offenders == {}


def test_exit_code_guard_sees_uses_outside_main():
    source = ("EXIT_USAGE = 2\n"
              "def cmd_x():\n"
              "    return EXIT_USAGE\n"
              "def main():\n"
              "    return EXIT_IO\n"
              "def cmd_y():\n"
              "    return EXIT_ANALYSIS if x else EXIT_OK\n")
    assert exit_codes_outside_main(source) == [3, 7]


def empty_globals(source: str) -> list[str]:
    """Module-level names bound to an empty ``{}``, ``[]``, ``set()``,
    ``dict()`` or ``list()``: caches that outlive every call."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if ((isinstance(value, ast.Dict) and not value.keys)
                or (isinstance(value, ast.List) and not value.elts)
                or (isinstance(value, ast.Call) and called_name(value) in {"set", "dict", "list"}
                    and not value.args and not value.keywords)):
            found += [t.id for t in targets if isinstance(t, ast.Name)]
    return found


def test_the_run_memo_is_the_only_module_level_cache():
    # What the trials of a run share lives in one memo, behind one bound check.
    found = {f"{path.stem}.{name}" for path in sorted(PACKAGE_DIR.glob("*.py"))
             for name in empty_globals(path.read_text(encoding="utf-8"))}
    assert found == {"sim._run_memo"}


def test_cache_guard_sees_empty_containers_at_module_level():
    source = ("_a: dict[tuple, int] = {}\n"
              "_b = []\n"
              "_c = _d = set()\n"
              "_e = dict()\n"
              "LIMIT = 3\n"
              "_f = {1: 2}\n"
              "_g = set(range(3))\n"
              "_h: list[int]\n"
              "def f():\n"
              "    local = {}\n")
    assert empty_globals(source) == ["_a", "_b", "_c", "_d", "_e"]
