"""Every exported name and public method has a use beyond its definition and the tests.

A name listed in an ``__all__`` under ``src/repro`` is public surface, so
something other than the tests must use it: another ``src`` module, another
function or class of its own module, ``benchmarks/``, ``examples/``,
``perfbench/`` or ``tools/``, or a mention in code in ``docs/*.md`` or the
README (a backticked span or a fenced code block).  Uses are AST nodes (a
``Name`` or an ``Attribute``), not text matches, so an import or an
``__all__`` entry alone is not a use.  Code that only the tests call
belongs in ``tests/``.

The same holds for every public method, property, classmethod and
staticmethod of a public class under ``src/repro``.  A method counts as
used when an ``Attribute`` or a string constant (``getattr`` by name)
anywhere in ``src`` outside the method's own body carries its name, or when
the name is used in the folders or docs above.  The match is by name only,
so protocol methods such as ``update`` or ``step`` stay safe, and a method
whose name is common (``n``) is invisible to the guard.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
USE_DIRS = ("benchmarks", "examples", "perfbench", "tools")
DOCS = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]

_ZOO = "graph zoo: a topology family kept for experiments"
# Exported on purpose although nothing outside the tests uses them yet.
EXCEPTIONS = {
    "binary_tree_graph": _ZOO,
    "clique_graph": _ZOO,
    "erdos_renyi_graph": _ZOO,
    "preferential_attachment_graph": _ZOO,
    "small_world_graph": _ZOO,
    "stochastic_block_model_graph": _ZOO,
    "torus_graph": _ZOO,
    "cutwidth_of_ordering": "the brute-force reference for cutwidth_exact, and "
    "the bound past its size cap, which cutwidth_exact's error points to",
    "BirthDeathPotentialGame": "game zoo: the birth-death chain family",
    "has_dominant_profile": "dominant-profile detector of Section 4",
    "is_max_solvable": "max-solvability test; docs/THEOREMS.md names its module",
    "read_trace": "reads back the JSONL traces the tracer writes",
}

_OPINION = "opinion-game helper kept for an exact stationary-welfare bracket"
# Public methods kept on purpose although nothing outside the tests uses them.
# (The scalar ``simulate_loop`` references need no entry: the README names them.)
METHOD_EXCEPTIONS = {
    "AnnealedLogitDynamics.evolve_distribution": "exact annealed reference the "
    "loop-vs-engine and rule-contract golden suites compare against",
    "PotentialGame.verify_potential": "potential-function oracle the game tests check against",
    "GraphicalCoordinationGame.potential_by_ones_count": "the clique's lumped "
    "potential, kept for lumped exact chains",
    "Tracer.flush": "makes the JSONL sink durable before the file is read back",
    "IsingGame.magnetization": "scalar form of the magnetization projection for TV at scale",
    "FiniteOpinionGame.opinion_values": _OPINION,
    "FiniteOpinionGame.belief_cost_of_profiles": _OPINION,
    "FiniteOpinionGame.social_cost": _OPINION,
    "FiniteOpinionGame.optimal_social_cost": _OPINION,
    "FiniteOpinionGame.consensus_index": _OPINION,
}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


@functools.cache
def _src_modules() -> dict[str, tuple[Path, ast.Module]]:
    return {
        _module_name(p): (p, ast.parse(p.read_text()))
        for p in sorted(SRC.rglob("*.py"))
    }


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _defines(node: ast.stmt, name: str) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name == name
    if isinstance(node, ast.Assign):
        return any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    if isinstance(node, ast.AnnAssign):
        return isinstance(node.target, ast.Name) and node.target.id == name
    return False


def _resolve(modules, module: str, name: str) -> str | None:
    """The module that defines ``name``, following re-exports from ``module``."""
    path, tree = modules[module]
    if any(_defines(node, name) for node in tree.body):
        return module
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom):
            continue
        for alias in node.names:
            if (alias.asname or alias.name) != name:
                continue
            base = package
            for _ in range(node.level - 1):
                base = base.rpartition(".")[0]
            target = ".".join(p for p in (base, node.module) if p) if node.level else node.module
            if target in modules:
                return _resolve(modules, target, alias.name)
    return None


def _used_names(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


@functools.cache
def _uses_outside_src() -> set[str]:
    used = set()
    for folder in USE_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            used |= _used_names(ast.parse(path.read_text()))
    for doc in DOCS:
        text = doc.read_text()
        fenced = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
        inline = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```", "", text, flags=re.M | re.S))
        for code in fenced + inline:
            used.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", code))
    return used


def unused_exports(exceptions=EXCEPTIONS) -> dict[str, str]:
    """Map each exported name nothing uses to the module that defines it."""
    modules = _src_modules()
    used = _uses_outside_src()
    by_module = {m: _used_names(tree) for m, (_, tree) in modules.items()}
    unused = {}
    for module, (_, tree) in modules.items():
        for name in _exports(tree):
            home = _resolve(modules, module, name)
            if home is None or name in used or name in exceptions:
                continue
            if any(name in names for m, names in by_module.items() if m != home):
                continue
            siblings = [n for n in modules[home][1].body if not _defines(n, name)]
            if not any(name in _used_names(node) for node in siblings):
                unused[name] = home
    return unused


def _public_methods():
    """Yield ``(module, "Class.method", def node)`` for each public method of a public class."""
    for module, (_, tree) in _src_modules().items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                    yield module, f"{cls.name}.{node.name}", node


@functools.cache
def _src_name_sites() -> dict[str, list[tuple[str, int]]]:
    """Map each attribute name and string constant in ``src`` to its ``(module, line)`` sites."""
    sites: dict[str, list[tuple[str, int]]] = {}
    for module, (_, tree) in _src_modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                sites.setdefault(node.attr, []).append((module, node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                sites.setdefault(node.value, []).append((module, node.lineno))
    return sites


def unused_methods(exceptions=METHOD_EXCEPTIONS) -> dict[str, str]:
    """Map each public ``Class.method`` nothing uses to the module that defines it."""
    bodies: dict[str, list[tuple[str, int, int]]] = {}
    for module, key, node in _public_methods():
        bodies.setdefault(key, []).append((module, node.lineno, node.end_lineno))
    used = _uses_outside_src()
    sites = _src_name_sites()
    unused = {}
    for key, spans in bodies.items():
        name = key.rpartition(".")[2]
        if key in exceptions or name in used:
            continue
        outside = [
            (m, line)
            for m, line in sites.get(name, ())
            if not any(m == module and lo <= line <= hi for module, lo, hi in spans)
        ]
        if not outside:
            unused[key] = spans[0][0]
    return unused


def test_every_export_resolves_to_a_definition():
    modules = _src_modules()
    dangling = [
        f"{module}.{name}"
        for module, (_, tree) in modules.items()
        for name in _exports(tree)
        if _resolve(modules, module, name) is None
    ]
    assert dangling == []


def test_every_export_has_a_use_beyond_its_definition_and_the_tests():
    assert unused_exports() == {}


def test_every_public_method_has_a_use_beyond_its_definition_and_the_tests():
    assert unused_methods() == {}


def test_every_exception_is_still_an_unused_export():
    assert set(EXCEPTIONS) <= set(unused_exports(exceptions=()))
    assert set(METHOD_EXCEPTIONS) <= set(unused_methods(exceptions=()))
