"""No ``src/repro`` definition that only tests reach.

A function or class whose name appears once in ``src/`` (its own
definition) and nowhere in the user-facing documents, the examples or
the benchmarks has no caller outside the tests: it is dead weight that
only its own unit test keeps alive.  Such a definition is either
deleted together with that test or listed in :data:`ALLOWED` with the
reason it stays.  The count is by name, so a method that shares its
name with a used one is not caught; this guards against regrowth, not
against every dead method.
"""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Definitions that only tests reach on purpose, with the reason.
ALLOWED = {
    "repro.analysis.energy:EnergyAccount.static_j":
        "kept for the energy-by-component run account (ROADMAP)",
    "repro.analysis.energy:EnergyAccount.mean_power_w":
        "kept for the energy-by-component run account (ROADMAP)",
    "repro.core.system:GreenDIMMSystem.power_cache_stats":
        "oracle helper: the run-account tests sum the power-cache counters",
    "repro.obs.tracer:Tracer.disable":
        "oracle helper: tests switch the global tracer back off",
    "repro.os.hotplug:MemoryBlockManager.online_blocks":
        "oracle helper: the block-state laws read the on-line set",
    "repro.os.mm:PhysicalMemoryManager.extents_of":
        "oracle helper: the memory-manager oracles read an owner's runs",
    "repro.power.states:ALLOWED_TRANSITIONS":
        "the rank power-state machine as data; tests/test_power_states.py "
        "pins its legal edges",
}

_WORD = re.compile(r"\b\w+\b")


def _documented_words():
    """Words of everything outside ``src/`` that counts as a caller."""
    paths = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
    paths += [p for p in (ROOT / "docs").glob("*.md") if p.name != "API.md"]
    paths += sorted((ROOT / "examples").rglob("*.py"))
    for pattern in ("*.py", "*.md"):
        paths += sorted((ROOT / "benchmarks").rglob(pattern))
    words = set()
    for path in paths:
        words.update(_WORD.findall(path.read_text()))
    return words


def _definitions(tree, prefix=""):
    """``(qualname, name)`` of every function, class and method, and of
    every module-level constant (a plain name assigned at top level)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield prefix + node.name, node.name
            yield from _definitions(node, prefix + node.name + ".")
        elif not prefix and isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id


def _exported(tree):
    """The names a module lists in ``__all__``: an entry there names a
    definition, it does not use it."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def test_no_definition_is_reached_only_by_tests():
    sources = {path: path.read_text()
               for path in sorted((ROOT / "src" / "repro").rglob("*.py"))}
    trees = {path: ast.parse(text) for path, text in sources.items()}
    uses = Counter()
    for path, text in sources.items():
        uses.update(_WORD.findall(text))
        uses.subtract(_exported(trees[path]))
    documented = _documented_words()
    orphans = set()
    for path, tree in trees.items():
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("")
                          .parts).removesuffix(".__init__")
        for qualname, name in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if uses[name] <= 1 and name not in documented:
                orphans.add(f"{module}:{qualname}")
    assert sorted(orphans - ALLOWED.keys()) == [], (
        "defined in src/ but reached only by tests: delete them with "
        "their unit tests, or allow them with a reason")
    assert sorted(ALLOWED.keys() - orphans) == [], (
        "allowed but reached from src/ or the docs now: drop the entry")
