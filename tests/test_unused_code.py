"""Every function, class and method that matt defines is used by matt.

A definition passes when a module of src/matt refers to it by name (outside
its own body; an import alone is no use), when a probe of the benchmark's
perfbench/layers.py targets it, or when ALLOWED gives the reason it stays.
Code that only tests use fails, so it is deleted with its tests rather than
kept for them. Dunder methods, which Python calls, are skipped.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ROOT / "perfbench" / "layers.py"

ALLOWED = {
    "read_mel_cache": "reads the .mel cache back, which nothing else does; both go together",
    "write_wav": "the WAV writer that the tests make their audio fixtures with",
    "run_benchmark": "the acceptance suite's entry point",
}


def definitions(tree: ast.Module):
    """(qualified name, node) of every function and class, nested ones included."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield prefix + child.name, child
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)
    return walk(tree, "")


def references(tree: ast.Module) -> set[str]:
    """Names and attribute names read anywhere in tree, except a definition's
    references to its own name from inside its body."""
    found = set()

    def walk(node, inside):
        if isinstance(node, ast.Name):
            if node.id not in inside:
                found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(tree, frozenset())
    return found


def probe_targets(layers_source: str) -> set[str]:
    """The "module:qualname" targets of the probes in layers_source."""
    return set(re.findall(r"""Probe\(\s*["'](matt[\w.]*:[\w.]+)["']""", layers_source))


def unused(modules: dict[str, str], targets: set[str]) -> list[str]:
    """"module:qualname" of each definition in modules (dotted name -> source)
    that no module refers to and no probe targets."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    used = set().union(*map(references, trees.values()))
    return sorted(
        f"{module}:{qualname}"
        for module, tree in trees.items()
        for qualname, node in definitions(tree)
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used and f"{module}:{qualname}" not in targets
    )


def test_every_definition_is_used_by_the_program():
    modules = {
        ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__"):
            path.read_text(encoding="utf-8")
        for path in sorted((SRC / "matt").rglob("*.py"))
    }
    found = unused(modules, probe_targets(LAYERS.read_text(encoding="utf-8")))
    assert [name for name in found if name.rpartition(":")[2] not in ALLOWED] == []
    # an entry that is used again, or gone, leaves the allow-list
    assert sorted(name.rpartition(":")[2] for name in found) == sorted(ALLOWED)


def test_the_check_sees_through_imports_recursion_and_probes():
    modules = {
        "pkg.a": (
            "def used():\n    pass\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "class Model:\n"
            "    def called(self):\n        return self.helper()\n"
            "    def helper(self):\n        pass\n"
            "    def tested(self):\n        pass\n"
            "    def __len__(self):\n        return 0\n"
        ),
        "pkg": "from .a import Model, used, recursive\nModel().called()\nused()\n",
    }
    targets = probe_targets('Probe("pkg.a:Model.tested", "span")')
    assert targets == set()  # only matt's probes count
    targets = probe_targets('Probe("matt.x:f", "span"),\n    Probe(\n        "matt.y:C.g",')
    assert targets == {"matt.x:f", "matt.y:C.g"}
    assert unused(modules, {"pkg.a:Model.tested"}) == ["pkg.a:recursive"]
    assert unused(modules, set()) == ["pkg.a:Model.tested", "pkg.a:recursive"]
