"""Every function, class, method and module-level name that matt defines
is used by matt.

A definition passes when a module of src/matt refers to it by name (outside
its own body; an import alone is no use), when a probe of the benchmark's
perfbench/layers.py targets it, or when ALLOWED gives the reason it stays.
A name that a module assigns at its top level, such as a constant, passes
when a module of src/matt or a file of perfbench/ reads it (for perfbench,
importing it counts). Code that only tests use fails, so it is deleted with
its tests rather than kept for them. Dunder names, which Python reads, are
skipped.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"
LAYERS = PERFBENCH / "layers.py"

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
            # an assignment to a name is not a use of it
            if not isinstance(node.ctx, ast.Store) and node.id not in inside:
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


def top_level_names(tree: ast.Module):
    """Names that the module's own statements assign, outside any def or class."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def unused_names(modules: dict[str, str], outside: list[str]) -> list[str]:
    """"module:name" of each top-level name assigned in modules that no
    module reads and no outside source reads or imports."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    used = set().union(*map(references, trees.values()))
    for tree in map(ast.parse, outside):
        used |= references(tree)
        used |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    return sorted({
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in top_level_names(tree)
        if not (name.startswith("__") and name.endswith("__")) and name not in used
    })


def matt_modules() -> dict[str, str]:
    return {
        ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__"):
            path.read_text(encoding="utf-8")
        for path in sorted((SRC / "matt").rglob("*.py"))
    }


def test_every_definition_is_used_by_the_program():
    modules = matt_modules()
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


def test_every_module_level_name_is_used_by_the_program_or_the_benchmark():
    outside = [path.read_text(encoding="utf-8") for path in sorted(PERFBENCH.glob("*.py"))]
    assert unused_names(matt_modules(), outside) == []


def test_the_name_check_sees_reads_attributes_and_benchmark_imports():
    modules = {
        "pkg.a": (
            "__version__ = '1'\n"
            "READ = 1\nVIA_MODULE = 2\nTESTED = 3\nBENCHED = 4\nBENCH_ATTR = 5\n"
            "PAIR_A, PAIR_B = 6, 7\nCOUNT: int = 0\nCOUNT += READ\n"
            "def f():\n    LOCAL = 8\n    return LOCAL + PAIR_A\n"
        ),
        "pkg": "from .a import TESTED\nimport pkg.a as a\nprint(a.VIA_MODULE, a.f())\n",
    }
    bench = "from pkg.a import BENCHED as b\nimport pkg.a\nprint(b, pkg.a.BENCH_ATTR)\n"
    # assignments, an import inside the package and a name local to a def are no use
    assert unused_names(modules, []) == [
        "pkg.a:BENCHED", "pkg.a:BENCH_ATTR", "pkg.a:COUNT", "pkg.a:PAIR_B", "pkg.a:TESTED"
    ]
    assert unused_names(modules, [bench]) == ["pkg.a:COUNT", "pkg.a:PAIR_B", "pkg.a:TESTED"]
