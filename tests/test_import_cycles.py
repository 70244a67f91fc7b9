"""No matt module imports itself back through other matt modules.

An ast walk over src/matt collects every import of one matt module by
another, function-local ones included, since a local import only defers a
cycle to the first call. The module graph must have no cycle. Edges go to
the module an import names (a package's __init__ for a name it
re-exports), not to the parent packages Python imports on the way.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PATHS = sorted((SRC / "matt").rglob("*.py"))


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_modules(source: str, module: str, is_package: bool, known: set) -> set:
    """The known modules that a module's source imports, at any depth."""
    package = module if is_package else module.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(parent + ([node.module] if node.module else []))
            found.add(base)
            # `from pkg import mod` names a submodule
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found & known - {module}


def import_graph() -> dict:
    known = {module_name(p) for p in PATHS}
    return {
        module_name(p): imported_modules(
            p.read_text(encoding="utf-8"), module_name(p), p.name == "__init__.py", known
        )
        for p in PATHS
    }


def find_cycle(graph: dict) -> list:
    """One cycle as [a, b, ..., a], or [] for an acyclic graph."""
    done, path = set(), []

    def visit(node):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return []
        path.append(node)
        for target in sorted(graph.get(node, ())):
            cycle = visit(target)
            if cycle:
                return cycle
        path.pop()
        done.add(node)
        return []

    for node in sorted(graph):
        cycle = visit(node)
        if cycle:
            return cycle
    return []


def test_the_matt_import_graph_has_no_cycle():
    graph = import_graph()
    assert "matt.dsp.stft" in graph["matt.dsp.summarize"]
    assert find_cycle(graph) == [], " -> ".join(find_cycle(graph))


def test_the_check_finds_a_cycle_through_a_function_local_import():
    known = {"m", "m.a", "m.b", "m.c"}
    sources = {
        "m.a": "from .b import f\n",
        "m.b": "import numpy as np\nfrom . import c\n",
        "m.c": "def g():\n    from .a import h\n    return h\n",
    }
    graph = {name: imported_modules(src, name, False, known) for name, src in sources.items()}
    assert graph == {"m.a": {"m.b"}, "m.b": {"m", "m.c"}, "m.c": {"m.a"}}
    assert find_cycle(graph) == ["m.a", "m.b", "m.c", "m.a"]
    del sources["m.c"]
    graph = {name: imported_modules(src, name, False, known) for name, src in sources.items()}
    assert find_cycle(graph) == []
