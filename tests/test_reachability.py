"""Earn-or-delete, held by test: every module under ``src/repro`` is
imported by something that runs, and every module the docs name exists.

"Runs" means ``repro/cli.py`` or a file under ``layerbench/``,
``benchmarks/`` or ``examples/``, or a module one of those imports —
directly or through a symbol its package re-exports. A package
``__init__``'s own re-export is not a use, and neither is a test.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = {
    ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__"): path
    for path in SRC.glob("repro/**/*.py")
}
#: Reached only from tests, on purpose. One entry; keep it that way.
ALLOWED = {
    # DESIGN §10 "Two observers, one truth": the independent oracle
    # tests/trace/test_int_consistency.py cross-checks the tracer against.
    "repro.analysis.tracestats",
}


def imports(path: Path, module: str):
    """``(module, symbol | None)`` per import; ``module`` anchors relative ones."""
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            target = ".".join(filter(None, (base, node.module)))
            yield from ((target, alias.name) for alias in node.names)


#: package → {re-exported symbol → (module, symbol) it comes from}
REEXPORTS = {
    name: {symbol: (target, symbol) for target, symbol in imports(path, name) if symbol}
    for name, path in MODULES.items()
    if path.name == "__init__.py"
}


def resolve(module: str, symbol: str | None) -> str | None:  # where an import lands
    if symbol and f"{module}.{symbol}" in MODULES:
        return f"{module}.{symbol}"
    if symbol in REEXPORTS.get(module, ()):
        return resolve(*REEXPORTS[module][symbol])
    return module if module in MODULES else None


def test_every_module_is_reached_by_something_that_runs():
    reached, frontier = {"repro.cli"}, [(MODULES["repro.cli"], "repro.cli")]
    for directory in ("layerbench", "benchmarks", "examples"):
        frontier += [(path, "") for path in (ROOT / directory).rglob("*.py")]
    while frontier:
        path, name = frontier.pop()
        for target in {resolve(*use) for use in imports(path, name)} - reached - {None}:
            reached.add(target)
            if MODULES[target].name != "__init__.py":  # a re-export is not a use
                frontier.append((MODULES[target], target))
    unreached = {n for n, path in MODULES.items() if path.name != "__init__.py"} - reached
    assert unreached == ALLOWED, f"imported by nothing that runs: {sorted(unreached - ALLOWED)}"


def test_every_module_the_docs_name_exists():
    docs = "".join((ROOT / doc).read_text(encoding="utf-8") for doc in ("DESIGN.md", "README.md"))
    phantom = set()
    for dotted in re.findall(r"`(repro(?:\.\w+)+)`", docs):
        module, _, attr = dotted.rpartition(".")
        if dotted not in MODULES and not (
            module in MODULES and hasattr(importlib.import_module(module), attr)
        ):
            phantom.add(dotted)
    assert not phantom, f"docs name modules that do not exist: {sorted(phantom)}"
