"""Earn-or-delete, held by test: every module under ``src/repro`` is
imported by something that runs, and every module the docs name exists.

"Runs" means the roots CI executes: ``repro/cli.py``, a file under
``layerbench/`` or ``examples/``, a bench ``ci.yml`` names,
``tests/test_claims.py`` — and ``tests/test_cli.py`` and
``tests/test_soak.py``, the only callers of the subcommands that
regenerate ``BENCH_soak.json`` and ``BENCH_fct_grid.json`` (CLI-only
code counts as run when those tests reach it). A module one of those
imports, directly or through a symbol its package re-exports, is
reached. A package ``__init__``'s own re-export is not a use, and
neither is any other test.

This import-level check is the cheap guard; ``tools/callcensus.py``
holds the same roots to the call level in CI. Both read one allowlist,
``tools/allowlist.json``: what no root reaches, kept on purpose, each
with its reason.

One rule decides a read accessor that only tests call. It is a
side-effect-free method or property that tests use to check other
behaviour. It stays, allowlisted, when without it a test would read a
private attribute or re-derive the value. It goes when a public
attribute already gives the value: tests read ``pipeline.registers[name]``,
not a ``Pipeline.register(name)``. An accessor only its own unit test
calls goes with that test.
"""

import ast
import importlib
import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CI = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
#: The benches CI runs, by the paths ``ci.yml`` names.
CI_BENCHES = {ROOT / path for path in re.findall(r"benchmarks/bench_\w+\.py", CI)}
MODULES = {
    ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__"): path
    for path in SRC.glob("repro/**/*.py")
}
#: Dotted name (module, class or function) → why nothing that runs calls it.
ALLOWLIST = json.loads((ROOT / "tools" / "allowlist.json").read_text(encoding="utf-8"))
#: The allowlisted modules: reached only from tests, on purpose.
ALLOWED = {name for name in ALLOWLIST if name in MODULES}


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
    roots = [*CI_BENCHES, *(ROOT / "tests" / name
                            for name in ("test_claims.py", "test_cli.py", "test_soak.py"))]
    for directory in ("layerbench", "examples"):
        roots += (ROOT / directory).rglob("*.py")
    frontier += [(path, "") for path in roots]
    while frontier:
        path, name = frontier.pop()
        for target in {resolve(*use) for use in imports(path, name)} - reached - {None}:
            reached.add(target)
            if MODULES[target].name != "__init__.py":  # a re-export is not a use
                frontier.append((MODULES[target], target))
    unreached = {n for n, path in MODULES.items() if path.name != "__init__.py"} - reached
    assert unreached == ALLOWED, f"imported by nothing that runs: {sorted(unreached - ALLOWED)}"


def test_ci_runs_every_bench():
    benches = set((ROOT / "benchmarks").glob("bench_*.py"))
    assert benches == CI_BENCHES, f"not run by ci.yml: {sorted(p.name for p in benches - CI_BENCHES)}"


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


def test_every_allowlist_entry_exists_and_says_why():
    spec = importlib.util.spec_from_file_location("callcensus", ROOT / "tools" / "callcensus.py")
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    functions = {name for _module, name, _lines, _exempt in census.definitions().values()}
    phantom = [entry for entry in ALLOWLIST if entry not in MODULES and not any(
        name == entry or name.startswith(entry + ".") for name in functions)]
    assert phantom == [], "allowlist names nothing in src/repro"
    assert [name for name, reason in ALLOWLIST.items() if not reason.strip()] == []


def config_classes() -> dict:
    """``{name: (dotted name, own settable fields, base names)}`` of every
    ``*Config`` dataclass under ``src/repro`` (a ``ClassVar`` is no field)."""
    classes = {}
    for module, path in MODULES.items():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and node.name.endswith("Config") and any(
                "dataclass" in ast.unparse(decorator) for decorator in node.decorator_list
            ):
                fields = [stmt.target.id for stmt in node.body if isinstance(stmt, ast.AnnAssign)
                          and "ClassVar" not in ast.unparse(stmt.annotation)]
                bases = [ast.unparse(base) for base in node.bases]
                classes[node.name] = (f"{module}.{node.name}", fields, bases)
    return classes


def test_every_config_field_is_set_by_name():
    """Earn-or-delete by value: a config field nothing sets is a constant.

    A field is set when a file under ``src``, ``tests``, ``benchmarks``,
    ``layerbench``, ``tools`` or ``examples`` passes it by keyword to its
    class (or a subclass), to ``cls``, ``replace`` or ``dict``, or assigns
    it as an attribute; else the allowlist names it
    (``repro.module.Class.field``) with its reason.
    """
    classes, named = config_classes(), {"*": set()}  # callee → names it sets
    for directory in ("src", "tests", "benchmarks", "layerbench", "tools", "examples"):
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if callee in classes or callee in ("cls", "replace", "dict"):
                        key = callee if callee in classes else "*"
                        named.setdefault(key, set()).update(kw.arg for kw in node.keywords)
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    named["*"].update(t.attr for t in targets if isinstance(t, ast.Attribute))

    def family(name: str) -> set:  # the class and every subclass
        return {name}.union(*(family(sub) for sub, (*_, bases) in classes.items() if name in bases))

    unset = [f"{dotted}.{field}" for name, (dotted, fields, _bases) in classes.items()
             for field in fields if f"{dotted}.{field}" not in ALLOWLIST
             and field not in set().union(named["*"], *(named.get(c, ()) for c in family(name)))]
    assert unset == [], f"config fields nothing sets by name (make them constants): {unset}"
