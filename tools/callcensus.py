"""Call census: every function under ``src/repro`` is called by a root.

    python tools/callcensus.py        # writes callcensus.json to the working directory

Each root (CI's, plus the two CLI tests) runs in a subprocess whose ``sitecustomize``
turns cProfile on and logs each ``src/repro`` code object at exit. ``Pool.__exit__``
kills forked ``run_sharded`` workers before exit hooks run, so a forked child logs
each code object, line-buffered, at its first call (``sys.setprofile``). A logged
``(file, co_firstlineno)`` matches a ``def`` (decorated: by its first decorator's
line). Dunders and abstract stubs (docstring, ``...`` or ``raise NotImplementedError``)
are exempt; any other uncalled function must be named (or its class or module) with
a reason in ``tools/allowlist.json``, or the exit status is 1. The benches run as in
CI: ``bench_fleet`` rewrites ``BENCH_fleet.json`` in place.
"""

import ast
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
ALLOWLIST = json.loads((ROOT / "tools" / "allowlist.json").read_text(encoding="utf-8"))
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
CLI = [sys.executable, "-m", "repro.cli"]
CI = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
BENCHES = sorted({str(ROOT / path) for path in re.findall(r"benchmarks/bench_\w+\.py", CI)})
#: label → command. Disabled timing runs each bench once, outside
#: pytest-benchmark's PauseInstrumentation (which would hide it).
ROOTS = {
    "claims": [*PYTEST, str(ROOT / "tests/test_claims.py")],
    "benches": [*PYTEST, "--rootdir", ".", "--benchmark-disable", *BENCHES],
    "chaos": [*CLI, "chaos", "--scenario", "all", "--out-dir", "."],
    "report": [*CLI, "report", "--fresh", ".", "--baseline", str(ROOT), "--tolerance", "1000"],
    **{f"example-{path.stem}": [sys.executable, str(path)]
       for path in sorted((ROOT / "examples").glob("*.py"))},
    **{f"layerbench-{name}": [sys.executable, "-m", "layerbench.run", "--workload", name,
                              "--trace", "0", "--seconds", "1"]
       for name in ("pilot_clean", "pilot_observed", "incast_n16", "fleet_64x128")},
    # Not run by CI, but the only callers of `repro soak`/`repro incast`.
    "cli-tests": [*PYTEST, str(ROOT / "tests/test_cli.py"), str(ROOT / "tests/test_soak.py")],
}
HOOK = f"""
import atexit, cProfile, os, sys
_src, _log = {str(SRC)!r}, os.path.join(os.environ["CALLCENSUS_LOG"], "%d.log")
_profiler = cProfile.Profile()
def _dump():
    _profiler.create_stats()
    with open(_log % os.getpid(), "a") as log:
        log.writelines(f"{{f}}\\t{{n}}\\n" for f, n, _ in _profiler.stats if f.startswith(_src))
def _forked():
    _profiler.disable()
    atexit.unregister(_dump)
    seen, log = set(), open(_log % os.getpid(), "a", buffering=1)
    def first_call(frame, event, arg):
        code = frame.f_code
        if event == "call" and code not in seen:
            seen.add(code)
            if code.co_filename.startswith(_src):
                log.write(f"{{code.co_filename}}\\t{{code.co_firstlineno}}\\n")
    sys.setprofile(first_call)
os.register_at_fork(after_in_child=_forked)
atexit.register(_dump)
_profiler.enable()
"""


def exempt(node) -> bool:
    """A dunder method, or a stub: docstring, ``...`` or ``raise NotImplementedError``."""
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    only = body[0] if len(body) == 1 else None
    return (node.name.startswith("__") and node.name.endswith("__") or not body
            or isinstance(only, ast.Expr) and getattr(only.value, "value", None) is ...
            or isinstance(only, ast.Raise) and "NotImplementedError" in ast.unparse(only))


def definitions() -> dict:
    """``{(file, first line): (module, qualified name, lines, exempt)}`` per def."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        stack = [(ast.parse(path.read_text(encoding="utf-8")), module.removesuffix(".__init__"))]
        while stack:
            parent, prefix = stack.pop()
            for node in ast.iter_child_nodes(parent):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    stack.append((node, f"{prefix}.{node.name}"))
                    if not isinstance(node, ast.ClassDef):
                        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                        found[str(path), first] = (module, f"{prefix}.{node.name}",
                                                   node.end_lineno - first + 1, exempt(node))
                elif not isinstance(node, ast.Lambda):
                    stack.append((node, prefix))
    return found


def run_roots() -> dict[str, set]:
    """``{label: {(file, line) called}}``, one subprocess per root."""
    called = {}
    with tempfile.TemporaryDirectory(prefix="callcensus-") as scratch:
        (Path(scratch) / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
        for label, command in ROOTS.items():
            (logs := Path(scratch) / "logs" / label).mkdir(parents=True)
            print(f"== {label}", flush=True)
            path = os.pathsep.join([scratch, str(ROOT / "src"), str(ROOT)])
            env = {**os.environ, "PYTHONPATH": path, "CALLCENSUS_LOG": str(logs)}
            done = subprocess.run(command, cwd=logs.parent, env=env, text=True,
                                  stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
            if done.returncode:
                sys.exit(f"{done.stdout[-4000:]}\nroot {label} exited {done.returncode}")
            called[label] = {(file, int(line)) for log in logs.glob("*.log") for file, line
                             in (row.split("\t") for row in log.read_text().splitlines())}
    return called


def main() -> int:
    defs, called = definitions(), run_roots()
    ci = set().union(*(hit for label, hit in called.items() if label != "cli-tests"))
    every = set().union(*called.values())
    totals = {roots: {"functions": sum(1 for key in defs if key not in hit),
                      "lines": sum(d[2] for key, d in defs.items() if key not in hit)}
              for roots, hit in (("ci", ci), ("all", every))}
    uncalled = [d for key, d in sorted(defs.items()) if key not in every]
    failing = [name for _module, name, _size, skip in uncalled if not skip and not any(
        name == entry or name.startswith(entry + ".") for entry in ALLOWLIST)]
    print(f"\n{'uncalled by any root':<40} {'functions':>9} {'lines':>6}")
    for module in sorted({d[0] for d in uncalled}):
        rows = [d for d in uncalled if d[0] == module]
        print(f"{module:<40} {len(rows):>9} {sum(d[2] for d in rows):>6}")
    print(f"\n{len(defs)} functions, {sum(d[2] for d in defs.values())} lines in functions")
    for roots, total in totals.items():
        print(f"uncalled by {roots} roots: {total['functions']} functions, {total['lines']} lines")
    census = {"functions": len(defs), "totals": totals, "failing": failing,
              "uncalled": [d[1] for d in uncalled]}
    Path("callcensus.json").write_text(json.dumps(census, indent=1) + "\n", encoding="utf-8")
    print("".join(f"uncalled, not exempt or allowlisted: {name}\n" for name in failing), end="")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
