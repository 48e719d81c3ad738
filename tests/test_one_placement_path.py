"""One placement path, held by test: only ``repro.dataplane.placement``
decides which element runs which MMT program.

Every testbed declares what its elements offer and what its flow needs,
and :func:`~repro.dataplane.placement.place` installs the programs. A
module under ``src/repro`` that constructs one of the placed programs
itself is a second, hand-wired path growing back; this scan fails on it.
Tests, benches and examples may still build programs by hand.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"
PLACEMENT = PACKAGE / "dataplane" / "placement.py"
PLACED = {
    "ModeTransitionProgram",
    "BufferTapProgram",
    "NearestBufferProgram",
    "AgeUpdateProgram",
    "DuplicationProgram",
}


def constructed(path: Path) -> set[str]:
    """The placed program classes ``path`` calls, by name or attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in PLACED:
                names.add(name)
    return names


def test_only_placement_constructs_placed_programs():
    offenders = {
        str(path.relative_to(PACKAGE)): sorted(names)
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != PLACEMENT and (names := constructed(path))
    }
    assert offenders == {}


def test_placement_constructs_every_placed_program():
    """The scan looks for the names placement really uses."""
    assert constructed(PLACEMENT) == PLACED
