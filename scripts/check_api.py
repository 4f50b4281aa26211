#!/usr/bin/env python
"""API lint: keep first-party code on the blessed run-API surface.

Five rules; the first three are enforced over ``src/``, ``examples/``,
``benchmarks/`` and ``scripts/`` (tests are exempt: they construct
simulations directly to cover the wiring):

1. **No direct ``StormSimulation(...)`` construction** outside the
   runner/builder modules — new code goes through ``SimulationBuilder``.
2. **No raw tuple unpacking of the series helpers** — use the named
   ``Series`` fields (``series.t`` / ``series.y``) instead of
   ``t, y = result.throughput_series()``.
3. **No reaching into the kernel's event queue** — ``._queue`` is the
   environment's private state; callers use ``Environment.schedule`` /
   ``peek`` / ``queue_depth`` instead.
4. **No unused kernel surface** — every name in ``repro.des.__all__``
   must be referenced by first-party code under ``src/`` outside
   ``des/``, so the kernel cannot regrow primitives no simulation uses
   (tests alone do not keep a primitive alive).
5. **No unused grouping surface** — every ``ComponentSpec.*_grouping``
   builder method must be called by first-party code under ``src/``,
   ``examples/`` or ``benchmarks/`` outside ``src/repro/storm/``, so the
   simulator cannot regrow groupings no workload routes through (tests
   alone do not keep a grouping alive).

Exit status is non-zero when any violation is found, so CI can gate on
it.  Run from the repository root::

    python scripts/check_api.py
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: directories scanned (tests/ intentionally absent, see above)
SCAN_DIRS = ("src", "examples", "benchmarks", "scripts")

#: the only modules allowed to construct StormSimulation directly
#: (plus this checker, whose rule strings would otherwise match themselves)
CONSTRUCTION_ALLOWLIST = {
    Path("src/repro/storm/runner.py"),
    Path("src/repro/storm/builder.py"),
    Path("scripts/check_api.py"),
}

#: the only modules allowed to touch the environment's private queue
QUEUE_ACCESS_ALLOWLIST = {
    Path("src/repro/des/environment.py"),
    Path("scripts/check_api.py"),
}

#: the kernel package whose ``__all__`` rule 4 audits
DES_PACKAGE = Path("src/repro/des")

#: the module whose ``ComponentSpec`` grouping builders rule 5 audits,
#: and the directories whose code (outside ``storm/``) must call them
TOPOLOGY_MODULE = Path("src/repro/storm/topology.py")
STORM_PACKAGE = Path("src/repro/storm")
GROUPING_CALLER_DIRS = ("src", "examples", "benchmarks")

CONSTRUCT_RE = re.compile(r"\bStormSimulation\s*\(")
QUEUE_RE = re.compile(r"\._queue\b")
#: ``a, b = ....throughput_series()`` / ``latency_series()`` (raw unpack)
UNPACK_RE = re.compile(
    r"^\s*[A-Za-z_][\w\[\]\. ]*,\s*[A-Za-z_][\w\[\]\. ]*"
    r"(?:,\s*[A-Za-z_][\w\[\]\. ]*)*\s*=\s*.*\."
    r"(?:throughput_series|latency_series)\s*\(\s*\)"
)

Violation = Tuple[Path, int, str, str]


def iter_py_files() -> Iterator[Path]:
    for d in SCAN_DIRS:
        root = REPO_ROOT / d
        if not root.is_dir():
            continue
        yield from sorted(root.rglob("*.py"))


def check_file(path: Path) -> List[Violation]:
    rel = path.relative_to(REPO_ROOT)
    violations: List[Violation] = []
    text = path.read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        if CONSTRUCT_RE.search(line) and rel not in CONSTRUCTION_ALLOWLIST:
            violations.append((
                rel, lineno, "direct-construction",
                "construct simulations through SimulationBuilder, not "
                "StormSimulation(...)",
            ))
        if UNPACK_RE.match(line):
            violations.append((
                rel, lineno, "raw-series-unpack",
                "use the named Series fields (series.t / series.y) instead "
                "of tuple-unpacking the series helpers",
            ))
        if QUEUE_RE.search(line) and rel not in QUEUE_ACCESS_ALLOWLIST:
            violations.append((
                rel, lineno, "private-queue-access",
                "._queue is Environment-private; use Environment.schedule "
                "/ peek / queue_depth",
            ))
    return violations


def check_des_surface() -> List[Violation]:
    """Rule 4: names exported by ``repro.des`` that ``src/`` never uses."""
    rel = DES_PACKAGE / "__init__.py"
    source = (REPO_ROOT / rel).read_text(encoding="utf-8")
    exported: List[Tuple[str, int]] = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = [
                (elt.value, elt.lineno) for elt in node.value.elts  # type: ignore[attr-defined]
            ]
    des_root = REPO_ROOT / DES_PACKAGE
    callers = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted((REPO_ROOT / "src").rglob("*.py"))
        if des_root not in path.parents
    )
    return [
        (
            rel, lineno, "unused-kernel-surface",
            f"repro.des exports {name!r} but nothing under src/ outside "
            "des/ references it; delete it or drop it from __all__",
        )
        for name, lineno in exported
        if not re.search(rf"\b{re.escape(name)}\b", callers)
    ]


def check_grouping_surface(root: Path = REPO_ROOT) -> List[Violation]:
    """Rule 5: ``ComponentSpec.*_grouping`` builders nobody outside
    ``storm/`` calls."""
    rel = TOPOLOGY_MODULE
    tree = ast.parse((root / rel).read_text(encoding="utf-8"))
    builders = [
        (fn.name, fn.lineno)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name == "ComponentSpec"
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name.endswith("_grouping")
    ]
    storm_root = root / STORM_PACKAGE
    callers = "\n".join(
        path.read_text(encoding="utf-8")
        for d in GROUPING_CALLER_DIRS
        if (root / d).is_dir()
        for path in sorted((root / d).rglob("*.py"))
        if storm_root not in path.parents
    )
    return [
        (
            rel, lineno, "unused-grouping-surface",
            f"ComponentSpec.{name} is never called under src/, examples/ "
            "or benchmarks/ outside storm/; delete the grouping",
        )
        for name, lineno in builders
        if not re.search(rf"\.{re.escape(name)}\s*\(", callers)
    ]


def main() -> int:
    violations: List[Violation] = []
    for path in iter_py_files():
        violations.extend(check_file(path))
    violations.extend(check_des_surface())
    violations.extend(check_grouping_surface())
    for rel, lineno, rule, msg in violations:
        print(f"{rel}:{lineno}: [{rule}] {msg}")
    if violations:
        print(f"\n{len(violations)} API violation(s) found.")
        return 1
    print("API check passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
