"""File walking, rule orchestration and the lint CLI.

:func:`lint_project` is the one analysis path: it parses every file
once, runs the per-file rules (RPL001-003, RPL005, RPL006) and extracts
cross-module facts from the same AST, builds the
:class:`~repro.lint.project.ProjectIndex` and runs RPL007/009/010 on
top. :func:`lint_source` runs the per-file rules over one buffer.

Exit codes of the CLI: ``0`` clean, ``1`` findings, ``2`` usage error,
``3`` internal analysis error or exceeded ``--max-seconds`` budget.
"""

from __future__ import annotations

import ast
import os
import time
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.lint.crossrules import CROSS_RULE_TITLES, run_cross_rules
from repro.lint.findings import Finding, PragmaIndex
from repro.lint.project import ProjectIndex, extract_facts, module_name_for
from repro.lint.rules import ALL_RULES

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".repro-cache", ".hypothesis"}

#: Default lint roots (the whole-program analysis scope).
DEFAULT_PATHS = ("src", "tools", "examples", "benchmarks")

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one source string with the per-file rules."""
    pragmas = PragmaIndex(source)
    if pragmas.skip_file:
        return []
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [_syntax_finding(path, exc)]
    return sorted(_file_findings(tree, path, pragmas))


def _syntax_finding(path: str, exc: SyntaxError) -> Finding:
    return Finding(
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 0) + 1,
        rule_id="RPL000",
        message=f"syntax error: {exc.msg}",
    )


def _file_findings(
    tree: ast.AST, path: str, pragmas: PragmaIndex
) -> list[Finding]:
    findings: list[Finding] = []
    for rule_cls in ALL_RULES:
        if not rule_cls.applies_to(path):
            continue
        rule = rule_cls(path)
        rule.visit(tree)
        findings.extend(
            finding for finding in rule.findings
            if not pragmas.suppresses(finding)
        )
    return findings


def iter_python_files(paths: Iterable[str | Path]) -> Iterable[Path]:
    """Yield every ``.py`` file under ``paths`` in sorted order."""
    for root in paths:
        root = Path(root)
        if root.is_file():
            if root.suffix == ".py":
                yield root
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield Path(dirpath) / filename


def lint_project(
    paths: Iterable[str | Path] | None = None,
    *,
    sources: dict[str, str] | None = None,
    select: set[str] | None = None,
    root: str | Path | None = None,
) -> list[Finding]:
    """Whole-program lint: per-file rules plus RPL007/009/010.

    Either ``paths`` (walked on disk) or ``sources`` (``{path:
    source}``, used by tests to lint synthetic projects) must be
    given. ``select`` filters the *reported* rule ids; the analysis
    always runs every rule. ``skip-file`` sources keep their facts —
    a skipped file still *defines* callee signatures and *derives* RNG
    labels — but report no findings of their own.
    """
    if sources is None:
        if paths is None:
            raise ValueError("either paths or sources is required")
        sources = {
            str(file_path): file_path.read_text(encoding="utf-8")
            for file_path in iter_python_files(paths)
        }

    findings: list[Finding] = []
    pragmas: dict[str, PragmaIndex] = {}
    facts: dict[str, dict[str, Any]] = {}
    for path, source in sources.items():
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            findings.append(_syntax_finding(path, exc))
            continue
        pragmas[path] = PragmaIndex(source)
        if not pragmas[path].skip_file:
            findings.extend(_file_findings(tree, path, pragmas[path]))
        facts[path] = extract_facts(tree, module_name_for(path, root))

    findings.extend(
        finding for finding in run_cross_rules(ProjectIndex(facts))
        if not pragmas[finding.path].suppresses(finding)
    )
    if select is not None:
        findings = [f for f in findings if f.rule_id in select]
    return sorted(findings)


def rule_catalogue() -> list[tuple[str, str]]:
    """``(rule_id, title)`` rows for every rule."""
    rows = [(rule_cls.rule_id, rule_cls.title) for rule_cls in ALL_RULES]
    rows.extend(sorted(CROSS_RULE_TITLES.items()))
    return rows


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def add_lint_arguments(parser: Any) -> None:
    """Register the lint options (shared with ``repro lint``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help="files or directories to report on "
        f"(default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to report (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="fail (exit 3) if the whole run exceeds this wall-clock "
        "budget — the CI timing guard",
    )


def run_with_args(args: Any, parser: Any) -> int:
    """Execute a parsed lint invocation (shared with ``repro lint``)."""
    started = time.perf_counter()  # repro-lint: ignore[RPL001]  # CLI wall-clock budget, not sim time
    if args.list_rules:
        for rule_id, title in rule_catalogue():
            print(f"{rule_id}  {title}")
        return EXIT_CLEAN

    select: set[str] | None = None
    if args.select is not None:
        select = {name.strip().upper() for name in args.select.split(",")}
        unknown = select - {rule_id for rule_id, _title in rule_catalogue()}
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(sorted(unknown))}")

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        parser.error(f"no such path(s): {', '.join(missing)}")

    try:
        # Cross-module rules are only sound over the whole program: a
        # partial project would miss every out-of-scope callee and RNG
        # derive. Analyze the full default scope, then report only
        # findings inside the requested paths.
        requested = {str(p) for p in iter_python_files(args.paths)}
        scope = list(args.paths) + [
            p
            for p in DEFAULT_PATHS
            if p not in args.paths and Path(p).exists()
        ]
        findings = lint_project(scope, select=select)
    except Exception as exc:  # noqa: BLE001 — the exit-3 contract
        print(f"repro.lint: internal error: {exc!r}")
        return EXIT_INTERNAL

    findings = [f for f in findings if f.path in requested]
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{len(findings)} finding(s) in {len(requested)} file(s)")
    else:
        print(f"checked {len(requested)} file(s): no findings")

    elapsed = time.perf_counter() - started  # repro-lint: ignore[RPL001]  # CLI wall-clock budget, not sim time
    if args.max_seconds is not None and elapsed > args.max_seconds:
        print(
            f"repro.lint: exceeded --max-seconds budget "
            f"({elapsed:.2f}s > {args.max_seconds:.2f}s)"
        )
        return EXIT_INTERNAL
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def run_cli(argv: Sequence[str] | None = None) -> int:
    """Entry point shared by ``python -m repro.lint`` and ``repro lint``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Whole-program invariant linter for the reproduction "
        "(determinism, unit dimensions, RNG stream discipline, "
        "wall-clock taint).",
    )
    add_lint_arguments(parser)
    args = parser.parse_args(argv)
    return run_with_args(args, parser)
