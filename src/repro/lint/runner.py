"""File walking, rule orchestration and the lint CLI.

Two entry layers live here:

* the per-file API (:func:`lint_source` / :func:`lint_file` /
  :func:`lint_paths`) — one AST, rules RPL001-006, used by tests and
  by editors that lint a buffer in isolation;
* the project API (:func:`lint_project`) — parses every file once,
  runs the per-file rules *and* extracts cross-module facts from the
  same AST, builds the :class:`~repro.lint.project.ProjectIndex` and
  runs RPL007/009/010 on top. Per-file results (findings + facts + pragma
  lines) are content-hash cached, so a warm re-run only re-analyzes
  changed files; the cross rules always re-run (they are cheap — the
  expensive part is the per-file AST work).

Exit codes of the CLI: ``0`` clean (or no new findings in baseline
check mode), ``1`` findings, ``2`` usage error, ``3`` internal
analysis error or exceeded ``--max-seconds`` budget.
"""

from __future__ import annotations

import ast
import os
import subprocess
import time
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.lint.findings import Finding, PragmaIndex, range_ignored
from repro.lint.rules import ALL_RULES, Rule

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".repro-cache", ".hypothesis"}

#: Default lint roots (the whole-program analysis scope).
DEFAULT_PATHS = ("src", "tools", "examples", "benchmarks")

#: Default baseline file (checked in; expected to stay empty).
DEFAULT_BASELINE = "lint-baseline.json"

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Sequence[type[Rule]] | None = None,
) -> list[Finding]:
    """Lint one source string; returns pragma-filtered findings."""
    if rules is None:
        rules = ALL_RULES
    pragmas = PragmaIndex(source)
    if pragmas.skip_file:
        return []
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [_syntax_finding(path, exc)]
    return sorted(_file_findings(tree, path, pragmas, rules))


def _syntax_finding(path: str, exc: SyntaxError) -> Finding:
    return Finding(
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 0) + 1,
        rule_id="RPL000",
        message=f"syntax error: {exc.msg}",
    )


def _file_findings(
    tree: ast.AST,
    path: str,
    pragmas: PragmaIndex,
    rules: Sequence[type[Rule]],
) -> list[Finding]:
    findings: list[Finding] = []
    for rule_cls in rules:
        if not rule_cls.applies_to(path):
            continue
        rule = rule_cls(path)
        rule.visit(tree)
        findings.extend(
            finding
            for finding in rule.findings
            if not pragmas.is_ignored(finding.line, finding.rule_id)
        )
    return findings


def lint_file(
    path: str | Path, rules: Sequence[type[Rule]] | None = None
) -> list[Finding]:
    """Lint one file on disk."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    return lint_source(source, str(path), rules)


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


def lint_paths(
    paths: Iterable[str | Path], rules: Sequence[type[Rule]] | None = None
) -> list[Finding]:
    """Lint every Python file under ``paths`` (per-file rules only)."""
    findings: list[Finding] = []
    for file_path in iter_python_files(paths):
        findings.extend(lint_file(file_path, rules))
    return findings


# ----------------------------------------------------------------------
# project mode
# ----------------------------------------------------------------------
def _analyze_one(
    source: str, path: str, module: str
) -> dict[str, Any]:
    """Per-file record: findings + cross-module facts + pragma lines.

    The AST is parsed exactly once and shared between the per-file
    rules and the fact extractor. ``skip-file`` sources keep their
    facts (the cross-module analysis must stay sound — a skipped file
    still *defines* callee signatures and *derives* RNG labels) but
    contribute no findings of their own.
    """
    from repro.lint.output import _finding_dict
    from repro.lint.project import extract_facts

    pragmas = PragmaIndex(source)
    record: dict[str, Any] = {
        "pragmas": pragmas.to_payload(),
        "findings": [],
        "facts": None,
    }
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        record["findings"] = [_finding_dict(_syntax_finding(path, exc))]
        return record
    if not pragmas.skip_file:
        record["findings"] = [
            _finding_dict(finding)
            for finding in _file_findings(tree, path, pragmas, ALL_RULES)
        ]
    record["facts"] = extract_facts(source, path, module)
    return record


def lint_project(
    paths: Iterable[str | Path] | None = None,
    *,
    sources: dict[str, str] | None = None,
    select: set[str] | None = None,
    cache: "Any | None" = None,
    root: str | Path | None = None,
) -> tuple[list[Finding], dict[str, Any]]:
    """Whole-program lint: per-file rules plus RPL007/009/010.

    Either ``paths`` (walked on disk) or ``sources`` (``{path:
    source}``, used by tests to lint synthetic projects) must be
    given. ``select`` filters *reported* rule ids only — the analysis
    always runs everything, so cached records stay select-independent.

    Returns ``(findings, summary)`` where the summary carries file and
    cache-hit counts for the CLI's closing line.
    """
    from repro.lint.crossrules import run_cross_rules
    from repro.lint.output import finding_from_dict
    from repro.lint.project import (
        ProjectIndex,
        content_hash,
        module_name_for,
    )

    if sources is None:
        if paths is None:
            raise ValueError("either paths or sources is required")
        sources = {
            str(file_path): file_path.read_text(encoding="utf-8")
            for file_path in iter_python_files(paths)
        }

    findings: list[Finding] = []
    facts_by_path: dict[str, dict[str, Any]] = {}
    pragmas_by_path: dict[str, dict[str, Any]] = {}
    for path, source in sources.items():
        sha = content_hash(source)
        record = cache.get(path, sha) if cache is not None else None
        if record is None or "pragmas" not in record:
            record = _analyze_one(source, path, module_name_for(path, root))
            if cache is not None:
                cache.put(path, sha, record)
        findings.extend(
            finding_from_dict(payload) for payload in record["findings"]
        )
        pragmas_by_path[path] = record["pragmas"]
        if record["facts"] is not None:
            facts_by_path[path] = record["facts"]

    index = ProjectIndex(facts_by_path)
    for finding in run_cross_rules(index):
        payload = pragmas_by_path.get(finding.path)
        if payload is not None and (
            payload.get("skip_file")
            or range_ignored(
                payload, finding.line, finding.end_line, finding.rule_id
            )
        ):
            continue
        findings.append(finding)

    if select is not None:
        findings = [f for f in findings if f.rule_id in select]
    findings.sort()
    summary: dict[str, Any] = {"files": len(sources)}
    if cache is not None:
        summary["cache_hits"] = cache.hits
        summary["cache_misses"] = cache.misses
    return findings, summary


def changed_files(base: str = "HEAD") -> set[str] | None:
    """Paths differing from ``base`` (tracked diffs + untracked files).

    Returns ``None`` when git is unavailable or the tree is not a
    repository — the caller then falls back to linting everything.
    """
    try:
        diff = subprocess.run(
            ["git", "diff", "--name-only", base],
            capture_output=True, text=True, check=True, timeout=30,
        )
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard"],
            capture_output=True, text=True, check=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    changed = set(diff.stdout.split()) | set(untracked.stdout.split())
    return {path for path in changed if path}


def rule_catalogue() -> list[tuple[str, str, str]]:
    """``(rule_id, title, description)`` rows for every rule."""
    from repro.lint.crossrules import CROSS_RULE_INFO

    rows = [
        (rule_cls.rule_id, rule_cls.title, (rule_cls.__doc__ or "").strip())
        for rule_cls in ALL_RULES
    ]
    rows.extend(
        (rule_id, title, description)
        for rule_id, (title, description) in sorted(CROSS_RULE_INFO.items())
    )
    return rows


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def add_lint_arguments(parser: "Any") -> None:
    """Register the lint options (shared with ``repro lint``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help="files or directories to lint "
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
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="report findings only in files differing from HEAD "
        "(analysis still covers the whole project)",
    )
    parser.add_argument(
        "--baseline",
        choices=("write", "check"),
        default=None,
        help="'write' records current findings as accepted; 'check' "
        "fails only on findings absent from the baseline",
    )
    parser.add_argument(
        "--baseline-file",
        default=DEFAULT_BASELINE,
        help=f"baseline path (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the per-file analysis cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=".repro-cache",
        help="analysis cache directory (default: .repro-cache)",
    )
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="fail (exit 3) if the whole run exceeds this wall-clock "
        "budget — the CI timing guard",
    )


def run_with_args(args: "Any", parser: "Any") -> int:
    """Execute a parsed lint invocation (shared with ``repro lint``)."""
    from repro.lint.output import Baseline, render_json, render_sarif, render_text
    from repro.lint.project import FactsCache

    started = time.perf_counter()  # repro-lint: ignore[RPL001]  # CLI wall-clock budget, not sim time
    if args.list_rules:
        for rule_id, title, _description in rule_catalogue():
            print(f"{rule_id}  {title}")
        return EXIT_CLEAN

    select: set[str] | None = None
    if args.select is not None:
        select = {name.strip().upper() for name in args.select.split(",")}
        known = {rule_id for rule_id, _t, _d in rule_catalogue()}
        unknown = select - known
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(sorted(unknown))}")

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        parser.error(f"no such path(s): {', '.join(missing)}")

    cache = None if args.no_cache else FactsCache(args.cache_dir)
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
        sources = {
            str(file_path): file_path.read_text(encoding="utf-8")
            for file_path in iter_python_files(scope)
        }
        findings, summary = lint_project(
            sources=sources, select=select, cache=cache
        )
        if cache is not None:
            cache.save(sources)
    except Exception as exc:  # noqa: BLE001 — the exit-3 contract
        print(f"repro.lint: internal error: {exc!r}")
        return EXIT_INTERNAL

    if requested != set(sources):
        findings = [f for f in findings if f.path in requested]
        summary["files"] = len(requested)
        summary["analyzed"] = len(sources)

    if args.changed:
        changed = changed_files()
        if changed is not None:
            findings = [f for f in findings if f.path in changed]
            summary["changed_only"] = True

    if args.baseline == "write":
        Baseline.from_findings(findings).save(args.baseline_file)
        print(
            f"wrote {len(findings)} finding(s) to {args.baseline_file}"
        )
        return EXIT_CLEAN
    if args.baseline == "check":
        findings = Baseline.load(args.baseline_file).new_findings(findings)

    if args.format == "json":
        print(render_json(findings, summary))
    elif args.format == "sarif":
        print(render_sarif(findings, rule_catalogue()))
    else:
        text = render_text(findings, summary)
        if text:
            print(text)

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
