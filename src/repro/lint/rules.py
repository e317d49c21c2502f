"""The per-file invariant rules (RPL001–RPL003, RPL005, RPL006).

Each rule is an :class:`ast.NodeVisitor` instantiated per file. Rules
collect :class:`~repro.lint.findings.Finding` objects; suppression via
pragmas happens later in the runner, so rules stay oblivious to
comments.

Rule catalogue
--------------

RPL001 *nondeterminism*
    Calls that pull entropy or wall-clock state from outside the
    scenario seed: the stdlib ``random`` module, numpy's global RNG
    (``np.random.seed`` / ``np.random.<dist>``), unseeded
    ``default_rng()``, ``time.time``-family clocks, ``datetime.now``,
    ``os.urandom``, ``uuid.uuid1/uuid4`` and ``secrets``. Simulation
    code must draw from a ``numpy.random.Generator`` derived via
    ``RngStreams.derive``; wall-clock telemetry (e.g. the campaign
    engine) carries explicit pragmas.

RPL002 *unit safety*
    Ad-hoc unit arithmetic (``* 1e6``, ``/ 1e3``, ``* 8.0``, …)
    outside :mod:`repro.util.units`, and assignments/keywords that
    pipe a ``_s``-suffixed value into an ``_ms``-suffixed slot (or
    bytes into bits, bps into mbps) without conversion.

RPL003 *event-handle leaks*
    A discarded ``call_at``/``call_later`` result inside a class that
    also defines ``stop``/``flush``/``close``: the teardown method
    cannot cancel what was never kept — the JitterBuffer bug class.

RPL005 *seed-path hygiene*
    ``default_rng(<literal>)`` / ``RandomState(<literal>)`` with a
    hard-coded seed: two unrelated components silently sharing stream
    0 — the ``rng=None → default_rng(0)`` fallback bug class.

RPL006 *hot-path dataclass slots*
    A ``@dataclass`` without ``slots=True`` (and without a manual
    ``__slots__``) in the per-packet hot modules (``repro/net``,
    ``repro/rtp``, ``repro/cc``): every instance then carries a
    ``__dict__``, which is measurable at 10^5-10^6 allocations per
    run — the ``Datagram`` bug class. Only applies inside the listed
    directories; cold-path modules keep their plain dataclasses.
"""

from __future__ import annotations

import ast
from typing import ClassVar

from repro.lint.findings import Finding


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute chains; ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class Rule(ast.NodeVisitor):
    """Base class: one rule, instantiated fresh per linted file."""

    rule_id: ClassVar[str] = "RPL000"
    title: ClassVar[str] = ""
    #: Path suffixes (``/``-normalised) this rule never applies to.
    exempt_suffixes: ClassVar[tuple[str, ...]] = ()
    #: When non-empty, the rule *only* runs on paths containing one of
    #: these (``/``-normalised) directory fragments.
    only_dirs: ClassVar[tuple[str, ...]] = ()

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: list[Finding] = []

    @classmethod
    def applies_to(cls, path: str) -> bool:
        """Whether this rule runs on ``path`` at all."""
        normalized = path.replace("\\", "/")
        if any(normalized.endswith(sfx) for sfx in cls.exempt_suffixes):
            return False
        if cls.only_dirs and not any(frag in normalized for frag in cls.only_dirs):
            return False
        return True

    def report(self, node: ast.AST, message: str) -> None:
        """Record a finding anchored at ``node``."""
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule_id=self.rule_id,
                message=message,
            )
        )


# ----------------------------------------------------------------------
# RPL001 — nondeterminism
# ----------------------------------------------------------------------

_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
}
_ENTROPY_CALLS = {"os.urandom", "uuid.uuid1", "uuid.uuid4"}
_DATETIME_ATTRS = {"now", "utcnow", "today"}
#: numpy.random members that *construct* seeded machinery (allowed).
_NP_RANDOM_OK = {
    "default_rng",
    "Generator",
    "RandomState",  # legacy but seedable; literal seeds are RPL005's call
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}


class NondeterminismRule(Rule):
    """RPL001: entropy or wall clock outside the RngStreams seed path."""

    rule_id = "RPL001"
    title = "nondeterminism"

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is not None:
            self._check_name(node, name)
        self.generic_visit(node)

    def _check_name(self, node: ast.Call, name: str) -> None:
        parts = name.split(".")
        if name.startswith("random."):
            self.report(
                node,
                f"call to stdlib '{name}' uses the global process RNG; "
                "draw from a numpy Generator derived via RngStreams.derive",
            )
            return
        if parts[0] in ("np", "numpy") and len(parts) >= 3 and parts[1] == "random":
            member = parts[2]
            if member == "seed":
                self.report(
                    node,
                    f"'{name}' reseeds numpy's global RNG; "
                    "use RngStreams for per-component streams",
                )
            elif (
                member in ("default_rng", "RandomState")
                and not node.args
                and not node.keywords
            ):
                self.report(
                    node,
                    f"'{member}()' without a seed draws OS entropy; "
                    "derive a Generator from RngStreams instead",
                )
            elif member not in _NP_RANDOM_OK:
                self.report(
                    node,
                    f"'{name}' draws from numpy's global RNG; "
                    "use a Generator derived via RngStreams.derive",
                )
            return
        if name == "default_rng" and not node.args and not node.keywords:
            self.report(
                node,
                "'default_rng()' without a seed draws OS entropy; "
                "derive a Generator from RngStreams instead",
            )
            return
        if name in _CLOCK_CALLS:
            self.report(
                node,
                f"'{name}' reads the wall clock; simulation code must use "
                "EventLoop.now (pragma wall-clock telemetry explicitly)",
            )
            return
        if (
            parts[0] in ("datetime", "date")
            and parts[-1] in _DATETIME_ATTRS
            and len(parts) >= 2
        ):
            self.report(
                node,
                f"'{name}' reads the wall clock; simulation code must use "
                "EventLoop.now (pragma wall-clock telemetry explicitly)",
            )
            return
        if name in _ENTROPY_CALLS or name.startswith("secrets."):
            self.report(
                node,
                f"'{name}' draws OS entropy; "
                "derive randomness from RngStreams instead",
            )


# ----------------------------------------------------------------------
# RPL002 — unit-suffix safety
# ----------------------------------------------------------------------

#: suffix -> (quantity family, unit). Longest suffix wins.
_UNIT_SUFFIXES: tuple[tuple[str, tuple[str, str]], ...] = (
    ("_mbps", ("rate", "mbps")),
    ("_kbps", ("rate", "kbps")),
    ("_bps", ("rate", "bps")),
    ("_ms", ("time", "ms")),
    ("_us", ("time", "us")),
    ("_seconds", ("time", "s")),
    ("_secs", ("time", "s")),
    ("_s", ("time", "s")),
    ("_bytes", ("size", "bytes")),
    ("_bits", ("size", "bits")),
)

#: Magic constants that mark ad-hoc unit conversions when they appear
#: as a direct ``*``/``/`` operand. ``8.0`` must be a float literal
#: (integer 8 is too common as an ordinary number); 1e-3/1e-6 are
#: deliberately absent because they routinely appear as epsilons.
_FLOAT_ONLY_CONSTANTS = (8.0,)
_UNIT_CONSTANTS = (1_000, 1_000_000)


def _suffix_unit(name: str | None) -> tuple[str, str] | None:
    if name is None:
        return None
    leaf = name.rsplit(".", 1)[-1]
    for suffix, family_unit in _UNIT_SUFFIXES:
        if leaf.endswith(suffix):
            return family_unit
    return None


def _bare_name(node: ast.AST) -> str | None:
    """Name of a plain variable/attribute reference, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return dotted_name(node)
    return None


def _is_unit_constant(node: ast.AST) -> bool:
    if not isinstance(node, ast.Constant):
        return False
    value = node.value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if isinstance(value, float) and any(value == c for c in _FLOAT_ONLY_CONSTANTS):
        return True
    return any(value == c for c in _UNIT_CONSTANTS)


class UnitSafetyRule(Rule):
    """RPL002: SI units at boundaries, conversions via util.units."""

    rule_id = "RPL002"
    title = "unit-suffix safety"
    exempt_suffixes = ("repro/util/units.py",)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.Mult, ast.Div)):
            for operand in (node.left, node.right):
                if _is_unit_constant(operand):
                    literal = ast.unparse(operand)
                    self.report(
                        node,
                        f"ad-hoc unit arithmetic with literal {literal}; "
                        "use the repro.util.units helpers "
                        "(ms/to_ms, mbps/to_mbps, bytes_to_bits, ...)",
                    )
                    break
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_flow(node, _bare_name(target), node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_flow(node, _bare_name(node.target), node.value)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        for keyword in node.keywords:
            if keyword.arg is not None:
                self._check_flow(keyword.value, keyword.arg, keyword.value)
        self.generic_visit(node)

    def _check_flow(self, anchor: ast.AST, sink: str | None, source: ast.AST) -> None:
        sink_unit = _suffix_unit(sink)
        if sink_unit is None:
            return
        source_unit = _suffix_unit(_bare_name(source))
        if source_unit is None:
            return
        if sink_unit[0] == source_unit[0] and sink_unit[1] != source_unit[1]:
            self.report(
                anchor,
                f"'{sink}' ({sink_unit[1]}) assigned from "
                f"'{_bare_name(source)}' ({source_unit[1]}) without "
                "conversion; use the repro.util.units helpers",
            )


# ----------------------------------------------------------------------
# RPL003 — event-handle leaks
# ----------------------------------------------------------------------

_TEARDOWN_METHODS = {"stop", "flush", "close", "shutdown"}
_SCHEDULING_ATTRS = {"call_at", "call_later"}


class EventHandleRule(Rule):
    """RPL003: discarded EventHandle in a class with a teardown method."""

    rule_id = "RPL003"
    title = "event-handle leaks"

    def __init__(self, path: str) -> None:
        super().__init__(path)
        self._class_stack: list[bool] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        has_teardown = any(
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name in _TEARDOWN_METHODS
            for stmt in node.body
        )
        self._class_stack.append(has_teardown)
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_Expr(self, node: ast.Expr) -> None:
        if self._class_stack and self._class_stack[-1]:
            call = node.value
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute):
                if call.func.attr in _SCHEDULING_ATTRS:
                    self.report(
                        node,
                        f"result of '{call.func.attr}' discarded in a class "
                        "with a teardown method; keep the EventHandle and "
                        "cancel it on stop/flush/close",
                    )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# RPL005 — seed-path hygiene
# ----------------------------------------------------------------------


class SeedHygieneRule(Rule):
    """RPL005: no hard-coded seed fallbacks in simulation components."""

    rule_id = "RPL005"
    title = "seed-path hygiene"

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is not None:
            leaf = name.rsplit(".", 1)[-1]
            if leaf in ("default_rng", "RandomState") and node.args:
                first = node.args[0]
                if (
                    isinstance(first, ast.Constant)
                    and isinstance(first.value, int)
                    and not isinstance(first.value, bool)
                ):
                    self.report(
                        node,
                        f"'{leaf}({first.value})' hard-codes a seed — "
                        "unrelated components end up sharing one stream; "
                        "require an explicit Generator or derive from "
                        "RngStreams",
                    )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# RPL006 — hot-path dataclass slots
# ----------------------------------------------------------------------


class HotPathSlotsRule(Rule):
    """RPL006: per-packet dataclasses must opt into ``__slots__``."""

    rule_id = "RPL006"
    title = "hot-path dataclass slots"
    only_dirs = ("repro/net/", "repro/rtp/", "repro/cc/")

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        decorator = self._dataclass_decorator(node)
        if (
            decorator is not None
            and not self._has_slots_keyword(decorator)
            and not self._defines_slots(node)
        ):
            self.report(
                node,
                f"dataclass '{node.name}' in a per-packet hot module "
                "without slots; use @dataclass(slots=True) (or define "
                "__slots__) to drop the per-instance __dict__",
            )
        self.generic_visit(node)

    @staticmethod
    def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = dotted_name(target)
            if name is not None and name.rsplit(".", 1)[-1] == "dataclass":
                return decorator
        return None

    @staticmethod
    def _has_slots_keyword(decorator: ast.expr) -> bool:
        if not isinstance(decorator, ast.Call):
            return False
        return any(
            kw.arg == "slots"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in decorator.keywords
        )

    @staticmethod
    def _defines_slots(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        return False


#: Every shipped rule, in catalogue order.
ALL_RULES: tuple[type[Rule], ...] = (
    NondeterminismRule,
    UnitSafetyRule,
    EventHandleRule,
    SeedHygieneRule,
    HotPathSlotsRule,
)
