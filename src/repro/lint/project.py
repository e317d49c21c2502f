"""Whole-program analysis engine for :mod:`repro.lint`.

The per-file rules (RPL001-003, RPL005, RPL006) see one AST at a
time; the dataflow rules (RPL007, RPL009, RPL010) need to know what
the *other* side of a call looks like — the unit suffix of a
parameter defined two packages away, which RNG stream labels a callee
derives from the factory it was handed.

This module builds that project-wide view in two phases:

1. **Extraction** (:func:`extract_facts`): one walk over each file's
   AST (the same tree the per-file rules visit) produces a plain-dict
   *facts* record — module name, import map, function/class
   signatures with unit-suffix hints, call sites whose arguments carry
   inferable units, RNG stream flows and wall-clock taint seeds.

2. **Indexing** (:class:`ProjectIndex`): facts from every file are
   folded into a symbol table (global key -> signature) and an
   import/call graph that the cross-module rules in
   :mod:`repro.lint.crossrules` query.

Facts schema (per file)
-----------------------

``module``
    Dotted module name derived from the path (``src/`` stripped, so
    ``src/repro/net/path.py`` -> ``repro.net.path``; scripts keep
    their directory prefix: ``tools/cc_bench.py`` -> ``tools.cc_bench``).
``imports``
    Local name -> dotted target (``{"to_ms": "repro.util.units.to_ms"}``).
``functions``
    Global key -> ``{"params": [...], "kwonly": [...], "vararg": bool,
    "kwarg": bool, "line": int, "name_unit": "family:unit" | None,
    "returns": [valuedesc], "unitless_const": bool}``. Methods are
    keyed ``module.Class.method``; a class's constructor signature is
    also exposed under the bare class key so constructor calls check
    like plain calls.
``calls``
    Call sites with a project-resolvable callee and at least one
    unit-bearing argument: ``{"callee", "line", "end", "args":
    [valuedesc], "kwargs": {name: valuedesc}}``.
``assigns``
    Unit-suffixed targets assigned from a unit-bearing value.
``binops``
    ``+``/``-`` expressions whose two operands both carry a unit or a
    resolvable call.
``rng``
    Per-scope RNG stream flows: factory objects with their
    ``derive``/``child`` labels and onward passes, and derived
    generator variables with their argument uses.
``taint``
    Per-function wall-clock flows: assignments (with referenced names
    / calls / direct clock reads), sim-time sinks and return flows.

A *valuedesc* describes one expression: ``{"unit": "family:unit" |
None, "call": global-key | None, "calls": [...], "names": [...],
"wall": bool, "num": bool}``. ``call`` is the *unit-relevant* callee
(a direct call, or one surviving unit-preserving ``+``/``-``);
``calls`` collects every resolved callee in the expression for taint
propagation, where ``wall * 1000`` stays wall-derived even though the
multiplication destroyed the unit. ``num`` marks a bare numeric
literal.
"""

from __future__ import annotations

import ast
import os
from pathlib import Path
from typing import Any

from repro.lint.rules import _CLOCK_CALLS, _suffix_unit, dotted_name

#: Prefixes of global keys that can resolve inside the project.
PROJECT_PREFIXES = ("repro.", "tools.", "examples.", "benchmarks.")

#: Return units of the repro.util.units helpers (the conversion
#: functions are the one sanctioned way to change unit within a
#: family, so their returns are trusted ground truth).
UNITS_HELPER_RETURNS: dict[str, str] = {
    "repro.util.units.bytes_to_bits": "size:bits",
    "repro.util.units.bits_to_bytes": "size:bytes",
    "repro.util.units.mbps": "rate:bps",
    "repro.util.units.to_mbps": "rate:mbps",
    "repro.util.units.to_megabytes": "size:mb",
    "repro.util.units.ms": "time:s",
    "repro.util.units.to_ms": "time:ms",
}

#: Attribute names that schedule a callback at/after a sim time.
SCHEDULE_ATTRS = ("call_at", "call_later", "schedule_at", "schedule_later")

#: Receiver leaf names treated as a trace recorder.
RECORDER_NAMES = ("obs", "recorder", "_obs", "_recorder")

#: Recorder methods whose time/value arguments are sim-time sinks
#: (trace + metric halves).
TRACE_EMIT_ATTRS = ("event", "span", "span_at")
METRIC_EMIT_ATTRS = ("count", "gauge", "observe")


def unit_of(name: str | None) -> str | None:
    """``family:unit`` string for a suffixed name, else ``None``."""
    family_unit = _suffix_unit(name)
    if family_unit is None:
        return None
    return f"{family_unit[0]}:{family_unit[1]}"


def module_name_for(path: str | Path, root: str | Path | None = None) -> str:
    """Dotted module name for ``path`` (relative to ``root``/CWD)."""
    path = Path(path)
    for base in (root, os.getcwd()):
        if base is None:
            continue
        try:
            rel = path.resolve().relative_to(Path(base).resolve())
            break
        except ValueError:
            continue
    else:
        rel = Path(path.name)
    parts = list(rel.parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        parts = [path.stem]
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        parts = parts[:-1] or [path.parent.name]
    return ".".join(parts)


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------
class _FactExtractor(ast.NodeVisitor):
    """Single-pass fact extraction over one module AST."""

    def __init__(self, module: str) -> None:
        self.module = module
        self.imports: dict[str, str] = {}
        self.functions: dict[str, dict[str, Any]] = {}
        self.calls: list[dict[str, Any]] = []
        self.assigns: list[dict[str, Any]] = []
        self.binops: list[dict[str, Any]] = []
        self.rng_scopes: dict[str, dict[str, Any]] = {}
        self.taint: dict[str, dict[str, Any]] = {}
        self._class_stack: list[str] = []
        self._func_stack: list[str] = []
        self._module_defs: set[str] = set()

    # -- scope bookkeeping ---------------------------------------------
    @property
    def _scope(self) -> str:
        """Current scope key (``<module>`` or ``<module>:<qualname>``)."""
        if self._func_stack:
            return f"{self.module}:{'.'.join(self._func_stack)}"
        return self.module

    def _global_key(self, name: str) -> str:
        """Global key for a definition at the current nesting."""
        prefix = ".".join(self._class_stack)
        if prefix:
            return f"{self.module}.{prefix}.{name}"
        return f"{self.module}.{name}"

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".", 1)[0]
            target = alias.name if alias.asname else alias.name.split(".", 1)[0]
            self.imports[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            # Resolve ``from .x import y`` against this module's package.
            package = self.module.split(".")
            package = package[: len(package) - node.level]
            base = ".".join(package + ([node.module] if node.module else []))
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.imports[local] = f"{base}.{alias.name}" if base else alias.name

    # -- name resolution -----------------------------------------------
    def _resolve(self, node: ast.AST) -> str | None:
        """Global key for a callee expression (``None`` if opaque).

        Handles plain imported names, dotted chains through imported
        modules, same-module definitions and ``self.method`` calls.
        """
        name = dotted_name(node)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        if head == "self" and self._class_stack:
            if rest and "." not in rest:
                return f"{self.module}.{'.'.join(self._class_stack)}.{rest}"
            return None
        if head in self.imports:
            target = self.imports[head]
            return f"{target}.{rest}" if rest else target
        if not rest and head in self._module_defs:
            return f"{self.module}.{head}"
        return None

    def _is_wall_call(self, node: ast.Call) -> bool:
        name = dotted_name(node.func)
        if name in _CLOCK_CALLS:
            return True
        resolved = self._resolve(node.func)
        return resolved in _CLOCK_CALLS

    # -- value descriptors ---------------------------------------------
    def _desc(self, node: ast.AST) -> dict[str, Any]:
        """Valuedesc for one expression (see module docstring)."""
        desc: dict[str, Any] = {
            "unit": None, "call": None, "calls": [], "names": [],
            "wall": False, "num": False,
        }
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(
                node.value, bool
            ):
                desc["num"] = True
            return desc
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = dotted_name(node)
            if name is not None:
                desc["names"] = [name]
                desc["unit"] = unit_of(name)
            return desc
        if isinstance(node, ast.Call):
            resolved = self._resolve(node.func)
            if self._is_wall_call(node):
                desc["wall"] = True
            elif resolved is not None:
                desc["call"] = resolved
                desc["calls"].append(resolved)
                desc["unit"] = UNITS_HELPER_RETURNS.get(resolved)
            # Fold argument flows in so taint through e.g.
            # ``min(wall, x)`` or ``to_ms(t)`` is not lost.
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                inner = self._desc(arg)
                desc["names"].extend(inner["names"])
                desc["calls"].extend(inner["calls"])
                desc["wall"] = desc["wall"] or inner["wall"]
            return desc
        if isinstance(node, ast.BinOp):
            left = self._desc(node.left)
            right = self._desc(node.right)
            desc["names"] = left["names"] + right["names"]
            desc["calls"] = left["calls"] + right["calls"]
            desc["wall"] = left["wall"] or right["wall"]
            if isinstance(node.op, (ast.Add, ast.Sub)):
                # Only +/- preserve dimension; a call's return unit
                # must not survive * or / (bits / seconds is a rate,
                # not bits).
                if left["unit"] is not None and left["unit"] == right["unit"]:
                    desc["unit"] = left["unit"]
                for side in (left, right):
                    if side["call"] is not None and desc["call"] is None:
                        desc["call"] = side["call"]
            return desc
        if isinstance(node, (ast.UnaryOp,)):
            return self._desc(node.operand)
        if isinstance(node, ast.IfExp):
            body = self._desc(node.body)
            orelse = self._desc(node.orelse)
            body["names"] += orelse["names"]
            body["calls"] += orelse["calls"]
            body["wall"] = body["wall"] or orelse["wall"]
            if body["unit"] != orelse["unit"]:
                body["unit"] = None
            return body
        return desc

    @staticmethod
    def _interesting(desc: dict[str, Any]) -> bool:
        """Whether a desc can contribute to a unit judgement."""
        return desc["unit"] is not None or desc["call"] is not None

    # -- definitions ---------------------------------------------------
    def visit_Module(self, node: ast.Module) -> None:
        for stmt in node.body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                self._module_defs.add(stmt.name)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()
        # Expose the constructor under the bare class key so
        # ``Channel(...)`` call sites resolve like plain calls.
        init_key = f"{self.module}.{'.'.join(self._class_stack + [node.name])}.__init__"
        if init_key in self.functions:
            class_key = init_key.rsplit(".", 1)[0]
            self.functions[class_key] = self.functions[init_key]

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._handle_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._handle_function(node)

    def _handle_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args]
        if self._class_stack and params and params[0] in ("self", "cls"):
            params = params[1:]
        if not self._func_stack:
            # Only top-level functions and methods enter the symbol
            # table; nested defs are closures, invisible to callers.
            returns: list[dict[str, Any]] = []
            numeric_only = True
            saw_return = False
            for sub in ast.walk(node):
                if isinstance(sub, ast.Return) and sub.value is not None:
                    saw_return = True
                    desc = self._desc(sub.value)
                    if not desc["num"]:
                        numeric_only = False
                    if self._interesting(desc) or desc["wall"] or desc["names"]:
                        returns.append(desc)
            self.functions[self._global_key(node.name)] = {
                "params": params,
                "kwonly": [a.arg for a in args.kwonlyargs],
                "vararg": args.vararg is not None,
                "kwarg": args.kwarg is not None,
                "line": node.lineno,
                "name_unit": unit_of(node.name),
                "returns": returns,
                "unitless_const": saw_return and numeric_only,
            }
        self._func_stack.append(
            ".".join(self._class_stack + [node.name])
            if self._class_stack
            else node.name
        )
        # Parameters that look like stream factories seed the RNG
        # object table, so pure pass-through flows are tracked too.
        for param in params + [a.arg for a in args.kwonlyargs]:
            if "streams" in param:
                self._rng_object(param, origin="param")
        self.generic_visit(node)
        self._func_stack.pop()

    # -- statements ----------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        value_desc = self._desc(node.value)
        for target in node.targets:
            self._note_assign(target, node.value, value_desc, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            value_desc = self._desc(node.value)
            self._note_assign(node.target, node.value, value_desc, node)
        self.generic_visit(node)

    def _note_assign(
        self,
        target: ast.AST,
        value: ast.AST,
        desc: dict[str, Any],
        node: ast.stmt,
    ) -> None:
        target_name = dotted_name(target)
        if target_name is None:
            return
        leaf = target_name.rsplit(".", 1)[-1]
        # RNG flows: ``x = streams.derive("lbl")`` / ``x = streams.child("lbl")``
        # create a generator / sub-factory; ``x = RngStreams(seed)`` a root.
        if isinstance(value, ast.Call):
            if isinstance(value.func, ast.Attribute):
                attr = value.func.attr
                if attr in ("derive", "child") and value.args:
                    label = value.args[0]
                    owner = dotted_name(value.func.value)
                    if isinstance(label, ast.Constant) and isinstance(
                        label.value, str
                    ):
                        if attr == "child" and owner is not None:
                            self._rng_object(
                                target_name, origin=f"child:{owner}"
                            )
                        elif attr == "derive" and owner is not None:
                            self._rng_gen(target_name, label.value, node)
            ctor = dotted_name(value.func)
            if ctor is not None and ctor.rsplit(".", 1)[-1] == "RngStreams":
                self._rng_object(target_name, origin="ctor")
        # Wall-clock taint seeds and propagation edges.
        if self._func_stack and (
            desc["wall"] or desc["names"] or desc["calls"]
        ):
            self._taint_record("assigns", node, target=leaf, desc=desc)
        # Unit flow into a suffixed target.
        if unit_of(target_name) is not None and self._interesting(desc):
            self.assigns.append({
                "target": target_name,
                "desc": desc,
                "line": node.lineno,
                "end": getattr(node, "end_lineno", node.lineno),
                "scope": self._scope,
            })

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            left = self._desc(node.left)
            right = self._desc(node.right)
            if self._interesting(left) and self._interesting(right):
                self.binops.append({
                    "op": "+" if isinstance(node.op, ast.Add) else "-",
                    "left": left,
                    "right": right,
                    "line": node.lineno,
                    "end": getattr(node, "end_lineno", node.lineno),
                })
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._note_rng_call(node)
        self._note_sinks(node)
        resolved = self._resolve(node.func)
        if resolved is not None and resolved.startswith(PROJECT_PREFIXES):
            args = [self._desc(arg) for arg in node.args]
            kwargs = {
                kw.arg: self._desc(kw.value)
                for kw in node.keywords
                if kw.arg is not None
            }
            if any(self._interesting(d) for d in args) or any(
                self._interesting(d) for d in kwargs.values()
            ):
                self.calls.append({
                    "callee": resolved,
                    "line": node.lineno,
                    "end": getattr(node, "end_lineno", node.lineno),
                    "args": args,
                    "kwargs": kwargs,
                })
        self.generic_visit(node)

    # -- RNG flows -----------------------------------------------------
    def _rng_scope(self) -> dict[str, Any]:
        return self.rng_scopes.setdefault(
            self._scope, {"objects": {}, "gens": {}}
        )

    def _rng_object(self, name: str, origin: str) -> dict[str, Any]:
        objects = self._rng_scope()["objects"]
        return objects.setdefault(
            name,
            {"origin": origin, "derives": [], "childs": [], "passes": []},
        )

    def _rng_gen(self, name: str, label: str, node: ast.stmt) -> None:
        self._rng_scope()["gens"][name] = {
            "label": label,
            "line": node.lineno,
            "end": getattr(node, "end_lineno", node.lineno),
            "uses": [],
        }

    def _note_rng_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("derive", "child"):
            owner = dotted_name(func.value)
            label_node = node.args[0] if node.args else None
            if owner is not None and isinstance(label_node, ast.Constant) and (
                isinstance(label_node.value, str)
            ):
                obj = self._rng_object(
                    owner,
                    origin="param" if self._func_stack else "module",
                )
                record = [
                    label_node.value,
                    node.lineno,
                    getattr(node, "end_lineno", node.lineno),
                    "module" if not self._func_stack else "function",
                ]
                if func.attr == "derive":
                    obj["derives"].append(record)
                else:
                    obj["childs"].append(record)
        # Argument uses: a streams object or a derived generator handed
        # to a callee.
        callee = self._resolve(node.func)
        scope = self.rng_scopes.get(self._scope)
        if scope is None:
            return
        positional = list(enumerate(node.args))
        keyword = [(kw.arg, kw.value) for kw in node.keywords if kw.arg]
        for slot, value in positional + keyword:  # type: ignore[operator]
            name = dotted_name(value)
            if name is None and isinstance(value, ast.Call) and isinstance(
                value.func, ast.Attribute
            ) and value.func.attr == "child":
                # Inline ``obj.child("x")`` pass: label is recorded via
                # _note_rng_call on the inner call; the callee derives
                # land in a fresh namespace, so nothing to track here.
                continue
            if name is None:
                continue
            if name in scope["objects"]:
                scope["objects"][name]["passes"].append([
                    callee, slot, node.lineno,
                    getattr(node, "end_lineno", node.lineno),
                ])
            if name in scope["gens"]:
                scope["gens"][name]["uses"].append([
                    callee or dotted_name(node.func) or "<call>",
                    node.lineno,
                    getattr(node, "end_lineno", node.lineno),
                ])

    # -- wall-clock sinks ----------------------------------------------
    def _taint_record(self, kind: str, node: ast.AST, **payload: Any) -> None:
        entry = self.taint.setdefault(
            self._scope, {"assigns": [], "sinks": [], "returns": []}
        )
        payload["line"] = node.lineno
        payload["end"] = getattr(node, "end_lineno", node.lineno)
        entry[kind].append(payload)

    def _note_sinks(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        receiver = dotted_name(func.value)
        receiver_leaf = receiver.rsplit(".", 1)[-1] if receiver else ""
        sink_exprs: list[tuple[str, ast.AST]] = []
        if func.attr in SCHEDULE_ATTRS and node.args:
            sink_exprs.append((f"{func.attr} time", node.args[0]))
        elif receiver_leaf in RECORDER_NAMES:
            if func.attr in TRACE_EMIT_ATTRS:
                if func.attr == "span_at":
                    for position in (1, 2):
                        if len(node.args) > position:
                            sink_exprs.append(
                                ("span_at bound", node.args[position])
                            )
                for kw in node.keywords:
                    if kw.arg in ("t", "t0", "t1"):
                        sink_exprs.append((f"{func.attr} {kw.arg}=", kw.value))
            elif func.attr in METRIC_EMIT_ATTRS and len(node.args) > 1:
                sink_exprs.append((f"{func.attr} value", node.args[1]))
        for detail, expr in sink_exprs:
            desc = self._desc(expr)
            if desc["wall"] or desc["names"] or desc["calls"]:
                self._taint_record("sinks", node, detail=detail, desc=desc)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None and self._func_stack:
            desc = self._desc(node.value)
            if desc["wall"] or desc["names"] or desc["calls"]:
                self._taint_record("returns", node, desc=desc)
        self.generic_visit(node)


def extract_facts(tree: ast.Module, module: str) -> dict[str, Any]:
    """Extract the cross-module facts of one parsed file."""
    extractor = _FactExtractor(module)
    extractor.visit(tree)
    return {
        "module": module,
        "imports": extractor.imports,
        "functions": extractor.functions,
        "calls": extractor.calls,
        "assigns": extractor.assigns,
        "binops": extractor.binops,
        "rng": extractor.rng_scopes,
        "taint": extractor.taint,
    }


# ----------------------------------------------------------------------
# project index
# ----------------------------------------------------------------------
class ProjectIndex:
    """Symbol table + fact store over every linted file.

    ``files`` maps path -> facts; derived lookups are precomputed once
    so rule passes stay O(project).
    """

    def __init__(self, files: dict[str, dict[str, Any]]) -> None:
        self.files = files
        #: Global key -> function signature record.
        self.symbols: dict[str, dict[str, Any]] = {}
        #: Global key -> defining path (for diagnostics).
        self.defined_in: dict[str, str] = {}
        #: Module name -> path.
        self.modules: dict[str, str] = {}
        for path, facts in files.items():
            self.modules[facts["module"]] = path
            for key, info in facts["functions"].items():
                self.symbols[key] = info
                self.defined_in[key] = path
        self._return_units: dict[str, str | None] = {}
        self._wall_returns: dict[str, bool] | None = None

    # -- unit inference ------------------------------------------------
    def return_unit(self, key: str, _depth: int = 0) -> str | None:
        """Inferred ``family:unit`` of a function's return value.

        Priority: units-helper table, unit suffix on the function name,
        then agreement across unit-bearing return statements (following
        call chains to a small depth). ``None`` when unknown or mixed.
        """
        if key in UNITS_HELPER_RETURNS:
            return UNITS_HELPER_RETURNS[key]
        if key in self._return_units:
            return self._return_units[key]
        if _depth > 8 or key not in self.symbols:
            return None
        self._return_units[key] = None  # cycle guard
        info = self.symbols[key]
        unit = info.get("name_unit")
        if unit is None:
            seen: set[str] = set()
            conflicting = False
            for desc in info.get("returns", ()):
                candidate = desc.get("unit")
                if candidate is None and desc.get("call"):
                    candidate = self.return_unit(desc["call"], _depth + 1)
                if candidate is not None:
                    seen.add(candidate)
                elif desc.get("names") or desc.get("call"):
                    conflicting = True  # a return we cannot judge
            if len(seen) == 1 and not conflicting:
                unit = seen.pop()
        self._return_units[key] = unit
        return unit

    def desc_unit(self, desc: dict[str, Any]) -> str | None:
        """Unit of a valuedesc, following call returns."""
        if desc.get("unit") is not None:
            return desc["unit"]
        if desc.get("call"):
            return self.return_unit(desc["call"])
        return None

    # -- wall-clock taint ----------------------------------------------
    def wall_returns(self) -> dict[str, bool]:
        """Function keys whose return value carries wall-clock time.

        Fixed point over return flows: a function is tainted when any
        return expression reads the clock directly, references a local
        assigned from the clock, or calls a tainted function.
        """
        if self._wall_returns is not None:
            return self._wall_returns
        tainted: dict[str, bool] = {}
        changed = True
        passes = 0
        while changed and passes < 16:
            changed = False
            passes += 1
            for path, facts in self.files.items():
                for scope, flows in facts.get("taint", {}).items():
                    key = scope_to_key(scope)
                    locals_tainted = self.tainted_locals(flows, tainted)
                    is_tainted = any(
                        self.desc_tainted(ret["desc"], locals_tainted, tainted)
                        for ret in flows.get("returns", ())
                    )
                    if is_tainted and not tainted.get(key, False):
                        tainted[key] = True
                        changed = True
        self._wall_returns = tainted
        return tainted

    @staticmethod
    def desc_tainted(
        desc: dict[str, Any],
        locals_tainted: set[str],
        wall_fns: dict[str, bool],
    ) -> bool:
        """Whether a valuedesc carries wall-clock taint."""
        if desc.get("wall"):
            return True
        if any(
            name.split(".", 1)[0] in locals_tainted or name in locals_tainted
            for name in desc.get("names", ())
        ):
            return True
        call = desc.get("call")
        if call and wall_fns.get(call, False):
            return True
        return any(
            wall_fns.get(callee, False) for callee in desc.get("calls", ())
        )

    @classmethod
    def tainted_locals(
        cls, flows: dict[str, Any], wall_fns: dict[str, bool]
    ) -> set[str]:
        """Fixed-point local taint set for one function's flows."""
        tainted: set[str] = set()
        changed = True
        while changed:
            changed = False
            for assign in flows.get("assigns", ()):
                if assign["target"] in tainted:
                    continue
                if cls.desc_tainted(assign["desc"], tainted, wall_fns):
                    tainted.add(assign["target"])
                    changed = True
        return tainted


def scope_to_key(scope: str) -> str:
    """Global key for a scope string (``mod:Class.fn`` -> ``mod.Class.fn``)."""
    return scope.replace(":", ".", 1)

