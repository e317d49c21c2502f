"""The cross-module dataflow rules (RPL007, RPL009, RPL010).

These rules run over a :class:`~repro.lint.project.ProjectIndex`
rather than one AST, so they can see both ends of a call: the unit
suffix of a parameter defined in another package, the RNG labels a
callee derives from the factory it was handed, the wall-clock taint a
helper's return value carries.

Rule catalogue
--------------

RPL007 *unit-dimension inference*
    Infers physical dimensions from ``_s``/``_ms``/``_bps``/``_bytes``
    suffixes on parameters, variables and function names, plus the
    known return units of :mod:`repro.util.units` conversions, and
    flags: a call-site argument whose unit differs from the callee
    parameter's (``send(timeout_s=x_ms)``), ``+``/``-`` arithmetic
    mixing units, a call return of one unit assigned to a slot
    suffixed with another, and a numeric-constant (dimensionless)
    return flowing into a unit-suffixed parameter.

RPL009 *RNG stream aliasing*
    One component per stream: the same ``RngStreams`` object must not
    ``derive``/``child`` the same label twice (directly, or once
    locally and once inside a callee the factory is passed to), a
    derived generator variable must not be handed to more than one
    component, and ``derive``/``child`` at module scope captures a
    stream before any scenario seed is bound.

RPL010 *sim-time/wall-time taint*
    A value read from the wall clock (``time.time``,
    ``perf_counter``, ... — directly, via locals, or via a function
    whose return is wall-derived) must not reach event-loop
    scheduling calls, trace timestamps or metric values: those are
    sim-time domains, and wall time silently breaks bit-identical
    replay.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.lint.findings import Finding
from repro.lint.project import ProjectIndex, scope_to_key

#: Rule id -> title for ``--list-rules``.
CROSS_RULE_TITLES: dict[str, str] = {
    "RPL007": "unit-dimension inference",
    "RPL009": "RNG stream aliasing",
    "RPL010": "sim-time/wall-time taint",
}


def CrossFinding(
    path: str, line: int, end_line: int, rule_id: str, message: str
) -> Finding:
    """A finding spanning ``line``..``end_line`` (multi-line calls)."""
    return Finding(
        path=path, line=line, col=1, rule_id=rule_id, message=message,
        end_line=end_line,
    )


def _finding(
    path: str, fact: dict[str, Any], rule_id: str, message: str
) -> Finding:
    return CrossFinding(
        path=path,
        line=fact["line"],
        end_line=fact.get("end", fact["line"]),
        rule_id=rule_id,
        message=message,
    )


def _pretty(unit: str) -> str:
    """``time:ms`` -> ``ms (time)`` for messages."""
    family, _, name = unit.partition(":")
    return f"{name} ({family})"


# ----------------------------------------------------------------------
# RPL007 — unit-dimension inference
# ----------------------------------------------------------------------
def check_units(index: ProjectIndex) -> Iterator[Finding]:
    """Yield every cross-module unit-dimension mismatch."""
    from repro.lint.project import unit_of

    for path, facts in index.files.items():
        for call in facts["calls"]:
            info = index.symbols.get(call["callee"])
            if info is None:
                continue
            callee_leaf = call["callee"].rsplit(".", 1)[-1]
            pairs: list[tuple[str, dict[str, Any], bool]] = []
            params = info["params"]
            for position, desc in enumerate(call["args"]):
                if position < len(params):
                    pairs.append((params[position], desc, False))
            named = set(params) | set(info["kwonly"])
            for keyword, desc in call["kwargs"].items():
                if keyword in named:
                    pairs.append((keyword, desc, True))
            for param, desc, via_keyword in pairs:
                param_unit = unit_of(param)
                if param_unit is None:
                    continue
                arg_unit = index.desc_unit(desc)
                if (
                    via_keyword
                    and desc.get("call") is None
                    and desc.get("unit") is not None
                    and arg_unit is not None
                    and arg_unit.partition(":")[0]
                    == param_unit.partition(":")[0]
                ):
                    # Same-family keyword mismatch on a bare name is
                    # RPL002's per-file check; don't report it twice.
                    continue
                if arg_unit is not None and arg_unit != param_unit:
                    yield _finding(
                        path, call, "RPL007",
                        f"argument of unit {_pretty(arg_unit)} passed to "
                        f"parameter '{param}' of '{callee_leaf}' expecting "
                        f"{_pretty(param_unit)}; convert via repro.util.units",
                    )
                elif (
                    arg_unit is None
                    and desc.get("call")
                    and index.symbols.get(desc["call"], {}).get(
                        "unitless_const"
                    )
                ):
                    yield _finding(
                        path, call, "RPL007",
                        f"dimensionless return of "
                        f"'{desc['call'].rsplit('.', 1)[-1]}' flows into "
                        f"unit-suffixed parameter '{param}' of "
                        f"'{callee_leaf}'; suffix the helper or convert "
                        "explicitly",
                    )
        for assign in facts["assigns"]:
            target_unit = unit_of(assign["target"])
            desc = assign["desc"]
            if target_unit is None or (
                desc.get("unit") is not None and not desc.get("call")
            ):
                # Suffix-to-suffix flows are RPL002's (per-file) call;
                # this rule adds what needs the symbol table: returns.
                continue
            value_unit = index.desc_unit(desc)
            if value_unit is not None and value_unit != target_unit:
                yield _finding(
                    path, assign, "RPL007",
                    f"'{assign['target']}' ({_pretty(target_unit)}) "
                    f"assigned from call returning "
                    f"{_pretty(value_unit)}; convert via repro.util.units",
                )
        for binop in facts["binops"]:
            left = index.desc_unit(binop["left"])
            right = index.desc_unit(binop["right"])
            if left is not None and right is not None and left != right:
                yield _finding(
                    path, binop, "RPL007",
                    f"'{binop['op']}' mixes {_pretty(left)} and "
                    f"{_pretty(right)}; convert one side via "
                    "repro.util.units",
                )


# ----------------------------------------------------------------------
# RPL009 — RNG stream aliasing
# ----------------------------------------------------------------------
def _callee_rng_objects(
    index: ProjectIndex, callee: str
) -> tuple[str, dict[str, Any]] | None:
    """(path, rng-objects) of a callee's scope, or ``None``."""
    path = index.defined_in.get(callee)
    if path is None:
        return None
    facts = index.files[path]
    module = facts["module"]
    qualname = callee[len(module) + 1:] if callee.startswith(module) else None
    if qualname is None:
        return None
    for candidate in (qualname, f"{qualname}.__init__"):
        scope = facts["rng"].get(f"{module}:{candidate}")
        if scope is not None:
            return path, scope["objects"]
    return None


def _param_name(index: ProjectIndex, callee: str, slot: Any) -> str | None:
    info = index.symbols.get(callee)
    if info is None:
        return None
    if isinstance(slot, int):
        params = info["params"]
        return params[slot] if slot < len(params) else None
    return slot if slot in (set(info["params"]) | set(info["kwonly"])) else None


def _propagated_derives(
    index: ProjectIndex,
    callee: str,
    param: str,
    depth: int = 0,
    seen: frozenset[tuple[str, str]] = frozenset(),
) -> list[tuple[str, str]]:
    """Labels the callee (transitively) derives from one parameter."""
    if depth > 8 or (callee, param) in seen:
        return []
    resolved = _callee_rng_objects(index, callee)
    if resolved is None:
        return []
    _, objects = resolved
    obj = objects.get(param)
    if obj is None:
        return []
    labels = [
        (record[0], callee.rsplit(".", 1)[-1]) for record in obj["derives"]
    ]
    for onward_callee, slot, _line, _end in obj["passes"]:
        if onward_callee is None:
            continue
        onward_param = _param_name(index, onward_callee, slot)
        if onward_param is not None:
            labels.extend(
                _propagated_derives(
                    index, onward_callee, onward_param, depth + 1,
                    seen | {(callee, param)},
                )
            )
    return labels


def check_rng_streams(index: ProjectIndex) -> Iterator[Finding]:
    """Yield every RNG stream-discipline violation."""
    for path, facts in index.files.items():
        for scope, table in facts["rng"].items():
            for obj_name, obj in table["objects"].items():
                # Import-time capture: derive/child outside any function.
                for kind in ("derives", "childs"):
                    for label, line, end, where in obj[kind]:
                        if where == "module":
                            yield CrossFinding(
                                path, line, end, "RPL009",
                                f"'{obj_name}.{kind[:-1]}(\"{label}\")' at "
                                "module scope captures a stream at import "
                                "time, before any scenario seed is bound",
                            )
                # Duplicate labels on one object (direct).
                for kind in ("derives", "childs"):
                    seen_labels: dict[str, int] = {}
                    for label, line, end, _where in obj[kind]:
                        if label in seen_labels:
                            yield CrossFinding(
                                path, line, end, "RPL009",
                                f"label '{label}' {kind[:-1]}d twice from "
                                f"'{obj_name}' (first at line "
                                f"{seen_labels[label]}); the two streams "
                                "are bit-identical, not independent",
                            )
                        else:
                            seen_labels[label] = line
                # Duplicate labels via passes into callees.
                local_labels = {record[0] for record in obj["derives"]}
                claimed: dict[str, str] = {
                    label: "here" for label in local_labels
                }
                for callee, slot, line, end in obj["passes"]:
                    if callee is None:
                        continue
                    param = _param_name(index, callee, slot)
                    if param is None:
                        continue
                    for label, owner in _propagated_derives(
                        index, callee, param
                    ):
                        if label in claimed:
                            yield CrossFinding(
                                path, line, end, "RPL009",
                                f"passing '{obj_name}' to "
                                f"'{callee.rsplit('.', 1)[-1]}' derives "
                                f"label '{label}' already derived "
                                f"{claimed[label]}; two components would "
                                "share one stream",
                            )
                        else:
                            claimed[label] = f"in '{owner}'"
            for gen_name, gen in table["gens"].items():
                if len(gen["uses"]) > 1:
                    first = gen["uses"][0]
                    for callee, line, end in gen["uses"][1:]:
                        yield CrossFinding(
                            path, line, end, "RPL009",
                            f"generator '{gen_name}' (stream "
                            f"'{gen['label']}') already handed to "
                            f"'{first[0]}' at line {first[1]}; sharing "
                            "one stream couples the components' draws",
                        )


# ----------------------------------------------------------------------
# RPL010 — sim-time/wall-time taint
# ----------------------------------------------------------------------
def check_wall_taint(index: ProjectIndex) -> Iterator[Finding]:
    """Yield every wall-clock-into-sim-time flow."""
    wall_fns = index.wall_returns()
    for path, facts in index.files.items():
        for scope, flows in facts["taint"].items():
            locals_tainted = ProjectIndex.tainted_locals(flows, wall_fns)
            for sink in flows["sinks"]:
                if ProjectIndex.desc_tainted(
                    sink["desc"], locals_tainted, wall_fns
                ):
                    key = scope_to_key(scope)
                    yield CrossFinding(
                        path, sink["line"], sink["end"], "RPL010",
                        f"wall-clock value reaches '{sink['detail']}' in "
                        f"'{key.rsplit('.', 1)[-1]}'; sim-time sinks must "
                        "be fed from the event-loop clock (EventLoop.now)",
                    )


#: All cross-module checks in catalogue order.
CROSS_CHECKS = (check_units, check_rng_streams, check_wall_taint)


def run_cross_rules(index: ProjectIndex) -> list[Finding]:
    """Run every cross-module rule over the index."""
    return [finding for check in CROSS_CHECKS for finding in check(index)]
