"""Tests for the whole-program lint engine and rules RPL007/009/010.

Fixture projects are plain ``{path: source}`` dicts fed straight to
:func:`lint_project`, or folded into a :class:`ProjectIndex` from
:func:`extract_facts` — no disk needed — with paths under
``src/repro/`` so callee keys resolve like real project modules.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.lint import Finding, ProjectIndex, extract_facts, lint_project
from repro.lint.crossrules import run_cross_rules
from repro.lint.project import module_name_for
from repro.lint.runner import run_cli

REPO_ROOT = Path(__file__).resolve().parent.parent

# The whole-program analysis scope (mirrors DEFAULT_PATHS).
REPO_TARGETS = ["src", "tools", "examples", "benchmarks"]


def build_index(sources: dict[str, str]) -> ProjectIndex:
    return ProjectIndex({
        path: extract_facts(ast.parse(source), module_name_for(path))
        for path, source in sources.items()
    })


def cross_ids(sources: dict[str, str]) -> list[str]:
    index = build_index(sources)
    return sorted(f.rule_id for f in run_cross_rules(index))


def repo_sources() -> dict[str, str]:
    from repro.lint.runner import iter_python_files

    targets = [REPO_ROOT / name for name in REPO_TARGETS]
    return {
        str(path): path.read_text(encoding="utf-8")
        for path in iter_python_files([t for t in targets if t.exists()])
    }


# ----------------------------------------------------------------------
# engine: module naming, symbol table, call resolution
# ----------------------------------------------------------------------
class TestEngine:
    def test_module_name_for(self):
        assert module_name_for("src/repro/net/path.py") == "repro.net.path"
        assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"
        assert module_name_for("tools/cc_bench.py") == "tools.cc_bench"
        assert (
            module_name_for("benchmarks/test_fig4_handover.py")
            == "benchmarks.test_fig4_handover"
        )

    def test_symbol_table_and_call_graph(self):
        sources = {
            "src/repro/fake_api.py": (
                "class Channel:\n"
                "    def __init__(self, capacity_bps):\n"
                "        self.capacity_bps = capacity_bps\n"
                "    def send(self, size_bytes):\n"
                "        return size_bytes\n"
                "\n"
                "def helper(duration_s):\n"
                "    return duration_s\n"
            ),
            "src/repro/fake_use.py": (
                "from repro.fake_api import Channel, helper\n"
                "\n"
                "def go(rate_bps, wait_s):\n"
                "    chan = Channel(rate_bps)\n"
                "    helper(wait_s)\n"
            ),
        }
        index = build_index(sources)
        # Methods keyed module.Class.method; constructor aliased to the
        # bare class key so Channel(...) call sites resolve.
        assert "repro.fake_api.Channel.send" in index.symbols
        assert index.symbols["repro.fake_api.Channel"]["params"] == [
            "capacity_bps"
        ]
        assert index.symbols["repro.fake_api.helper"]["params"] == [
            "duration_s"
        ]
        callees = {
            call["callee"]
            for facts in index.files.values()
            for call in facts["calls"]
        }
        assert callees == {"repro.fake_api.Channel", "repro.fake_api.helper"}
        assert index.defined_in["repro.fake_api.helper"] == (
            "src/repro/fake_api.py"
        )

    def test_nested_defs_stay_out_of_symbol_table(self):
        sources = {
            "src/repro/fake_nest.py": (
                "def outer():\n"
                "    def helper(delay_ms):\n"
                "        return delay_ms\n"
                "    return helper\n"
            ),
        }
        index = build_index(sources)
        assert "repro.fake_nest.outer" in index.symbols
        assert "repro.fake_nest.helper" not in index.symbols

    def test_return_unit_inference(self):
        sources = {
            "src/repro/fake_ret.py": (
                "def window_s():\n"
                "    return 1.5\n"
                "\n"
                "def forwarded():\n"
                "    return window_s()\n"
            ),
        }
        index = build_index(sources)
        # Name suffix wins for window_s; forwarded() follows the chain.
        assert index.return_unit("repro.fake_ret.window_s") == "time:s"
        assert index.return_unit("repro.fake_ret.forwarded") == "time:s"

    def test_syntax_error_reported_not_fatal(self):
        sources = {
            "src/repro/fake_bad.py": "def broken(:\n",
            "src/repro/fake_ok.py": "x = 1\n",
        }
        findings = lint_project(sources=sources)
        assert [(f.path, f.rule_id) for f in findings] == [
            ("src/repro/fake_bad.py", "RPL000")
        ]
        # The unparseable file drops out; the rest is still analyzed.
        sources.update(TestUnitDimensions.MISMATCH)
        findings = lint_project(sources=sources)
        assert [f.rule_id for f in findings] == ["RPL000", "RPL007"]


# ----------------------------------------------------------------------
# RPL007 — unit-dimension inference
# ----------------------------------------------------------------------
class TestUnitDimensions:
    API = "def send(timeout_s):\n    return timeout_s\n"
    MISMATCH = {
        "src/repro/fake_api.py": API,
        "src/repro/fake_use.py": (
            "from repro.fake_api import send\n"
            "\n"
            "def go(delay_ms):\n"
            "    send(delay_ms)\n"
        ),
    }

    def test_cross_file_ms_into_s_parameter_fires(self):
        assert cross_ids(self.MISMATCH) == ["RPL007"]

    def test_matching_unit_is_silent(self):
        sources = {
            "src/repro/fake_api.py": self.API,
            "src/repro/fake_use.py": (
                "from repro.fake_api import send\n"
                "\n"
                "def go(delay_s):\n"
                "    send(delay_s)\n"
            ),
        }
        assert cross_ids(sources) == []

    def test_bits_into_bytes_positional_fires(self):
        sources = {
            "src/repro/fake_api.py": (
                "def enqueue(size_bytes=0):\n    return size_bytes\n"
            ),
            "src/repro/fake_use.py": (
                "from repro.fake_api import enqueue\n"
                "\n"
                "def go(frame_bits):\n"
                "    enqueue(frame_bits)\n"
            ),
        }
        assert cross_ids(sources) == ["RPL007"]

    def test_keyword_same_family_flow_deferred_to_rpl002(self):
        # f(size_bytes=frame_bits) is visible per-file from the keyword
        # name alone; RPL002 owns it and RPL007 must not double-report.
        sources = {
            "src/repro/fake_api.py": (
                "def enqueue(size_bytes=0):\n    return size_bytes\n"
            ),
            "src/repro/fake_use.py": (
                "from repro.fake_api import enqueue\n"
                "\n"
                "def go(frame_bits):\n"
                "    enqueue(size_bytes=frame_bits)\n"
            ),
        }
        assert cross_ids(sources) == []
        findings = lint_project(sources=sources)
        assert [f.rule_id for f in findings] == ["RPL002"]

    def test_dimensionless_return_into_suffixed_slot_fires(self):
        sources = {
            "src/repro/fake_api.py": self.API,
            "src/repro/fake_use.py": (
                "from repro.fake_api import send\n"
                "\n"
                "def frame_budget():\n"
                "    return 33\n"
                "\n"
                "def go():\n"
                "    send(frame_budget())\n"
            ),
        }
        assert cross_ids(sources) == ["RPL007"]

    def test_suffixed_return_assigned_to_other_unit_fires(self):
        sources = {
            "src/repro/fake_api.py": (
                "def window_s():\n    return 1.5\n"
            ),
            "src/repro/fake_use.py": (
                "from repro.fake_api import window_s\n"
                "\n"
                "def go():\n"
                "    limit_ms = window_s()\n"
                "    return limit_ms\n"
            ),
        }
        assert cross_ids(sources) == ["RPL007"]

    def test_arithmetic_mixing_units_fires(self):
        sources = {
            "src/repro/fake_mix.py": (
                "def go(owd_ms, window_s):\n"
                "    return owd_ms + window_s\n"
            ),
        }
        assert cross_ids(sources) == ["RPL007"]

    def test_division_does_not_leak_return_unit(self):
        # bits / seconds is a rate, not bits: the real
        # to_mbps(bytes_to_bits(x) / duration) pattern must stay silent.
        units_src = (REPO_ROOT / "src/repro/util/units.py").read_text(
            encoding="utf-8"
        )
        sources = {
            "src/repro/util/units.py": units_src,
            "src/repro/fake_good.py": (
                "from repro.util.units import bytes_to_bits, to_mbps\n"
                "\n"
                "def goodput(total_bytes, duration):\n"
                "    return to_mbps(bytes_to_bits(total_bytes) / duration)\n"
            ),
        }
        assert cross_ids(sources) == []

    def test_units_helper_misuse_fires(self):
        units_src = (REPO_ROOT / "src/repro/util/units.py").read_text(
            encoding="utf-8"
        )
        sources = {
            "src/repro/util/units.py": units_src,
            "src/repro/fake_bad.py": (
                "from repro.util.units import to_ms\n"
                "\n"
                "def go(owd_ms):\n"
                "    return to_ms(owd_ms)\n"  # to_ms expects seconds
            ),
        }
        assert cross_ids(sources) == ["RPL007"]


# ----------------------------------------------------------------------
# RPL009 — RNG stream aliasing
# ----------------------------------------------------------------------
class TestRngStreams:
    def test_duplicate_derive_in_one_scope_fires(self):
        sources = {
            "src/repro/fake_rng.py": (
                "def build(streams):\n"
                "    a = streams.derive(\"jitter\")\n"
                "    b = streams.derive(\"jitter\")\n"
                "    return a, b\n"
            ),
        }
        assert cross_ids(sources) == ["RPL009"]

    def test_distinct_labels_silent(self):
        sources = {
            "src/repro/fake_rng.py": (
                "def build(streams):\n"
                "    a = streams.derive(\"jitter\")\n"
                "    b = streams.derive(\"loss\")\n"
                "    return a, b\n"
            ),
        }
        assert cross_ids(sources) == []

    def test_cross_file_label_collision_fires(self):
        sources = {
            "src/repro/fake_callee.py": (
                "def setup(streams):\n"
                "    return streams.derive(\"jitter\")\n"
            ),
            "src/repro/fake_caller.py": (
                "from repro.fake_callee import setup\n"
                "\n"
                "def build(streams):\n"
                "    local = streams.derive(\"jitter\")\n"
                "    other = setup(streams)\n"
                "    return local, other\n"
            ),
        }
        assert cross_ids(sources) == ["RPL009"]

    def test_cross_file_distinct_labels_silent(self):
        sources = {
            "src/repro/fake_callee.py": (
                "def setup(streams):\n"
                "    return streams.derive(\"loss\")\n"
            ),
            "src/repro/fake_caller.py": (
                "from repro.fake_callee import setup\n"
                "\n"
                "def build(streams):\n"
                "    local = streams.derive(\"jitter\")\n"
                "    other = setup(streams)\n"
                "    return local, other\n"
            ),
        }
        assert cross_ids(sources) == []

    def test_module_scope_derive_fires(self):
        sources = {
            "src/repro/fake_mod.py": (
                "from repro.util.rng import RngStreams\n"
                "\n"
                "streams = RngStreams(1)\n"
                "gen = streams.derive(\"ambient\")\n"
            ),
        }
        assert cross_ids(sources) == ["RPL009"]

    def test_generator_shared_between_components_fires(self):
        sources = {
            "src/repro/fake_share.py": (
                "def build(streams, uplink, downlink):\n"
                "    gen = streams.derive(\"noise\")\n"
                "    uplink.attach(gen)\n"
                "    downlink.attach(gen)\n"
            ),
        }
        assert cross_ids(sources) == ["RPL009"]

    def test_generator_used_once_silent(self):
        sources = {
            "src/repro/fake_share.py": (
                "def build(streams, uplink):\n"
                "    gen = streams.derive(\"noise\")\n"
                "    uplink.attach(gen)\n"
            ),
        }
        assert cross_ids(sources) == []


# ----------------------------------------------------------------------
# RPL010 — sim-time/wall-time taint
# ----------------------------------------------------------------------
class TestWallTaint:
    def test_wall_clock_into_schedule_fires(self):
        sources = {
            "src/repro/fake_taint.py": (
                "import time\n"
                "\n"
                "class S:\n"
                "    def __init__(self, loop):\n"
                "        self.loop = loop\n"
                "    def go(self):\n"
                "        t = time.time()\n"
                "        self.loop.call_at(t, self.go)\n"
            ),
        }
        index = build_index(sources)
        ids = [f.rule_id for f in run_cross_rules(index)]
        assert ids == ["RPL010"]

    def test_sim_clock_into_schedule_silent(self):
        sources = {
            "src/repro/fake_taint.py": (
                "class S:\n"
                "    def __init__(self, loop):\n"
                "        self.loop = loop\n"
                "    def go(self):\n"
                "        self.loop.call_at(self.loop.now + 1.0, self.go)\n"
            ),
        }
        assert cross_ids(sources) == []

    def test_wall_derived_return_into_trace_timestamp_fires(self):
        sources = {
            "src/repro/fake_clock.py": (
                "import time\n"
                "\n"
                "def stamp():\n"
                "    return time.time()\n"
            ),
            "src/repro/fake_emit.py": (
                "from repro.fake_clock import stamp\n"
                "\n"
                "def emit(obs):\n"
                "    obs.event(\"x.y\", t=stamp())\n"
            ),
        }
        index = build_index(sources)
        findings = [
            f for f in run_cross_rules(index) if f.rule_id == "RPL010"
        ]
        assert len(findings) == 1
        assert findings[0].path == "src/repro/fake_emit.py"

    def test_wall_taint_survives_arithmetic(self):
        sources = {
            "src/repro/fake_taint.py": (
                "import time\n"
                "\n"
                "def emit(obs, t0):\n"
                "    elapsed = time.perf_counter() - t0\n"
                "    obs.gauge(\"x/elapsed\", elapsed * 1000)\n"
            ),
        }
        index = build_index(sources)
        ids = [f.rule_id for f in run_cross_rules(index)]
        assert ids == ["RPL010"]


# ----------------------------------------------------------------------
# pragmas on cross-module findings
# ----------------------------------------------------------------------
class TestCrossPragmas:
    def test_pragma_on_any_line_of_multiline_call(self):
        source = (
            "import time\n"
            "\n"
            "class S:\n"
            "    def __init__(self, loop):\n"
            "        self.loop = loop\n"
            "    def go(self):\n"
            "        t = time.time()  # repro-lint: ignore[RPL001]\n"
            "        self.loop.call_at(\n"
            "            t,  # repro-lint: ignore[RPL010]  # wall replay\n"
            "            self.go,\n"
            "        )\n"
        )
        findings = lint_project(
            sources={"src/repro/fake_p.py": source}
        )
        assert findings == []

    def test_unpragmad_multiline_call_still_fires(self):
        source = (
            "import time\n"
            "\n"
            "class S:\n"
            "    def __init__(self, loop):\n"
            "        self.loop = loop\n"
            "    def go(self):\n"
            "        t = time.time()  # repro-lint: ignore[RPL001]\n"
            "        self.loop.call_at(\n"
            "            t,\n"
            "            self.go,\n"
            "        )\n"
        )
        findings = lint_project(
            sources={"src/repro/fake_p.py": source}
        )
        assert [f.rule_id for f in findings] == ["RPL010"]

    def test_skip_file_suppresses_findings_but_keeps_facts(self):
        # A skipped callee must still register its signature, or the
        # unit mismatch at the call site in another file would vanish.
        sources = {
            "src/repro/fake_api.py": (
                "# repro-lint: skip-file\n"
                "def send(timeout_s):\n"
                "    return timeout_s\n"
            ),
            "src/repro/fake_use.py": (
                "from repro.fake_api import send\n"
                "\n"
                "def go(delay_ms):\n"
                "    send(delay_ms)\n"
            ),
        }
        findings = lint_project(sources=sources)
        assert [(f.path, f.rule_id) for f in findings] == [
            ("src/repro/fake_use.py", "RPL007")
        ]


# ----------------------------------------------------------------------
# findings
# ----------------------------------------------------------------------
class TestOutput:
    def test_end_line_never_precedes_line(self):
        finding = Finding(
            path="a.py", line=9, col=1, rule_id="RPL007", message="m"
        )
        assert finding.end_line == 9


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
@pytest.fixture()
def fixture_tree(tmp_path, monkeypatch):
    """A tiny self-contained lintable tree, cwd switched into it."""
    monkeypatch.chdir(tmp_path)
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "api.py").write_text(
        "def send(timeout_s):\n    return timeout_s\n", encoding="utf-8"
    )
    (src / "use.py").write_text(
        "from repro.api import send\n"
        "\n"
        "def go(delay_ms):\n"
        "    send(delay_ms)\n",
        encoding="utf-8",
    )
    return tmp_path


class TestCli:
    def test_text_format_and_exit_code(self, fixture_tree, capsys):
        assert run_cli(["src"]) == 1
        out = capsys.readouterr().out
        assert "RPL007" in out and "finding(s)" in out

    def test_select_filters_cross_rules(self, fixture_tree, capsys):
        assert run_cli(["src", "--select", "RPL010"]) == 0
        capsys.readouterr()

    def test_max_seconds_budget_exceeded(self, fixture_tree, capsys):
        assert run_cli(["src", "--select", "RPL010", "--max-seconds", "0"]) == 3
        assert "exceeded" in capsys.readouterr().out

    def test_internal_error_exits_3(self, fixture_tree, capsys, monkeypatch):
        import repro.lint.runner as runner_module

        def boom(*args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(runner_module, "lint_project", boom)
        assert run_cli(["src"]) == 3
        assert "internal error" in capsys.readouterr().out

    def test_repro_cli_lint_subcommand(self, fixture_tree, capsys):
        from repro.cli import main

        assert main(["lint", "src"]) == 1
        out = capsys.readouterr().out
        assert "src/repro/use.py:4:1: RPL007" in out


# ----------------------------------------------------------------------
# live-repo gates and regressions
# ----------------------------------------------------------------------
class TestRepoGates:
    def test_repo_is_clean_whole_program(self):
        """The shipped tree passes every rule."""
        findings = lint_project(
            sources=repo_sources(), root=REPO_ROOT
        )
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_cc_bench_import_is_side_effect_free(self):
        """Regression (RPL009): importing tools/cc_bench.py must not
        run a simulation or derive RNG streams at module scope."""
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "cc_bench_under_test", REPO_ROOT / "tools" / "cc_bench.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # fast: defs only
        assert callable(module.main)
