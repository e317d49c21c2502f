"""Tests for the repro.lint invariant linter.

Each rule gets a paired fixture: a snippet seeded with the violation
the rule exists to catch, and the corrected form that must stay
silent. The pragma, walker and CLI behaviour are covered separately.
"""

import textwrap

import pytest

from repro.lint import ALL_RULES, Finding, PragmaIndex, lint_project, lint_source
from repro.lint.runner import iter_python_files, run_cli


def ids_of(findings):
    return [f.rule_id for f in findings]


def lint(snippet, path="sim/module.py"):
    return lint_source(textwrap.dedent(snippet), path)


# ----------------------------------------------------------------------
# RPL001 — nondeterminism
# ----------------------------------------------------------------------


class TestNondeterminism:
    def test_stdlib_random_fires(self):
        findings = lint(
            """
            import random

            def draw():
                return random.random()
            """
        )
        assert ids_of(findings) == ["RPL001"]

    def test_numpy_global_rng_fires(self):
        findings = lint(
            """
            import numpy as np

            def draw():
                np.random.seed(3)
                return np.random.normal(0.0, 1.0)
            """
        )
        assert ids_of(findings) == ["RPL001", "RPL001"]

    def test_unseeded_default_rng_fires(self):
        findings = lint(
            """
            import numpy as np

            def make():
                return np.random.default_rng()
            """
        )
        assert ids_of(findings) == ["RPL001"]

    def test_wall_clock_fires(self):
        findings = lint(
            """
            import time
            from datetime import datetime

            def stamp():
                return time.time(), datetime.now()
            """
        )
        assert ids_of(findings) == ["RPL001", "RPL001"]

    def test_os_entropy_fires(self):
        findings = lint(
            """
            import os, uuid

            def token():
                return os.urandom(8), uuid.uuid4()
            """
        )
        assert ids_of(findings) == ["RPL001", "RPL001"]

    def test_seeded_generator_is_silent(self):
        findings = lint(
            """
            import numpy as np

            def make(streams):
                rng = streams.derive("fading")
                seq = np.random.SeedSequence([1, 2])
                return rng.normal(0.0, 1.0), np.random.default_rng(seq)
            """
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPL002 — unit-suffix safety
# ----------------------------------------------------------------------


class TestUnitSafety:
    def test_magic_constant_arithmetic_fires(self):
        findings = lint(
            """
            def convert(delay, rate, size_bytes):
                delay_ms = delay * 1000
                rate_mbps = rate / 1e6
                bits = size_bytes * 8.0
                return delay_ms, rate_mbps, bits
            """
        )
        assert ids_of(findings) == ["RPL002", "RPL002", "RPL002"]

    def test_suffix_mismatch_assignment_fires(self):
        findings = lint(
            """
            def relabel(timeout_s):
                timeout_ms = timeout_s
                return timeout_ms
            """
        )
        assert ids_of(findings) == ["RPL002"]

    def test_suffix_mismatch_keyword_fires(self):
        findings = lint(
            """
            def call(configure, budget_bits):
                configure(budget_bytes=budget_bits)
            """
        )
        assert ids_of(findings) == ["RPL002"]

    def test_units_helpers_are_silent(self):
        findings = lint(
            """
            from repro.util.units import bytes_to_bits, to_mbps, to_ms

            def convert(delay, rate, size_bytes):
                delay_ms = to_ms(delay)
                rate_mbps = to_mbps(rate)
                return delay_ms, rate_mbps, bytes_to_bits(size_bytes)
            """
        )
        assert findings == []

    def test_same_unit_flow_is_silent(self):
        findings = lint(
            """
            def keep(owd_ms):
                latency_ms = owd_ms
                return latency_ms
            """
        )
        assert findings == []

    def test_integer_eight_and_epsilons_are_silent(self):
        findings = lint(
            """
            def harmless(x):
                return x * 8, x + 1e-3, x * 1e-6
            """
        )
        assert findings == []

    def test_units_module_itself_is_exempt(self):
        findings = lint(
            """
            def to_ms(seconds):
                return seconds * 1e3
            """,
            path="src/repro/util/units.py",
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPL003 — event-handle leaks
# ----------------------------------------------------------------------

_LEAKY_CLASS = """
class Pump:
    def __init__(self, loop):
        self._loop = loop

    def kick(self):
        self._loop.call_later(0.002, self.kick)

    def stop(self):
        pass
"""

_CLEAN_CLASS = """
class Pump:
    def __init__(self, loop):
        self._loop = loop
        self._pending = set()

    def kick(self):
        handle = self._loop.call_later(0.002, self.kick)
        self._pending.add(handle)

    def stop(self):
        for handle in self._pending:
            handle.cancel()
        self._pending.clear()
"""


class TestEventHandle:
    def test_discarded_handle_with_teardown_fires(self):
        assert ids_of(lint(_LEAKY_CLASS)) == ["RPL003"]

    def test_kept_handle_is_silent(self):
        assert lint(_CLEAN_CLASS) == []

    def test_class_without_teardown_is_silent(self):
        findings = lint(
            """
            class FireAndForget:
                def __init__(self, loop):
                    self._loop = loop

                def kick(self):
                    self._loop.call_later(0.002, self.kick)
            """
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPL005 — seed-path hygiene
# ----------------------------------------------------------------------


class TestSeedHygiene:
    def test_hardcoded_seed_fallback_fires(self):
        findings = lint(
            """
            import numpy as np

            def ensure(rng):
                if rng is None:
                    rng = np.random.default_rng(0)
                return rng
            """
        )
        assert ids_of(findings) == ["RPL005"]

    def test_legacy_randomstate_literal_fires(self):
        findings = lint(
            """
            import numpy as np

            def make():
                return np.random.RandomState(42)
            """
        )
        assert ids_of(findings) == ["RPL005"]

    def test_variable_seed_is_silent(self):
        findings = lint(
            """
            import numpy as np

            def make(seed_sequence):
                return np.random.default_rng(seed_sequence)
            """
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPL006 — hot-path dataclass slots
# ----------------------------------------------------------------------


PLAIN_DATACLASS = """
from dataclasses import dataclass

@dataclass
class Packet:
    seq: int
    size_bytes: int
"""


class TestHotPathSlots:
    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/net/packet.py",
            "src/repro/rtp/packets.py",
            "src/repro/cc/base.py",
        ],
    )
    def test_plain_dataclass_in_hot_module_fires(self, path):
        findings = lint(PLAIN_DATACLASS, path=path)
        assert ids_of(findings) == ["RPL006"]
        assert "slots" in findings[0].message

    def test_slots_true_is_silent(self):
        findings = lint(
            """
            from dataclasses import dataclass

            @dataclass(slots=True)
            class Packet:
                seq: int
            """,
            path="src/repro/net/packet.py",
        )
        assert findings == []

    def test_manual_slots_is_silent(self):
        findings = lint(
            """
            from dataclasses import dataclass

            @dataclass
            class Packet:
                __slots__ = ("seq",)
                seq: int
            """,
            path="src/repro/net/packet.py",
        )
        assert findings == []

    def test_plain_class_is_silent(self):
        findings = lint(
            """
            class Packet:
                def __init__(self, seq):
                    self.seq = seq
            """,
            path="src/repro/net/packet.py",
        )
        assert findings == []

    def test_cold_modules_are_exempt(self):
        """Analysis/experiment dataclasses are allocated a handful of
        times per run; forcing slots there would be noise."""
        for path in ("src/repro/analysis/metrics.py", "sim/module.py"):
            assert lint(PLAIN_DATACLASS, path=path) == []

    def test_decorator_call_without_slots_fires(self):
        findings = lint(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Packet:
                seq: int
            """,
            path="src/repro/cc/base.py",
        )
        assert ids_of(findings) == ["RPL006"]


# ----------------------------------------------------------------------
# pragmas
# ----------------------------------------------------------------------


class TestPragmas:
    def test_targeted_ignore_suppresses_only_that_rule(self):
        findings = lint(
            """
            import random

            def draw():
                return random.random()  # repro-lint: ignore[RPL001]
            """
        )
        assert findings == []

    def test_targeted_ignore_leaves_other_rules(self):
        findings = lint(
            """
            def convert(delay):
                return delay * 1000  # repro-lint: ignore[RPL001]
            """
        )
        assert ids_of(findings) == ["RPL002"]

    def test_bare_ignore_suppresses_all_rules_on_line(self):
        findings = lint(
            """
            import random

            def draw(delay):
                return random.random() * 1000  # repro-lint: ignore
            """
        )
        assert findings == []

    def test_skip_file_suppresses_everything(self):
        findings = lint(
            """
            # repro-lint: skip-file
            import random

            def draw():
                return random.random()
            """
        )
        assert findings == []

    def test_pragma_inside_string_is_inert(self):
        source = textwrap.dedent(
            """
            import random

            TEXT = "# repro-lint: skip-file"

            def draw():
                return random.random()
            """
        )
        assert ids_of(lint_source(source, "sim/module.py")) == ["RPL001"]
        assert PragmaIndex(source).skip_file is False


# ----------------------------------------------------------------------
# runner / walker / CLI
# ----------------------------------------------------------------------


class TestRunner:
    def test_syntax_error_becomes_rpl000(self):
        findings = lint_source("def broken(:\n", "bad.py")
        assert ids_of(findings) == ["RPL000"]
        assert "syntax error" in findings[0].message

    def test_findings_render_and_sort(self):
        finding = Finding(path="a.py", line=3, col=7, rule_id="RPL001", message="boom")
        assert finding.render() == "a.py:3:7: RPL001 boom"
        later = Finding(path="a.py", line=9, col=1, rule_id="RPL001", message="boom")
        assert sorted([later, finding]) == [finding, later]

    def test_walker_skips_cache_dirs(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "good.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
        files = list(iter_python_files([tmp_path]))
        assert [f.name for f in files] == ["good.py"]

    def test_lint_project_walks_paths(self, tmp_path):
        (tmp_path / "one.py").write_text("import random\nrandom.random()\n")
        (tmp_path / "two.py").write_text("x = 1\n")
        findings = lint_project([tmp_path])
        assert [(f.path, f.rule_id) for f in findings] == [
            (str(tmp_path / "one.py"), "RPL001")
        ]

    def test_cli_exit_codes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nrandom.random()\n")
        assert run_cli([str(bad)]) == 1
        assert "RPL001" in capsys.readouterr().out
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert run_cli([str(good)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_cli_leaves_no_cache(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mod.py").write_text("import random\nrandom.random()\n")
        assert run_cli(["mod.py"]) == 1
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mod.py"]

    def test_cli_select_filters_rules(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nrandom.random()\n")
        assert run_cli([str(bad), "--select", "RPL002"]) == 0
        capsys.readouterr()

    def test_cli_rejects_unknown_rule(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            run_cli([str(tmp_path), "--select", "RPL999"])
        capsys.readouterr()

    def test_cli_list_rules(self, capsys):
        assert run_cli(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_cls in ALL_RULES:
            assert rule_cls.rule_id in out

    def test_repo_is_clean(self):
        """The shipped tree, walked from disk, satisfies its own invariants."""
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        targets = [root / name for name in ("src", "tools", "examples")]
        findings = lint_project([t for t in targets if t.exists()], root=root)
        assert findings == [], "\n".join(f.render() for f in findings)
