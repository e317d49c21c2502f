"""Lint findings and suppression pragmas.

A :class:`Finding` pinpoints one invariant violation; a
:class:`PragmaIndex` records which lines of a file opted out of which
rules via ``# repro-lint: ignore[...]`` comments.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>skip-file|ignore)"
    r"(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)

#: Sentinel rule set meaning "every rule is ignored on this line".
ALL = frozenset({"*"})


@dataclass(frozen=True, order=True)
class Finding:
    """One invariant violation at a specific source location.

    ``end_line`` extends the anchor over multi-line constructs (the
    cross-module rules report whole call expressions); it is excluded
    from ordering/equality so per-file and cross findings mix freely.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    end_line: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.end_line < self.line:
            object.__setattr__(self, "end_line", self.line)

    def render(self) -> str:
        """GCC-style one-line rendering (clickable in most editors)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


class PragmaIndex:
    """Per-line suppression pragmas extracted from one source file.

    Parameters
    ----------
    source:
        Full text of the file. Comments are located with
        :mod:`tokenize`, so pragmas inside string literals are inert.
    """

    def __init__(self, source: str) -> None:
        self.skip_file = False
        self._ignored: dict[int, frozenset[str]] = {}
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for token in tokens:
                if token.type != tokenize.COMMENT:
                    continue
                self._note_comment(token.start[0], token.string)
        except (tokenize.TokenError, IndentationError):
            # Unparseable files are reported by the runner; pragma
            # extraction just degrades to "no pragmas".
            pass

    def _note_comment(self, line: int, comment: str) -> None:
        match = _PRAGMA_RE.search(comment)
        if match is None:
            return
        if match.group("kind") == "skip-file":
            self.skip_file = True
            return
        rules = match.group("rules")
        if rules is None:
            ignored = ALL
        else:
            ignored = frozenset(
                name.strip().upper() for name in rules.split(",") if name.strip()
            )
        previous = self._ignored.get(line, frozenset())
        self._ignored[line] = previous | ignored

    def suppresses(self, finding: Finding) -> bool:
        """Whether a pragma silences ``finding``.

        Cross-module findings anchor whole (possibly multi-line) call
        expressions, so an ``ignore[...]`` comment on *any* line of
        ``line``..``end_line`` counts — typically the closing-paren
        line where black puts trailing comments.
        """
        if self.skip_file:
            return True
        rule = finding.rule_id.upper()
        for line in range(finding.line, finding.end_line + 1):
            ignored = self._ignored.get(line)
            if ignored is not None and ("*" in ignored or rule in ignored):
                return True
        return False
