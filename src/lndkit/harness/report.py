"""Structured line-oriented reports with a shipped, machine-checked schema.

Every witness a task produces is embedded in the report, so a third party
can re-verify all identities with nothing but a polynomial evaluator.
Reports are deterministic for a fixed job and seed; ``comparable_text``
strips the timing lines that are allowed to differ.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from types import MappingProxyType
from typing import Mapping

REPORT_VERSION = 1
SCHEMA_RESOURCE = "report-schema.txt"


@dataclass
class TaskResult:
    index: int
    name: str
    params: list[tuple[str, str]] = field(default_factory=list)
    verdict: str | None = None
    values: list[tuple[str, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    error: str | None = None
    internal: bool = False  # the error is a failed internal invariant, not bad input
    elapsed_ms: float = 0.0
    payload: object | None = None  # for downstream tasks; never serialized

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class Report:
    job: str
    seed: int
    notes: list[str] = field(default_factory=list)
    tasks: list[TaskResult] = field(default_factory=list)

    def to_text(self, include_timing: bool = True) -> str:
        lines = [f"lndkit-report {REPORT_VERSION}", f"job {self.job}", f"seed {self.seed}"]
        for note in self.notes:
            lines.append(f"note {note}")
        ok = 0
        for task in self.tasks:
            lines.append(f"task {task.index} {task.name}")
            for k, v in task.params:
                lines.append(f"param {k} {v}")
            if task.verdict is not None:
                lines.append(f"verdict {task.verdict}")
            for k, v in task.values:
                lines.append(f"value {k} {v}")
            for note in task.notes:
                lines.append(f"note {note}")
            if task.error is not None:
                lines.append(f"error {task.error}")
            if include_timing:
                lines.append(f"time-ms {task.elapsed_ms:.3f}")
            lines.append("end task")
            ok += task.ok
        lines.append(f"summary tasks {len(self.tasks)} ok {ok} failed {len(self.tasks) - ok}")
        lines.append("end report")
        return "\n".join(lines) + "\n"

    def comparable_text(self) -> str:
        return self.to_text(include_timing=False)

    @property
    def all_ok(self) -> bool:
        return all(t.ok for t in self.tasks)

    @property
    def has_internal_error(self) -> bool:
        return any(t.internal for t in self.tasks)

    def task_value(self, index: int, key: str) -> str | None:
        for task in self.tasks:
            if task.index == index:
                for k, v in task.values:
                    if k == key:
                        return v
        return None


# -- schema validation --------------------------------------------------------

_KIND_RE = {
    "int": re.compile(r"[+-]?\d+\Z"),
    "float": re.compile(r"[+-]?\d+(\.\d+)?\Z"),
    "word": re.compile(r"\S+\Z"),
    "key": re.compile(r"[A-Za-z0-9_\-]+(\.[A-Za-z0-9_\-]+)*\Z"),
}


@cache
def load_schema() -> Mapping[str, tuple[tuple[str, ...], ...]]:
    """Parse the shipped schema file into first-token -> field-kind lists.

    Read once per process; the result is read-only, since it is shared.
    """
    text = resources.files("lndkit.data").joinpath(SCHEMA_RESOURCE).read_text()
    patterns: dict[str, list[tuple[str, ...]]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "line":
            continue
        head = parts[1]
        kinds = []
        for tok in parts[2:]:
            if tok.startswith("<") and tok.endswith(">"):
                kinds.append(tok[1:-1])
            else:
                kinds.append(f"={tok}")
        patterns.setdefault(head, []).append(tuple(kinds))
    return MappingProxyType({head: tuple(options) for head, options in patterns.items()})


def validate_report_text(text: str) -> list[str]:
    """Check a report against the shipped schema; returns a list of problems."""
    patterns = load_schema()
    problems: list[str] = []
    lines = text.splitlines()
    if not lines:
        return ["empty report"]

    def line_ok(line: str) -> bool:
        parts = line.split()
        if not parts:
            return False
        options = patterns.get(parts[0])
        if options is None:
            return False
        rest = parts[1:]
        for kinds in options:
            if kinds and kinds[-1] == "text":
                if len(rest) < len(kinds) - 1:
                    continue
            elif len(rest) != len(kinds):
                continue
            good = True
            for i, kind in enumerate(kinds):
                if kind == "text":
                    break
                tok = rest[i] if i < len(rest) else ""
                if kind.startswith("="):
                    if tok != kind[1:]:
                        good = False
                        break
                elif not _KIND_RE[kind].match(tok):
                    good = False
                    break
            if good:
                return True
        return False

    for n, line in enumerate(lines, start=1):
        if not line_ok(line):
            problems.append(f"line {n}: no schema pattern matches {line!r}")

    # structural checks
    if not lines[0].startswith("lndkit-report "):
        problems.append("line 1: report must open with the version line")
    if not lines or lines[-1] != "end report":
        problems.append("report must close with 'end report'")
    depth = 0
    verdict_line = error_line = None
    for n, line in enumerate(lines, start=1):
        if line.startswith("task "):
            if depth:
                problems.append(f"line {n}: nested task block")
            depth += 1
            verdict_line = error_line = None
        elif line == "end task":
            if not depth:
                problems.append(f"line {n}: 'end task' outside a task block")
            depth = max(0, depth - 1)
        elif depth and line.startswith("verdict "):
            verdict_line = n
        elif depth and line.startswith("error "):
            error_line = n
        if verdict_line is not None and error_line is not None:
            problems.append(
                f"line {error_line}: task block has both a verdict (line {verdict_line}) and an error"
            )
            verdict_line = error_line = None
    if depth:
        problems.append("unterminated task block")
    return problems
