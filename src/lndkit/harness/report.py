"""Structured line-oriented reports with a shipped, machine-checked schema.

Every witness a task produces is embedded in the report, so a third party
can re-verify all identities with nothing but a polynomial evaluator.
Reports are deterministic for a fixed job and seed; ``comparable_text``
strips the timing lines that are allowed to differ.

``report-schema.txt`` is the one description of a report line:
``load_schema`` compiles its records into one anchored pattern per record
head, and ``validate_report_text`` checks each line with one ``fullmatch``
before the structural checks of the task blocks.
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

# The pattern of each field kind but ``text``, which, last in its record,
# takes the rest of the line.
_KIND_PATTERNS = {
    "int": r"[+-]?\d+",
    "float": r"[+-]?\d+(?:\.\d+)?",
    "word": r"\S+",
    "key": r"[A-Za-z0-9_\-]+(?:\.[A-Za-z0-9_\-]+)*",
}


@cache
def load_schema() -> Mapping[str, re.Pattern]:
    """Compile the shipped schema file into one pattern per record head.

    Each ``line <head> <fields>`` record is one alternative of its head's
    pattern: the head, then each field after whitespace, a bare token as a
    literal and a ``<kind>`` as its kind's pattern, and a trailing
    ``<text>`` as an optional tail after whitespace.  Blanks may open and
    close a line.  ``\\s`` is what ``str.split`` splits on, and no field
    pattern takes whitespace, so a field is a whole word of the line.
    Read once per process; the result is read-only, since it is shared.
    """
    text = resources.files("lndkit.data").joinpath(SCHEMA_RESOURCE).read_text()
    alternatives: dict[str, list[str]] = {}
    for raw in text.splitlines():
        parts = raw.split()
        if len(parts) < 2 or parts[0] != "line":
            continue
        head, *fields = parts[1:]
        tail = fields[-1:] == ["<text>"]
        pattern = re.escape(head)
        for tok in fields[:-1] if tail else fields:
            kind = tok[1:-1] if tok.startswith("<") and tok.endswith(">") else None
            pattern += r"\s+" + (_KIND_PATTERNS[kind] if kind else re.escape(tok))
        alternatives.setdefault(head, []).append(pattern + (r"(?:\s.*)?" if tail else ""))
    return MappingProxyType({head: re.compile(r"\s*(?:%s)\s*" % "|".join(alts))
                             for head, alts in alternatives.items()})


def validate_report_text(text: str) -> list[str]:
    """Check a report against the shipped schema; returns a list of problems."""
    schema = load_schema()
    problems: list[str] = []
    lines = text.splitlines()
    if not lines:
        return ["empty report"]

    for n, line in enumerate(lines, start=1):
        head = line.split(maxsplit=1)[:1]
        pattern = schema.get(head[0]) if head else None
        if pattern is None or not pattern.fullmatch(line):
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
