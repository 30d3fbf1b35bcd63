"""The shipped verification corpus: load entries, run them, compare outcomes.

Every corpus entry is a job file whose tasks carry ``expect`` records with
provenance tags.  Entries run independently and the aggregate is
deterministic: results are ordered by entry identifier.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from ..errors import JobParseError, LndkitError
from ..parse import parse_polynomial
from .jobs import Expectation, JobSpec, parse_job
from .report import Report, validate_report_text
from .runner import run_job

ENV_CORPUS_DIR = "LNDKIT_CORPUS_DIR"


def corpus_dir() -> Path:
    override = os.environ.get(ENV_CORPUS_DIR)
    if override:
        return Path(override)
    return Path(str(resources.files("lndkit.data").joinpath("corpus")))


def load_corpus(directory: Path | None = None) -> list[tuple[Path, JobSpec]]:
    directory = directory or corpus_dir()
    if not directory.is_dir():
        raise LndkitError(f"corpus directory {directory} does not exist")
    entries = []
    for path in sorted(directory.glob("*.job")):
        try:
            entries.append((path, parse_job(path.read_text())))
        except JobParseError as exc:
            raise LndkitError(f"{path.name}: {exc}") from None
    if not entries:
        raise LndkitError(f"no corpus entries found in {directory}")
    return entries


@dataclass(frozen=True)
class CheckResult:
    task_index: int
    key: str
    expected: str
    actual: str | None
    kind: str
    provenance: str
    ok: bool


@dataclass
class EntryOutcome:
    identifier: str
    path: str
    report: Report
    checks: list[CheckResult] = field(default_factory=list)
    schema_problems: list[str] = field(default_factory=list)  # filled in by run_corpus

    @property
    def passed(self) -> bool:
        return self.report.all_ok and all(c.ok for c in self.checks) and not self.schema_problems


def _compare(expected: Expectation, actual: str | None, spec: JobSpec) -> bool:
    if actual is None:
        return False
    if expected.kind == "poly":
        try:
            lhs = parse_polynomial(expected.value, spec.context)
            rhs = parse_polynomial(actual, spec.context)
        except LndkitError:
            return False
        return lhs == rhs
    if expected.kind == "int":
        try:
            return int(expected.value) == int(actual)
        except ValueError:
            return False
    return expected.value == actual


def run_entry(spec: JobSpec, path: Path | None = None) -> EntryOutcome:
    report = run_job(spec)
    outcome = EntryOutcome(spec.name, str(path) if path else "<memory>", report)
    for index, task in enumerate(spec.tasks, start=1):
        for exp in task.expectations:
            if exp.key == "verdict":
                actual = report.tasks[index - 1].verdict
            else:
                actual = report.task_value(index, exp.key)
            outcome.checks.append(
                CheckResult(
                    index,
                    exp.key,
                    exp.value,
                    actual,
                    exp.kind,
                    exp.provenance,
                    _compare(exp, actual, spec),
                )
            )
    return outcome


def run_corpus(
    filter_tag: str | None = None,
    directory: Path | None = None,
) -> list[EntryOutcome]:
    """Run every (matching) corpus entry; outcomes sorted by identifier.

    Each entry's report is also validated against the schema; an entry
    whose report fails it does not pass.
    """
    entries = load_corpus(directory)
    if filter_tag:
        entries = [
            (p, s)
            for p, s in entries
            if filter_tag in s.tags or filter_tag in s.name
        ]
        if not entries:
            raise LndkitError(f"no corpus entries match {filter_tag!r}")
    outcomes = []
    for path, spec in entries:
        try:
            outcome = run_entry(spec, path)
        except JobParseError as exc:  # a bound only the run could have given
            raise LndkitError(f"{path.name}: {exc}") from None
        outcome.schema_problems = validate_report_text(outcome.report.to_text())
        outcomes.append(outcome)
    return sorted(outcomes, key=lambda o: o.identifier)


def corpus_report_text(outcomes: list[EntryOutcome]) -> str:
    lines = ["lndkit-corpus-report 1", f"entries {len(outcomes)}"]
    passed = 0
    for o in outcomes:
        status = "pass" if o.passed else "fail"
        passed += o.passed
        lines.append(
            f"entry {o.identifier} tasks {len(o.report.tasks)} checks {len(o.checks)} status {status}"
        )
        for task in o.report.tasks:
            if task.error is not None:
                lines.append(f"  task-error {task.index} {task.name} {task.error}")
        for problem in o.schema_problems:
            lines.append(f"  schema-error {problem}")
        for c in o.checks:
            if not c.ok:
                lines.append(
                    f"  mismatch task {c.task_index} key {c.key} provenance {c.provenance}"
                )
                lines.append(f"    expected {c.expected}")
                lines.append(f"    actual {c.actual}")
    lines.append(f"summary pass {passed} fail {len(outcomes) - passed}")
    lines.append("end corpus-report")
    return "\n".join(lines) + "\n"
