"""Command-line interface: run job files, the corpus, and random families.

Exit codes: 0 all pass, 1 verdict or expectation mismatch, 2 input error,
3 internal error (``lndkit run`` only: a task failed an internal invariant,
such as a witness that did not re-verify, or raised an unexpected exception).
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from ..derivation import DEFAULT_NILPOTENCY_BOUND
from ..errors import JobParseError, LndkitError
from .corpus import corpus_report_text, run_corpus
from .jobs import parse_job
from .report import Report, TaskResult, validate_report_text
from .runner import _FAMILIES, run_job


@click.group()
def main():
    """Exact verification jobs for locally nilpotent derivations."""


@main.command("run")
@click.argument("job_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), default=None,
              help="Write the report here instead of stdout.")
@click.option("--bound", type=int, default=None,
              help="Override the bound of every task that does not set one.")
@click.option("--seed", type=int, default=None, help="Override the job seed.")
@click.option("--nilpotency-bound", type=int, default=DEFAULT_NILPOTENCY_BOUND,
              show_default=True, help="Iteration bound for nilpotency certification.")
def run_command(job_file: Path, out: Path | None, bound: int | None, seed: int | None,
                nilpotency_bound: int):
    """Run a job file and emit its report."""
    try:
        spec = parse_job(job_file.read_text())
    except JobParseError as exc:
        click.echo(f"error: {job_file}: {exc}", err=True)
        sys.exit(2)
    report = run_job(spec, nilpotency_bound=nilpotency_bound, bound_override=bound,
                     seed_override=seed)
    text = report.to_text()
    problems = validate_report_text(text)
    if problems:
        click.echo("error: report failed schema validation:", err=True)
        for p in problems:
            click.echo(f"  {p}", err=True)
        sys.exit(2)
    destination = out or (Path(spec.output) if spec.output else None)
    if destination:
        destination.write_text(text)
        click.echo(f"report written to {destination}")
    else:
        click.echo(text, nl=False)
    if report.has_internal_error:
        sys.exit(3)
    sys.exit(0 if report.all_ok else 1)


@main.command("corpus")
@click.option("--filter", "filter_tag", default=None, help="Only entries whose tag or name matches.")
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), default=None)
def corpus_command(filter_tag: str | None, out: Path | None):
    """Run the shipped corpus (or LNDKIT_CORPUS_DIR) and compare expectations."""
    try:
        outcomes = run_corpus(filter_tag)
    except LndkitError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    text = corpus_report_text(outcomes)
    if out:
        out.write_text(text)
        click.echo(f"report written to {out}")
    else:
        click.echo(text, nl=False)
    sys.exit(0 if all(o.passed for o in outcomes) else 1)


@main.command("random")
@click.option("--family", required=True, type=click.Choice(sorted(_FAMILIES)),
              help="Which randomized property family to run.")
@click.option("--count", type=int, default=20, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--bound", type=int, default=8, show_default=True)
def random_command(family: str, count: int, seed: int, bound: int):
    """Run a seeded randomized property family and report pass/fail."""
    outcome = _FAMILIES[family](seed, count, bound)
    report = Report(f"random-{family}", seed)
    result = TaskResult(1, "random_family")
    result.params = [("count", str(count)), ("family", family), ("seed", str(seed))]
    result.verdict = "pass" if outcome.ok else "fail"
    result.values = [("count", str(outcome.count)), ("failures", str(len(outcome.failures)))]
    result.notes = outcome.failures[:10]
    report.tasks.append(result)
    click.echo(report.to_text(), nl=False)
    sys.exit(0 if outcome.ok else 1)


if __name__ == "__main__":
    main()
