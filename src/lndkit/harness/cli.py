"""Command-line interface: run job files, the corpus, and random families.

Exit codes: 0 all pass, 1 a task verdict ``fail``, a task error or an
expectation mismatch, 2 input error, 3 internal error (``lndkit run``
only: a task raised ``InvariantError``, as a witness that did not
re-verify does, or an unexpected exception).
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from ..derivation import DEFAULT_NILPOTENCY_BOUND, ITERATION_CAP
from ..errors import JobParseError, LndkitError
from .corpus import corpus_report_text, run_corpus
from .jobs import parse_job
from .report import Report, validate_report_text
from .runner import FAMILY, run_job


@click.group()
def main():
    """Exact verification jobs for locally nilpotent derivations."""


@main.command("run")
@click.argument("job_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), default=None,
              help="Write the report here instead of stdout.")
@click.option("--bound", type=click.IntRange(min=1), default=None,
              help="Override the bound of every task that does not set one.")
@click.option("--seed", type=int, default=None, help="Override the job seed.")
@click.option("--nilpotency-bound", type=click.IntRange(1, ITERATION_CAP), show_default=True,
              default=DEFAULT_NILPOTENCY_BOUND, help="Iteration bound for nilpotency certification.")
def run_command(job_file: Path, out: Path | None, bound: int | None, seed: int | None,
                nilpotency_bound: int):
    """Run a job file and emit its report."""
    try:
        spec = parse_job(job_file.read_text())
        report = run_job(spec, nilpotency_bound=nilpotency_bound, bound_override=bound,
                         seed_override=seed)
    except JobParseError as exc:
        click.echo(f"error: {job_file}: {exc}", err=True)
        sys.exit(2)
    _emit(report, out or (Path(spec.output) if spec.output else None))


def _emit(report: Report, destination: Path | None):
    """Validate, write or print the report, and exit with its status: 3 on
    an internal error, 1 on any other task error or a task verdict ``fail``."""
    text = report.to_text()
    problems = validate_report_text(text)
    if problems:
        click.echo("error: report failed schema validation:", err=True)
        for p in problems:
            click.echo(f"  {p}", err=True)
        sys.exit(2)
    if destination:
        destination.write_text(text)
        click.echo(f"report written to {destination}")
    else:
        click.echo(text, nl=False)
    if report.has_internal_error:
        sys.exit(3)
    failed = any(task.verdict == "fail" for task in report.tasks)
    sys.exit(0 if report.all_ok and not failed else 1)


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
@click.option("--family", required=True, type=click.Choice(FAMILY.choices),
              help="Which randomized property family to run.")
@click.option("--count", type=click.IntRange(min=1), default=20, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--bound", type=click.IntRange(min=1), default=8, show_default=True)
def random_command(family: str, count: int, seed: int, bound: int):
    """Run a seeded randomized property family as a one-task job and report
    it; a ``fail`` verdict exits 1."""
    spec = parse_job(f"job random-{family}\nring main: X\nseed: {seed}\n"
                     f"task random_family family={family} count={count} seed={seed} bound={bound}\n")
    report = run_job(spec)
    _emit(report, None)


if __name__ == "__main__":
    main()
