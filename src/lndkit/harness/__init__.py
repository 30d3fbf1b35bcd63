"""Job parsing, execution, corpus, fiber witnesses, and the CLI."""

from .corpus import (
    CheckResult,
    EntryOutcome,
    corpus_dir,
    corpus_report_text,
    load_corpus,
    run_corpus,
    run_entry,
)
from .fiber import FiberCheck, FiberWitness, check_fiber_witness
from .jobs import CoordWitnessSpec, Expectation, JobSpec, TaskSpec, parse_job
from .randgen import (
    FamilyOutcome,
    random_triangular_lnd,
    run_falling_factorial_family,
    run_groebner_oracle_family,
    run_projection_law_family,
    run_slice_pipeline_family,
)
from .report import Report, TaskResult, validate_report_text
from .runner import TASK_NAMES, run_job

__all__ = [name for name in dir() if not name.startswith("_")]
