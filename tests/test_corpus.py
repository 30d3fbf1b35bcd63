"""The shipped corpus must pass in full, deterministically, in any order."""

import pytest
from click.testing import CliRunner

from lndkit.harness import (
    corpus_report_text,
    load_corpus,
    run_corpus,
    run_entry,
    validate_report_text,
)
from lndkit.harness import corpus
from lndkit.harness.cli import main as cli_main


@pytest.fixture(scope="module")
def corpus_outcomes():
    return run_corpus()


def test_every_entry_passes(corpus_outcomes):
    report = corpus_report_text(corpus_outcomes)
    failing = [o.identifier for o in corpus_outcomes if not o.passed]
    assert not failing, report
    assert len(corpus_outcomes) >= 30


def test_every_entry_report_passes_the_schema(corpus_outcomes):
    problems = {o.identifier: found for o in corpus_outcomes
                if (found := validate_report_text(o.report.to_text()))}
    assert not problems


def test_an_entry_whose_report_fails_the_schema_fails(monkeypatch):
    monkeypatch.setattr(corpus, "validate_report_text", lambda text: ["line 3: forced problem"])
    outcomes = run_corpus(filter_tag="a2-pair")
    assert outcomes and not any(o.passed for o in outcomes)
    assert all(o.report.all_ok and all(c.ok for c in o.checks) for o in outcomes)  # only the schema failed
    assert "  schema-error line 3: forced problem" in corpus_report_text(outcomes).splitlines()

    result = CliRunner().invoke(cli_main, ["corpus", "--filter", "a2-pair"])
    assert result.exit_code == 1
    assert "schema-error line 3: forced problem" in result.output


def test_every_expected_value_carries_provenance():
    for _, spec in load_corpus():
        for task in spec.tasks:
            for exp in task.expectations:
                assert exp.provenance in ("trivial", "derived", "external")


def test_golden_parse_of_the_cusp_base_entry():
    (_, spec), = [(p, s) for p, s in load_corpus() if s.name == "asanuma-bhatwadekar"]
    assert spec.context.coeff_vars == ("X",)
    assert spec.context.main_vars == ("V", "W")
    assert [str(g) for g in spec.subalgebra.base_generators] == ["X^2", "X^3"]
    assert len(spec.subalgebra.algebra_generators) == 8
    assert str(spec.subalgebra.algebra_generators[1]) == "X*V^2*W^2 + W"
    assert [t.name for t in spec.tasks] == [
        "complementary_lnd", "closure", "kernel_up_to_degree", "subalgebra_fpf", "fiber",
    ]
    assert len(spec.tasks[0].coord_witnesses) == 8
    assert all(t.expectations for t in spec.tasks)


def test_parallel_matches_serial():
    serial = corpus_report_text(run_corpus(filter_tag="a1-proportionality", parallelism=1))
    parallel = corpus_report_text(run_corpus(filter_tag="a1-proportionality", parallelism=4))
    assert serial == parallel


def test_filtering():
    outcomes = run_corpus(filter_tag="cusp-base")
    assert [o.identifier for o in outcomes] == ["asanuma-bhatwadekar"]
    assert outcomes[0].passed


def test_entry_reports_are_deterministic():
    (path, spec), = [(p, s) for p, s in load_corpus() if s.name == "worked-t-slice"]
    a = run_entry(spec, path).report.comparable_text()
    b = run_entry(spec, path).report.comparable_text()
    assert a == b


def test_kernel_inertness_spot_check_on_corpus():
    """Whenever a product of spanning elements lands in the bounded kernel,
    both factors already lie in it (checked exhaustively over the spanning
    products at degree bound 6, per corpus entry with a kernel task)."""
    from lndkit import GeneratorSpan
    from lndkit.linalg import RowSpace, vec_of

    (path, spec), = [(p, s) for p, s in load_corpus() if s.name == "asanuma-bhatwadekar"]
    outcome = run_entry(spec, path)
    comp = [t for t in outcome.report.tasks if t.name == "complementary_lnd"][0]
    kernel = comp.payload.kernel_basis
    kspan = RowSpace()
    for f in kernel:
        kspan.insert(vec_of(f), str(f))
    span = GeneratorSpan(spec.subalgebra, 6)
    elements = [poly for _, poly in span.products if not poly.is_constant()]
    checked = 0
    for i, f in enumerate(elements):
        for g in elements[i:]:
            if kspan.contains(vec_of(f * g)):
                checked += 1
                assert kspan.contains(vec_of(f)), (f, g)
                assert kspan.contains(vec_of(g)), (f, g)
    assert checked > 0
