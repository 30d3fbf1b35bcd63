"""Job parsing, report schema, determinism, fiber witnesses, and the CLI."""

import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import lndkit
from lndkit import GroebnerBasis, JobParseError, Polynomial, Subalgebra, VarContext, parse_polynomial
from lndkit.harness import (
    FiberWitness,
    check_fiber_witness,
    parse_job,
    random_triangular_lnd,
    run_job,
    run_slice_pipeline_family,
    validate_report_text,
)
from lndkit.harness.cli import main as cli_main
from lndkit import find_slice, is_fixed_point_free, is_triangular
from lndkit.polynomial import PAIR_BUDGET, TERM_BUDGET

from helpers import (
    reference_random_triangular_lnd,
    reference_schema,
    reference_slice_pipeline_family,
    reference_validate_report_text,
)

MINIMAL = """
job minimal
ring coeff: t
ring main: X, Y
base: full
algebra: full
derivation D: X: 0, Y: 1
task find_slice derivation=D bound=1
"""


def test_parse_minimal_job():
    spec = parse_job(MINIMAL)
    assert spec.name == "minimal"
    assert spec.context == VarContext(("t",), ("X", "Y"))
    assert spec.subalgebra.full_ring
    assert list(spec.derivations) == ["D"]
    assert spec.tasks[0].name == "find_slice"
    assert spec.tasks[0].params == {"derivation": "D", "bound": "1"}


def test_parse_unknown_variable_diagnostic():
    bad = MINIMAL.replace("Y: 1", "Y: Z + 1")
    with pytest.raises(JobParseError) as err:
        parse_job(bad)
    assert "Z" in str(err.value)
    assert err.value.line == 7


def test_parse_dangling_derivation_reference():
    bad = MINIMAL.replace("derivation=D", "derivation=E")
    with pytest.raises(JobParseError) as err:
        parse_job(bad)
    assert "E" in str(err.value)


def test_parse_expect_requires_provenance():
    bad = MINIMAL + '  expect verdict=slice\n'
    with pytest.raises(JobParseError):
        parse_job(bad)


def test_jobspec_roundtrip():
    """The same job in other spacing and quoting parses to an equal spec,
    and a value that holds double quotes keeps them."""
    text = MINIMAL + """  expect note='say "1"' provenance=trivial\n"""
    variant = """
  job   minimal
ring coeff:  t
ring main: X,Y
base : full
algebra: full
derivation D :X: 0,Y:1
task find_slice bound='1' "derivation=D"
expect "note=say \\"1\\"" provenance='trivial'
"""
    spec = parse_job(text)
    assert parse_job(variant) == spec
    assert spec.tasks[0].expectations[0].value == 'say "1"'
    assert parse_job(MINIMAL) != spec


def test_corpus_files_roundtrip():
    """Every corpus job, and one without base generators, parses to an
    equal spec when each record is indented and the words of each task,
    coordw and expect record are re-quoted by ``shlex.join``."""
    import shlex

    from lndkit.harness import corpus_dir

    def requoted(line: str) -> str:
        head, _, rest = line.strip().partition(" ")
        if head == "task":
            operation, _, rest = rest.partition(" ")
            head = f"task {operation}"
        elif head not in ("coordw", "expect"):
            return f"  {line}"
        return f"  {head} {shlex.join(shlex.split(rest))}"

    texts = {path.name: path.read_text() for path in sorted(Path(corpus_dir()).glob("*.job"))}
    texts["empty-base"] = "job j\nring main: X, Y\nalgebra: X^2; Y\n"
    for name, text in texts.items():
        variant = "\n".join(requoted(line) if line.strip() else line for line in text.splitlines())
        assert parse_job(variant) == parse_job(text), name


def test_run_job_deterministic():
    spec = parse_job(MINIMAL)
    first = run_job(spec).comparable_text()
    second = run_job(spec).comparable_text()
    assert first == second


def test_report_validates_against_schema():
    report = run_job(parse_job(MINIMAL))
    assert validate_report_text(report.to_text()) == []
    assert validate_report_text(report.comparable_text()) == []
    assert report.task_value(1, "slice") == "Y"


def test_schema_is_read_once(monkeypatch):
    from types import SimpleNamespace

    from lndkit.harness import report as report_module

    reads = []
    real_files = report_module.resources.files

    def files(package):
        reads.append(package)
        return real_files(package)

    text = run_job(parse_job(MINIMAL)).to_text()
    report_module.load_schema.cache_clear()
    monkeypatch.setattr(report_module, "resources", SimpleNamespace(files=files))
    assert validate_report_text(text) == []
    assert validate_report_text(text) == []
    assert reads == ["lndkit.data"]
    schema = report_module.load_schema()
    with pytest.raises(TypeError):
        schema["bogus"] = ()
    assert all(isinstance(pattern, re.Pattern) for pattern in schema.values())


def test_schema_rejects_malformed_reports():
    report = run_job(parse_job(MINIMAL)).to_text()
    assert validate_report_text(report.replace("lndkit-report 1", "bogus 1"))
    assert validate_report_text(report.replace("end report", "end"))
    assert validate_report_text(report + "junk line that matches nothing\n")


# Samples of each field kind of the schema, near misses of each among them.
_FIELD_SAMPLES = {
    "int": ["0", "7", "-3", "+12", "١٢", "1_0"],
    "float": ["1.5", "-0.25", "+3.0", "2.", ".5", "1.2.3", "1e3"],
    "word": ["slice", "x=y", "é", "#", "+", "report"],
    "key": ["witness.1", "a.b-c_d", "a..b", "a.", ".a", "kéy"],
    "text": ["free text", "", "a\tb"],
}
_ALL_SAMPLES = sorted({w for samples in _FIELD_SAMPLES.values() for w in samples if w})
_ANY_FIELD = st.sampled_from(_ALL_SAMPLES)
# Blanks between and around words, with whitespace other than a space that ``str.split`` splits on.
_REPORT_BLANKS = st.sampled_from(["", " ", "  ", "\t", "\x1c", "\x1f", "\u3000", "\u00a0", " \t "])


@st.composite
def _report_line(draw) -> str:
    """A record of the schema with each field drawn from its kind's samples
    or any kind's, a word maybe dropped or added, and drawn blanks."""
    schema = reference_schema()
    head = draw(st.sampled_from(sorted(schema)))
    words = [head]
    for kind in draw(st.sampled_from(schema[head])):
        own = [kind[1:], kind[1:] + "s"] if kind.startswith("=") else _FIELD_SAMPLES[kind]
        words.append(draw(st.sampled_from(own) | _ANY_FIELD))
    edit = draw(st.sampled_from(["keep", "drop", "add"]))
    i = draw(st.integers(0, len(words) - 1))
    if edit == "drop":
        del words[i]
    elif edit == "add":
        words.insert(i + 1, draw(_ANY_FIELD))
    words = [w for w in words if w]
    seps = [draw(_REPORT_BLANKS.filter(bool)) for _ in words[1:]]
    body = "".join(sep + word for sep, word in zip(["", *seps], words))
    return draw(_REPORT_BLANKS) + body + draw(_REPORT_BLANKS)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(_report_line(), min_size=0, max_size=6), st.sampled_from(["\n", "\r\n", "\x1e"]))
def test_report_validation_matches_the_word_by_word_matcher(lines, newline):
    """The compiled schema patterns find the problems, in the same order
    and words, that matching each word by its field kind found."""
    for text in (newline.join(lines), newline.join(["lndkit-report 1", *lines, "end report"])):
        assert validate_report_text(text) == reference_validate_report_text(text)


def test_every_field_sample_in_every_record_validates_as_the_word_by_word_matcher():
    """Each record of the schema with its own samples, and with any one field
    swapped for each sample of every kind."""
    for head, options in reference_schema().items():
        for kinds in options:
            words = [head, *(k[1:] if k.startswith("=") else _FIELD_SAMPLES[k][0] for k in kinds)]
            for i in range(1, len(words)):
                for sample in _ALL_SAMPLES:
                    line = " ".join(words[:i] + [sample] + words[i + 1:])
                    assert validate_report_text(line) == reference_validate_report_text(line), line


def test_bound_and_seed_overrides():
    text = MINIMAL.replace(" bound=1", "")
    spec = parse_job(text)
    report = run_job(spec, bound_override=2, seed_override=42)
    assert report.seed == 42
    assert report.tasks[0].verdict == "slice"
    assert ("bound", "2") not in report.tasks[0].params  # override, not a param


def test_bound_override_fills_the_bound_of_verify_slice_theorem():
    text = MINIMAL.replace("X: 0, Y: 1", "X: t, Y: 1 - t^2*X").replace(
        "task find_slice derivation=D bound=1", 'task verify_slice_theorem derivation=D slice="Y + 1/2*t*X^2"')
    spec = parse_job(text)
    assert run_job(spec).task_value(1, "bound") == "9"  # the computed bound
    assert run_job(spec, bound_override=10).task_value(1, "bound") == "10"
    assert run_job(spec, bound_override=2).tasks[0].verdict == "incomplete"
    assert run_job(parse_job(text.replace('"Y + 1/2*t*X^2"', '"Y + 1/2*t*X^2" bound=10')),
                   bound_override=2).task_value(1, "bound") == "10"  # a set bound wins


def test_verify_slice_theorem_without_a_slice_searches_one():
    """Without ``slice=`` the task searches a slice up to ``slice_bound``
    first: the worked derivation gets its certificate, and a derivation
    that fixes the origin has no slice to certify."""
    text = MINIMAL.replace("X: 0, Y: 1", "X: t, Y: 1 - t^2*X").replace(
        "task find_slice derivation=D bound=1", "task verify_slice_theorem derivation=D")
    spec = parse_job(text)
    report = run_job(spec)
    assert report.tasks[0].verdict == "certificate"
    assert parse_polynomial(report.task_value(1, "slice"), spec.context) == parse_polynomial(
        "Y + 1/2*t*X^2", spec.context)
    assert report.task_value(1, "bound") == "9"
    fixed = run_job(parse_job(text.replace("X: t, Y: 1 - t^2*X", "X: t, Y: X")))
    assert fixed.tasks[0].verdict == "none-up-to-bound"
    assert fixed.tasks[0].values == []


def test_task_errors_do_not_abort():
    text = MINIMAL + "task dixmier derivation=D slice=\"X\" arg=\"Y\"\n"
    report = run_job(parse_job(text))
    assert report.tasks[0].ok
    assert not report.tasks[1].ok
    assert "slice" in report.tasks[1].error


INTERNAL = MINIMAL + """task ideal_member target="1" gens="X; 1 - X"
task find_slice derivation=D bound=1
"""


def _fail_verify(self):
    raise AssertionError("forced re-verification failure")


def test_failed_invariant_is_an_internal_task_error(tmp_path, monkeypatch):
    monkeypatch.setattr(GroebnerBasis, "verify", _fail_verify)
    report = run_job(parse_job(INTERNAL))
    member = report.tasks[1]
    assert member.internal and member.verdict is None and member.values == []
    assert report.tasks[2].ok and report.tasks[2].verdict == "slice"  # the job went on
    assert report.has_internal_error and not report.tasks[0].internal
    text = report.to_text()
    assert "error internal: forced re-verification failure" in text.splitlines()
    assert validate_report_text(text) == []

    job = tmp_path / "internal.job"
    job.write_text(INTERNAL)
    result = CliRunner().invoke(cli_main, ["run", str(job)])
    assert result.exit_code == 3
    assert "error internal: forced re-verification failure" in result.output


def test_internal_error_clears_the_task_output(monkeypatch):
    from lndkit.harness import runner

    def half_done(spec, out, **args):
        out.verdict = "yes"
        out.values.append(("cofactor.1", "1"))
        out.notes.append("unverified")
        out.payload = object()
        raise AssertionError()

    monkeypatch.setitem(runner.TASKS, "find_slice", replace(runner.TASKS["find_slice"], handler=half_done))
    task = run_job(parse_job(MINIMAL)).tasks[0]
    assert task.error == "internal: AssertionError"
    assert (task.verdict, task.values, task.notes, task.payload) == (None, [], [], None)


DIXMIER_NO_SLICE = """
job dixmier-no-slice
ring main: X, Y
base: full
algebra: full
derivation D: X: X, Y: 1
task dixmier derivation=D slice="Y" arg="X"
task find_slice derivation=D bound=1
"""


def test_a_failed_projection_reports_no_verdict():
    report = run_job(parse_job(DIXMIER_NO_SLICE))
    task = report.tasks[0]
    assert task.error == "derivation iterates of X did not vanish within 4096 steps"
    assert (task.verdict, task.values, task.notes, task.payload) == (None, [], [], None)
    assert report.tasks[1].ok  # the job went on
    text = report.to_text()
    assert "verdict ok" not in text.splitlines()
    assert validate_report_text(text) == []


def test_schema_rejects_a_verdict_beside_an_error():
    text = run_job(parse_job(MINIMAL)).to_text()
    assert validate_report_text(text) == []
    bad = text.replace("end task", "error forced\nend task")
    problems = validate_report_text(bad)
    assert len(problems) == 1 and "both a verdict" in problems[0]


@pytest.mark.parametrize("exc", [ZeroDivisionError("division by zero"), TypeError("bad operand"),
                                 RecursionError("maximum recursion depth exceeded")],
                         ids=lambda e: type(e).__name__)
def test_an_escaping_exception_is_an_internal_task_error(tmp_path, monkeypatch, exc):
    from lndkit.harness import runner

    def broken(spec, out, **args):
        out.verdict = "yes"
        out.values.append(("cofactor.1", "1"))
        raise exc

    monkeypatch.setitem(runner.TASKS, "ideal_member", replace(runner.TASKS["ideal_member"], handler=broken))
    report = run_job(parse_job(INTERNAL))
    member = report.tasks[1]
    assert member.error == f"internal: {type(exc).__name__}: {exc}"
    assert member.internal and (member.verdict, member.values) == (None, [])
    assert report.tasks[2].ok and report.tasks[2].verdict == "slice"  # the job went on
    assert validate_report_text(report.to_text()) == []

    job = tmp_path / "broken.job"
    job.write_text(INTERNAL)
    result = CliRunner().invoke(cli_main, ["run", str(job)])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)  # no traceback escaped
    assert f"error internal: {type(exc).__name__}: {exc}" in result.output.splitlines()


def test_fiber_point_with_zero_denominator_is_a_task_error(tmp_path):
    from lndkit.harness import corpus_dir

    text = (Path(corpus_dir()) / "worked-t-slice.job").read_text()
    assert 'point="t=0"' in text
    job = tmp_path / "zero-denominator.job"
    job.write_text(text.replace('point="t=0"', 'point="t=1/0"')
                   + 'task apply derivation=D poly="X"\n')
    result = CliRunner().invoke(cli_main, ["run", str(job)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no traceback escaped
    lines = result.output.splitlines()
    assert "error fiber point value '1/0' for 't' has a zero denominator" in lines
    assert "value image t" in lines[lines.index("task 14 apply"):]  # the later task ran
    assert "summary tasks 14 ok 13 failed 1" in lines


ILL_DEFINED = """job illdef
ring main: X, Y
base:
algebra: X; X^2; Y
derivation E gens: Y, 1, 0
derivation F gens: 1, 0, 0
derivation G gens: 1, 2*X, X
task find_slice derivation=E bound=3
task kernel_up_to_degree derivation=F bound=3
task find_slice derivation=G bound=3
task kernel_up_to_degree derivation=G bound=3
"""


def test_generator_images_that_define_no_derivation_are_a_user_error(tmp_path):
    """D(X) = Y (or 1) with D(X^2) = 1 (or 0) breaks X * X == X^2: both
    tasks are refused as input, naming the product, and the run exits 1;
    the consistent images of G keep their slice and kernel."""
    job = tmp_path / "illdef.job"
    job.write_text(ILL_DEFINED)
    result = CliRunner().invoke(cli_main, ["run", str(job)])
    assert result.exit_code == 1
    lines = result.output.splitlines()
    refusal = ("error the derivation's images break the relation of the generator product X^2: "
               "it is no derivation of the subalgebra")
    assert lines.count(refusal) == 2
    assert "error internal" not in result.output and "value slice X^2" not in lines
    assert "value slice X" in lines
    assert ["value basis.1 X^2 - 2*Y", "value basis.2 1"] == [line for line in lines if "basis." in line]


CUSP_FPF = """job cuspfpf
ring main: X
base:
algebra: X^2; X^3
derivation E gens: 1, 0
task subalgebra_fpf derivation=E bound={bound}
"""


@pytest.mark.parametrize("bound,line,code", [
    (5, "value cofactor.1 1", 0),
    (6, "error the derivation's images break the relation of the generator product X^6: "
        "it is no derivation of the subalgebra", 1),
])
def test_fpf_job_refuses_images_that_break_a_relation_at_its_bound(tmp_path, bound, line, code):
    """D(X^2) = 1 and D(X^3) = 0 break (X^2)^3 == (X^3)^2 of formal degree
    6: bound 5 finds the cofactors, bound 6 refuses the images as input."""
    job = tmp_path / "cusp.job"
    job.write_text(CUSP_FPF.format(bound=bound))
    result = CliRunner().invoke(cli_main, ["run", str(job)])
    lines = result.output.splitlines()
    assert line in lines and result.exit_code == code
    assert ("verdict yes" in lines) == (bound == 5) and "error internal" not in result.output


def test_random_triangular_deterministic():
    a = random_triangular_lnd(1)
    b = random_triangular_lnd(1)
    assert a == b


def test_random_triangular_fpf_verified():
    for seed in range(5):
        d = random_triangular_lnd(seed)
        assert is_triangular(d) is not None
        assert is_fixed_point_free(d) is not None


def test_random_triangular_nonfpf_proper_ideal():
    for seed in range(5):
        d = random_triangular_lnd(seed, fpf=False)
        assert is_triangular(d) is not None
        assert is_fixed_point_free(d) is None


@pytest.mark.parametrize("fpf", [True, False])
def test_random_triangular_matches_the_groebner_checked_generator(fpf):
    """The planted certificates give the images of the generator that
    re-decided every draw by a Groebner basis, on seeds 1 to 1000."""
    for seed in range(1, 1001):
        assert random_triangular_lnd(seed, fpf).images == reference_random_triangular_lnd(seed, fpf).images


def _record_calls(monkeypatch, home, names) -> list[str]:
    """The names of the functions ``names`` of the module ``home`` as they
    are called, through every lndkit module's binding of them."""
    calls = []
    for name in names:
        real = getattr(home, name)

        def record(*args, real=real, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)

        for module in [m for key, m in sys.modules.items() if key.startswith("lndkit")]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, record)
    return calls


def test_random_triangular_builds_no_groebner_basis(monkeypatch):
    """The generator checks its planted certificate: no module's binding of
    ``buchberger`` or ``ideal_member`` is called."""
    from lndkit import groebner

    calls = _record_calls(monkeypatch, groebner, ("buchberger", "ideal_member"))
    for seed in range(20):
        random_triangular_lnd(seed, fpf=True)
        random_triangular_lnd(seed, fpf=False)
    assert calls == []


@pytest.mark.parametrize("bound", [8, 2])
def test_slice_pipeline_matches_the_groebner_first_family(bound):
    """Cofactors from the slice give the outcome of the family that decided
    fixed-point-freeness by a Groebner basis first, on seeds 1 to 300; at
    bound 2 some seeds miss, with the same labels."""
    assert run_slice_pipeline_family(1, 300, bound) == reference_slice_pipeline_family(1, 300, bound)


def test_passing_slice_pipeline_builds_no_groebner_basis(monkeypatch):
    """On seeds 1 to 200 every slice is found, so fixed-point-freeness is
    never decided by a Groebner basis."""
    from lndkit import derivation, groebner

    calls = _record_calls(monkeypatch, derivation, ("is_fixed_point_free",))
    calls += _record_calls(monkeypatch, groebner, ("buchberger",))
    outcome = run_slice_pipeline_family(1, 200)
    assert outcome.ok and outcome.count == 200
    assert calls == []


@settings(max_examples=600, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_slice_partials_are_fixed_point_free_cofactors(seed):
    """The chain rule: D(s) == 1 gives 1 == sum_x ds/dx * D(x)."""
    d = random_triangular_lnd(seed)
    ctx = d.context
    s = find_slice(d, Subalgebra.full(ctx), 8)
    assert s is not None
    pairs = [(s.partial_derivative(x), d.images[x]) for x in ctx.main_vars]
    assert Polynomial.combine(ctx, pairs) == Polynomial.one(ctx)


@pytest.mark.parametrize("fpf", [True, False])
def test_a_slice_miss_is_told_apart_by_the_groebner_decision(fpf, monkeypatch):
    """With the slice search made to miss, a fixed-point-free seed is a
    bounded miss and a derivation that is not fixed point free is reported
    as such."""
    from lndkit.harness import randgen

    monkeypatch.setattr(randgen, "find_slice", lambda d, S, bound: None)
    monkeypatch.setattr(randgen, "random_triangular_lnd", lambda seed: random_triangular_lnd(seed, fpf))
    outcome = run_slice_pipeline_family(5, 1)
    reason = "[no slice up to bound 8]" if fpf else "[not fixed point free]"
    assert len(outcome.failures) == 1 and outcome.failures[0].endswith(reason)


def test_fiber_witness_full_plane():
    ctx = VarContext(("t",), ("X", "Y"))
    S = Subalgebra.full(ctx)
    w = FiberWitness(
        {"t": Fraction(0)},
        (Polynomial.variable(ctx, "X"), Polynomial.variable(ctx, "Y")),
        2,
    )
    assert check_fiber_witness(S, w).passed


def test_fiber_witness_wrong_coordinates():
    ctx = VarContext(("t",), ("X",))
    S = Subalgebra.full(ctx)
    w = FiberWitness({"t": Fraction(0)}, (parse_polynomial("X^2", ctx),), 6)
    check = check_fiber_witness(S, w)
    assert not check.passed
    assert check.direction == "generator-not-reachable"
    assert str(check.element) == "X"  # lives in the specialized fiber context


def test_cli_run_and_exit_codes(tmp_path):
    job = tmp_path / "job.job"
    job.write_text(MINIMAL)
    runner = CliRunner()
    result = runner.invoke(cli_main, ["run", str(job)])
    assert result.exit_code == 0
    assert "verdict slice" in result.output

    bad = tmp_path / "bad.job"
    bad.write_text("job broken\n")
    result = runner.invoke(cli_main, ["run", str(bad)])
    assert result.exit_code == 2


NON_VARIABLE_GENERATORS = """
job non-variable-generators
ring coeff: t
ring main: X, Y
base: full
algebra: X; Y + t*X^2
"""


@pytest.mark.parametrize("records", [
    'derivation D: X: 0, Y: 1\n'
    'task verify_slice_theorem derivation=D slice="Y + t*X^2" bound=3\n',
    'derivation D1: X: 1, Y: -2*t*X\nderivation D2: X: 0, Y: 1\n'
    'task coordinates derivations="D2; D1" elements="Y + t*X^2" bound=3\n',
], ids=["verify_slice_theorem", "coordinates"])
def test_witness_keys_of_non_variable_generators_pass_the_schema(tmp_path, records):
    """Witnesses are keyed by generator index, so a generator that is not a
    variable still gives a key the schema accepts."""
    text = NON_VARIABLE_GENERATORS + records
    report = run_job(parse_job(text))
    assert validate_report_text(report.to_text()) == []
    assert [k for k, _ in report.tasks[0].values if k.startswith("witness.")] == ["witness.1", "witness.2"]
    job = tmp_path / "generators.job"
    job.write_text(text)
    result = CliRunner().invoke(cli_main, ["run", str(job)])
    assert result.exit_code == 0, result.output


def test_cli_run_deeply_nested_polynomial_is_an_input_error(tmp_path):
    job = tmp_path / "deep.job"
    job.write_text(MINIMAL.replace("Y: 1", "Y: " + "(" * 400 + "1" + ")" * 400))
    result = CliRunner().invoke(cli_main, ["run", str(job)])
    assert result.exit_code == 2
    assert "nested deeper" in result.output


def test_cli_run_unbounded_inputs_end_with_typed_errors(tmp_path):
    """An exponent above the cap is an input error (exit 2); growing
    Dixmier iterates are a task error once their term budget is spent."""
    job = tmp_path / "power.job"
    job.write_text(MINIMAL.replace("task find_slice derivation=D bound=1",
                                   'task apply derivation=D poly="(X + Y + t + 1)^400"'))
    result = CliRunner().invoke(cli_main, ["run", str(job)])
    assert result.exit_code == 2
    assert "exponent 400 exceeds the cap" in result.output
    job = tmp_path / "dixmier.job"
    job.write_text(DIXMIER_NO_SLICE.replace("X: X,", "X: X^2 + X,"))
    result = CliRunner().invoke(cli_main, ["run", str(job)])
    assert result.exit_code == 1
    assert "error derivation iterates of X exceeded" in result.output


# Texts that once ran without limit or for seconds, with the refusal each
# gets: the first three have a product or power that may hold more than
# ``TERM_BUDGET`` terms, the last two a multiplication that may take more
# than ``PAIR_BUDGET`` pair products (``^23*^23`` once took 3.6 s to parse).
OVERSIZED_TEXTS = [
    *(pytest.param(text, f"above the budget {TERM_BUDGET}", id=text) for text in [
        "(X + Y + t + 1)^100",
        "((X + Y + t + 1)^10)^10",
        "(X + Y + t + 1)^50*(X + Y + t + 1)^50",
    ]),
    *(pytest.param(text, f"above the pair budget {PAIR_BUDGET}", id=text) for text in [
        "(X + Y + t + 1)^23*(X + Y + t + 1)^23",
        "((X + Y + t + 1)^20)^2",
    ]),
]


def _oversized_job(tmp_path, text):
    job = tmp_path / "oversized.job"
    job.write_text(MINIMAL.replace("task find_slice derivation=D bound=1",
                                   f'task apply derivation=D poly="{text}"'))
    return job


@pytest.mark.parametrize("text, refusal", OVERSIZED_TEXTS)
def test_cli_run_oversized_polynomial_text_is_an_input_error(tmp_path, text, refusal):
    """A product or power that may exceed the term or the pair budget is
    refused at its operator before it multiplies: exit 2, well within a
    second."""
    job = _oversized_job(tmp_path, text)
    start = time.process_time()
    result = CliRunner().invoke(cli_main, ["run", str(job)])
    assert time.process_time() - start < 1.0
    assert result.exit_code == 2
    assert refusal in result.output


@pytest.mark.parametrize("text, refusal", OVERSIZED_TEXTS)
def test_cli_run_oversized_polynomial_text_is_an_input_error_with_asserts_stripped(tmp_path, text, refusal):
    """The same refusal from ``python -O``, which strips every ``assert``."""
    job = _oversized_job(tmp_path, text)
    src = str(Path(lndkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-O", "-m", "lndkit.harness.cli", "run", str(job)],
                            capture_output=True, text=True, env=env, timeout=10)
    assert result.returncode == 2
    assert refusal in result.stdout + result.stderr


def test_cli_corpus_filter():
    runner = CliRunner()
    result = runner.invoke(cli_main, ["corpus", "--filter", "a2-pair"])
    assert result.exit_code == 0
    assert "status pass" in result.output


def test_cli_corpus_env_override(tmp_path, monkeypatch):
    (tmp_path / "solo.job").write_text(MINIMAL.replace("job minimal", "job solo"))
    monkeypatch.setenv("LNDKIT_CORPUS_DIR", str(tmp_path))
    runner = CliRunner()
    result = runner.invoke(cli_main, ["corpus"])
    assert result.exit_code == 0
    assert "entry solo" in result.output


def test_cli_corpus_missing_directory(monkeypatch):
    monkeypatch.setenv("LNDKIT_CORPUS_DIR", "/nonexistent/corpus")
    runner = CliRunner()
    result = runner.invoke(cli_main, ["corpus"])
    assert result.exit_code == 2


def test_cli_exit_one_on_mismatch(tmp_path, monkeypatch):
    (tmp_path / "wrong.job").write_text(
        MINIMAL.replace("job minimal", "job wrong")
        + '  expect slice="X" type=poly provenance=trivial\n'
    )
    monkeypatch.setenv("LNDKIT_CORPUS_DIR", str(tmp_path))
    runner = CliRunner()
    result = runner.invoke(cli_main, ["corpus"])
    assert result.exit_code == 1
    assert "mismatch" in result.output

    job = tmp_path / "erroring.job"
    job.write_text(MINIMAL + 'task dixmier derivation=D slice="X" arg="Y"\n')
    result = runner.invoke(cli_main, ["run", str(job)])
    assert result.exit_code == 1


def test_cli_random_family():
    runner = CliRunner()
    result = runner.invoke(
        cli_main, ["random", "--family", "triangular-fpf", "--count", "3", "--seed", "1"]
    )
    assert result.exit_code == 0
    assert "verdict pass" in result.output


def test_cli_random_exits_with_the_family_verdict():
    """A ``fail`` verdict exits 1: triangular-fpf at bound 1 finds no slice."""
    runner = CliRunner()
    args = ["random", "--family", "triangular-fpf", "--count", "5", "--seed", "1"]
    passed = runner.invoke(cli_main, [*args, "--bound", "8"])
    failed = runner.invoke(cli_main, [*args, "--bound", "1"])
    assert "verdict pass" in passed.output and passed.exit_code == 0
    assert "verdict fail" in failed.output and failed.exit_code == 1


def test_cli_random_rejects_a_non_positive_count():
    result = CliRunner().invoke(cli_main, ["random", "--family", "triangular-fpf", "--count", "-3"])
    assert result.exit_code == 2
    assert "verdict" not in result.output


def test_cli_random_reports_like_a_random_family_task(tmp_path):
    args = ["--family", "triangular-nonfpf", "--count", "3", "--seed", "5", "--bound", "6"]
    random = CliRunner().invoke(cli_main, ["random", *args])
    job = tmp_path / "family.job"
    job.write_text("job random-triangular-nonfpf\nring main: X\nseed: 5\n"
                   "task random_family family=triangular-nonfpf count=3 seed=5 bound=6\n")
    run = CliRunner().invoke(cli_main, ["run", str(job)])
    assert random.exit_code == run.exit_code == 0

    def untimed(output):
        return [line for line in output.splitlines() if not line.startswith("time-ms ")]

    assert untimed(random.output) == untimed(run.output)
    assert {"value family triangular-nonfpf", "param bound 6"} <= set(untimed(random.output))


def test_output_file_roundtrip(tmp_path):
    job = tmp_path / "job.job"
    job.write_text(MINIMAL)
    out = tmp_path / "report.txt"
    runner = CliRunner()
    result = runner.invoke(cli_main, ["run", str(job), "--out", str(out)])
    assert result.exit_code == 0
    assert validate_report_text(out.read_text()) == []


WORKED_RING = """
job worked-ring
ring coeff: t
ring main: X, Y
base: {base}
algebra: {algebra}
derivation D: X: t, Y: 1 - t^2*X
task verify_slice_theorem derivation=D slice="Y + 1/2*t*X^2"
task kernel_up_to_degree derivation=D bound=4
"""


def test_explicit_variable_lists_are_the_full_ring():
    full = parse_job(WORKED_RING.format(base="full", algebra="full"))
    explicit = parse_job(WORKED_RING.format(base="t", algebra="X; Y"))
    assert explicit.subalgebra == full.subalgebra and explicit.subalgebra.full_ring
    assert explicit == full
    reports = [run_job(spec) for spec in (full, explicit)]  # no --bound needed
    assert reports[0].comparable_text() == reports[1].comparable_text()
    certificate = reports[1].tasks[0]
    assert certificate.verdict == "certificate" and ("bound", "9") in certificate.values
    assert reports[0].tasks[1].payload == reports[1].tasks[1].payload


def test_generator_derivations_are_built_once():
    from lndkit import RestrictedDerivation

    spec = parse_job(MINIMAL + "derivation E gens: 0, 1\n"
                     "task find_slice derivation=E bound=1\ntask subalgebra_fpf derivation=E bound=1\n")
    E = spec.derivations["E"]
    assert isinstance(E, RestrictedDerivation) and E.subalgebra is spec.subalgebra
    assert spec.tasks[1].args["derivation"] is E and spec.tasks[2].args["derivation"] is E
    assert parse_job(MINIMAL + "derivation E gens:0,  1\n").derivations == spec.derivations
    with pytest.raises(JobParseError, match="'E' is not an ambient derivation of the job"):
        parse_job(MINIMAL.replace("find_slice derivation=D bound=1", "apply derivation=E poly=X")
                  + "derivation E gens: 0, 1\n")


@pytest.mark.parametrize("bound,verdict,code", [(1, "fail", 1), (8, "pass", 0)])
def test_cli_run_exit_code_follows_the_verdict(tmp_path, bound, verdict, code):
    job = tmp_path / "family.job"
    job.write_text("job family\nring main: X\n"
                   f"task random_family family=triangular-fpf count=5 seed=1 bound={bound}\n")
    result = CliRunner().invoke(cli_main, ["run", str(job)])
    assert f"verdict {verdict}" in result.output.splitlines()
    assert result.exit_code == code


def _cli_subprocess(flags, args, prelude=""):
    """``lndkit`` on ``args`` in a fresh ``python`` with ``flags``, after
    running ``prelude``; ``helpers`` is importable there."""
    paths = [str(Path(lndkit.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [*paths, os.environ.get("PYTHONPATH")])))
    code = f"import sys\n{prelude}from lndkit.harness.cli import main\nmain(sys.argv[1:])\n"
    return subprocess.run([sys.executable, *flags, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=60)


EMPTY_ALGEBRA = """
job empty-algebra
ring coeff: t
ring main: X, Y
base: full
algebra:
derivation D: X: 0, Y: 1
task verify_slice_theorem derivation=D slice="Y" bound=2
task kernel_generators derivation=D slice="X"
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python -O"])
def test_a_subalgebra_without_algebra_generators_is_a_task_error(tmp_path, flags):
    """Not an internal error (exit 3), and X is not passed off as a slice."""
    job = tmp_path / "empty-algebra.job"
    job.write_text(EMPTY_ALGEBRA)
    result = _cli_subprocess(flags, ["run", str(job)])
    lines = result.stdout.splitlines()
    assert result.returncode == 1, result.stdout + result.stderr
    assert "error a slice certificate needs an algebra generator" in lines
    assert "error dixmier projection needs a slice: D(s) must be 1" in lines
    assert "verdict ok" not in lines
    assert validate_report_text(result.stdout) == []


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python -O"])
def test_a_wrong_taylor_witness_is_an_internal_error_of_the_random_family(flags):
    """``verify_slice_theorem`` re-verifies every witness of the slice
    pipeline, so a wrong one exits 3 rather than failing a seed."""
    prelude = "from helpers import perturb_taylor_witnesses\nperturb_taylor_witnesses()\n"
    result = _cli_subprocess(flags, ["random", "--family", "triangular-fpf", "--count", "3", "--seed", "1"], prelude)
    assert result.returncode == 3, result.stdout + result.stderr
    assert "error internal: Taylor witness failed re-verification" in result.stdout.splitlines()


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python -O"])
def test_coordinates_below_their_witness_degree_are_incomplete(tmp_path, flags):
    """``a2-pair``'s coordinates task at bound 3, where X's witness in the
    coordinates X + t*Y^3 and Y needs degree 4: ``coordinate_system`` returns
    its ``IncompleteReexpression``, a task outcome with exit 0."""
    from lndkit.harness import corpus_dir

    text = (Path(corpus_dir()) / "a2-pair.job").read_text()
    line = 'task coordinates derivations="D1; D2" elements="X + t*Y^3" bound=8'
    assert line in text
    job = tmp_path / "a2-pair-bound-3.job"
    job.write_text(text.replace(line, line.replace("bound=8", "bound=3")))
    result = _cli_subprocess(flags, ["run", str(job)])
    assert result.returncode == 0, result.stdout + result.stderr
    task = result.stdout.split("task 3 coordinates\n")[1].split("end task\n")[0].splitlines()
    assert "verdict incomplete" in task and "value missing.1 X" in task
    assert validate_report_text(result.stdout) == []


FALSE_CERTIFICATE = """
job false-certificate
ring coeff: t
ring main: X, Y
base: full
algebra: X; Y^2
derivation D: X: 0, Y: 1
task verify_slice_theorem derivation=D slice="Y" bound=2
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python -O"])
def test_a_slice_outside_the_subalgebra_is_a_task_error(tmp_path, flags):
    """Y is not in k[t][X, Y^2]: a task error (exit 1) that names it, and
    no certificate from the witnesses g1 and g2^2."""
    job = tmp_path / "false-certificate.job"
    job.write_text(FALSE_CERTIFICATE)
    result = _cli_subprocess(flags, ["run", str(job)])
    lines = result.stdout.splitlines()
    assert result.returncode == 1, result.stdout + result.stderr
    assert "error the slice Y is not found in the subalgebra up to bound 2" in lines
    assert not any(line.startswith("verdict ") for line in lines)
    assert validate_report_text(result.stdout) == []


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python -O"])
@pytest.mark.parametrize("record, refusal", [
    ("derivation D: X: 0, Y: " + "9" * 5000, "integer literal of 5000 digits exceeds the limit of"),
    ("derivation D: X: 0, Y: X^" + "9" * 5000, "exceeds the cap 100 (line 1, column 3) (line 7, column 1)"),
    ("derivation D: X: 0, Y: 1\ntask apply derivation=D poly=" + "9" * 5000,
     "integer literal of 5000 digits exceeds the limit of"),
], ids=["record literal", "record exponent", "task literal"])
def test_literals_past_the_digit_limit_are_input_errors(tmp_path, flags, record, refusal):
    """A literal too long for ``int`` in a derivation record or a task
    parameter exits 2 with its line and column, not with a traceback."""
    job = tmp_path / "long-literal.job"
    job.write_text(MINIMAL.replace("derivation D: X: 0, Y: 1", record))
    result = _cli_subprocess(flags, ["run", str(job)])
    assert result.returncode == 2, result.stdout + result.stderr[-500:]
    assert "Traceback" not in result.stderr
    assert refusal in result.stdout + result.stderr
    assert "(line 1, column " in result.stdout + result.stderr
