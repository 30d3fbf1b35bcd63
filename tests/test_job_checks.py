"""Task lines are checked against the task table when a job is parsed, and
records a job holds once may not repeat.

Every rejection is a parse error: ``lndkit run`` exits 2 with the offending
line number, no traceback and no report, before any task runs.
"""

import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lndkit import JobParseError
from lndkit.harness import jobs, parse_job, run_job
from lndkit.harness.cli import main as cli_main
from lndkit.harness.runner import TASK_NAMES, TASKS, Default

HEAD = """job checks
ring coeff: t
ring main: X, Y
base: full
algebra: full
derivation D: X: t, Y: 1 - t^2*X
derivation E gens: 0, 1
task nilpotency derivation=D
"""
BAD_LINE = 9  # the line after HEAD

REJECTED = {
    "unknown task": "task frobnicate derivation=D",
    "unknown parameter": "task find_slice derivation=D bound=3 frobnicate=1",
    "misspelled parameter": "task find_slice derivation=D bund=3 bound=3",
    "stray parameter with a default": "task kernel_up_to_degree derivation=D bound=3 elem_degree=9",
    "missing parameter": 'task apply derivation=D arg="X"',
    "missing bound without --bound": "task find_slice derivation=D",
    "non-integer bound": "task find_slice derivation=D bound=abc",
    "negative bound": "task find_slice derivation=D bound=-2",
    "zero bound": "task find_slice derivation=D bound=0",
    "unknown derivation": "task find_slice derivation=Q bound=3",
    "generator derivation for an ambient one": 'task apply derivation=E poly="X"',
    "from that is not an index": "task kernel_up_to_degree from=abc bound=3",
    "from that is not earlier": "task kernel_up_to_degree from=2 bound=3",
    "from a task that yields no derivation": "task kernel_up_to_degree from=1 bound=3",
    "from beside derivation": "task kernel_up_to_degree from=1 derivation=D bound=3",
    "polynomial that does not parse": 'task apply derivation=D poly="X +"',
    "polynomial with a non-ASCII digit": 'task apply derivation=D poly="X^\u0661 + Y"',
    "power of a power above the exponent cap": 'task apply derivation=D poly="((X^33)^3)^3"',
    "product above the exponent cap": 'task apply derivation=D poly="X^60*X^60"',
    "product of powers above the exponent cap": 'task apply derivation=D poly="(X*Y)^50*X^51"',
    "unknown order": 'task groebner_basis gens="X; Y" order=grevlex',
    "unknown family": "task random_family family=nope count=2",
    "non-positive count": "task random_family family=triangular-fpf count=-3",
    "fiber point chunk without =": 'task fiber point="t" coords="X; Y" bound=2',
    "coordw record on the wrong task": 'task apply derivation=D poly="X"\n  coordw gen=1 power=0 expr="V_"',
    "coordw power above the exponent cap": 'task complementary_lnd v="X" u0="Y" t="t" member_bound=2 kernel_bound=2\n  coordw gen=1 power=101 expr="V_"\n  coordw gen=2 power=0 expr="U0_"',
    "complementary_lnd without coordw": 'task complementary_lnd v="X" u0="Y" t="t" member_bound=2 kernel_bound=2',
    "alpha_cap above the exponent cap": 'task complementary_lnd v="X" u0="Y" t="t" alpha_cap=101 member_bound=2 kernel_bound=2\n  coordw gen=1 power=0 expr="V_"\n  coordw gen=2 power=0 expr="U0_"',
    "nilpotency bound above the iteration cap": "task nilpotency derivation=D bound=4097",
}


@pytest.mark.parametrize("line", REJECTED.values(), ids=REJECTED.keys())
def test_a_rejected_task_line_exits_2_before_any_task_runs(tmp_path, line):
    job = tmp_path / "rejected.job"
    job.write_text(HEAD + line + "\n")
    result = CliRunner().invoke(cli_main, ["run", str(job)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback escaped
    assert f"(line {BAD_LINE}, column 1)" in result.output
    assert f"task 2 (" in result.output
    assert "lndkit-report" not in result.output  # no task ran


def test_from_a_slice_search_is_rejected_at_its_line(tmp_path):
    job = tmp_path / "from.job"
    job.write_text(HEAD + "task find_slice derivation=D bound=3\n"
                   "task kernel_up_to_degree from=2 bound=2\n")
    result = CliRunner().invoke(cli_main, ["run", str(job)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert f"(line {BAD_LINE + 1}, column 1)" in result.output
    assert "task 2 (find_slice) yields no derivation" in result.output
    assert "lndkit-report" not in result.output


def test_only_tasks_that_yield_a_derivation_are_sources():
    assert sorted(name for name, task in TASKS.items() if task.yields_derivation) == [
        "complementary_lnd", "restrict"]


def test_a_restriction_that_fails_keeps_its_run_time_error():
    spec = parse_job(SUBALGEBRA_HEAD + "task restrict derivation=D bound=1\n"
                     "task kernel_up_to_degree from=1 bound=2\n")
    first, second = run_job(spec).tasks
    assert first.verdict == "fails-to-restrict"
    assert second.error == "task 1 produced no derivation"


def test_bound_given_by_the_run_is_accepted(tmp_path):
    job = tmp_path / "unbounded.job"
    job.write_text(HEAD + REJECTED["missing bound without --bound"] + "\n")
    result = CliRunner().invoke(cli_main, ["run", str(job), "--bound", "3"])
    assert result.exit_code == 0
    assert "verdict slice" in result.output.splitlines()


@pytest.mark.parametrize("flag", ["--bound", "--nilpotency-bound"])
def test_non_positive_run_bounds_are_rejected(tmp_path, flag):
    job = tmp_path / "job.job"
    job.write_text(HEAD)
    result = CliRunner().invoke(cli_main, ["run", str(job), flag, "0"])
    assert result.exit_code == 2
    assert "lndkit-report" not in result.output


def test_a_nilpotency_bound_above_the_iteration_cap_is_rejected(tmp_path):
    job = tmp_path / "job.job"
    job.write_text(HEAD)
    result = CliRunner().invoke(cli_main, ["run", str(job), "--nilpotency-bound", "4097"])
    assert result.exit_code == 2
    assert "1<=x<=4096" in result.output
    assert "lndkit-report" not in result.output
    result = CliRunner().invoke(cli_main, ["run", str(job), "--nilpotency-bound", "4096"])
    assert result.exit_code == 0


# -- fuzz ----------------------------------------------------------------------------

SUBALGEBRA_HEAD = """job checks
ring coeff: t
ring main: X, Y
base: t
algebra: X; t*Y; Y^2
derivation D: X: 0, Y: t
derivation E gens: 1, 0, 0
"""

# Values a parameter of each kind is drawn from besides arbitrary text: mostly
# well formed, so that a fair share of the jobs pass the table and run.
_PLAUSIBLE = {
    "polynomial": ["X", "Y + 1/2*t*X^2", "1 - t^2*X", "t", "0"],
    "polynomials": ["X; Y", "X", "1 - t^2*X; X", "", "1"],
    "positive int": ["1", "2", "3", "0"],
    "int from 1 to 4096": ["1", "2", "64", "4096", "0", "4097"],
    "int from 0 to 100": ["0", "1", "3", "100", "-1", "101"],
    "int": ["-1", "0", "1", "7"],
    "ambient derivation": ["D", "D", "E"],
    "derivation": ["D", "E"],
    "ambient derivations": ["D", "D; D", "D; E", ""],
    "earlier task": ["1", "1", "2"],
    "variables": ["X; Y", "t", "X; X", "Z"],
    "fiber point": ["t=0", "t=1/0", "t", "X=1", "t=a"],
}
# No digits: a large bound could make one example run for minutes.
_ARBITRARY = st.text(alphabet="XYtDE+-*^/=;,() '\"", max_size=6)


@st.composite
def _task_line(draw) -> str:
    if draw(st.integers(0, 19)):
        name = draw(st.sampled_from(TASK_NAMES))
    else:
        name = draw(st.text(alphabet="abc_", min_size=1, max_size=4))
    params = {}
    for param in TASKS[name].params.values() if name in TASKS else ():
        for key, kind in param.kinds.items():
            if draw(st.integers(0, 9)) >= (9 if len(param.kinds) == 1 else 5):
                continue  # a missing parameter; one of two alternatives half the time
            pool = [*kind.choices, "nope"] if kind.choices else _PLAUSIBLE[kind.name]
            params[key] = draw(st.sampled_from(pool) if draw(st.integers(0, 7)) else _ARBITRARY)
    if not draw(st.integers(0, 9)):
        params[draw(st.sampled_from(["bund", "frobnicate", "bound"]))] = draw(_ARBITRARY)
    return " ".join([f"task {shlex.quote(name)}", *(f"{k}={shlex.quote(v)}" for k, v in params.items())])


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.sampled_from([HEAD, SUBALGEBRA_HEAD]), st.lists(_task_line(), min_size=1, max_size=2),
       st.sampled_from([None, 2]))
def test_a_job_that_parses_runs_without_a_parameter_error(head, lines, bound):
    try:
        spec = parse_job(head + "\n".join(lines) + "\n")
    except JobParseError:
        return
    try:
        report = run_job(spec, bound_override=bound)
    except JobParseError as exc:
        assert bound is None and "missing parameter bound" in str(exc)
        return
    for task in report.tasks:
        error = task.error or ""
        assert "needs parameter" not in error and "unknown task" not in error, error
        assert not error.startswith("ValueError:") and not task.internal, error


# Every line but the job and task lines is a record the property below fuzzes.
RECORDS_JOB = """job fuzz
ring coeff: t
ring main: X, Y
base: full
algebra: X; Y
derivation D: X: t, Y: 1 - t^2*X
derivation E gens: 0, 1
seed: 3
tags: checks, fuzz
task complementary_lnd v="X" u0="Y" t="t" member_bound=2 kernel_bound=2
coordw gen=1 power=0 expr="V_"
coordw gen=2 power=1 expr="t*U0_"
expect verdict=found type=text provenance=trivial oracle="by hand"
"""
_FUZZED_LINES = [i for i, line in enumerate(RECORDS_JOB.splitlines())
                 if not line.startswith(("job ", "task "))]
# Digits stop at 3, so no example raises a sum to a power with many terms.
_RECORD_TEXT = st.text(alphabet="XYtUV0_123 +-*^/=:;,()'\"#", max_size=12)


@st.composite
def _fuzzed_record_job(draw) -> str:
    """The job with a slice of one record's body replaced by arbitrary text."""
    lines = RECORDS_JOB.splitlines()
    index = draw(st.sampled_from(_FUZZED_LINES))
    keyword, _, body = lines[index].partition(" ")
    start = draw(st.integers(0, len(body)))
    end = draw(st.integers(start, len(body)))
    lines[index] = f"{keyword} {body[:start]}{draw(_RECORD_TEXT)}{body[end:]}"
    return "\n".join(lines) + "\n"


def test_the_records_job_parses():
    spec = parse_job(RECORDS_JOB)
    assert len(spec.tasks[0].coord_witnesses) == 2 and spec.tags == ("checks", "fuzz")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_fuzzed_record_job())
def test_any_non_task_record_parses_or_raises_a_job_parse_error(text):
    try:
        spec = parse_job(text)
    except JobParseError:
        return
    assert [task.name for task in spec.tasks] == ["complementary_lnd"]


# -- the README task list ---------------------------------------------------------


def _describe(name: str) -> str:
    parts = []
    for param in TASKS[name].params.values():
        text = " or ".join(f"`{key}` ({kind.name})" for key, kind in param.kinds.items())
        if isinstance(param.default, Default):
            if param.default is not Default.REQUIRED:
                text += f", default {param.default.value}"
        elif param.default in (None, ()):
            text += ", optional"
        else:
            text += f", default {param.default}"
        parts.append(text)
    if TASKS[name].coordw:
        parts.append("one `coordw` record per algebra generator")
    return f"- `{name}`: " + "; ".join(parts)


def test_the_readme_lists_every_task_with_its_parameters():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = readme.split("<!-- tasks -->\n", 1)[1].split("<!-- /tasks -->", 1)[0]
    assert listed.splitlines() == [_describe(name) for name in TASK_NAMES]


def test_a_corpus_entry_without_a_bound_is_an_input_error(tmp_path, monkeypatch):
    (tmp_path / "unbounded.job").write_text(HEAD + "task find_slice derivation=D\n")
    monkeypatch.setenv("LNDKIT_CORPUS_DIR", str(tmp_path))
    result = CliRunner().invoke(cli_main, ["corpus"])
    assert result.exit_code == 2
    assert "unbounded.job: task 2 (find_slice): missing parameter bound" in result.output


SINGLES = """job singles
ring coeff: t
ring main: X, Y
base: full
algebra: full
seed: 3
output: singles.txt
tags: checks
derivation D: X: t, Y: 1 - t^2*X
task nilpotency derivation=D
"""
REPEATED_LINE = 11  # the line after SINGLES

REPEATS = {
    "job": "job again",
    "ring coeff": "ring coeff: u",
    "ring main": "ring main: Z",
    "base": "base : t",
    "algebra": "algebra: X; Y",
    "seed": "seed: 5",
    "output": "output: other.txt",
    "tags": "tags: extra",
}


def test_every_single_record_is_covered():
    assert set(REPEATS) == set(jobs.SINGLE_RECORDS)
    spec = parse_job(SINGLES)
    assert (spec.context.main_vars, spec.seed, spec.tags) == (("X", "Y"), 3, ("checks",))


@pytest.mark.parametrize("record, line", REPEATS.items(), ids=REPEATS.keys())
def test_a_repeated_single_record_is_rejected_at_its_line(tmp_path, record, line):
    text = SINGLES + line + "\n"
    with pytest.raises(JobParseError, match=f"duplicate {record} line") as err:
        parse_job(text)
    assert err.value.line == REPEATED_LINE
    job = tmp_path / "repeated.job"
    job.write_text(text)
    result = CliRunner().invoke(cli_main, ["run", str(job)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert f"duplicate {record} line (line {REPEATED_LINE}, column 1)" in result.output
    assert "lndkit-report" not in result.output


# -- the record splitter against shlex, kept here as the oracle --

def _shlex_words(text):
    try:
        return shlex.split(text)
    except ValueError as exc:
        return "ValueError", str(exc)


def _shlex_split_kv(text, line_no):
    """``jobs._split_kv`` as it was, on ``shlex.split``."""
    try:
        tokens = shlex.split(text)
    except ValueError as exc:
        raise JobParseError(f"bad record: {exc}", line_no) from None
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise JobParseError(f"expected key=value, got {tok!r}", line_no)
        key, value = tok.split("=", 1)
        if not key:
            raise JobParseError(f"empty key in {tok!r}", line_no)
        if key in out:
            raise JobParseError(f"duplicate key {key!r}", line_no)
        out[key] = value
    return out


def _kv_outcome(split, text):
    try:
        return split(text, 7)
    except JobParseError as exc:
        return str(exc), exc.line


# Quotes, backslashes and the four whitespace characters the shell rules
# split on, beside whitespace they do not split on and other scripts' letters.
_RECORD_TEXT = st.one_of(
    st.text(alphabet="ab=' \"\\\t\r\n", max_size=14),
    st.text(alphabet="kv= '\"\\\x0b\x0c\xa0é#$", max_size=10),
    st.lists(st.sampled_from(['k=v', 'poly="X + 1"', "a='b c'", 'e=""', "''", '\\"', '"a\\', "x=\\",
                              '"\\q"', "'\\'", '"\\\\"', 'k="a\\"b"', "=v", "k=v", "novalue", "é=ü"]),
             max_size=4).map(" ".join),
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_RECORD_TEXT)
def test_record_splitting_matches_shlex(text):
    """The same words and the same ``ValueError`` text as ``shlex.split``,
    and so the same pairs or ``JobParseError`` text as the splitter on it."""
    try:
        words = jobs._split_words(text)
    except ValueError as exc:
        words = "ValueError", str(exc)
    assert words == _shlex_words(text)
    assert _kv_outcome(jobs._split_kv, text) == _kv_outcome(_shlex_split_kv, text)


@pytest.mark.parametrize("text, message", [
    ('k="open', "No closing quotation"),
    ("k='open\\", "No closing quotation"),
    ('k="open\\', "No escaped character"),
    ('k="open\\\\', "No closing quotation"),
    ("k=v\\", "No escaped character"),
])
def test_an_open_quote_or_escape_is_a_bad_record(text, message):
    with pytest.raises(JobParseError, match=f"bad record: {message}"):
        jobs._split_kv(text, 1)
    with pytest.raises(ValueError, match=message):
        shlex.split(text)
