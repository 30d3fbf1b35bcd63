r"""Job documents: a line-oriented format describing a ring, a subalgebra,
derivations, and a list of tasks to run.

Format (one record per line, ``#`` comments and blank lines ignored)::

    job <identifier>
    ring coeff: t, u            # optional
    ring main: X, Y
    base: full                  # or semicolon-separated polynomials
    algebra: full               # or semicolon-separated polynomials
    derivation D: X: t, Y: 1 - t^2*X
    derivation E gens: 0, 1     # images aligned with the algebra generators
    seed: 7                     # optional
    note: free-form text        # optional, repeatable
    task find_slice derivation=D bound=3
      coordw gen=2 power=1 expr="X^2*U0_"     # sub-record of some tasks
      expect slice="Y + 1/2*t*X^2" type=poly provenance=derived oracle="..."

The ``key=value`` words of ``task``, ``coordw`` and ``expect`` records
split by the POSIX shell rules of ``shlex.split``, with its error texts.
Words end at a space, tab, carriage return or newline outside quotes.
``'...'`` is literal.  Inside ``"..."`` only ``\"`` and ``\\`` are
escapes, and a backslash before any other character stays.  Outside
quotes a backslash escapes any character.  An empty quoted word is kept.
A text that ends inside quotes is "No closing quotation", unless it ends
in an escaping backslash, inside or outside ``"..."``: that is "No
escaped character".

Polynomial values never contain commas or semicolons, so those separate
list items.  ``full`` stands for the coefficient (``base``) or main
(``algebra``) variables; spelled out in context order they give the same
full ring, ``Subalgebra.full_ring``.  Each ``gens`` derivation is built
once, as a ``RestrictedDerivation`` on the job's subalgebra, and kept in
``JobSpec.derivations`` beside the ambient ones.  Every task line is
checked against ``runner.TASKS``; ``TaskSpec.params`` keeps the raw text
and ``TaskSpec.args`` the typed values.  ``expect`` records attach
expected outcomes (with provenance tags) to the preceding task; they are
ignored by ``run_job`` and consumed by the corpus comparator.  The records
of ``SINGLE_RECORDS`` appear at most once.  Parse errors carry line
numbers.

``parse_job`` is the one description of job text: a ``JobSpec`` is read
from text and never written back to it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..context import VarContext
from ..derivation import Derivation
from ..errors import JobParseError, PolyParseError
from ..parse import parse_polynomial
from ..polynomial import Polynomial
from ..subalgebra import RestrictedDerivation, Subalgebra
from .runner import check_task, split_items

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_\-]*\Z")

PROVENANCE_TAGS = ("trivial", "derived", "external")

SINGLE_RECORDS = ("job", "ring coeff", "ring main", "base", "algebra", "seed", "output", "tags")


@dataclass(frozen=True)
class Expectation:
    key: str
    value: str
    kind: str  # poly | int | text
    provenance: str
    oracle: str | None
    line: int


@dataclass(frozen=True)
class CoordWitnessSpec:
    generator_index: int  # 1-based, into the algebra generators
    power: int
    expression: str
    line: int


@dataclass
class TaskSpec:
    name: str
    params: dict[str, str]
    expectations: list[Expectation] = field(default_factory=list)
    coord_witnesses: list[CoordWitnessSpec] = field(default_factory=list)
    line: int = 0
    args: dict[str, object] = field(default_factory=dict)  # typed, filled in by parse_job


@dataclass
class JobSpec:
    name: str
    context: VarContext
    subalgebra: Subalgebra
    derivations: dict[str, Derivation | RestrictedDerivation]  # ambient, or by generator images
    tasks: list[TaskSpec]
    seed: int = 0
    output: str | None = None
    notes: list[str] = field(default_factory=list)
    tags: tuple[str, ...] = ()


# One word of a record, to the next whitespace outside quotes: unquoted
# characters, backslash escapes, '...' and "..." parts.  The parts start
# with different characters, so one is tried per position, and a quote
# left open costs one scan to the end of the text.
_WORD_RE = re.compile(r"""[ \t\r\n]*((?:[^ \t\r\n'"\\]|\\.|'[^']*'|"(?:[^"\\]|\\.)*")*)""", re.S)
_PART_RE = re.compile(r"""\\(.)|'([^']*)'|"((?:[^"\\]|\\.)*)"|([^'"\\]+)""", re.S)
_QUOTED_ESCAPE_RE = re.compile(r'\\([\\"])')
_OPEN_QUOTED_RE = re.compile(r'"(?:[^"\\]|\\.)*', re.S)


def _unquote(part: re.Match) -> str:
    escaped, single, double, plain = part.groups()
    if double is not None:
        return _QUOTED_ESCAPE_RE.sub(r"\1", double)
    return escaped or single or plain or ""


def _split_words(text: str) -> list[str]:
    """The words of a record by the POSIX shell rules ``shlex.split`` follows,
    with its ``ValueError`` texts: see the module docstring."""
    words: list[str] = []
    pos, end = 0, len(text)
    while True:
        m = _WORD_RE.match(text, pos)
        word, pos = m.group(1), m.end()
        if word:
            if "\\" in word or "'" in word:
                word = "".join(map(_unquote, _PART_RE.finditer(word)))
            elif '"' in word:
                word = word.replace('"', "")
            words.append(word)
        if pos == end:
            return words
        if text[pos] in " \t\r\n":
            continue
        # An unclosed quotation, or a backslash that ends the text.
        if text[pos] == "\\" or (text[pos] == '"' and _OPEN_QUOTED_RE.match(text, pos).end() < end):
            raise ValueError("No escaped character")
        raise ValueError("No closing quotation")


def _split_kv(text: str, line_no: int) -> dict[str, str]:
    try:
        tokens = _split_words(text)
    except ValueError as exc:
        raise JobParseError(f"bad record: {exc}", line_no) from None
    out: dict[str, str] = {}
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


def parse_job(text: str) -> JobSpec:
    """Parse and validate a job document; diagnostics carry line numbers."""
    name: str | None = None
    coeff_vars: tuple[str, ...] = ()
    main_vars: tuple[str, ...] | None = None
    base_decl: tuple[int, str] | None = None
    algebra_decl: tuple[int, str] | None = None
    derivation_decls: list[tuple[int, str, str, bool]] = []  # line, name, body, by_gens
    tasks: list[TaskSpec] = []
    seed = 0
    output: str | None = None
    notes: list[str] = []
    tags: tuple[str, ...] = ()
    seen: set[str] = set()

    def fail(msg: str, line_no: int):
        raise JobParseError(msg, line_no)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head in ("base", "algebra") and rest.startswith(":"):
            head, rest = head + ":", rest[1:].strip()
        record = "ring " + rest.partition(":")[0].strip() if head == "ring" else head.rstrip(":")
        if record in SINGLE_RECORDS:
            if record in seen:
                fail(f"duplicate {record} line", line_no)
            seen.add(record)
        if head == "job":
            if not _NAME_RE.match(rest):
                fail(f"invalid job identifier {rest!r}", line_no)
            name = rest
        elif head == "ring":
            kind, _, names = rest.partition(":")
            names_t = tuple(split_items(names, ","))
            if kind.strip() == "coeff":
                coeff_vars = names_t
            elif kind.strip() == "main":
                main_vars = names_t
            else:
                fail(f"unknown ring block {kind.strip()!r}", line_no)
        elif head == "base:":
            base_decl = (line_no, rest)
        elif head == "algebra:":
            algebra_decl = (line_no, rest)
        elif head == "derivation":
            dname, sep, body = rest.partition(":")
            dname = dname.strip()
            by_gens = False
            if dname.endswith(" gens"):
                dname = dname[:-5].strip()
                by_gens = True
            if not sep:
                fail("derivation line needs a ':'", line_no)
            if not _NAME_RE.match(dname):
                fail(f"invalid derivation name {dname!r}", line_no)
            derivation_decls.append((line_no, dname, body.strip(), by_gens))
        elif head == "seed:":
            try:
                seed = int(rest)
            except ValueError:
                fail(f"seed must be an integer, got {rest!r}", line_no)
        elif head == "output:":
            output = rest
        elif head == "note:":
            notes.append(rest)
        elif head == "tags:":
            tags = tuple(split_items(rest, ","))
        elif head == "task":
            if not rest:
                fail("task line needs an operation name", line_no)
            operation, *params = rest.split(maxsplit=1)
            tasks.append(TaskSpec(operation, _split_kv("".join(params), line_no), line=line_no))
        elif head == "coordw":
            if not tasks:
                fail("coordw record before any task", line_no)
            kv = _split_kv(rest, line_no)
            try:
                gen = int(kv.pop("gen"))
                power = int(kv.pop("power"))
                expr = kv.pop("expr")
            except KeyError as exc:
                fail(f"coordw record missing {exc.args[0]}", line_no)
            except ValueError as exc:
                fail(f"coordw gen and power must be integers: {exc}", line_no)
            if kv:
                fail(f"unknown coordw keys {sorted(kv)}", line_no)
            tasks[-1].coord_witnesses.append(CoordWitnessSpec(gen, power, expr, line_no))
        elif head == "expect":
            if not tasks:
                fail("expect record before any task", line_no)
            kv = _split_kv(rest, line_no)
            kind = kv.pop("type", "text")
            provenance = kv.pop("provenance", None)
            oracle = kv.pop("oracle", None)
            if provenance is None:
                fail("expect record needs a provenance tag", line_no)
            if provenance not in PROVENANCE_TAGS:
                fail(f"unknown provenance {provenance!r}", line_no)
            if kind not in ("poly", "int", "text"):
                fail(f"unknown expect type {kind!r}", line_no)
            if len(kv) != 1:
                fail("expect record needs exactly one key=value comparison", line_no)
            ((key, value),) = kv.items()
            tasks[-1].expectations.append(
                Expectation(key, value, kind, provenance, oracle, line_no)
            )
        else:
            fail(f"unknown record {head!r}", line_no)

    if name is None:
        raise JobParseError("missing job line", 1)
    if main_vars is None or not main_vars:
        raise JobParseError("missing ring main declaration", 1)
    try:
        context = VarContext(coeff_vars, main_vars)
    except ValueError as exc:
        raise JobParseError(str(exc), 1) from None

    def parse_poly(text_: str, line_no: int) -> Polynomial:
        try:
            return parse_polynomial(text_, context)
        except PolyParseError as exc:
            raise JobParseError(f"in polynomial {text_!r}: {exc}", line_no) from None

    def generators(decl: tuple[int, str] | None, names: tuple[str, ...]) -> tuple[Polynomial, ...]:
        line_no, text_ = decl or (1, "full")
        if text_ == "full":
            return tuple(Polynomial.variable(context, n) for n in names)
        return tuple(parse_poly(p, line_no) for p in split_items(text_))

    try:
        subalgebra = Subalgebra(context, generators(base_decl, context.coeff_vars),
                                generators(algebra_decl, context.main_vars))
    except ValueError as exc:
        raise JobParseError(str(exc), base_decl[0] if base_decl else 1) from None

    derivations: dict[str, Derivation | RestrictedDerivation] = {}
    for line_no, dname, body, by_gens in derivation_decls:
        if dname in derivations:
            raise JobParseError(f"duplicate derivation {dname!r}", line_no)
        if by_gens:
            images = tuple(parse_poly(p, line_no) for p in split_items(body, ","))
            if len(images) != len(subalgebra.algebra_generators):
                raise JobParseError(
                    f"derivation {dname!r} needs one image per algebra generator "
                    f"({len(subalgebra.algebra_generators)} expected, {len(images)} given)",
                    line_no,
                )
            derivations[dname] = RestrictedDerivation(subalgebra, images)
        else:
            images: dict[str, Polynomial] = {}
            for chunk in split_items(body, ","):
                var, sep, expr = chunk.partition(":")
                var = var.strip()
                if not sep:
                    raise JobParseError(f"derivation image needs 'var: poly', got {chunk!r}", line_no)
                if var not in context.main_vars:
                    raise JobParseError(f"unknown variable {var!r}", line_no)
                if var in images:
                    raise JobParseError(f"duplicate image for {var!r}", line_no)
                images[var] = parse_poly(expr.strip(), line_no)
            missing = set(context.main_vars) - set(images)
            if missing:
                raise JobParseError(
                    f"derivation {dname!r} missing images for {sorted(missing)}", line_no
                )
            derivations[dname] = Derivation(context, images)

    spec = JobSpec(
        name=name,
        context=context,
        subalgebra=subalgebra,
        derivations=derivations,
        tasks=tasks,
        seed=seed,
        output=output,
        notes=notes,
        tags=tags,
    )
    for index, task in enumerate(tasks, start=1):
        task.args = check_task(task, spec, index)
    return spec
