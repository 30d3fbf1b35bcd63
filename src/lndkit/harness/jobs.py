"""Job documents: a line-oriented format describing a ring, a subalgebra,
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
"""

from __future__ import annotations

import re
import shlex
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

    def to_text(self) -> str:
        """Canonical serialization; parsing it back yields an equal JobSpec."""
        lines = [f"job {self.name}"]
        if self.context.coeff_vars:
            lines.append("ring coeff: " + ", ".join(self.context.coeff_vars))
        lines.append("ring main: " + ", ".join(self.context.main_vars))
        S = self.subalgebra
        for record, gens in (("base", S.base_generators), ("algebra", S.algebra_generators)):
            lines.append(f"{record}: {'full' if S.full_ring else '; '.join(map(str, gens))}".rstrip())
        for name, d in self.derivations.items():
            if isinstance(d, RestrictedDerivation):
                lines.append(f"derivation {name} gens: " + ", ".join(map(str, d.images)))
            else:
                images = ", ".join(f"{v}: {d.images[v]}" for v in self.context.main_vars)
                lines.append(f"derivation {name}: {images}")
        lines.append(f"seed: {self.seed}")
        if self.tags:
            lines.append("tags: " + ", ".join(self.tags))
        if self.output:
            lines.append(f"output: {self.output}")
        for note in self.notes:
            lines.append(f"note: {note}")
        for task in self.tasks:
            chunks = [f"task {task.name}"]
            for k, v in task.params.items():
                chunks.append(f'{k}="{v}"' if _needs_quoting(v) else f"{k}={v}")
            lines.append(" ".join(chunks))
            for cw in task.coord_witnesses:
                lines.append(f'  coordw gen={cw.generator_index} power={cw.power} expr="{cw.expression}"')
            for e in task.expectations:
                parts = [f'  expect {e.key}="{e.value}"' if _needs_quoting(e.value) else f"  expect {e.key}={e.value}"]
                if e.kind != "text":
                    parts.append(f"type={e.kind}")
                parts.append(f"provenance={e.provenance}")
                if e.oracle:
                    parts.append(f'oracle="{e.oracle}"')
                lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"


def _needs_quoting(value: str) -> bool:
    return any(ch in value for ch in " \t'\"")


def _split_kv(text: str, line_no: int) -> dict[str, str]:
    try:
        tokens = shlex.split(text)
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
