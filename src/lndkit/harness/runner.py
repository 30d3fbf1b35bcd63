"""The task table and dispatch: execute a parsed job and emit a deterministic report.

``TASKS`` maps each task name to its handler and its parameters, each of a
kind and either required or with a default; ``parse_job`` checks every
task line against it, so handlers receive typed arguments.  Defaults that
depend on the run (the job seed after ``--seed``, ``--nilpotency-bound``,
and ``--bound``, which fills a missing ``bound`` of any task) are resolved
before the first task runs.  Each task runs in isolation: its failures
become per-task errors.  ``from=<task index>`` takes the derivation of an
earlier task whose table entry yields one (``restrict`` and
``complementary_lnd``); a ``from`` naming any other task is a parse error.
"""

from __future__ import annotations

import time
from contextlib import suppress
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NoReturn

from ..derivation import (
    DEFAULT_NILPOTENCY_BOUND,
    ITERATION_CAP,
    divergence,
    is_fixed_point_free,
    is_irreducible,
    is_triangular,
    nilpotency_verdict,
)
from ..errors import FailsUpToCapError, JobParseError, LndkitError
from ..groebner import buchberger, ideal_member
from ..ordering import MonomialOrder
from ..parse import parse_polynomial
from ..polynomial import MAX_EXPONENT, Polynomial
from ..slices import (
    CoordinateWitness,
    IncompleteReexpression,
    complementary_lnd,
    coordinate_context,
    coordinate_system,
    dixmier,
    find_slice,
    kernel_generators,
    proportionality_check,
    transcendence_check,
    verify_slice_theorem,
)
from ..subalgebra import (
    GeneratorSpan,
    RestrictedDerivation,
    RestrictionFailure,
    Subalgebra,
    generator_products,
    kernel_up_to_degree,
    restrict_derivation,
    restriction_of,
    subalgebra_fpf,
    subalgebra_member,
)
from .fiber import FiberWitness, check_fiber_witness
from .randgen import (
    FamilyOutcome,
    random_triangular_lnd,
    run_falling_factorial_family,
    run_groebner_oracle_family,
    run_projection_law_family,
    run_slice_pipeline_family,
)
from .report import Report, TaskResult

if TYPE_CHECKING:
    from .jobs import JobSpec, TaskSpec


# -- parameter kinds -----------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """``convert(text, spec, task_index)`` gives the value or raises ValueError or LndkitError."""

    name: str
    convert: Callable[[str, JobSpec, int], object]
    choices: tuple[str, ...] = ()


class TaskRef(int):
    """The index of an earlier task, whose derivation is looked up when the task runs."""


def split_items(text: str, sep: str = ";") -> list[str]:
    """The items of a job-document list, stripped, with empty items dropped."""
    return [item.strip() for item in text.split(sep) if item.strip()]


def _int_in(low: int, text: str, high: int | None = None) -> int:
    if int(text) < low:
        raise ValueError(f"{text} is below {low}")
    if high is not None and int(text) > high:
        raise ValueError(f"{text} is above {high}")
    return int(text)


def _derivation(name, spec, index, ambient=False):
    derivation = spec.derivations.get(name)
    if derivation is None or ambient and isinstance(derivation, RestrictedDerivation):
        raise ValueError(f"{name!r} is not {'an ambient' if ambient else 'a'} derivation of the job")
    return derivation


def _earlier(text, spec, index):
    if not 1 <= int(text) < index:
        raise ValueError(f"task {text} is not an earlier task")
    name = spec.tasks[int(text) - 1].name
    if not TASKS[name].yields_derivation:
        raise ValueError(f"task {text} ({name}) yields no derivation")
    return TaskRef(int(text))


def _point(text, spec, index):
    """``var=value`` chunks; a zero denominator is left to the ``fiber`` task."""
    point = {}
    for chunk in split_items(text, ","):
        var, eq, value = (part.strip() for part in chunk.partition("="))
        if not eq:
            raise ValueError(f"{chunk!r} is not var=value")
        with suppress(ZeroDivisionError):
            Fraction(value)
        point[var] = value
    return point


def _list(kind: Kind):
    return lambda text, spec, index: [kind.convert(item, spec, index) for item in split_items(text)]


def _choice(options) -> Kind:
    def convert(text, spec, index):
        if text not in options:
            raise ValueError()
        return text

    return Kind("one of " + ", ".join(options), convert, tuple(options))


POLY = Kind("polynomial", lambda text, spec, index: parse_polynomial(text, spec.context))
POLYS = Kind("polynomials", _list(POLY))
POSITIVE = Kind("positive int", lambda text, spec, index: _int_in(1, text))
INT = Kind("int", lambda text, spec, index: int(text))
NILPOTENCY_BOUND = Kind(f"int from 1 to {ITERATION_CAP}",
                        lambda text, spec, index: _int_in(1, text, ITERATION_CAP))
ALPHA_CAP = Kind(f"int from 0 to {MAX_EXPONENT}",
                 lambda text, spec, index: _int_in(0, text, MAX_EXPONENT))
AMBIENT = Kind("ambient derivation", lambda text, spec, index: _derivation(text, spec, index, True))
DERIVATION = Kind("derivation", _derivation)
AMBIENTS = Kind("ambient derivations", _list(AMBIENT))
EARLIER = Kind("earlier task", _earlier)
# The value is the subalgebra the listed variables generate.
VARIABLES = Kind("variables", lambda text, spec, index: Subalgebra(
    spec.context, (), tuple(Polynomial.variable(spec.context, n) for n in split_items(text))))
POINT = Kind("fiber point", _point)


class Default(Enum):
    """Defaults that are not constants."""

    REQUIRED = "required"
    BOUND = "--bound"
    COMPUTED = "computed on a full ring, else --bound"
    SEED = "the job seed"
    NILPOTENCY_BOUND = "--nilpotency-bound"


@dataclass(frozen=True)
class Param:
    kinds: dict[str, Kind]  # by text key; of two keys exactly one is given
    default: object = Default.REQUIRED


@dataclass(frozen=True)
class Task:
    handler: Callable[..., None]
    params: dict[str, Param]  # by handler argument
    coordw: bool = False  # takes one ``coordw`` record per algebra generator
    yields_derivation: bool = False  # a success carries a derivation that ``from=`` can take


def _task(handler, coordw: bool = False, yields_derivation: bool = False, **params) -> Task:
    """A table entry; a bare kind, keyed by the argument name, or dict of kinds is required."""
    params = {k: p if isinstance(p, Param) else Param(p) for k, p in params.items()}
    return Task(handler, {k: p if isinstance(p.kinds, dict) else replace(p, kinds={k: p.kinds})
                          for k, p in params.items()}, coordw, yields_derivation)


# -- task handlers -------------------------------------------------------------


def _poly_values(key: str, polys) -> list[tuple[str, str]]:
    return [(f"{key}.{i + 1}", str(p)) for i, p in enumerate(polys)]


def _t_nilpotency(spec: JobSpec, out: TaskResult, derivation, bound):
    v = nilpotency_verdict(derivation, bound)
    out.verdict = v.status
    out.values.append(("bound", str(bound)))
    if v.certified:
        for name in derivation.context.main_vars:
            out.values.append((f"index.{name}", str(v.indices[name])))


def _t_triangular(spec: JobSpec, out: TaskResult, derivation):
    order = is_triangular(derivation)
    if order is None:
        out.verdict = "not-triangular"
    else:
        out.verdict = "triangular"
        out.values.append(("order", " < ".join(order)))


def _t_divergence(spec: JobSpec, out: TaskResult, derivation):
    out.verdict = "ok"
    out.values.append(("divergence", str(divergence(derivation))))


def _t_irreducible(spec: JobSpec, out: TaskResult, derivation):
    ok, g = is_irreducible(derivation)
    out.verdict = "yes" if ok else "no"
    if g is not None:
        out.values.append(("common-divisor", str(g)))


def _t_fixed_point_free(spec: JobSpec, out: TaskResult, derivation):
    witness = is_fixed_point_free(derivation)
    if witness is None:
        out.verdict = "no"
    else:
        out.verdict = "yes"
        for name in derivation.context.main_vars:
            if name in witness:
                out.values.append((f"cofactor.{name}", str(witness[name])))


def _t_apply(spec: JobSpec, out: TaskResult, derivation, poly):
    out.verdict = "ok"
    out.values.append(("image", str(derivation.apply(poly))))


def _t_ideal_member(spec: JobSpec, out: TaskResult, target, gens):
    cof = ideal_member(target, gens)
    if cof is None:
        out.verdict = "no"
    else:
        out.verdict = "yes"
        out.values.extend(_poly_values("cofactor", cof))


def _t_groebner_basis(spec: JobSpec, out: TaskResult, gens, order):
    gb = buchberger(gens, getattr(MonomialOrder, order)(spec.context))
    out.verdict = "ok"
    out.values.append(("order", order))
    out.values.extend(_poly_values("basis", gb.generators))
    for i, row in enumerate(gb.cofactors):
        for j, c in enumerate(row):
            if not c.is_zero():
                out.values.append((f"cofactor.{i + 1}.{j + 1}", str(c)))


def _t_find_slice(spec: JobSpec, out: TaskResult, derivation, bound):
    s = find_slice(derivation, spec.subalgebra, bound)
    if s is None:
        out.verdict = "none-up-to-bound"
        out.values.append(("bound", str(bound)))
    else:
        out.verdict = "slice"
        out.values.append(("slice", str(s)))
        out.payload = s


def _t_dixmier(spec: JobSpec, out: TaskResult, derivation, slice, arg):
    out.verdict = "ok"
    out.values.append(("image", str(dixmier(derivation, slice, arg))))


def _t_kernel_generators(spec: JobSpec, out: TaskResult, derivation, slice):
    gens = kernel_generators(derivation, slice, spec.subalgebra)
    out.verdict = "ok"
    out.values.extend(_poly_values("generator", gens))


def _t_verify_slice_theorem(spec: JobSpec, out: TaskResult, derivation, slice, slice_bound, bound):
    S = spec.subalgebra
    if slice is None:
        slice = find_slice(derivation, S, slice_bound)
        if slice is None:
            out.verdict = "none-up-to-bound"
            return
    cert = verify_slice_theorem(derivation, slice, S, bound)
    if isinstance(cert, IncompleteReexpression):
        out.verdict = "incomplete"
        out.values.extend(_poly_values("missing", cert.missing))
        return
    out.verdict = "certificate"
    out.values.append(("slice", str(cert.slice)))
    out.values.append(("bound", str(cert.bound)))
    out.values.extend(_poly_values("kernel", cert.kernel_generators))
    out.values.extend(_poly_values("witness", [w.expression for w in cert.reexpression]))
    out.payload = cert


def _t_subalgebra_member(spec: JobSpec, out: TaskResult, target, bound):
    w = subalgebra_member(target, spec.subalgebra, bound)
    out.values.append(("bound", str(bound)))
    if w is None:
        out.verdict = "not-found-up-to-bound"
    else:
        out.verdict = "witness"
        out.values.append(("expression", str(w.expression)))


def _t_restrict(spec: JobSpec, out: TaskResult, derivation, bound):
    result = restrict_derivation(derivation, spec.subalgebra, bound)
    if isinstance(result, RestrictionFailure):
        out.verdict = "fails-to-restrict"
        out.values.append(("generator", str(result.generator)))
        out.values.append(("image", str(result.image)))
        return
    rd, wits = result
    out.verdict = "restricted"
    out.values.extend(_poly_values("image", rd.images))
    out.values.extend(_poly_values("witness", [w.expression for w in wits]))
    out.payload = rd


def _t_subalgebra_fpf(spec: JobSpec, out: TaskResult, derivation, bound):
    cof = subalgebra_fpf(restriction_of(derivation, spec.subalgebra), bound)
    out.values.append(("bound", str(bound)))
    if cof is None:
        out.verdict = "not-found-up-to-bound"
    else:
        out.verdict = "yes"
        out.values.extend(_poly_values("cofactor", cof))


def _t_kernel_up_to_degree(spec: JobSpec, out: TaskResult, derivation, bound):
    basis = kernel_up_to_degree(derivation, spec.subalgebra, bound)
    out.verdict = "ok"
    out.values.append(("bound", str(bound)))
    out.values.append(("dimension", str(len(basis))))
    out.values.extend(_poly_values("basis", basis))
    out.payload = basis


def _t_complementary_lnd(spec: JobSpec, out: TaskResult, v, u0, t, witnesses, alpha_cap,
                         member_bound, kernel_bound):
    try:
        result = complementary_lnd(spec.subalgebra, v, u0, t, witnesses, alpha_cap, member_bound,
                                   kernel_bound)
    except FailsUpToCapError as exc:
        out.verdict = "fails-up-to-cap"
        for alpha, gen, reason in exc.trace:
            out.notes.append(f"alpha {alpha}: generator {gen}: {reason}")
        return
    out.verdict = "ok"
    out.values.append(("alpha", str(result.alpha)))
    out.values.extend(_poly_values("image", result.derivation.images))
    out.values.append(("kernel-dimension", str(len(result.kernel_basis))))
    if result.reduced_by is not None:
        out.values.append(("reduced-by", str(result.reduced_by)))
    else:
        out.notes.append("irreducibility reduction skipped: quotients leave the subalgebra")
    out.payload = result


def _t_closure(spec: JobSpec, out: TaskResult, derivation, member_bound, elem_degree, factor,
               family_vars):
    """Generator-list closure oracle: images of pairwise products and an
    ideal-part monomial family must all pass bounded membership."""
    S = spec.subalgebra
    gens = S.generators
    images = (Polynomial.zero(S.context),) * len(S.base_generators) + restriction_of(derivation, S).images
    targets: list[tuple[str, Polynomial]] = []
    for i in range(len(gens)):
        for j in range(i, len(gens)):
            img = Polynomial.combine(S.context, ((images[i], gens[j]), (gens[i], images[j])))
            if not img.is_zero():
                targets.append((f"image-of-product {gens[i]} * {gens[j]}", img))
    for _, m in generator_products(family_vars, elem_degree - (factor.degree() or 0)):
        targets.append((f"element {factor * m}", factor * m))
    span = GeneratorSpan(S, member_bound)
    missing = [label for label, target in targets if not span.contains(target)]
    out.values.append(("checked", str(len(targets))))
    out.values.append(("member-bound", str(member_bound)))
    out.values.append(("element-degree", str(elem_degree)))
    if missing:
        out.verdict = "fail"
        out.values.append(("missing", str(len(missing))))
        for label in missing[:10]:
            out.notes.append(f"missing: {label}")
    else:
        out.verdict = "pass"


def _t_transcendence(spec: JobSpec, out: TaskResult, derivation, x, bound):
    transcendence_check(derivation, x, spec.subalgebra, bound)
    out.values.append(("bound", str(bound)))
    out.verdict = "no-relation"


def _t_proportionality(spec: JobSpec, out: TaskResult, d1, d, cofactors):
    S = spec.subalgebra
    result = proportionality_check(restriction_of(d1, S), restriction_of(d, S), cofactors, S)
    if result.proportional:
        out.verdict = "proportional"
        out.values.append(("factor", str(result.factor)))
    else:
        out.verdict = "counterexample"
        out.values.append(("generator", str(result.counterexample)))


def _t_fiber(spec: JobSpec, out: TaskResult, point, coords, bound):
    values: dict[str, Fraction] = {}
    for var, value in point.items():
        try:
            values[var] = Fraction(value)
        except ZeroDivisionError:
            raise LndkitError(f"fiber point value {value!r} for {var!r} has a zero denominator") from None
    check = check_fiber_witness(spec.subalgebra, FiberWitness(values, tuple(coords), bound))
    out.values.append(("bound", str(bound)))
    if check.passed:
        out.verdict = "pass"
    else:
        out.verdict = "fail"
        out.values.append(("direction", check.direction))
        out.values.append(("element", str(check.element)))


def _t_coordinates(spec: JobSpec, out: TaskResult, derivations, elements, bound):
    result = coordinate_system(derivations, elements, spec.subalgebra, bound)
    if isinstance(result, IncompleteReexpression):
        out.verdict = "incomplete"
        out.values.extend(_poly_values("missing", result.missing))
        return
    out.verdict = "ok"
    out.values.extend(_poly_values("coordinate", result.coordinates))
    out.values.extend(_poly_values("witness", [w.expression for w in result.witnesses]))
    out.payload = result


_FAMILIES = {
    "triangular-fpf": lambda seed, count, bound: run_slice_pipeline_family(seed, count, bound),
    "triangular-nonfpf": lambda seed, count, bound: _nonfpf_family(seed, count),
    "falling-factorial": lambda seed, count, bound: run_falling_factorial_family(seed, count),
    "groebner-membership": lambda seed, count, bound: run_groebner_oracle_family(seed, count),
    "projection-laws": lambda seed, count, bound: run_projection_law_family(seed, count),
}


def _nonfpf_family(seed: int, count: int):
    failures = []
    for k in range(count):
        d = random_triangular_lnd(seed + k, fpf=False)
        if is_fixed_point_free(d) is not None:
            failures.append(f"seed {seed + k}: unexpectedly fixed point free")
    return FamilyOutcome(count, failures)


def _t_random_family(spec: JobSpec, out: TaskResult, family, count, seed, bound):
    outcome = _FAMILIES[family](seed, count, bound)
    out.values.append(("family", family))
    out.values.append(("count", str(outcome.count)))
    out.values.append(("failures", str(len(outcome.failures))))
    out.verdict = "pass" if outcome.ok else "fail"
    for failure in outcome.failures[:10]:
        out.notes.append(failure)


# -- the task table ------------------------------------------------------------

BOUND = Param(POSITIVE, Default.BOUND)
FAMILY = _choice(sorted(_FAMILIES))
SOURCE = {"from": EARLIER, "derivation": DERIVATION}

TASKS: dict[str, Task] = {
    "nilpotency": _task(_t_nilpotency, derivation=AMBIENT,
                        bound=Param(NILPOTENCY_BOUND, Default.NILPOTENCY_BOUND)),
    "triangular": _task(_t_triangular, derivation=AMBIENT),
    "divergence": _task(_t_divergence, derivation=AMBIENT),
    "irreducible": _task(_t_irreducible, derivation=AMBIENT),
    "fixed_point_free": _task(_t_fixed_point_free, derivation=AMBIENT),
    "apply": _task(_t_apply, derivation=AMBIENT, poly=POLY),
    "ideal_member": _task(_t_ideal_member, target=POLY, gens=POLYS),
    "groebner_basis": _task(_t_groebner_basis, gens=POLYS,
                            order=Param(_choice(("degrevlex", "lex")), "degrevlex")),
    "find_slice": _task(_t_find_slice, derivation=DERIVATION, bound=BOUND),
    "dixmier": _task(_t_dixmier, derivation=AMBIENT, slice=POLY, arg=POLY),
    "kernel_generators": _task(_t_kernel_generators, derivation=AMBIENT, slice=POLY),
    "verify_slice_theorem": _task(_t_verify_slice_theorem, derivation=AMBIENT,
                                  slice=Param(POLY, None), slice_bound=Param(POSITIVE, 8),
                                  bound=Param(POSITIVE, Default.COMPUTED)),
    "subalgebra_member": _task(_t_subalgebra_member, target=POLY, bound=BOUND),
    "restrict": _task(_t_restrict, yields_derivation=True, derivation=AMBIENT, bound=BOUND),
    "subalgebra_fpf": _task(_t_subalgebra_fpf, derivation=SOURCE, bound=BOUND),
    "kernel_up_to_degree": _task(_t_kernel_up_to_degree, derivation=SOURCE, bound=BOUND),
    "complementary_lnd": _task(_t_complementary_lnd, coordw=True, yields_derivation=True,
                               v=POLY, u0=POLY, t=POLY,
                               alpha_cap=Param(ALPHA_CAP, 3), member_bound=POSITIVE,
                               kernel_bound=POSITIVE),
    "closure": _task(_t_closure, derivation=SOURCE, member_bound=POSITIVE,
                     elem_degree=Param(POSITIVE, 6), factor=POLY, family_vars=VARIABLES),
    "transcendence": _task(_t_transcendence, derivation=DERIVATION, x=POLY, bound=BOUND),
    "proportionality": _task(_t_proportionality, d1=DERIVATION, d=DERIVATION, cofactors=POLYS),
    "fiber": _task(_t_fiber, point=POINT, coords=POLYS, bound=BOUND),
    "coordinates": _task(_t_coordinates, derivations=AMBIENTS, elements=Param(POLYS, ()),
                         bound=BOUND),
    "random_family": _task(_t_random_family, family=FAMILY, count=POSITIVE,
                           seed=Param(INT, Default.SEED), bound=Param(POSITIVE, 8)),
}

TASK_NAMES = tuple(sorted(TASKS))


def check_task(task: TaskSpec, spec: JobSpec, index: int) -> dict[str, object]:
    """The typed arguments of the ``index``-th task of ``spec``, without defaults;
    any misfit with ``TASKS`` is a JobParseError at the task's line."""

    def fail(message: str) -> NoReturn:
        raise JobParseError(f"task {index} ({task.name}): {message}", task.line)

    entry = TASKS.get(task.name) or fail("unknown task")
    unknown = sorted(set(task.params).difference(*(p.kinds for p in entry.params.values())))
    if unknown:
        fail(f"unknown parameter {', '.join(unknown)}")
    args: dict[str, object] = {}
    for name, param in entry.params.items():
        given = [key for key in param.kinds if key in task.params]
        if len(given) > 1:
            fail(f"give only one of {', '.join(given)}")
        if given:
            kind, text = param.kinds[given[0]], task.params[given[0]]
            try:
                args[name] = kind.convert(text, spec, index)
            except (ValueError, LndkitError) as exc:
                fail(f"{given[0]}={text!r}: expected {kind.name}" + (f" ({exc})" if str(exc) else ""))
        elif param.default is Default.REQUIRED:
            fail(f"missing parameter {' or '.join(param.kinds)}")
    if not entry.coordw:
        if task.coord_witnesses:
            fail("takes no coordw records")
        return args
    n = len(spec.subalgebra.algebra_generators)
    records = sorted(task.coord_witnesses, key=lambda cw: cw.generator_index)
    if [cw.generator_index for cw in records] != list(range(1, n + 1)):
        fail(f"needs one coordw record for each algebra generator 1..{n}")
    cctx = coordinate_context(spec.context)
    try:
        args["witnesses"] = [CoordinateWitness(parse_polynomial(cw.expression, cctx), cw.power)
                             for cw in records]
    except (ValueError, LndkitError) as exc:
        fail(f"bad coordw record: {exc}")
    return args


def _arguments(task: TaskSpec, index: int, spec: JobSpec, nilpotency_bound: int,
               bound_override: int | None) -> dict[str, object]:
    """The task's checked arguments with every default filled in."""
    run_defaults = {Default.SEED: spec.seed, Default.NILPOTENCY_BOUND: nilpotency_bound,
                    Default.COMPUTED: None if spec.subalgebra.full_ring else Default.BOUND}
    args = dict(task.args)
    for name, param in TASKS[task.name].params.items():
        if name not in args:
            value = bound_override if name == "bound" and bound_override is not None else param.default
            args[name] = run_defaults.get(value, value)
            if args[name] is Default.BOUND:
                raise JobParseError(f"task {index} ({task.name}): missing parameter bound, "
                                    "and the run gives no --bound", task.line)
    return args


def run_job(
    spec: JobSpec,
    nilpotency_bound: int = DEFAULT_NILPOTENCY_BOUND,
    bound_override: int | None = None,
    seed_override: int | None = None,
) -> Report:
    """Execute every task of a job in order and return the report.

    Raises JobParseError, before any task runs, when a task has no ``bound``
    and none is given by ``bound_override``.
    """
    if seed_override is not None:
        spec = replace(spec, seed=seed_override)
    arguments = [_arguments(task, index, spec, nilpotency_bound, bound_override)
                 for index, task in enumerate(spec.tasks, start=1)]
    report = Report(spec.name, spec.seed, notes=list(spec.notes))
    for index, (task, args) in enumerate(zip(spec.tasks, arguments), start=1):
        result = TaskResult(index, task.name, params=sorted(task.params.items()))
        started = time.perf_counter()
        try:
            for key, ref in args.items():
                if isinstance(ref, TaskRef):
                    payload = report.tasks[ref - 1].payload
                    args[key] = getattr(payload, "derivation", payload)
                    if not isinstance(args[key], RestrictedDerivation):
                        raise LndkitError(f"task {ref} produced no derivation")
            TASKS[task.name].handler(spec, result, **args)
        except LndkitError as exc:
            result.error = str(exc)
        except (ValueError, KeyError) as exc:
            result.error = f"{type(exc).__name__}: {exc}"
        except AssertionError as exc:
            # An InvariantError: a failed internal invariant, such as a
            # witness that did not re-verify.
            result.error = f"internal: {str(exc) or type(exc).__name__}"
            result.internal = True
        except Exception as exc:
            # A bug such as a ZeroDivisionError, TypeError or
            # RecursionError: loud, but the remaining tasks still run.
            result.error = f"internal: {type(exc).__name__}: {exc}"
            result.internal = True
        if result.error is not None:
            # Nothing a failed task produced may reach the report.
            result.verdict, result.values, result.notes, result.payload = None, [], [], None
        result.elapsed_ms = (time.perf_counter() - started) * 1000.0
        report.tasks.append(result)
    return report
