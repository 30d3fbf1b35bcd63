"""Task dispatch: execute a parsed job and emit a deterministic report.

Each task runs in isolation; precondition violations become per-task
failures rather than aborting the process.  Tasks can consume an earlier
task's payload through ``from=<task index>`` (the witness-guided builds
feed the later bounded searches this way).
"""

from __future__ import annotations

import time
from fractions import Fraction

from ..derivation import (
    DEFAULT_NILPOTENCY_BOUND,
    Derivation,
    divergence,
    is_fixed_point_free,
    is_irreducible,
    is_triangular,
    nilpotency_verdict,
)
from ..errors import FailsUpToCapError, LndkitError
from ..groebner import buchberger, ideal_member
from ..ordering import MonomialOrder
from ..parse import parse_polynomial
from ..polynomial import Polynomial
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
    kernel_up_to_degree,
    restrict_derivation,
    restriction_of,
    subalgebra_fpf,
    subalgebra_member,
)
from .fiber import FiberCheck, FiberWitness, check_fiber_witness
from .jobs import JobSpec, TaskSpec
from .randgen import (
    FamilyOutcome,
    TriangularProfile,
    random_triangular_lnd,
    run_falling_factorial_family,
    run_groebner_oracle_family,
    run_projection_law_family,
    run_slice_pipeline_family,
)
from .report import Report, TaskResult


class _Run:
    def __init__(self, spec: JobSpec, nilpotency_bound: int, bound_override: int | None):
        self.spec = spec
        self.nilpotency_bound = nilpotency_bound
        self.bound_override = bound_override
        self.results: dict[int, TaskResult] = {}

    # -- parameter access ---------------------------------------------------

    def poly(self, text: str) -> Polynomial:
        return parse_polynomial(text, self.spec.context)

    def poly_list(self, text: str) -> list[Polynomial]:
        return [self.poly(p.strip()) for p in text.split(";") if p.strip()]

    def int_param(self, task: TaskSpec, key: str, default: int | None = None) -> int:
        if key not in task.params:
            if key == "bound" and self.bound_override is not None:
                return self.bound_override
            if default is None:
                raise LndkitError(f"task {task.name!r} needs parameter {key!r}")
            return default
        return int(task.params[key])

    def str_param(self, task: TaskSpec, key: str, default: str | None = None) -> str:
        if key not in task.params:
            if default is None:
                raise LndkitError(f"task {task.name!r} needs parameter {key!r}")
            return default
        return task.params[key]

    def ambient_derivation(self, name: str) -> Derivation:
        try:
            return self.spec.derivations[name]
        except KeyError:
            raise LndkitError(f"{name!r} is not an ambient derivation") from None

    def restricted_derivation(self, task: TaskSpec, key: str = "derivation") -> RestrictedDerivation:
        if "from" in task.params:
            payload = self.payload(task)
            if isinstance(payload, RestrictedDerivation):
                return payload
            rd = getattr(payload, "derivation", None)
            if isinstance(rd, RestrictedDerivation):
                return rd
            raise LndkitError("referenced task did not produce a derivation")
        return restriction_of(self.derivation(task, key), self.spec.subalgebra)

    def derivation(self, task: TaskSpec, key: str = "derivation") -> Derivation | RestrictedDerivation:
        """The derivation named by ``key``: a generator derivation lives on the
        job's subalgebra, any other on the ambient ring."""
        name = self.str_param(task, key)
        if name in self.spec.generator_derivations:
            return RestrictedDerivation(self.spec.subalgebra, self.spec.generator_derivations[name])
        return self.ambient_derivation(name)

    def payload(self, task: TaskSpec):
        index = int(task.params["from"])
        result = self.results.get(index)
        if result is None or result.payload is None:
            raise LndkitError(f"task {index} produced no reusable payload")
        return result.payload


def _poly_values(key: str, polys) -> list[tuple[str, str]]:
    return [(f"{key}.{i + 1}", str(p)) for i, p in enumerate(polys)]


# -- task handlers -------------------------------------------------------------


def _t_nilpotency(run: _Run, task: TaskSpec, out: TaskResult):
    d = run.ambient_derivation(run.str_param(task, "derivation"))
    bound = run.int_param(task, "bound", run.nilpotency_bound)
    v = nilpotency_verdict(d, bound)
    out.verdict = v.status
    out.values.append(("bound", str(bound)))
    if v.certified:
        for name in d.context.main_vars:
            out.values.append((f"index.{name}", str(v.indices[name])))


def _t_triangular(run: _Run, task: TaskSpec, out: TaskResult):
    d = run.ambient_derivation(run.str_param(task, "derivation"))
    order = is_triangular(d)
    if order is None:
        out.verdict = "not-triangular"
    else:
        out.verdict = "triangular"
        out.values.append(("order", " < ".join(order)))


def _t_divergence(run: _Run, task: TaskSpec, out: TaskResult):
    d = run.ambient_derivation(run.str_param(task, "derivation"))
    out.verdict = "ok"
    out.values.append(("divergence", str(divergence(d))))


def _t_irreducible(run: _Run, task: TaskSpec, out: TaskResult):
    d = run.ambient_derivation(run.str_param(task, "derivation"))
    ok, g = is_irreducible(d)
    out.verdict = "yes" if ok else "no"
    if g is not None:
        out.values.append(("common-divisor", str(g)))


def _t_fixed_point_free(run: _Run, task: TaskSpec, out: TaskResult):
    d = run.ambient_derivation(run.str_param(task, "derivation"))
    witness = is_fixed_point_free(d)
    if witness is None:
        out.verdict = "no"
    else:
        out.verdict = "yes"
        for name in d.context.main_vars:
            if name in witness:
                out.values.append((f"cofactor.{name}", str(witness[name])))


def _t_apply(run: _Run, task: TaskSpec, out: TaskResult):
    d = run.ambient_derivation(run.str_param(task, "derivation"))
    p = run.poly(run.str_param(task, "poly"))
    out.verdict = "ok"
    out.values.append(("image", str(d.apply(p))))


def _t_ideal_member(run: _Run, task: TaskSpec, out: TaskResult):
    target = run.poly(run.str_param(task, "target"))
    gens = run.poly_list(run.str_param(task, "gens"))
    cof = ideal_member(target, gens)
    if cof is None:
        out.verdict = "no"
    else:
        out.verdict = "yes"
        out.values.extend(_poly_values("cofactor", cof))


def _t_groebner_basis(run: _Run, task: TaskSpec, out: TaskResult):
    gens = run.poly_list(run.str_param(task, "gens"))
    kind = run.str_param(task, "order", "degrevlex")
    if kind == "lex":
        order = MonomialOrder.lex(run.spec.context)
    elif kind == "degrevlex":
        order = MonomialOrder.degrevlex(run.spec.context)
    else:
        raise LndkitError(f"unknown order {kind!r}")
    gb = buchberger(gens, order)
    out.verdict = "ok"
    out.values.append(("order", kind))
    out.values.extend(_poly_values("basis", gb.generators))
    for i, row in enumerate(gb.cofactors):
        for j, c in enumerate(row):
            if not c.is_zero():
                out.values.append((f"cofactor.{i + 1}.{j + 1}", str(c)))


def _t_find_slice(run: _Run, task: TaskSpec, out: TaskResult):
    d = run.derivation(task)
    bound = run.int_param(task, "bound")
    s = find_slice(d, run.spec.subalgebra, bound)
    if s is None:
        out.verdict = "none-up-to-bound"
        out.values.append(("bound", str(bound)))
    else:
        out.verdict = "slice"
        out.values.append(("slice", str(s)))
        out.payload = s


def _t_dixmier(run: _Run, task: TaskSpec, out: TaskResult):
    d = run.ambient_derivation(run.str_param(task, "derivation"))
    s = run.poly(run.str_param(task, "slice"))
    a = run.poly(run.str_param(task, "arg"))
    out.verdict = "ok"
    out.values.append(("image", str(dixmier(d, s, a))))


def _t_kernel_generators(run: _Run, task: TaskSpec, out: TaskResult):
    d = run.ambient_derivation(run.str_param(task, "derivation"))
    s = run.poly(run.str_param(task, "slice"))
    gens = kernel_generators(d, s, run.spec.subalgebra)
    out.verdict = "ok"
    out.values.extend(_poly_values("generator", gens))


def _t_verify_slice_theorem(run: _Run, task: TaskSpec, out: TaskResult):
    d = run.ambient_derivation(run.str_param(task, "derivation"))
    S = run.spec.subalgebra
    if "slice" in task.params:
        s = run.poly(task.params["slice"])
    else:
        s = find_slice(d, S, run.int_param(task, "slice_bound", 8))
        if s is None:
            out.verdict = "none-up-to-bound"
            return
    bound = int(task.params["bound"]) if "bound" in task.params else None
    cert = verify_slice_theorem(d, s, S, bound)
    if isinstance(cert, IncompleteReexpression):
        out.verdict = "incomplete"
        out.values.extend(_poly_values("missing", cert.missing))
        return
    out.verdict = "certificate"
    out.values.append(("slice", str(cert.slice)))
    out.values.append(("bound", str(cert.bound)))
    out.values.extend(_poly_values("kernel", cert.kernel_generators))
    for g, w in zip(S.algebra_generators, cert.reexpression):
        out.values.append((f"witness.{g}", str(w.expression)))
    out.payload = cert


def _t_subalgebra_member(run: _Run, task: TaskSpec, out: TaskResult):
    target = run.poly(run.str_param(task, "target"))
    bound = run.int_param(task, "bound")
    w = subalgebra_member(target, run.spec.subalgebra, bound)
    out.values.append(("bound", str(bound)))
    if w is None:
        out.verdict = "not-found-up-to-bound"
    else:
        out.verdict = "witness"
        out.values.append(("expression", str(w.expression)))


def _t_restrict(run: _Run, task: TaskSpec, out: TaskResult):
    d = run.ambient_derivation(run.str_param(task, "derivation"))
    bound = run.int_param(task, "bound")
    result = restrict_derivation(d, run.spec.subalgebra, bound)
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


def _t_subalgebra_fpf(run: _Run, task: TaskSpec, out: TaskResult):
    rd = run.restricted_derivation(task)
    bound = run.int_param(task, "bound")
    cof = subalgebra_fpf(rd, bound)
    out.values.append(("bound", str(bound)))
    if cof is None:
        out.verdict = "not-found-up-to-bound"
    else:
        out.verdict = "yes"
        out.values.extend(_poly_values("cofactor", cof))


def _t_kernel_up_to_degree(run: _Run, task: TaskSpec, out: TaskResult):
    bound = run.int_param(task, "bound")
    d = run.restricted_derivation(task) if "from" in task.params else run.derivation(task)
    basis = kernel_up_to_degree(d, run.spec.subalgebra, bound)
    out.verdict = "ok"
    out.values.append(("bound", str(bound)))
    out.values.append(("dimension", str(len(basis))))
    out.values.extend(_poly_values("basis", basis))
    out.payload = basis


def _t_complementary_lnd(run: _Run, task: TaskSpec, out: TaskResult):
    S = run.spec.subalgebra
    ctx = run.spec.context
    cctx = coordinate_context(ctx)
    v = run.poly(run.str_param(task, "v"))
    u0 = run.poly(run.str_param(task, "u0"))
    t = run.poly(run.str_param(task, "t"))
    if len(task.coord_witnesses) != len(S.algebra_generators):
        raise LndkitError(
            f"complementary_lnd needs one coordw record per algebra generator "
            f"({len(S.algebra_generators)} expected, {len(task.coord_witnesses)} given)"
        )
    by_index = {}
    for cw in task.coord_witnesses:
        if cw.generator_index in by_index:
            raise LndkitError(f"duplicate coordw record for generator {cw.generator_index}")
        by_index[cw.generator_index] = CoordinateWitness(
            parse_polynomial(cw.expression, cctx), cw.power
        )
    witnesses = []
    for i in range(1, len(S.algebra_generators) + 1):
        if i not in by_index:
            raise LndkitError(f"missing coordw record for generator {i}")
        witnesses.append(by_index[i])
    try:
        result = complementary_lnd(
            S,
            v,
            u0,
            t,
            witnesses,
            alpha_cap=run.int_param(task, "alpha_cap", 3),
            member_bound=run.int_param(task, "member_bound"),
            kernel_bound=run.int_param(task, "kernel_bound"),
        )
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


def _t_closure(run: _Run, task: TaskSpec, out: TaskResult):
    """Generator-list closure oracle: images of pairwise products and an
    ideal-part monomial family must all pass bounded membership."""
    S = run.spec.subalgebra
    rd = run.restricted_derivation(task)
    member_bound = run.int_param(task, "member_bound")
    elem_degree = run.int_param(task, "elem_degree", 6)
    factor = run.poly(run.str_param(task, "factor"))
    family_vars = [v.strip() for v in run.str_param(task, "family_vars").split(";") if v.strip()]
    span = GeneratorSpan(S, member_bound)
    targets: list[tuple[str, Polynomial]] = []
    gens = S.generators
    nbase = len(S.base_generators)
    images = [Polynomial.zero(S.context)] * nbase + list(rd.images)
    for i in range(len(gens)):
        for j in range(i, len(gens)):
            img = gens[i] * images[j] + gens[j] * images[i]
            if not img.is_zero():
                targets.append((f"image-of-product {gens[i]} * {gens[j]}", img))
    fdeg = factor.degree() or 0
    names = list(family_vars)

    def monomials(budget, k):
        if k == len(names):
            yield Polynomial.one(S.context)
            return
        v = Polynomial.variable(S.context, names[k])
        for e in range(budget + 1):
            for rest in monomials(budget - e, k + 1):
                yield v ** e * rest

    for m in monomials(elem_degree - fdeg, 0):
        targets.append((f"element {factor * m}", factor * m))
    missing = []
    for label, target in targets:
        if not span.contains(target):
            missing.append(label)
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


def _t_transcendence(run: _Run, task: TaskSpec, out: TaskResult):
    d = run.derivation(task)
    x = run.poly(run.str_param(task, "x"))
    bound = run.int_param(task, "bound")
    result = transcendence_check(d, x, run.spec.subalgebra, bound)
    out.values.append(("bound", str(bound)))
    if result.no_relation:
        out.verdict = "no-relation"
    else:
        out.verdict = "relation"
        out.values.extend(_poly_values("coefficient", result.relation))


def _t_proportionality(run: _Run, task: TaskSpec, out: TaskResult):
    S = run.spec.subalgebra
    d1 = restriction_of(run.derivation(task, "d1"), S)
    d = restriction_of(run.derivation(task, "d"), S)
    cof = run.poly_list(run.str_param(task, "cofactors"))
    result = proportionality_check(d1, d, cof, S)
    if result.proportional:
        out.verdict = "proportional"
        out.values.append(("factor", str(result.factor)))
    else:
        out.verdict = "counterexample"
        out.values.append(("generator", str(result.counterexample)))


def _t_fiber(run: _Run, task: TaskSpec, out: TaskResult):
    point: dict[str, Fraction] = {}
    for chunk in run.str_param(task, "point").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        var, _, val = (part.strip() for part in chunk.partition("="))
        try:
            point[var] = Fraction(val)
        except ZeroDivisionError:
            raise LndkitError(f"fiber point value {val!r} for {var!r} has a zero denominator") from None
    coords = tuple(run.poly_list(run.str_param(task, "coords")))
    bound = run.int_param(task, "bound")
    witness = FiberWitness(point, coords, bound)
    check: FiberCheck = check_fiber_witness(run.spec.subalgebra, witness)
    out.values.append(("bound", str(bound)))
    if check.passed:
        out.verdict = "pass"
    else:
        out.verdict = "fail"
        out.values.append(("direction", check.direction))
        out.values.append(("element", str(check.element)))


def _t_coordinates(run: _Run, task: TaskSpec, out: TaskResult):
    names = [n.strip() for n in run.str_param(task, "derivations").split(";") if n.strip()]
    derivs = [run.ambient_derivation(n) for n in names]
    elements = run.poly_list(run.str_param(task, "elements", ""))
    bound = run.int_param(task, "bound")
    result = coordinate_system(derivs, elements, run.spec.subalgebra, bound)
    if isinstance(result, IncompleteReexpression):
        out.verdict = "incomplete"
        out.values.extend(_poly_values("missing", result.missing))
        return
    out.verdict = "ok"
    out.values.extend(_poly_values("coordinate", result.coordinates))
    for g, w in zip(run.spec.subalgebra.algebra_generators, result.witnesses):
        out.values.append((f"witness.{g}", str(w.expression)))
    out.payload = result


_FAMILIES = {
    "triangular-fpf": lambda seed, count, bound: run_slice_pipeline_family(
        seed, count, TriangularProfile(fpf=True), bound
    ),
    "triangular-nonfpf": lambda seed, count, bound: _nonfpf_family(seed, count),
    "falling-factorial": lambda seed, count, bound: run_falling_factorial_family(seed, count),
    "groebner-membership": lambda seed, count, bound: run_groebner_oracle_family(seed, count),
    "projection-laws": lambda seed, count, bound: run_projection_law_family(seed, count),
}


def _nonfpf_family(seed: int, count: int):
    failures = []
    for k in range(count):
        d = random_triangular_lnd(seed + k, TriangularProfile(fpf=False))
        if is_fixed_point_free(d) is not None:
            failures.append(f"seed {seed + k}: unexpectedly fixed point free")
    return FamilyOutcome(count, failures)


def _t_random_family(run: _Run, task: TaskSpec, out: TaskResult):
    family = run.str_param(task, "family")
    if family not in _FAMILIES:
        raise LndkitError(f"unknown family {family!r}")
    count = run.int_param(task, "count")
    seed = run.int_param(task, "seed", run.spec.seed)
    bound = run.int_param(task, "bound", 8)
    outcome = _FAMILIES[family](seed, count, bound)
    out.values.append(("family", family))
    out.values.append(("count", str(outcome.count)))
    out.values.append(("failures", str(len(outcome.failures))))
    out.verdict = "pass" if outcome.ok else "fail"
    for failure in outcome.failures[:10]:
        out.notes.append(failure)


_HANDLERS = {
    "nilpotency": _t_nilpotency,
    "triangular": _t_triangular,
    "divergence": _t_divergence,
    "irreducible": _t_irreducible,
    "fixed_point_free": _t_fixed_point_free,
    "apply": _t_apply,
    "ideal_member": _t_ideal_member,
    "groebner_basis": _t_groebner_basis,
    "find_slice": _t_find_slice,
    "dixmier": _t_dixmier,
    "kernel_generators": _t_kernel_generators,
    "verify_slice_theorem": _t_verify_slice_theorem,
    "subalgebra_member": _t_subalgebra_member,
    "restrict": _t_restrict,
    "subalgebra_fpf": _t_subalgebra_fpf,
    "kernel_up_to_degree": _t_kernel_up_to_degree,
    "complementary_lnd": _t_complementary_lnd,
    "closure": _t_closure,
    "transcendence": _t_transcendence,
    "proportionality": _t_proportionality,
    "fiber": _t_fiber,
    "coordinates": _t_coordinates,
    "random_family": _t_random_family,
}

TASK_NAMES = tuple(sorted(_HANDLERS))


def run_job(
    spec: JobSpec,
    nilpotency_bound: int = DEFAULT_NILPOTENCY_BOUND,
    bound_override: int | None = None,
    seed_override: int | None = None,
) -> Report:
    """Execute every task of a job in order and return the report."""
    if seed_override is not None:
        spec = JobSpec(**{**spec.__dict__, "seed": seed_override})
    run = _Run(spec, nilpotency_bound, bound_override)
    report = Report(spec.name, spec.seed, notes=list(spec.notes))
    for index, task in enumerate(spec.tasks, start=1):
        handler = _HANDLERS.get(task.name)
        result = TaskResult(index, task.name)
        for key in sorted(task.params):
            result.params.append((key, task.params[key]))
        started = time.perf_counter()
        if handler is None:
            result.error = f"unknown task {task.name!r}"
        else:
            try:
                handler(run, task, result)
            except LndkitError as exc:
                result.error = str(exc)
            except (ValueError, KeyError) as exc:
                result.error = f"{type(exc).__name__}: {exc}"
            except AssertionError as exc:
                # A failed internal invariant, such as a witness that did not
                # re-verify.
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
        run.results[index] = result
        report.tasks.append(result)
    return report
