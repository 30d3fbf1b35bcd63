"""The three benchmark workloads: seeded inputs, timed operations, output gates.

A workload builds one fixed *op set* from the workload seed alone; a run
repeats it in passes.  Each :class:`Op` has a ``run``
callable (the timed call into lndkit) and a ``check`` callable (the output
gate, run outside the timed region).  ``check`` returns ``None`` when the
output is verified, ``("failed", reason)`` when the program reported an
error or emitted an invalid report, and ``("wrong", reason)`` when an
output contradicts the expected result or the independent oracle.

Operations look lndkit functions up through their modules at call time, so
the traced run sees the wrapped bindings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], "tuple[str, str] | None"]
    expected: Any = None
    meta: dict = field(default_factory=dict)


def _rng(seed: int, stream: int) -> random.Random:
    return random.Random(seed * 7 + stream)


# -- slice-pipeline ------------------------------------------------------------

SLICE_FAMILIES = ("triangular-fpf", "triangular-nonfpf", "projection-laws", "falling-factorial")


class SlicePipeline:
    """One op: one instance seed through the four derivation families at count=1."""

    name = "slice-pipeline"
    size = 120

    def __init__(self, seed: int):
        from lndkit.harness import runner

        self.runner = runner
        self.seed = seed

    def build_ops(self) -> list[Op]:
        rng = _rng(self.seed, 1)
        return [self._op(rng.randrange(1, 2**31)) for _ in range(self.size)]

    def _op(self, instance_seed: int) -> Op:
        runner = self.runner

        def run():
            families = runner._FAMILIES
            return {name: families[name](instance_seed, 1, 8) for name in SLICE_FAMILIES}

        def check(outcomes):
            for name in SLICE_FAMILIES:
                outcome = outcomes[name]
                verdict = "pass" if outcome.ok and outcome.count == 1 else "fail"
                if verdict != op.expected[name]:
                    return ("wrong", f"{name} seed {instance_seed}: {outcome.failures[:1]}")
            return None

        op = Op(f"seed {instance_seed}", run, check, {name: "pass" for name in SLICE_FAMILIES})
        return op


# -- elimination ---------------------------------------------------------------


def _rand_coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([n for n in range(-4, 5) if n]), rng.choice([1, 1, 2]))


def _rand_poly(P, rng, ctx, degree: int, terms: int, lo: int = 1):
    out = {}
    for _ in range(rng.randint(lo, terms)):
        mono = [0] * ctx.nvars
        for _ in range(rng.randint(0, degree)):
            mono[rng.randrange(ctx.nvars)] += 1
        out[tuple(mono)] = _rand_coeff(rng)
    return P(ctx, out)


def _nonconstant(P, rng, ctx, degree: int, terms: int):
    while True:
        p = _rand_poly(P, rng, ctx, degree, terms)
        if not p.is_constant():
            return p


def katsura(lk, n: int):
    names = tuple(f"u{i}" for i in range(n + 1))
    ctx = lk.VarContext((), names)
    P = lk.Polynomial
    u = [P.variable(ctx, v) for v in names]

    def U(i):
        return u[abs(i)] if abs(i) <= n else P.zero(ctx)

    eqs = [u[0] + sum((u[i] * 2 for i in range(1, n + 1)), P.zero(ctx)) - 1]
    for m in range(n):
        acc = P.zero(ctx)
        for l in range(-n, n + 1):
            acc = acc + U(l) * U(m - l)
        eqs.append(acc - u[m])
    return ctx, eqs


def cyclic(lk, n: int):
    names = tuple(f"x{i}" for i in range(1, n + 1))
    ctx = lk.VarContext((), names)
    P = lk.Polynomial
    x = [P.variable(ctx, v) for v in names]
    eqs = []
    for k in range(1, n):
        acc = P.zero(ctx)
        for i in range(n):
            term = P.one(ctx)
            for j in range(k):
                term = term * x[(i + j) % n]
            acc = acc + term
        eqs.append(acc)
    prod = P.one(ctx)
    for xi in x:
        prod = prod * xi
    eqs.append(prod - 1)
    return ctx, eqs


class SympyOracle:
    """Independent checks through sympy over QQ (imported outside set-up)."""

    def __init__(self):
        import sympy

        self.sympy = sympy
        self._bases: dict[tuple, frozenset] = {}

    def poly(self, p, ctx):
        sp = self.sympy
        gens = sp.symbols(ctx.variables)
        terms = {m: sp.Rational(c.numerator, c.denominator) for m, c in p.terms.items()}
        return sp.Poly.from_dict(terms or {(0,) * ctx.nvars: 0}, *gens, domain="QQ")

    def reduced_basis(self, key, ctx, eqs, kind: str) -> frozenset:
        if key not in self._bases:
            sp = self.sympy
            order = "grevlex" if kind == "degrevlex" else "lex"
            G = sp.groebner([self.poly(e, ctx) for e in eqs], *sp.symbols(ctx.variables),
                            order=order, domain="QQ")
            self._bases[key] = frozenset(sp.Poly(g, *G.gens, domain="QQ").monic() for g in G.exprs)
        return self._bases[key]

    def contains(self, target, gens, ctx) -> bool:
        sp = self.sympy
        G = sp.groebner([self.poly(g, ctx) for g in gens], *sp.symbols(ctx.variables),
                        order="grevlex", domain="QQ")
        return G.contains(self.poly(target, ctx).as_expr())

    def gcd_monic(self, p, q, ctx):
        return self.sympy.gcd(self.poly(p, ctx), self.poly(q, ctx)).monic()


class Elimination:
    """Membership, Buchberger on fixed systems, and gcd with a planted factor."""

    name = "elimination"
    members = 600
    gcds = 80

    def __init__(self, seed: int):
        import lndkit as lk
        from lndkit import groebner, polygcd

        self.lk = lk
        self.groebner = groebner
        self.polygcd = polygcd
        self.seed = seed
        self.oracle = None
        k_ctx, k_eqs = katsura(lk, 4)
        c_ctx, c_eqs = cyclic(lk, 4)
        self.systems = [
            ("katsura-4", "degrevlex", k_ctx, k_eqs),
            ("cyclic-4", "degrevlex", c_ctx, c_eqs),
            ("cyclic-4", "lex", c_ctx, c_eqs),
        ]
        self.plane = lk.VarContext((), ("X", "Y"))
        self.space = lk.VarContext((), ("x", "y", "z"))

    def attach_oracle(self, oracle: SympyOracle):
        self.oracle = oracle

    def build_ops(self) -> list[Op]:
        rng = _rng(self.seed, 2)
        ops = [self._basis_op(*system) for system in self.systems]
        ops += [self._member_op(rng) for _ in range(self.members)]
        ops += [self._gcd_op(rng) for _ in range(self.gcds)]
        return ops

    def _basis_op(self, name, kind, ctx, eqs) -> Op:
        gb_mod = self.groebner
        order = getattr(self.lk.MonomialOrder, kind)(ctx)

        def run():
            return gb_mod.buchberger(eqs, order)

        def check(gb):
            want = self.oracle.reduced_basis((name, kind), ctx, eqs, kind)
            got = frozenset(self.oracle.poly(g, ctx).monic() for g in gb.generators)
            if got != want or len(gb.generators) != len(want):
                return ("wrong", f"{name} {kind}: reduced basis differs from the oracle")
            return None

        return Op(f"buchberger {name} {kind}", run, check, meta={"kind": "buchberger"})

    def _member_op(self, rng) -> Op:
        P, ctx = self.lk.Polynomial, self.plane
        gens = [_rand_poly(P, rng, ctx, 3, 3) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        target = _rand_poly(P, rng, ctx, 3, 3, lo=0)
        forced = rng.random() < 0.4
        if forced:
            target = gens[0] * _rand_poly(P, rng, ctx, 2, 2, lo=0)
        gb_mod = self.groebner

        def run():
            return gb_mod.ideal_member(target, gens)

        def check(cof):
            oracle = self.oracle
            verdict = "no" if cof is None else "yes"
            if op.expected is not None and verdict != op.expected:
                return ("wrong", f"membership of {target}: expected {op.expected}, got {verdict}")
            if verdict == "yes":
                acc = oracle.poly(target, ctx) * 0
                for c, g in zip(cof, gens):
                    acc += oracle.poly(c, ctx) * oracle.poly(g, ctx)
                if len(cof) != len(gens) or acc != oracle.poly(target, ctx):
                    return ("wrong", f"membership cofactors of {target} do not recombine")
            else:
                if "oracle" not in op.meta:
                    op.meta["oracle"] = oracle.contains(target, gens, ctx)
                if op.meta["oracle"]:
                    return ("wrong", f"membership of {target}: oracle says yes, engine no")
            return None

        op = Op(f"ideal_member {target}", run, check, "yes" if forced else None,
                meta={"kind": "ideal_member"})
        return op

    def _gcd_op(self, rng) -> Op:
        P, ctx = self.lk.Polynomial, self.space
        planted = _nonconstant(P, rng, ctx, 3, 4)
        p = planted * _nonconstant(P, rng, ctx, 3, 4)
        q = planted * _nonconstant(P, rng, ctx, 3, 4)
        gcd_mod = self.polygcd

        def run():
            return gcd_mod.gcd(p, q)

        def check(g):
            oracle = self.oracle
            got = oracle.poly(g, ctx)
            if "oracle" not in op.meta:
                op.meta["oracle"] = oracle.gcd_monic(p, q, ctx)
            if got.is_zero or got.monic() != op.meta["oracle"]:
                return ("wrong", f"gcd({p}, {q}) = {g} differs from the oracle")
            if not oracle.sympy.rem(got, oracle.poly(op.expected, ctx)).is_zero:
                return ("wrong", f"gcd({p}, {q}) = {g} misses the planted factor")
            return None

        op = Op(f"gcd {p} ; {q}", run, check, planted, meta={"kind": "gcd"})
        return op


# -- corpus-replay -------------------------------------------------------------


class CorpusReplay:
    """One op: one shipped corpus entry without the ``random`` tag, text to validated report."""

    name = "corpus-replay"

    def __init__(self, seed: int):
        import lndkit
        from lndkit.harness import corpus, jobs, report

        self.corpus, self.jobs, self.report = corpus, jobs, report
        self.seed = seed
        directory = Path(lndkit.__file__).parent / "data" / "corpus"
        self.entries = [
            (path, path.read_text())
            for path, spec in corpus.load_corpus(directory)
            if "random" not in spec.tags
        ]

    def build_ops(self) -> list[Op]:
        return [self._op(path, text) for path, text in self.entries]

    def _op(self, path: Path, text: str) -> Op:
        corpus, jobs, report = self.corpus, self.jobs, self.report

        def run():
            spec = jobs.parse_job(op.expected)
            outcome = corpus.run_entry(spec, path)
            report_text = outcome.report.to_text()
            return outcome, report.validate_report_text(report_text)

        def check(result):
            outcome, problems = result
            bad = [c for c in outcome.checks if not c.ok]
            if bad:
                return ("wrong", f"{path.stem}: task {bad[0].task_index} {bad[0].key} "
                                 f"expected {bad[0].expected}, got {bad[0].actual}")
            errors = [t for t in outcome.report.tasks if t.error is not None]
            if errors:
                return ("failed", f"{path.stem}: task {errors[0].index} error {errors[0].error}")
            if problems:
                return ("failed", f"{path.stem}: report fails the schema: {problems[0]}")
            return None

        op = Op(path.stem, run, check, text)
        return op


WORKLOADS = {w.name: w for w in (SlicePipeline, Elimination, CorpusReplay)}
