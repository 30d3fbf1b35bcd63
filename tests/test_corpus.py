"""The shipped corpus must pass in full, deterministically, in any order."""

import hashlib

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


# sha256 of each entry's comparable_text, pinned so that refactors of the
# derivation, projection and solver code keep every report byte-identical.
REPORT_DIGESTS = {
    "a1-prop-01": "8b6f4dbfa6a369d59b43bedf619bc8609910f72213704770515cf27e014f8ddf",
    "a1-prop-02": "92f4fa60976b3c9825c8cab0057a19f7b833ca71d46e44b8849cd7b57ae19134",
    "a1-prop-03": "bb40464c344728fbbeba9153ffb329db1f65bd2d97a08c3f8e9a1fa74fbc6768",
    "a1-prop-04": "3107e61e963f7a12cfe96da755063c6acb2997b6d9ded5a9a30934eccd7e810e",
    "a1-prop-05": "8dc10d4298b740a2c536659a1628abea7125042088071915bc42901d0e4d38b0",
    "a1-prop-06": "628b24f93202a3fe74b5eee9c8f41a4dd84d29462a3636b15fb4ff88bf7d1c6c",
    "a1-prop-07": "ad2daec94a0df537ea783215541c18d1d3fc261b0e58e9b139c1a24bfad2f2bd",
    "a1-prop-08": "b30c9b50c571e8198a196ce2c67d14dfbba62bf2da0e6da96d7ecba3cfbd3e7b",
    "a1-prop-09": "67227f5a8628c960b644cc7d1abb839e3559a0cc8a1bf0e389fcff92cd558750",
    "a1-prop-10": "cc6d9907af2bcb31a91df7b32053ebfc0272f65ed183a9e131a9f0ee3ed933a2",
    "a1-prop-11": "5d0aec3efc0b0c4b2bbc5d52a243d818c30bd1222ef2ed222d586ec8355deb82",
    "a1-prop-12": "044da29c4b9f09f74727ffda0c04e966b0fe7ab6eda336416f8cb46d5b044ad1",
    "a1-prop-13": "5173d5401d9283257228188ce5d2ffec97db77e69132468b3d4bea708b00eed9",
    "a1-prop-14": "a2688a92d54d068cd37e7bfc9c7a1e11af7007c64961fc0b4a66671af5ba5dc8",
    "a1-prop-15": "fae0b87c5a5b121ddba7ee64d7bcc97c45dba53df713a9efe2710ec30dacb126",
    "a1-prop-16": "fe4c8c653ea264ea9e793cff7a3d325fbe52a5e96b8f3e7417af1051b5b02c19",
    "a1-prop-17": "ce6074209dedb713c5d28487b291eba44bf244dd2e07d577e04008d055953e4f",
    "a1-prop-18": "7680dc2edac3e621b3737c50032c921a5422d2a7ecff2376216894dd3482e222",
    "a1-prop-19": "6c60dd5b2696e0ebfcc40e66fd7eb0271c505dee581b34b606960a0c69373870",
    "a1-prop-20": "3b1255de37f1d07968920126c006037df54478a56e75c6f8b159ab47fb1ee37b",
    "a2-pair": "1b08b201597041560c0d56c3448c395858c1c929b8a156b2c11c00e59d194d2a",
    "a3-tuple": "a3ff68c6167a79621c0ec21361f6d208c9c4b22f1472f2ec569bbd5c2792c59d",
    "asanuma-bhatwadekar": "3b231613fad66d6d727a4fffbfc8f575e77d790367bfc8ba39e46c89ae0f7e9d",
    "falling-factorial-family": "d8f70f7ee2d1719382f81b9568ce186412380761fa8baaecc0709cb127c7e109",
    "groebner-golden": "4fa41d3c1d1f0ada7ac7c8c73d39b60121ba3341c9f1051c0177c34c29e61b01",
    "groebner-oracle-family": "8c08204dca59a39a5a1a0536c852721900de9877d49c3cc3025c37811fadbba9",
    "negative-control": "1596eff82281837f85adc3366b4da29d97e7ca8e8adc7fdb97201d3ff4bd7130",
    "nodal-base-fibration": "cb16ecf66b73355f351c0b4a51a5b9d002baae6873766afabd16d7666c9d920e",
    "partial-derivative": "e997478d42c472f3c322686a6d941226ac48e543c3f086bd15e334bdd136d4dc",
    "projection-laws-family": "a90542e7d6e868bc09be696991a72383623c7af19055e11feb8c88fb8ec9f8be",
    "stably-polynomial-nontrivial": "df9c87e10ab860f85a86c8b8788b60ee833cf8602c4f69aa03e5a8ca10478e5a",
    "triangular-fpf-family": "ee6e3294712b7fd05496a72be544ecf7ddd5b5c15e6c93757e453aeb69d502da",
    "worked-t-slice": "385455af185da4890ea7bd254ee480dc2c06e2047e6ff0819eb3c30b7088419d",
}


def test_every_entry_report_matches_its_pinned_digest(corpus_outcomes):
    digests = {o.identifier: hashlib.sha256(o.report.comparable_text().encode()).hexdigest()
               for o in corpus_outcomes}
    assert digests == REPORT_DIGESTS


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


def test_unparsable_poly_expectation_is_a_mismatch():
    from lndkit.harness import parse_job

    spec = parse_job("job odd\nring main: X, Y\nderivation D: X: 0, Y: 1\n"
                     "task find_slice derivation=D bound=1\n"
                     '  expect slice="Y +" type=poly provenance=trivial\n')
    (check,) = run_entry(spec).checks
    assert check.actual == "Y" and not check.ok


def test_a_comparison_bug_is_not_a_mismatch(monkeypatch):
    from lndkit.harness import parse_job

    def broken(text, context):
        raise TypeError("comparison bug")

    spec = parse_job("job odd\nring main: X, Y\nderivation D: X: 0, Y: 1\n"
                     "task find_slice derivation=D bound=1\n"
                     '  expect slice="Y" type=poly provenance=trivial\n')
    monkeypatch.setattr(corpus, "parse_polynomial", broken)
    with pytest.raises(TypeError, match="comparison bug"):
        run_entry(spec)
