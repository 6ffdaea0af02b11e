"""Chain certificates in a free product: construction, verification, serialization."""

import json
import random
import time
from fractions import Fraction

import pytest

from proficert import quotients
from proficert.cli import emit_certificate
from proficert.errors import CapExceededError, SchemaError
from proficert.example2 import (
    Ex2Certificate,
    Ex2Params,
    Ex2Step,
    MixedQuotientSource,
    NoAdmissibleElementError,
    choose_r,
    construct_ex2,
    default_f,
    ex2_ball_dot,
    ex2_from_obj,
    ex2_to_obj,
    make_s,
    verify_ex2,
)
from proficert.quotients import (
    DEFAULT_ENUMERATION_CAP,
    FiniteQuotient,
    Permutation,
    direct_product,
    generated_image_table,
    make_abelian_quotient,
    make_permutation_quotient,
    quotient_from_obj,
    quotient_to_obj,
    subgroup_order,
    table_word,
)
from proficert.words import (
    K,
    L,
    FactorPartition,
    Generator,
    Word,
    format_word,
    parse_word,
    power,
)

from fixtures import in_kernel, indented_digest, trivial_quotient

P11 = FactorPartition(1, 1)
P22 = FactorPartition(2, 2)
A = Generator(K, 0)


def k_words(partition):
    return [Word(((g, 1),)) for g in partition.k_generators()]


@pytest.fixture(scope="module")
def default_cert():
    return construct_ex2()


# --- building blocks -----------------------------------------------------------


def test_default_f():
    assert [default_f(n) for n in range(1, 6)] == [2, 3, 4, 5, 6]


def test_mixed_source_is_deterministic():
    a = MixedQuotientSource(P22, seed=5)
    b = MixedQuotientSource(P22, seed=5)
    stream_a, stream_b = a.stream(), b.stream()
    for _ in range(6):
        assert quotient_to_obj(next(stream_a)) == quotient_to_obj(next(stream_b))
    assert a.describe() == {"kind": "mixed", "seed": 5}


def test_mixed_source_alternates_kinds():
    stream = MixedQuotientSource(P22, seed=0).stream()
    kinds = [quotient_to_obj(next(stream))["kind"] for _ in range(6)]
    assert kinds == ["perm", "abelian", "perm", "abelian", "perm", "abelian"]
    # the abelian factors walk up the primes
    stream = MixedQuotientSource(P22, seed=0).stream()
    moduli = []
    for _ in range(3):
        next(stream)
        moduli.append(quotient_to_obj(next(stream))["modulus"])
    assert moduli == [2, 3, 5]


def k_table(q):
    return generated_image_table(q, k_words(q.partition))


def test_subgroup_k_index():
    for q, index in ((make_abelian_quotient(P22, 5), 25), (make_abelian_quotient(P11, 7), 7),
                     (trivial_quotient(P22), 1)):
        assert len(k_table(q)) == subgroup_order(q, k_words(q.partition)) == index


def test_choose_r_abelian_examples():
    q = make_abelian_quotient(P11, 7)
    assert choose_r(q, k_words(P11), [], 1) == parse_word("a^2", P11)
    assert choose_r(q, k_words(P11), [], 0) == parse_word("a", P11)


def test_choose_r_respects_forbidden_cosets():
    q = make_abelian_quotient(P11, 7)
    r = choose_r(q, k_words(P11), [(q, parse_word("a", P11))], 0)
    assert r == parse_word("a^-1", P11)


def test_choose_r_exhaustion():
    # K-image of order 2 sits entirely inside the radius-1 ball
    q = make_permutation_quotient(
        P11, {Generator(K, 0): Permutation((1, 0)), Generator(L, 0): Permutation((0, 1))})
    with pytest.raises(NoAdmissibleElementError):
        choose_r(q, k_words(P11), [], 1)


def test_choose_r_returns_k_word_past_radius():
    rng = random.Random(3)
    for _ in range(10):
        q = make_abelian_quotient(P22, rng.randrange(5, 12))
        radius = rng.randrange(0, 3)
        r = choose_r(q, k_words(P22), [], radius)
        assert all(g.factor == K for g, _ in r.runs)
        assert q.cayley_distance(r, max_radius=radius) is None


def full_ball_choose_r(q, forbidden, radius):
    """Reference rule: the first element of the whole K-image table outside
    the whole radius-``radius`` ball, both enumerated in full, and outside
    every forbidden coset; None when there is none."""
    table = k_table(q)
    ball = q.ball(radius)
    for x in table:
        w = table_word(table, x)
        if x not in ball and all(not qm.coset_equal(w, rm) for qm, rm in forbidden):
            return w
    return None


def choose_r_or_none(q, forbidden, radius):
    try:
        return choose_r(q, k_words(q.partition), forbidden, radius)
    except NoAdmissibleElementError:
        return None


def test_choose_r_matches_full_ball_rule(default_cert):
    # the chain's quotients with their construction-time forbidden cosets,
    # then small random quotients with random forbidden words
    forbidden = []
    for st in default_cert.steps:
        for radius in range(6):
            assert (choose_r_or_none(st.quotient, forbidden, radius)
                    == full_ball_choose_r(st.quotient, forbidden, radius))
        forbidden.append((st.quotient, st.r))
    rng = random.Random(909)
    found = 0
    for _ in range(40):
        partition = rng.choice([P11, P22])
        if rng.random() < 0.4:
            q = make_abelian_quotient(partition, rng.randrange(3, 12))
        else:
            degree = rng.randrange(3, 8)
            q = make_permutation_quotient(partition, {
                g: Permutation(tuple(rng.sample(range(degree), degree)))
                for g in partition.generators()})
        table = k_table(q)
        picks = [table_word(table, rng.choice(list(table))) for _ in range(rng.randrange(3))]
        forbidden = [(q, w) for w in picks]
        for radius in range(7):
            want = full_ball_choose_r(q, forbidden, radius)
            assert choose_r_or_none(q, forbidden, radius) == want
            found += want is not None
    assert found > 40


def test_make_s():
    s, e = make_s(parse_word("a", P11), trivial_quotient(P11))
    assert (s, e) == (parse_word("a b", P11), 1)

    s, e = make_s(parse_word("a^2", P22), make_abelian_quotient(P22, 3))
    assert (s, e) == (parse_word("a^2 c^3", P22), 3)

    with pytest.raises(ValueError):
        make_s(Word(()), trivial_quotient(P11))
    with pytest.raises(ValueError):
        make_s(parse_word("a b", P11), trivial_quotient(P11))


# --- construction ----------------------------------------------------------------


def test_construct_default_run(default_cert):
    cert = default_cert
    assert cert.params.partition == P22
    assert cert.params.steps == 4
    assert cert.params.f_values == (2, 3, 4, 5)
    assert cert.params.source == {"kind": "mixed", "seed": 0}
    indices = [st.k_index for st in cert.steps]
    assert indices == sorted(indices) and len(set(indices)) == 4
    assert indices[0] > 2 * 2 * (2 * 2 - 1) ** (2 - 1)   # step-1 bound at f(1)=2
    assert cert.reciprocal_sum < Fraction(1, 2)
    for st, f in zip(cert.steps, cert.params.f_values):
        assert all(g.factor == K for g, _ in st.r.runs)
        assert st.quotient.cayley_distance(st.r, max_radius=f) is None
        assert st.quotient.coset_equal(st.s, st.r)


def test_verify_default_run(default_cert):
    report = verify_ex2(default_cert)
    assert report.ok, [c for c in report.clauses if not c.ok]
    assert not report.failures()
    names = {c.clause for c in report.clauses}
    assert names == {"params-structure", "step-structure", "condition1", "condition2",
                     "condition3", "condition4", "step1-index-bound",
                     "chain-containment", "chain-descent", "reciprocal-sum"}


def test_no_k_image_table_is_built(monkeypatch, default_cert):
    # K-indices come from stabilizer chains, so neither verify nor construct
    # builds a K-image table; choose_r searches the K-image only as far as
    # its pick, a small part of it
    def refuse(q, gens):
        raise AssertionError("a K-image table was built")

    searched = []
    search = FiniteQuotient._search

    def recording(q, moves, context, max_radius=None, stop=None):
        table = search(q, moves, context, max_radius, stop)
        if context == "generated subgroup enumeration":
            searched.append((q, len(table)))
        return table

    monkeypatch.setattr(quotients, "generated_image_table", refuse)
    monkeypatch.setattr(FiniteQuotient, "_search", recording)
    assert verify_ex2(default_cert).ok
    assert searched == []
    assert construct_ex2() == default_cert
    assert [q for q, _ in searched] == [st.quotient for st in default_cert.steps]
    assert [size for _, size in searched] == [9, 26, 42, 62]
    assert [st.k_index for st in default_cert.steps] == [16, 80, 720, 5040]


def test_counting_soundness_invariant(default_cert):
    # the K-image never meets the f-ball in more points than the free-group
    # sphere count allows, so "outside the ball" can never be vacuous
    kk = default_cert.params.partition.k_size
    for st, f in zip(default_cert.steps, default_cert.params.f_values):
        image = set(generated_image_table(st.quotient, k_words(P22)))
        ball = set(st.quotient.ball(f))
        bound = 2 * kk * (2 * kk - 1) ** (f - 1) + 1
        assert len(image & ball) <= bound


def test_construct_other_shapes():
    cert = construct_ex2(steps=2, source=MixedQuotientSource(P22, 1))
    assert cert.params.source == {"kind": "mixed", "seed": 1}
    assert verify_ex2(cert)
    cert = construct_ex2(partition=P11, steps=2, f=(1, 3))
    assert verify_ex2(cert)


@pytest.mark.parametrize("steps, seed", [(True, 0), (1, True), (1, False), (1, 3), (2, -1)])
def test_construct_refuses_what_its_loader_refuses(steps, seed):
    # a bool steps or seed was written as true or false, which the loader
    # refuses as not an integer; every chain that is built loads back
    if isinstance(steps, bool) or isinstance(seed, bool):
        with pytest.raises(ValueError, match="^(steps|seed) must be .*, got (True|False)$"):
            construct_ex2(steps=steps, source=MixedQuotientSource(P22, seed))
    else:
        cert = construct_ex2(steps=steps, source=MixedQuotientSource(P22, seed))
        assert ex2_from_obj(ex2_to_obj(cert)) == cert


def test_verify_ex2_reads_an_empty_chain_as_a_failed_clause():
    # no f values and no steps raised IndexError at the first step's K-index
    cert = construct_ex2(steps=1)
    empty = cert._replace(params=cert.params._replace(f_values=()), steps=())
    assert [(c.clause, c.ok, c.detail) for c in verify_ex2(empty).clauses] == [
        ("params-structure", False, "0 steps, f values []")]
    obj = ex2_to_obj(empty)
    with pytest.raises(SchemaError, match=r"^certificate\.params\.f_values: expected a nonempty"):
        ex2_from_obj(obj)


@pytest.mark.parametrize("f_values, stops", [
    ((2, "x"), True), ((-1, 3), True), ((True, 3), True), ((3, 2), False)],
    ids=["str", "negative", "bool", "out of order"])
def test_verify_ex2_stops_at_an_f_value_that_is_not_a_positive_int(f_values, stops):
    # every later clause reads f as a radius: "x" raised TypeError and -1
    # ValueError ("max_radius must be nonnegative"); int f values out of
    # order still reach the later clauses
    cert = construct_ex2(steps=2)
    report = verify_ex2(cert._replace(params=cert.params._replace(f_values=f_values)))
    assert report.failures()[0].clause == "params-structure"
    assert (len(report.clauses) == 1) == stops


@pytest.mark.parametrize("field, value, clause", [
    ("f_values", None, ("params-structure", None, "f_values: expected a sequence, got NoneType")),
    ("f_values", 5, ("params-structure", None, "f_values: expected a sequence, got int")),
    ("steps", (None,), ("step-structure", 1, "step has no quotient")),
    ("steps", None, ("params-structure", None, "steps: expected a sequence, got NoneType")),
])
def test_verify_ex2_reads_a_container_of_the_wrong_type_as_a_failed_clause(field, value, clause):
    # these raised TypeError (len of None or 5) and AttributeError (no quotient)
    cert = construct_ex2(steps=1)
    if field == "f_values":
        cert = cert._replace(params=cert.params._replace(f_values=value))
    else:
        cert = cert._replace(steps=value)
    assert [(c.clause, c.m, c.detail) for c in verify_ex2(cert).failures()] == [clause]


@pytest.mark.parametrize("described, error", [
    ({"kind": "mixed", "seed": True}, r"^params\.source\.seed: expected an integer$"),
    ({"kind": "mixed", "seed": 0, "extra": 1}, r"^params\.source\.extra: unknown field$"),
], ids=["bool seed", "extra field"])
def test_construct_checks_the_source_description_it_records(described, error):
    # such a chain was built, and its own loader refused it
    class Described(MixedQuotientSource):
        def describe(self):
            return described

        def stream(self):
            raise AssertionError("a factor was drawn before the description was checked")

    with pytest.raises(SchemaError, match=error):
        construct_ex2(steps=1, source=Described(P22))


def test_construct_rejects_bad_f():
    with pytest.raises(ValueError):
        construct_ex2(steps=2, f=(2, 2))
    with pytest.raises(ValueError):
        construct_ex2(steps=2, f=(0, 1))
    with pytest.raises(ValueError):
        construct_ex2(steps=2, f=(2,))
    with pytest.raises(ValueError):
        construct_ex2(steps=0)


class TrivialSource:
    kind = "trivial"

    def __init__(self, partition):
        self.partition = partition

    def describe(self):
        return {"kind": self.kind, "seed": 0}

    def stream(self):
        while True:
            yield trivial_quotient(self.partition)


def test_construct_gives_up_on_useless_source():
    with pytest.raises(CapExceededError):
        construct_ex2(steps=1, source=TrivialSource(P22), max_source_draws=5)


def test_construct_refuses_more_steps_than_draws():
    # every step grows the K-index, so it takes a draw of its own; 97 steps
    # once searched Cayley balls until memory or the enumeration cap ran out
    with pytest.raises(CapExceededError, match="quotient source draws"):
        construct_ex2(steps=97)
    with pytest.raises(CapExceededError, match="quotient source draws"):
        construct_ex2(steps=3, source=TrivialSource(P22), max_source_draws=2)


def test_chain_of_another_partition_is_refused():
    # a 2+2 source once gave a 1+1 chain that verified in process and
    # whose file could not be read back ("unknown generator letter")
    with pytest.raises(ValueError, match="factor of"):
        construct_ex2(P11, steps=2, source=MixedQuotientSource(P22, 0))
    cert = construct_ex2(P11, steps=2)
    # each quotient over 2+2 generators, acting as before on a and b
    steps = tuple(
        st._replace(quotient=FiniteQuotient(P22, {
            g: st.quotient.images.get(g, Permutation.identity(st.quotient.degree))
            for g in P22.generators()}))
        for st in cert.steps)
    report = verify_ex2(cert._replace(steps=steps))
    assert [(c.clause, c.m) for c in report.failures()] == [
        ("step-structure", 1), ("step-structure", 2)]


# --- verification catches corruption -----------------------------------------------


def replace_step(cert, i, **changes):
    step = cert.steps[i]._replace(**changes)
    steps = cert.steps[:i] + (step,) + cert.steps[i + 1:]
    return cert._replace(steps=steps)


def test_verify_detects_s_replaced_by_r(default_cert):
    bad = replace_step(default_cert, 1, s=default_cert.steps[1].r)
    report = verify_ex2(bad)
    assert not report
    failing = {c.clause for c in report.failures()}
    assert "condition3" in failing
    assert "step-structure" in failing


def test_verify_detects_corrupt_e(default_cert):
    bad = replace_step(default_cert, 0, e=default_cert.steps[0].e + 1)
    assert any(c.clause == "step-structure" and not c.ok
               for c in verify_ex2(bad).clauses)


def test_verify_detects_corrupt_k_index(default_cert):
    bad = replace_step(default_cert, 2, k_index=default_cert.steps[2].k_index + 1)
    assert not verify_ex2(bad)


def test_verify_detects_identity_r(default_cert):
    bad = replace_step(default_cert, 0, r=Word(()))
    report = verify_ex2(bad)
    failing = {c.clause for c in report.failures()}
    assert "step-structure" in failing
    assert "condition1" in failing


def test_verify_detects_corrupt_reciprocal_sum(default_cert):
    bad = default_cert._replace(reciprocal_sum=Fraction(1, 3))
    assert any(c.clause == "reciprocal-sum" and not c.ok
               for c in verify_ex2(bad).clauses)


def test_verify_detects_bad_params(default_cert):
    params = default_cert.params._replace(f_values=(2, 3, 3, 5))
    bad = default_cert._replace(params=params)
    report = verify_ex2(bad)
    assert any(c.clause == "params-structure" and not c.ok for c in report.clauses)


def failing_clauses(report):
    return {(c.clause, c.m) for c in report.failures()}


def test_verify_rejects_spliced_chain(default_cert):
    # Swap the L-generator images of Q_1 and repair e_1 and s_1; the K-index
    # and the reciprocal sum only read the K images.  Q_2 still carries the
    # original Q_1 as its first block, so (a c)^k with k the order of a c in
    # Q_2 lies in ker Q_2 but not in ker Q_1: the chain does not descend,
    # although every kernel probe on powers of b does.
    obj = ex2_to_obj(default_cert)
    step1 = obj["steps"][0]
    images = step1["quotient"]["images"]
    images["c"], images["d"] = images["d"], images["c"]
    q1 = quotient_from_obj(step1["quotient"], P22)
    r1 = parse_word(step1["r"], P22)
    s1, step1["e"] = make_s(r1, q1)
    step1["s"] = format_word(s1, P22)
    cert = ex2_from_obj(obj)
    q2 = cert.steps[1].quotient
    ac = parse_word("a c", P22)
    probe = power(ac, q2.element_order(ac))
    assert in_kernel(q2, probe) and not in_kernel(q1, probe)

    # the K-indices still grow, but without containment their ratio proves
    # no descent, so chain-descent fails with it
    report = verify_ex2(cert)
    assert failing_clauses(report) == {("chain-containment", 1), ("chain-descent", 1)}
    assert report.failures()[1].detail.endswith(
        "= 80/16 proves nothing without chain-containment")
    detail = report.failures()[0].detail
    assert "image of c in Q_2" in detail and "image of d in Q_2" in detail
    assert "image of a" not in detail


def flat_k_chain():
    """Q_2 = Q_1 x F with F trivial on K: the K-image and the K-index stay the
    same and only the quotient order grows, which proves no descent of the
    K-side kernels.  Every other clause holds."""
    q1 = make_permutation_quotient(P22, {
        Generator(K, 0): (1, 2, 3, 0), Generator(K, 1): (1, 0, 2, 3),
        Generator(L, 0): (0, 1, 3, 2), Generator(L, 1): (0, 1, 2, 3)})
    factor = make_permutation_quotient(P22, {
        Generator(K, 0): (0, 1, 2), Generator(K, 1): (0, 1, 2),
        Generator(L, 0): (1, 0, 2), Generator(L, 1): (0, 2, 1)})
    q2 = direct_product(q1, factor)
    assert (q1.order(), q2.order()) == (24, 144)
    tables = [generated_image_table(q, k_words(P22)) for q in (q1, q2)]
    assert len(tables[0]) == len(tables[1]) == 24
    r1 = choose_r(q1, k_words(P22), [], 1)
    r2 = choose_r(q2, k_words(P22), [(q1, r1)], 2)
    steps = []
    for q, r in ((q1, r1), (q2, r2)):
        s, e = make_s(r, q)
        steps.append(Ex2Step(q, r, s, e, 24))
    params = Ex2Params(P22, (1, 2), {"kind": "hand", "seed": 0}, 10 ** 6)
    return Ex2Certificate(params, tuple(steps), Fraction(1, 12))


def test_chain_descent_needs_a_witness():
    report = verify_ex2(flat_k_chain())
    assert failing_clauses(report) == {("chain-descent", 1)}
    assert report.failures()[0].detail.startswith(
        "[K-image of Q_2] / [K-image of Q_1] = 24/24, so no K-word")


def scan_witness(q_this, q_next):
    """First non-identity element of Q_{n+1}'s K-image table whose word lies
    in ker Q_n, found by imaging every word in Q_n; None when there is none."""
    table = k_table(q_next)
    return next((w for w in (table_word(table, x) for x in table)
                 if not w.is_identity() and in_kernel(q_this, w)), None)


def test_chain_descent_restriction_finds_the_scan_witness(default_cert):
    # a kernel scan of the words is the oracle: it finds a K-word in
    # ker Q_n but not in ker Q_{n+1} exactly when the index ratio passes 1
    certs = [default_cert, construct_ex2(steps=5), flat_k_chain()]
    certs += [construct_ex2(P22, steps=4, source=MixedQuotientSource(P22, seed))
              for seed in (2, 5, 6, 37, 56, 57)]
    for cert in certs:
        report = verify_ex2(cert)
        passed = {c.m: c.ok for c in report.clauses if c.clause == "chain-descent"}
        for n in range(1, cert.params.steps):
            q_this, q_next = (cert.steps[i].quotient for i in (n - 1, n))
            grows = cert.steps[n].k_index > cert.steps[n - 1].k_index
            assert (scan_witness(q_this, q_next) is not None) == grows == passed[n]


def test_hostile_chain_fails_without_a_kernel_scan():
    # the 6-step default chain plus a copy of step 6 with the images of c and
    # d swapped: containment fails at step 6, where a kernel scan would image
    # all 176,400 K-words of Q_7 in Q_6 and find none in ker Q_6
    obj = ex2_to_obj(construct_ex2(steps=6))
    step7 = json.loads(json.dumps(obj["steps"][5]))
    images = step7["quotient"]["images"]
    images["c"], images["d"] = images["d"], images["c"]
    obj["steps"].append(step7)
    obj["params"]["f_values"].append(8)
    cert = ex2_from_obj(obj)
    started = time.perf_counter()
    report = verify_ex2(cert)
    assert time.perf_counter() - started < 10
    assert {(c.clause, c.m, c.k) for c in report.failures()} == {
        ("chain-containment", 6, None), ("chain-descent", 6, None),
        ("condition1", 7, None), ("condition4", 6, 7),
        ("reciprocal-sum", None, None), ("step-structure", 7, None)}


def test_chain_past_f6_constructs_and_verifies():
    # the radius-7 and radius-9 balls of the full Cayley graph pass the
    # default cap at 2+2; meeting in the middle enumerates radius 4 and 5
    cert = construct_ex2(steps=4, f=(2, 4, 7, 9))
    report = verify_ex2(cert)
    assert report.ok, report.failures()
    assert cert.params.f_values == (2, 4, 7, 9)


def certificate_digest(cert):
    # recorded in the indented layout certificates were written in then,
    # again when steps stopped echoing their f value, and again when params
    # stopped writing ``steps`` and ``max_source_draws``
    return indented_digest(emit_certificate(cert))


def test_seven_step_default_chain_pinned():
    # recorded when every K-index was read off a K-image table, which took
    # about 4 s and 213 MB here (the last one has 529,200 elements)
    started = time.perf_counter()
    cert = construct_ex2(steps=7)
    assert verify_ex2(cert).ok
    assert time.perf_counter() - started < 1
    assert [st.k_index for st in cert.steps][-2:] == [176_400, 529_200]
    assert certificate_digest(cert) == (
        "dbc0fbcc2ec2be32ff18ff4a21b2d8d6fa099f6b7eb997e0e0aca7158277430a")


def test_ten_step_default_chain_constructs_and_verifies():
    # step 8's K-index already passes the default cap of 10^6 elements, so
    # no K-image table could hold it
    started = time.perf_counter()
    cert = construct_ex2(steps=10)
    report = verify_ex2(cert)
    assert time.perf_counter() - started < 5
    assert report.ok, report.failures()
    assert [st.k_index for st in cert.steps][7:] == [64_033_200, 192_099_600, 32_464_832_400]
    assert certificate_digest(cert) == (
        "9ad879521dd5b4914fdae7057208bffb1b37eeeb560bf34ed659f7b844e03b18")


def symmetric_k_factor(degree):
    """K-images (0 1 ... degree-1) and (0 1), which generate S_degree;
    trivial L-images."""
    identity = tuple(range(degree))
    return make_permutation_quotient(P22, {
        Generator(K, 0): identity[1:] + identity[:1],
        Generator(K, 1): (1, 0) + identity[2:],
        Generator(L, 0): identity, Generator(L, 1): identity})


class HostileFirstSource(MixedQuotientSource):
    """The seed-0 mixed stream after one factor whose K-image is S_200."""

    def stream(self):
        yield symmetric_k_factor(200)
        yield from super().stream()


def test_construct_skips_a_factor_past_the_cap(default_cert):
    # the stabilizer chain of S_200 runs out of the cap; construct skips the
    # factor (had it been kept, its K-index 200! would be in the certificate)
    # and goes on with the rest of the stream
    cert = construct_ex2(P22, steps=4, source=HostileFirstSource(P22, 0))
    assert cert == default_cert


def test_file_points_are_budgeted_before_loading(default_cert):
    # two 40-byte abelian steps of 640,000 image entries each (4 images of
    # 160,000 points): the steps load one by one, each under the cap, unless
    # their entries are summed first
    obj = ex2_to_obj(default_cert)
    obj["steps"] = obj["steps"][:2]
    for st in obj["steps"]:
        st["quotient"] = {"kind": "abelian", "modulus": 40_000}
    with pytest.raises(CapExceededError, match="points of the file's quotients"):
        ex2_from_obj(obj)
    obj["steps"] = obj["steps"][:1]
    assert ex2_from_obj(obj).steps[0].quotient.degree == 160_000
    # one step of 600,000 points is 2.4 million image entries on its own
    obj["steps"][0]["quotient"] = {"kind": "abelian", "modulus": 150_000}
    with pytest.raises(CapExceededError, match="points of the file's quotients"):
        ex2_from_obj(obj)


def test_construct_records_the_cap_its_tables_were_built_under():
    # the source's factors carry the cap every K-index is computed under,
    # and the certificate records it; 50 is below the abelian factor mod 5,
    # so that chain ends as `ex2-construct --cap 50` does
    for cap in (100, 10 ** 4):
        cert = construct_ex2(P22, steps=2, source=MixedQuotientSource(P22, 0, cap))
        assert [st.k_index for st in cert.steps] == [16, 80]
        assert cert.params.enumeration_cap == cap
        loaded = ex2_from_obj(json.loads(emit_certificate(cert)))
        assert verify_ex2(loaded).ok
    assert construct_ex2(P22, steps=2).params.enumeration_cap == DEFAULT_ENUMERATION_CAP
    with pytest.raises(CapExceededError, match="^enumeration cap 50 exceeded"):
        construct_ex2(P22, steps=2, source=MixedQuotientSource(P22, 0, 50))


def test_file_cannot_raise_the_verifier_cap(default_cert):
    obj = ex2_to_obj(default_cert)
    obj["params"]["enumeration_cap"] = 10 ** 12
    loaded = ex2_from_obj(obj)
    assert {st.quotient.enumeration_cap for st in loaded.steps} == {DEFAULT_ENUMERATION_CAP}
    assert loaded.params.enumeration_cap == 10 ** 12
    loaded = ex2_from_obj(obj, enumeration_cap=50)
    assert {st.quotient.enumeration_cap for st in loaded.steps} == {50}


def test_huge_f_is_rejected_quickly(default_cert):
    # 3^(10^8 - 1) is never built: the bound stops once it passes the index
    obj = ex2_to_obj(default_cert)
    f_values = [10 ** 8 + i for i in range(4)]
    obj["params"]["f_values"] = f_values
    started = time.perf_counter()
    report = verify_ex2(ex2_from_obj(obj))
    assert time.perf_counter() - started < 2
    assert ("step1-index-bound", 1) in failing_clauses(report)


# --- serialization -------------------------------------------------------------------


def test_round_trip(default_cert):
    obj = ex2_to_obj(default_cert)
    assert obj["type"] == "ex2"
    assert isinstance(obj["reciprocal_sum"], str)
    assert Fraction(obj["reciprocal_sum"]) == default_cert.reciprocal_sum
    loaded = ex2_from_obj(obj)
    assert loaded == default_cert
    assert ex2_to_obj(loaded) == obj
    assert verify_ex2(loaded)


def test_default_certificate_bytes_pinned(default_cert):
    # any change to the permutation kernel must leave certificate bytes alone
    assert certificate_digest(default_cert) == (
        "d38299bbbb592e5534d02f75d38e056d3ea325ed82262316ff6938eb432a5ed1")


def test_loading_is_not_verification(default_cert):
    # well-formed but wrong certificates load fine and fail verify
    obj = ex2_to_obj(default_cert)
    obj["steps"][0]["k_index"] += 1
    loaded = ex2_from_obj(obj)
    assert not verify_ex2(loaded)


def test_schema_rejections(default_cert):
    obj = ex2_to_obj(default_cert)

    with pytest.raises(SchemaError, match="type"):
        ex2_from_obj(dict(obj, type="ex1_tail"))

    missing = dict(obj)
    del missing["reciprocal_sum"]
    with pytest.raises(SchemaError, match="reciprocal_sum"):
        ex2_from_obj(missing)

    with pytest.raises(SchemaError, match="reciprocal_sum"):
        ex2_from_obj(dict(obj, reciprocal_sum="1/0"))

    with pytest.raises(SchemaError, match=r"params\.f_values: expected a nonempty list"):
        ex2_from_obj(dict(obj, params=dict(obj["params"], f_values=[]), steps=[]))

    with pytest.raises(SchemaError, match="f_values"):
        ex2_from_obj(dict(obj, params=dict(obj["params"], f_values="2,3")))

    with pytest.raises(SchemaError, match="source"):
        bad_source = dict(obj["params"]["source"], extra=1)
        ex2_from_obj(dict(obj, params=dict(obj["params"], source=bad_source)))

    bad_steps = [dict(obj["steps"][0], surprise=1)] + obj["steps"][1:]
    with pytest.raises(SchemaError, match="surprise"):
        ex2_from_obj(dict(obj, steps=bad_steps))

    bad_steps = [dict(obj["steps"][0], e=0)] + obj["steps"][1:]
    with pytest.raises(SchemaError, match="e"):
        ex2_from_obj(dict(obj, steps=bad_steps))


# --- DOT export ------------------------------------------------------------------------


def test_ball_dot(default_cert):
    dot = ex2_ball_dot(default_cert, 1)
    assert dot.startswith("digraph")
    assert dot.endswith("}\n")
    assert "doublecircle" in dot
    assert "lightblue" in dot        # r_1 is a K-geodesic, so it lands in ball(f+1)
    for line in dot.splitlines():
        if "->" in line:
            assert "label=" in line
    for n in (0, 5, 6):
        with pytest.raises(ValueError, match="step index must be in 1..4"):
            ex2_ball_dot(default_cert, n)
