"""The factorial family: residue target, tail certificates, not-closed witnesses."""

import copy
import math
import random

import pytest

from proficert import example1
from proficert.cli import canonical_json, emit_certificate, main
from proficert.errors import CapExceededError, SchemaError
from proficert.example1 import (
    DEFAULT_HEAD_CAP,
    EX1_PARTITION,
    Ex1NotClosedWitness,
    GEN_A,
    GEN_B,
    WORD_A,
    WORD_B,
    a_element,
    convergence_witness,
    ex1_tail_from_obj,
    ex1_tail_to_obj,
    ex1_witness_from_obj,
    ex1_witness_to_obj,
    m0_residue,
    m_sequence,
    not_closed_witness,
    s_element,
    s_family,
    separate_from_S,
    separate_integer_from_m0,
    verify_ex1,
    verify_ex1_witness,
)
from proficert.quotients import (
    Permutation,
    element_to_obj,
    make_abelian_quotient,
    make_permutation_quotient,
)
from proficert.words import Word, identity, multiply, parse_word

from fixtures import indented_digest, trivial_quotient


def abelian(n):
    return make_abelian_quotient(EX1_PARTITION, n)


def perm(images_a, images_b):
    return make_permutation_quotient(
        EX1_PARTITION, {GEN_A: Permutation(images_a), GEN_B: Permutation(images_b)})


def word(text):
    return parse_word(text, EX1_PARTITION)


# --- the residue target ------------------------------------------------------------


def brute_force_residue(n):
    """Independent oracle: scan [0, n) for the residue fixed by the target rule."""
    constraints = []
    d, rest = 2, n
    while d <= rest:
        if rest % d == 0:
            q = 1
            while rest % d == 0:
                rest //= d
                q *= d
            constraints.append((0 if d == 2 else 1, q))
        d += 1
    candidates = [x for x in range(n) if all(x % q == r for r, q in constraints)]
    assert len(candidates) == 1
    return candidates[0]


def crt_residue(n):
    """Reference by the definition: factor n by trial division, then combine
    residue 0 at the power of two and 1 at each odd prime power by CRT."""
    x, m, d, rest = 0, 1, 2, n
    while rest > 1:
        if d * d > rest:
            d = rest
        q = 1
        while rest % d == 0:
            rest //= d
            q *= d
        if q > 1:
            r = 0 if d == 2 else 1
            x += m * ((r - x) * pow(m, -1, q) % q)
            m *= q
        d += 1
    return x


def test_m0_residue_examples():
    assert m0_residue(1) == 0
    assert m0_residue(2) == 0
    assert m0_residue(3) == 1
    assert m0_residue(4) == 0
    assert m0_residue(5) == 1
    assert m0_residue(6) == 4
    assert m0_residue(12) == 4
    assert m0_residue(60) == 16


def test_m0_residue_matches_brute_force():
    for n in range(1, 400):
        assert m0_residue(n) == brute_force_residue(n)


def test_m0_residue_matches_factor_and_crt():
    # lcm(1..j) for j <= 1,100 are the moduli s_family reads
    lcm = 1
    for j in range(1, 1101):
        lcm = math.lcm(lcm, j)
        assert m0_residue(lcm) == crt_residue(lcm), j
    for n in range(1, 10 ** 4 + 1):
        assert m0_residue(n) == crt_residue(n), n


def test_m0_residue_prime_power_rule():
    for p in (2, 3, 5, 7, 11):
        for e in (1, 2, 3):
            assert m0_residue(p ** e) == (0 if p == 2 else 1)


def test_m0_residue_rejects_bad_modulus():
    for bad in (0, -3, 2.0, "6"):
        with pytest.raises(ValueError):
            m0_residue(bad)


def test_m_sequence_examples():
    assert m_sequence(1) == 0
    assert m_sequence(2) == 0
    assert m_sequence(3) == 4
    assert m_sequence(4) == 4
    assert m_sequence(5) == 16


def test_m_sequence_is_residue_mod_lcm():
    for j in range(1, 41):
        lcm = math.lcm(*range(1, j + 1))
        assert m_sequence(j) == m0_residue(lcm)
        assert 0 <= m_sequence(j) < lcm


def test_m_sequence_coherence():
    # later terms refine earlier ones: m_j determines m_i mod lcm(1..i)
    values = {j: m_sequence(j) for j in range(1, 41)}
    for i in range(1, 41):
        lcm_i = math.lcm(*range(1, i + 1))
        for j in range(i, 41):
            assert values[j] % lcm_i == values[i] % lcm_i


def test_m_sequence_rejects_bad_index():
    for bad in (0, -1, 1.5):
        with pytest.raises(ValueError):
            m_sequence(bad)


# --- family elements ---------------------------------------------------------------


def test_family_elements():
    assert a_element(1) == WORD_A
    assert a_element(4) == Word(((GEN_A, 24),))
    assert s_element(1) == WORD_A          # m_1 = 0, the b-run vanishes
    assert s_element(2) == Word(((GEN_A, 2),))
    assert s_element(3) == word("a^6 b^4")
    assert s_element(5) == word("a^120 b^16")
    with pytest.raises(ValueError):
        s_element(0)


def test_s_family_matches_s_element():
    # h up to 1,100 passes the prime powers 2^10, 3^6, 5^4 and 31^2, where
    # lcm(1..j) gains a factor p at j = p^e with e > 1
    oracle = [(j, s_element(j)) for j in range(1, 1100)]
    for h in range(1, 1101):
        assert list(s_family(h)) == oracle[:h - 1]
    assert list(s_family(1)) == []


def test_tail_collapse_in_abelian_quotients():
    # past j = n both exponents of s_j stabilize mod n
    for n in range(2, 21):
        q = abelian(n)
        tail = [0, m0_residue(n)]
        for j in range(n, 41, 7):
            assert element_to_obj(q, q.image(s_element(j)))["vector"] == tail


# --- convergence -------------------------------------------------------------------


def test_convergence_witness_examples():
    assert convergence_witness(trivial_quotient(EX1_PARTITION)) == 1
    assert convergence_witness(perm((1, 2, 0), (0, 1, 2))) == 3
    assert convergence_witness(abelian(12)) == 12


def test_convergence_witness_random_quotients():
    rng = random.Random(7)
    for _ in range(20):
        if rng.random() < 0.5:
            q = abelian(rng.randrange(2, 30))
        else:
            degree = rng.randrange(2, 7)
            q = perm(tuple(rng.sample(range(degree), degree)),
                     tuple(rng.sample(range(degree), degree)))
        k0 = convergence_witness(q)
        assert k0 == q.element_order(WORD_A)
        assert q.in_kernel(a_element(k0))


# --- separation of single integers from the target ----------------------------------


def test_separate_integer_from_m0():
    assert separate_integer_from_m0(0) == 3
    assert separate_integer_from_m0(1) == 2
    assert separate_integer_from_m0(2) == 4
    assert separate_integer_from_m0(-5) == 8
    for t in range(-100, 101):
        n = separate_integer_from_m0(t)
        assert t % n != m0_residue(n)


# --- tail certificates ---------------------------------------------------------------


def test_separate_from_S_identity_word():
    cert = separate_from_S(identity())
    assert cert.modulus == 3
    assert cert.head_bound == 3
    assert len(cert.head_certificates) == 2
    assert verify_ex1(cert)


def test_separate_from_S_single_b():
    cert = separate_from_S(WORD_B)
    assert cert.modulus == 2
    assert cert.head_bound == 2
    assert len(cert.head_certificates) == 1
    assert verify_ex1(cert)


def test_separate_from_S_rejects_family_members():
    with pytest.raises(ValueError):
        separate_from_S(word("a^6 b^4"))   # s_3
    with pytest.raises(ValueError):
        separate_from_S(WORD_A)            # s_1
    with pytest.raises(ValueError):
        separate_from_S(word("a^2"))       # s_2


def test_member_check_walks_the_family_once(monkeypatch):
    # s_element(j) took a factorial and factored lcm(1..j) afresh for every
    # j with j! at most the target's length
    *_, (_, s_1500) = s_family(1501)

    def refuse(j):
        raise AssertionError(f"s_{j} built on its own")

    monkeypatch.setattr(example1, "s_element", refuse)
    monkeypatch.setattr(example1, "m_sequence", refuse)
    for j, member in ((1, WORD_A), (3, word("a^6 b^4")), (1500, s_1500)):
        with pytest.raises(ValueError, match=f"^the target word equals s_{j} and "):
            separate_from_S(member)
    cert = separate_from_S(word("a^6 b^5"))
    assert (cert.modulus, cert.head_bound) == (7, 7)
    with pytest.raises(CapExceededError, match="head family of size"):
        separate_from_S(Word(((GEN_B, 10 ** 4000 - 1),)))
    monkeypatch.undo()
    assert verify_ex1(cert)


def test_separate_from_S_various_targets():
    for text in ("a^3", "a b", "b^-2", "a^-1 b a", "b a", "a^2 b"):
        cert = separate_from_S(word(text))
        result = verify_ex1(cert)
        assert result, result.reasons


def test_separate_from_S_head_margin():
    cert = separate_from_S(WORD_B, head_margin=5)
    assert cert.head_bound == 5
    assert cert.modulus == 2
    assert len(cert.head_certificates) == 4
    assert verify_ex1(cert)


def test_separate_from_S_head_cap():
    with pytest.raises(CapExceededError):
        separate_from_S(Word(((GEN_A, 4097),)))
    with pytest.raises(CapExceededError):
        separate_from_S(word("a^10"), head_margin=DEFAULT_HEAD_CAP + 1)
    # up to 20 digits the refusal writes the head bound, past them its length
    for margin, size in ((10 ** 20 - 1, "9" * 20), (10 ** 20, "with 21 digits"),
                         (10 ** 4300, "with 4,301 digits"),
                         (2 ** 20000, "with 6,021 digits")):
        with pytest.raises(CapExceededError) as info:
            separate_from_S(word("a^10"), head_margin=margin)
        assert str(info.value).endswith(f"(head family of size {size})")


def test_verify_ex1_refuses_a_head_bound_past_the_head_cap(monkeypatch, capsys):
    # separate_from_S refuses any head bound above the head cap; verify_ex1
    # accepted a b^2047 tail (head bound 2,048) built under a raised cap
    monkeypatch.setattr(example1, "DEFAULT_HEAD_CAP", 4096)
    cert = separate_from_S(Word(((GEN_B, 2047),)))
    monkeypatch.undo()
    assert cert.head_bound == 2048 and len(cert.head_certificates) == 2047
    with pytest.raises(CapExceededError) as info:
        verify_ex1(cert)
    assert str(info.value) == (f"head cap {DEFAULT_HEAD_CAP} exceeded "
                               "(head family of size 2048)")
    # such a file cannot be written (2047! has 5,891 digits), so the
    # command reads the certificate in-process
    monkeypatch.setattr("proficert.cli.load_certificate", lambda *_, **__: cert)
    assert main(["ex1-verify", "tail.json"]) == 3
    assert capsys.readouterr() == ("", f"error: {info.value}\n")


def test_verify_ex1_detects_lowered_head_bound():
    cert = separate_from_S(identity())
    bad = cert._replace(head_bound=1)
    result = verify_ex1(bad)
    assert not result
    assert any("head bound" in r for r in result.reasons)


def test_verify_ex1_detects_corrupted_modulus():
    cert = separate_from_S(WORD_B)
    bad = cert._replace(modulus=4)
    result = verify_ex1(bad)
    assert not result
    assert result.reasons == ("modulus 4 exceeds head bound 2",)


def test_verify_ex1_detects_corrupted_head():
    cert = separate_from_S(identity())
    head = cert.head_certificates[0]._replace(excluded=word("b^7"))
    bad = cert._replace(head_certificates=(head,) + cert.head_certificates[1:])
    result = verify_ex1(bad)
    assert not result
    assert any("head 1" in r for r in result.reasons)


def test_verify_ex1_detects_useless_composite():
    cert = separate_from_S(identity())
    bad = cert._replace(composite_quotient=trivial_quotient(EX1_PARTITION))
    result = verify_ex1(bad)
    assert not result
    assert any("composite" in r for r in result.reasons)


def per_index_composite_reasons(cert):
    """Reference composite clause: one ``coset_equal`` per index below the
    head bound, imaging the target again every time."""
    q = cert.composite_quotient
    return tuple(f"composite quotient cannot tell the target from s_{j}"
                 for j in range(1, cert.head_bound)
                 if q.coset_equal(cert.target_word, s_element(j)))


@pytest.mark.parametrize("target, head_bound", [
    ("b^33", 64), ("a^-255 b^5", 256), ("b^267", 512)])
def test_grouped_composite_clause_matches_per_index_loop(target, head_bound):
    cert = separate_from_S(word(target))
    assert cert.head_bound == head_bound
    assert verify_ex1(cert).reasons == per_index_composite_reasons(cert) == ()
    # the other clauses stay honest, so every reason is the composite's
    swaps = {
        "abelian": abelian(cert.modulus),
        "trivial": trivial_quotient(EX1_PARTITION),
        "head": cert.head_certificates[len(cert.head_certificates) // 2].quotient,
        # a 3-cycle with b trivial: s_j collides with the target exactly when
        # 3 divides j! minus its a-exponent sum
        "mixed": perm((1, 2, 0), (0, 1, 2)),
    }
    collisions = {}
    for name, q in swaps.items():
        bad = cert._replace(composite_quotient=q)
        oracle = per_index_composite_reasons(bad)
        assert verify_ex1(bad).reasons == oracle, name
        collisions[name] = len(oracle)
    # the abelian quotient mod n and each head's quotient alone tell the
    # target from every s_j below the head bound; the trivial one from none
    assert collisions["abelian"] == collisions["head"] == 0
    assert collisions["trivial"] == head_bound - 1
    assert collisions["mixed"] == head_bound - 3


# --- not-closed witnesses -------------------------------------------------------------


def test_not_closed_witness_examples():
    w = not_closed_witness(trivial_quotient(EX1_PARTITION))
    assert (w.k, w.s_word, w.cofactor) == (1, WORD_A, identity())

    w = not_closed_witness(perm((1, 2, 0), (0, 1, 2)))
    assert w.k == 3
    assert w.s_word == word("a^6 b^4")
    assert w.cofactor == word("b^-4")

    w = not_closed_witness(abelian(4))
    assert w.k == 4
    assert w.s_word == word("a^24 b^4")
    assert w.cofactor == word("b^-4")
    assert verify_ex1_witness(w)


def test_not_closed_witness_product_in_kernel():
    rng = random.Random(11)
    for _ in range(15):
        q = abelian(rng.randrange(2, 25))
        w = not_closed_witness(q)
        assert q.in_kernel(multiply(w.s_word, w.cofactor))
        result = verify_ex1_witness(w)
        assert result, result.reasons


def test_verify_ex1_witness_detects_corruption():
    w = not_closed_witness(abelian(4))

    bad = w._replace(k=5)
    assert not verify_ex1_witness(bad)

    bad = w._replace(cofactor=identity())
    result = verify_ex1_witness(bad)
    assert not result
    assert any("cofactor" in r for r in result.reasons)

    bad = w._replace(quotient=abelian(5))
    result = verify_ex1_witness(bad)
    assert not result
    assert any("not divisible" in r or "kernel" in r for r in result.reasons)


def test_witness_divisibility_clause_matches_factorial():
    # image(a) an n-cycle and b fixed: the witness names the reason exactly
    # when n does not divide k!
    for n in range(1, 61):
        q = perm(tuple(range(1, n)) + (0,), tuple(range(n)))
        for k in range(1, 13):
            m_k = m_sequence(k)
            cofactor = Word(((GEN_B, -m_k),)) if m_k else identity()
            result = verify_ex1_witness(Ex1NotClosedWitness(q, k, s_element(k), cofactor))
            named = any(r.startswith("k! is not divisible") for r in result.reasons)
            assert named == (math.factorial(k) % n != 0), (n, k)


# --- serialization --------------------------------------------------------------------


def test_tail_certificate_round_trip():
    cert = separate_from_S(word("a b"))
    obj = ex1_tail_to_obj(cert)
    assert obj["type"] == "ex1_tail"
    assert isinstance(obj["modulus"], str)
    assert isinstance(obj["head_bound"], str)
    loaded = ex1_tail_from_obj(obj)
    assert loaded == cert
    assert ex1_tail_to_obj(loaded) == obj
    assert verify_ex1(loaded)


def test_tail_certificate_bytes_pinned():
    # the composite is mod 64 times the heads' one quotient mod 2, 132
    # points stored as bytes; the test below covers storage past 256 points.
    # Digests here were recorded in the indented layout (indented_digest)
    cert = separate_from_S(word("b^33"))
    assert cert.composite_quotient.degree == 132
    assert indented_digest(emit_certificate(cert)) == (
        "36e73beccf229ed9a5531568c7e187f77484f7db23f63d5b8a88a1dfb783c96c")


def test_tail_certificate_bytes_pinned_at_head_bound_512(capsys, tmp_path):
    # 511 heads and a composite of 1,028 points (mod 512 times mod 2), past
    # the 256 at which permutations stop being stored as bytes; the verdict
    # digest was recorded before the family was walked in one pass and the
    # composite clause grouped by residue pair
    cert = separate_from_S(word("b^267"))
    assert (cert.head_bound, cert.composite_quotient.degree) == (512, 1028)
    text = emit_certificate(cert)
    assert indented_digest(text) == (
        "02d767b9810176b145eeba1523bcf61adecf4c08ffdfe73f505123c731e01079")
    path = tmp_path / "tail.json"
    path.write_text(text)
    assert main(["ex1-verify", str(path)]) == 0
    assert indented_digest(capsys.readouterr().out) == (
        "a49594fe41ece1f27dda9a3fab2100096786967cc04502afdc16160188653c80")


def test_commutator_heads_are_partial_and_the_composite_keeps_its_bytes():
    # the head for s_1 = a is b a b^-1 a^-1, in the commutator subgroup: it
    # is a partial action, completed to permutations only where it enters
    # the composite's direct product, whose text was recorded when heads
    # like it were written completed
    cert = separate_from_S(word("b a b^-1"))
    head = cert.head_certificates[0]
    assert head.excluded == word("b a b^-1 a^-1")
    assert (head.quotient.kind, head.witness_kind) == ("partial", "basepoint-moved")
    assert verify_ex1(cert).ok
    composite = canonical_json(ex1_tail_to_obj(cert)["composite_quotient"])
    assert indented_digest(composite) == (
        "c4a87162889828cad985d20e24f7aaf388b11ca04059136f43653742f6fc00ab")


def test_composite_takes_each_distinct_factor_once():
    # b^t, t odd: every head is the abelian quotient mod 2, so the composite
    # is mod n times mod 2 (mod 2 alone when n = 2) whatever the head count
    for target, degree in (("b^33", 2 * 64 + 4), ("b^267", 2 * 512 + 4), ("b^-1", 4)):
        cert = separate_from_S(word(target))
        assert cert.composite_quotient.degree == degree
        assert verify_ex1(cert)
    # the commutator's heads are mod 2 and mod 3, and the second is the
    # abelian quotient mod n = 3 itself
    cert = separate_from_S(word("a b a^-1 b^-1"))
    assert cert.modulus == 3
    assert [h.quotient.modulus for h in cert.head_certificates] == [2, 3]
    assert cert.composite_quotient.degree == 6 + 4
    assert verify_ex1(cert)


def test_loaded_heads_share_one_quotient_each_and_keep_their_own():
    # head 100 is the head of s_101; 267 - m_101 is 2 mod 3 but 0 mod 7
    # (m_101 is 1 modulo both), so mod 3 still separates and mod 7 does
    # not; a load that handed that head the shared quotient mod 2 would
    # accept both
    obj = ex1_tail_to_obj(separate_from_S(word("b^267")))
    loaded = ex1_tail_from_obj(obj)
    assert len({id(h.quotient) for h in loaded.head_certificates}) == 1
    for modulus, reasons in ((3, ()), (7, ("head 101: excluded word lies in the kernel",))):
        edited = copy.deepcopy(obj)
        edited["head_certificates"][100]["quotient"] = {"kind": "abelian", "modulus": modulus}
        cert = ex1_tail_from_obj(edited)
        heads = cert.head_certificates
        assert heads[100].quotient.modulus == modulus
        others = {id(h.quotient) for i, h in enumerate(heads) if i != 100}
        assert len(others) == 1 and id(heads[100].quotient) not in others
        assert verify_ex1(cert).reasons == reasons


def test_witness_round_trip():
    w = not_closed_witness(abelian(6))
    obj = ex1_witness_to_obj(w)
    assert obj["type"] == "ex1_not_closed"
    assert isinstance(obj["k"], int)
    loaded = ex1_witness_from_obj(obj)
    assert loaded == w
    assert ex1_witness_to_obj(loaded) == obj
    assert verify_ex1_witness(loaded)


def test_tail_schema_rejections():
    obj = ex1_tail_to_obj(separate_from_S(WORD_B))

    missing = dict(obj)
    del missing["modulus"]
    with pytest.raises(SchemaError, match="modulus"):
        ex1_tail_from_obj(missing)

    extra = dict(obj, surprise=1)
    with pytest.raises(SchemaError, match="surprise"):
        ex1_tail_from_obj(extra)

    with pytest.raises(SchemaError, match="modulus"):
        ex1_tail_from_obj(dict(obj, modulus=2))          # int, not decimal string

    with pytest.raises(SchemaError, match="type"):
        ex1_tail_from_obj(dict(obj, type="separation"))

    with pytest.raises(SchemaError, match="partition"):
        ex1_tail_from_obj(dict(obj, partition={"k_size": 2, "l_size": 1}))

    with pytest.raises(SchemaError, match="head_certificates"):
        ex1_tail_from_obj(dict(obj, head_certificates="nope"))


@pytest.mark.parametrize("field", ["modulus", "head_bound"])
@pytest.mark.parametrize("text", ["--5", "\u00b2", "\u0663", "+5", " 5", "5\n", ""])
def test_tail_integer_fields_are_ascii_decimals(field, text):
    # "--5" and the superscript two passed isdigit() and then broke int();
    # the Arabic-Indic three loaded as 3 and re-emitted as different bytes
    obj = ex1_tail_to_obj(separate_from_S(WORD_B))
    with pytest.raises(SchemaError, match=field):
        ex1_tail_from_obj(dict(obj, **{field: text}))


@pytest.mark.parametrize("field", ["modulus", "head_bound"])
def test_tail_integer_fields_past_the_digit_limit(field):
    # int() refuses more than 4,300 digits with a bare ValueError
    obj = ex1_tail_to_obj(separate_from_S(WORD_B))
    with pytest.raises(SchemaError, match=f"{field}: 5000 characters"):
        ex1_tail_from_obj(dict(obj, **{field: "9" * 5000}))


def test_witness_schema_rejections():
    obj = ex1_witness_to_obj(not_closed_witness(abelian(4)))

    with pytest.raises(SchemaError, match="k"):
        ex1_witness_from_obj(dict(obj, k=True))

    with pytest.raises(SchemaError, match="k"):
        ex1_witness_from_obj(dict(obj, k=0))

    missing = dict(obj)
    del missing["cofactor"]
    with pytest.raises(SchemaError, match="cofactor"):
        ex1_witness_from_obj(missing)
