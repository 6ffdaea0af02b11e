"""The factorial-power family in the rank-2 free group and its certificates.

Over F = <a, b> the family S consists of the words ``s_j = a^(j!) b^(m_j)``,
where the integers m_j follow a fixed compatible system of residues (the
profinite target): residue 0 at every power of two and residue 1 at every
power of each odd prime.  The a-part a^(j!) lands in every finite-index
kernel eventually (convergence to the identity), the full family is closed
and discrete, and the set S<b> fails to be closed — each claim is witnessed
here by finite-quotient certificates that a verifier can recheck from
scratch.

Records here are immutable NamedTuples equal to plain tuples of their
fields; ``*_to_obj`` turns them into plain dicts and lists for JSON.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from .errors import CapExceededError, SchemaError
from .quotients import (
    ABELIAN,
    FiniteQuotient,
    check_point_budget,
    direct_product,
    make_abelian_quotient,
    quotient_from_obj,
    quotient_to_obj,
    _check_keys,
    _int_field,
)
from .separation import (
    PARTIAL,
    CheckResult,
    SeparationCertificate,
    _completed,
    abelian_image,
    separate_from_identity,
    verify_separation,
    witness_quotient_from_obj,
    witness_quotient_to_obj,
    _parse_word_field,
)
from .words import (
    FactorPartition,
    Generator,
    K,
    L,
    Word,
    exponent_sum,
    format_word,
    invert,
    multiply,
    reduce,
    word_length,
)

EX1_PARTITION = FactorPartition(1, 1)
GEN_A = Generator(K, 0)
GEN_B = Generator(L, 0)
WORD_A = Word(((GEN_A, 1),))
WORD_B = Word(((GEN_B, 1),))

# j! passes CPython's 4,300-digit limit on int-to-str conversion once
# j > 1,558, so a certificate could not write s_j; 1024 is the largest power
# of two below that, and the head bounds of b^t targets are powers of two
DEFAULT_HEAD_CAP = 1024


def m0_residue(n: int) -> int:
    """The target's residue mod n: 0 mod the 2-part t of n and 1 mod its odd
    part o, that is t * (t^-1 mod o), which is already below n."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"modulus must be a positive integer, got {n!r}")
    t = n & -n
    return t * pow(t, -1, n // t)


def m_sequence(j: int) -> int:
    """m_j: the target's smallest nonnegative residue mod lcm(1..j)."""
    if not isinstance(j, int) or j < 1:
        raise ValueError(f"index must be a positive integer, got {j!r}")
    return m0_residue(math.lcm(*range(1, j + 1)))


def a_element(j: int) -> Word:
    """a^(j!), a single-run word."""
    if j < 1:
        raise ValueError("index must be >= 1")
    return Word(((GEN_A, math.factorial(j)),))


def s_element(j: int) -> Word:
    """s_j = a^(j!) b^(m_j); the b-run disappears whenever m_j = 0."""
    if j < 1:
        raise ValueError("index must be >= 1")
    return reduce(((GEN_A, math.factorial(j)), (GEN_B, m_sequence(j))))


# j -> (j!, m_j, lcm(1..j), s_j); the limit is read once, so a cap raised later keeps no more
_TERMS, _TERMS_KEPT = {}, DEFAULT_HEAD_CAP


def s_family(h: int):
    """Yield (j, s_j) for j = 1 .. h-1 in order, in one pass.

    The first :data:`DEFAULT_HEAD_CAP` terms (about 1 MB) are kept process-wide
    as they are first read.  j! is a running product.  m_j moves only when
    j = p^e is a prime power, where lcm(1..j) gains one factor p; m is then
    read afresh by the odd-part rule of :func:`m0_residue`, as
    :func:`m_sequence` reads it.
    """
    terms, term = _TERMS, (1, 0, 1, None)
    for j in range(1, h):
        if j in terms:
            term = terms[j]
        else:
            fact, m, lcm, _ = term
            fact *= j
            p = j // math.gcd(j, lcm)  # p when j = p^e, else 1
            if p > 1:
                lcm *= p
                m = m0_residue(lcm)
            term = (fact, m, lcm, reduce(((GEN_A, fact), (GEN_B, m))))
            if j <= _TERMS_KEPT:
                terms[j] = term  # a term is a function of j: racing writes agree
        yield j, term[3]


def convergence_witness(q: FiniteQuotient) -> int:
    """Index k0 past which a^(k!) is in the kernel: the order of image(a),
    which divides k! for every k >= k0."""
    return q.element_order(WORD_A)


def separate_integer_from_m0(t: int) -> int:
    """A modulus at which the integer t differs from the profinite target:
    3 for t = 0 (target residue 1), else the least power of two above |t|."""
    if t == 0:
        return 3
    n = 1
    while n <= abs(t):
        n <<= 1
    return n


class Ex1TailCertificate(NamedTuple):
    """Separates a target word from the whole family S at once.

    The abelian quotient mod ``modulus`` tells the target apart from every
    s_j with j >= head_bound (the tail, where j! and m_j have collapsed mod n).
    Each head is the quotient that separates w s_j^-1 from the identity for
    one earlier s_j, in j order with the target's own index skipped; the
    verifier derives w s_j^-1.  ``composite_quotient`` is the direct product
    of the distinct quotients among all of the above.
    """

    target_word: Word
    modulus: int
    head_bound: int
    head_certificates: tuple
    composite_quotient: FiniteQuotient


class Ex1NotClosedWitness(NamedTuple):
    """For a quotient kernel N: an index k with s_k b^(-m_k) = a^(k!) in N,
    putting the coset of the identity inside N·S<b>.  That element lies in
    N exactly when the order of image(a) divides k!, so k alone is stored."""

    quotient: FiniteQuotient
    k: int


def separate_from_S(w: Word, head_margin: int = 0) -> Ex1TailCertificate:
    """Certificate that the reduced word ``w`` lies outside S.

    Membership is decidable up front because s_j has length at least j!;
    :func:`s_family` is walked once, until j! passes the length of ``w``.
    The modulus is chosen from the exponent sums so that the target's
    abelian image misses the tail value; everything below the head bound
    J = max(modulus, head_margin) is separated word-by-word.
    """
    j = _family_index(w, word_length(w) + 2)  # j! passes the length by then
    if j is not None:
        raise ValueError(f"the target word equals s_{j} and lies in the family")
    ta = exponent_sum(w, GEN_A)
    tb = exponent_sum(w, GEN_B)
    if ta != 0:
        n = abs(ta) + 1
    else:
        n = separate_integer_from_m0(tb)
    head_bound = max(n, head_margin)
    check_head_cap(head_bound, "head family of size")
    heads = [separate_from_identity(EX1_PARTITION, multiply(w, invert(s_i))).quotient
             for _, s_i in s_family(head_bound)]
    # a repeated factor leaves the kernel as it is, so each distinct one
    # (by generator images) enters once, in first-seen order, completed
    factors = {}
    for q in [make_abelian_quotient(EX1_PARTITION, n)] + heads:
        q = _completed(q) if q.kind == PARTIAL else q
        factors.setdefault((q.images[GEN_A], q.images[GEN_B]), q)
    composite = direct_product(*factors.values())
    return Ex1TailCertificate(w, n, head_bound, tuple(heads), composite)


def _family_index(w: Word, h: int):
    """The j < h with s_j = w, else None; as s_j has length at least j!,
    the walk stops once j! passes the length of ``w``."""
    length = word_length(w)
    for j, s_j in s_family(h):
        if s_j == w:
            return j
        if s_j.runs[0][1] > length:  # j!, the a-run's exponent
            return None
    return None


def check_head_cap(n: int, what: str):
    """Refuse an index ``n`` past :data:`DEFAULT_HEAD_CAP`, before any
    factorial is built, as "head cap ... exceeded (``what`` n)"."""
    if n > DEFAULT_HEAD_CAP:
        # the refusal stays one short line however long n is
        size = n if n < 10 ** 20 else f"with {_digit_count(n):,} digits"
        raise CapExceededError(DEFAULT_HEAD_CAP, f"{what} {size}", "head cap")


def _digit_count(n: int) -> int:
    """Decimal digits of n >= 10, which str() refuses past 4,300 of them;
    the float logarithm d is off by at most one."""
    d = int(math.log10(n))
    return d - 1 + sum(n >= 10 ** k for k in range(d - 1, d + 2))


def verify_ex1(cert: Ex1TailCertificate) -> CheckResult:
    """Recheck a tail certificate from scratch in one walk of :func:`s_family`:
    head reasons come first, then the composite's, then the tail value's.

    An abelian head mod n in the family's partition is checked on
    (ta - j!, tb - m_j) mod n, with ta and tb the target's exponent sums and
    j! and m_j read off the runs of s_j: exponent sums add and survive
    reduction, so that pair is the abelian image of w s_j^-1.  Any other
    head, a partial one or an in-process value of another form, is checked
    by :func:`verify_separation` along w s_j^-1 and keeps its reasons.
    """
    reasons = []
    w = cert.target_word
    n = cert.modulus
    head_bound = cert.head_bound
    composite = cert.composite_quotient
    if type(n) is not int or n < 2:  # exact ints: a bool would read as 0 or 1
        reasons.append(f"modulus: expected an integer >= 2, got {n!r}")
    if type(head_bound) is not int or head_bound < 1:
        reasons.append(f"head_bound: expected an integer >= 1, got {head_bound!r}")
    # an in-process field may be anything, and every clause below reads these
    fields = (("target_word", w, Word, "a Word"),
              ("head_certificates", cert.head_certificates, (tuple, list), "a sequence"),
              ("composite_quotient", composite, FiniteQuotient, "a FiniteQuotient"))
    reasons += [f"{name}: expected {what}, got {type(value).__name__}"
                for name, value, expected, what in fields if not isinstance(value, expected)]
    if reasons:
        return CheckResult(False, tuple(reasons))
    if n > head_bound:
        reasons.append(f"modulus {n} exceeds head bound {head_bound}")
    found = len(cert.head_certificates)
    if found < head_bound - 2:
        # every s_j below the head bound but the target itself needs a head;
        # stopping here keeps the work below within the file's own size
        reasons.append(f"expected at least {head_bound - 2} head certificates, found {found}")
        return CheckResult(False, tuple(reasons))
    check_head_cap(head_bound, "head family of size")  # as separate_from_S does

    skip = _family_index(w, head_bound)  # the target's own index needs no head
    expected = head_bound - 1 - (skip is not None)
    if found != expected:
        reasons.append(f"expected {expected} head certificates, found {found}")
    heads = iter(cert.head_certificates) if found == expected else None
    # words whose runs agree modulo the orders of the composite's generator
    # images have one image (image() reduces each run so), so each such key
    # is imaged once: j! and m_j take few residue pairs below the head bound
    target = composite.image(w).mapping
    orders = [composite._generator_steps(g)[0] for g in (GEN_A, GEN_B)]
    ta, tb = exponent_sum(w, GEN_A), exponent_sum(w, GEN_B)
    same = {}
    blind = []
    for j, s in s_family(head_bound):
        if heads is not None and j != skip:
            q = next(heads)
            mod = getattr(q, "modulus", None)
            if (type(mod) is int and mod >= 2 and getattr(q, "kind", None) == ABELIAN
                    and q.partition == EX1_PARTITION):
                runs = s.runs  # a-run j!, then a b-run m_j unless m_j = 0
                m_j = runs[1][1] if len(runs) > 1 else 0
                if not ((ta - runs[0][1]) % mod or (tb - m_j) % mod):
                    reasons.append(f"head {j}: excluded word lies in the kernel")
            else:
                sub = verify_separation(SeparationCertificate(q, (), multiply(w, invert(s))))
                if not sub:
                    reasons.extend(f"head {j}: {r}" for r in sub.reasons)
        key = tuple([e % o for (_, e), o in zip(s.runs, orders)])  # a-run, then any b-run
        if key not in same:
            same[key] = composite.image(s).mapping == target
        if same[key]:
            blind.append(f"composite quotient cannot tell the target from s_{j}")
    reasons += blind

    # every s_j with j >= head_bound has this image once n <= head_bound
    # (checked above): n then divides lcm(1..head_bound), hence j!, and
    # m_j agrees with m_head_bound modulo it; equals (0, m0_residue(n)),
    # 0 mod the 2-part of n and 1 mod its odd part
    tail_value = (0, m_sequence(head_bound) % n)
    if abelian_image(EX1_PARTITION, w, n) == tail_value:
        reasons.append("target word collides with the tail value mod n")
    return CheckResult(not reasons, tuple(reasons))


def not_closed_witness(q: FiniteQuotient) -> Ex1NotClosedWitness:
    """The witness at k = the order of image(a), which divides k!.

    Its kernel element s_k b^(-m_k) puts the identity in the closure of
    S<b>, while the a-exponent j! of every element of S<b> keeps the
    identity out of the set itself.
    """
    k = q.element_order(WORD_A)
    check_head_cap(k, "s_k and m_k for k =")
    return Ex1NotClosedWitness(q, k)


def verify_ex1_witness(witness: Ex1NotClosedWitness) -> CheckResult:
    """Recheck a not-closed witness: s_k b^(-m_k) = a^(k!) lies in the
    kernel exactly when the order of image(a) divides k!."""
    k = witness.k
    if type(k) is not int or k < 1:
        return CheckResult(False, (f"k: expected an integer >= 1, got {k!r}",))
    check_head_cap(k, "s_k and m_k for k =")
    order_a = witness.quotient.element_order(WORD_A)
    if math.factorial(k) % order_a:
        return CheckResult(False, (f"k! is not divisible by the order {order_a} of image(a)",))
    return CheckResult(True, ())


# --- serialization ------------------------------------------------------------

def ex1_tail_to_obj(cert: Ex1TailCertificate) -> dict:
    p = EX1_PARTITION
    return {
        "type": "ex1_tail",
        "target_word": format_word(cert.target_word, p),
        "modulus": str(cert.modulus),
        "head_bound": str(cert.head_bound),
        "head_certificates": [witness_quotient_to_obj(q) for q in cert.head_certificates],
        "composite_quotient": quotient_to_obj(cert.composite_quotient),
    }


def ex1_tail_from_obj(obj, path="certificate", enumeration_cap=None) -> Ex1TailCertificate:
    """Parse a tail certificate.  Its words and quotients, each head a
    separating quotient, are read in the family's partition 1+1."""
    allowed = {"type", "target_word", "modulus", "head_bound", "head_certificates",
               "composite_quotient"}
    _check_keys(obj, allowed, path)
    if obj["type"] != "ex1_tail":
        raise SchemaError(f"{path}.type: expected 'ex1_tail', got {obj['type']!r}")
    partition = EX1_PARTITION
    target = _parse_word_field(obj["target_word"], partition, f"{path}.target_word")
    modulus = _decimal_field(obj["modulus"], f"{path}.modulus")
    head_bound = _decimal_field(obj["head_bound"], f"{path}.head_bound")
    raw_heads = obj["head_certificates"]
    if not isinstance(raw_heads, list):
        raise SchemaError(f"{path}.head_certificates: expected a list")
    check_point_budget([(q, partition.rank) for q in [obj["composite_quotient"], *raw_heads]],
                       enumeration_cap)
    heads = tuple(witness_quotient_from_obj(h, partition, f"{path}.head_certificates[{i}]",
                                            enumeration_cap)
                  for i, h in enumerate(raw_heads))
    composite = quotient_from_obj(obj["composite_quotient"], partition,
                                  f"{path}.composite_quotient", enumeration_cap=enumeration_cap)
    return Ex1TailCertificate(target, modulus, head_bound, heads, composite)


def ex1_witness_to_obj(witness: Ex1NotClosedWitness) -> dict:
    return {
        "type": "ex1_not_closed",
        "quotient": quotient_to_obj(witness.quotient),
        "k": witness.k,
    }


def ex1_witness_from_obj(obj, path="witness", enumeration_cap=None) -> Ex1NotClosedWitness:
    """Parse a not-closed witness; its quotient is read in the family's partition 1+1."""
    allowed = {"type", "quotient", "k"}
    _check_keys(obj, allowed, path)
    if obj["type"] != "ex1_not_closed":
        raise SchemaError(f"{path}.type: expected 'ex1_not_closed', got {obj['type']!r}")
    quotient = quotient_from_obj(obj["quotient"], EX1_PARTITION, f"{path}.quotient",
                                 enumeration_cap=enumeration_cap)
    k = _int_field(obj["k"], f"{path}.k", minimum=1)
    return Ex1NotClosedWitness(quotient, k)


def _decimal_field(value, path: str) -> int:
    if not isinstance(value, str) or not re.fullmatch(r"-?[0-9]+", value):
        raise SchemaError(f"{path}: expected a decimal integer string")
    try:
        return int(value)
    except ValueError:  # past the interpreter's limit on digits converted
        raise SchemaError(f"{path}: {len(value)} characters, too many digits "
                          f"to convert") from None
