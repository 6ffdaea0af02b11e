"""The factorial-power family in the rank-2 free group and its certificates.

Over F = <a, b> the family S consists of the words ``s_j = a^(j!) b^(m_j)``,
where the integers m_j follow a fixed compatible system of residues (the
profinite target): residue 0 at every power of two and residue 1 at every
power of each odd prime.  The a-part a^(j!) lands in every finite-index
kernel eventually (convergence to the identity), the full family is closed
and discrete, and the set S<b> fails to be closed — each claim is witnessed
here by finite-quotient certificates that a verifier can recheck from
scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CapExceededError, SchemaError
from .quotients import (
    FiniteQuotient,
    direct_product,
    make_abelian_quotient,
    quotient_from_obj,
    quotient_to_obj,
    _check_keys,
)
from .separation import (
    CheckResult,
    SeparationCertificate,
    partition_from_obj,
    partition_to_obj,
    separate_from_identity,
    separation_from_obj,
    separation_to_obj,
    verify_separation,
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
    identity as identity_word,
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

DEFAULT_HEAD_CAP = 4096


def _crt(pairs) -> int:
    """Combine (residue, modulus) pairs with pairwise coprime moduli."""
    x, m = 0, 1
    for r, q in pairs:
        t = ((r - x) * pow(m, -1, q)) % q
        x += m * t
        m *= q
    return x % m


def _prime_power_factorization(n: int) -> list:
    """(p, p^e) pairs by trial division; fast whenever n is smooth."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            q = 1
            while n % d == 0:
                n //= d
                q *= d
            out.append((d, q))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, n))
    return out


def m0_residue(n: int) -> int:
    """The target's residue mod n: 0 at powers of two, 1 at odd prime powers,
    combined by the Chinese remainder theorem for composite n."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"modulus must be a positive integer, got {n!r}")
    pairs = [(0 if p == 2 else 1, q) for p, q in _prime_power_factorization(n)]
    return _crt(pairs)


def _primes_upto(j: int) -> list:
    sieve = bytearray([1]) * (j + 1)
    out = []
    for p in range(2, j + 1):
        if sieve[p]:
            out.append(p)
            for multiple in range(p * p, j + 1, p):
                sieve[multiple] = 0
    return out


def m_sequence(j: int) -> int:
    """m_j: the target's smallest nonnegative residue mod lcm(1..j)."""
    if not isinstance(j, int) or j < 1:
        raise ValueError(f"index must be a positive integer, got {j!r}")
    pairs = []
    for p in _primes_upto(j):
        q = p
        while q * p <= j:
            q *= p
        pairs.append((0 if p == 2 else 1, q))
    return _crt(pairs)


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


def convergence_witness(q: FiniteQuotient) -> int:
    """Index k0 past which a^(k!) is in the kernel; checks k0..k0+10."""
    k0 = q.element_order(WORD_A)
    for k in range(k0, k0 + 11):
        if not q.in_kernel(a_element(k)):
            raise RuntimeError(f"a^({k}!) escaped the kernel despite k >= {k0}")
    return k0


def separate_integer_from_m0(t: int) -> int:
    """A modulus at which the integer t differs from the profinite target:
    3 for t = 0 (target residue 1), else the least power of two above |t|."""
    if t == 0:
        return 3
    n = 1
    while n <= abs(t):
        n <<= 1
    return n


@dataclass(frozen=True)
class Ex1TailCertificate:
    """Separates a target word from the whole family S at once.

    The abelian quotient mod ``modulus`` tells the target apart from every
    s_j with j >= head_bound (the tail, where j! and m_j have collapsed mod
    n); the head certificates handle the finitely many earlier s_j, and
    ``composite_quotient`` is the direct product of all of the above.
    """

    target_word: Word
    modulus: int
    head_bound: int
    head_certificates: tuple
    composite_quotient: FiniteQuotient


@dataclass(frozen=True)
class Ex1NotClosedWitness:
    """For a quotient kernel N: the witness s_k b^(-m_k) = a^(k!) in N,
    putting the coset of the identity inside N·S<b>."""

    quotient: FiniteQuotient
    k: int
    s_word: Word
    cofactor: Word


def separate_from_S(w: Word, head_margin: int = 0, head_cap: int = DEFAULT_HEAD_CAP,
                    enumeration_cap=None) -> Ex1TailCertificate:
    """Certificate that the reduced word ``w`` lies outside S.

    Membership is decidable up front because s_j has length at least j!.
    The modulus is chosen from the exponent sums so that the target's
    abelian image misses the tail value; everything below the head bound
    J = max(modulus, head_margin) is separated word-by-word.
    """
    j = 1
    while math.factorial(j) <= word_length(w):
        if w == s_element(j):
            raise ValueError(f"the target word equals s_{j} and lies in the family")
        j += 1
    ta = exponent_sum(w, GEN_A)
    tb = exponent_sum(w, GEN_B)
    if ta != 0:
        n = abs(ta) + 1
    else:
        n = separate_integer_from_m0(tb)
    head_bound = max(n, head_margin)
    if head_bound > head_cap:
        raise CapExceededError(head_cap, f"head family of size {head_bound}")
    heads = []
    for i in range(1, head_bound):
        s_i = s_element(i)
        if s_i == w:
            continue
        heads.append(separate_from_identity(EX1_PARTITION, multiply(w, invert(s_i)),
                                            enumeration_cap=enumeration_cap))
    composite = make_abelian_quotient(EX1_PARTITION, n, enumeration_cap=enumeration_cap)
    for head in heads:
        composite = direct_product(composite, head.quotient)
    return Ex1TailCertificate(w, n, head_bound, tuple(heads), composite)


def verify_ex1(cert: Ex1TailCertificate) -> CheckResult:
    """Recheck a tail certificate from scratch using quotient primitives."""
    reasons = []
    w = cert.target_word
    n = cert.modulus
    head_bound = cert.head_bound
    if not isinstance(n, int) or n < 2:
        reasons.append(f"modulus: expected an integer >= 2, got {n!r}")
    if not isinstance(head_bound, int) or head_bound < 1:
        reasons.append(f"head_bound: expected an integer >= 1, got {head_bound!r}")
    if reasons:
        return CheckResult(False, tuple(reasons))
    if n > head_bound:
        reasons.append(f"modulus {n} exceeds head bound {head_bound}")
    if len(cert.head_certificates) < head_bound - 2:
        # every s_j below the head bound but the target itself needs a head;
        # stopping here keeps the work below within the file's own size
        reasons.append(f"expected at least {head_bound - 2} head certificates, "
                       f"found {len(cert.head_certificates)}")
        return CheckResult(False, tuple(reasons))

    expected = [j for j in range(1, head_bound) if s_element(j) != w]
    if len(cert.head_certificates) != len(expected):
        reasons.append(
            f"expected {len(expected)} head certificates, found {len(cert.head_certificates)}")
    else:
        for j, head in zip(expected, cert.head_certificates):
            want = multiply(w, invert(s_element(j)))
            if head.excluded != want:
                reasons.append(f"head {j}: excluded word is not target*s_{j}^-1")
            sub = verify_separation(head)
            if not sub:
                reasons.extend(f"head {j}: {r}" for r in sub.reasons)

    for j in range(1, head_bound):
        if cert.composite_quotient.coset_equal(w, s_element(j)):
            reasons.append(f"composite quotient cannot tell the target from s_{j}")

    abelian = make_abelian_quotient(EX1_PARTITION, n)
    # equals (0, m0_residue(n)) when n <= head_bound, as n then divides
    # lcm(1..head_bound), and needs no factorization of n
    tail_value = (0, m_sequence(head_bound) % n)
    for j in range(head_bound, head_bound + 11):
        if abelian.image(s_element(j)) != tail_value:
            reasons.append(f"s_{j} misses the expected tail value mod {n}")
    if abelian.image(w) == tail_value:
        reasons.append("target word collides with the tail value mod n")
    return CheckResult(not reasons, tuple(reasons))


def not_closed_witness(q: FiniteQuotient) -> Ex1NotClosedWitness:
    """Kernel element of the form s_k b^(-m_k) for k = order of image(a).

    Its existence puts the identity in the closure of S<b>, while the
    a-exponent j! of every element of S<b> keeps the identity out of the
    set itself.
    """
    k = q.element_order(WORD_A)
    s_word = s_element(k)
    m_k = m_sequence(k)
    cofactor = Word(((GEN_B, -m_k),)) if m_k else identity_word()
    if not q.in_kernel(multiply(s_word, cofactor)):
        raise RuntimeError("witness product escaped the kernel")
    for j in range(1, min(k, 20) + 1):
        if exponent_sum(s_element(j), GEN_A) != math.factorial(j):
            raise RuntimeError(f"s_{j} lost its a-exponent {j}!")
    return Ex1NotClosedWitness(q, k, s_word, cofactor)


def verify_ex1_witness(witness: Ex1NotClosedWitness) -> CheckResult:
    """Recheck a not-closed witness: the echoed pieces and the kernel claim."""
    reasons = []
    k = witness.k
    if witness.s_word != s_element(k):
        reasons.append(f"s_element does not equal s_{k}")
    m_k = m_sequence(k)
    want_cofactor = Word(((GEN_B, -m_k),)) if m_k else identity_word()
    if witness.cofactor != want_cofactor:
        reasons.append(f"cofactor does not equal b^(-m_{k})")
    if not witness.quotient.in_kernel(multiply(witness.s_word, witness.cofactor)):
        reasons.append("witness product is not in the kernel")
    order_a = witness.quotient.element_order(WORD_A)
    if not _factorial_divisible(k, order_a):
        reasons.append(f"k! is not divisible by the order {order_a} of image(a)")
    return CheckResult(not reasons, tuple(reasons))


def _factorial_divisible(k: int, n: int) -> bool:
    """Whether n divides k!, via Legendre's valuation of k! at each prime."""
    for p, q in _prime_power_factorization(n):
        need = 0
        while q > p:
            q //= p
            need += 1
        need += 1
        have, power = 0, p
        while power <= k:
            have += k // power
            power *= p
        if have < need:
            return False
    return True


# --- serialization ------------------------------------------------------------

def ex1_tail_to_obj(cert: Ex1TailCertificate) -> dict:
    p = EX1_PARTITION
    return {
        "type": "ex1_tail",
        "partition": partition_to_obj(p),
        "target_word": format_word(cert.target_word, p),
        "modulus": str(cert.modulus),
        "head_bound": str(cert.head_bound),
        "head_certificates": [separation_to_obj(h) for h in cert.head_certificates],
        "composite_quotient": quotient_to_obj(cert.composite_quotient),
    }


def ex1_tail_from_obj(obj, path="certificate", enumeration_cap=None) -> Ex1TailCertificate:
    allowed = {"type", "partition", "target_word", "modulus", "head_bound",
               "head_certificates", "composite_quotient"}
    _check_keys(obj, allowed, path)
    if obj["type"] != "ex1_tail":
        raise SchemaError(f"{path}.type: expected 'ex1_tail', got {obj['type']!r}")
    partition = partition_from_obj(obj["partition"], f"{path}.partition")
    if partition != EX1_PARTITION:
        raise SchemaError(f"{path}.partition: this family lives in the rank-2 split 1+1")
    target = _parse_word_field(obj["target_word"], partition, f"{path}.target_word")
    modulus = _decimal_field(obj["modulus"], f"{path}.modulus")
    head_bound = _decimal_field(obj["head_bound"], f"{path}.head_bound")
    raw_heads = obj["head_certificates"]
    if not isinstance(raw_heads, list):
        raise SchemaError(f"{path}.head_certificates: expected a list")
    heads = tuple(
        separation_from_obj(h, f"{path}.head_certificates[{i}]", enumeration_cap=enumeration_cap)
        for i, h in enumerate(raw_heads))
    composite = quotient_from_obj(obj["composite_quotient"], partition,
                                  f"{path}.composite_quotient", enumeration_cap=enumeration_cap)
    return Ex1TailCertificate(target, modulus, head_bound, heads, composite)


def ex1_witness_to_obj(witness: Ex1NotClosedWitness) -> dict:
    p = EX1_PARTITION
    return {
        "type": "ex1_not_closed",
        "partition": partition_to_obj(p),
        "quotient": quotient_to_obj(witness.quotient),
        "k": witness.k,
        "s_element": format_word(witness.s_word, p),
        "cofactor": format_word(witness.cofactor, p),
    }


def ex1_witness_from_obj(obj, path="witness", enumeration_cap=None) -> Ex1NotClosedWitness:
    allowed = {"type", "partition", "quotient", "k", "s_element", "cofactor"}
    _check_keys(obj, allowed, path)
    if obj["type"] != "ex1_not_closed":
        raise SchemaError(f"{path}.type: expected 'ex1_not_closed', got {obj['type']!r}")
    partition = partition_from_obj(obj["partition"], f"{path}.partition")
    if partition != EX1_PARTITION:
        raise SchemaError(f"{path}.partition: this family lives in the rank-2 split 1+1")
    quotient = quotient_from_obj(obj["quotient"], partition, f"{path}.quotient",
                                 enumeration_cap=enumeration_cap)
    k = obj["k"]
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise SchemaError(f"{path}.k: expected an integer >= 1")
    s_word = _parse_word_field(obj["s_element"], partition, f"{path}.s_element")
    cofactor = _parse_word_field(obj["cofactor"], partition, f"{path}.cofactor")
    return Ex1NotClosedWitness(quotient, k, s_word, cofactor)


def _decimal_field(value, path: str) -> int:
    if not isinstance(value, str) or not value.lstrip("-").isdigit():
        raise SchemaError(f"{path}: expected a decimal integer string")
    return int(value)
