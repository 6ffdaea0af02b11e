"""A discrete closed family in a free product of free groups.

The ambient group is F = <K-generators> * <L-generators>.  A certificate
holds a descending chain of finite quotients Q_1, Q_2, ..., one word r_n
per step that sits far from the identity in the Cayley graph of Q_n, and a
companion s_n = r_n * b^(e_n) in the same Q_n-coset whose last syllable
lies in the L factor.  Four per-step conditions, an index bound at step 1,
strictness of the chain, and a reciprocal-sum bound below one half are all
that a verifier needs; together they make S = {s_n} closed and discrete
while S<K-subgroup> fails to be closed.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceededError, SchemaError
from .quotients import (
    DEFAULT_ENUMERATION_CAP,
    FiniteQuotient,
    Permutation,
    direct_product,
    generated_image_table,
    make_abelian_quotient,
    make_permutation_quotient,
    quotient_from_obj,
    quotient_to_obj,
    _check_keys,
)
from .separation import partition_from_obj, partition_to_obj, _parse_word_field
from .words import (
    FactorPartition,
    Generator,
    K,
    L,
    Word,
    format_word,
    identity as identity_word,
    invert,
    multiply,
    power,
    syllables,
    word_length,
)

DEFAULT_MAX_SOURCE_DRAWS = 96


class NoAdmissibleElementError(RuntimeError):
    """The admissible-element search exhausted the K-image of a quotient."""


def default_f(n: int) -> int:
    """Default distance requirement per step; any strictly increasing
    positive sequence works."""
    return n + 1


def _k_letter_words(partition: FactorPartition) -> list:
    return [Word(((g, 1),)) for g in partition.k_generators()]


def _b_word(partition: FactorPartition) -> Word:
    return Word(((Generator(L, 0), 1),))


class MixedQuotientSource:
    """Deterministic seeded stream of quotient factors.

    Alternates permutation quotients (K-generators land on powers of one
    cycle, so K-balls grow polynomially; L-generators land on shuffled
    permutations) with abelian quotients at successive fresh primes, which
    guarantee that the K-image keeps growing as factors accumulate.
    """

    kind = "mixed"

    def __init__(self, partition: FactorPartition, seed: int = 0,
                 enumeration_cap: int = DEFAULT_ENUMERATION_CAP):
        self.partition = partition
        self.seed = seed
        self.enumeration_cap = enumeration_cap

    def describe(self) -> dict:
        return {"kind": self.kind, "seed": self.seed}

    def stream(self):
        rng = random.Random(self.seed)
        prime = 1
        while True:
            degree = rng.randrange(5, 10)
            cycle = Permutation(tuple((i + 1) % degree for i in range(degree)))
            images = {}
            for g in self.partition.k_generators():
                images[g] = cycle ** rng.randrange(1, degree)
            for g in self.partition.l_generators():
                values = list(range(degree))
                rng.shuffle(values)
                images[g] = Permutation(tuple(values))
            yield make_permutation_quotient(self.partition, images,
                                            enumeration_cap=self.enumeration_cap)
            prime = _next_prime(prime)
            yield make_abelian_quotient(self.partition, prime,
                                        enumeration_cap=self.enumeration_cap)


def _next_prime(n: int) -> int:
    candidate = n + 1
    while True:
        if candidate >= 2 and all(candidate % d for d in range(2, int(candidate ** 0.5) + 1)):
            return candidate
        candidate += 1


def subgroup_k_index(q: FiniteQuotient) -> int:
    """Order of the image of the K-factor subgroup in q."""
    return len(generated_image_table(q, _k_letter_words(q.partition)))


def choose_r(q: FiniteQuotient, forbidden, radius: int, enumeration_cap=None) -> Word:
    """First K-word (by breadth-first search of the K-image) whose image
    lies outside the radius-``radius`` ball of the full Cayley graph and
    outside every forbidden coset.

    ``forbidden`` is a sequence of (quotient, word) pairs; candidates whose
    coset in that quotient matches the word's are pruned.  The returned
    word is a K-geodesic by construction.
    """
    cap = q.enumeration_cap if enumeration_cap is None else enumeration_cap
    ball = set(q.ball(radius, cap=cap))
    moves = []
    for w in _k_letter_words(q.partition):
        moves.append((w, q.image(w)))
    for w in _k_letter_words(q.partition):
        moves.append((invert(w), q.elem_inv(q.image(w))))
    start = q.identity_element()
    seen = {start}
    queue = deque([(start, identity_word())])
    while queue:
        x, wx = queue.popleft()
        if x not in ball and all(not qm.coset_equal(wx, rm) for qm, rm in forbidden):
            return wx
        for mw, mx in moves:
            y = q.elem_mul(x, mx)
            if y not in seen:
                if len(seen) >= cap:
                    raise CapExceededError(cap, "K-image search in choose_r")
                seen.add(y)
                queue.append((y, multiply(wx, mw)))
    raise NoAdmissibleElementError(
        f"the K-image of size {len(seen)} has no element past radius {radius} "
        f"and outside {len(forbidden)} forbidden cosets")


def make_s(r: Word, q: FiniteQuotient):
    """s = r * b^e for e the order of image(b); returns (s, e).

    Appending a full period of b keeps s in the coset of r while forcing
    the final syllable into the L factor.
    """
    if r.is_identity() or any(g.factor != K for g, _ in r.runs):
        raise ValueError("r must be a nonempty word in the K-generators")
    b = _b_word(q.partition)
    e = q.element_order(b)
    return multiply(r, power(b, e)), e


@dataclass(frozen=True)
class Ex2Params:
    partition: FactorPartition
    steps: int
    f_values: tuple
    source: dict
    enumeration_cap: int
    max_source_draws: int


@dataclass(frozen=True)
class Ex2Step:
    quotient: FiniteQuotient
    r: Word
    s: Word
    e: int
    f_value: int
    k_index: int


@dataclass(frozen=True)
class Ex2Certificate:
    params: Ex2Params
    steps: tuple
    reciprocal_sum: Fraction


def _materialize_f(f, steps: int) -> tuple:
    if f is None:
        values = tuple(default_f(n) for n in range(1, steps + 1))
    elif callable(f):
        values = tuple(f(n) for n in range(1, steps + 1))
    else:
        values = tuple(f)
    if len(values) != steps:
        raise ValueError(f"need {steps} distance requirements, got {len(values)}")
    for i, v in enumerate(values):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValueError(f"f({i + 1}) must be a positive integer, got {v!r}")
        if i and values[i] <= values[i - 1]:
            raise ValueError("the distance requirements must be strictly increasing")
    return values


def construct_ex2(partition: FactorPartition = None, steps: int = 4, f=None,
                  seed: int = 0, source=None,
                  enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
                  max_source_draws: int = DEFAULT_MAX_SOURCE_DRAWS) -> Ex2Certificate:
    """Build a certificate with ``steps`` steps.

    Factors are drawn from the source and multiplied in only when they
    grow the K-image; growth of the index [K : H_n] both drives the chain
    strictly downward and eventually satisfies the index demanded by the
    step-1 bound and by the reciprocal-sum slack.
    """
    if partition is None:
        partition = FactorPartition(2, 2)
    if not isinstance(steps, int) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    f_values = _materialize_f(f, steps)
    if source is None:
        source = MixedQuotientSource(partition, seed, enumeration_cap)
    stream = source.stream()
    k_words = _k_letter_words(partition)
    kk = partition.k_size

    quotient = None
    built = []
    forbidden = []
    recip = Fraction(0)
    index = 1  # order of the K-image of ``quotient``, carried from its table
    draws = 0
    for n in range(1, steps + 1):
        f_n = f_values[n - 1]
        # reduced K-words of length exactly f_n; the K-image must outgrow
        # this count before "outside the f_n-ball" can have solutions
        sphere_count = 2 * kk * (2 * kk - 1) ** (f_n - 1)
        need = index + 1
        need = max(need, sphere_count + 1 if n == 1 else 2 * sphere_count + 1)
        slack = Fraction(1, 2) - recip
        need = max(need, int(1 / slack) + 1)
        r_n = None
        while r_n is None:
            if index >= need:
                try:
                    r_n = choose_r(quotient, forbidden, f_n,
                                   enumeration_cap=enumeration_cap)
                    break
                except NoAdmissibleElementError:
                    pass
            if draws >= max_source_draws:
                raise CapExceededError(max_source_draws, "quotient source draws")
            factor = next(stream)
            draws += 1
            candidate = (factor if quotient is None
                         else direct_product(quotient, factor))
            try:
                cand_index = len(generated_image_table(candidate, k_words))
            except CapExceededError:
                continue
            if quotient is None or cand_index > index:
                quotient, index = candidate, cand_index
        s_n, e_n = make_s(r_n, quotient)
        recip += Fraction(1, index)
        assert recip < Fraction(1, 2)
        built.append(Ex2Step(quotient, r_n, s_n, e_n, f_n, index))
        forbidden.append((quotient, r_n))
    params = Ex2Params(partition, steps, f_values, source.describe(),
                       enumeration_cap, max_source_draws)
    return Ex2Certificate(params, tuple(built), recip)


# --- verification -------------------------------------------------------------

@dataclass(frozen=True)
class Ex2Clause:
    clause: str
    m: object
    k: object
    ok: bool
    detail: str


@dataclass(frozen=True)
class Ex2Report:
    clauses: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.clauses)

    def __bool__(self) -> bool:
        return self.ok

    def failures(self) -> tuple:
        return tuple(c for c in self.clauses if not c.ok)


def verify_ex2(cert: Ex2Certificate) -> Ex2Report:
    """Recheck every claim of a chain certificate, one clause at a time.

    Only word and quotient primitives are used — nothing from the
    construction path — so a verifier run is meaningful on certificates
    of unknown origin.
    """
    clauses = []
    params = cert.params
    p = params.partition
    n_steps = params.steps
    f_values = params.f_values
    k_words = _k_letter_words(p)
    b = _b_word(p)

    ok = (len(f_values) == n_steps and n_steps >= 1
          and all(isinstance(v, int) and not isinstance(v, bool) and v >= 1
                  for v in f_values)
          and all(f_values[i] < f_values[i + 1] for i in range(len(f_values) - 1)))
    clauses.append(Ex2Clause("params-structure", None, None, ok,
                             f"{n_steps} steps, f values {list(f_values)}"))
    if len(cert.steps) != n_steps:
        clauses.append(Ex2Clause("params-structure", None, None, False,
                                 f"expected {n_steps} steps, found {len(cert.steps)}"))
        return Ex2Report(tuple(clauses))

    tables = []  # K-image table of each step, read again by chain-descent
    for m in range(1, n_steps + 1):
        st = cert.steps[m - 1]
        q = st.quotient
        problems = []
        if st.r.is_identity() or any(g.factor != K for g, _ in st.r.runs):
            problems.append("r is not a nonempty K-word")
        order_b = q.element_order(b)
        if st.e != order_b:
            problems.append(f"e = {st.e} but image(b) has order {order_b}")
        if st.s != multiply(st.r, power(b, st.e)):
            problems.append("s does not equal r * b^e")
        tables.append(generated_image_table(q, k_words))
        index = len(tables[-1])
        if st.k_index != index:
            problems.append(f"recorded K-index {st.k_index}, recomputed {index}")
        if st.f_value != f_values[m - 1]:
            problems.append(f"step f value {st.f_value} differs from params")
        clauses.append(Ex2Clause("step-structure", m, None, not problems,
                                 "; ".join(problems) or
                                 f"e = {st.e}, [K-image] = {index}"))

        f_m = f_values[m - 1]
        dist = q.cayley_distance(st.r, max_radius=f_m)
        ok = dist is None
        clauses.append(Ex2Clause("condition1", m, None, ok,
                                 f"distance(image r_{m}, 1) > {f_m}" if ok else
                                 f"distance(image r_{m}, 1) = {dist} <= {f_m}"))

        ok = q.coset_equal(st.s, st.r)
        clauses.append(Ex2Clause("condition2", m, None, ok,
                                 f"s_{m} and r_{m} agree in Q_{m}" if ok else
                                 f"s_{m} and r_{m} differ in Q_{m}"))

        syl = syllables(st.s, p)
        ok = bool(syl) and syl[-1][0] == L
        clauses.append(Ex2Clause("condition3", m, None, ok,
                                 f"last syllable of s_{m} is in the L factor" if ok
                                 else f"last syllable of s_{m} is not in the L factor"))

        for k in range(m + 1, n_steps + 1):
            other = cert.steps[k - 1]
            ok = not q.coset_equal(other.r, st.r)
            clauses.append(Ex2Clause("condition4", m, k, ok,
                                     f"r_{k} avoids the Q_{m}-coset of r_{m}" if ok
                                     else f"r_{k} collides with r_{m} in Q_{m}"))

    kk = p.k_size
    bound = 2 * kk * (2 * kk - 1) ** (f_values[0] - 1)
    ok = len(tables[0]) > bound
    clauses.append(Ex2Clause("step1-index-bound", 1, None, ok,
                             f"[K-image] = {len(tables[0])} vs required > {bound}"))

    for n in range(1, n_steps):
        q_next = cert.steps[n].quotient
        q_this = cert.steps[n - 1].quotient
        bad = []
        for m in range(n + 1, n_steps + 1):
            st = cert.steps[m - 1]
            probe = multiply(st.s, invert(st.r))
            if st.quotient.in_kernel(probe) and not q_this.in_kernel(probe):
                bad.append(f"s_{m} r_{m}^-1 in ker Q_{m} but not in ker Q_{n}")
            b_power = power(b, st.e)
            if st.quotient.in_kernel(b_power) and not q_this.in_kernel(b_power):
                bad.append(f"b^e_{m} in ker Q_{m} but not in ker Q_{n}")
        clauses.append(Ex2Clause("chain-containment", n, None, not bad,
                                 "; ".join(bad) or
                                 f"{2 * (n_steps - n)} kernel probes descend into ker Q_{n}"))

        witness = None
        for element, word in tables[n].items():
            if element != q_next.identity_element() and q_this.in_kernel(word):
                witness = word
                break
        if witness is not None:
            detail = (f"K-word {format_word(witness, p)} in ker Q_{n} "
                      f"but not in ker Q_{n + 1}")
            clauses.append(Ex2Clause("chain-descent", n, None, True, detail))
        else:
            proven_equal = False
            note = "no K-side witness found"
            try:
                o_this, o_next = q_this.order(), q_next.order()
                if o_next > o_this:
                    note = (f"no K-side witness, but the quotient order grows "
                            f"{o_this} -> {o_next}")
                elif o_next == o_this:
                    proven_equal = True
                    note = f"quotient orders coincide at {o_this}"
            except CapExceededError:
                note = "no K-side witness; quotient orders exceed the cap (unwitnessed)"
            clauses.append(Ex2Clause("chain-descent", n, None, not proven_equal, note))

    recomputed = sum((Fraction(1, len(t)) for t in tables), Fraction(0))
    ok = recomputed == cert.reciprocal_sum and recomputed < Fraction(1, 2)
    clauses.append(Ex2Clause("reciprocal-sum", None, None, ok,
                             f"sum of reciprocal K-indices = {recomputed}, "
                             f"echo {cert.reciprocal_sum}, bound 1/2"))
    return Ex2Report(tuple(clauses))


# --- witnesses ----------------------------------------------------------------

def _step(cert: Ex2Certificate, n: int) -> Ex2Step:
    """Step ``n`` (1-based) of the chain; ValueError for an index outside it."""
    if not 1 <= n <= cert.params.steps:
        raise ValueError(f"step index must be in 1..{cert.params.steps}, got {n}")
    return cert.steps[n - 1]


def discreteness_witness(cert: Ex2Certificate, n: int) -> frozenset:
    """Indices m with s_m in the Q_n-coset of s_n.  For a valid certificate
    this is a subset of {1..n} containing n: the family has no repeated
    accumulation inside any single coset, which is what discreteness needs."""
    step = _step(cert, n)
    return frozenset(m for m in range(1, cert.params.steps + 1)
                     if step.quotient.coset_equal(cert.steps[m - 1].s, step.s))


@dataclass(frozen=True)
class FiniteIntersectionWitness:
    """How the family meets the Q_n-coset of a word x, with the distance
    bookkeeping that keeps the intersection finite."""

    x: Word
    n: int
    members: frozenset
    distance: object
    length: int
    records: tuple


def finite_intersection_witness(cert: Ex2Certificate, x: Word, n: int) -> FiniteIntersectionWitness:
    """Which s_m fall in the Q_n-coset of x, plus per-member comparison of
    the step's distance requirement against the length of x."""
    q = _step(cert, n).quotient
    members = frozenset(m for m in range(1, cert.params.steps + 1)
                        if q.coset_equal(cert.steps[m - 1].s, x))
    length = word_length(x)
    distance = q.cayley_distance(x, max_radius=length)
    records = tuple(
        {"m": m, "f_value": cert.steps[m - 1].f_value,
         "f_below_length": cert.steps[m - 1].f_value < length}
        for m in sorted(members))
    return FiniteIntersectionWitness(x, n, members, distance, length, records)


def not_closed_witness2(cert: Ex2Certificate, n: int):
    """(s_n, r_n^-1): their product is in ker Q_n even though s_n r_n^-1
    never lies in the family times the K-subgroup at bounded length —
    the pattern that puts a limit point outside S<K-subgroup>."""
    step = _step(cert, n)
    if not step.quotient.in_kernel(multiply(step.s, invert(step.r))):
        raise RuntimeError("the witness product escaped the kernel")
    p = cert.params.partition
    for m in range(1, cert.params.steps + 1):
        syl = syllables(cert.steps[m - 1].s, p)
        if not syl or syl[-1][0] != L:
            raise RuntimeError(f"s_{m} does not end in the L factor")
    return step.s, invert(step.r)


# --- serialization ------------------------------------------------------------

def ex2_to_obj(cert: Ex2Certificate) -> dict:
    p = cert.params.partition
    return {
        "type": "ex2",
        "params": {
            "partition": partition_to_obj(p),
            "steps": cert.params.steps,
            "f_values": list(cert.params.f_values),
            "source": dict(cert.params.source),
            "enumeration_cap": cert.params.enumeration_cap,
            "max_source_draws": cert.params.max_source_draws,
        },
        "steps": [
            {
                "quotient": quotient_to_obj(st.quotient),
                "r": format_word(st.r, p),
                "s": format_word(st.s, p),
                "e": st.e,
                "f_value": st.f_value,
                "k_index": st.k_index,
            }
            for st in cert.steps
        ],
        "reciprocal_sum": str(cert.reciprocal_sum),
    }


def ex2_from_obj(obj, path="certificate", enumeration_cap=None) -> Ex2Certificate:
    allowed = {"type", "params", "steps", "reciprocal_sum"}
    _check_keys(obj, allowed, path)
    if obj["type"] != "ex2":
        raise SchemaError(f"{path}.type: expected 'ex2', got {obj['type']!r}")

    raw_params = obj["params"]
    param_keys = {"partition", "steps", "f_values", "source",
                  "enumeration_cap", "max_source_draws"}
    _check_keys(raw_params, param_keys, f"{path}.params")
    partition = partition_from_obj(raw_params["partition"], f"{path}.params.partition")
    n_steps = _int_field(raw_params["steps"], f"{path}.params.steps", minimum=1)
    raw_f = raw_params["f_values"]
    if not isinstance(raw_f, list):
        raise SchemaError(f"{path}.params.f_values: expected a list")
    f_values = tuple(_int_field(v, f"{path}.params.f_values[{i}]", minimum=1)
                     for i, v in enumerate(raw_f))
    source = raw_params["source"]
    _check_keys(source, {"kind", "seed"}, f"{path}.params.source")
    if not isinstance(source["kind"], str):
        raise SchemaError(f"{path}.params.source.kind: expected a string")
    _int_field(source["seed"], f"{path}.params.source.seed", minimum=None)
    cap = _int_field(raw_params["enumeration_cap"], f"{path}.params.enumeration_cap",
                     minimum=1)
    draws = _int_field(raw_params["max_source_draws"], f"{path}.params.max_source_draws",
                       minimum=1)
    effective_cap = cap if enumeration_cap is None else enumeration_cap

    raw_steps = obj["steps"]
    if not isinstance(raw_steps, list):
        raise SchemaError(f"{path}.steps: expected a list")
    steps = []
    step_keys = {"quotient", "r", "s", "e", "f_value", "k_index"}
    for i, raw in enumerate(raw_steps):
        where = f"{path}.steps[{i}]"
        _check_keys(raw, step_keys, where)
        quotient = quotient_from_obj(raw["quotient"], partition, f"{where}.quotient",
                                     enumeration_cap=effective_cap)
        r = _parse_word_field(raw["r"], partition, f"{where}.r")
        s = _parse_word_field(raw["s"], partition, f"{where}.s")
        e = _int_field(raw["e"], f"{where}.e", minimum=1)
        f_value = _int_field(raw["f_value"], f"{where}.f_value", minimum=1)
        k_index = _int_field(raw["k_index"], f"{where}.k_index", minimum=1)
        steps.append(Ex2Step(quotient, r, s, e, f_value, k_index))

    raw_sum = obj["reciprocal_sum"]
    if not isinstance(raw_sum, str):
        raise SchemaError(f"{path}.reciprocal_sum: expected a fraction string")
    try:
        reciprocal_sum = Fraction(raw_sum)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{path}.reciprocal_sum: {exc}") from None

    params = Ex2Params(partition, n_steps, f_values, dict(source), cap, draws)
    return Ex2Certificate(params, tuple(steps), reciprocal_sum)


def _int_field(value, path: str, minimum=1) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{path}: expected an integer")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{path}: expected an integer >= {minimum}")
    return value


# --- DOT export ---------------------------------------------------------------

def ex2_ball_dot(cert: Ex2Certificate, n: int, extra_radius: int = 1) -> str:
    """Graphviz rendering of the Cayley ball of Q_n out to f(n) + extra,
    with the image of r_n highlighted when it lies inside."""
    step = _step(cert, n)
    q = step.quotient
    p = cert.params.partition
    radius = step.f_value + extra_radius
    ball = q.ball(radius)
    ids = {element: i for i, element in enumerate(ball)}
    target = q.image(step.r)
    lines = ["digraph cayley_ball {", "  rankdir=LR;"]
    for element, dist in ball.items():
        i = ids[element]
        attrs = [f'label="{dist}"']
        if dist == 0:
            attrs.append("shape=doublecircle")
        if element == target:
            attrs.append("style=filled")
            attrs.append("fillcolor=lightblue")
        lines.append(f"  v{i} [{', '.join(attrs)}];")
    for element in ball:
        i = ids[element]
        for g in p.generators():
            image = q.generator_image(g)
            out = q.elem_mul(element, image)
            if out in ids:
                lines.append(f'  v{i} -> v{ids[out]} [label="{p.letter(g)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
