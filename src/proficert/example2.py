"""A discrete closed family in a free product of free groups.

The ambient group is F = <K-generators> * <L-generators>.  A certificate
holds a descending chain of finite quotients Q_1, Q_2, ..., one word r_n
per step that sits far from the identity in the Cayley graph of Q_n, and a
companion s_n = r_n * b^(e_n) in the same Q_n-coset whose last syllable
lies in the L factor.  Four per-step conditions, an index bound at step 1,
strictness of the chain, and a reciprocal-sum bound below one half are all
that a verifier needs; together they make S = {s_n} closed and discrete
while S<K-subgroup> fails to be closed.

Records here are immutable NamedTuples equal to plain tuples of their
fields; ``*_to_obj`` turns them into plain dicts and lists for JSON.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .errors import CapExceededError, SchemaError
from .quotients import (
    DEFAULT_ENUMERATION_CAP,
    FiniteQuotient,
    Permutation,
    check_point_budget,
    direct_product,
    generated_moves,
    make_abelian_quotient,
    quotient_from_obj,
    quotient_to_obj,
    subgroup_order,
    table_word,
    _check_keys,
    _int_field,
)
from .separation import partition_from_obj, partition_to_obj, _parse_word_field
from .words import (
    FactorPartition,
    Generator,
    K,
    L,
    Word,
    format_word,
    multiply,
    power,
    syllables,
)

DEFAULT_MAX_SOURCE_DRAWS = 96
WORD_B = Word(((Generator(L, 0), 1),))  # b, the first L-generator of every partition


class NoAdmissibleElementError(RuntimeError):
    """The admissible-element search exhausted the K-image of a quotient."""


def default_f(n: int) -> int:
    """Default distance requirement per step; any strictly increasing
    positive sequence works."""
    return n + 1


def _k_letter_words(partition: FactorPartition) -> list:
    return [Word(((g, 1),)) for g in partition.k_generators()]


class MixedQuotientSource:
    """Deterministic seeded stream of quotient factors.

    Alternates permutation quotients (K-generators land on powers of one
    cycle, so K-balls grow polynomially; L-generators land on shuffled
    permutations) with abelian quotients at successive fresh primes, which
    guarantee that the K-image keeps growing as factors accumulate.
    Every image is a bijection by construction and is not checked; every
    factor carries ``enumeration_cap`` (None for the default).
    """

    kind = "mixed"

    def __init__(self, partition: FactorPartition, seed: int = 0, enumeration_cap=None):
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"seed must be an integer, got {seed!r}")
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
                images[g] = Permutation(values)
            yield FiniteQuotient(self.partition, images,
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


def choose_r(q: FiniteQuotient, k_words, forbidden, radius: int) -> Word:
    """First element of the K-image of q, in breadth-first order over the
    images of ``k_words`` and then their inverses, that lies outside the
    radius-``radius`` ball of the full Cayley graph and outside every
    forbidden coset; its K-geodesic word.

    ``forbidden`` is a sequence of (quotient, word) pairs; candidates whose
    coset in that quotient matches the word's are pruned.  The search stops
    at the first admissible element, so the K-image is enumerated only as
    far as that.  An element of K-depth at most ``radius`` lies in the
    ball; the others are tested against the ceil(radius/2)-ball, built
    once, by :meth:`FiniteQuotient.bounded_distance`.
    """
    ball = q.ball((radius + 1) // 2)
    picked = []

    def admissible(table, x):
        if table[x][0] <= radius or q.bounded_distance(x, radius, ball) is not None:
            return False
        wx = table_word(table, x)
        if any(qm.coset_equal(wx, rm) for qm, rm in forbidden):
            return False
        picked.append(wx)
        return True

    table = q._search(generated_moves(q, k_words), "generated subgroup enumeration",
                      stop=admissible)
    if picked:
        return picked[0]
    raise NoAdmissibleElementError(
        f"the K-image of size {len(table)} has no element past radius {radius} "
        f"and outside {len(forbidden)} forbidden cosets")


def make_s(r: Word, q: FiniteQuotient):
    """s = r * b^e for e the order of image(b); returns (s, e).

    Appending a full period of b keeps s in the coset of r while forcing
    the final syllable into the L factor.
    """
    if r.is_identity() or any(g.factor != K for g, _ in r.runs):
        raise ValueError("r must be a nonempty word in the K-generators")
    e = q.element_order(WORD_B)
    return multiply(r, power(WORD_B, e)), e


class Ex2Params(NamedTuple):
    partition: FactorPartition
    f_values: tuple
    source: dict
    enumeration_cap: int

    @property
    def steps(self) -> int:
        """One step per f value."""
        return len(self.f_values)


class Ex2Step(NamedTuple):
    """Step n of a chain; its distance requirement is ``params.f_values[n - 1]``."""

    quotient: FiniteQuotient
    r: Word
    s: Word
    e: int
    k_index: int


class Ex2Certificate(NamedTuple):
    params: Ex2Params
    steps: tuple
    reciprocal_sum: Fraction


def _materialize_f(f, steps: int) -> tuple:
    values = tuple(map(default_f, range(1, steps + 1)) if f is None else f)
    if len(values) != steps:
        raise ValueError(f"need {steps} distance requirements, got {len(values)}")
    for i, v in enumerate(values):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValueError(f"f({i + 1}) must be a positive integer, got {v!r}")
        if i and values[i] <= values[i - 1]:
            raise ValueError("the distance requirements must be strictly increasing")
    return values


def construct_ex2(partition: FactorPartition = FactorPartition(2, 2), steps: int = 4, f=None,
                  source=None, max_source_draws: int = DEFAULT_MAX_SOURCE_DRAWS) -> Ex2Certificate:
    """Build a certificate with ``steps`` steps.

    Factors are drawn from the source and multiplied in only when they
    grow the K-image; growth of the index [K : H_n] both drives the chain
    strictly downward and eventually satisfies the index demanded by the
    step-1 bound and by the reciprocal-sum slack.  Each step needs a draw,
    so more steps than ``max_source_draws`` are refused at once.

    ``f``, the distance requirements f(1) .. f(steps), is None for
    :func:`default_f` or a sequence of strictly increasing positive ints.
    ``source`` (default ``MixedQuotientSource(partition)``) yields factors of
    ``partition``; the certificate records its description, refused with
    ``SchemaError`` when the loader would refuse it, and its factors' cap.
    """
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    if steps > max_source_draws:
        raise CapExceededError(max_source_draws, "quotient source draws",
                               "source draw limit")
    f_values = _materialize_f(f, steps)
    if source is None:
        source = MixedQuotientSource(partition)
    # recorded as the loader reads it back, so checked before any draw
    described = _source_from_obj(source.describe(), "params.source")
    stream = source.stream()
    k_words = _k_letter_words(partition)
    kk = partition.k_size

    quotient = None
    index = 0  # the K-index of ``quotient``, the order of its K-image
    built = []
    forbidden = []
    recip = Fraction(0)
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
                    r_n = choose_r(quotient, k_words, forbidden, f_n)
                    break
                except NoAdmissibleElementError:
                    pass
            if draws >= max_source_draws:
                raise CapExceededError(max_source_draws, "quotient source draws",
                                       "source draw limit")
            factor = next(stream)
            draws += 1
            if factor.partition != partition:
                raise ValueError(f"the source drew a factor of {factor.partition} "
                                 f"for {partition}")
            candidate = (factor if quotient is None
                         else direct_product(quotient, factor))
            try:
                cand_index = subgroup_order(candidate, k_words)
            except CapExceededError:
                continue
            if quotient is None or cand_index > index:
                quotient, index = candidate, cand_index
        s_n, e_n = make_s(r_n, quotient)
        recip += Fraction(1, index)
        assert recip < Fraction(1, 2)
        built.append(Ex2Step(quotient, r_n, s_n, e_n, index))
        forbidden.append((quotient, r_n))
    # the cap of the source's factors, under which every K-index was computed
    params = Ex2Params(partition, f_values, described, quotient.enumeration_cap)
    return Ex2Certificate(params, tuple(built), recip)


# --- verification -------------------------------------------------------------

class Ex2Clause(NamedTuple):
    clause: str
    m: object
    k: object
    ok: bool
    detail: str


class Ex2Report(NamedTuple):
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

    A K-index is the order of a K-image, read off a stabilizer chain
    without enumerating the image.  Given chain-containment, restriction
    maps the K-image of Q_{n+1} onto that of Q_n with kernel H_n / H_{n+1},
    so chain-descent is K-index growth.

    The clauses are the whole claim: the paper's two conclusions follow
    from them, so the report restates neither.  For m > n, condition 2
    at m and chain-containment give s_m = r_m in Q_n; condition 4 gives
    r_m != r_n and condition 2 at n gives s_n = r_n there.  So no later
    s_m shares the Q_n-coset of s_n.  And s_n r_n^-1, in S<K-subgroup>
    since r_n is a K-word, lies in ker Q_n (condition 2), while the
    identity is not in S<K-subgroup>, since every s_n ends in the L
    factor (condition 3).
    """
    clauses = []
    params = cert.params
    p = params.partition
    f_values = params.f_values
    # an in-process container may be anything; every clause below reads both
    for name, value in (("f_values", f_values), ("steps", cert.steps)):
        if not isinstance(value, (tuple, list)):
            return Ex2Report((Ex2Clause("params-structure", None, None, False,
                                        f"{name}: expected a sequence, got {type(value).__name__}"),))
    n_steps = params.steps
    k_words = _k_letter_words(p)

    f_ints = all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in f_values)
    ok = (n_steps >= 1 and f_ints
          and all(f_values[i] < f_values[i + 1] for i in range(len(f_values) - 1)))
    clauses.append(Ex2Clause("params-structure", None, None, ok,
                             f"{n_steps} steps, f values {list(f_values)}"))
    if len(cert.steps) != n_steps:
        clauses.append(Ex2Clause("params-structure", None, None, False,
                                 f"expected {n_steps} steps, found {len(cert.steps)}"))
    # step m reads f_values[m - 1] as a radius; step 1 must exist
    if len(cert.steps) != n_steps or not n_steps or not f_ints:
        return Ex2Report(tuple(clauses))

    foreign = []  # no quotient, or one of another group: nothing below applies
    for m, st in enumerate(cert.steps, 1):
        q = getattr(st, "quotient", None)
        if not isinstance(q, FiniteQuotient):
            foreign.append(Ex2Clause("step-structure", m, None, False, "step has no quotient"))
        elif q.partition != p:
            foreign.append(Ex2Clause("step-structure", m, None, False,
                                     f"quotient partition is not {p}"))
    if foreign:
        return Ex2Report(tuple(clauses) + tuple(foreign))

    indices = []  # K-index of each step: the order of its K-image
    for m in range(1, n_steps + 1):
        st = cert.steps[m - 1]
        q = st.quotient
        problems = []
        if st.r.is_identity() or any(g.factor != K for g, _ in st.r.runs):
            problems.append("r is not a nonempty K-word")
        order_b = q.element_order(WORD_B)
        if st.e != order_b:
            problems.append(f"e = {st.e} but image(b) has order {order_b}")
        if st.s != multiply(st.r, power(WORD_B, st.e)):
            problems.append("s does not equal r * b^e")
        index = subgroup_order(q, k_words)
        indices.append(index)
        if st.k_index != index:
            problems.append(f"recorded K-index {st.k_index}, recomputed {index}")
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
    size = indices[0]
    exponent = f_values[0] - 1
    # once 2kk - 1 >= 2 its power at size.bit_length() already exceeds size,
    # so a larger exponent cannot change the verdict and is only named
    bound = 2 * kk * (2 * kk - 1) ** min(exponent, size.bit_length())
    ok = size > bound
    if not ok and exponent > size.bit_length():
        bound = f"{2 * kk} * {2 * kk - 1}^{exponent}"
    clauses.append(Ex2Clause("step1-index-bound", 1, None, ok,
                             f"[K-image] = {size} vs required > {bound}"))

    for n in range(1, n_steps):
        q_next = cert.steps[n].quotient
        q_this = cert.steps[n - 1].quotient
        # when every generator of Q_{n+1} agrees with Q_n on Q_n's points,
        # restricting to them is a homomorphism onto Q_n: ker Q_{n+1} <= ker Q_n
        bad = [f"image of {p.letter(g)} in Q_{n + 1} does not restrict to its "
               f"image in Q_{n} on points 0..{q_this.degree - 1}"
               for g in p.generators()
               if list(q_next.images[g].mapping[:q_this.degree])
               != list(q_this.images[g].mapping)]
        clauses.append(Ex2Clause("chain-containment", n, None, not bad,
                                 "; ".join(bad) or
                                 f"Q_{n + 1} restricts to Q_{n} on points "
                                 f"0..{q_this.degree - 1}"))

        ratio = f"[K-image of Q_{n + 1}] / [K-image of Q_{n}] = {indices[n]}/{indices[n - 1]}"
        ok = not bad and indices[n] > indices[n - 1]
        if bad:
            detail = f"{ratio} proves nothing without chain-containment"
        elif ok:
            detail = f"{ratio} > 1, so some K-word lies in ker Q_{n} but not in ker Q_{n + 1}"
        else:
            detail = f"{ratio}, so no K-word lies in ker Q_{n} but outside ker Q_{n + 1}"
        clauses.append(Ex2Clause("chain-descent", n, None, ok, detail))

    recomputed = sum((Fraction(1, i) for i in indices), Fraction(0))
    ok = recomputed == cert.reciprocal_sum and recomputed < Fraction(1, 2)
    clauses.append(Ex2Clause("reciprocal-sum", None, None, ok,
                             f"sum of reciprocal K-indices = {recomputed}, "
                             f"echo {cert.reciprocal_sum}, bound 1/2"))
    return Ex2Report(tuple(clauses))


# --- serialization ------------------------------------------------------------

def ex2_to_obj(cert: Ex2Certificate) -> dict:
    p = cert.params.partition
    return {
        "type": "ex2",
        "params": {
            "partition": partition_to_obj(p),
            "f_values": list(cert.params.f_values),
            "source": dict(cert.params.source),
            "enumeration_cap": cert.params.enumeration_cap,
        },
        "steps": [
            {
                "quotient": quotient_to_obj(st.quotient),
                "r": format_word(st.r, p),
                "s": format_word(st.s, p),
                "e": st.e,
                "k_index": st.k_index,
            }
            for st in cert.steps
        ],
        "reciprocal_sum": str(cert.reciprocal_sum),
    }


def _source_from_obj(source, path: str) -> dict:
    """A quotient source's description: a string kind and an integer seed."""
    _check_keys(source, {"kind", "seed"}, path)
    if not isinstance(source["kind"], str):
        raise SchemaError(f"{path}.kind: expected a string")
    _int_field(source["seed"], f"{path}.seed", minimum=None)
    return dict(source)


def ex2_from_obj(obj, path="certificate", enumeration_cap=None) -> Ex2Certificate:
    allowed = {"type", "params", "steps", "reciprocal_sum"}
    _check_keys(obj, allowed, path)
    if obj["type"] != "ex2":
        raise SchemaError(f"{path}.type: expected 'ex2', got {obj['type']!r}")

    raw_params = obj["params"]
    _check_keys(raw_params, {"partition", "f_values", "source", "enumeration_cap"},
                f"{path}.params")
    partition = partition_from_obj(raw_params["partition"], f"{path}.params.partition")
    raw_f = raw_params["f_values"]
    if not isinstance(raw_f, list) or not raw_f:  # one f value per step, and one step at least
        raise SchemaError(f"{path}.params.f_values: expected a nonempty list")
    f_values = tuple(_int_field(v, f"{path}.params.f_values[{i}]", minimum=1)
                     for i, v in enumerate(raw_f))
    source = _source_from_obj(raw_params["source"], f"{path}.params.source")
    cap = _int_field(raw_params["enumeration_cap"], f"{path}.params.enumeration_cap",
                     minimum=1)
    # the file may lower the verifier's cap but never raise it
    effective_cap = min(cap, DEFAULT_ENUMERATION_CAP if enumeration_cap is None
                        else enumeration_cap)

    raw_steps = obj["steps"]
    if not isinstance(raw_steps, list):
        raise SchemaError(f"{path}.steps: expected a list")
    check_point_budget(((raw.get("quotient"), partition.rank)
                        for raw in raw_steps if isinstance(raw, dict)), enumeration_cap)
    steps = []
    step_keys = {"quotient", "r", "s", "e", "k_index"}
    for i, raw in enumerate(raw_steps):
        where = f"{path}.steps[{i}]"
        _check_keys(raw, step_keys, where)
        quotient = quotient_from_obj(raw["quotient"], partition, f"{where}.quotient",
                                     enumeration_cap=effective_cap)
        r = _parse_word_field(raw["r"], partition, f"{where}.r")
        s = _parse_word_field(raw["s"], partition, f"{where}.s")
        e = _int_field(raw["e"], f"{where}.e", minimum=1)
        k_index = _int_field(raw["k_index"], f"{where}.k_index", minimum=1)
        steps.append(Ex2Step(quotient, r, s, e, k_index))

    raw_sum = obj["reciprocal_sum"]
    if not isinstance(raw_sum, str):
        raise SchemaError(f"{path}.reciprocal_sum: expected a fraction string")
    try:
        reciprocal_sum = Fraction(raw_sum)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{path}.reciprocal_sum: {exc}") from None

    params = Ex2Params(partition, f_values, source, cap)
    return Ex2Certificate(params, tuple(steps), reciprocal_sum)


# --- DOT export ---------------------------------------------------------------

def ex2_ball_dot(cert: Ex2Certificate, n: int) -> str:
    """Graphviz rendering of the Cayley ball of Q_n out to f(n) + 1, with
    the image of r_n highlighted when it lies inside; ValueError for a step
    index outside the chain, or when the chain does not have one step per
    f value."""
    if len(cert.steps) != cert.params.steps:
        raise ValueError(f"the chain has {len(cert.steps)} steps "
                         f"but {cert.params.steps} f values")
    if not 1 <= n <= cert.params.steps:
        raise ValueError(f"step index must be in 1..{cert.params.steps}, got {n}")
    step = cert.steps[n - 1]
    q = step.quotient
    p = cert.params.partition
    ball = q.ball(cert.params.f_values[n - 1] + 1)
    ids = {element: i for i, element in enumerate(ball)}
    target = q.image(step.r).mapping
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
            out = (Permutation(element) * q.generator_image(g)).mapping
            if out in ids:
                lines.append(f'  v{i} -> v{ids[out]} [label="{p.letter(g)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
