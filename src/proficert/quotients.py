"""Finite quotients of the free group and their certificate arithmetic.

A quotient is a homomorphism onto a finite group, given by permutation
images of the generators (degree-d right action on 0..d-1).  The
abelianization modulo n is one such quotient: generator i rotates its own
block of n points, and only its JSON form remembers the modulus.  Image
computation reduces each run's exponent modulo the order of the
generator's image, so words like ``a^(20!)`` cost sub-millisecond time.
Enumerations (group order, Cayley balls, generated subgroups) are
breadth-first, deterministic, and hard-fail on a configurable cap instead
of truncating.
"""

from __future__ import annotations

import math
from collections import deque
from functools import lru_cache
from operator import itemgetter

from .errors import CapExceededError, SchemaError
from .words import FactorPartition, Generator, Word, identity as identity_word, invert, reduce

DEFAULT_ENUMERATION_CAP = 10 ** 6

PERM = "perm"
ABELIAN = "abelian"


_IDENTITY_BYTES = bytes(range(256))


def _compose_wide(x, m):
    """Raw mappings above degree 256 composed: x first, then m."""
    return itemgetter(*x)(m)


def _composer(degree: int):
    """``compose(x, _lift(m))`` is the raw mapping of x * m at this degree."""
    return bytes.translate if degree <= 256 else _compose_wide


def _lift(m):
    """Right-operand form of a raw mapping: below the split the 256-byte
    translate table that also fixes the points past the degree, above it
    the mapping itself.  Lifted mappings compose to lifted mappings."""
    return m + _IDENTITY_BYTES[len(m):] if len(m) <= 256 else m


def _inverse(m):
    """Inverse of a raw or lifted mapping, in the same storage."""
    n = len(m)
    if n <= 256:
        # the table sending each image m[x] back to x
        return bytes.maketrans(m, _IDENTITY_BYTES[:n])[:n]
    # the points sorted by their images: position x holds the preimage of x
    return tuple(sorted(range(n), key=m.__getitem__))


def _wide_steps(m):
    """:meth:`FiniteQuotient._generator_steps` of a raw mapping above the
    split.  Its cycles are kept as ``(where, blocks)``: a block ``(length,
    count, points)`` lays out the ``count`` cycles of one length position by
    position, twice over, and ``where[x]`` is the index of x in the blocks'
    first copies, one after another."""
    seen = [False] * len(m)
    lays, cycles = {1: []}, {}
    for start, x in enumerate(m):
        if x == start:
            lays[1].append(x)
        elif not seen[start]:
            cycle = [start]
            while x != start:
                seen[x] = True
                cycle.append(x)
                x = m[x]
            cycles.setdefault(len(cycle), []).append(cycle)
    lays.update((n, [x for column in zip(*c) for x in column]) for n, c in cycles.items())
    blocks = tuple((n, len(lay) // n, tuple(lay + lay)) for n, lay in lays.items())
    cycles = (_inverse(sum(lays.values(), [])), blocks)
    return math.lcm(*lays), m, _cycle_power(cycles, -1), cycles


def _cycle_power(cycles, e: int):
    """Raw m^e for any int e: a step along a block's cycles moves ``count``
    places, so its images are one slice, gathered back into point order."""
    where, blocks = cycles
    images = []
    for length, count, points in blocks:
        shift = e % length * count
        images += points[shift:shift + length * count]
    return _compose_wide(where, images)


def _times_power(acc, step, e: int, compose):
    """Raw ``acc * m^e`` for e >= 0, with m given lifted as ``step``."""
    while e:
        if e & 1:
            acc = compose(acc, step)
        e >>= 1
        if e:
            step = compose(step, step)
    return acc


class Permutation:
    """A bijection of {0, ..., d-1}, stored as the sequence of images.

    The storage is chosen from the degree alone: ``bytes`` up to degree 256,
    so that composition is one ``bytes.translate`` call, and a tuple of ints
    above it.  Either way ``mapping[i]`` and ``list(mapping)`` give ints.
    This ``mapping`` is the raw mapping that the quotient layer's loops
    compose and use as dict keys.  Instances are immutable; equality and
    hashing go by ``mapping``.
    """

    __slots__ = ("mapping",)

    def __init__(self, mapping):
        mapping = tuple(mapping)
        _set_mapping(self, bytes(mapping) if len(mapping) <= 256 else mapping)

    def __setattr__(self, name, value):
        raise AttributeError(f"Permutation is immutable; cannot set {name!r}")

    def __reduce__(self):
        return Permutation, (self.mapping,)

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.mapping == other.mapping

    def __hash__(self):
        return hash(self.mapping)

    def __repr__(self):
        return f"Permutation({tuple(self.mapping)!r})"

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return _wrap(_IDENTITY_BYTES[:degree] if degree <= 256 else tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.mapping)

    def __call__(self, point: int) -> int:
        return self.mapping[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composite acting as self first, then other."""
        sm = self.mapping
        return _wrap(_composer(len(sm))(sm, _lift(other.mapping)))

    def inverse(self) -> "Permutation":
        return _wrap(_inverse(self.mapping))

    def __pow__(self, e: int) -> "Permutation":
        base = self if e >= 0 else self.inverse()
        degree = len(base.mapping)
        return _wrap(_times_power(Permutation.identity(degree).mapping,
                                  _lift(base.mapping), abs(e), _composer(degree)))

    def cycle_lengths(self) -> list[int]:
        seen = [False] * len(self.mapping)
        out = []
        for start in range(len(self.mapping)):
            if seen[start]:
                continue
            length = 0
            x = start
            while not seen[x]:
                seen[x] = True
                x = self.mapping[x]
                length += 1
            out.append(length)
        return out

    def order(self) -> int:
        return math.lcm(*self.cycle_lengths()) if self.mapping else 1


_set_mapping = Permutation.__dict__["mapping"].__set__
_new_permutation = object.__new__


def _wrap(mapping) -> Permutation:
    """Fast constructor for images already in the storage their degree picks."""
    p = _new_permutation(Permutation)
    _set_mapping(p, mapping)
    return p


def _check_permutation(values, degree: int, where: str) -> Permutation:
    values = list(values)
    # plain ints that sort to 0..degree-1 form a bijection; anything else
    # takes the loop below, which names the first bad image
    if (len(values) != degree or not set(map(type, values)) <= {int}
            or sorted(values) != list(range(degree))):
        if len(values) != degree:
            raise ValueError(f"{where}: expected {degree} images, got {len(values)}")
        seen = [False] * degree
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool) or not (0 <= v < degree):
                raise ValueError(f"{where}: image {v!r} is not a point in 0..{degree - 1}")
            if seen[v]:
                raise ValueError(f"{where}: not a bijection (point {v} hit twice)")
            seen[v] = True
    return Permutation(values)


class FiniteQuotient:
    """An immutable finite quotient: ``images`` maps each generator to a
    :class:`Permutation`, all of one degree, which is read off them.

    ``kind`` is read off ``modulus``: a quotient with one is abelian, acts
    by block rotations and is stored as its modulus.  Enumerations run on
    raw mappings and key their tables by them.  Per-generator steps are
    memoized lazily and change nothing observable; abelian ones are shared
    (:func:`make_abelian_quotient`), so no caller may change a quotient.

    Nothing is checked here.  Images from outside are checked once, where
    they enter (:func:`make_permutation_quotient`, :func:`quotient_from_obj`);
    images built as bijections are not checked.
    """

    def __init__(self, partition: FactorPartition, images: dict, *, modulus=None,
                 enumeration_cap=None):
        self.partition = partition
        self.images = images
        self.modulus = modulus
        self.kind = PERM if modulus is None else ABELIAN
        self.degree = degree = next(iter(images.values())).degree
        self.enumeration_cap = (DEFAULT_ENUMERATION_CAP if enumeration_cap is None
                                else enumeration_cap)
        self._identity = Permutation.identity(degree).mapping
        self._compose = _composer(degree)
        self._steps = {}  # generator -> (order, lifted image, lifted inverse, cycles or None)

    def __eq__(self, other):
        if not isinstance(other, FiniteQuotient):
            return NotImplemented
        return (self.partition, self.images, self.modulus) == (
            other.partition, other.images, other.modulus)

    def __repr__(self):
        if self.kind == PERM:
            return f"FiniteQuotient(perm, degree={self.degree})"
        return f"FiniteQuotient(abelian, modulus={self.modulus})"

    # --- element arithmetic -------------------------------------------------

    def generator_image(self, gen: Generator) -> Permutation:
        self.partition.check(gen)
        return self.images[gen]

    def _generator_steps(self, gen: Generator):
        entry = self._steps.get(gen)
        if entry is None:
            p = self.images[gen]
            entry = self._steps[gen] = (_wide_steps(p.mapping) if p.degree > 256 else (
                p.order(), _lift(p.mapping), _lift(p.inverse().mapping), None))
        return entry

    # --- homomorphism -------------------------------------------------------

    def image(self, w: Word) -> Permutation:
        """Image of a word.  Each run's exponent is reduced modulo the order
        of the generator's image; above the split any power but the image and
        its inverse is read off the cycles, else it is raised by squaring (from
        the inverse when e > order/2)."""
        compose = self._compose
        acc = self._identity
        for g, e in w.runs:
            order, step, inverse, cycles = self._generator_steps(g)
            e %= order
            if cycles is not None and 1 < e < order - 1:
                power = _cycle_power(cycles, e)
                acc = power if acc is self._identity else compose(acc, power)
            elif 2 * e > order:
                acc = _times_power(acc, inverse, order - e, compose)
            else:
                acc = _times_power(acc, step, e, compose)
        return _wrap(acc)

    def coset_equal(self, u: Word, v: Word) -> bool:
        return self.image(u).mapping == self.image(v).mapping

    def element_order(self, w: Word) -> int:
        """Least e >= 1 with w^e in the kernel (= order of the image)."""
        return self.image(w).order()

    # --- enumeration --------------------------------------------------------

    def _search(self, moves, context: str, max_radius=None, stop=None) -> dict:
        """The one breadth-first search of the quotient layer.

        ``moves`` is a list of (move word, lifted step) pairs, expanded in
        order.  Returns an insertion-ordered dict mapping each raw mapping
        reached to ``(depth, parent, move word)``, the identity first with
        parent None.  Elements at depth ``max_radius`` are not expanded.
        With ``stop`` set, ``stop(table, y)`` is asked of each element y as
        it enters the table, the identity first, and the search returns the
        partial table as soon as it answers true.  Past the enumeration cap
        it raises, naming ``context``.
        """
        cap = self.enumeration_cap
        compose = self._compose
        start = self._identity
        table = {start: (0, None, identity_word())}
        if stop is not None and stop(table, start):
            return table
        queue = deque([start])
        while queue:
            x = queue.popleft()
            d = table[x][0]
            if max_radius is not None and d >= max_radius:
                break  # breadth-first: every element still queued is as deep
            d += 1
            for mw, step in moves:
                y = compose(x, step)
                if y not in table:
                    if len(table) >= cap:
                        raise CapExceededError(cap, context)
                    table[y] = (d, x, mw)
                    if stop is not None and stop(table, y):
                        return table
                    queue.append(y)
        return table

    def _bfs(self, max_radius=None, stop_at=None) -> dict:
        """Cayley-graph distances, keyed by raw mapping: :meth:`_search`
        over all generator images then all inverses, K block before L,
        cut short once the raw mapping ``stop_at`` is reached."""
        gens = self.partition.generators()
        entries = [self._generator_steps(g) for g in gens]
        moves = [(Word(((g, 1),)), step) for g, (_, step, _, _) in zip(gens, entries)]
        moves += [(Word(((g, -1),)), inverse) for g, (_, _, inverse, _) in zip(gens, entries)]
        stop = None if stop_at is None else (lambda table, y: y == stop_at)
        table = self._search(moves, "image group enumeration", max_radius, stop)
        return {x: d for x, (d, _, _) in table.items()}

    def order(self) -> int:
        """Order of the image group (full closure enumeration, not memoized)."""
        if self.kind == ABELIAN:
            return self.modulus ** self.partition.rank
        return len(self._bfs())

    def ball(self, radius: int) -> dict:
        """Cayley-ball distances up to ``radius``, keyed by raw mapping;
        not memoized."""
        return self._bfs(max_radius=radius)

    def cayley_distance(self, w: Word, max_radius=None):
        """BFS distance from the identity to image(w) in the image Cayley
        graph over all generator images and inverses.

        With ``max_radius`` set, returns None when the distance exceeds it
        (see :meth:`bounded_distance`); a negative radius is a ValueError.
        """
        if max_radius is not None and max_radius < 0:
            raise ValueError(f"max_radius must be nonnegative, got {max_radius}")
        target = self.image(w).mapping
        if max_radius is not None:
            return self.bounded_distance(target, max_radius)
        return self._bfs(stop_at=target).get(target)

    def bounded_distance(self, target, radius: int, ball=None):
        """Distance from the identity to the raw mapping ``target`` when it
        is at most ``radius``, else None, by meeting in the middle.

        The BFS runs out to ceil(radius/2) only, stopping early at the
        target; ``ball`` may pass that ball prebuilt.  A target outside it
        lies at distance min over v of d(v) + d(v * target), for v in the
        floor(radius/2)-ball and v * target in the ball: a geodesic splits
        into a head of length at most floor(radius/2), whose inverse is v,
        and a tail of at most ceil(radius/2), and balls are closed under
        inversion.
        """
        if ball is None:
            ball = self._bfs(max_radius=(radius + 1) // 2, stop_at=target)
        d = ball.get(target)
        if d is not None:
            return d
        compose = self._compose
        step = _lift(target)
        best = radius + 1
        # breadth-first order lists the ball by distance
        for v, dv in ball.items():
            if 2 * dv > radius or dv >= best:
                break
            du = ball.get(compose(v, step))
            if du is not None and du + dv < best:
                best = du + dv
        return best if best <= radius else None


def make_permutation_quotient(partition: FactorPartition, images: dict,
                              enumeration_cap=None) -> FiniteQuotient:
    """Build a quotient from a caller's images, each checked once, here.

    ``images`` maps every generator of the partition to a bijection of
    0..d-1 (any sequence of point images, or a Permutation).
    """
    gens = partition.generators()
    missing = [g for g in gens if g not in images]
    if missing:
        raise ValueError(f"missing images for generators {missing}")
    extra = [g for g in images if g not in gens]
    if extra:
        raise ValueError(f"images given for unknown generators {extra}")
    degree = None
    checked = {}
    for g in gens:
        raw = images[g]
        values = list(raw.mapping if isinstance(raw, Permutation) else raw)
        if degree is None:
            degree = len(values)
            if degree < 1:
                raise ValueError("permutation degree must be at least 1")
        checked[g] = _check_permutation(values, degree, f"images[{partition.letter(g)}]")
    return FiniteQuotient(partition, checked, enumeration_cap=enumeration_cap)


def make_abelian_quotient(partition: FactorPartition, modulus: int,
                          enumeration_cap=None) -> FiniteQuotient:
    """Quotient by the kernel of exponent-sum vectors mod ``modulus``.

    Generator i rotates its own block of ``modulus`` points, so the image
    of a word holds its i-th exponent sum as the shift of block i.  The
    ``rank`` images of ``modulus * rank`` points each must fit the
    enumeration cap together.  Once the arguments pass, a quotient of at
    most 256 points (byte-backed images) is built once per (partition,
    modulus, cap) and shared by every caller in the process; a larger one
    is built afresh on each call, so none of those is kept alive.
    """
    if not isinstance(modulus, int) or modulus < 2:
        raise ValueError(f"abelian modulus must be an integer >= 2, got {modulus!r}")
    cap = DEFAULT_ENUMERATION_CAP if enumeration_cap is None else enumeration_cap
    degree = modulus * partition.rank
    if degree * partition.rank > cap:
        raise CapExceededError(cap, f"permutation form of abelian modulus {modulus}")
    build = _abelian_quotient if degree <= 256 else _abelian_quotient.__wrapped__
    return build(partition, modulus, cap)


@lru_cache(maxsize=256, typed=True)
def _abelian_quotient(partition: FactorPartition, n: int, cap) -> FiniteQuotient:
    # the images share these int objects; at 10^6 points a copy costs 28 MB
    points = list(range(n * partition.rank))
    images = {}
    for g in partition.generators():
        start = partition.flat_index(g) * n
        mapping = points[:]
        mapping[start:start + n] = points[start + 1:start + n] + [points[start]]
        images[g] = Permutation(mapping)
    return FiniteQuotient(partition, images, modulus=n, enumeration_cap=cap)


def generated_moves(q: FiniteQuotient, gens) -> list:
    """:meth:`FiniteQuotient._search` moves over the images of ``gens`` (a
    list of words): each word with its lifted image, then each inverse."""
    images = [q.image(w).mapping for w in gens]
    moves = [(w, _lift(x)) for w, x in zip(gens, images)]
    return moves + [(invert(w), _lift(_inverse(x))) for w, x in zip(gens, images)]


def generated_image_table(q: FiniteQuotient, gens) -> dict:
    """BFS over the image subgroup generated by ``gens`` (a list of words).

    Returns an insertion-ordered dict mapping each element's raw mapping
    to ``(depth, parent, move)``: its breadth-first depth, the raw mapping
    it was first reached from (None for the identity) and that move's word,
    expanding gens in list order and then their inverses.
    :func:`table_word` spells an element's geodesic word.  The table is
    deterministic and cap-checked.  The package only needs the order, which
    :func:`subgroup_order` finds without enumerating; the table is its
    oracle.
    """
    return q._search(generated_moves(q, gens), "generated subgroup enumeration")


def table_word(table: dict, x) -> Word:
    """The geodesic word of ``x`` in a :func:`generated_image_table` (or any
    :meth:`FiniteQuotient._search` table): the move words along its parent
    chain, reduced at once (the same word as multiplying them in turn,
    since reduced forms are unique)."""
    moves = []
    while x is not None:
        _, x, mw = table[x]
        moves.append(mw)
    return reduce(run for mw in reversed(moves) for run in mw.runs)


def subgroup_order(q: FiniteQuotient, words) -> int:
    """Order of the subgroup generated by the images of ``words``, found
    without enumerating it: deterministic Schreier–Sims (Sims 1970; Holt,
    Eick and O'Brien, *Handbook of Computational Group Theory*, 4.4.2).

    Level i of the stabilizer chain holds a base point b_i, the strong
    generators that fix b_0 .. b_{i-1}, and a Schreier vector: the orbit of
    b_i under them, each point mapped to the strong generator that first
    reached it.  A coset representative is walked back along these parent
    pointers, as a K-image table's word is.  Once every Schreier generator
    of every level sifts to the identity through the levels below it, the
    order is the product of the orbit lengths.  Mappings stay lifted, and
    each composition is charged against ``q.enumeration_cap``; past it the
    chain raises.
    """
    compose = q._compose
    identity = _lift(q._identity)
    cap = q.enumeration_cap
    spent = 0
    strong = []                   # (lifted generator, lifted inverse)
    base, gens, vectors, orbits = [], [], [], []
    tried = []                    # per level, per orbit point: generators tried

    def charge(compositions):
        nonlocal spent
        spent += compositions
        if spent > cap:
            raise CapExceededError(cap, "stabilizer chain")

    def walk_back(level, h, point):
        """h times the inverse of the representative of ``point``."""
        vector, b = vectors[level], base[level]
        steps = 0
        while point != b:
            inverse = strong[vector[point]][1]
            h = compose(h, inverse)
            point = inverse[point]
            steps += 1
        charge(steps)
        return h

    def representative(level, point):
        """The product of the tree's generators from b_level to ``point``."""
        vector, b = vectors[level], base[level]
        u = identity
        steps = 0
        while point != b:
            g, inverse = strong[vector[point]]
            u = compose(g, u)
            point = inverse[point]
            steps += 1
        charge(steps)
        return u

    def sift(h, level):
        """The residue of h and the level it drops out at, len(base) when
        it passes every level."""
        while level < len(base):
            point = h[base[level]]
            if point not in vectors[level]:
                break
            h = walk_back(level, h, point)
            level += 1
        return h, level

    def add(y, first, last):
        """Make the residue y a strong generator of levels first..last,
        opening level last when it is new, and extend their orbits."""
        if last == len(base):
            b = next(x for x, yx in enumerate(y) if x != yx)
            base.append(b)
            gens.append([])
            vectors.append({b: None})
            orbits.append([b])
            tried.append([])
        k = len(strong)
        strong.append((y, _inverse(y)))
        for level in range(first, last + 1):
            gens[level].append(k)
            orbit, vector = orbits[level], vectors[level]
            old = len(orbit)
            # the old points under y, then the new ones (appended on the
            # way, and visited too) under every generator of the level
            for i, x in enumerate(orbit):
                for j in (k,) if i < old else gens[level]:
                    jx = strong[j][0][x]
                    if jx not in vector:
                        vector[jx] = j
                        orbit.append(jx)

    def scan(level):
        """Sift the level's untried Schreier generators.  Returns the level
        to scan next: the deepest one a residue was added to, else the one
        above."""
        orbit, vector, level_gens, level_tried = (
            orbits[level], vectors[level], gens[level], tried[level])
        level_tried.extend([0] * (len(orbit) - len(level_tried)))
        for p, point in enumerate(orbit):
            if level_tried[p] == len(level_gens):
                continue
            u = representative(level, point)
            for gi in range(level_tried[p], len(level_gens)):
                level_tried[p] = gi + 1
                k = level_gens[gi]
                g = strong[k][0]
                image = g[point]
                if vector[image] == k:
                    continue  # a tree edge: the Schreier generator is 1
                charge(1)
                y, last = sift(walk_back(level, compose(u, g), image), level + 1)
                if y != identity:
                    add(y, level + 1, last)
                    return last
        return level - 1

    for w in words:
        y, last = sift(_lift(q.image(w).mapping), 0)
        if y != identity:
            add(y, 0, last)
    level = len(base) - 1
    while level >= 0:
        level = scan(level)
    return math.prod(len(orbit) for orbit in orbits)


def direct_product(*factors: FiniteQuotient) -> FiniteQuotient:
    """Quotient whose kernel is the intersection of the factors' kernels.

    Realized as the disjoint-union permutation action: each factor acts
    on its own block of points, in order.  The images are bijections by
    construction, so they are not checked.
    """
    first = factors[0]
    if any(q.partition != first.partition for q in factors):
        raise ValueError("direct product needs matching partitions")
    images = {}
    for g in first.partition.generators():
        mapping = []
        for q in factors:
            shift = len(mapping)
            mapping.extend(x + shift for x in q.images[g].mapping)
        images[g] = Permutation(mapping)
    cap = max(q.enumeration_cap for q in factors)
    return FiniteQuotient(first.partition, images, enumeration_cap=cap)


# --- JSON form ----------------------------------------------------------------

def quotient_to_obj(q: FiniteQuotient) -> dict:
    if q.kind == PERM:
        return {
            "kind": PERM,
            "degree": q.degree,
            "images": {q.partition.letter(g): list(q.images[g].mapping)
                       for g in q.partition.generators()},
        }
    return {"kind": ABELIAN, "modulus": q.modulus}


def quotient_from_obj(obj, partition: FactorPartition, path="quotient",
                      enumeration_cap=None) -> FiniteQuotient:
    """Parse and build a quotient, checking each image once, here, under
    its field path.  An abelian one comes from :func:`make_abelian_quotient`,
    so the abelian quotients of at most 256 points that a file repeats are
    one object."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    kind = obj.get("kind")
    if kind == PERM:
        allowed = {"kind", "degree", "images"}
        _check_keys(obj, allowed, path)
        degree = _int_field(obj["degree"], f"{path}.degree", minimum=1)
        raw = obj["images"]
        if not isinstance(raw, dict):
            raise SchemaError(f"{path}.images: expected an object")
        images = {}
        for letter, values in raw.items():
            try:
                gen = partition.generator_for_letter(letter)
            except Exception:
                raise SchemaError(f"{path}.images.{letter}: unknown generator letter")
            if not isinstance(values, list):
                raise SchemaError(f"{path}.images.{letter}: expected a list of points")
            try:
                images[gen] = _check_permutation(values, degree, f"{path}.images.{letter}")
            except ValueError as exc:
                raise SchemaError(str(exc)) from exc
        gens = partition.generators()
        missing = [g for g in gens if g not in images]
        if missing:
            raise SchemaError(f"{path}.images: missing images for generators {missing}")
        return FiniteQuotient(partition, {g: images[g] for g in gens},
                              enumeration_cap=enumeration_cap)
    if kind == ABELIAN:
        allowed = {"kind", "modulus"}
        _check_keys(obj, allowed, path)
        modulus = _int_field(obj["modulus"], f"{path}.modulus", minimum=2)
        return make_abelian_quotient(partition, modulus, enumeration_cap=enumeration_cap)
    raise SchemaError(f"{path}.kind: expected 'perm' or 'abelian', got {kind!r}")


def check_point_budget(entries, cap=None):
    """Refuse a file whose quotients would allocate more than ``cap``
    points together, before any of them is built.

    ``entries`` yields (JSON quotient, partition rank) pairs.  A quotient
    declares its degree, an abelian one ``modulus * rank**2`` image entries
    (``rank`` images of ``modulus * rank`` points); an entry without a
    usable size counts nothing here and is rejected when parsed.
    A cap below the default limits enumeration, not loading, so the budget
    is the larger of the two.
    """
    cap = DEFAULT_ENUMERATION_CAP if cap is None else max(cap, DEFAULT_ENUMERATION_CAP)
    total = 0
    for obj, rank in entries:
        if not isinstance(obj, dict) or obj.get("kind") not in (PERM, ABELIAN):
            continue
        abelian = obj["kind"] == ABELIAN
        size = obj.get("modulus" if abelian else "degree")
        if isinstance(size, int) and not isinstance(size, bool) and size > 0:
            total += size * rank * rank if abelian else size
            if total > cap:
                raise CapExceededError(cap, "points of the file's quotients together",
                                       "point budget")


def element_to_obj(q: FiniteQuotient, elt: Permutation) -> dict:
    if q.kind == PERM:
        return {"kind": PERM, "mapping": list(elt.mapping)}
    # the shift of block i is the i-th exponent sum mod n
    n = q.modulus
    vector = [elt.mapping[i * n] - i * n for i in range(q.partition.rank)]
    return {"kind": ABELIAN, "modulus": n, "vector": vector}


def _check_keys(obj, keys: set, path: str):
    """``obj`` must be an object with exactly the fields ``keys``."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    for key in obj:
        if key not in keys:
            raise SchemaError(f"{path}.{key}: unknown field")
    for key in keys:
        if key not in obj:
            raise SchemaError(f"{path}.{key}: missing field")


def _int_field(value, path: str, minimum=1) -> int:
    """An int field (not a bool), at least ``minimum`` unless that is None."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{path}: expected an integer")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{path}: expected an integer >= {minimum}")
    return value
