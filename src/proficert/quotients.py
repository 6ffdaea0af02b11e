"""Finite quotients of the free group and their certificate arithmetic.

A quotient is a homomorphism onto a finite group, given either by
permutation images of the generators (degree-d right action on 0..d-1) or
by the abelianization modulo n.  Image computation reduces each run's
exponent modulo the order of the generator's image, so words like
``a^(20!)`` cost sub-millisecond time.  Enumerations (group order, Cayley
balls, generated subgroups) are breadth-first, deterministic, and hard-fail
on a configurable cap instead of truncating.
"""

from __future__ import annotations

import math
from collections import deque
from operator import itemgetter

from .errors import CapExceededError, SchemaError
from .words import FactorPartition, Generator, Word, identity as identity_word, invert, multiply

DEFAULT_ENUMERATION_CAP = 10 ** 6

PERM = "perm"
ABELIAN = "abelian"


_IDENTITY_BYTES = bytes(range(256))


class Permutation:
    """A bijection of {0, ..., d-1}, stored as the sequence of images.

    The storage is chosen from the degree alone: ``bytes`` up to degree 256,
    so that composition is one ``bytes.translate`` call, and a tuple of ints
    above it.  Either way ``mapping[i]`` and ``list(mapping)`` give ints.
    Instances are immutable; equality and hashing go by ``mapping``.
    """

    __slots__ = ("mapping", "_table")

    def __init__(self, mapping):
        mapping = tuple(mapping)
        _set_mapping(self, bytes(mapping) if len(mapping) <= 256 else mapping)
        _set_table(self, None)

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
        if len(sm) > 256:
            return _wrap(itemgetter(*sm)(other.mapping))
        table = other._table
        if table is None:
            # translate needs all 256 byte values; points past the degree
            # are fixed, and the right operand keeps its table for reuse
            om = other.mapping
            table = om + _IDENTITY_BYTES[len(om):]
            _set_table(other, table)
        return _wrap(sm.translate(table))

    def inverse(self) -> "Permutation":
        m = self.mapping
        # the points sorted by their images: position x holds the preimage of x
        inv = sorted(range(len(m)), key=m.__getitem__)
        return _wrap(bytes(inv) if len(m) <= 256 else tuple(inv))

    def __pow__(self, e: int) -> "Permutation":
        if e < 0:
            return self.inverse() ** (-e)
        result = Permutation.identity(len(self.mapping))
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

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
_set_table = Permutation.__dict__["_table"].__set__
_new_permutation = object.__new__


def _wrap(mapping) -> Permutation:
    """Fast constructor for images already in the storage their degree picks."""
    p = _new_permutation(Permutation)
    _set_mapping(p, mapping)
    _set_table(p, None)
    return p


def _check_permutation(values, degree: int, where: str) -> Permutation:
    values = list(values)
    if len(values) != degree:
        raise ValueError(f"{where}: expected {degree} images, got {len(values)}")
    seen = [False] * degree
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or not (0 <= v < degree):
            raise ValueError(f"{where}: image {v!r} is not a point in 0..{degree - 1}")
        if seen[v]:
            raise ValueError(f"{where}: not a bijection (point {v} hit twice)")
        seen[v] = True
    return Permutation(tuple(values))


class FiniteQuotient:
    """An immutable finite quotient; construct via the make_* factories.

    Elements of the image group are :class:`Permutation` objects for the
    permutation backend and residue tuples for the abelian backend.
    Enumeration tables are memoized lazily and never mutate observable
    state.
    """

    def __init__(self, partition: FactorPartition, kind: str, *, images=None,
                 degree=None, modulus=None, enumeration_cap=None):
        self.partition = partition
        self.kind = kind
        self.images = images
        self.degree = degree
        self.modulus = modulus
        self.enumeration_cap = (DEFAULT_ENUMERATION_CAP if enumeration_cap is None
                                else enumeration_cap)
        self._image_orders = {}
        self._table = None  # element -> BFS distance from the identity

    def __eq__(self, other):
        if not isinstance(other, FiniteQuotient):
            return NotImplemented
        return (self.partition, self.kind, self.images, self.degree, self.modulus) == (
            other.partition, other.kind, other.images, other.degree, other.modulus)

    def __repr__(self):
        if self.kind == PERM:
            return f"FiniteQuotient(perm, degree={self.degree})"
        return f"FiniteQuotient(abelian, modulus={self.modulus})"

    # --- element arithmetic -------------------------------------------------

    def identity_element(self):
        if self.kind == PERM:
            return Permutation.identity(self.degree)
        return (0,) * self.partition.rank

    def elem_mul(self, x, y):
        if self.kind == PERM:
            return x * y
        n = self.modulus
        return tuple((a + b) % n for a, b in zip(x, y))

    def elem_inv(self, x):
        if self.kind == PERM:
            return x.inverse()
        n = self.modulus
        return tuple((-a) % n for a in x)

    def generator_image(self, gen: Generator):
        self.partition.check(gen)
        if self.kind == PERM:
            return self.images[gen]
        vec = [0] * self.partition.rank
        vec[self.partition.flat_index(gen)] = 1 % self.modulus
        return tuple(vec)

    def _generator_image_order(self, gen: Generator) -> int:
        if gen not in self._image_orders:
            self._image_orders[gen] = self.generator_image(gen).order()
        return self._image_orders[gen]

    # --- homomorphism -------------------------------------------------------

    def image(self, w: Word):
        """Image of a word; run exponents are reduced mod the image order."""
        if self.kind == ABELIAN:
            n = self.modulus
            vec = [0] * self.partition.rank
            for g, e in w.runs:
                i = self.partition.flat_index(g)
                vec[i] = (vec[i] + e) % n
            return tuple(vec)
        acc = Permutation.identity(self.degree)
        for g, e in w.runs:
            p = self.images[g]
            if p is None:
                raise ValueError(f"no image for generator {g!r}")
            acc = acc * (p ** (e % self._generator_image_order(g)))
        return acc

    def in_kernel(self, w: Word) -> bool:
        return self.image(w) == self.identity_element()

    def coset_equal(self, u: Word, v: Word) -> bool:
        return self.image(u) == self.image(v)

    def element_order(self, w: Word) -> int:
        """Least e >= 1 with w^e in the kernel (= order of the image)."""
        x = self.image(w)
        if self.kind == PERM:
            return x.order()
        n = self.modulus
        return math.lcm(*(n // math.gcd(n, v) for v in x)) if x else 1

    # --- enumeration --------------------------------------------------------

    def _bfs_moves(self):
        """Images of all generators then all inverses, K block before L."""
        gens = self.partition.generators()
        moves = [self.generator_image(g) for g in gens]
        moves += [self.elem_inv(m) for m in moves]
        return moves

    def _bfs(self, max_radius=None, cap=None, stop_at=None):
        """Distances out to ``max_radius``; with ``stop_at`` set, returns as
        soon as that element receives its distance (partial table)."""
        cap = self.enumeration_cap if cap is None else cap
        moves = self._bfs_moves()
        start = self.identity_element()
        dist = {start: 0}
        if stop_at is not None and stop_at == start:
            return dist
        queue = deque([start])
        while queue:
            x = queue.popleft()
            d = dist[x]
            if max_radius is not None and d >= max_radius:
                continue
            for mv in moves:
                y = self.elem_mul(x, mv)
                if y not in dist:
                    if len(dist) >= cap:
                        raise CapExceededError(cap, "image group enumeration")
                    dist[y] = d + 1
                    if stop_at is not None and y == stop_at:
                        return dist
                    queue.append(y)
        return dist

    def _distance_table(self):
        if self._table is None:
            self._table = self._bfs()
        return self._table

    def order(self) -> int:
        """Order of the image group (full closure enumeration)."""
        if self.kind == ABELIAN:
            return self.modulus ** self.partition.rank
        return len(self._distance_table())

    def ball(self, radius: int, cap=None) -> dict:
        """Cayley-ball distances up to ``radius``; not memoized."""
        return self._bfs(max_radius=radius, cap=cap)

    def cayley_distance(self, w: Word, max_radius=None):
        """BFS distance from the identity to image(w) in the image Cayley
        graph over all generator images and inverses.

        With ``max_radius`` set, returns None when the distance exceeds it
        (only the bounded ball is enumerated).
        """
        target = self.image(w)
        if self._table is not None and max_radius is None:
            return self._table[target]
        return self._bfs(max_radius=max_radius, stop_at=target).get(target)


def make_permutation_quotient(partition: FactorPartition, images: dict,
                              enumeration_cap=None) -> FiniteQuotient:
    """Build and validate a permutation-backend quotient.

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
        values = raw.mapping if isinstance(raw, Permutation) else raw
        values = list(values)
        if degree is None:
            degree = len(values)
            if degree < 1:
                raise ValueError("permutation degree must be at least 1")
        checked[g] = _check_permutation(values, degree, f"images[{partition.letter(g)}]")
    return FiniteQuotient(partition, PERM, images=checked, degree=degree,
                          enumeration_cap=enumeration_cap)


def make_abelian_quotient(partition: FactorPartition, modulus: int,
                          enumeration_cap=None) -> FiniteQuotient:
    """Quotient by the kernel of exponent-sum vectors mod ``modulus``."""
    if not isinstance(modulus, int) or modulus < 2:
        raise ValueError(f"abelian modulus must be an integer >= 2, got {modulus!r}")
    return FiniteQuotient(partition, ABELIAN, modulus=modulus,
                          enumeration_cap=enumeration_cap)


def trivial_quotient(partition: FactorPartition) -> FiniteQuotient:
    """Degree-1 permutation quotient (everything in the kernel)."""
    return make_permutation_quotient(
        partition, {g: Permutation.identity(1) for g in partition.generators()})


def subgroup_image_order(q: FiniteQuotient, gens, cap=None) -> int:
    """Order of the subgroup of the image generated by the words' images."""
    return len(generated_image_table(q, gens, cap=cap))


def generated_image_table(q: FiniteQuotient, gens, cap=None) -> dict:
    """BFS over the image subgroup generated by ``gens`` (a list of words).

    Returns an insertion-ordered dict mapping each element to a geodesic
    word in the given generators, expanding gens in list order and then
    their inverses; the table is deterministic and cap-checked.
    """
    cap = q.enumeration_cap if cap is None else cap
    moves = [(w, q.image(w)) for w in gens]
    moves += [(invert(w), q.elem_inv(x)) for w, x in moves]
    start = q.identity_element()
    table = {start: identity_word()}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        wx = table[x]
        for mw, mx in moves:
            y = q.elem_mul(x, mx)
            if y not in table:
                if len(table) >= cap:
                    raise CapExceededError(cap, "generated subgroup enumeration")
                table[y] = multiply(wx, mw)
                queue.append(y)
    return table


def as_permutation_quotient(q: FiniteQuotient) -> FiniteQuotient:
    """Re-express an abelian quotient as commuting block rotations.

    Generator i rotates its own block of ``modulus`` points, so kernels,
    orders, and coset tests are preserved exactly.
    """
    if q.kind == PERM:
        return q
    n = q.modulus
    rank = q.partition.rank
    if n * rank > q.enumeration_cap:
        raise CapExceededError(q.enumeration_cap, f"permutation form of abelian modulus {n}")
    images = {}
    for g in q.partition.generators():
        i = q.partition.flat_index(g)
        mapping = list(range(n * rank))
        for j in range(n):
            mapping[i * n + j] = i * n + (j + 1) % n
        images[g] = Permutation(mapping)
    return make_permutation_quotient(q.partition, images, enumeration_cap=q.enumeration_cap)


def direct_product(q1: FiniteQuotient, q2: FiniteQuotient) -> FiniteQuotient:
    """Quotient whose kernel is the intersection of the two kernels.

    Realized as the disjoint-union permutation action, so the result stays
    within the two serialized backend kinds.
    """
    if q1.partition != q2.partition:
        raise ValueError("direct product needs matching partitions")
    p1 = as_permutation_quotient(q1)
    p2 = as_permutation_quotient(q2)
    shift = p1.degree
    images = {}
    for g in q1.partition.generators():
        left = p1.images[g].mapping
        right = p2.images[g].mapping
        images[g] = Permutation((*left, *(x + shift for x in right)))
    cap = max(q1.enumeration_cap, q2.enumeration_cap)
    return make_permutation_quotient(q1.partition, images, enumeration_cap=cap)


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
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    kind = obj.get("kind")
    if kind == PERM:
        allowed = {"kind", "degree", "images"}
        _check_keys(obj, allowed, path)
        degree = obj["degree"]
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
            raise SchemaError(f"{path}.degree: expected a positive integer")
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
        try:
            return make_permutation_quotient(partition, images, enumeration_cap=enumeration_cap)
        except ValueError as exc:
            raise SchemaError(f"{path}.images: {exc}") from exc
    if kind == ABELIAN:
        allowed = {"kind", "modulus"}
        _check_keys(obj, allowed, path)
        modulus = obj["modulus"]
        if not isinstance(modulus, int) or isinstance(modulus, bool) or modulus < 2:
            raise SchemaError(f"{path}.modulus: expected an integer >= 2")
        return make_abelian_quotient(partition, modulus, enumeration_cap=enumeration_cap)
    raise SchemaError(f"{path}.kind: expected 'perm' or 'abelian', got {kind!r}")


def element_to_obj(q: FiniteQuotient, elt) -> dict:
    if q.kind == PERM:
        return {"kind": PERM, "mapping": list(elt.mapping)}
    return {"kind": ABELIAN, "modulus": q.modulus, "vector": list(elt)}


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
