"""Finite-quotient certificates for profinite-topology claims about free groups.

The library works over a free group presented as a free product of two free
factors K and L.  It provides run-length word algebra, finite quotients with
fast powering and Cayley-ball searches, Stallings graphs with effective
separation certificates, and two certificate engines: one for a factorial-
power family converging to a non-integer profinite target, and one for an
inductively built chain of quotients certifying a closed discrete family
whose product with the K free factor is not closed.
"""

from .errors import CapExceededError, SchemaError, WordSyntaxError
from .words import (
    K,
    L,
    FactorPartition,
    Generator,
    Word,
    exponent_sum,
    format_word,
    identity,
    invert,
    multiply,
    parse_word,
    power,
    reduce,
    syllables,
    word_length,
)
from .quotients import (
    DEFAULT_ENUMERATION_CAP,
    FiniteQuotient,
    Permutation,
    direct_product,
    make_abelian_quotient,
    make_permutation_quotient,
    quotient_from_obj,
    quotient_to_obj,
    subgroup_image_order,
    trivial_quotient,
)
from .separation import (
    SeparationCertificate,
    StallingsGraph,
    build_stallings,
    fold,
    graph_to_dot,
    membership,
    separate_from_identity,
    separate_from_subgroup,
    separation_from_obj,
    separation_to_obj,
    verify_separation,
)
from .example1 import (
    Ex1NotClosedWitness,
    Ex1TailCertificate,
    a_element,
    convergence_witness,
    m0_residue,
    m_sequence,
    not_closed_witness,
    s_element,
    separate_from_S,
    separate_integer_from_m0,
    verify_ex1,
    verify_ex1_witness,
)
from .example2 import (
    Ex2Certificate,
    Ex2Params,
    Ex2Report,
    Ex2Step,
    MixedQuotientSource,
    NoAdmissibleElementError,
    choose_r,
    construct_ex2,
    discreteness_witness,
    ex2_from_obj,
    ex2_to_obj,
    finite_intersection_witness,
    make_s,
    not_closed_witness2,
    verify_ex2,
)

__version__ = "0.1.0"
