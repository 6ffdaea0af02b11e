"""Command-line front end.

Every engine in the library is reachable from here; outputs are canonical
JSON (sorted keys, no whitespace, trailing newline), DOT graphs, or — for
the word-level helpers — the word string itself.  ``python -m json.tool
--sort-keys --indent 2 FILE`` prints a JSON output for reading (the layout
earlier versions wrote); files in that layout still load, since a loader
takes any whitespace, and are written back compact.  Exit codes: 0 for
success, 1 when a verification fails, 2 for usage or schema errors, 3 when
a cap is exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import example1, example2, quotients, separation, words
from .errors import CapExceededError, SchemaError


def canonical_json(obj) -> str:
    """Sorted keys, no whitespace, a trailing newline: the layout of RFC 8785
    (JSON Canonicalization Scheme) with ``json``'s ASCII escapes and number
    text, written by one call of the C encoder."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def check_to_obj(result) -> dict:
    return {"ok": result.ok, "reasons": list(result.reasons)}


def report_to_obj(report: example2.Ex2Report) -> list:
    return [{"clause": c.clause, "m": c.m, "k": c.k, "pass": c.ok, "detail": c.detail}
            for c in report.clauses]


# type tag -> (certificate class, from_obj, to_obj, verify, report renderer)
CERTIFICATES = {
    "separation": (separation.SeparationCertificate, separation.separation_from_obj,
                   separation.separation_to_obj, separation.verify_separation, check_to_obj),
    "ex1_tail": (example1.Ex1TailCertificate, example1.ex1_tail_from_obj,
                 example1.ex1_tail_to_obj, example1.verify_ex1, check_to_obj),
    "ex1_not_closed": (example1.Ex1NotClosedWitness, example1.ex1_witness_from_obj,
                       example1.ex1_witness_to_obj, example1.verify_ex1_witness, check_to_obj),
    "ex2": (example2.Ex2Certificate, example2.ex2_from_obj, example2.ex2_to_obj,
            example2.verify_ex2, report_to_obj),
}


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past the interpreter's digit limit
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc


def load_certificate(path, enumeration_cap=None):
    """Read a certificate file, dispatching on its ``type`` tag."""
    obj = _read_json(path)
    if not isinstance(obj, dict) or "type" not in obj:
        raise SchemaError(f"{path}: certificate objects carry a 'type' field")
    kind = obj["type"]
    if not isinstance(kind, str) or kind not in CERTIFICATES:
        raise SchemaError(f"{path}.type: unknown certificate type {kind!r}")
    return CERTIFICATES[kind][1](obj, enumeration_cap=enumeration_cap)


def _type_tag(cert) -> str:
    for tag, (cls, *_) in CERTIFICATES.items():
        if isinstance(cert, cls):
            return tag
    raise TypeError(f"cannot serialize {type(cert).__name__}")


def emit_certificate(cert) -> str:
    """Canonical JSON text for any certificate or witness object."""
    return canonical_json(CERTIFICATES[_type_tag(cert)][2](cert))


def _load_accepted(args):
    """The certificate file of ``args``, refused unless its type is accepted."""
    cert = load_certificate(args.certificate, enumeration_cap=args.cap)
    tag = _type_tag(cert)
    if tag not in args.accepts:
        *rest, last = args.accepts
        names = f"{', '.join(rest)}, or {last}" if rest else last
        article = "an" if names[0] in "aeiou" else "a"
        raise SchemaError(f"{args.command} expects {article} {names} certificate")
    return tag, cert


def _partition(args) -> words.FactorPartition:
    # the flags take a file's partition checks before any generator is
    # listed: the letter syntax names at most 26 generators
    return separation.partition_from_obj({"k_size": args.k_size, "l_size": args.l_size})


def _load_quotient(args, partition) -> quotients.FiniteQuotient:
    if args.abelian is not None:
        return quotients.make_abelian_quotient(partition, args.abelian,
                                               enumeration_cap=args.cap)
    if args.quotient is not None:
        return quotients.quotient_from_obj(_read_json(args.quotient), partition,
                                           path="quotient", enumeration_cap=args.cap)
    raise SchemaError("a quotient is required: pass --quotient FILE or --abelian N")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proficert",
        description="Finite-quotient certificates for profinite-topology claims "
                    "about free groups.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    def add_partition_flags(p, k_default=1, l_default=1):
        p.add_argument("--k-size", type=int, default=k_default,
                       help=f"generators in the K free factor (default {k_default})")
        p.add_argument("--l-size", type=int, default=l_default,
                       help=f"generators in the L free factor (default {l_default})")

    def add_cap_flag(p):
        p.add_argument("--cap", type=int, default=None,
                       help="enumeration cap (default 10^6 image elements)")

    def command(name, run, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(run=run)
        return p

    p = command("reduce", _cmd_reduce, help="reduce a word and print its normal form")
    p.add_argument("word")
    add_partition_flags(p)

    p = command("image", _cmd_image, help="image of a word in a finite quotient")
    p.add_argument("--word", required=True)
    p.add_argument("--quotient", help="quotient JSON file")
    p.add_argument("--abelian", type=int, help="use the abelian quotient mod N")
    add_partition_flags(p)
    add_cap_flag(p)

    p = command("distance", _cmd_distance, help="Cayley distance from the identity")
    p.add_argument("--word", required=True)
    p.add_argument("--quotient", help="quotient JSON file")
    p.add_argument("--abelian", type=int, help="use the abelian quotient mod N")
    p.add_argument("--max-radius", type=int, default=None,
                   help="search only the ball of this radius")
    add_partition_flags(p)
    add_cap_flag(p)

    p = command("stallings", _cmd_stallings, help="folded subgroup graph for generators")
    p.add_argument("--gen", action="append", default=[],
                   help="subgroup generator word (repeatable)")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    add_partition_flags(p)

    p = command("separate", _cmd_separate,
                help="certificate separating a word from a subgroup (or from the identity)")
    p.add_argument("--word", required=True, help="the word to exclude")
    p.add_argument("--gen", action="append", default=[],
                   help="subgroup generator word (repeatable)")
    add_partition_flags(p)

    p = command("ex1-elem", _cmd_ex1_elem, help="family elements a^(j!) b^(m_j)")
    p.add_argument("index", type=int)
    p.add_argument("--kind", choices=["a", "s", "m"], default="s",
                   help="a: a^(j!); s: the family member; m: the integer m_j")

    p = command("ex1-separate", _cmd_ex1_separate,
                help="tail certificate separating a word from the family")
    p.add_argument("--word", required=True)
    p.add_argument("--head-margin", type=int, default=0)

    p = command("ex1-verify", _cmd_verify, help="recheck a stored certificate file")
    p.add_argument("certificate")
    p.set_defaults(accepts=("separation", "ex1_tail", "ex1_not_closed"))
    add_cap_flag(p)

    p = command("ex1-witness", _cmd_ex1_witness,
                help="kernel element of the given quotient witnessing "
                     "non-closedness of the extended family")
    p.add_argument("--quotient", help="quotient JSON file (rank-2 split 1+1)")
    p.add_argument("--abelian", type=int, help="use the abelian quotient mod N")
    add_cap_flag(p)

    p = command("ex2-construct", _cmd_ex2_construct, help="build a chain certificate")
    p.add_argument("--steps", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--f", default=None,
                   help="comma-separated distance requirements, e.g. 2,3,4,5")
    p.add_argument("--draws", type=int, default=example2.DEFAULT_MAX_SOURCE_DRAWS,
                   help="maximum quotient-source draws")
    add_partition_flags(p, k_default=2, l_default=2)
    add_cap_flag(p)

    p = command("ex2-verify", _cmd_verify, help="recheck a chain certificate file")
    p.add_argument("certificate")
    p.set_defaults(accepts=("ex2",))
    add_cap_flag(p)

    p = command("ex2-witness", _cmd_ex2_witness,
                help="Cayley ball of a chain step's quotient, drawn as DOT")
    p.add_argument("certificate")
    p.add_argument("--step", type=int, required=True)
    p.add_argument("--dot", action="store_true", required=True,
                   help="emit the Cayley ball of the step's quotient as DOT")
    p.set_defaults(accepts=("ex2",))
    add_cap_flag(p)
    return parser


def _cmd_reduce(args) -> int:
    partition = _partition(args)
    w = words.parse_word(args.word, partition)
    sys.stdout.write(words.format_word(w, partition) + "\n")
    return 0


def _cmd_image(args) -> int:
    partition = _partition(args)
    q = _load_quotient(args, partition)
    element = q.image(words.parse_word(args.word, partition))
    sys.stdout.write(canonical_json(quotients.element_to_obj(q, element)))
    return 0


def _cmd_distance(args) -> int:
    partition = _partition(args)
    q = _load_quotient(args, partition)
    d = q.cayley_distance(words.parse_word(args.word, partition), max_radius=args.max_radius)
    sys.stdout.write(canonical_json({"distance": d}))
    return 0


def _cmd_stallings(args) -> int:
    partition = _partition(args)
    gens = [words.parse_word(g, partition) for g in args.gen]
    graph = separation.build_stallings(partition, gens)
    if args.dot:
        sys.stdout.write(separation.graph_to_dot(graph))
    else:
        sys.stdout.write(canonical_json(separation.graph_to_obj(graph)))
    return 0


def _cmd_separate(args) -> int:
    partition = _partition(args)
    w = words.parse_word(args.word, partition)
    gens = [words.parse_word(g, partition) for g in args.gen]
    if gens:
        cert = separation.separate_from_subgroup(partition, gens, w)
    else:
        cert = separation.separate_from_identity(partition, w)
    sys.stdout.write(emit_certificate(cert))
    return 0


def _cmd_ex1_elem(args) -> int:
    # the head cap keeps j! and lcm(1..j) inside the digits CPython converts
    # to a string
    example1.check_head_cap(args.index, "ex1-elem index")
    if args.kind == "m":
        sys.stdout.write(str(example1.m_sequence(args.index)) + "\n")
        return 0
    w = example1.a_element(args.index) if args.kind == "a" else example1.s_element(args.index)
    sys.stdout.write(words.format_word(w, example1.EX1_PARTITION) + "\n")
    return 0


def _cmd_ex1_separate(args) -> int:
    w = words.parse_word(args.word, example1.EX1_PARTITION)
    cert = example1.separate_from_S(w, head_margin=args.head_margin)
    sys.stdout.write(emit_certificate(cert))
    return 0


def _cmd_verify(args) -> int:
    tag, cert = _load_accepted(args)
    _, _, _, verify, render = CERTIFICATES[tag]
    report = verify(cert)
    sys.stdout.write(canonical_json(render(report)))
    return 0 if report.ok else 1


def _cmd_ex1_witness(args) -> int:
    q = _load_quotient(args, example1.EX1_PARTITION)
    witness = example1.not_closed_witness(q)
    sys.stdout.write(emit_certificate(witness))
    return 0


def _cmd_ex2_construct(args) -> int:
    partition = _partition(args)
    f = None
    if args.f is not None:
        try:
            f = [int(part) for part in args.f.split(",")]
        except ValueError:
            raise SchemaError(f"--f: expected comma-separated integers, got {args.f!r}")
    source = example2.MixedQuotientSource(partition, args.seed, args.cap)
    cert = example2.construct_ex2(partition, steps=args.steps, f=f, source=source,
                                  max_source_draws=args.draws)
    sys.stdout.write(emit_certificate(cert))
    return 0


def _cmd_ex2_witness(args) -> int:
    _, cert = _load_accepted(args)
    sys.stdout.write(example2.ex2_ball_dot(cert, args.step))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.run(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, example2.NoAdmissibleElementError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
