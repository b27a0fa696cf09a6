"""Command-line front end.

Exit codes: 0 success, 1 mathematical check failure (verify), 2 input error.
Structured mode emits JSON with stable key names; human mode prints aligned
text and never mixes with structured output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable

from . import corpus as corpus_mod
from .core import SubsetHandle, center, idempotents, is_cancellative, is_group, is_monoid, read_sg, write_sg, dumps_sg
from .errors import SemigroupError
from .greens import eggbox_dot, greens_structure
from .ideals import kernel, rees_quotient
from .simple import (
    DEFAULT_SEARCH_CAP,
    band_predicates,
    enumerate_subsemigroups,
    is_completely_simple,
    is_simple,
    rees_decompose,
    write_rms,
)


def _json(doc, indent: str = "\n") -> str:
    """json.dumps(doc, indent=2, sort_keys=True) for dicts with str keys, lists
    and scalars, whose indenting encoder is pure Python: here strings go through
    json's C encoder, a list of ints is one join, and numbers are json.dumps's."""
    inner = indent + "  "
    if isinstance(doc, dict):
        items, ends = [f"{encode_basestring_ascii(k)}: {_json(doc[k], inner)}" for k in sorted(doc)], "{}"
    elif isinstance(doc, (list, tuple)):
        items, ends = list(map(str, doc)) if all(type(x) is int for x in doc) else [_json(x, inner) for x in doc], "[]"
    elif isinstance(doc, str):
        return encode_basestring_ascii(doc)
    elif doc is None or isinstance(doc, bool):
        return "null" if doc is None else "true" if doc else "false"
    else:
        return json.dumps(doc)
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if items else ends


def _emit(args, doc: dict, human: Callable[[], str]) -> None:
    """Write doc in structured mode, else the text human() renders, so the
    text is only built when it is printed."""
    if args.format == "structured":
        sys.stdout.write(_json(doc) + "\n")
    else:
        sys.stdout.write(human() + "\n")


def _cmd_validate(args) -> int:
    S = read_sg(args.file)
    _emit(args, {"order": S.order, "associative": True}, lambda: f"associative, order {S.order}")
    return 0


def _cmd_report(args) -> int:
    S = read_sg(args.file)
    e = is_monoid(S)
    c = is_cancellative(S)
    bands = band_predicates(S)
    doc = {
        "order": S.order,
        "idempotents": list(idempotents(S).members),
        "center": list(center(S).members),
        "identity": e,
        "is_group": is_group(S),
        "is_cancellative_left": c.left,
        "is_cancellative_right": c.right,
        "is_simple": is_simple(S),
        "is_completely_simple": is_completely_simple(S),
        "is_band": bands.is_band,
        "is_rectangular_band": bands.is_rectangular_band,
        "is_rectangular_group": bands.is_rectangular_group,
    }
    _emit(args, doc, lambda: "\n".join(f"{k}: {v}" for k, v in doc.items()))
    return 0


def _braces(members) -> str:
    return "{" + ",".join(str(x) for x in members) + "}"


def _eggbox_ascii(G) -> str:
    lines = []
    for box in G.eggbox:
        lines.append(f"D-class {box.d_id}:")
        rendered = [[_braces(cell) for cell in row] for row in box.cells]
        width = max(len(s) for row in rendered for s in row)
        for row in rendered:
            lines.append("  " + " | ".join(s.ljust(width) for s in row))
    return "\n".join(lines)


def _cmd_greens(args) -> int:
    S = read_sg(args.file)
    G = greens_structure(S)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(eggbox_dot(G))
    _emit(args, G.to_dict(), lambda: _eggbox_ascii(G))
    return 0


def _kernel_text(report) -> str:
    lines = [
        f"K = {_braces(report.kernel.members)}",
        f"E(K) = {_braces(report.idempotents)}",
        "minimal left ideals: " + " ".join(_braces(h.members) for h in report.min_left),
        "minimal right ideals: " + " ".join(_braces(h.members) for h in report.min_right),
    ]
    for e, v in sorted(report.witnesses.items()):
        lines.append(f"e={e}: Se-minimal={v[0]} eSe-group={v[1]} eS-minimal={v[2]} K=SeS={v[3]}")
    return "\n".join(lines)


def _cmd_kernel(args) -> int:
    report = kernel(read_sg(args.file))
    _emit(args, report.to_dict(), lambda: _kernel_text(report))
    return 0


def _cmd_decompose(args) -> int:
    S = read_sg(args.file)
    dec = rees_decompose(S, args.base_idempotent)
    if args.emit_rms:
        write_rms(dec.rms, args.emit_rms)
    doc = {
        "base_idempotent": dec.e,
        "i_elements": list(dec.i_elements),
        "lambda_elements": list(dec.lambda_elements),
        "group_elements": list(dec.group_elements),
        "sandwich": dec.rms.sandwich.tolist(),
        "phi": list(dec.phi.map),
        "psi": list(dec.psi.map),
        "closed_form_inverse_agrees": all(dec.closed_form_agreement),
    }
    _emit(args, doc, lambda: "\n".join(
        [
            f"base idempotent e = {dec.e}",
            f"I = {list(dec.i_elements)}",
            f"Lambda = {list(dec.lambda_elements)}",
            f"G = H_e = {list(dec.group_elements)}",
            f"sandwich P = {doc['sandwich']}",
            f"closed-form inverse agrees: {all(dec.closed_form_agreement)}",
        ]
    ))
    return 0


def _cmd_quotient(args) -> int:
    S = read_sg(args.file)
    members = tuple(int(tok) for tok in args.ideal.split(","))
    ideal = SubsetHandle(S, members)
    Q, pi = rees_quotient(S, ideal)
    if args.output:
        write_sg(Q, args.output)
        _emit(args, {"order": Q.order, "projection": list(pi.map)}, lambda: f"quotient order {Q.order} written to {args.output}")
    else:
        doc = {"order": Q.order, "table": Q.table.tolist(), "projection": list(pi.map)}
        _emit(args, doc, lambda: dumps_sg(Q).rstrip("\n"))
    return 0


def _cmd_subsemigroups(args) -> int:
    S = read_sg(args.file)
    subs = enumerate_subsemigroups(S, cap=args.cap)
    doc = {"count": len(subs), "subsemigroups": [list(h.members) for h in subs]}
    _emit(args, doc, lambda: f"{len(subs)} subsemigroups:\n" + "\n".join(_braces(h.members) for h in subs))
    return 0


def _cmd_gen(args) -> int:
    S = corpus_mod.parse_descriptor(args.descriptor)
    write_sg(S, args.output)
    _emit(args, {"order": S.order, "path": args.output}, lambda: f"wrote order-{S.order} table to {args.output}")
    return 0


def _cmd_census(args) -> int:
    instances = corpus_mod.census(args.max_order)
    os.makedirs(args.output, exist_ok=True)
    names = []
    for S in instances:
        path = os.path.join(args.output, f"{S.name}.sg")
        write_sg(S, path)
        names.append(S.name)
    manifest = {
        "generator": f"census:{args.max_order}",
        "rng_algorithm": corpus_mod.RNG_ALGORITHM,
        "instances": names,
        "fingerprint": corpus_mod.fingerprint(instances),
    }
    with open(os.path.join(args.output, "manifest.json"), "w") as fh:
        fh.write(_json(manifest) + "\n")
    _emit(
        args,
        {"count": len(instances), "fingerprint": manifest["fingerprint"]},
        lambda: f"{len(instances)} semigroups written to {args.output}",
    )
    return 0


def _cmd_verify(args) -> int:
    if args.corpus and args.file:
        raise SemigroupError("verify takes --corpus DIR or a file, not both")
    if args.corpus:
        files = sorted(
            f for f in os.listdir(args.corpus) if f.endswith(".sg")
        )
        instances = [(f, read_sg(os.path.join(args.corpus, f))) for f in files]
    elif args.file:
        instances = [(os.path.basename(args.file), read_sg(args.file))]
    else:
        raise SemigroupError("verify needs --corpus DIR or a file")
    report = corpus_mod.verify_suite(instances)
    if args.format == "structured":
        sys.stdout.write(report.to_json())
    else:
        for e in report.entries:
            if e.status == "fail":
                sys.stdout.write(f"FAIL {e.semigroup} {e.check}: {e.witness}\n")
        s = report.summary
        skipped = f", {s['skip']} skipped" if "skip" in s else ""
        sys.stdout.write(f"{s['pass']} passed, {s['fail']} failed{skipped}\n")
    return 1 if report.failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="semikit", description=__doc__)
    parser.add_argument(
        "--format", choices=("human", "structured"), default="human",
        help="output mode (structured = JSON)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check a .sg file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("report", help="idempotents, center, predicates")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("greens", help="Green's classes and egg-box")
    p.add_argument("file")
    p.add_argument("--dot", metavar="PATH", help="write DOT egg-box diagram")
    p.set_defaults(fn=_cmd_greens)

    p = sub.add_parser("kernel", help="kernel and minimal ideals")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_kernel)

    p = sub.add_parser("decompose", help="Rees matrix decomposition")
    p.add_argument("file")
    p.add_argument("--base-idempotent", type=int, default=None, metavar="K")
    p.add_argument("--emit-rms", metavar="PATH")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("quotient", help="Rees quotient by an ideal")
    p.add_argument("file")
    p.add_argument("--ideal", required=True, metavar="i1,i2,...")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_quotient)

    p = sub.add_parser("subsemigroups", help="enumerate subsemigroups")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=DEFAULT_SEARCH_CAP)
    p.set_defaults(fn=_cmd_subsemigroups)

    p = sub.add_parser("gen", help="generate a fixture")
    p.add_argument("descriptor")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("census", help="census up to isomorphism")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("-o", "--output", required=True, metavar="DIR")
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("verify", help="run the theorem suite")
    p.add_argument("file", nargs="?")
    p.add_argument("--corpus", metavar="DIR")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SemigroupError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
