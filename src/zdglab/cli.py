"""Command-line front end: ring inspection, ideal listing, graph export,
per-pair verdicts, and catalogue verification.

Standard output carries only the requested artifact; progress and
summaries go to standard error. Exit codes: 0 success, 1 a ``verify``
report that records failures, 2 a usage or input error (bad option, spec,
catalogue or file), 3 an internal error, its traceback on standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import asdict

from . import __version__
from .errors import CatalogueError, SpecParseError, ZdglabError
from .graphs import gamma_ideal
from .ideals import DEFAULT_IDEAL_ENUMERATION_CAP, all_ideals, generate_ideal, is_prime, is_radical
from .rings import DEFAULT_MAX_ORDER, is_reduced, is_von_neumann_regular, nilpotents, zero_divisors
from .specs import build_ring, parse_generators
from .verifier import (
    analyze_pair,
    classification_cases,
    default_catalogue,
    parse_catalogue_text,
    run_catalogue,
)


def _gens_arg(text: str) -> tuple[int, ...]:
    try:
        return parse_generators(text)
    except SpecParseError as e:
        raise argparse.ArgumentTypeError(f"ideal generators {text!r}: {e}") from e


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_ring(args) -> int:
    ring = build_ring(args.spec, max_order=args.max_order)
    info = {
        "spec": ring.spec,
        "order": ring.order,
        "zero_divisor_count": len(zero_divisors(ring)),
        "nilpotent_count": len(nilpotents(ring)),
        "reduced": is_reduced(ring),
        "von_neumann_regular": is_von_neumann_regular(ring),
        "element_names": list(ring.element_names),
    }
    if args.format == "json":
        _emit(json.dumps(info, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = [
            f"spec: {info['spec']}",
            f"order: {info['order']}",
            f"zero-divisors: {info['zero_divisor_count']}",
            f"nilpotents: {info['nilpotent_count']}",
            f"reduced: {_yesno(info['reduced'])}",
            f"von Neumann regular: {_yesno(info['von_neumann_regular'])}",
            f"elements: {', '.join(info['element_names'])}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_ideals(args) -> int:
    ring = build_ring(args.spec, max_order=args.max_order)
    ideals = all_ideals(ring, max_order=args.ideal_cap)
    rows = [
        {
            "size": len(i),
            "generators": list(i.generators),
            "members": list(i.sorted_members()),
            "radical": is_radical(i),
            "prime": is_prime(i),
        }
        for i in ideals
    ]
    if args.format == "json":
        obj = {"spec": ring.spec, "ideal_count": len(rows), "ideals": rows}
        _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = [f"ring {ring.spec}: {len(rows)} ideals"]
        for row in rows:
            gens = ",".join(str(g) for g in row["generators"])
            members = ",".join(str(m) for m in row["members"])
            lines.append(
                f"size {row['size']:>4}  gens ({gens})  radical {_yesno(row['radical']):<3}"
                f"  prime {_yesno(row['prime']):<3}  members {{{members}}}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_graph(args) -> int:
    ring = build_ring(args.spec, max_order=args.max_order)
    ideal = generate_ideal(ring, args.ideal)
    graph = gamma_ideal(ring, ideal)
    if args.format == "json":
        _emit(json.dumps(graph.to_json_obj(ring.element_names), indent=2, sort_keys=True) + "\n", args.out)
    else:
        gens = ",".join(str(g) for g in ideal.generators or (ring.zero,))
        _emit(graph.to_dot(ring.element_names, f"Gamma_{{{gens}}}({ring.spec})"), args.out)
    return 0


def _classification_case(verdict) -> str:
    cases = classification_cases(verdict)
    if cases is None:
        return "n/a"
    return "1" if cases[0] else "2" if cases[1] else "none"


def cmd_check(args) -> int:
    ring = build_ring(args.spec, max_order=args.max_order)
    ideal = generate_ideal(ring, args.ideal)
    analysis = analyze_pair(ring, ideal)
    v = analysis.verdict
    complete, nverts = analysis.gi.is_complete()
    case = _classification_case(v)
    if args.format == "json":
        obj = asdict(v)
        obj["ideal_generators"] = list(ideal.generators)
        obj["classification_case"] = case
        obj["gi_complete_order"] = nverts if complete else None
        _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", args.out)
    else:
        members = ",".join(str(m) for m in v.ideal_members)
        gens = ",".join(str(g) for g in ideal.generators) if ideal.generators else str(ring.zero)
        lines = [
            f"ring: {v.ring_spec}",
            f"ideal: generators ({gens}), size {len(v.ideal_members)}, members {{{members}}}",
            f"ideal radical: {_yesno(v.ideal_is_radical)}",
            f"ideal prime: {_yesno(v.ideal_is_prime)}",
            f"quotient: order {analysis.quotient.order}, |Z| = {v.quotient_z_count},"
            f" graph vertices {v.quotient_vertex_count}",
            f"graph vertices: {v.gi_vertex_count}",
            f"graph complete: {f'K^{nverts}' if complete else 'no'}",
            f"complemented: {_yesno(v.gi_complemented)}",
            f"uniquely complemented: {_yesno(v.gi_uniquely_complemented)}",
            f"quotient graph complemented: {_yesno(v.quotient_graph_complemented)}",
            f"quotient graph uniquely complemented: {_yesno(v.quotient_graph_uniquely_complemented)}",
            f"quotient von Neumann regular: {_yesno(v.quotient_vnr)}",
            f"classification case: {case}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _verify_text_summary(report) -> str:
    cat = report.catalogue
    lines = [
        f"catalogue: {cat['description']}",
        f"entries: {cat['entries']}  pairs: {cat['pairs']}  skipped: {len(cat['skipped'])}",
        f"{'check':<42} {'applicable':>10} {'failures':>9}",
    ]
    for c in report.checks:
        lines.append(f"{c.check_name:<42} {c.pairs_applicable:>10} {len(c.failures):>9}")
    lines.append(f"failures total: {report.failures_total}")
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    if args.catalogue == "default":
        entries = default_catalogue()
        description = "default"
    else:
        with open(args.catalogue, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise CatalogueError(f"{args.catalogue}: not UTF-8 at byte offset {e.start}") from e
        entries = parse_catalogue_text(text.removeprefix("\ufeff"))
        description = args.catalogue
    progress = None if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    report = run_catalogue(
        entries,
        description=description,
        max_order=args.max_order,
        ideal_cap=args.ideal_cap,
        jobs=args.jobs,
        inject_fault=args.inject_fault,
        progress=progress,
    )
    if args.format == "text":
        _emit(_verify_text_summary(report), args.out)
    else:
        _emit(report.to_json(), args.out)
    print(
        f"verify: {report.catalogue['pairs']} pairs, {report.failures_total} failures",
        file=sys.stderr,
    )
    return 0 if report.failures_total == 0 else 1


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zdglab",
        description="zero-divisor graph laboratory for finite commutative rings",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, formats, default_format):
        p.add_argument("--format", choices=formats, default=default_format)
        p.add_argument("--out", metavar="PATH", help="write the artifact to PATH instead of stdout")
        p.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER, metavar="N")

    ring = sub.add_parser("ring", help="describe a ring: order, zero-divisors, reducedness, regularity")
    ring.add_argument("spec")
    common(ring, ("text", "json"), "text")
    ring.set_defaults(func=cmd_ring)

    ideals = sub.add_parser("ideals", help="list every ideal with radical/prime flags")
    ideals.add_argument("spec")
    common(ideals, ("text", "json"), "text")
    ideals.add_argument("--ideal-cap", type=int, default=DEFAULT_IDEAL_ENUMERATION_CAP, metavar="N")
    ideals.set_defaults(func=cmd_ideals)

    graph = sub.add_parser("graph", help="export the ideal-based zero-divisor graph as DOT or JSON")
    graph.add_argument("spec")
    graph.add_argument("--ideal", type=_gens_arg, default=(), metavar="G1,G2,...",
                       help="ideal generators as element indices (default: the zero ideal)")
    common(graph, ("dot", "json"), "dot")
    graph.set_defaults(func=cmd_graph)

    check = sub.add_parser("check", help="full property verdict for one (ring, ideal) pair")
    check.add_argument("spec")
    check.add_argument("--ideal", type=_gens_arg, default=(), metavar="G1,G2,...",
                       help="ideal generators as element indices (default: the zero ideal)")
    common(check, ("text", "json"), "text")
    check.set_defaults(func=cmd_check)

    verify = sub.add_parser("verify", help="run every check over a catalogue and write the report")
    verify.add_argument("--catalogue", default="default", metavar="PATH|default")
    common(verify, ("json", "text"), "json")
    verify.add_argument("--ideal-cap", type=int, default=DEFAULT_IDEAL_ENUMERATION_CAP, metavar="N")
    verify.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="parallel workers (0 = every processor this process may run on)")
    verify.add_argument("--quiet", action="store_true", help="suppress per-entry progress on stderr")
    verify.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    verify.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ZdglabError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
