"""Command-line front end: `lrcone <command> [flags]`.

Commands mirror the library: horn, rays, facet, member, hilbert, tables,
sample. Output is deterministic for a fixed invocation; `--format json`
emits a single object validating against the schema shipped as
`lrcone/output.schema.json`.
"""

import argparse
import json
import os
import sys

from . import __version__
from .cones import (
    enumerate_horn,
    format_point,
    HornDatum,
    member,
    normalize_kind,
    parse_point,
    parse_subset,
    point_to_json,
)
from .rays import (
    enumerate_rays,
    facet_rays,
    rayset_json,
    rayset_lines,
)
from .hilbert import check_search_budget, hilbert_basis_bounded
from .oracle import sample_spectrum_sum, write_sample_report

# The only time limits: per command, the r and the s ceilings, each as
# (default, with --extended). Ray enumeration recurses over every Horn facet
# (data over s-1 subsets) and the Hilbert box grows as C(r+B, r)^s, so cost
# climbs steeply with r and s. `facet` enumerates the rays of two smaller
# cones and is held to the rays ceilings.
CEILINGS = {"rays": ((6, 9), (5, 8)), "hilbert": ((5, 7), (5, 8)),
            "tables": ((6, 9), (5, 8))}


class CommandError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def _emit(args, payload, lines):
    if args.format == "json":
        out = json.dumps(payload, indent=2, sort_keys=True)
    else:
        out = "\n".join(lines)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def cmd_horn(args):
    if args.r < 2:
        raise CommandError(f"no valid d at r={args.r}: need 1 <= d < r")
    if not 1 <= args.d < args.r:
        raise CommandError(f"d={args.d} out of range: need 1 <= d < r={args.r}")
    data = enumerate_horn(args.r, args.s, args.d)
    lines = [str(h) for h in data]
    payload = {"command": "horn",
               "params": {"r": args.r, "s": args.s, "d": args.d},
               "result": {"count": len(data),
                          "data": [{"I": [list(i) for i in h.I], "K": list(h.K)}
                                   for h in data]}}
    _emit(args, payload, lines)


def _check_ceilings(args, table, r, what="r"):
    """Refuse, before any work, an r or an s above the ceilings of `table`."""
    for name, value, (default, extended) in zip((what, "s"), (r, args.s),
                                                  CEILINGS[table]):
        ceiling = extended if args.extended else default
        if value > ceiling:
            hint = (f"; pass --extended to lift it to {extended}"
                    if value <= extended else "")
            raise CommandError(
                f"{name}={value} exceeds the {table} ceiling {ceiling}{hint}")


def cmd_rays(args):
    kind = normalize_kind(args.kind)
    _check_ceilings(args, "rays", args.r)
    rays = enumerate_rays(args.r, args.s, kind)
    lines = [f"# {len(rays)} rays of {kind}_{args.r}^{args.s}"] + rayset_lines(rays)
    payload = {"command": "rays",
               "params": {"r": args.r, "s": args.s, "kind": kind},
               "result": rayset_json(args.r, args.s, kind, rays)}
    _emit(args, payload, lines)


def _parse_facet(args):
    Is = tuple(parse_subset(p) for p in args.I.split(";"))
    K = parse_subset(args.K)
    d = len(K)
    if len(Is) != args.s - 1:
        raise CommandError(f"expected {args.s - 1} subsets in --I, got {len(Is)}")
    _check_ceilings(args, "rays", max(d, args.r - d), "max(d, r-d)")
    try:
        return HornDatum(args.r, args.s, d, Is, K).check()
    except ValueError as exc:
        raise CommandError(str(exc))


def cmd_facet(args):
    h = _parse_facet(args)
    kind = normalize_kind(args.kind)
    dec = facet_rays(h, kind)
    lines = [f"# facet {h} of {kind}_{args.r}^{args.s}", "# type I rays:"]
    lines += [f"  ({j},{a}) -> {format_point(p)}" for (j, a), p in dec.type1]
    lines.append(f"# type II extremal images ({len(dec.type2_extremal)}):")
    lines += [f"  {format_point(p)}" for p in dec.type2_extremal]
    lines.append(f"# zero images: {dec.type2_zero}")
    lines.append(f"# non-extremal images ({len(dec.type2_nonextremal)}):")
    lines += [f"  {format_point(p)}" for p in dec.type2_nonextremal]
    payload = {"command": "facet",
               "params": {"r": args.r, "s": args.s, "kind": kind,
                          "I": [list(i) for i in h.I], "K": list(h.K)},
               "result": {
                   "type1": [{"datum": [j, a], "ray": point_to_json(p)["blocks"]}
                             for (j, a), p in dec.type1],
                   "type2_extremal": [point_to_json(p)["blocks"]
                                      for p in dec.type2_extremal],
                   "zero_images": dec.type2_zero,
                   "nonextremal": [point_to_json(p)["blocks"]
                                   for p in dec.type2_nonextremal]}}
    _emit(args, payload, lines)


def cmd_member(args):
    kind = normalize_kind(args.kind)
    try:
        x = parse_point(args.point)
    except ValueError as exc:
        raise CommandError(f"bad point {args.point!r}: {exc}")
    verdict = member(x, kind)
    payload = {"command": "member",
               "params": {"point": args.point, "kind": kind},
               "result": {"member": verdict}}
    _emit(args, payload, ["true" if verdict else "false"])


def cmd_hilbert(args):
    kind = normalize_kind(args.kind)
    _check_ceilings(args, "hilbert", args.r)
    basis = hilbert_basis_bounded(args.r, args.s, kind, args.bound)
    lines = [f"# {len(basis.points)} indecomposable points of "
             f"{kind}_{args.r}^{args.s} with bound {args.bound}"]
    lines += [format_point(p) for p in basis.points]
    payload = {"command": "hilbert",
               "params": {"r": args.r, "s": args.s, "kind": kind,
                          "bound": args.bound},
               "result": basis.to_json()}
    _emit(args, payload, lines)


def cmd_tables(args):
    if args.which not in ("ray-counts", "hilbert-counts"):
        raise CommandError(f"unknown table {args.which!r}")
    _check_ceilings(args, "tables", args.max_r, "--max-r")
    eqs = {r: enumerate_rays(r, args.s, "EqLR") for r in range(1, args.max_r + 1)}
    if args.which == "ray-counts":
        rows = [(r, len(enumerate_rays(r, args.s, "LR")), len(eq))
                for r, eq in eqs.items()]
    else:
        # the bound of row r is one more than the largest part of its rays;
        # every bound is checked against the byte budget before any search
        bounds = {r: max(p[-1][0] for p in eq) + 1 for r, eq in eqs.items()}
        for r, bound in bounds.items():
            check_search_budget(r, args.s, "EqLR", bound)
        rows = [(r, len(eq),
                 len(hilbert_basis_bounded(r, args.s, "EqLR", bounds[r]).points))
                for r, eq in eqs.items()]
    header = (("r", "LR", "EqLR") if args.which == "ray-counts"
              else ("r", "rays", "hilbert"))
    tsv = ["\t".join(header)] + ["\t".join(str(v) for v in row) for row in rows]
    payload = {"command": "tables",
               "params": {"which": args.which, "s": args.s, "max_r": args.max_r},
               "result": {"header": list(header), "rows": [list(r) for r in rows]}}
    _emit(args, payload, tsv)


def cmd_sample(args):
    spectra = [tuple(float(v) for v in block.split(","))
               for block in args.spectra.split(";")]
    samples = sample_spectrum_sum(spectra, args.mode, args.trials, args.seed)
    if args.output:
        with open(args.output, "w") as fh:
            write_sample_report(samples, fh)
    else:
        write_sample_report(samples, sys.stdout)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lrcone",
        description="Exact computations with Littlewood-Richardson cones")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, extended=True):
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--s", type=int, default=3)
        p.add_argument("--format", choices=("text", "json", "tsv"), default="text")
        p.add_argument("--output", default=None)
        if extended:
            p.add_argument("--extended", action="store_true",
                           help="lift the r and s ceilings (slow)")
        return p

    p = common(sub.add_parser("horn", help="enumerate Horn data"), extended=False)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_horn)

    p = common(sub.add_parser("rays", help="enumerate extremal rays"))
    p.add_argument("--kind", default="eqlr")
    p.set_defaults(func=cmd_rays)

    p = common(sub.add_parser("facet", help="decompose one Horn facet"))
    p.add_argument("--I", required=True, help='subsets, e.g. "{2};{2}"')
    p.add_argument("--K", required=True, help='subset, e.g. "{3}"')
    p.add_argument("--kind", default="eqlr")
    p.set_defaults(func=cmd_facet)

    p = sub.add_parser("member", help="test cone membership of a point")
    p.add_argument("--point", required=True, help='e.g. "1,1;1,1;2,1"')
    p.add_argument("--kind", default="eqlr")
    p.add_argument("--format", choices=("text", "json", "tsv"), default="text")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_member)

    p = common(sub.add_parser("hilbert", help="bounded Hilbert basis search"))
    p.add_argument("--kind", default="eqlr")
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("tables", help="reproduce the small-r count tables")
    p.add_argument("--which", required=True)
    p.add_argument("--max-r", type=int, dest="max_r", default=5)
    p.add_argument("--s", type=int, default=3)
    p.add_argument("--format", choices=("text", "json", "tsv"), default="tsv")
    p.add_argument("--output", default=None)
    p.add_argument("--extended", action="store_true")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("sample", help="random Hermitian spectrum sampler")
    p.add_argument("--spectra", required=True, help='e.g. "1,0;1,0"')
    p.add_argument("--mode", choices=("equal", "majorized"), default="equal")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_sample)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (say, `| head -1`); send what is still
        # buffered to devnull so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
