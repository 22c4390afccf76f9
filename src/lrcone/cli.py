"""Command-line front end: `lrcone <command> [flags]`.

Commands mirror the library: horn, rays, facet, member, hilbert, tables,
sample. Output is deterministic for a fixed invocation; `--format json`
emits a single object validating against the schema shipped as
`lrcone/output.schema.json`, and `sample` writes one JSON line per trial.
"""

import argparse
import json
import os
import sys

from . import __version__
from .cones import (
    check_horn_work,
    enumerate_horn,
    format_point,
    HornDatum,
    member,
    normalize_kind,
    parse_point,
    parse_subset,
)
from .rays import (
    enumerate_rays,
    facet_rays,
    rayset_json,
    rayset_lines,
)
from .hilbert import check_search_budget, hilbert_basis_bounded
from .oracle import sample_spectrum_sum

# The time limits, all in this module: per command, the r and the s
# ceilings, each as (default, with --extended). Ray enumeration recurses
# over every Horn facet (data over s-1 subsets) and the Hilbert search tests
# up to C(r+B, r)^s candidate tuples (fewer under containment), so cost
# climbs steeply with r and s. The rays ceilings (`facet` and `tables
# --which ray-counts` are held to them) stop at the largest r measured, 8
# (151 s, 1.25 GB). `tables --which hilbert-counts` runs a Hilbert search per
# row, with the bound its rays call for: r = 6 needs B = 5, over the budget,
# so its r stays at 5. The library refuses a Horn work over its ceiling.
CEILINGS = {"rays": ((6, 8), (5, 8)), "hilbert": ((5, 7), (5, 8)),
            "hilbert-counts": ((5, 5), (5, 8))}


def _emit(args, params, result, lines):
    """Write the text `lines`, or under `--format json` one object holding
    the command, its params and its result."""
    if getattr(args, "format", "text") == "json":
        out = json.dumps({"command": args.command, "params": params,
                          "result": result}, indent=2, sort_keys=True)
    else:
        out = "\n".join(lines)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def _check_ceilings(args, table, held, s):
    """Refuse, before any work, an r or an s above the ceilings of `table`;
    `held`, a (name, value) pair, is the value held to the r ceiling."""
    for (name, value), (default, extended) in zip((held, ("s", s)),
                                                  CEILINGS[table]):
        ceiling = extended if args.extended else default
        if value > ceiling:
            hint = (f"; pass --extended to lift it to {extended}"
                    if value <= extended else "")
            raise ValueError(
                f"{name}={value} exceeds the {table} ceiling {ceiling}{hint}")


def cmd_horn(args):
    data = enumerate_horn(args.r, args.s, args.d)
    _emit(args, {"r": args.r, "s": args.s, "d": args.d},
          {"count": len(data),
           "data": [{"I": [list(i) for i in h.I], "K": list(h.K)} for h in data]},
          [str(h) for h in data])


def cmd_rays(args):
    kind = normalize_kind(args.kind)
    _check_ceilings(args, "rays", ("r", args.r), args.s)
    rays = enumerate_rays(args.r, args.s, kind)
    _emit(args, {"r": args.r, "s": args.s, "kind": kind},
          rayset_json(args.r, args.s, kind, rays),
          [f"# {len(rays)} rays of {kind}_{args.r}^{args.s}"] + rayset_lines(rays))


def _parse_facet(args):
    Is = tuple(parse_subset(p) for p in args.I.split(";"))
    K = parse_subset(args.K)
    d = len(K)
    if len(Is) != args.s - 1:
        raise ValueError(f"expected {args.s - 1} subsets in --I, got {len(Is)}")
    _check_ceilings(args, "rays", ("max(d, r-d)", max(d, args.r - d)), args.s)
    return HornDatum(args.r, args.s, d, Is, K)


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
    _emit(args, {"r": args.r, "s": args.s, "kind": kind,
                 "I": [list(i) for i in h.I], "K": list(h.K)},
          {"type1": [{"datum": [j, a], "ray": [list(b) for b in p]}
                     for (j, a), p in dec.type1],
           "type2_extremal": [[list(b) for b in p] for p in dec.type2_extremal],
           "zero_images": dec.type2_zero,
           "nonextremal": [[list(b) for b in p] for p in dec.type2_nonextremal]},
          lines)


def cmd_member(args):
    kind = normalize_kind(args.kind)
    try:
        x = parse_point(args.point)
    except ValueError as exc:
        raise ValueError(f"bad point {args.point!r}: {exc}")
    verdict = member(x, kind)
    _emit(args, {"point": args.point, "kind": kind}, {"member": verdict},
          ["true" if verdict else "false"])


def cmd_hilbert(args):
    kind = normalize_kind(args.kind)
    _check_ceilings(args, "hilbert", ("r", args.r), args.s)
    basis = hilbert_basis_bounded(args.r, args.s, kind, args.bound)
    lines = [f"# {len(basis.points)} indecomposable points of "
             f"{kind}_{args.r}^{args.s} with bound {args.bound}"]
    lines += [format_point(p) for p in basis.points]
    _emit(args, {"r": args.r, "s": args.s, "kind": kind, "bound": args.bound},
          basis.to_json(), lines)


def cmd_tables(args):
    if args.max_r < 1:
        raise ValueError(f"need --max-r >= 1, got {args.max_r}")
    counts = args.which == "hilbert-counts"
    _check_ceilings(args, "hilbert-counts" if counts else "rays",
                    ("--max-r", args.max_r), args.s)
    # each row's library calls check the Horn work of that row only, and the
    # rows run in ascending r: the last row is checked before the first runs
    check_horn_work(args.max_r, args.s)
    eqs, bounds = {}, {}
    for r in range(1, args.max_r + 1):
        eqs[r] = enumerate_rays(r, args.s, "EqLR")
        if counts:
            # the bound of row r is one more than the largest part of its
            # rays; it is checked against the byte budget as soon as the
            # rays are known, and every row is checked before any search
            bounds[r] = max(p[-1][0] for p in eqs[r]) + 1
            check_search_budget(r, args.s, "EqLR", bounds[r])
    if not counts:
        header = ("r", "LR", "EqLR")
        rows = [(r, len(enumerate_rays(r, args.s, "LR")), len(eq))
                for r, eq in eqs.items()]
    else:
        header = ("r", "rays", "hilbert")
        rows = [(r, len(eq),
                 len(hilbert_basis_bounded(r, args.s, "EqLR", bounds[r]).points))
                for r, eq in eqs.items()]
    _emit(args, {"which": args.which, "s": args.s, "max_r": args.max_r},
          {"header": list(header), "rows": [list(r) for r in rows]},
          ["\t".join(str(v) for v in row) for row in (header, *rows)])


def cmd_sample(args):
    spectra = [tuple(float(v) for v in block.split(","))
               for block in args.spectra.split(";")]
    samples = sample_spectrum_sum(spectra, args.mode, args.trials, args.seed)
    _emit(args, None, None, [json.dumps(x.to_json()) for x in samples])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lrcone",
        description="Exact computations with Littlewood-Richardson cones")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # the arguments shared between commands, each declared once
    def shared(*flag, **spec):
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument(*flag, **spec)
        return p

    r = shared("--r", type=int, required=True)
    s = shared("--s", type=int, default=3)
    kind = shared("--kind", default="eqlr")
    fmt = shared("--format", choices=("text", "json"), default="text")
    output = shared("--output", default=None)
    extended = shared("--extended", action="store_true",
                      help="lift the r and s ceilings (slow)")

    p = sub.add_parser("horn", parents=[r, s, fmt, output],
                       help="enumerate Horn data")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_horn)

    sub.add_parser("rays", parents=[r, s, kind, fmt, output, extended],
                   help="enumerate extremal rays").set_defaults(func=cmd_rays)

    p = sub.add_parser("facet", parents=[r, s, kind, fmt, output, extended],
                       help="decompose one Horn facet")
    p.add_argument("--I", required=True, help='subsets, e.g. "{2};{2}"')
    p.add_argument("--K", required=True, help='subset, e.g. "{3}"')
    p.set_defaults(func=cmd_facet)

    p = sub.add_parser("member", parents=[kind, fmt, output],
                       help="test cone membership of a point")
    p.add_argument("--point", required=True, help='e.g. "1,1;1,1;2,1"')
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("hilbert", parents=[r, s, kind, fmt, output, extended],
                       help="bounded Hilbert basis search")
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("tables", parents=[s, fmt, output, extended],
                       help="reproduce the small-r count tables")
    p.add_argument("--which", required=True,
                   choices=("ray-counts", "hilbert-counts"))
    p.add_argument("--max-r", type=int, dest="max_r", default=5)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("sample", parents=[output],
                       help="random Hermitian spectrum sampler")
    p.add_argument("--spectra", required=True, help='e.g. "1,0;1,0"')
    p.add_argument("--mode", choices=("equal", "majorized"), default="equal")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
