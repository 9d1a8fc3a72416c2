"""Command-line entry point and batch verification harness.

Reports are JSON lines on standard output (one claim per line); a human
summary goes to standard error.  Exit codes: 0 all claims hold, 1 a checked
inequality failed (an implementation bug, never expected), 2 usage or
format error, or a guard refusing a single input, 3 internal oracle
disagreement, 4 unexpected internal error (traceback on standard error).
A batch run (``--count``) checks its seeds in order, in this one process,
and counts a refused instance as skipped instead.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from fractions import Fraction

from . import helly as helly_mod
from . import icss as icss_mod
from . import io_json
from .core import ComplexError, GuardExceeded
from .homology import reduced_betti, unreduced_betti
from .leray import (DEFAULT_DEFINITION_CAP, leray_by_definition,
                    leray_by_links)
from .multiproj import (check_intersection_bound, check_mps_vanishing,
                        check_projection_theorem, extremal_example,
                        fiber_bound, multiple_point_complex, project,
                        random_complex, random_partitioned_complex)
from .rng import CounterRng

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2
EXIT_DISAGREEMENT = 3
EXIT_INTERNAL = 4


def _jsonable(value):
    if isinstance(value, Fraction):
        return io_json._rational_str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    return value


def _emit(report, started=None):
    if started is not None:
        report = dict(report)
        report["timing_ms"] = round(1000 * (time.monotonic() - started), 3)
    sys.stdout.write(json.dumps(_jsonable(report), separators=(", ", ": "))
                     + "\n")


def _read_text(path):
    try:
        if path in (None, "-"):
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise io_json.FormatError("cannot read %s: %s"
                                  % (path or "stdin", exc)) from None


# -- seeded instances -----------------------------------------------------


# the most parts a seeded instance draws (_lproj_instance; _hmps_instances
# draws at most 3), so the least --max-vertices that leaves no part empty
_MAX_PARTS = 4


def _lproj_instance(seed, max_vertices=12):
    rng = CounterRng(seed)
    m = 2 + rng.randint(_MAX_PARTS - 1)
    sizes = [1 + rng.randint(3) for _ in range(m)]
    while sum(sizes) > max_vertices:
        sizes[sizes.index(max(sizes))] -= 1
    dim = 1 + rng.randint(2)
    density = 0.2 + 0.6 * rng.uniform()
    return random_partitioned_complex(m, sizes, dim, density, seed * 1000 + 17)


def _hmps_instances(seed, max_vertices=8):
    rng = CounterRng(seed)
    m = 2 + rng.randint(2)
    sizes = [1 + rng.randint(2) for _ in range(m)]
    while sum(sizes) > max_vertices:
        sizes[sizes.index(max(sizes))] -= 1
    k = 2 + rng.randint(2)
    dim = 1 + rng.randint(2)
    out = []
    for j in range(k):
        density = 0.3 + 0.5 * rng.uniform()
        out.append(random_partitioned_complex(m, sizes, dim, density,
                                              seed * 1000 + j))
    return out


def _inter_instances(seed, max_vertices=9):
    rng = CounterRng(seed)
    n = min(5 + rng.randint(5), max_vertices)
    dim = 1 + rng.randint(2)
    return [random_complex(n, dim, 0.2 + 0.6 * rng.uniform(),
                           seed * 1000 + j) for j in range(2)]


def _hl_instance(seed):
    rng = CounterRng(seed)
    d = 1 + rng.randint(2)
    count = 4 + rng.randint(3)
    members = {"B%d" % i: helly_mod._random_box(rng, d)
               for i in range(count)}
    return helly_mod.BoxFamily(d, members)


# -- batch harness --------------------------------------------------------


# the claim a batch report names when a guard refuses an instance
_SKIP_CLAIMS = {"lproj": "projection_bound", "hmps": "mps_vanishing",
                "inter": "intersection_bound", "icss": "e1_euler_consistency"}


def _run_check_instance(kind, seed, args):
    """One seeded instance of a batch check; returns a list of reports.
    A guard refusal adds a skipped report after any that were made."""
    reports = []
    try:
        if kind == "lproj":
            px = _lproj_instance(seed, args.max_vertices)
            reports.append(check_projection_theorem(px, args.guard))
        elif kind == "hmps":
            pxs = _hmps_instances(seed, min(args.max_vertices, 8))
            reports.append(check_mps_vanishing(pxs, guard=args.guard))
        elif kind == "inter":
            reports.append(check_intersection_bound(
                _inter_instances(seed, args.max_vertices), guard=args.guard))
        elif kind == "hl":
            reports.append(helly_mod.check_hl(_hl_instance(seed)))
        elif kind == "amenta":
            # refuse an over-cap family before drawing it
            helly_mod._check_cap(range(args.groups), helly_mod.MEMBER_CAP)
            fr = helly_mod.random_fr_family(args.d, args.groups, args.r, seed)
            reports.append(helly_mod.check_amenta(fr))
        elif kind == "icss":
            guard = args.guard
            px = _lproj_instance(seed, args.max_vertices)
            reports.append(icss_mod.check_euler(px, guard=guard))
            reports.append(icss_mod.check_proof_vanishing(px, guard=guard))
            M2 = multiple_point_complex(px, 2, guard=guard)
            reports.append(icss_mod.check_alt_chain_iso(M2, guard=guard))
        else:
            raise ComplexError("unknown check kind %r" % (kind,))
    except GuardExceeded as exc:
        reports.append({"claim": _SKIP_CLAIMS.get(kind, kind),
                        "skipped": True, "reason": str(exc), "holds": True})
    for rep in reports:
        rep["instance"] = {"kind": kind, "seed": seed}
    return reports


def _run_batch(kind, args):
    """Check seeds ``args.seed`` to ``args.seed + args.count - 1`` in order,
    emitting every report, then summarize the instances by outcome: held,
    skipped (a guard refused it) and failed.  Returns the exit code."""
    counts = {"held": 0, "skipped": 0, "failed": 0}
    for seed in range(args.seed, args.seed + args.count):
        reports = _run_check_instance(kind, seed, args)
        for rep in reports:
            _emit(rep)
        if not all(rep.get("holds", False) for rep in reports):
            counts["failed"] += 1
        elif any(rep.get("skipped") for rep in reports):
            counts["skipped"] += 1
        else:
            counts["held"] += 1
    print("checked %d seeded instances of %s: %d held, %d skipped (guard), "
          "%d failed" % (args.count, kind, counts["held"], counts["skipped"],
                         counts["failed"]), file=sys.stderr)
    return EXIT_CLAIM_FAILED if counts["failed"] else EXIT_OK


# -- subcommands ----------------------------------------------------------


def _cmd_homology(args):
    X = io_json.complex_from_json(_read_text(args.file))
    rb = reduced_betti(X, guard=args.guard)
    _emit({"reduced": list(rb.reduced), "euler": rb.euler})
    print("reduced Betti %s, euler %d" % (list(rb.reduced), rb.euler),
          file=sys.stderr)
    return EXIT_OK


def _cmd_leray(args):
    X = io_json.complex_from_json(_read_text(args.file))
    started = time.monotonic()
    certs = []
    if args.method in ("definition", "both"):
        certs.append(leray_by_definition(X, cap=args.cap, guard=args.guard))
    if args.method in ("links", "both"):
        certs.append(leray_by_links(X, guard=args.guard))
    values = sorted({c.value for c in certs})
    report = {"command": "leray",
              "methods": [{"method": c.method, "value": c.value,
                           "witness": c.witness} for c in certs],
              "value": certs[-1].value,
              "agree": len(values) == 1}
    _emit(report, started)
    print("L = %s (%s)" % (values, args.method), file=sys.stderr)
    return EXIT_OK if report["agree"] else EXIT_DISAGREEMENT


def _cmd_project(args):
    px = io_json.partitioned_from_json(_read_text(args.file))
    Y = project(px)
    r, witness = fiber_bound(px)
    _emit({"command": "project", "fiber_bound": r, "fiber_witness": witness,
           "image_facets": sorted(Y.facets)})
    sys.stdout.write(io_json.complex_to_json(Y))
    return EXIT_OK


def _cmd_mps(args):
    px = io_json.partitioned_from_json(_read_text(args.file))
    M = multiple_point_complex(px, args.k, guard=args.guard)
    rb = reduced_betti(M.complex, guard=args.guard)
    _emit({"command": "mps", "k": args.k,
           "vertices": M.complex.vertex_count,
           "reduced": list(rb.reduced), "euler": rb.euler})
    return EXIT_OK


def _cmd_icss(args):
    px = io_json.partitioned_from_json(_read_text(args.file))
    started = time.monotonic()
    page = icss_mod.e1_page(px, guard=args.guard)
    euler = icss_mod.check_euler(px, guard=args.guard)
    vanish = icss_mod.check_proof_vanishing(px, guard=args.guard)
    image = unreduced_betti(project(px), guard=args.guard)
    table = [[p, q, n] for (p, q), n in sorted(page.table.items())]
    report = {"command": "icss", "r": page.r, "table": table,
              "image_betti": list(image),
              "extra_column_zero": page.extra_column_zero,
              "euler_consistent": euler["holds"],
              "proof_region_vanishing": vanish["holds"],
              "holds": euler["holds"] and vanish["holds"]}
    _emit(report, started)
    print("E1 page, r=%d: %s" % (page.r, table), file=sys.stderr)
    return EXIT_OK if report["holds"] else EXIT_CLAIM_FAILED


def _cmd_helly(args):
    d, members = io_json.family_from_json(_read_text(args.file))
    family = helly_mod.UnionFamily(d, members)
    report = helly_mod.helly_number(family, cap=args.cap)
    _emit({"command": "helly", "helly": report.helly_number,
           "witness": report.witness, "nerve_leray": report.nerve_leray,
           "bound": report.bound, "holds": report.holds})
    return EXIT_OK if report.holds else EXIT_CLAIM_FAILED


def _cmd_amenta(args):
    if args.count is not None:
        return _run_batch("amenta", args)
    d, members = io_json.family_from_json(_read_text(args.file))
    # refuse an over-cap family before the validation walk
    helly_mod._check_cap(members, helly_mod.MEMBER_CAP)
    pieces = {}
    grouping = []
    for name, boxes in members.items():
        piece_names = []
        for i, box in enumerate(boxes):
            pname = "%s#%d" % (name, i)
            pieces[pname] = box
            piece_names.append(pname)
        grouping.append((name, tuple(piece_names)))
    base = helly_mod.BoxFamily(d, pieces)
    fr = helly_mod.make_fr_family(base, grouping, args.r)
    report = helly_mod.check_amenta(fr)
    _emit(report)
    return EXIT_OK if report["holds"] else EXIT_CLAIM_FAILED


def _cmd_example(args):
    px = extremal_example(args.r, args.d)
    sys.stdout.write(io_json.partitioned_to_json(px))
    return EXIT_OK


def _cmd_check(args):
    if args.count is not None:
        return _run_batch(args.kind, args)
    # single instance from a file or stdin
    text = _read_text(args.file)
    if args.kind == "lproj":
        px = io_json.partitioned_from_json(text)
        report = check_projection_theorem(px, guard=args.guard)
    elif args.kind == "hmps":
        px = io_json.partitioned_from_json(text)
        report = check_mps_vanishing([px, px], guard=args.guard)
    elif args.kind == "inter":
        raise io_json.FormatError(
            "check inter needs --count (it draws random pairs)")
    elif args.kind == "amenta":
        raise io_json.FormatError(
            "check amenta needs --count; for a family file use "
            "leraytop amenta FILE")
    elif args.kind == "icss":
        px = io_json.partitioned_from_json(text)
        report = icss_mod.check_euler(px, guard=args.guard)
    elif args.kind == "hl":
        d, members = io_json.family_from_json(text)
        report = helly_mod.check_hl(helly_mod.UnionFamily(d, members))
    else:
        raise io_json.FormatError("unknown check kind %r" % (args.kind,))
    report["instance"] = {"kind": args.kind, "source": args.file or "stdin"}
    _emit(report)
    print("%s: %s" % (report["claim"],
                      "holds" if report["holds"] else "FAILURE"),
          file=sys.stderr)
    return EXIT_OK if report["holds"] else EXIT_CLAIM_FAILED


def _nonnegative_int(text):
    """argparse type of a guard or a count: a nonnegative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            "expected a nonnegative integer, got %r" % text)
    return int(text)


def _positive_int(text):
    """argparse type of a batch size (``--r``, ``--d``, ``--groups``)."""
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(
            "expected a positive integer, got %r" % text)
    return int(text)


def _max_vertices(text):
    """argparse type of ``--max-vertices``: room for one vertex in each of
    the parts a seeded instance may draw."""
    n = _nonnegative_int(text)
    if n < _MAX_PARTS:
        raise argparse.ArgumentTypeError(
            "expected at least %d (one vertex per part), got %r"
            % (_MAX_PARTS, text))
    return n


def build_parser():
    parser = argparse.ArgumentParser(
        prog="leraytop",
        description="Exact verification of Leray-number inequalities, "
                    "multiple-point vanishing and Helly bounds at desk "
                    "scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, guard=True):
        p.add_argument("file", nargs="?", default=None,
                       help="input JSON file ('-' or omitted: stdin)")
        if guard:
            p.add_argument("--guard", type=_nonnegative_int, default=200000,
                           help="simplex-count guard (default %(default)s)")

    def add_batch(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--count", type=_nonnegative_int, default=None)
        p.add_argument("--r", type=_positive_int, default=2)
        p.add_argument("--d", type=_positive_int, default=1)
        p.add_argument("--groups", type=_positive_int, default=5)

    p = sub.add_parser("homology", help="reduced Betti numbers of a complex")
    add_common(p)
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("leray", help="rational Leray number")
    add_common(p)
    p.add_argument("--method", choices=["definition", "links", "both"],
                   default="links")
    p.add_argument("--cap", type=int, default=DEFAULT_DEFINITION_CAP,
                   help="vertex cap for the definition method")
    p.set_defaults(func=_cmd_leray)

    p = sub.add_parser("project", help="image of a partitioned complex")
    add_common(p, guard=False)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("mps", help="Betti numbers of a multiple-point complex")
    add_common(p)
    p.add_argument("-k", type=int, default=2)
    p.set_defaults(func=_cmd_mps)

    p = sub.add_parser("icss", help="E1 page and its consistency checks")
    add_common(p)
    p.set_defaults(func=_cmd_icss)

    p = sub.add_parser("helly", help="Helly number of a box family")
    add_common(p, guard=False)
    p.add_argument("--cap", type=int, default=helly_mod.MEMBER_CAP,
                   help="member cap for subfamily enumeration")
    p.set_defaults(func=_cmd_helly)

    p = sub.add_parser("amenta", help="the r(d+1) Helly bound on grouped "
                                      "families")
    add_common(p, guard=False)
    add_batch(p)
    p.set_defaults(func=_cmd_amenta)

    p = sub.add_parser("check", help="batch verification of an inequality")
    p.add_argument("kind", choices=["lproj", "hmps", "inter", "hl", "icss",
                                    "amenta"])
    add_common(p)
    add_batch(p)
    p.add_argument("--max-vertices", type=_max_vertices, default=12)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("example", help="emit the tight projection-bound "
                                       "instance for given (r, d)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_example)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        # argparse gives ``check KIND`` its optional file before any option
        # that follows, so a file after the options comes back unparsed
        if (len(extra) == 1 and getattr(args, "file", "") is None
                and (extra[0] == "-" or not extra[0].startswith("-"))):
            args.file = extra.pop()
        if extra:
            parser.error("unrecognized arguments: %s" % " ".join(extra))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (io_json.FormatError, helly_mod.FamilyError, ComplexError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        # not a verdict on the input: keep exit 1 for a failed inequality
        traceback.print_exc()
        return EXIT_INTERNAL


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
