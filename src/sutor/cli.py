"""Command-line interface: compute, polytope, check, gen, batch, version.

Exit codes: 0 success/pass, 1 usage or I/O error, 2 blocking validation
diagnostics, 3 unsupported structure (torsion in H where a polytope is
needed).  Every error ends as one `error:` line on stderr; the commands
raise, and `main` is the one place that picks the exit code.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from typing import List, Optional, Sequence

from . import __version__, families
from . import engine as E
from . import groupring as GR
from . import polytope as P
from .groupring import GroupRingElement, UnsupportedStructureError


def _color_enabled() -> bool:
    if os.environ.get("SUTOR_COLOR", "") == "0":
        return False
    return sys.stdout.isatty()


def _mark(ok: bool) -> str:
    word = "PASS" if ok else "FAIL"
    if _color_enabled():
        return f"\x1b[32m{word}\x1b[0m" if ok else f"\x1b[31m{word}\x1b[0m"
    return word


def free_var_names(result: E.TorsionResult) -> List[str]:
    H = result.H
    if H.rank == 1:
        return ["t"]
    if not result.input.relators and len(result.input.alphabet) == H.rank:
        return [g.name for g in result.input.alphabet]
    return [f"t{i + 1}" for i in range(H.rank)]


def format_element(p: GroupRingElement, names: Sequence[str]) -> str:
    """p's terms in (free, tor) order, each factor string made one
    coordinate row at a time: names[i] for free coordinate i, si for
    torsion coordinate i, a power when the exponent is not 1."""
    rows, coeffs = GR.sorted_columns(p)
    if not coeffs:
        return "0"
    rank = p.group.rank
    named = list(zip(names, rows[:rank])) + [(f"s{i + 1}", row)
                                             for i, row in enumerate(rows[rank:])]
    factors = [[name if e == 1 else f"{name}^{e}" if e else "" for e in row]
               for name, row in named]
    parts = []
    for fs, c in zip(zip(*factors) if factors else itertools.repeat(()), coeffs):
        mono, coeff = " ".join(filter(None, fs)), abs(c)
        body = f"{coeff} {mono}" if coeff != 1 and mono else mono or str(coeff)
        parts.append(("+ " if c > 0 else "- ") + body)
    parts[0] = ("" if coeffs[0] > 0 else "-") + parts[0][2:]
    return " ".join(parts)


def _read_json(path: str):
    """The JSON value in a file, or on stdin for `-`."""
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _compute(path: str) -> E.TorsionResult:
    return E.torsion(E.input_from_dict(_read_json(path)))


def cmd_compute(args) -> int:
    result = _compute(args.path)
    if args.json:
        print(_report_json(result))
    else:
        print(f"input: {result.input.name or args.path}")
        print(f"H1(M): {result.H.describe()}")
        if not result.input.claimed_irreducible:
            print("note: irreducibility not asserted; det(A) reported as-is")
        print(f"tau ~ {format_element(result.tau, free_var_names(result))}")
    return 0


def _indented(value, depth: int) -> str:
    """json.dumps(value, indent=2, sort_keys=True) as it reads nested at the
    depth: a JSON text holds no raw newline inside a string, so each newline
    takes the depth's indent."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


def _report_json(result: E.TorsionResult) -> str:
    """The run report (H, the evaluation and augmentation checks, the
    input's name and to_records(tau)) as json.dumps(report, indent=2,
    sort_keys=True) writes it.  The pure-Python encoder that indent forces
    took three times as long as the rest of compute on a 200,001-term tau,
    so the terms are written from sorted_columns through one %-template per
    term, and only the few other values go through json.dumps."""
    inp, tau = result.input, result.tau
    ev = E.evaluation_check(inp, result)
    au = E.augmentation_order_check(inp, result)
    G, (rows, coeffs) = tau.group, GR.sorted_columns(tau)

    def ints(n: int) -> str:  # a list of n ints at depth 4
        return "[\n          " + ",\n          ".join(["%d"] * n) + "\n        ]" if n else "[]"

    term = ('{\n        "coeff": %d,\n        "free": ' + ints(G.rank)
            + ',\n        "tor": ' + ints(len(G.torsion)) + "\n      }")
    terms = ("[\n      " + ",\n      ".join([term % t for t in zip(coeffs, *rows)])
             + "\n    ]" if coeffs else "[]")
    H = {"rank": result.H.rank, "torsion": list(result.H.torsion)}
    checks = {"evaluation": ev.passed, "augmentation_order": au.passed}
    group = {"rank": G.rank, "torsion": list(G.torsion)}
    return (f'{{\n  "H": {_indented(H, 1)},\n  "checks": {_indented(checks, 1)},\n'
            f'  "name": {json.dumps(inp.name)},\n'
            f'  "tau": {{\n    "group": {_indented(group, 2)},\n    "terms": {terms}\n  }}\n}}')


def _covector(alpha: str, dim: int) -> tuple:
    """Parse an --alpha value: dim comma-separated integers."""
    try:
        vec = tuple(int(x) for x in alpha.split(","))
    except ValueError:
        raise ValueError(f"--alpha {alpha!r} is not comma-separated integers") from None
    if len(vec) != dim:
        raise ValueError(f"--alpha {alpha!r} has {len(vec)} entries; H1(M) has rank {dim}")
    return vec


def cmd_polytope(args) -> int:
    S = P.support(_compute(args.path).tau)
    if not S.points:
        raise UnsupportedStructureError("tau is 0, so it has no support polytope")
    covectors = [(alpha, _covector(alpha, S.dim)) for alpha in args.alpha or []]
    svg = P.to_svg(S) if args.svg else None  # refuses dimension > 2 before any output
    verts = P.vertices(S)
    print(f"support: {len(S.points)} points in dimension {S.dim}")
    print("hull vertices: " + " ".join(str(v) for v in verts))
    for alpha, vec in covectors:
        print(f"width[{alpha}] = {P.width(S, vec)}")
    sym = P.is_centrally_symmetric(S)
    print(f"centrally symmetric: {'yes' if sym else 'no'}")
    if args.diff:
        dverts = P.difference_polytope(S)
        print(f"difference polytope: {len(dverts)} vertices: "
              + " ".join(str(v) for v in dverts))
    if args.tsv:
        with open(args.tsv, "w", encoding="utf-8") as fh:
            fh.write(P.to_tsv(S))
        print(f"wrote {args.tsv}")
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
        print(f"wrote {args.svg}")
    return 0


def _load_tau_or_input(path: str):
    """A path (or `-`) may hold a SuturedInput or a serialized group-ring
    element."""
    obj = _read_json(path)
    if isinstance(obj, dict) and "terms" in obj and "group" in obj:
        return GR.from_records(obj), None
    inp = E.input_from_dict(obj)
    result = E.torsion(inp)
    return result.raw_det, result


def cmd_check(args) -> int:
    if args.disk is not None and args.disk < 1:
        raise ValueError(f"--disk needs P_MAX >= 1, got {args.disk}")
    tau, result = _load_tau_or_input(args.path)
    if (args.eval or args.aug) and result is None:
        raise ValueError("--eval/--aug need a presentation input")
    # the disk report first: an input it refuses ends the command before any
    # verdict is printed
    report = None if args.disk is None else P.disk_obstruction_report(tau, args.disk)
    all_ok = True
    ran_any = False
    if args.eval:
        ran_any = True
        ev = E.evaluation_check(result.input, result)
        all_ok &= ev.passed
        print(f"{_mark(ev.passed)} eval: G = {ev.G.describe()}, "
              f"p_*(tau) {'=' if ev.passed else '!='} +-I_G")
    if args.aug:
        ran_any = True
        au = E.augmentation_order_check(result.input, result)
        all_ok &= au.passed
        print(f"{_mark(au.passed)} aug: |eps(tau)| = {au.aug}, |G| = {au.ord}")
    if report is not None:
        ran_any = True
        verdict = "OBSTRUCTED" if report.obstructed else "NOT OBSTRUCTED"
        cap_note = (f"p capped at {report.effective_cap} by degree span"
                    if report.effective_cap < report.p_max
                    else f"p searched up to {report.effective_cap}")
        print(f"disk decomposition: {verdict} ({cap_note})")
        for c in report.candidates:
            if c.single_match is not None:
                print(f"  {c.label}: matches solid torus p = {c.single_match}")
            elif c.product_match is not None:
                print(f"  {c.label}: matches product p = {c.product_match}")
            else:
                print(f"  {c.label}: no solid-torus match")
    if not ran_any:
        raise ValueError("no checks requested (use --eval/--aug/--disk)")
    return 0 if all_ok else 1


_FAMILIES = {
    "solid-torus": (1, lambda p: families.solid_torus(p)),
    "pretzel-odd": (3, lambda r, s, t: families.pretzel_odd(r, s, t)),
    "pretzel-even": (3, lambda r, s, t: families.pretzel_even(r, s, t)),
    "cantwell-conlon": (0, lambda: families.cantwell_conlon()),
    "trefoil": (0, lambda: families.wirtinger_knot(families.TREFOIL_PD)),
    "figure-eight": (0, lambda: families.wirtinger_knot(families.FIGURE_EIGHT_PD)),
    "unknot3": (0, lambda: families.wirtinger_knot(families.UNKNOT3_PD)),
}


def cmd_gen(args) -> int:
    if args.family not in _FAMILIES:
        raise ValueError(f"unknown family {args.family!r}; known: "
                         + ", ".join(sorted(_FAMILIES)))
    arity, fn = _FAMILIES[args.family]
    if len(args.params) != arity:
        raise ValueError(f"family {args.family} takes {arity} parameter(s)")
    inp = fn(*[int(x) for x in args.params])
    print(json.dumps(E.input_to_dict(inp), indent=2, sort_keys=True))
    return 0


def _manifest_entries(manifest) -> list:
    """The entries of a manifest (a list, or an object with an "entries"
    list), each a path string or an object with a string "path"."""
    entries = manifest.get("entries") if isinstance(manifest, dict) else manifest
    if not isinstance(entries, list):
        raise ValueError('manifest must be a list or an object with an "entries" list')
    for i, entry in enumerate(entries):
        if isinstance(entry, str):
            continue
        if not isinstance(entry, dict) or not isinstance(entry.get("path"), str):
            raise ValueError(f'manifest entry {i} is not a path or an object with a "path"')
    return entries


def _batch_entry(base: str, entry) -> str:
    if isinstance(entry, str):
        entry = {"path": entry}
    path = entry["path"]
    if not os.path.isabs(path):
        path = os.path.join(base, path)
    label = entry.get("name") or entry["path"]
    try:
        result = _compute(path)
        expected = (GR.normalize(GR.from_records(entry["expected_tau"]))
                    if "expected_tau" in entry else None)
    except Exception as exc:  # per-entry failure must not kill the batch
        return f"FAIL {label}: {exc}"
    ev = E.evaluation_check(result.input, result)
    au = E.augmentation_order_check(result.input, result)
    ok = ev.passed and au.passed
    note = f"eval={'ok' if ev.passed else 'FAIL'} aug={'ok' if au.passed else 'FAIL'}"
    if expected is not None:
        match = GR.equal(result.tau, expected)
        ok &= match
        note += f" expected={'ok' if match else 'MISMATCH'}"
    names = free_var_names(result)
    status = "PASS" if ok else "FAIL"
    return f"{status} {label}: tau ~ {format_element(result.tau, names)} [{note}]"


def cmd_batch(args) -> int:
    entries = _manifest_entries(_read_json(args.manifest))
    base = os.path.dirname(os.path.abspath(args.manifest))
    lines = [_batch_entry(base, e) for e in entries]
    failed = 0
    for line in lines:
        print(line)
        if line.startswith("FAIL"):
            failed += 1
    print(f"{len(entries) - failed}/{len(entries)} passed")
    return 0 if failed == 0 else 1


class _Parser(argparse.ArgumentParser):
    """Exits 1 on an argument-parser usage error, like every other usage
    error; 2 is kept for blocking validation diagnostics.  add_subparsers
    builds the subcommand parsers with this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="sutor", description=__doc__)
    sub = ap.add_subparsers(dest="command")

    p = sub.add_parser("compute", help="compute the torsion of an input file")
    p.add_argument("path", help="SuturedInput JSON file, or - for stdin")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("polytope", help="support polytope analysis")
    p.add_argument("path")
    p.add_argument("--alpha", action="append",
                   help="comma-separated covector, e.g. 1,0,0 (repeatable)")
    p.add_argument("--diff", action="store_true", help="print the difference polytope")
    p.add_argument("--svg", help="write an SVG plot (dim <= 2)")
    p.add_argument("--tsv", help="write the support as TSV")
    p.set_defaults(fn=cmd_polytope)

    p = sub.add_parser("check", help="run torsion identity checks")
    p.add_argument("path", help="input file or serialized tau")
    p.add_argument("--eval", action="store_true", help="evaluation identity")
    p.add_argument("--aug", action="store_true", help="augmentation vs group order")
    p.add_argument("--disk", type=int, metavar="P_MAX",
                   help="disk-decomposability obstruction up to P_MAX")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("gen", help="emit a builtin fixture")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("batch", help="run a manifest of inputs")
    p.add_argument("manifest")
    p.add_argument("--parallel", type=int, default=1,
                   help="accepted and ignored: entries always run in order, in one process")
    p.set_defaults(fn=cmd_batch)

    p = sub.add_parser("version", help="print the version")
    p.set_defaults(fn=lambda args: (print(f"sutor {__version__}"), 0)[1])
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reuses: build_parser() runs once per process, and
    parse_args leaves the parser as it was."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    if not getattr(args, "fn", None):
        ap.print_help()
        return 1
    try:
        return args.fn(args)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        print(f"error: {exc}", file=sys.stderr)
        return (2 if isinstance(exc, E.ValidationError)
                else 3 if isinstance(exc, UnsupportedStructureError) else 1)


if __name__ == "__main__":
    sys.exit(main())
