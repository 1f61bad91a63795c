"""The four workloads.

Each workload solves a case from its JSON input text with the public calls a
user of `sutor` makes (`solve`), composes the same pipeline stage by stage
inside spans for the traced run (`solve_traced`), and checks an answer
against the oracles in `verify` (`check`).
"""
from __future__ import annotations

import contextlib
import io
import json
import os
from typing import Dict, List

from sutor import cli
from sutor import engine as E
from sutor import groupring as GR
from sutor import polytope as P
from sutor.abelian import INFINITE, AbElement, AbelianGroup, abelianize, order
from sutor.fox import fox_matrix

from . import corpus, verify


def torsion_traced(d: dict, tr):
    """engine.torsion, one span per stage; also returns the Fox matrix."""
    inp = tr.call("engine.input_from_dict", E.input_from_dict, d)
    diags = tr.call("engine.validate", E.validate, inp)
    blocking = [x for x in diags if x.blocking]
    if blocking:
        raise E.ValidationError(blocking)
    for x in diags:
        if x.code == "REDUCTION" and x.repaired is not None:
            inp = x.repaired
    ab = tr.call("abelian.abelianize", abelianize, inp.alphabet, inp.relators)
    A = tr.call("fox.fox_matrix", fox_matrix, inp.alphabet,
                list(inp.relators) + list(inp.rminus), ab)
    raw = tr.call("groupring.determinant", GR.determinant, A)
    tau = tr.call("groupring.normalize", GR.normalize, raw)
    return E.TorsionResult(ab.group, ab.gen_images, tau, raw, ab, inp), A


def _same_torsion(a: E.TorsionResult, b: E.TorsionResult) -> bool:
    return (a.H == b.H and a.gen_map == b.gen_map and GR.equal(a.raw_det, b.raw_det)
            and GR.equal(a.tau, b.tau))


def _g_order(ev) -> int:
    o = order(ev.G)
    return 0 if o is INFINITE else o


def _torsion_counts(out) -> Dict[str, int]:
    """Sizes of one traced torsion: Fox matrix, determinant and |G|."""
    A = out["A"]
    entries = [e for row in A.entries for e in row]
    c = {"fox.dim": A.rows, "fox.nnz": sum(1 for e in entries if e.terms),
         "fox.terms": sum(len(e.terms) for e in entries),
         "groupring.det_terms": len(out["res"].raw_det.terms)}
    if "ev" in out:
        c["abelian.G_order"] = _g_order(out["ev"])
    return c


class Torsion:
    """knots and surfaces: torsion plus the evaluation and augmentation checks."""

    def __init__(self, name: str, seed: int, workdir: str, nproc: int):
        self.name = name
        self.cases = corpus.build(name, seed)

    def solve(self, case):
        inp = E.input_from_dict(json.loads(case.text))
        res = E.torsion(inp)
        return {"res": res, "ev": E.evaluation_check(inp, res),
                "au": E.augmentation_order_check(inp, res)}

    reference = solve   # the untraced solve the traced run is compared with

    def solve_traced(self, case, tr):
        res, A = torsion_traced(json.loads(case.text), tr)
        return {"res": res, "A": A,
                "ev": tr.call("engine.evaluation_check", E.evaluation_check, res.input, res),
                "au": tr.call("engine.augmentation_order_check",
                              E.augmentation_order_check, res.input, res)}

    def same(self, a, b) -> bool:
        return _same_torsion(a["res"], b["res"]) and a["ev"] == b["ev"] and a["au"] == b["au"]

    def check(self, case, out) -> List[str]:
        return verify.check_torsion(case.family, case.params, case.oracle,
                                    out["res"], out["ev"], out["au"])

    def sizes(self, out) -> Dict[str, int]:
        return {"terms": len(out["res"].tau.terms), "G_order": _g_order(out["ev"])}

    def counts(self, out) -> Dict[str, int]:
        return _torsion_counts(out)


class Polytope(Torsion):
    """The `sutor polytope --diff` and `sutor check --disk` paths."""

    def _polytope(self, case, res, call):
        S = call("polytope.support", P.support, res.tau)
        out = {"res": res, "S": S,
               "V": call("polytope.vertices", P.vertices, S),
               "sym": call("polytope.is_centrally_symmetric", P.is_centrally_symmetric, S),
               "D": call("polytope.difference_polytope", P.difference_polytope, S),
               "disk": None}
        if S.dim == 1:
            out["disk"] = call("polytope.disk_obstruction_report", P.disk_obstruction_report,
                               res.tau, case.params["disk_cap"])
        return out

    def solve(self, case):
        res = E.torsion(E.input_from_dict(json.loads(case.text)))
        return self._polytope(case, res, lambda _name, fn, *args: fn(*args))

    reference = solve

    def solve_traced(self, case, tr):
        res, A = torsion_traced(json.loads(case.text), tr)
        return dict(self._polytope(case, res, tr.call), A=A)

    def same(self, a, b) -> bool:
        return _same_torsion(a["res"], b["res"]) and all(
            a[k] == b[k] for k in ("S", "V", "sym", "D", "disk"))

    def check(self, case, out) -> List[str]:
        res = out["res"]
        errs = verify.check_torsion(case.family, case.params, case.oracle, res,
                                    E.evaluation_check(res.input, res),
                                    E.augmentation_order_check(res.input, res))
        points = verify.free_terms(res.tau)
        if out["S"].points != points or out["S"].dim != res.H.rank:
            errs.append("support differs from the torsion's terms")
        return errs + verify.check_polytope(case.params, case.family, {
            "points": points, "dim": res.H.rank, "vertices": out["V"],
            "symmetric": out["sym"], "difference": out["D"], "disk": out["disk"]})

    def sizes(self, out) -> Dict[str, int]:
        return {"terms": len(out["res"].tau.terms)}

    def counts(self, out) -> Dict[str, int]:
        pts = list(out["S"].points)
        c = dict(_torsion_counts(out), **{
            "polytope.points": len(pts),
            "polytope.vertex_count": len(out["V"]),
            "polytope.diff_points": len({tuple(a - b for a, b in zip(x, y))
                                         for x in pts for y in pts}),
            "polytope.diff_vertices": len(out["D"])})
        if out["disk"] is not None:
            c["polytope.disk_cap"] = out["disk"].effective_cap
        return c


def _entry_lines(lines: List[str]) -> List[str]:
    return [ln for ln in lines if ln.startswith(("PASS ", "FAIL "))]


class Batch:
    """`sutor batch <manifest> --parallel <nproc>`; one manifest per case."""

    def __init__(self, name: str, seed: int, workdir: str, nproc: int):
        self.name = name
        self.cases = corpus.build(name, seed)
        self.nproc = nproc
        self.paths: Dict[int, str] = {}
        expected: Dict[str, dict] = {}    # by entry label; one input file each
        for case in self.cases:
            entries = []
            for e in json.loads(case.text):
                label = "_".join([e["family"]] + [str(v) for _, v in sorted(e["params"].items())])
                if label not in expected:
                    expected[label] = self._expected(e)
                    with open(os.path.join(workdir, f"{label}.json"), "w", encoding="utf-8") as fh:
                        fh.write(e["text"])
                entries.append({"path": f"{label}.json", "name": label,
                                "expected_tau": expected[label]})
            self.paths[case.cid] = os.path.join(workdir, f"manifest{case.cid}.json")
            with open(self.paths[case.cid], "w", encoding="utf-8") as fh:
                json.dump({"entries": entries}, fh, sort_keys=True)

    def _expected(self, entry: dict) -> dict:
        inp = E.input_from_dict(json.loads(entry["text"]))
        gen_map = abelianize(inp.alphabet, inp.relators).gen_images
        poly = verify.expected_tau(entry["family"], entry["params"],
                                   corpus.ORACLE[entry["family"]], gen_map)
        rank = len(gen_map[0].free)
        G = AbelianGroup(rank, ())
        return GR.to_records(GR.element(G, {AbElement(e, ()): c for e, c in poly.items()}))

    def solve(self, case, parallel: int = 0):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["batch", self.paths[case.cid],
                           "--parallel", str(parallel or self.nproc)])
        return {"rc": rc, "lines": buf.getvalue().splitlines()}

    def reference(self, case):
        return self.solve(case, 1)

    def solve_traced(self, case, tr):
        """main, cmd_batch and _batch_entry of the CLI at --parallel 1,
        composed from public calls."""
        args = cli.build_parser().parse_args(["batch", self.paths[case.cid], "--parallel", "1"])
        with open(args.manifest, "r", encoding="utf-8") as fh:
            entries = json.load(fh)["entries"]
        buf = io.StringIO()
        failed = 0
        parts = []      # for the counts, taken after the timed region
        with contextlib.redirect_stdout(buf):
            for entry in entries:
                with open(os.path.join(os.path.dirname(args.manifest), entry["path"]), "r",
                          encoding="utf-8") as fh:
                    res, A = torsion_traced(json.load(fh), tr)
                ev = tr.call("engine.evaluation_check", E.evaluation_check, res.input, res)
                au = tr.call("engine.augmentation_order_check", E.augmentation_order_check,
                             res.input, res)
                parts.append({"res": res, "A": A, "ev": ev})
                expected = tr.call("groupring.normalize", GR.normalize,
                                   GR.from_records(entry["expected_tau"]))
                match = GR.equal(res.tau, expected)
                ok = ev.passed and au.passed and match
                failed += not ok
                note = (f"eval={'ok' if ev.passed else 'FAIL'} aug={'ok' if au.passed else 'FAIL'}"
                        f" expected={'ok' if match else 'MISMATCH'}")
                text = tr.call("cli.format_element", cli.format_element, res.tau,
                               cli.free_var_names(res))
                print(f"{'PASS' if ok else 'FAIL'} {entry['name']}: tau ~ {text} [{note}]")
            print(f"{len(entries) - failed}/{len(entries)} passed")
        return {"rc": 1 if failed else 0, "lines": buf.getvalue().splitlines(), "parts": parts}

    def same(self, a, b) -> bool:
        return a["rc"] == b["rc"] and _entry_lines(a["lines"]) == _entry_lines(b["lines"])

    def check(self, case, out) -> List[str]:
        lines = _entry_lines(out["lines"])
        n = case.sizes["entries"]
        errs = [] if out["rc"] == 0 else [f"exit code {out['rc']}"]
        if len(lines) != n or f"{n}/{n} passed" not in out["lines"]:
            errs.append("wrong number of entries reported")
        errs += [ln for ln in lines if not (ln.startswith("PASS ") and ln.endswith("expected=ok]"))]
        return errs

    def sizes(self, out) -> Dict[str, int]:
        return {}

    def counts(self, out) -> Dict[str, int]:
        total: Dict[str, int] = {}
        for part in out["parts"]:
            for key, v in _torsion_counts(part).items():
                total[key] = total.get(key, 0) + v
        return total


CLASSES = {"knots": Torsion, "surfaces": Torsion, "polytope": Polytope, "batch": Batch}


def make(name: str, seed: int, workdir: str, nproc: int):
    """The workload `name`; `batch` runs the CLI at --parallel nproc."""
    return CLASSES[name](name, seed, workdir, nproc)
