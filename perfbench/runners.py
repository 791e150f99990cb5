"""Request execution against the package, and the check of each answer.

`run(request)` is the only code inside the timed region: it calls the
package and returns an answer made of plain tuples, lists and ints.
`check(request, answer)` runs afterwards, untimed, and compares the
answer with the independent expectations in checks.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import checks
from checks import (
    check_mult,
    check_pairing,
    check_polynomial,
    check_root_info,
    cominuscule_orbits,
    root_product_exps,
    type111_exps,
    type111_value,
    type12_exps,
    type12_value,
    type_n_exps,
    type_n_value,
)
from higgsmult import chain, cli, hecke, multgl, multsimple, rootsys
from higgsmult.errors import UnstableResultError
from higgsmult.polyalg import IntPoly


def mult_answer(result) -> tuple:
    poly = result.polynomial
    coeffs = poly.coeffs if isinstance(poly, IntPoly) else ("NotPolynomial", poly.remainder_degree)
    return tuple(tuple(p) for p in result.factored), coeffs


def plain_chain(c) -> dict:
    """Chain fields read by attribute, so the check does not lean on
    the package's own serializer."""
    return {
        "genus": c.genus,
        "degrees": list(c.degrees),
        "delta0": {p.label: m for p, m in c.delta0.multiplicities},
        "zeros": [{p.label: m for p, m in d.multiplicities} for d in c.zero_divisors],
    }


class Runner:
    """Runs requests; holds the chain files that cli_mix refers to as
    "@i": their generating data and the paths they were written to."""

    def __init__(self, chain_files: list[dict] = (), chain_paths: list[str] = ()) -> None:
        self.chain_files = list(chain_files)
        self.chain_paths = list(chain_paths)

    # ------------------------------------------------------------- run

    def run(self, request):
        return getattr(self, "_run_" + request[0])(*request[1:])

    def _run_type_n(self, g, n):
        return mult_answer(multgl.mult_type_n(g, n))

    def _run_type12(self, g, w):
        return mult_answer(multgl.mult_type12_rank3(g, w))

    def _run_mdiv(self, g, w):
        m = multgl.mult_type12_rank3(g, w)
        return mult_answer(m), multgl.master_divisibility(m, g, 3)

    def _run_pair(self, g, n, order, a, b):
        sides = []
        for spec in (a, b):
            if spec == "n":
                sides.append(multgl.mult_type_n(g, n))
            else:
                sides.append(multgl.mult_type111(chain.chain_from_m(g, spec)))
        series = multgl.euler_pairing_series(sides[0], sides[1], g, n, order)
        return mult_answer(sides[0]), mult_answer(sides[1]), series.coeffs

    def _run_chain(self, g, m, top, i, j, k, enum):
        c = chain.chain_from_m(g, m, top_degree=top)
        mult = mult_answer(multgl.mult_type111(c))
        js = chain.chain_to_json(c)
        c2 = chain.chain_from_json(json.loads(json.dumps(js)))
        very = chain.is_very_stable(c2)
        point = f"z{i}.{j}"
        removed = hecke.hecke_remove_zero(c2, i, point)
        back = plain_chain(hecke.hecke_add_zero(removed, len(m) + 1 - i, point))
        try:
            fresh = plain_chain(hecke.hecke_add_zero(c, k, "q"))
        except UnstableResultError:
            fresh = "unstable"
        count = hecke.intersection_count(c)
        points = len(hecke.intersection_enumerate(c)) if enum else None
        return mult, js, very, back, fresh, count, points

    def _run_roots(self, fam, l, query, arg):
        r = rootsys.build(rootsys.LieType(fam, l))
        n_roots = len(r.positive_roots)
        if query == "info":
            return (
                n_roots,
                rootsys.degrees(r).degrees,
                rootsys.levi_degrees(r, arg).degrees,
                tuple(sorted(rootsys.cominuscule_nodes(r))),
            )
        if query == "gross":
            return n_roots, multsimple.gross_check(r, arg), mult_answer(multsimple.mult_cominuscule(r, arg))
        roots = tuple(root.coeffs for root in r.positive_roots)
        if query == "mult":
            return n_roots, roots, mult_answer(multsimple.mult_simple(r, arg))
        report = multsimple.polynomiality_scan(r, arg)
        entries = tuple(
            (e.m, e.result.coeffs if e.is_polynomial else ("NotPolynomial", e.result.remainder_degree))
            for e in report.entries
        )
        return n_roots, roots, entries

    def _run_cli(self, argv, expected, tag, params):
        argv = [self.chain_paths[int(a[1:])] if a.startswith("@") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue()

    # ----------------------------------------------------------- canonical

    def canonical(self, request, answer):
        """The answer with run-dependent fields removed, for comparing
        the traced run with the untraced one."""
        if request[0] != "cli":
            return answer
        code, text = answer
        if code != 0:
            return code, text
        report = json.loads(text)
        report.pop("elapsed_ms", None)
        return code, report

    # ---------------------------------------------------------------- check

    def check(self, request, answer) -> str | None:
        return getattr(self, "_check_" + request[0])(*request[1:], answer=answer)

    def _check_type_n(self, g, n, answer):
        return check_mult(answer, type_n_exps(g, n), type_n_value(g, n))

    def _check_type12(self, g, w, answer):
        return check_mult(answer, type12_exps(g, w), type12_value(g, w) if w <= g - 1 else None)

    def _check_mdiv(self, g, w, answer):
        mult, divides = answer
        if divides is not True:
            return "type (1,2) component does not divide the type (3) master"
        return check_mult(mult, type12_exps(g, w), type12_value(g, w))

    def _check_side(self, spec, g, n, answer):
        if spec == "n":
            return check_mult(answer, type_n_exps(g, n), type_n_value(g, n))
        return check_mult(answer, type111_exps(n, spec), type111_value(n, spec))

    def _check_pair(self, g, n, order, a, b, answer):
        side_a, side_b, series = answer
        return (
            self._check_side(a, g, n, side_a)
            or self._check_side(b, g, n, side_b)
            or check_pairing(series, side_a[1], side_b[1], g, n, order)
        )

    def _check_chain(self, g, m, top, i, j, k, enum, answer):
        mult, js, very, back, fresh, count, points = answer
        n = len(m) + 1
        bad = check_mult(mult, type111_exps(n, m), type111_value(n, m))
        if bad:
            return bad
        expected = checks.chain_json(g, m, top)
        if js != expected:
            return f"chain JSON {js} differs from {expected}"
        if very is not True:
            return "a chain with fresh simple zeros is very stable"
        if back != checks.twisted(expected, f"z{i}.{j}"):
            return "remove then add is not the twist by -p"
        added = checks.added_zero(expected, k, "q")
        if fresh != (added if checks.stable(added["degrees"]) else "unstable"):
            return f"adding a fresh zero with k={k} gave {fresh}"
        value = type111_value(n, m)
        if count != value:
            return f"intersection count {count}, expected {value}"
        if enum and points != value:
            return f"enumeration has {points} points, expected {value}"
        return None

    def _check_roots(self, fam, l, query, arg, answer):
        n_roots = answer[0]
        if n_roots != checks.positive_root_count(fam, l):
            return f"{fam}{l}: {n_roots} positive roots"
        if query == "info":
            return check_root_info(fam, l, arg, answer)
        if query == "gross":
            _, ok, mult = answer
            size = cominuscule_orbits(fam, l)[arg]
            if ok is not True:
                return f"{fam}{l} node {arg}: gross check failed"
            if sum(mult[1]) != size:
                return f"{fam}{l} node {arg}: cominuscule m(1) {sum(mult[1])}, orbit {size}"
            return check_polynomial(mult[1], {k: e for k, e in mult[0]})
        roots = answer[1]
        if query == "mult":
            value = checks.known_root_product_value(fam, l, arg)
            return check_mult(answer[2], root_product_exps(roots, arg), value)
        entries = answer[2]
        grid = [tuple(m) for m, _ in entries]
        if len(grid) != (arg + 1) ** l or grid != sorted(grid) or any(max(m) > arg for m in grid):
            return f"{fam}{l} scan grid is not the full lexicographic grid"
        polynomial = 0
        for m, result in entries:
            exps = root_product_exps(roots, m)
            bad = checks.check_expansion(result, exps, checks.known_root_product_value(fam, l, m))
            if bad:
                return f"scan entry {m}: {bad}"
            polynomial += not (isinstance(result, tuple) and result[:1] == ("NotPolynomial",))
        if fam == "G" and polynomial != 1:
            return f"G2 scan has {polynomial} polynomial entries, expected 1"
        return None

    def _check_cli(self, argv, expected, tag, params, answer):
        code, text = answer
        if code != expected:
            return f"{' '.join(argv)}: exit {code}, expected {expected}"
        if expected != 0:
            return None if text == "" else "a refused request printed a report"
        result = json.loads(text)["result"]
        return checks.cli_result_check(tag, params, result, self.chain_files)


def write_chain_files(files: list[dict], directory: str) -> list[str]:
    paths = []
    for i, f in enumerate(files):
        js = checks.chain_json(f["g"], f["m"], f["top"])
        if f["kind"] == "repeated":
            js["zeros"] = [{"p": 2}] + [{"q": 1}] * (len(f["m"]) - 1)
        path = os.path.join(directory, f"chain{i}.json")
        with open(path, "w") as fh:
            json.dump(js, fh)
        paths.append(path)
    return paths
