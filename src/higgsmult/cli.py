"""Command-line surface for the toolkit.

Every subcommand prints a single JSON report on standard output:

    {"schema": 1, "command": ..., "inputs": ..., "result": ...,
     "elapsed_ms": ..., "version": ...}

with sorted keys, so reports are byte-stable for identical inputs and
version apart from the timing field.  Counts and evaluations at t = 1 are
serialized as decimal strings (they outgrow 53-bit JSON consumers fast);
coefficient arrays stay native integers.  The arrays are the package's own
tuples, which `json` writes as arrays, so a report copies none of them.
``--format text`` prints the same result as aligned ``key = value`` lines
instead of the envelope.

Exit codes: 0 success, 2 domain error, 3 resource limit, 64 usage, 70
internal error (a broken invariant, i.e. a bug; EX_SOFTWARE).  Codes 2, 3
and 70 come with a one-line message on standard error.
Simple-root nodes use Bourbaki numbering throughout.

A call is mostly start-up, so each subcommand handler imports the package
modules it uses when it runs: `rootinfo` loads only `rootsys`, and
`mult gl --type n` never loads the root-system or Hecke modules.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .errors import DomainError, InternalError, ResourceLimitError, check_digits


class _UsageError(Exception):
    """Flag combinations the grammar cannot express; maps to exit 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _m_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _move(text: str) -> tuple[str, int, str]:
    parts = text.split(":")
    if len(parts) != 3 or parts[0] not in ("remove", "add") or not parts[2]:
        raise argparse.ArgumentTypeError(
            f"expected remove:INDEX:POINT or add:INDEX:POINT, got {text!r}"
        )
    try:
        index = int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"move index must be an integer, got {parts[1]!r}")
    return parts[0], index, parts[2]


def _load_chain(path: str):
    from .chain import chain_from_json

    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise DomainError(f"cannot read chain file {path}: {exc}")
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # too deep, or an int past str's digit limit
        raise DomainError(f"chain file {path} is not valid JSON: {exc}")
    return chain_from_json(data)


def _mult_payload(result) -> dict:
    """The report fields of a polyalg.MultResult.  A polynomial's series is
    admitted first, so the series cap's refusal comes before any other;
    its value at 1, read off the factored form, passes `check_digits`
    before the expansion runs, and its largest coefficient after."""
    from .polyalg import admit_expansion

    payload: dict = {"factored": result.factored.terms}
    if result.is_polynomial:
        admit_expansion(result.factored)
        value = result.value_at_1
        check_digits("the value at 1", value)
        coeffs = result.polynomial.coeffs
        check_digits("the largest coefficient", max(map(abs, coeffs)))
        payload["polynomial"] = coeffs
        payload["value"] = str(value)
    else:
        payload["polynomial"] = None
        payload["remainder_degree"] = result.polynomial.remainder_degree
    return payload


def _cmd_mult_gl(ns) -> tuple[dict, dict]:
    from .chain import chain_from_m
    from .multgl import mult_type12_rank3, mult_type111, mult_type_n

    inputs: dict = {"type": ns.fixed_type}
    if ns.fixed_type == "n":
        if ns.g is None or ns.n is None:
            raise _UsageError("--type n needs --g and --n")
        inputs["g"] = ns.g
        inputs["n"] = ns.n
        result = mult_type_n(ns.g, ns.n)
    elif ns.fixed_type == "111":
        if ns.chain_file is not None and ns.m is not None:
            raise _UsageError("--chain-file and --m are mutually exclusive")
        if ns.chain_file is not None:
            chain = _load_chain(ns.chain_file)
            if ns.g is not None and ns.g != chain.genus:
                raise DomainError(f"--g {ns.g} contradicts chain file genus {chain.genus}")
            inputs["chain_file"] = ns.chain_file
            inputs["g"] = chain.genus
        elif ns.m is not None:
            if ns.g is None:
                raise _UsageError("--type 111 with --m needs --g")
            inputs["g"] = ns.g
            inputs["m"] = ns.m
            inputs["top_degree"] = ns.top_degree
            chain = chain_from_m(ns.g, ns.m, top_degree=ns.top_degree)
        else:
            raise _UsageError("--type 111 needs --chain-file or --m")
        result = mult_type111(chain)
    else:  # "12"
        if ns.g is None or ns.w is None:
            raise _UsageError("--type 12 needs --g and --w")
        inputs["g"] = ns.g
        inputs["w"] = ns.w
        result = mult_type12_rank3(ns.g, ns.w)
    return inputs, _mult_payload(result)


def _cmd_mult_simple(ns) -> tuple[dict, dict]:
    from .multsimple import mult_simple
    from .rootsys import LieType, build

    lie_type = LieType(ns.type, ns.rank)
    inputs = {"type": ns.type, "rank": ns.rank, "m": ns.m}
    result = _mult_payload(mult_simple(build(lie_type), ns.m))
    result["numbering"] = "bourbaki"
    return inputs, result


def _cmd_classify(ns) -> tuple[dict, dict]:
    from .chain import stability

    chain = _load_chain(ns.chain_file)
    inputs = {"chain_file": ns.chain_file}
    verdict = stability(chain)
    return inputs, {
        "very_stable": verdict.very_stable,
        "stable": verdict.stable,
        "reason": verdict.reason,
    }


def _cmd_hecke(ns) -> tuple[dict, dict]:
    from .chain import chain_to_json
    from .hecke import apply_move

    chain = _load_chain(ns.chain_file)
    inputs = {
        "chain_file": ns.chain_file,
        "moves": [f"{op}:{index}:{label}" for op, index, label in ns.move],
    }
    for op, index, label in ns.move:
        chain = apply_move(chain, op, index, label)
    return inputs, {"chain": chain_to_json(chain), "moves_applied": len(ns.move)}


def _cmd_rootinfo(ns) -> tuple[dict, dict]:
    from .rootsys import LieType, build, cominuscule_nodes, degrees, height_histogram

    system = build(LieType(ns.type, ns.rank))
    inputs = {"type": ns.type, "rank": ns.rank}
    d = degrees(system)
    result = {
        "type": str(system.lie_type),
        "rank": system.rank,
        "numbering": "bourbaki",
        "positive_roots": [root.coeffs for root in system.positive_roots],
        "height_histogram": list(height_histogram(system).items()),
        "degrees": d,
        "weyl_order": str(d.weyl_order),
        "cominuscule_nodes": sorted(cominuscule_nodes(system)),
    }
    return inputs, result


def _cmd_scan(ns) -> tuple[dict, dict]:
    from .multsimple import SCAN_CAP, polynomiality_scan
    from .rootsys import LieType, build

    cap = SCAN_CAP if ns.cap is None else ns.cap
    system = build(LieType(ns.type, ns.rank))
    inputs = {"type": ns.type, "rank": ns.rank, "bound": ns.bound, "cap": cap}
    report = polynomiality_scan(system, ns.bound, cap=cap)
    entries = [
        {"m": entry.m, "polynomial": entry.result.coeffs if entry.is_polynomial else None}
        for entry in report.entries
    ]
    result = {
        "type": str(system.lie_type),
        "bound": report.bound,
        "numbering": "bourbaki",
        "entries": entries,
        "polynomial_count": report.polynomial_count,
        "non_polynomial_count": report.non_polynomial_count,
    }
    return inputs, result


def _pair_side(label: str, selector: str, g: int, n: int):
    """The polyalg.MultResult of one side of a pairing."""
    from .chain import chain_from_m
    from .multgl import mult_type111, mult_type_n

    if selector == "n":
        return mult_type_n(g, n)
    m = _m_vector(selector)
    if len(m) != n - 1:
        raise DomainError(f"--{label} m-vector needs {n - 1} entries for n = {n}")
    result = mult_type111(chain_from_m(g, m))
    if not result.is_polynomial:
        raise DomainError(f"--{label} multiplicity is not a polynomial")
    return result


def _cmd_pair(ns) -> tuple[dict, dict]:
    from .multgl import euler_pairing_series

    inputs = {"g": ns.g, "n": ns.n, "order": ns.order, "a": ns.a, "b": ns.b}
    try:
        side_a = _pair_side("a", ns.a, ns.g, ns.n)
        side_b = _pair_side("b", ns.b, ns.g, ns.n)
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(str(exc))
    series = euler_pairing_series(side_a, side_b, ns.g, ns.n, ns.order)
    check_digits("the largest series coefficient", max(map(abs, series.coeffs)))
    return inputs, {"order": ns.order, "series": series.coeffs}


def _cmd_count(ns) -> tuple[dict, dict]:
    from .hecke import ENUMERATION_CAP, intersection_count, intersection_enumerate

    cap = ENUMERATION_CAP if ns.cap is None else ns.cap
    chain = _load_chain(ns.chain_file)
    inputs = {"chain_file": ns.chain_file, "enumerate": ns.enumerate, "cap": cap}
    result: dict = {"count": str(intersection_count(chain))}
    if ns.enumerate:
        result["points"] = list(intersection_enumerate(chain, cap=cap))
    return inputs, result


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")

    parser = _Parser(
        prog="higgsmult",
        description="Exact multiplicities of nilpotent cone components "
        "(simple-root nodes use Bourbaki numbering).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    mult = sub.add_parser("mult", help="virtual multiplicities")
    mult_sub = mult.add_subparsers(dest="subcommand", required=True)

    gl = mult_sub.add_parser("gl", parents=[common], help="GL fixed-point types")
    gl.add_argument("--type", dest="fixed_type", required=True, choices=("n", "111", "12"))
    gl.add_argument("--g", type=int, help="genus (not needed with --chain-file)")
    gl.add_argument("--n", type=int, help="rank (with --type n)")
    gl.add_argument("--m", type=_m_vector, help="zero counts m_1,..,m_{n-1} (with --type 111)")
    gl.add_argument("--top-degree", type=int, default=0, help="degree of the top line bundle")
    gl.add_argument("--chain-file", help="chain JSON (with --type 111)")
    gl.add_argument("--w", type=int, help="value of 2l-v (with --type 12)")
    gl.set_defaults(handler=_cmd_mult_gl, command_path="mult gl")

    simple = mult_sub.add_parser("simple", parents=[common], help="simple structure groups")
    simple.add_argument("--type", required=True, help="family letter A..G")
    simple.add_argument("--rank", type=int, required=True)
    simple.add_argument("--m", type=_m_vector, required=True, help="zero counts, one per node")
    simple.set_defaults(handler=_cmd_mult_simple, command_path="mult simple")

    classify = sub.add_parser("classify", parents=[common], help="very-stability verdict")
    classify.add_argument("--chain-file", required=True)
    classify.set_defaults(handler=_cmd_classify, command_path="classify")

    hecke = sub.add_parser("hecke", parents=[common], help="apply Hecke moves")
    hecke.add_argument("--chain-file", required=True)
    hecke.add_argument(
        "--move", type=_move, action="append", required=True, help="remove:I:P or add:K:P"
    )
    hecke.set_defaults(handler=_cmd_hecke, command_path="hecke")

    rootinfo = sub.add_parser("rootinfo", parents=[common], help="root-system data")
    rootinfo.add_argument("--type", required=True, help="family letter A..G")
    rootinfo.add_argument("--rank", type=int, required=True)
    rootinfo.set_defaults(handler=_cmd_rootinfo, command_path="rootinfo")

    scan = sub.add_parser("scan", parents=[common], help="polynomiality scan over m grids")
    scan.add_argument("--type", required=True, help="family letter A..G")
    scan.add_argument("--rank", type=int, required=True)
    scan.add_argument("--bound", type=int, required=True)
    scan.add_argument("--cap", type=int)  # default multsimple.SCAN_CAP
    scan.set_defaults(handler=_cmd_scan, command_path="scan")

    pair = sub.add_parser("pair", parents=[common], help="Euler pairing series")
    pair.add_argument("--g", type=int, required=True)
    pair.add_argument("--n", type=int, required=True)
    pair.add_argument("--order", type=int, required=True)
    pair.add_argument("--a", required=True, help="'n' or an m-vector like 1,0,2")
    pair.add_argument("--b", required=True, help="'n' or an m-vector like 1,0,2")
    pair.set_defaults(handler=_cmd_pair, command_path="pair")

    count = sub.add_parser("count", parents=[common], help="upward-flow intersection counts")
    count.add_argument("--chain-file", required=True)
    count.add_argument("--enumerate", action="store_true")
    count.add_argument("--cap", type=int)  # default hecke.ENUMERATION_CAP
    count.set_defaults(handler=_cmd_count, command_path="count")

    return parser


def _emit(fmt: str, command: str, inputs: dict, result: dict, elapsed_ms: int) -> None:
    if fmt == "json":
        report = {
            "schema": 1,
            "command": command,
            "inputs": inputs,
            "result": result,
            "elapsed_ms": elapsed_ms,
            "version": __version__,
        }
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
        return
    width = max(len(key) for key in result)
    print(f"command: {command}")
    for key in sorted(result):
        print(f"{key:<{width}} = {json.dumps(result[key], sort_keys=True)}")


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        start = time.perf_counter()
        inputs, result = ns.handler(ns)
        elapsed_ms = int((time.perf_counter() - start) * 1000)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except (ResourceLimitError, DomainError, InternalError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, ResourceLimitError):
            return 3
        return 2 if isinstance(exc, DomainError) else 70
    _emit(ns.format, ns.command_path, inputs, result, elapsed_ms)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
