"""Answer checks for the benchmark, written without the package.

Every function here uses the standard library only.  Expected values
come from closed forms (multiplicities at t = 1, quantum-binomial
exponents, classical root-system tables) or from arithmetic modulo the
prime 2^61 - 1 done by a different method than the package uses:
evaluation at fixed points, and division by one (1 - t^k) factor at a
time.  A check returns None when the answer is right and a short
message naming the first mismatch otherwise.
"""

from __future__ import annotations

from math import comb, prod

P = (1 << 61) - 1
POINTS = (3, 7)


# ---------------------------------------------------------------- exponents


def add_exp(exps: dict[int, int], k: int, e: int) -> None:
    exps[k] = exps.get(k, 0) + e
    if exps[k] == 0:
        del exps[k]


def type_n_exps(g: int, n: int) -> dict[int, int]:
    """prod_{i=2..n} [i]_t^{(2i-1)(g-1)} as (1 - t^k) exponents."""
    exps: dict[int, int] = {}
    for i in range(2, n + 1):
        e = (2 * i - 1) * (g - 1)
        add_exp(exps, i, e)
        add_exp(exps, 1, -e)
    return exps


def qbinom_exps(n: int, i: int, times: int, exps: dict[int, int]) -> None:
    for j in range(1, i + 1):
        add_exp(exps, n - j + 1, times)
        add_exp(exps, j, -times)


def type111_exps(n: int, m) -> dict[int, int]:
    """prod_i qbinom(n, i)^{m_i}."""
    exps: dict[int, int] = {}
    for i, mi in enumerate(m, start=1):
        if mi:
            qbinom_exps(n, i, mi, exps)
    return exps


def type12_exps(g: int, w: int) -> dict[int, int]:
    """(1+t)^(g-1-w) (1+t+t^2)^(5g-5)."""
    exps: dict[int, int] = {}
    add_exp(exps, 2, g - 1 - w)
    add_exp(exps, 3, 5 * g - 5)
    add_exp(exps, 1, -(g - 1 - w) - (5 * g - 5))
    return exps


def root_product_exps(roots, m) -> dict[int, int]:
    """prod over nodes i and positive roots a of
    ((1 - t^(h+1)) / (1 - t^h))^(m_i c_i(a))."""
    exps: dict[int, int] = {}
    for coeffs in roots:
        h = sum(coeffs)
        w = sum(mi * c for mi, c in zip(m, coeffs))
        if w:
            add_exp(exps, h + 1, w)
            add_exp(exps, h, -w)
    return exps


def hitchin_base(g: int, n: int) -> dict[int, int]:
    dims = {1: g}
    for k in range(2, n + 1):
        dims[k] = (2 * k - 1) * (g - 1)
    return dims


def sorted_pairs(exps: dict[int, int]) -> list[list[int]]:
    return [[k, e] for k, e in sorted(exps.items())]


# ------------------------------------------------------ polynomial checks


def eval_mod(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % P
    return acc


def factored_eval_mod(exps: dict[int, int], x: int) -> int:
    out = 1
    for k, e in exps.items():
        out = out * pow((1 - pow(x, k, P)) % P, e, P) % P
    return out


def check_polynomial(coeffs, exps: dict[int, int]) -> str | None:
    """coeffs is prod (1 - t^k)^{e_k}: monic, palindromic, of degree
    sum k e_k, and equal to the product at two points mod P."""
    if not coeffs:
        return "zero polynomial"
    if coeffs[0] != 1:
        return f"constant term {coeffs[0]}, expected 1"
    if list(coeffs) != list(coeffs)[::-1]:
        return "not palindromic"
    degree = sum(k * e for k, e in exps.items())
    if len(coeffs) - 1 != degree:
        return f"degree {len(coeffs) - 1}, expected {degree}"
    for x in POINTS:
        if eval_mod(coeffs, x) != factored_eval_mod(exps, x):
            return f"value at t={x} mod 2^61-1 disagrees with the product"
    return None


def divides_mod_p(exps: dict[int, int]) -> bool:
    """Whether prod (1 - t^k)^{e_k} is a polynomial.

    Builds the numerator mod P and divides by one (1 - t^k) at a time;
    each step is exact exactly when the full division is, because every
    factor has leading coefficient -1.
    """
    c = [1]
    for k, e in exps.items():
        for _ in range(max(e, 0)):
            c = c + [0] * k
            for i in range(len(c) - 1, k - 1, -1):
                c[i] = (c[i] - c[i - k]) % P
    for k, e in exps.items():
        for _ in range(max(-e, 0)):
            d = len(c) - 1
            if d < k:
                return False
            q = [0] * (d + 1)
            for i in range(d + 1):
                q[i] = (c[i] + (q[i - k] if i >= k else 0)) % P
            if any(q[d - k + 1:]):
                return False
            c = q[: d - k + 1]
    return True


def expand_exact(exps: dict[int, int]) -> list[int]:
    """Integer coefficients of a product known to be a polynomial, by
    multiplying and then dividing one (1 - t^k) factor at a time."""
    c = [1]
    for k, e in exps.items():
        for _ in range(max(e, 0)):
            c = c + [0] * k
            for i in range(len(c) - 1, k - 1, -1):
                c[i] -= c[i - k]
    for k, e in exps.items():
        for _ in range(max(-e, 0)):
            for i in range(k, len(c)):
                c[i] += c[i - k]
            c = c[: len(c) - k]
    return c


def denominator_degree(exps: dict[int, int]) -> int:
    return sum(-k * e for k, e in exps.items() if e < 0)


def check_mult(answer, exps: dict[int, int], value: int | None = None) -> str | None:
    """answer = (factored pairs, coeffs or ("NotPolynomial", remainder degree))."""
    factored, poly = answer
    if [list(p) for p in factored] != sorted_pairs(exps):
        return f"factored form {factored} differs from {sorted_pairs(exps)}"
    return check_expansion(poly, exps, value)


def check_expansion(poly, exps: dict[int, int], value: int | None = None) -> str | None:
    """poly is the expansion of prod (1 - t^k)^{e_k}: its coefficients, or
    ("NotPolynomial", remainder degree) exactly when the division is
    inexact.  A known m(1) `value` implies a polynomial."""
    expected_poly = divides_mod_p(exps) if value is None else True
    if isinstance(poly, tuple) and poly and poly[0] == "NotPolynomial":
        if expected_poly:
            return "reported NotPolynomial for a polynomial"
        if not 0 <= poly[1] < denominator_degree(exps):
            return f"remainder degree {poly[1]} out of range"
        return None
    if not expected_poly:
        return "reported a polynomial where the division is inexact"
    bad = check_polynomial(poly, exps)
    if bad:
        return bad
    if value is not None and sum(poly) != value:
        return f"m(1) = {sum(poly)}, expected {value}"
    return None


# ----------------------------------------------------------- closed forms


def type_n_value(g: int, n: int) -> int:
    return prod(i ** ((2 * i - 1) * (g - 1)) for i in range(2, n + 1))


def type111_value(n: int, m) -> int:
    return prod(comb(n, i) ** mi for i, mi in enumerate(m, start=1))


def type12_value(g: int, w: int) -> int:
    return 2 ** (g - 1 - w) * 3 ** (5 * g - 5)


def truncated_product(a, b, order: int) -> list[int]:
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                out[i + j] += x * y
    return out


def base_numerator(g: int, n: int, order: int) -> list[int]:
    """prod_k (1 - t^k)^{dim_k} of the Hitchin base, truncated."""
    c = [1] + [0] * order
    for k, d in hitchin_base(g, n).items():
        for _ in range(d):
            for i in range(order, k - 1, -1):
                c[i] -= c[i - k]
    return c


def check_pairing(series, a, b, g: int, n: int, order: int) -> str | None:
    """series * base numerator == m_A * m_B through t^order."""
    if len(series) != order + 1:
        return f"series has {len(series)} terms, expected {order + 1}"
    lhs = truncated_product(series, base_numerator(g, n, order), order)
    rhs = truncated_product(a, b, order)
    if lhs != rhs:
        return "series times the base numerator is not m_A * m_B"
    return None


# ----------------------------------------------------------- root systems

EXCEPTIONAL_DEGREES = {
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
    ("F", 4): (2, 6, 8, 12),
    ("G", 2): (2, 6),
}

EXCEPTIONAL_COMINUSCULE = {
    ("E", 6): {1: 27, 6: 27},
    ("E", 7): {7: 56},
    ("E", 8): {},
    ("F", 4): {},
    ("G", 2): {},
}


def positive_root_count(fam: str, l: int) -> int:
    if fam == "A":
        return l * (l + 1) // 2
    if fam in ("B", "C"):
        return l * l
    if fam == "D":
        return l * (l - 1)
    return sum(d - 1 for d in EXCEPTIONAL_DEGREES[fam, l])


def classical_degrees(fam: str, l: int) -> tuple[int, ...]:
    """Invariant degrees; rank 0 is empty and D_2 means A_1 x A_1."""
    if fam == "A":
        return tuple(range(2, l + 2))
    if fam in ("B", "C"):
        return tuple(range(2, 2 * l + 1, 2))
    if fam == "D":
        return tuple(sorted(list(range(2, 2 * l - 1, 2)) + [l]))
    return EXCEPTIONAL_DEGREES[fam, l]


def cominuscule_orbits(fam: str, l: int) -> dict[int, int]:
    """Cominuscule node -> size of the minuscule orbit (= |W / W_P|)."""
    if fam == "A":
        return {i: comb(l + 1, i) for i in range(1, l + 1)}
    if fam == "B":
        return {1: 2 * l}
    if fam == "C":
        return {l: 2 ** l}
    if fam == "D":
        return {1: 2 * l, l - 1: 2 ** (l - 1), l: 2 ** (l - 1)}
    return EXCEPTIONAL_COMINUSCULE[fam, l]


def levi_degrees_expected(fam: str, l: int, i: int) -> tuple[int, ...] | None:
    """Degrees of the Levi from deleting node i, for the classical families."""
    if fam == "A":
        parts = classical_degrees("A", i - 1) + classical_degrees("A", l - i)
    elif fam in ("B", "C"):
        parts = classical_degrees("A", i - 1) + classical_degrees(fam, l - i)
    elif fam == "D":
        if i >= l - 1:
            parts = classical_degrees("A", l - 1)
        else:
            parts = classical_degrees("A", i - 1) + classical_degrees("D", l - i)
    else:
        return None
    return tuple(sorted(parts + (1,)))


def check_root_info(fam, l, node, answer) -> str | None:
    n_roots, degs, levi, comin = answer
    if n_roots != positive_root_count(fam, l):
        return f"{fam}{l}: {n_roots} positive roots, expected {positive_root_count(fam, l)}"
    if tuple(degs) != classical_degrees(fam, l):
        return f"{fam}{l}: degrees {degs}"
    if sum(d - 1 for d in degs) != n_roots:
        return f"{fam}{l}: sum(d_i - 1) != number of positive roots"
    if sorted(comin) != sorted(cominuscule_orbits(fam, l)):
        return f"{fam}{l}: cominuscule nodes {comin}"
    expected = levi_degrees_expected(fam, l, node)
    if len(levi) != l or (expected is not None and tuple(levi) != expected):
        return f"{fam}{l}: Levi degrees at node {node} are {levi}"
    return None


def known_root_product_value(fam, l, m):
    """m(1) when the root product is known to be a polynomial: type A
    (quantum binomials) or support on cominuscule nodes (orbit sizes)."""
    if fam == "A":
        return type111_value(l + 1, m)
    orbits = cominuscule_orbits(fam, l)
    if all(mi == 0 or i in orbits for i, mi in enumerate(m, 1)):
        value = 1
        for i, mi in enumerate(m, 1):
            value *= orbits.get(i, 1) ** mi
        return value
    return None


# ------------------------------------------------------------------ chains


def chain_degrees(g: int, m, top: int) -> list[int]:
    degrees = [top]
    for mi in m:
        degrees.append(degrees[-1] + mi - (2 * g - 2))
    return degrees


def stable(degrees) -> bool:
    n = len(degrees)
    total = sum(degrees)
    return all(n * sum(degrees[j:]) < (n - j) * total for j in range(1, n))


def chain_json(g: int, m, top: int) -> dict:
    degrees = chain_degrees(g, m, top)
    return {
        "genus": g,
        "degrees": degrees,
        "delta0": {"o": degrees[0]} if degrees[0] else {},
        "zeros": [{f"z{i}.{j}": 1 for j in range(1, mi + 1)} for i, mi in enumerate(m, 1)],
    }


def twisted(js: dict, label: str) -> dict:
    delta0 = dict(js["delta0"])
    delta0[label] = delta0.get(label, 0) - 1
    return {
        "genus": js["genus"],
        "degrees": [d - 1 for d in js["degrees"]],
        "delta0": {p: v for p, v in delta0.items() if v},
        "zeros": js["zeros"],
    }


def added_zero(js: dict, k: int, label: str) -> dict:
    n = len(js["degrees"])
    cut = n - k
    delta0 = dict(js["delta0"])
    delta0[label] = delta0.get(label, 0) - 1
    zeros = [dict(z) for z in js["zeros"]]
    zeros[cut - 1][label] = 1
    return {
        "genus": js["genus"],
        "degrees": [d - 1 if j < cut else d for j, d in enumerate(js["degrees"])],
        "delta0": {p: v for p, v in delta0.items() if v},
        "zeros": zeros,
    }


# -------------------------------------------------------------- CLI reports


def _cli_mult(result, exps, value):
    poly = result["polynomial"]
    if poly is None:
        answer = (result["factored"], ("NotPolynomial", result["remainder_degree"]))
    else:
        if result["value"] != str(sum(poly)):
            return "value is not the sum of the coefficients"
        answer = (result["factored"], tuple(poly))
    return check_mult(answer, exps, value)


def cli_result_check(tag, params, result, files) -> str | None:
    """Check the result object of one successful CLI report."""
    if tag == "type_n":
        g, n = params
        return _cli_mult(result, type_n_exps(g, n), type_n_value(g, n))
    if tag in ("type111", "type111_file"):
        if tag == "type111":
            g, m = params
        else:
            m = files[params[0]]["m"]
        return _cli_mult(result, type111_exps(len(m) + 1, m), type111_value(len(m) + 1, m))
    if tag == "type12":
        g, w = params
        return _cli_mult(result, type12_exps(g, w), type12_value(g, w) if w <= g - 1 else None)
    if tag == "simple_a":
        l, m = params
        return _cli_mult(result, type111_exps(l + 1, m), type111_value(l + 1, m))
    if tag == "simple_g2":
        if result["polynomial"] is not None:
            return "G2 multiplicity with nonzero m reported as a polynomial"
        return None
    if tag == "classify":
        kind = files[params[0]]["kind"]
        expected = {
            "fresh": (True, True),
            "repeated": (False, True),
            "unstable": (False, False),
        }[kind]
        if (result["very_stable"], result["stable"]) != expected:
            return f"classify of a {kind} chain gave {result}"
        return None
    if tag == "hecke":
        f = files[params[0]]
        expected = twisted(chain_json(f["g"], f["m"], f["top"]), params[1])
        if result["chain"] != expected or result["moves_applied"] != 2:
            return "hecke remove then add is not the twist by -p"
        return None
    if tag == "rootinfo":
        fam, l = params
        degs = classical_degrees(fam, l)
        if len(result["positive_roots"]) != positive_root_count(fam, l):
            return f"rootinfo {fam}{l}: wrong number of positive roots"
        if tuple(result["degrees"]) != degs or result["weyl_order"] != str(prod(degs)):
            return f"rootinfo {fam}{l}: wrong degrees"
        if result["cominuscule_nodes"] != sorted(cominuscule_orbits(fam, l)):
            return f"rootinfo {fam}{l}: wrong cominuscule nodes"
        return None
    if tag == "scan_g2":
        (b,) = params
        if (result["polynomial_count"], result["non_polynomial_count"]) != (1, (b + 1) ** 2 - 1):
            return "G2 scan must have exactly one polynomial entry"
        return None
    if tag == "pair":
        g, n, order, m = params
        a = expand_exact(type_n_exps(g, n))
        b = expand_exact(type111_exps(n, m))
        return check_pairing(result["series"], a, b, g, n, order)
    if tag == "count":
        f = files[params[0]]
        value = type111_value(len(f["m"]) + 1, f["m"])
        if result["count"] != str(value):
            return f"count {result['count']}, expected {value}"
        if "points" in result and len(result["points"]) != value:
            return "enumeration length differs from the count"
        return None
    return f"unknown check tag {tag}"
