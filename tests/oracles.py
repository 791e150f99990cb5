"""Independent brute-force reference implementations used only by tests.

Deliberately naive and separate from the package: plain coefficient
lists, fractions instead of integer long division, and power series by
the defining recurrence.  Expected values frozen into the test files
were computed with these.
"""

from fractions import Fraction
from math import comb
from sys import getsizeof


def mul_lists(a, b):
    """Convolution product of two coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def pow_list(a, n):
    out = [1]
    for _ in range(n):
        out = mul_lists(out, a)
    return out


def divmod_fractions(num, den):
    """Long division over the rationals; returns (quotient, remainder)."""
    num = [Fraction(x) for x in num]
    den = [Fraction(x) for x in den]
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    r = list(num)
    while len(r) >= len(den) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(den):
            break
        shift = len(r) - len(den)
        c = r[-1] / den[-1]
        q[shift] += c
        for i, d in enumerate(den):
            r[shift + i] -= c * d
    while r and r[-1] == 0:
        r.pop()
    return q, r


def one_minus_tk(k):
    return [1] + [0] * (k - 1) + [-1]


def factored_to_num_den(factors):
    """Multiply out a {k: exponent} map into numerator and denominator lists."""
    num, den = [1], [1]
    for k, e in sorted(factors.items()):
        block = pow_list(one_minus_tk(k), abs(e))
        if e > 0:
            num = mul_lists(num, block)
        elif e < 0:
            den = mul_lists(den, block)
    return num, den


def series_quotient(num, den, order):
    """First order+1 coefficients of num/den by the defining recurrence."""
    num = list(num) + [0] * (order + 1)
    coeffs = []
    d0 = Fraction(den[0])
    for k in range(order + 1):
        acc = Fraction(num[k])
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * coeffs[k - j]
        coeffs.append(acc / d0)
    return coeffs


def factored_series(factors, order):
    """Series of prod (1-t^k)^{e_k} through t^order, as exact integers."""
    num, den = factored_to_num_den(factors)
    vals = series_quotient(num, den, order)
    assert all(v.denominator == 1 for v in vals)
    return [int(v) for v in vals]


def gaussian_binomial(n, k):
    """Quantum binomial via the subset-sum generating function.

    Coefficient of t^m counts k-subsets of {0..n-1} with element sum
    m + k(k-1)/2; completely independent of any division routine.
    """
    from itertools import combinations

    if k < 0 or k > n:
        return []
    base = k * (k - 1) // 2
    out = [0] * (k * (n - k) + 1)
    for subset in combinations(range(n), k):
        out[sum(subset) - base] += 1
    return out


def binomial(n, k):
    return comb(n, k)


def memo_bytes(memo):
    """The package memo's bytes by sys.getsizeof, counted afresh from its
    entries.  A root system, under its LieType: the key, the (Cartan
    matrix, coefficient bytes, height bytes) triple, the matrix and its
    rows, and the two bytes objects.  A series list: its key tuple and
    (k, e) pairs, the list and its coefficients.  An expansion: its
    1-tuple key, the terms and their pairs, the (answer, work) pair, the
    answer, an IntPoly's coefficient tuple, and each distinct int object
    once."""
    total = 0
    for key, kept in memo.items():
        if hasattr(key, "family"):
            cartan, coeffs, heights = kept
            total += getsizeof(key) + getsizeof(kept) + getsizeof(cartan)
            total += sum(map(getsizeof, cartan)) + getsizeof(coeffs) + getsizeof(heights)
        elif type(kept) is list:
            total += getsizeof(key) + sum(map(getsizeof, key)) + getsizeof(kept) + sum(map(getsizeof, kept))
        else:
            (terms,), (answer, work) = key, kept
            total += getsizeof(key) + getsizeof(terms) + sum(map(getsizeof, terms))
            total += getsizeof(kept) + getsizeof(answer)
            if hasattr(answer, "coeffs"):
                total += getsizeof(answer.coeffs)
                ints = [work, *answer.coeffs]
            else:
                ints = [work, answer.remainder_degree]
            total += sum(getsizeof(a) for a in {id(a): a for a in ints}.values())
    return total
