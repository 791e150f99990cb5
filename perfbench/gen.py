"""Seeded, stratified request generation for the four workloads.

A run is a sequence of rounds.  Every round of a workload holds the same
rungs with the same counts; the seed (and the round number) only picks
the inputs inside each rung and the order of the round.  So two seeds
cost about the same, and the same seed always gives the same requests.
A request is a plain tuple whose first entry names its kind; the
package never sees the seed.
"""

from __future__ import annotations

import itertools
import random

from checks import chain_degrees, cominuscule_orbits, stable, type111_value

WORKLOADS = ("gl_master", "chain_sweep", "simple_roots", "cli_mix")


def _rng(workload: str, seed: int, tag: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{tag}")


def rounds(workload: str, seed: int, smoke: bool = False):
    """Yield round 0, 1, 2, ... of a workload; each round is a list."""
    make = {
        "gl_master": _gl_round,
        "chain_sweep": _chain_round,
        "simple_roots": _roots_round,
        "cli_mix": _cli_round,
    }[workload]
    for k in itertools.count():
        rng = _rng(workload, seed, f"round{k}")
        requests = make(rng, smoke, seed)
        rng.shuffle(requests)
        yield requests


def _scaled(count: int, smoke: bool) -> int:
    return min(count, 1) if smoke else count


# ---------------------------------------------------------------- gl_master

# (g, n) ladder for mult_type_n, cheapest first; the top two are left out
# of smoke runs.
GL_LADDER = ((2, 4), (3, 5), (4, 6), (3, 8), (7, 6), (8, 6), (10, 6))
# master_divisibility requests per round, g from 8 to 32.  With these a
# round holds 57 requests: an odd count puts the nearest-rank median in
# the middle of one request's samples, not on the step between two.
MDIV_COUNT = 22


def _pair_m(rng: random.Random, n: int) -> list[int]:
    """An m-vector of fixed quantum-binomial degree sum m_i i(n-i): the
    seed moves weight only between the mirror nodes i and n-i."""
    m = [0] * (n - 1)
    for i in range(1, n // 2 + 1):
        total = 2 if i < n - i else 1
        left = rng.randint(0, total) if i < n - i else total
        m[i - 1] += left
        m[n - i - 1] += total - left
    return m


def _strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """`count` integers in lo..hi, the k-th drawn from the k-th of
    `count` equal slices of the range: the seed moves each value within
    its slice, so the spread of sizes (and of latencies) is the same in
    every round and for every seed."""
    width = (hi - lo + 1) / count
    return [lo + int(k * width + rng.random() * width) for k in range(count)]


def _gl_round(rng: random.Random, smoke: bool, seed: int) -> list:
    """Besides the fixed ladders, every rung draws its sizes from
    stratified ranges, so a percentile does not move with the draw."""
    out: list = []
    for g, n in GL_LADDER[:5] if smoke else GL_LADDER:
        out.append(("type_n", g, n))
    count = _scaled(10, smoke)
    for i, g in enumerate(_strata(rng, 3, 8, count)):
        # half below the wobbly threshold (polynomial), half above it
        w = rng.randint(1, g - 1) if i % 2 == 0 else rng.randint(g, 3 * g - 4)
        out.append(("type12", g, w))
    # A fixed ladder, like type_n's: the round's median latency falls
    # among these requests, and a seeded draw of g (where one step costs
    # 10-15%) would move it from seed to seed.
    for i in range(_scaled(MDIV_COUNT, smoke)):
        out.append(("mdiv", 8 + round(i * 24 / (MDIV_COUNT - 1)), 1 + i % 3))
    for g, n, (lo, hi), count in ((3, 4, (60, 140), 6), (4, 5, (200, 400), 12)):
        for order in _strata(rng, lo, hi, _scaled(count, smoke)):
            out.append(("pair", g, n, order, "n", _pair_m(rng, n)))
    return out


# -------------------------------------------------------------- chain_sweep

CHAIN_RANKS = {2: 20, 3: 30, 4: 40, 5: 40, 6: 40, 7: 30}
SMALL_ENUMERATION = 5000
BIG_ENUMERATION = 972_000


def _big_enumeration_vectors() -> list[tuple[int, ...]]:
    """Rank-6 m-vectors with entries <= 3 and exactly BIG_ENUMERATION
    intersection points, all with the same number of zeros."""
    return [
        m
        for m in itertools.product(range(4), repeat=5)
        if type111_value(6, m) == BIG_ENUMERATION
    ]


def _chain_request(rng, g, m, top, enumerate_all):
    n = len(m) + 1
    i = rng.choice([i for i, mi in enumerate(m, 1) if mi])
    j = rng.randint(1, m[i - 1])
    k = rng.randint(1, n - 1)
    enum = enumerate_all or type111_value(n, m) <= SMALL_ENUMERATION
    return ("chain", g, list(m), top, i, j, k, enum)


def _chain_round(rng: random.Random, smoke: bool, seed: int) -> list:
    out: list = []
    for n, count in CHAIN_RANKS.items():
        for _ in range(_scaled(count, smoke)):
            while True:
                g = rng.randint(2, 5)
                m = [rng.randint(0, 3) for _ in range(n - 1)]
                top = rng.randint(-3, 3)
                if sum(m) and stable(chain_degrees(g, m, top)):
                    break
            out.append(_chain_request(rng, g, m, top, False))
    if not smoke:
        m = list(rng.choice(_big_enumeration_vectors()))
        out.append(_chain_request(rng, rng.randint(3, 5), m, rng.randint(-3, 3), True))
    return out


# ------------------------------------------------------------- simple_roots

SMALL_TYPES = (
    [("A", l) for l in range(1, 13)]
    + [("B", l) for l in range(2, 9)]
    + [("C", l) for l in range(2, 9)]
    + [("D", l) for l in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)
MID_TYPES = (
    [("A", l) for l in range(14, 23)]
    + [(f, l) for f in "BCD" for l in range(10, 17)]
)
# cominuscule (type, node) pairs whose orbit is cheap to walk
GROSS_SMALL = (
    [("A", l, i) for l in range(2, 7) for i in (1, 2, l - 1, l) if 1 <= i <= l]
    + [("B", l, 1) for l in range(3, 7)]
    + [("C", l, l) for l in range(3, 6)]
    + [("D", l, i) for l in range(4, 7) for i in (1, l - 1, l)]
)


def _small_m(rng, fam, l, top):
    """Zero counts on one or two nodes with entries up to `top`: any
    nodes in type A and in rank <= 4, otherwise cominuscule nodes (a
    polynomial) or arbitrary nodes, half of the time each."""
    comin = sorted(cominuscule_orbits(fam, l))
    nodes = comin if comin and fam != "A" and l > 4 and rng.random() < 0.5 else range(1, l + 1)
    m = [0] * l
    for node in rng.sample(list(nodes), min(len(nodes), rng.randint(1, 2))):
        m[node - 1] = rng.randint(1, top)
    return m


def _info(rng, fam, l, nodes=None):
    return ("roots", fam, l, "info", rng.choice(nodes or range(1, l + 1)))


def _each(rng: random.Random, items, times: int, smoke: bool) -> list:
    """Every item `times` times (one random item in a smoke run), so the
    mix of sizes is the same in every round and for every seed."""
    return [rng.choice(items)] if smoke else [item for _ in range(times) for item in items]


def _roots_round(rng: random.Random, smoke: bool, seed: int) -> list:
    """Every type of each list appears a fixed number of times; the seed
    picks the node or the m-vector of each request."""
    out: list = []
    for fam, l in _each(rng, SMALL_TYPES, 2, smoke):
        out.append(_info(rng, fam, l))
    for fam, l in _each(rng, SMALL_TYPES, 2, smoke):
        out.append(("roots", fam, l, "mult", _small_m(rng, fam, l, 2)))
    for fam, l, node in _each(rng, GROSS_SMALL, 1, smoke):
        out.append(("roots", fam, l, "gross", node))
    for fam, l in _each(rng, MID_TYPES, 1, smoke):
        out.append(_info(rng, fam, l))
        out.append(("roots", fam, l, "mult", _small_m(rng, fam, l, 1)))
    out.append(("roots", "E", 6, "gross", rng.choice((1, 6))))
    out.append(("roots", "E", 7, "gross", 7))
    for bound in range(2, 5 if smoke else 9):
        out.append(("roots", "G", 2, "scan", bound))
    if not smoke:
        out.append(("roots", "E", 6, "scan", 1))
        # Levi of a middle node: deleting node 1 of A_l rebuilds A_{l-1}
        out.append(_info(rng, "A", 40, range(18, 23)))
        out.append(_info(rng, "A", 60, range(28, 33)))
    return out


# ------------------------------------------------------------------ cli_mix


SMALL_FILE_COUNT = 200


def chain_files(seed: int) -> list[dict]:
    """Chain JSON objects written once per run: very stable chains
    (fresh zeros) with at most SMALL_FILE_COUNT intersection points, so
    `count --enumerate` reports stay small; one chain with a repeated
    zero; one unstable chain."""
    rng = _rng("cli_mix", seed, "chains")
    files = []
    for n in (2, 3, 3, 4, 4, 5):
        while True:
            g = rng.randint(2, 4)
            m = [rng.randint(0, 2) for _ in range(n - 1)]
            top = rng.randint(-2, 2)
            if (sum(m) and stable(chain_degrees(g, m, top))
                    and type111_value(n, m) <= SMALL_FILE_COUNT):
                break
        files.append({"kind": "fresh", "g": g, "m": m, "top": top})
    files.append({"kind": "repeated", "g": 3, "m": [2, 1], "top": 0})
    files.append({"kind": "unstable", "g": 2, "m": [4], "top": 0})
    return files


FRESH_FILES = range(6)
REPEATED_FILE = 6
UNSTABLE_FILE = 7


def _cli_round(rng: random.Random, smoke: bool, seed: int) -> list:
    """('cli', argv, expected exit code, check tag, check parameters).

    "@i" in argv stands for the path of chain file i of chain_files(seed).
    """
    out: list = []
    files = chain_files(seed)
    fresh = list(FRESH_FILES)

    def add(count, make):
        for _ in range(_scaled(count, smoke)):
            out.append(make())

    def type_n():
        g, n = rng.randint(2, 4), rng.randint(2, 4)
        return ("cli", ["mult", "gl", "--type", "n", "--g", str(g), "--n", str(n)], 0, "type_n", [g, n])

    def type111():
        g = rng.randint(3, 5)
        m = [rng.randint(0, 2) for _ in range(rng.randint(1, 4))]
        return ("cli", ["mult", "gl", "--type", "111", "--g", str(g), "--m", ",".join(map(str, m))], 0, "type111", [g, m])

    def type111_file():
        i = rng.choice(fresh)
        return ("cli", ["mult", "gl", "--type", "111", "--chain-file", f"@{i}"], 0, "type111_file", [i])

    def type12():
        g = rng.randint(2, 5)
        w = rng.randint(1, 3 * g - 4)
        return ("cli", ["mult", "gl", "--type", "12", "--g", str(g), "--w", str(w)], 0, "type12", [g, w])

    def simple_a():
        l = rng.randint(1, 4)
        m = [rng.randint(0, 2) for _ in range(l)]
        return ("cli", ["mult", "simple", "--type", "A", "--rank", str(l), "--m", ",".join(map(str, m))], 0, "simple_a", [l, m])

    def simple_g2():
        m = [rng.randint(0, 2), rng.randint(1, 2)]
        return ("cli", ["mult", "simple", "--type", "G", "--rank", "2", "--m", ",".join(map(str, m))], 0, "simple_g2", [m])

    def classify():
        i = rng.randrange(len(files))
        return ("cli", ["classify", "--chain-file", f"@{i}"], 0, "classify", [i])

    def hecke():
        i = rng.choice(fresh)
        m = files[i]["m"]
        r = rng.choice([r for r, mr in enumerate(m, 1) if mr])
        point = f"z{r}.{rng.randint(1, m[r - 1])}"
        moves = [f"remove:{r}:{point}", f"add:{len(m) + 1 - r}:{point}"]
        return ("cli", ["hecke", "--chain-file", f"@{i}", "--move", moves[0], "--move", moves[1]], 0, "hecke", [i, point])

    def rootinfo():
        fam, l = rng.choice(SMALL_TYPES[:30])
        return ("cli", ["rootinfo", "--type", fam, "--rank", str(l)], 0, "rootinfo", [fam, l])

    def scan():
        b = rng.randint(1, 3)
        return ("cli", ["scan", "--type", "G", "--rank", "2", "--bound", str(b)], 0, "scan_g2", [b])

    def pair():
        g, n = rng.randint(2, 3), rng.randint(2, 3)
        order = rng.randint(10, 30)
        m = [rng.randint(0, 2 * g - 3) for _ in range(n - 1)]
        return ("cli", ["pair", "--g", str(g), "--n", str(n), "--order", str(order), "--a", "n", "--b", ",".join(map(str, m))], 0, "pair", [g, n, order, m])

    def count():
        i = rng.choice(fresh)
        argv = ["count", "--chain-file", f"@{i}"]
        if rng.random() < 0.5:
            argv.append("--enumerate")
        return ("cli", argv, 0, "count", [i])

    def domain_error():
        return rng.choice([
            ("cli", ["rootinfo", "--type", "E", "--rank", str(rng.choice((5, 9)))], 2, "exit", []),
            ("cli", ["mult", "gl", "--type", "12", "--g", "3", "--w", str(rng.randint(6, 9))], 2, "exit", []),
            ("cli", ["count", "--chain-file", f"@{REPEATED_FILE}"], 2, "exit", []),
        ])

    def resource_limit():
        return rng.choice([
            ("cli", ["scan", "--type", "A", "--rank", "4", "--bound", "9", "--cap", str(rng.randint(10, 99))], 3, "exit", []),
            ("cli", ["count", "--chain-file", f"@{rng.choice(fresh[3:])}", "--enumerate", "--cap", "1"], 3, "exit", []),
        ])

    def usage_error():
        return rng.choice([
            ("cli", ["mult", "gl", "--type", "n", "--g", str(rng.randint(2, 9))], 64, "exit", []),
            ("cli", ["mult", "gl", "--type", "111", "--m", "1,2"], 64, "exit", []),
            ("cli", ["hecke", "--chain-file", "@0", "--move", "swap:1:p"], 64, "exit", []),
        ])

    for count_, make in (
        (12, type_n), (12, type111), (8, type111_file), (8, type12), (7, simple_a), (3, simple_g2),
        (8, classify), (8, hecke), (8, rootinfo), (6, scan), (6, pair), (8, count),
        (2, domain_error), (2, resource_limit), (2, usage_error),
    ):
        add(count_, make)
    return out


def cold_calls(workload: str, seed: int, count: int) -> list:
    """Small one-shot CLI requests for the cold-start timing, with no
    chain files so they need nothing written first."""
    rng = _rng(workload, seed, "cold")
    out = []
    for _ in range(count):
        if workload == "gl_master":
            g, n = rng.randint(2, 4), rng.randint(2, 4)
            out.append(("cli", ["mult", "gl", "--type", "n", "--g", str(g), "--n", str(n)], 0, "type_n", [g, n]))
        elif workload == "chain_sweep":
            g = rng.randint(3, 5)
            m = [rng.randint(0, 3) for _ in range(rng.randint(1, 6))]
            out.append(("cli", ["mult", "gl", "--type", "111", "--g", str(g), "--m", ",".join(map(str, m))], 0, "type111", [g, m]))
        elif workload == "simple_roots":
            fam, l = rng.choice(SMALL_TYPES)
            out.append(("cli", ["rootinfo", "--type", fam, "--rank", str(l)], 0, "rootinfo", [fam, l]))
        else:
            request = [r for r in _cli_round(rng, False, seed) if r[2] == 0 and "@" not in " ".join(r[1])]
            out.append(rng.choice(request))
    return out
