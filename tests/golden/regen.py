"""Golden digests of CLI reports: one line per input, recomputed in process.

Each line of `cli_reports.txt` reads

    <exit code> <sha256 of stdout> <sha256 of stderr> <arguments>

separated by tabs.  Before hashing, stdout's `elapsed_ms` and `version`
fields are masked, and so is the temporary directory that holds the chain
files, wherever it appears; so is the text of a Python exception that a
chain file's refusal quotes.  Arguments longer than 64 characters are shown
by their start and length.  The inputs cover every subcommand, the inputs
that CI expects to exit 2 or 3, and every integer refusal the CLI can
reach, so a change that keeps every line keeps every report, exit code
and stderr line byte for byte.

    PYTHONPATH=src python tests/golden/regen.py          # rewrite the file
    PYTHONPATH=src python tests/golden/regen.py --check  # compare, exit 1 on a change
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

from higgsmult.cli import run

GOLDEN = Path(__file__).with_name("cli_reports.txt")

# chain files, by name: well-formed chains, then the malformed files of CI
CHAINS = {
    "very-stable.json": {"genus": 3, "degrees": [2, 0], "delta0": {"o": 2}, "zeros": [{"p": 1, "q": 1}]},
    "repeated.json": {"genus": 3, "degrees": [1, 0], "delta0": {"o": 1}, "zeros": [{"p": 2, "q": 1}]},
    "rank3.json": {
        "genus": 2, "degrees": [0, -1, -2], "delta0": {}, "zeros": [{"a": 1}, {"b": 1}],
    },
    "rank4.json": {
        "genus": 3, "degrees": [3, 1, 0, -2], "delta0": {"o": 3},
        "zeros": [{"a": 1, "b": 1}, {"c": 1, "d": 1, "e": 1}, {"f": 1, "g": 1}],
    },
    "unstable.json": {
        "genus": 2, "degrees": [0, 1], "delta0": {}, "zeros": [{"a": 1, "b": 1, "c": 1}],
    },
    "zeros-not-a-list.json": {"genus": 3, "degrees": [2, 0], "delta0": {"o": 2}, "zeros": {"p": 1, "q": 1}},
    "delta0-not-an-object.json": {
        "genus": 3, "degrees": [2, 0], "delta0": [["o", 2]], "zeros": [{"p": 1, "q": 1}],
    },
    "empty-point-label.json": {"genus": 3, "degrees": [2, 0], "delta0": {"o": 2}, "zeros": [{"": 1, "q": 1}]},
    "float-genus.json": {"genus": 3.0, "degrees": [2, 0], "delta0": {"o": 2}, "zeros": [{"p": 1, "q": 1}]},
    "bool-degree.json": {"genus": 3, "degrees": [True, 0], "delta0": {"o": 1}, "zeros": [{"p": 1, "q": 1}]},
    "float-multiplicity.json": {"genus": 3, "degrees": [2, 0], "delta0": {"o": 2.0}, "zeros": [{"p": 1, "q": 1}]},
    "genus-1.json": {"genus": 1, "degrees": [0], "delta0": {}, "zeros": []},
}
RAW = {
    "not-utf8.json": b"\xff\xfe\x00bad",
    "too-deep.json": b"[" * 200000 + b"\n",
    "too-many-digits.json": b'{"genus": ' + b"9" * 5000 + b"}\n",
    "missing.json": None,  # never written
}
MALFORMED = [
    "not-utf8.json", "too-deep.json", "too-many-digits.json", "zeros-not-a-list.json",
    "delta0-not-an-object.json", "empty-point-label.json", "missing.json", "float-genus.json",
    "bool-degree.json", "float-multiplicity.json", "genus-1.json",
]
ONES = ",".join(["1"] * 9999)


def cases() -> list[str]:
    """Every input, as a space-separated argument string; {name} is a chain file."""
    out = []
    for g, n in [(2, 1), (2, 2), (2, 3), (3, 2), (3, 4), (5, 3), (2, 6), (10, 6), (16, 8)]:
        out.append(f"mult gl --type n --g {g} --n {n}")
    for g in (2, 3, 4):
        out += [f"mult gl --type 12 --g {g} --w {w}" for w in range(0, 3 * g - 1)]
    for g, m, top in [(2, "0", 0), (2, "1,1", 0), (3, "2,1", 0), (3, "1", 5), (2, "1,1", -3),
                      (4, "1,2,3", 0), (3, "0,0,0", 2), (5, "3,3,3,3,3,3", 0), (2, "2,2", 0)]:
        out.append(f"mult gl --type 111 --g {g} --m {m} --top-degree {top}")
    out += [f"mult gl --type 111 --chain-file {{{name}}}" for name in
            ("very-stable.json", "repeated.json", "rank3.json", "rank4.json", "unstable.json")]
    out += [
        "mult gl --type n --g 2 --n 3 --format text",
        "mult gl --type 12 --g 3 --w 3 --format text",
        "mult gl --type 111 --g 3 --chain-file {very-stable.json}",
    ]
    for t, rank in [("A", 1), ("A", 2), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("D", 4),
                    ("E", 6), ("F", 4), ("G", 2)]:
        out.append(f"rootinfo --type {t} --rank {rank}")
    out.append("rootinfo --type C --rank 2 --format text")
    for t, rank, m in [("G", 2, "1,0"), ("G", 2, "0,1"), ("C", 2, "0,1"), ("A", 2, "1,1"),
                       ("B", 3, "1,0,0"), ("D", 4, "0,1,0,0"), ("E", 6, "1,0,0,0,0,0"),
                       ("A", 3, "0,0,0"), ("F", 4, "0,0,0,1")]:
        out.append(f"mult simple --type {t} --rank {rank} --m {m}")
    out += [
        "mult simple --type C --rank 2 --m 0,1 --format text",
        "mult simple --type G --rank 2 --m 1,0 --format text",
    ]
    for t, rank, bound in [("G", 2, 2), ("A", 2, 2), ("B", 2, 1), ("A", 1, 5), ("C", 3, 1)]:
        out.append(f"scan --type {t} --rank {rank} --bound {bound}")
    out += [
        "scan --type G --rank 2 --bound 2 --format text",
        "scan --type B --rank 3 --bound 2 --format text",
    ]
    out += [
        "pair --g 2 --n 2 --order 20 --a n --b 1",
        "pair --g 3 --n 3 --order 60 --a 1,2 --b n",
        "pair --g 3 --n 3 --order 60 --a n --b 1,2",
        "pair --g 4 --n 5 --order 400 --a 0,0,0,0 --b n",
        "pair --g 2 --n 3 --order 10 --a n --b n --format text",
    ]
    for name in ("very-stable.json", "repeated.json", "rank3.json", "rank4.json", "unstable.json"):
        out += [f"classify --chain-file {{{name}}}", f"count --chain-file {{{name}}}"]
    out += [
        "classify --chain-file {very-stable.json} --format text",
        "classify --chain-file {repeated.json} --format text",
    ]
    out += [
        "count --chain-file {rank3.json} --enumerate",
        "count --chain-file {very-stable.json} --enumerate --format text",
        "count --chain-file {rank4.json} --enumerate --cap 100",
        "count --chain-file {rank3.json} --enumerate --cap 0",
    ]
    for moves in ["remove:1:p", "add:1:x", "remove:1:q --move add:1:q", "add:1:p",
                  "remove:1:zz", "remove:0:p", "remove:2:p", "remove:-1:p", "add:0:x",
                  "add:2:x", "add:99:x"]:
        out.append(f"hecke --chain-file {{very-stable.json}} --move {moves}")
    for moves in ["add:2:x", "remove:2:b", "remove:3:b", "add:3:x", "add:1:x --move remove:2:x"]:
        out.append(f"hecke --chain-file {{rank3.json}} --move {moves}")
    out += [
        "hecke --chain-file {very-stable.json} --move remove:1:q --move add:1:q --format text",
        "hecke --chain-file {rank3.json} --move add:2:x --format text",
    ]
    # integer refusals and usage errors the handlers raise themselves
    out += [
        "mult gl --type n --g 1 --n 2",
        "mult gl --type n --g 0 --n 0",
        "mult gl --type n --g 2 --n 0",
        "mult gl --type n --g 2 --n -1",
        "mult gl --type n --g 2 --n 142",
        "mult gl --type n --g 2",
        "mult gl --type 111 --g 3 --m=-1,2",
        "mult gl --type 111 --g 1 --m 1",
        "mult gl --type 111 --g 1 --m=-1",
        "mult gl --type 111 --g 0 --m 0,0 --top-degree 3",
        "mult gl --type 111 --g 2 --m 2 --top-degree 4",
        "mult gl --type 111 --g 3 --m 5,0",
        "mult gl --type 111 --g 2 --m 1 --chain-file {very-stable.json}",
        "mult gl --type 111 --g 4 --chain-file {very-stable.json}",
        "mult gl --type 111 --m 1",
        "mult gl --type 111 --g 2",
        "mult gl --type 12 --g 3 --w 7",
        "mult gl --type 12 --g 3 --w -1",
        "mult gl --type 12 --g 1 --w 1",
        "mult gl --type 12 --g 1 --w 9",
        "mult gl --type 12 --g 3",
        "mult simple --type A --rank 2 --m=-1,0",
        "mult simple --type A --rank 2 --m 1",
        "mult simple --type A --rank 0 --m 1",
        "mult simple --type E --rank 5 --m 1,0,0,0,0",
        "mult simple --type Q --rank 2 --m 1,0",
        "rootinfo --type D --rank 2",
        "rootinfo --type A --rank 0",
        "rootinfo --type A --rank -3",
        "rootinfo --type E --rank 9",
        "rootinfo --type G --rank 3",
        "rootinfo --type Z --rank 2",
        "rootinfo --type A --rank 141",
        "scan --type A --rank 1 --bound 0",
        "scan --type A --rank 1 --bound -2",
        "scan --type A --rank 2 --bound 2 --cap 3",
        "scan --type A --rank 2 --bound 2 --cap -1",
        "scan --type B --rank 1 --bound 1",
        "pair --g 2 --n 2 --order 0 --a n --b n",
        "pair --g 2 --n 2 --order -5 --a n --b n",
        "pair --g 1 --n 2 --order 5 --a n --b n",
        "pair --g 2 --n 0 --order 5 --a n --b n",
        "pair --g 2 --n 1 --order 5 --a n --b n",
        "pair --g 2 --n 3 --order 5 --a 1 --b n",
        "pair --g 2 --n 2 --order 5 --a -1 --b n",
        "pair --g 2 --n 2 --order 5 --a x --b n",
        "pair --g 2 --n 3 --order 5 --a 2,2 --b n",
        "pair --g 3 --n 3 --order 5 --a n --b 4,0",
    ]
    # the inputs CI expects to exit 3
    out += [
        "mult gl --type n --g 40 --n 12",
        f"mult gl --type 111 --g 2 --m {ONES}",
        "mult simple --type E --rank 8 --m 50,50,50,50,50,50,50,50",
        "pair --g 2 --n 2 --order 100000000 --a n --b n",
        "scan --type A --rank 1 --bound 99999",
        "mult gl --type n --g 4763 --n 2",
        "mult gl --type n --g 8000 --n 2",
        "mult gl --type 12 --g 1700 --w 1",
        "mult simple --type A --rank 1 --m 20000",
        "pair --g 2500 --n 2 --order 6000 --a n --b n",
        "rootinfo --type A --rank 300",
    ]
    # the malformed chain files CI expects to exit 2, and a few more
    for name in MALFORMED:
        for command in ["classify", "count", "hecke --move remove:1:p", "mult gl --type 111"]:
            out.append(f"{command} --chain-file {{{name}}}")
    return out


def _show(arg: str) -> str:
    return arg if len(arg) <= 64 else f"{arg[:16]}...<{len(arg)} chars>"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def compute() -> "tuple[list[str], dict[str, str]]":
    """The golden lines, in case order, and each line's stderr text."""
    lines, errs = [], {}
    with tempfile.TemporaryDirectory() as folder:
        for name, obj in CHAINS.items():
            Path(folder, name).write_text(json.dumps(obj))
        for name, raw in RAW.items():
            if raw is not None:
                Path(folder, name).write_bytes(raw)
        for case in cases():
            argv = [re.sub(r"\{(.+)\}", lambda m: str(Path(folder, m[1])), a) for a in case.split()]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            stdout = re.sub(r'"elapsed_ms":\d+', '"elapsed_ms":0', out.getvalue())
            stdout = re.sub(r'"version":"[^"]*"', '"version":""', stdout).replace(folder, "<dir>")
            stderr = err.getvalue().replace(folder, "<dir>")
            # the text of Python's own exception varies across versions
            stderr = re.sub(r"(not valid JSON|cannot read chain file \S+): .*", r"\1: ...", stderr)
            line = "\t".join([str(code), _sha(stdout), _sha(stderr), " ".join(map(_show, case.split()))])
            lines.append(line)
            errs[line] = stderr
    return lines, errs


def main() -> int:
    lines, _ = compute()
    if sys.argv[1:] == ["--check"]:
        kept = GOLDEN.read_text().splitlines()
        changed = [new for old, new in zip(kept, lines) if old != new]
        if changed or len(kept) != len(lines):
            print("\n".join(changed) or f"{len(kept)} lines kept, {len(lines)} computed")
            return 1
        return 0
    GOLDEN.write_text("".join(line + "\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
