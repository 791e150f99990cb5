import contextlib
import json
import re
import signal
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import higgsmult
from higgsmult import __version__, memo_info
from higgsmult.cli import main, run
from higgsmult.multgl import mult_type111, mult_type_n
from higgsmult.chain import chain_from_m, chain_to_json


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report(capsys, argv):
    code, out, err = invoke(capsys, argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def chain_file(tmp_path):
    # g=3, degrees (2,0): m_1 = 2, reduced zeros, very stable
    path = tmp_path / "chain.json"
    path.write_text(
        json.dumps(
            {"genus": 3, "degrees": [2, 0], "delta0": {"o": 2}, "zeros": [{"p": 1, "q": 1}]}
        )
    )
    return str(path)


@pytest.fixture
def wobbly_file(tmp_path):
    # stable but with a double zero at p
    path = tmp_path / "wobbly.json"
    path.write_text(
        json.dumps(
            {"genus": 3, "degrees": [1, 0], "delta0": {"o": 1}, "zeros": [{"p": 2, "q": 1}]}
        )
    )
    return str(path)


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bogus"],
            ["mult"],
            ["mult", "gl", "--type", "n", "--g", "x", "--n", "2"],
            ["mult", "gl", "--type", "n", "--n", "2"],
            ["mult", "gl", "--type", "zzz", "--g", "2"],
            ["mult", "gl", "--type", "111", "--g", "3", "--m", "1,1", "--chain-file", "x.json"],
            ["mult", "simple", "--type", "A", "--rank", "2", "--m", "1,x"],
            ["hecke", "--chain-file", "x.json", "--move", "swap:1:p"],
            ["rootinfo", "--rank", "2"],
        ],
    )
    def test_usage_is_64(self, capsys, argv):
        assert invoke(capsys, argv)[0] == 64

    def test_missing_conditional_flag_is_64(self, capsys):
        code, _, err = invoke(capsys, ["mult", "gl", "--type", "n", "--g", "2"])
        assert code == 64
        assert "--n" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["mult", "simple", "--type", "H", "--rank", "2", "--m", "1,0"],
            ["mult", "gl", "--type", "12", "--g", "3", "--w", "99"],
            ["mult", "simple", "--type", "C", "--rank", "2", "--m", "1,2,3"],
            ["classify", "--chain-file", "does-not-exist.json"],
        ],
    )
    def test_domain_is_2(self, capsys, argv):
        code, out, err = invoke(capsys, argv)
        assert code == 2
        assert out == ""
        assert "DomainError" in err

    @pytest.mark.parametrize("g", ["1", "0", "-3"])
    def test_type12_refuses_genus_before_window(self, capsys, g):
        code, out, err = invoke(capsys, ["mult", "gl", "--type", "12", "--g", g, "--w", "1"])
        assert (code, out) == (2, "")
        assert f"genus must be >= 2, got {g}" in err and "window" not in err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"\xff\xfe\x00bad", "cannot read chain file "),
            (b"[" * 200000, "is not valid JSON: maximum recursion depth exceeded"),
            (b'{"genus": ' + b"9" * 5000 + b"}", "is not valid JSON: Exceeds the limit"),
        ],
        ids=["not-utf8", "nested-too-deep", "int-past-digit-limit"],
    )
    def test_malformed_chain_file_is_2(self, capsys, tmp_path, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        for argv in (
            ["classify"],
            ["count"],
            ["hecke", "--move", "remove:1:p"],
            ["mult", "gl", "--type", "111"],
        ):
            code, out, err = invoke(capsys, argv + ["--chain-file", str(path)])
            assert code == 2 and out == ""
            assert err.startswith("DomainError: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("zeros", {"p": 1, "q": 1}, "chain: zeros must be a list of divisor objects"),
            (
                "delta0",
                [["o", 2]],
                "chain delta0: expected an object mapping labels to multiplicities",
            ),
            ("zeros", [{"": 1, "q": 1}], "chain zeros[0]: point labels must be nonempty strings"),
        ],
        ids=["zeros-not-a-list", "delta0-not-an-object", "empty-point-label"],
    )
    def test_invalid_chain_is_2(self, capsys, tmp_path, field, value, message):
        chain = {"genus": 3, "degrees": [2, 0], "delta0": {"o": 2}, "zeros": [{"p": 1, "q": 1}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**chain, field: value}))
        for argv in (
            ["classify"],
            ["count"],
            ["hecke", "--move", "remove:1:p"],
            ["mult", "gl", "--type", "111"],
        ):
            code, out, err = invoke(capsys, argv + ["--chain-file", str(path)])
            assert (code, out, err) == (2, "", f"DomainError: {message}\n")

    def test_error_names_offending_input(self, capsys, wobbly_file):
        code, _, err = invoke(capsys, ["hecke", "--chain-file", wobbly_file, "--move", "add:1:r"])
        assert code == 2
        assert err.startswith("UnstableResultError")
        assert "'r'" in err

    def test_resource_is_3(self, capsys, chain_file):
        code, _, err = invoke(
            capsys, ["scan", "--type", "C", "--rank", "2", "--bound", "9", "--cap", "10"]
        )
        assert code == 3 and "ResourceLimitError" in err
        code, _, err = invoke(
            capsys, ["count", "--chain-file", chain_file, "--enumerate", "--cap", "3"]
        )
        assert code == 3 and "ResourceLimitError" in err

    def test_root_cap_is_3(self, capsys):
        code, out, err = invoke(capsys, ["rootinfo", "--type", "A", "--rank", "300"])
        assert code == 3 and out == ""
        assert err == "ResourceLimitError: A300 has 45150 positive roots, above the cap 10000\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["mult", "gl", "--type", "n", "--g", "40", "--n", "12"],
            ["mult", "simple", "--type", "E", "--rank", "8", "--m", ",".join(["50"] * 8)],
            ["pair", "--g", "2", "--n", "2", "--order", "100000000", "--a", "n", "--b", "n"],
        ],
    )
    def test_series_work_cap_is_3(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = invoke(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err.startswith("ResourceLimitError: a series of ") and err.count("\n") == 1

    def test_one_factor_pairing_is_priced_per_unit_of_exponent(self, capsys):
        # (1 - t)^{-126} to order 10^6 is one binomial pass of the kernel, but
        # its coefficients reach 1797 bits; admission counts all 126 units
        argv = ["pair", "--g", "6", "--n", "5", "--order", "1000000", "--a", "0,0,0,0", "--b", "n"]
        start = time.perf_counter()
        with _deadline(1.0, argv):
            code, out, err = invoke(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err == (
            "ResourceLimitError: a series of 1000001 coefficients through 126 factors has "
            "127000127 coefficient updates, above the cap 10000000\n"
        )

    def test_scan_work_cap_is_3(self, capsys):
        start = time.perf_counter()
        code, out, err = invoke(capsys, ["scan", "--type", "A", "--rank", "1", "--bound", "99999"])
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err.startswith("ResourceLimitError: scan of A1 to bound 99999 at m = [66] has ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["mult", "gl", "--type", "n", "--g", "2", "--n", "1000000"],
                "GL_1000000 has 1000000 invariant degrees, above the cap 141",
            ),
            (
                ["pair", "--g", "2", "--n", "142", "--order", "3", "--a", "n", "--b", "n"],
                "GL_142 has 142 invariant degrees, above the cap 141",
            ),
            (
                ["mult", "gl", "--type", "111", "--g", "3", "--m", "1000000000"],
                "m-vector has 1000000000 zeros, above the cap 100000",
            ),
        ],
    )
    def test_rank_and_zero_caps_are_3(self, capsys, argv, message):
        code, out, err = invoke(capsys, argv)
        assert code == 3 and out == ""
        assert err == f"ResourceLimitError: {message}\n"

    def test_rank_cap_refuses_before_the_closed_form(self, capsys):
        start = time.perf_counter()
        argv = ["mult", "gl", "--type", "111", "--g", "2", "--m", ",".join(["1"] * 2999)]
        code, out, err = invoke(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err == "ResourceLimitError: GL_3000 has 3000 invariant degrees, above the cap 141\n"

    def test_count_past_the_printable_digits_is_3(self, capsys, tmp_path):
        path = tmp_path / "rank2.json"
        path.write_text(json.dumps(chain_to_json(chain_from_m(8000, [15000]))))
        start = time.perf_counter()
        code, out, err = invoke(capsys, ["count", "--chain-file", str(path)])
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err.startswith("ResourceLimitError: the intersection count has ")
        assert err.count("\n") == 1
        path.write_text(json.dumps(chain_to_json(chain_from_m(8000, [14000]))))
        count = report(capsys, ["count", "--chain-file", str(path)])["result"]["count"]
        assert count == str(2 ** 14000) and len(count) == 4215

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("mult gl --type n --g 4763 --n 2", "the value at 1 has 4301 digits"),
            ("mult gl --type n --g 8000 --n 2", "the value at 1 has 7224 digits"),
            ("mult gl --type 12 --g 1700 --w 1", "the value at 1 has 4565 digits"),
            ("mult simple --type A --rank 1 --m 20000", "the value at 1 has 6021 digits"),
            (
                "pair --g 2500 --n 2 --order 6000 --a n --b n",
                "the largest series coefficient has 5538 digits",
            ),
        ],
    )
    def test_past_the_printable_digits_is_3(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = invoke(capsys, argv.split())
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err == f"ResourceLimitError: {message}, above the cap 4300\n"

    def test_value_at_1_is_gated_before_the_expansion(self, capsys, monkeypatch):
        # admission is priced from the factored form, then the value's
        # digits; the refused series is never run
        from higgsmult import polyalg

        factored = mult_type_n(4763, 2).factored
        runs = []
        kernel = polyalg._kernel
        monkeypatch.setattr(
            polyalg, "_kernel", lambda f, *args: runs.append(f) or kernel(f, *args)
        )
        monkeypatch.setattr(polyalg, "_recurrence", lambda f, *args: pytest.fail("recurrence"))
        code, out, err = invoke(capsys, "mult gl --type n --g 4763 --n 2".split())
        assert (code, out) == (3, "")
        assert err == "ResourceLimitError: the value at 1 has 4301 digits, above the cap 4300\n"
        # the kernel runs only the small cyclotomic stencils of the price
        assert factored not in runs and all(sum(k * e for k, e in f) < 100 for f in runs)

    @given(g=st.integers(4763, 9000))
    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_type_n_past_the_printable_digits_is_3(self, capsys, g):
        # the exit-code fuzz draws no genus between 6 and 10**6; here the
        # value at 1 has over 4300 digits, or the series cap refuses first
        start = time.perf_counter()
        code, out, err = invoke(capsys, ["mult", "gl", "--type", "n", "--g", str(g), "--n", "2"])
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err.startswith("ResourceLimitError: ") and err.count("\n") == 1

    def test_internal_error_is_70(self, capsys, monkeypatch):
        import higgsmult.cli
        from higgsmult.errors import InternalError

        def broken(ns):
            raise InternalError("invariant broken")

        monkeypatch.setattr(higgsmult.cli, "_cmd_rootinfo", broken)
        code, out, err = invoke(capsys, ["rootinfo", "--type", "A", "--rank", "2"])
        assert code == 70
        assert out == ""
        assert err == "InternalError: invariant broken\n"

    def test_main_exits(self, capsys):
        with pytest.raises(SystemExit) as exc:
            import sys

            old = sys.argv
            sys.argv = ["higgsmult", "bogus"]
            try:
                main()
            finally:
                sys.argv = old
        assert exc.value.code == 64


ONES = ",".join(["1"] * 9999)


class TestWarmSeriesMemo:
    """In-process calls after the series memo holds earlier answers."""

    @staticmethod
    def masked(out):
        return re.sub(r'"elapsed_ms":\d+', '"elapsed_ms":0', out)

    def test_repeated_calls_are_byte_identical(self, capsys, monkeypatch):
        import higgsmult.polyalg as polyalg

        calls = [
            "mult gl --type n --g 10 --n 6",
            "pair --g 4 --n 5 --order 400 --a n --b 1,1,1,1",
            "pair --g 4 --n 5 --order 100 --a n --b 1,1,1,1",
        ]

        def outputs():
            out = []
            for argv in calls:
                code, stdout, err = invoke(capsys, argv.split())
                assert code == 0 and err == ""
                out.append(self.masked(stdout))
            return out

        # a zero budget keeps nothing, so every series is computed afresh
        higgsmult._memo.clear()
        with monkeypatch.context() as mp:
            mp.setattr(higgsmult, "MEMO_BYTES", 0)
            cold = outputs()
            assert memo_info().entries == 0
        higgsmult._memo.clear()
        for _ in range(3):
            assert outputs() == cold
        info = memo_info()
        assert info.misses == 2 and info.hits == 7

    @pytest.mark.parametrize(
        "warm, argv, message",
        [
            (
                "mult gl --type n --g 2 --n 12",
                "mult gl --type n --g 40 --n 12",
                "a series of 21022 coefficients through 11154 factors has 234500410 "
                "coefficient updates, above the cap 10000000",
            ),
            (
                "mult gl --type 111 --g 2 --m 1,1,1",
                f"mult gl --type 111 --g 2 --m {ONES}",
                "GL_10000 has 10000 invariant degrees, above the cap 141",
            ),
            (
                "mult simple --type E --rank 8 --m 1,0,0,0,0,0,0,1",
                "mult simple --type E --rank 8 --m 50,50,50,50,50,50,50,50",
                "a series of 86301 coefficients through 9800 factors has 845836101 "
                "coefficient updates, above the cap 10000000",
            ),
            (
                # the same factored character, so the memo holds its first 51 coefficients
                "pair --g 2 --n 2 --order 50 --a n --b n",
                "pair --g 2 --n 2 --order 100000000 --a n --b n",
                "a series of 100000001 coefficients through 11 factors has 1200000012 "
                "coefficient updates, above the cap 10000000",
            ),
            (
                "scan --type A --rank 1 --bound 5",
                "scan --type A --rank 1 --bound 99999",
                "scan of A1 to bound 99999 at m = [66] has 10199898 units of series work, "
                "above the cap 10000000",
            ),
            (
                "mult gl --type n --g 47 --n 2",
                "mult gl --type n --g 4763 --n 2",
                "the value at 1 has 4301 digits, above the cap 4300",
            ),
            (
                "mult gl --type n --g 80 --n 2",
                "mult gl --type n --g 8000 --n 2",
                "the value at 1 has 7224 digits, above the cap 4300",
            ),
            (
                "mult gl --type 12 --g 17 --w 1",
                "mult gl --type 12 --g 1700 --w 1",
                "the value at 1 has 4565 digits, above the cap 4300",
            ),
            (
                "mult simple --type A --rank 1 --m 200",
                "mult simple --type A --rank 1 --m 20000",
                "the value at 1 has 6021 digits, above the cap 4300",
            ),
            (
                "pair --g 2500 --n 2 --order 60 --a n --b n",
                "pair --g 2500 --n 2 --order 6000 --a n --b n",
                "the largest series coefficient has 5538 digits, above the cap 4300",
            ),
        ],
    )
    def test_formerly_unbounded_inputs_exit_3_after_a_warm_up(self, capsys, warm, argv, message):
        assert invoke(capsys, warm.split())[0] == 0
        code, out, err = invoke(capsys, argv.split())
        assert code == 3 and out == ""
        assert err == f"ResourceLimitError: {message}\n"


class TestWarmRootMemo:
    """In-process calls after the root memo holds earlier types."""

    def test_repeated_calls_are_byte_identical(self, capsys, monkeypatch):
        import higgsmult.rootsys as rootsys

        calls = [
            "rootinfo --type E --rank 8",
            "rootinfo --type A --rank 60",
            "rootinfo --type D --rank 5 --format text",
            "mult simple --type B --rank 4 --m 1,0,2,1",
            # gross-style: a unit m at a cominuscule node
            "mult simple --type E --rank 7 --m 0,0,0,0,0,0,1",
            "mult simple --type A --rank 60 --m " + ",".join(["0"] * 59 + ["1"]),
            "scan --type C --rank 3 --bound 2",
            "scan --type G --rank 2 --bound 3",
        ]

        def outputs():
            out = []
            for argv in calls:
                code, stdout, err = invoke(capsys, argv.split())
                assert code == 0 and err == ""
                out.append(TestWarmSeriesMemo.masked(stdout))
            return out

        # a zero budget keeps nothing, so every type is built afresh
        higgsmult._memo.clear()
        with monkeypatch.context() as mp:
            mp.setattr(higgsmult, "MEMO_BYTES", 0)
            cold = outputs()
            assert memo_info().entries == 0
        higgsmult._memo.clear()
        # the memo also keeps the mult calls' expansions: count the root lookups
        found = []
        real = higgsmult.ByteMemo.find

        def find(memo, key, fits=None):
            kept = real(memo, key, fits)
            if type(key) is rootsys.LieType:
                found.append(kept is not None)
            return kept

        monkeypatch.setattr(higgsmult.ByteMemo, "find", find)
        for _ in range(3):
            assert outputs() == cold
        kept = sum(type(key) is rootsys.LieType for key in higgsmult._memo)
        assert (found.count(False), kept, found.count(True)) == (7, 7, 3 * len(calls) - 7)

    def test_refused_rank_exits_3_after_a_warm_up(self, capsys):
        for warm in ("rootinfo --type A --rank 60", "rootinfo --type A --rank 140"):
            assert invoke(capsys, warm.split())[0] == 0
        code, out, err = invoke(capsys, "rootinfo --type A --rank 300".split())
        assert code == 3 and out == ""
        assert err == "ResourceLimitError: A300 has 45150 positive roots, above the cap 10000\n"


class TestReportEnvelope:
    def test_fields(self, capsys):
        rep = report(capsys, ["mult", "gl", "--type", "n", "--g", "2", "--n", "2"])
        assert rep["schema"] == 1
        assert rep["version"] == __version__
        assert rep["command"] == "mult gl"
        assert rep["inputs"] == {"type": "n", "g": 2, "n": 2}
        assert isinstance(rep["elapsed_ms"], int) and rep["elapsed_ms"] >= 0

    def test_byte_stable_modulo_timing(self, capsys):
        argv = ["rootinfo", "--type", "C", "--rank", "2"]
        code, out1, _ = invoke(capsys, argv)
        code, out2, _ = invoke(capsys, argv)
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("elapsed_ms"), r2.pop("elapsed_ms")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_sorted_keys_on_the_wire(self, capsys):
        _, out, _ = invoke(capsys, ["mult", "gl", "--type", "n", "--g", "2", "--n", "2"])
        keys = list(json.loads(out))
        assert keys == sorted(keys)


class TestMultGl:
    def test_rank2_example(self, capsys):
        rep = report(capsys, ["mult", "gl", "--type", "n", "--g", "2", "--n", "2"])
        assert rep["result"]["polynomial"] == [1, 3, 3, 1]
        assert rep["result"]["value"] == "8"

    def test_rank3_value(self, capsys):
        rep = report(capsys, ["mult", "gl", "--type", "n", "--g", "2", "--n", "3"])
        assert rep["result"]["value"] == "1944"
        assert rep["result"]["polynomial"] == list(mult_type_n(2, 3).polynomial.coeffs)

    def test_111_m_and_file_agree(self, capsys, tmp_path):
        rep_m = report(capsys, ["mult", "gl", "--type", "111", "--g", "3", "--m", "2,1"])
        chain = chain_from_m(3, (2, 1))
        assert rep_m["result"]["polynomial"] == list(mult_type111(chain).polynomial.coeffs)

    def test_111_chain_file_supplies_genus(self, capsys, chain_file):
        rep = report(capsys, ["mult", "gl", "--type", "111", "--chain-file", chain_file])
        assert rep["inputs"]["g"] == 3
        assert rep["result"]["polynomial"] == [1, 2, 1]

    def test_111_genus_contradiction_is_domain_error(self, capsys, chain_file):
        code, _, err = invoke(
            capsys, ["mult", "gl", "--type", "111", "--g", "2", "--chain-file", chain_file]
        )
        assert code == 2
        assert "genus 3" in err

    def test_type12_threshold(self, capsys):
        poly = report(capsys, ["mult", "gl", "--type", "12", "--g", "3", "--w", "2"])
        assert poly["result"]["polynomial"] is not None
        not_poly = report(capsys, ["mult", "gl", "--type", "12", "--g", "3", "--w", "3"])
        assert not_poly["result"]["polynomial"] is None
        assert not_poly["result"]["remainder_degree"] >= 0


class TestMultSimple:
    def test_c2(self, capsys):
        rep = report(capsys, ["mult", "simple", "--type", "C", "--rank", "2", "--m", "0,1"])
        assert rep["result"]["polynomial"] == [1, 1, 1, 1]
        assert rep["result"]["value"] == "4"
        assert rep["result"]["numbering"] == "bourbaki"

    def test_g2_not_polynomial(self, capsys):
        rep = report(capsys, ["mult", "simple", "--type", "G", "--rank", "2", "--m", "1,0"])
        assert rep["result"]["polynomial"] is None
        assert "remainder_degree" in rep["result"]


class TestClassify:
    def test_repeated_zero_reason(self, capsys, wobbly_file):
        rep = report(capsys, ["classify", "--chain-file", wobbly_file])
        assert rep["result"] == {
            "very_stable": False,
            "stable": True,
            "reason": "repeated zero at p",
        }

    def test_very_stable(self, capsys, chain_file):
        rep = report(capsys, ["classify", "--chain-file", chain_file])
        assert rep["result"] == {"very_stable": True, "stable": True, "reason": None}

    def test_unstable(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(
            json.dumps({"genus": 2, "degrees": [0, 1], "delta0": {}, "zeros": [{"p": 3}]})
        )
        rep = report(capsys, ["classify", "--chain-file", str(path)])
        assert rep["result"]["stable"] is False
        assert rep["result"]["reason"] == "unstable at index 1"

    def test_cross_divisor_repeat(self, capsys, tmp_path):
        # p simple in both zero divisors: the combined divisor is non-reduced
        path = tmp_path / "x.json"
        path.write_text(
            json.dumps(
                {
                    "genus": 2,
                    "degrees": [2, 1, 0],
                    "delta0": {"o": 2},
                    "zeros": [{"p": 1}, {"p": 1}],
                }
            )
        )
        rep = report(capsys, ["classify", "--chain-file", str(path)])
        assert rep["result"]["reason"] == "repeated zero at p"


class TestHecke:
    def test_remove_then_add_is_twist(self, capsys, chain_file):
        rep = report(
            capsys,
            ["hecke", "--chain-file", chain_file, "--move", "remove:1:q", "--move", "add:1:q"],
        )
        assert rep["result"]["moves_applied"] == 2
        assert rep["result"]["chain"] == {
            "genus": 3,
            "degrees": [1, -1],
            "delta0": {"o": 2, "q": -1},
            "zeros": [{"p": 1, "q": 1}],
        }

    def test_add_then_remove_is_twist(self, capsys, chain_file):
        rep = report(
            capsys,
            ["hecke", "--chain-file", chain_file, "--move", "add:1:r", "--move", "remove:1:r"],
        )
        assert rep["result"]["chain"]["degrees"] == [1, -1]
        assert rep["result"]["chain"]["delta0"] == {"o": 2, "r": -1}

    def test_add_at_existing_zero(self, capsys, chain_file):
        code, _, err = invoke(capsys, ["hecke", "--chain-file", chain_file, "--move", "add:1:p"])
        assert code == 2 and "already a zero" in err


class TestRootinfo:
    def test_c2(self, capsys):
        result = report(capsys, ["rootinfo", "--type", "C", "--rank", "2"])["result"]
        assert result["type"] == "C2"
        assert result["degrees"] == [2, 4]
        assert result["weyl_order"] == "8"
        assert result["cominuscule_nodes"] == [2]
        assert result["positive_roots"] == [[0, 1], [1, 0], [1, 1], [2, 1]]
        assert result["height_histogram"] == [[1, 2], [2, 1], [3, 1]]
        assert result["numbering"] == "bourbaki"


class TestScan:
    def test_g2_bound_1(self, capsys):
        result = report(capsys, ["scan", "--type", "G", "--rank", "2", "--bound", "1"])["result"]
        nonzero = [e for e in result["entries"] if e["m"] != [0, 0]]
        assert len(nonzero) == 3
        assert all(e["polynomial"] is None for e in nonzero)
        assert result["entries"][0] == {"m": [0, 0], "polynomial": [1]}
        assert result["polynomial_count"] == 1

    def test_lexicographic(self, capsys):
        result = report(capsys, ["scan", "--type", "A", "--rank", "2", "--bound", "1"])["result"]
        assert [e["m"] for e in result["entries"]] == [[0, 0], [0, 1], [1, 0], [1, 1]]


    def test_non_polynomial_points_are_never_expanded(self, capsys, monkeypatch):
        from higgsmult import polyalg

        # the one polynomial point is m = 0, whose series needs no kernel pass
        monkeypatch.setattr(polyalg, "expand", lambda f: pytest.fail(f"expanded {f}"))
        monkeypatch.setattr(polyalg, "_kernel", lambda f, *args: pytest.fail(f"ran {f}"))
        result = report(capsys, ["scan", "--type", "G", "--rank", "2", "--bound", "4"])["result"]
        assert (result["polynomial_count"], result["non_polynomial_count"]) == (1, 24)
        assert [e["polynomial"] for e in result["entries"]] == [[1]] + [None] * 24


class TestCapDefaults:
    def test_reported_when_omitted(self, capsys, chain_file):
        from higgsmult.hecke import ENUMERATION_CAP
        from higgsmult.multsimple import SCAN_CAP

        rep = report(capsys, ["scan", "--type", "G", "--rank", "2", "--bound", "1"])
        assert rep["inputs"]["cap"] == SCAN_CAP
        rep = report(capsys, ["count", "--chain-file", chain_file, "--enumerate"])
        assert rep["inputs"]["cap"] == ENUMERATION_CAP


class TestPair:
    def test_symmetric(self, capsys):
        a = report(capsys, ["pair", "--g", "2", "--n", "2", "--order", "6", "--a", "n", "--b", "1"])
        b = report(capsys, ["pair", "--g", "2", "--n", "2", "--order", "6", "--a", "1", "--b", "n"])
        assert a["result"]["series"] == b["result"]["series"]
        assert len(a["result"]["series"]) == 7

    def test_wrong_vector_length(self, capsys):
        code, _, err = invoke(
            capsys, ["pair", "--g", "2", "--n", "3", "--order", "3", "--a", "1", "--b", "n"]
        )
        assert code == 2 and "entries" in err


class TestCount:
    def test_count_and_points(self, capsys, chain_file):
        result = report(capsys, ["count", "--chain-file", chain_file, "--enumerate"])["result"]
        assert result["count"] == "4"
        assert len(result["points"]) == 4
        # each point assigns a 1-element sheet subset to each of the zeros p, q
        assert result["points"][0] == [[[1, "p"], [1]], [[1, "q"], [1]]]

    def test_enumerate_checks_stability_twice(self, capsys, chain_file, monkeypatch):
        # once for the count, once for the enumeration
        from higgsmult import hecke

        calls = []
        verdict = hecke.is_very_stable
        monkeypatch.setattr(hecke, "is_very_stable", lambda c: calls.append(c) or verdict(c))
        report(capsys, ["count", "--chain-file", chain_file, "--enumerate"])
        assert len(calls) == 2

    def test_not_very_stable(self, capsys, wobbly_file):
        code, _, err = invoke(capsys, ["count", "--chain-file", wobbly_file])
        assert code == 2 and "very stable" in err


class TestTextFormat:
    def test_same_numeric_content(self, capsys):
        argv = ["mult", "gl", "--type", "n", "--g", "2", "--n", "3"]
        json_result = report(capsys, argv)["result"]
        code, out, _ = invoke(capsys, argv + ["--format", "text"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "command: mult gl"
        parsed = {}
        for line in lines[1:]:
            key, _, value = line.partition(" = ")
            parsed[key.strip()] = json.loads(value)
        assert parsed == json_result


# Values for the exit-code fuzz test: every integer flag draws from small,
# huge and negative integers and from strings that are not integers.
INTEGER = st.one_of(
    st.integers(0, 6),
    st.sampled_from([10**6, 10**9, 2**63, 10**30]),
    st.integers(-(10**9), -1),
).map(str)
MALFORMED = st.sampled_from(["", "x", "1.5", "1e3", "0x10", "--", "3,", "nan"])
VALUE = st.one_of(INTEGER, INTEGER, INTEGER, MALFORMED)
M_VECTOR = st.one_of(st.lists(INTEGER, min_size=1, max_size=4).map(",".join), MALFORMED)
LIE_TYPE = st.sampled_from(list("ABCDEFGHa") + [""])
LABEL = st.sampled_from(["p", "q", "o", "z1.1", "z2.1", ""])
MOVE = st.tuples(st.sampled_from(["remove", "add", "swap"]), VALUE, LABEL).map(":".join)
JSON_INT = st.one_of(st.integers(-3, 6), st.sampled_from([10**9, 10**30, -(10**9)]))

CHAIN_JSON = st.one_of(
    st.builds(
        lambda g, m, top: json.dumps(chain_to_json(chain_from_m(g, m, top_degree=top))),
        st.integers(2, 4),
        st.lists(st.integers(0, 2), min_size=1, max_size=3),
        st.integers(-3, 3),
    ),
    st.fixed_dictionaries(
        {},
        optional={
            "genus": st.one_of(JSON_INT, st.booleans(), st.text(max_size=2)),
            "degrees": st.lists(JSON_INT, max_size=4),
            "delta0": st.dictionaries(LABEL, JSON_INT, max_size=2),
            "zeros": st.lists(st.dictionaries(LABEL, JSON_INT, max_size=3), max_size=3),
            "extra": st.none(),
        },
    ).map(json.dumps),
    st.sampled_from(["", "{", "[]", "null", '{"genus": 2}']),
)
CHAIN_FILE = "@chain"
FILE = st.sampled_from([CHAIN_FILE, CHAIN_FILE, "missing.json"])


def _command(*words, **flags):
    """argv: the words, then each flag with a drawn value, or left out."""
    names = list(flags)
    return st.tuples(*(st.one_of(st.none(), flags[name], flags[name]) for name in names)).map(
        lambda values: list(words)
        + [t for name, v in zip(names, values) if v is not None for t in (f"--{name}", v)]
    )


ARGV = st.one_of(
    _command("mult", "gl", "--type", "n", g=VALUE, n=VALUE),
    _command("mult", "gl", "--type", "111", g=VALUE, m=M_VECTOR, **{"top-degree": VALUE}),
    _command("mult", "gl", "--type", "111", **{"chain-file": FILE, "g": VALUE}),
    _command("mult", "gl", "--type", "12", g=VALUE, w=VALUE),
    _command("mult", "simple", type=LIE_TYPE, rank=VALUE, m=M_VECTOR),
    _command("classify", **{"chain-file": FILE}),
    _command("hecke", **{"chain-file": FILE}, move=MOVE),
    _command("rootinfo", type=LIE_TYPE, rank=VALUE),
    _command("scan", type=LIE_TYPE, rank=VALUE, bound=VALUE, cap=VALUE),
    _command(
        "pair",
        g=VALUE,
        n=VALUE,
        order=VALUE,
        a=st.one_of(st.just("n"), M_VECTOR),
        b=st.one_of(st.just("n"), M_VECTOR),
    ),
    _command("count", **{"chain-file": FILE}, cap=VALUE),
    _command("count", "--enumerate", **{"chain-file": FILE}, cap=VALUE),
    st.lists(
        st.sampled_from(["mult", "gl", "simple", "--type", "n", "--g", "2", "bogus", "--format"]),
        max_size=5,
    ),
)

CALL_BOUND_S = 5.0


@contextlib.contextmanager
def _deadline(seconds, argv):
    """Fail a call still running after `seconds` instead of hanging the suite."""

    def expire(signum, frame):
        raise AssertionError(f"{argv} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestExitCodeFuzz:
    @given(argv=ARGV, chain=CHAIN_JSON)
    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    def test_every_input_ends_in_a_documented_code(self, capsys, tmp_path, argv, chain):
        path = tmp_path / "chain.json"
        path.write_text(chain)
        argv = [str(path) if arg == CHAIN_FILE else arg for arg in argv]
        start = time.perf_counter()
        with _deadline(CALL_BOUND_S, argv):
            code, _, err = invoke(capsys, argv)
        elapsed = time.perf_counter() - start
        assert code in (0, 2, 3, 64), (argv, err)
        assert "Traceback" not in err
        assert elapsed < CALL_BOUND_S, (argv, elapsed)
