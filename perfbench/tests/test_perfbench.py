"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests        # or: python3 -m unittest discover perfbench/tests

They need the package source in src/ beside perfbench/, as the
benchmark does.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calib  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
from runners import Runner  # noqa: E402
from calib import Clock  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Tally, run_round  # noqa: E402


def _result_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


class CorruptedAnswers(unittest.TestCase):
    def _run(self, requests, corrupt):
        runner = Runner()
        run = runner.run
        runner.run = lambda request: corrupt(request, run(request))
        tally = Tally()
        run_round(runner, requests, tally)
        return tally

    def test_clean_answers_pass(self):
        requests = [("type_n", 2, 3), ("type12", 3, 1), ("chain", 3, [1, 2], 0, 2, 1, 1, True)]
        self.assertEqual(self._run(requests, lambda r, a: a).failed, 0)

    def test_wrong_coefficient_counts_as_failed(self):
        def corrupt(request, answer):
            if request == ("type_n", 2, 3):
                factored, coeffs = answer
                return factored, coeffs[:1] + (coeffs[1] + 1,) + coeffs[2:]
            return answer

        tally = self._run([("type_n", 2, 3), ("type_n", 2, 4)], corrupt)
        self.assertEqual(tally.failed, 1)
        self.assertEqual(len(tally.latencies), 2)

    def test_wrong_count_and_raise_count_as_failed(self):
        def corrupt(request, answer):
            if request[1] == 3:
                return answer[:5] + (answer[5] + 1,) + answer[6:]
            raise RuntimeError("boom")

        requests = [("chain", 3, [1, 2], 0, 2, 1, 1, True), ("chain", 4, [1], 0, 1, 1, 1, False)]
        self.assertEqual(self._run(requests, corrupt).failed, 2)

    def test_unexpected_exit_code_counts_as_failed(self):
        runner = Runner()
        tally = Tally()
        # a valid request that claims to expect a usage error
        run_round(runner, [("cli", ["rootinfo", "--type", "G", "--rank", "2"], 64, "exit", [])], tally)
        self.assertEqual(tally.failed, 1)


class Generation(unittest.TestCase):
    def _first(self, workload, seed, count=2):
        source = gen.rounds(workload, seed)
        return [next(source) for _ in range(count)]

    def test_same_seed_same_requests(self):
        for workload in gen.WORKLOADS:
            self.assertEqual(self._first(workload, 5), self._first(workload, 5))

    def test_other_seed_other_inputs_same_rungs(self):
        for workload in gen.WORKLOADS:
            a, b = self._first(workload, 5, 1)[0], self._first(workload, 6, 1)[0]
            self.assertNotEqual(sorted(map(repr, a)), sorted(map(repr, b)), workload)
            self.assertEqual(len(a), len(b), workload)
            rung = {
                "gl_master": lambda r: r[:3] if r[0] in ("type_n", "pair") else r[0],
                "chain_sweep": lambda r: (
                    len(r[2]) + 1,
                    checks.type111_value(len(r[2]) + 1, r[2]) == gen.BIG_ENUMERATION,
                ),
                "simple_roots": lambda r: r[3],
                "cli_mix": lambda r: (r[2], r[3]),
            }[workload]
            self.assertEqual(sorted(map(repr, map(rung, a))), sorted(map(repr, map(rung, b))), workload)


class Stratification(unittest.TestCase):
    def test_one_value_in_each_slice(self):
        values = gen._strata(gen._rng("t", 1, "x"), 200, 400, 12)
        width = 201 / 12
        for k, v in enumerate(values):
            self.assertTrue(200 + k * width <= v < 200 + (k + 1) * width, (k, v))

    def test_gl_sizes_do_not_follow_the_seed(self):
        def mdiv(seed):
            return sorted(r for r in self._round("gl_master", seed) if r[0] == "mdiv")

        self.assertEqual(mdiv(1), mdiv(2))
        self.assertEqual(len(self._round("gl_master", 1)) % 2, 1)

    def test_root_types_do_not_follow_the_seed(self):
        def types(seed):
            return sorted(r[1:4] for r in self._round("simple_roots", seed))

        self.assertEqual(types(1), types(2))

    @staticmethod
    def _round(workload, seed):
        return next(gen.rounds(workload, seed))


class Calibration(unittest.TestCase):
    def test_clock_scales_to_the_reference_speed(self):
        clock = Clock()
        for _ in range(calib.WINDOW + 1):
            clock.last -= calib.EVERY_S  # as if EVERY_S had passed
            factor = clock.tick()
        self.assertEqual(clock.probes, calib.WINDOW + 2)
        self.assertEqual(len(clock.recent), calib.WINDOW)
        self.assertAlmostEqual(factor, calib.REFERENCE_S / sorted(clock.recent)[calib.WINDOW // 2])

    def test_run_round_keeps_raw_and_scaled_latencies(self):
        tally = Tally()
        run_round(Runner(), [("type_n", 2, 3), ("type12", 3, 1)], tally, clock=Clock())
        self.assertEqual(len(tally.scaled), 2)
        self.assertTrue(all(s > 0 for s in tally.scaled))


class Checks(unittest.TestCase):
    def test_quantum_binomial(self):
        exps = checks.type111_exps(4, [0, 1, 0])
        self.assertIsNone(checks.check_polynomial((1, 1, 2, 1, 1), exps))
        self.assertIsNotNone(checks.check_polynomial((1, 2, 2, 2, 1), exps))
        self.assertEqual(checks.expand_exact(exps), [1, 1, 2, 1, 1])

    def test_divisibility_mod_p(self):
        self.assertTrue(checks.divides_mod_p({2: 3, 1: -3}))
        self.assertFalse(checks.divides_mod_p({3: 5, 1: -6}))

    def test_levi_tables(self):
        self.assertEqual(checks.levi_degrees_expected("A", 4, 2), (1, 2, 2, 3))
        self.assertEqual(checks.levi_degrees_expected("D", 5, 1), (1, 2, 4, 4, 6))
        self.assertEqual(checks.levi_degrees_expected("D", 5, 5), (1, 2, 3, 4, 5))


class Tracing(unittest.TestCase):
    def test_bindings_are_wrapped_and_restored(self):
        from higgsmult import multgl, polyalg

        expand = polyalg.expand
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(multgl.expand, expand)
            self.assertIs(multgl.expand, polyalg.expand)
            Runner().run(("chain", 3, [1, 2], 0, 2, 1, 1, False))
        finally:
            tracer.uninstall()
        self.assertIs(multgl.expand, expand)
        self.assertIs(polyalg.expand, expand)
        self.assertEqual(tracer.counters["multgl.expand_under"], 2)
        self.assertEqual(tracer.counters["multgl.top_calls"], 1)
        for span in tracer.spans:
            self.assertLessEqual(span[4], span[5])


class Smoke(unittest.TestCase):
    """One reduced round of every workload, in both modes."""

    @classmethod
    def setUpClass(cls):
        cls.proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--smoke"],
            capture_output=True, text=True, cwd=ROOT, timeout=300,
        )
        cls.results = _result_lines(cls.proc.stdout)

    def test_every_workload_runs_correctly(self):
        self.assertEqual(self.proc.returncode, 0, self.proc.stderr[-2000:])
        self.assertEqual(len(self.results), 2 * len(gen.WORKLOADS))
        for result in self.results:
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(gen.WORKLOADS))
        for i, result in enumerate(self.results):
            expected = per_layer if i % 2 else end_to_end
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, expected)


class MissingProgram(unittest.TestCase):
    def test_exits_nonzero_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "gl_master", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=tmp, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(_result_lines(proc.stdout), [])


if __name__ == "__main__":
    unittest.main()
