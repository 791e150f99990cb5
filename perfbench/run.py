"""Benchmark of the higgsmult package: one workload per invocation.

    python3 perfbench/run.py --workload gl_master --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke            # every workload, briefly

Run from the root of a checkout that holds src/higgsmult.  --trace 0
times whole requests and prints the end-to-end metrics; --trace 1
replays a fixed number of rounds with spans recorded around the
package's public functions and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import gen  # noqa: E402
from checks import cli_result_check  # noqa: E402
from stats import beyond_p90  # noqa: E402
from tracer import LAYERS  # noqa: E402

SEGMENTS = 8
COLD_PER_SEGMENT = 3
IMPORT_SAMPLES = 5
WORKER_TIMEOUT_S = 150
CALL_TIMEOUT_S = 30
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import higgsmult.cli; "
    "print((time.perf_counter() - t) * 1000)"
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def _call(argv, timeout) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(
            argv, capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out after {timeout} s: {' '.join(argv)}")


def _worker(args, *extra) -> tuple[dict, float]:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, *extra]
    start = perf_counter()
    proc = _call(argv, WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - start


def _setup_sample(args) -> float:
    return _worker(args, "--probe")[1]


def _bare_start() -> float:
    """Wall time of a bare `python -c pass`, which imports nothing of
    the package: the calibrator of process start-up times."""
    start = perf_counter()
    proc = _call([sys.executable, "-c", "pass"], CALL_TIMEOUT_S)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"python -c pass exited with {proc.returncode}")
    return elapsed


class StartScale:
    """Takes process start-up times to the reference speed: each time is
    scaled by the mean of the bare start-ups timed just before and just
    after it (calib.START_REFERENCE_S over that mean)."""

    def __init__(self) -> None:
        self.restart()

    def restart(self) -> None:
        """Time a fresh bare start-up to scale the next time by."""
        self.last = _bare_start()

    def __call__(self, raw: float) -> tuple[float, float]:
        """(raw, scaled) for a time measured since the last call."""
        after = _bare_start()
        scaled = raw * calib.START_REFERENCE_S / ((self.last + after) / 2)
        self.last = after
        return raw, scaled


def _cold_call(request) -> tuple[float, str | None]:
    """Time one one-shot CLI process and check its report."""
    _, argv, expected, tag, params = request
    start = perf_counter()
    proc = _call([sys.executable, "-m", "higgsmult.cli", *argv], CALL_TIMEOUT_S)
    elapsed = perf_counter() - start
    return elapsed, _cold_call_error(proc, argv, expected, tag, params)


def _cold_call_error(proc, argv, expected, tag, params) -> str | None:
    if proc.returncode != expected:
        return f"cold call {' '.join(argv)}: exit {proc.returncode}, expected {expected}"
    try:
        error = cli_result_check(tag, params, json.loads(proc.stdout)["result"], [])
    except (ValueError, KeyError, TypeError) as exc:
        error = f"malformed report: {exc!r}"
    return error and f"cold call {' '.join(argv)}: {error}"


def _segmented_worker(args, smoke: bool, between) -> dict:
    """Run the timed worker in SEGMENTS pieces of the run's seconds,
    calling `between()` while it waits after each piece."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--trace", "0", *(["--smoke"] if smoke else [])]
    segments = 1 if smoke else SEGMENTS
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        for _ in range(segments):
            proc.stdin.write(f"run {args.seconds / segments}\n")
            proc.stdin.flush()
            if proc.stdout.readline().strip() != "done":
                break
            between()
        else:
            proc.stdin.write("finish\n")
        out, err = proc.communicate()
    except OSError:  # the worker died and closed its pipes
        out, err = "", ""
    finally:
        timed_out = not timer.is_alive()
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        cause = f"timed out after {WORKER_TIMEOUT_S} s" if timed_out else f"exited with {proc.returncode}"
        raise BenchError(f"worker {cause}:\n{(err or '')[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _import_ms(samples: int) -> float:
    times = []
    for i in range(samples + 1):
        proc = _call([sys.executable, "-c", IMPORT_SNIPPET], CALL_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"importing higgsmult.cli failed:\n{proc.stderr[-2000:]}")
        if i:
            times.append(float(proc.stdout.strip()))
    return median(times)


def end_to_end(args, smoke: bool) -> tuple[dict, dict]:
    """One set-up probe and COLD_PER_SEGMENT cold calls run after each
    segment of the worker, and one more set-up probe at the end, so
    their medians sample the whole run as the rounds do.  Each is kept
    as a pair (raw, at the reference speed)."""
    per_segment = 1 if smoke else COLD_PER_SEGMENT
    calls = iter(gen.cold_calls(args.workload, args.seed,
                                1 + per_segment * (1 if smoke else SEGMENTS)))
    # untimed warm-ups fill the file and bytecode caches
    _setup_sample(args)
    failures = [e for e in [_cold_call(next(calls))[1]] if e]
    setups, cold = [], []
    scale = StartScale()

    def between():
        setups.append(scale(_setup_sample(args)))
        for _ in range(per_segment):
            elapsed, error = _cold_call(next(calls))
            cold.append(scale(elapsed))
            failures.extend([error] if error else [])

    res = _segmented_worker(args, smoke, between)
    scale.restart()
    setups.append(scale(_setup_sample(args)))
    metrics = {
        "throughput_rps": (res["throughput_rps"], "1/s"),
        "latency_p50_ms": (res["latency_p50_s"] * 1e3, "ms"),
        "latency_p90_ms": (res["latency_p90_s"] * 1e3, "ms"),
        "setup_s": (median(s for _, s in setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "cold_call_ms": (median(s for _, s in cold) * 1e3, "ms"),
    }
    info = {
        "raw": {
            "throughput_rps": res["raw_throughput_rps"],
            "latency_p50_ms": res["raw_latency_p50_s"] * 1e3,
            "latency_p90_ms": res["raw_latency_p90_s"] * 1e3,
            "setup_s": median(r for r, _ in setups),
            "cold_call_ms": median(r for r, _ in cold) * 1e3,
        },
        "calibration_probes": res["calibration_probes"],
        "rounds": res["rounds"],
        "requests": res["attempted"],
        "latency_samples": res["attempted"],
        "beyond_p90": beyond_p90(res["attempted"]),
        "setup_samples": len(setups),
        "cold_call_samples": len(cold),
        "attempted": res["attempted"] + len(cold) + 1,
        "failed": res["failed"] + len(failures),
        "messages": res["messages"] + failures,
        "by_kind": res["by_kind"],
    }
    return metrics, info


def per_layer(args, smoke: bool) -> tuple[dict, dict]:
    res, _ = _worker(
        args, "--seed", str(args.seed), "--trace", "1", *(["--smoke"] if smoke else []),
    )
    calls, self_s, counters = res["calls"], res["self_s"], res["counters"]

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}

    def fn(name, *kinds):
        for kind in kinds:
            if kind == "calls":
                m[f"{name}.calls"] = (calls.get(name, 0), "count")
            else:
                m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")

    fn("polyalg.expand", "calls", "self_s")
    m["polyalg.expand.max_degree"] = (counters.get("polyalg.expand.max_degree", 0), "count")
    m["polyalg.expand.not_polynomial"] = (counters.get("polyalg.expand.not_polynomial", 0), "count")
    fn("polyalg.series_expand", "calls", "self_s")
    fn("polyalg.divides", "calls", "self_s")
    fn("multgl.mult_type_n", "calls", "self_s")
    fn("multgl.master_divisibility", "calls", "self_s")
    fn("multgl.euler_pairing_series", "self_s")
    fn("multgl.mult_type111", "calls", "self_s")
    m["multgl.expand_per_result"] = (
        ratio(counters.get("multgl.expand_under", 0), counters.get("multgl.top_calls", 0)),
        "ratio",
    )
    fn("chain", "calls")
    fn("hecke", "calls")
    m["hecke.add_success_ratio"] = (
        ratio(counters.get("hecke.add.successes", 0), counters.get("hecke.add.attempts", 0)),
        "ratio",
    )
    m["hecke.enumerate.points"] = (counters.get("hecke.enumerate.points", 0), "count")
    fn("rootsys.build", "calls", "self_s")
    m["rootsys.build.roots"] = (counters.get("rootsys.build.roots", 0), "count")
    fn("rootsys.levi_degrees", "self_s")
    fn("rootsys.weyl_orbit_minuscule", "self_s")
    m["rootsys.weyl_orbit_minuscule.orbit_size"] = (
        counters.get("rootsys.weyl_orbit_minuscule.orbit_size", 0),
        "count",
    )
    fn("multsimple.mult_simple", "self_s")
    fn("multsimple.gross_check", "self_s")
    fn("multsimple.polynomiality_scan", "self_s")
    m["multsimple.scan.points"] = (counters.get("multsimple.scan.points", 0), "count")
    m["multsimple.scan.polynomial_ratio"] = (
        ratio(counters.get("multsimple.scan.polynomial", 0), counters.get("multsimple.scan.points", 0)),
        "ratio",
    )
    m["cli.run.calls"] = (calls.get("cli.run", 0), "count")
    m["cli.run.self_ms"] = (self_s.get("cli.run", 0.0) * 1e3, "ms")
    m["cli.report_bytes"] = (counters.get("cli.report_bytes", 0), "bytes")
    m["cli.import_ms"] = (_import_ms(1 if smoke else IMPORT_SAMPLES), "ms")
    m["trace.overhead_ratio"] = (ratio(res["traced_s"], res["untraced_s"]), "ratio")
    spanned = 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
        share = ratio(self_s.get(layer, 0.0), res["traced_s"])
        m[f"{layer}.self_share"] = (share, "ratio")
        spanned += share
    m["unspanned.self_share"] = (max(0.0, 1.0 - spanned), "ratio")
    info = {
        "rounds": res["rounds"],
        "requests": res["attempted"],
        "spans": res["spans"],
        "spans_file": res["spans_file"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "messages": res["messages"],
    }
    return m, info


def bench(args, smoke: bool = False) -> dict:
    metrics, info = (per_layer if args.trace else end_to_end)(args, smoke)
    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}{' smoke' if smoke else ''}")
    for key in ("rounds", "requests", "latency_samples", "beyond_p90", "setup_samples",
                "cold_call_samples", "calibration_probes", "spans", "spans_file"):
        if key in info:
            print(f"# {key} = {info[key]}")
    print(f"# fail_ratio = {info['failed'] / info['attempted']} "
          f"({info['failed']} of {info['attempted']} requests)")
    for message in info["messages"]:
        print(f"# FAILED {message}")
    for kind, row in info.get("by_kind", {}).items():
        print(f"# kind {kind:<20} n={row['n']:<6} median_ms={row['median_ms']:.3f} "
              f"max_ms={row['max_ms']:.3f}")
    for name, value in info.get("raw", {}).items():
        print(f"# raw {name} = {value} (as measured, before calibration)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    result = {
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return result


def main() -> int:
    # On SIGTERM, unwind as on an error, so that the child in flight is
    # killed and waited for (by subprocess.run and _segmented_worker).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one reduced round; without --workload, every workload in both modes")
    args = parser.parse_args()
    if not (SRC / "higgsmult" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'higgsmult'}", file=sys.stderr)
        return 2
    try:
        if args.workload:
            bench(args, args.smoke)
            return 0
        if not args.smoke:
            parser.error("--workload is required unless --smoke is given")
        ok = True
        for workload in gen.WORKLOADS:
            for trace in (0, 1):
                args.workload, args.trace = workload, trace
                ok &= bench(args, smoke=True)["correct"]
        return 0 if ok else 1
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
