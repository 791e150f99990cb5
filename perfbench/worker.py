"""One workload in one fresh process.

Started by run.py with the package's src directory on PYTHONPATH.  The
process imports the package modules the workload uses, notes the moment
it is ready (that is where set-up ends), then generates its requests and
runs them in a closed loop with one client.  It prints one JSON object
on its last line of standard output.

    python3 perfbench/worker.py --workload W --seed S --trace 0|1
    python3 perfbench/worker.py --workload W --probe    # set-up only

With --trace 0 the worker runs segments on command: each line
"run <seconds>" on standard input runs whole rounds for that long and
is answered by "done"; "finish" ends the run.
"""

import importlib
import sys
from time import perf_counter

SETUP_MODULES = {
    "gl_master": ("higgsmult.multgl",),
    "chain_sweep": ("higgsmult.multgl", "higgsmult.hecke"),
    "simple_roots": ("higgsmult.multsimple",),
    "cli_mix": ("higgsmult.cli",),
}


def _setup(workload: str) -> float:
    for name in SETUP_MODULES[workload]:
        importlib.import_module(name)
    return perf_counter()


if __name__ == "__main__":
    _workload = sys.argv[sys.argv.index("--workload") + 1]
    READY = _setup(_workload)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench"  # run-time files, inside the checkout
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from calib import Clock  # noqa: E402
from stats import beyond_p90, percentile  # noqa: E402

# Rounds replayed by a traced run, fixed per workload so that the
# per-layer counts repeat exactly for a given seed.
TRACE_ROUNDS = {"gl_master": 1, "chain_sweep": 4, "simple_roots": 2, "cli_mix": 12}
MAX_MESSAGES = 5


class Tally:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.scaled: list[float] = []  # latencies at the reference speed
        self.kinds: list[str] = []
        self.answers: list = []
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, request, message: str) -> None:
        self.failed += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(f"{request!r:.200}: {message}")


def run_round(runner, requests, tally: Tally, tracer=None, keep=False, clock=None) -> None:
    """Run one round: time each request, then check its answer.  With a
    calib.Clock, each latency is also kept at the reference speed."""
    for request in requests:
        if tracer is not None:
            tracer.request += 1
        scale = clock.tick() if clock is not None else 1.0
        start = perf_counter()
        try:
            answer = runner.run(request)
            error = None
        except Exception as exc:  # an unexpected raise is a failed request
            answer, error = None, f"raised {type(exc).__name__}: {exc}"
        tally.latencies.append(perf_counter() - start)
        tally.scaled.append(tally.latencies[-1] * scale)
        tally.kinds.append(_kind(request))
        if error is None:
            try:
                error = runner.check(request, answer)
            except Exception as exc:  # a malformed answer is a failed request
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            tally.fail(request, error)
        if keep:
            tally.answers.append(None if error else runner.canonical(request, answer))
        if tracer is not None and request[0] == "cli" and answer is not None:
            tracer.count("cli.report_bytes", len(answer[1].encode()))


def _kind(request) -> str:
    """The rung-like label a request's latency is summarised under."""
    if request[0] == "roots":
        return f"roots.{request[3]}"
    if request[0] == "cli":
        return f"cli.{request[3]}"
    if request[0] == "chain":
        return f"chain.n{len(request[2]) + 1}"
    if request[0] in ("type_n", "pair"):
        return ".".join(map(str, request[:3]))
    return request[0]


def _make_runner(workload: str, seed: int, workdir: Path):
    from runners import Runner, write_chain_files

    if workload != "cli_mix":
        return Runner()
    files = gen.chain_files(seed)
    return Runner(files, write_chain_files(files, str(workdir)))


def untraced(runner, workload, seed, smoke, commands) -> dict:
    """Run whole rounds in segments, one per "run <seconds>" line read
    from `commands`, answering "done" after each; stop at "finish".
    A segment ends once all segments so far have used the seconds asked
    for so far, so a round's overshoot does not add up."""
    tally = Tally()
    source = gen.rounds(workload, seed, smoke)
    clock = Clock()
    n_rounds = 0

    def one_round():
        nonlocal n_rounds
        run_round(runner, next(source), tally, clock=clock)
        n_rounds += 1

    target = spent = 0.0  # seconds asked for and used, over all segments
    for line in commands:
        command = line.split()
        if command[0] == "finish":
            break
        target += float(command[1])
        start = perf_counter()
        while True:
            one_round()
            if smoke or spent + perf_counter() - start >= target:
                break
        spent += perf_counter() - start
        print("done", flush=True)
    while not smoke and beyond_p90(len(tally.latencies)) < 10:
        one_round()
    lat, raw = tally.scaled, tally.latencies
    return {
        "rounds": n_rounds,
        "attempted": len(lat),
        "failed": tally.failed,
        "messages": tally.messages,
        "throughput_rps": (len(lat) - tally.failed) / sum(lat),
        "latency_p50_s": percentile(lat, 50),
        "latency_p90_s": percentile(lat, 90),
        "raw_throughput_rps": (len(raw) - tally.failed) / sum(raw),
        "raw_latency_p50_s": percentile(raw, 50),
        "raw_latency_p90_s": percentile(raw, 90),
        "calibration_probes": clock.probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "by_kind": _by_kind(tally),
    }


def _by_kind(tally: Tally) -> dict:
    groups: dict[str, list[float]] = {}
    for kind, t in zip(tally.kinds, tally.latencies):
        groups.setdefault(kind, []).append(t)
    return {
        k: {"n": len(v), "median_ms": percentile(v, 50) * 1e3, "max_ms": max(v) * 1e3}
        for k, v in sorted(groups.items())
    }


def traced(runner, workload, seed, smoke, spans_path: Path) -> dict:
    """Replay a fixed number of rounds: one warm-up pass, then every
    request once untraced and once traced, back to back, alternating
    which goes first so neither side gets the warmer caches or the
    quieter spell of the machine."""
    from tracer import Tracer

    source = gen.rounds(workload, seed, smoke)
    n_rounds = 1 if smoke else TRACE_ROUNDS[workload]
    requests = [request for _ in range(n_rounds) for request in next(source)]
    warm = Tally()
    run_round(runner, requests, warm)
    plain, with_spans = Tally(), Tally()
    tracer = Tracer()
    for i, request in enumerate(requests):
        for traced_side in (False, True) if i % 2 == 0 else (True, False):
            if not traced_side:
                run_round(runner, [request], plain, keep=True)
                continue
            tracer.install()
            try:
                run_round(runner, [request], with_spans, tracer=tracer, keep=True)
            finally:
                tracer.uninstall()
    messages = warm.messages + plain.messages + with_spans.messages
    if plain.answers != with_spans.answers:
        differing = sum(a != b for a, b in zip(plain.answers, with_spans.answers))
        messages.append(f"traced answers differ from untraced answers on {differing} requests")
    tracer.write(str(spans_path))
    return {
        "rounds": n_rounds,
        "attempted": 3 * len(requests),
        "failed": warm.failed + plain.failed + with_spans.failed + (plain.answers != with_spans.answers),
        "messages": messages,
        "untraced_s": sum(plain.latencies),
        "traced_s": sum(with_spans.latencies),
        "calls": dict(tracer.calls),
        "self_s": dict(tracer.self_s),
        "counters": dict(tracer.counters),
        "spans": sum(1 for s in tracer.spans if s),
        "spans_file": str(spans_path),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="set up, report, exit")
    parser.add_argument("--smoke", action="store_true", help="one reduced round")
    args = parser.parse_args()
    if args.probe:
        print(json.dumps({"ready": READY}))
        return
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = _make_runner(args.workload, args.seed, workdir)
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            result = traced(runner, args.workload, args.seed, args.smoke, spans)
        else:
            result = untraced(runner, args.workload, args.seed, args.smoke, sys.stdin)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["ready"] = READY
    print(json.dumps(result))


if __name__ == "__main__":
    main()
