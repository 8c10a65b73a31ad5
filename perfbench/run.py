"""Closed-loop benchmark of wtl on four seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N    # the four in turn

One client sends one request at a time and the next only after the
previous returns; there are no threads.  Requests come from the seeded
stream in `workloads.py`; the program gets only their bytes and argv.

A run times one block of requests: whole workload cycles, as many as
keep the program busy for about S seconds.  The block is fixed by the
workload, the seed and S, so the request count and the failures repeat
exactly between runs.  After the warm-up requests (from a disjoint
seed), each request of the block is timed with the clock stopped
between requests, so the benchmark's own request generation is not
counted.  Set-up (`import wtl.cli` and, on mc-large, `parse_wts` of the
models) is timed in SETUP_SAMPLES fresh interpreters.

On a shared host the machine's speed drifts by up to half for seconds
or minutes at a time, which would swamp any change in the program.  So
before each request, and around each set-up, the benchmark also times a
fixed piece of its own Python (`reference_ns`), and every time is
scaled by REFERENCE_NS over the median of the reference timings nearest
to it: the figures are in ms (or s) at the machine's usual speed.

Every answer is checked after the timed phase (`checks.py`), and one
digest line per request is written to perfbench/out/.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced pass over the first half of the block, made in a fresh
interpreter, whose digests must equal those of an untraced pass.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import logic  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
# Mean request time of each workload in ms on a 2-core x86-64 VM; it
# sizes a run's block and nothing else.
MEAN_MS = {"mc-large": 119, "minimize": 51, "decide": 41, "axioms-small": 183}
CHILD_TIMEOUT_S = 150
# The reference piece of Python, and its usual time on that VM.
REFERENCE_MODEL = workloads.random_model(random.Random("reference"), 60, 3, ("p", "q"))
REFERENCE_FORMULAS = [workloads.small_formula(random.Random(f"reference/{i}"), 4, 3, ("p", "q"))
                      for i in range(3)]
REFERENCE_NS = 1_300_000
# Reference timings on either side of a request that set its speed.
REFERENCE_WINDOW = 4
KNOWN_FAILURES = json.loads((HERE / "workloads.json").read_text())["known_seed_failures"]


def reference_ns() -> int:
    """Time the benchmark's own evaluator on a fixed model and formulas:
    set and dict work like the program's, in code no change to the
    program touches, so its time is the machine's speed at this moment."""
    start = time.perf_counter_ns()
    for formula in REFERENCE_FORMULAS:
        logic.satisfying(REFERENCE_MODEL, formula)
    return time.perf_counter_ns() - start


def at_usual_speed(times, references):
    """Scale each time by REFERENCE_NS over the median of the reference
    timings within REFERENCE_WINDOW places of it."""
    scaled = []
    for i, value in enumerate(times):
        near = references[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW + 1]
        scaled.append(value * REFERENCE_NS / statistics.median(near))
    return scaled


def quantile(values, p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) distribution.  A
    single order statistic jumps with the one request nearest to the
    quantile; this weighs the few on either side, which matters for a
    p90 that lies among the costliest requests of a seeded mix."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 64     # midpoint rule within each of the n intervals
    weights = []
    for i in range(n):
        xs = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
                           for x in xs))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def block_size(workload: str, seconds: float) -> int:
    """Requests in a run: about `seconds` of busy time, in whole
    workload cycles, so every run holds the request classes and
    sizes in the same proportions."""
    cycle = workloads.CYCLE[workload]
    cycles = round(seconds * 1000 / (MEAN_MS[workload] * cycle))
    return cycle * max(1, cycles)


def require_program() -> None:
    if not (SRC / "wtl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no wtl sources at {SRC}; run from a checkout of the repository")


def load_program():
    """Import `wtl` from this checkout's sources, and nowhere else."""
    require_program()
    sys.path.insert(0, str(SRC))
    import wtl.cli  # noqa: F401
    return sys.modules["wtl"]


def model_blobs(workload: str, seed: int) -> list[bytes]:
    """The model files mc-large's set-up parses, made by the benchmark."""
    return [m.to_json() for m in workloads.mc_models(seed)] if workload == "mc-large" else []


class Session:
    """The program side of one workload process."""

    def __init__(self, wtl, workload: str, seed: int, tracer=None, blobs=None):
        self.wtl = wtl
        self.workload = workload
        self.tracer = tracer
        # Only the model bytes outlive set-up: the benchmark's own copies
        # are rebuilt for checking, so they do not sit in the heap the
        # program's garbage collector walks during the timed phase.
        self.blobs = model_blobs(workload, seed) if blobs is None else blobs
        self.loaded = [wtl.wts.parse_wts(blob) for blob in self.blobs]
        OUT.mkdir(exist_ok=True)
        self.witness = OUT / f"witness-{os.getpid()}.json"

    def stream(self, seed: int, name: str) -> workloads.Stream:
        return workloads.Stream(self.workload, seed, name, str(self.witness))

    def execute(self, request: dict):
        wtl = self.wtl
        try:
            if self.workload == "mc-large":
                return ("value", wtl.formulas.model_check(
                    self.loaded[request["model"]], request["state"],
                    wtl.formulas.parse_formula(request["formula"])))
            return ("cli",) + tuple(wtl.cli.run(request["argv"], request["stdin"])) + (None,)
        except Exception as e:  # a raising request is a failed request, not a crash
            return ("raised", f"{type(e).__name__}: {e}")

    def collect(self, output):
        """Pick up the model a `sat --emit-model` request wrote."""
        if output[0] == "cli" and self.witness.exists():
            output = output[:4] + (self.witness.read_bytes(),)
            self.witness.unlink()
        return output

    def loop(self, stream, count: int, references=None):
        """Closed loop over the first `count` requests of `stream`; with a
        `references` list, times the reference piece before each request."""
        latencies, outputs = [], []
        clock = time.perf_counter_ns
        for i in range(count):
            request = stream[i]
            if self.tracer is not None:
                self.tracer.request = i
            if references is not None:
                references.append(reference_ns())
            start = clock()
            output = self.execute(request)
            elapsed = clock() - start
            outputs.append(self.collect(output))
            latencies.append(elapsed)
        return latencies, outputs

    def warm_up(self, seed: int) -> None:
        stream = self.stream(seed, "warmup")
        for i in range(workloads.WARMUP[self.workload]):
            self.collect(self.execute(stream[i]))


def verify(session: Session, seed: int, outputs) -> tuple[dict, list, list]:
    """Check every output; returns failure counts by reason, the failures
    no known seed failure explains, and the digest lines."""
    stream = session.stream(seed, "timed")
    models = workloads.mc_models(seed) if session.workload == "mc-large" else None
    counts = {"error": 0, "wrong_answer": 0, "unverified": 0}
    unknown, lines = [], []
    for i, output in enumerate(outputs):
        request = stream[i]
        lines.append(checks.digest_line(i, request, output))
        verdict = checks.check(session.workload, request, output, models)
        if verdict is None:
            continue
        reason, detail = verdict
        counts[reason] += 1
        if not any(k["workload"] == session.workload and request["cls"].startswith(k["class"])
                   and (k["reason"], k["detail"]) == verdict for k in KNOWN_FAILURES):
            unknown.append(f"request {i} ({request['cls']}): {reason}: {detail}")
    return counts, unknown, lines


def write_digests(name: str, lines) -> Path:
    path = OUT / f"{name}.digests"
    path.write_text("\n".join(lines) + "\n")
    return path


def setup_probe() -> dict:
    """One set-up sample, in a fresh interpreter.  stdin holds a header
    line of byte lengths, then the model files back to back; they are
    read before the clock starts."""
    data = sys.stdin.buffer.read()
    header, _, rest = data.partition(b"\n")
    blobs, offset = [], 0
    for length in map(int, header.split()):
        blobs.append(rest[offset:offset + length])
        offset += length
    around = [reference_ns() for _ in range(REFERENCE_WINDOW + 1)]
    start = time.perf_counter_ns()
    wtl = load_program()
    for blob in blobs:
        wtl.wts.parse_wts(blob)
    elapsed = time.perf_counter_ns() - start
    around += [reference_ns() for _ in range(REFERENCE_WINDOW + 1)]
    return {"setup_s": elapsed * REFERENCE_NS / statistics.median(around) / 1e9}


def run_self(args, *extra, stdin=b"") -> dict:
    """Run this script in a fresh interpreter and return its JSON result."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), *extra],
        input=stdin, stdout=subprocess.PIPE, check=True, timeout=CHILD_TIMEOUT_S,
    )
    return json.loads(done.stdout.decode().splitlines()[-1])


def end_to_end(args) -> dict:
    n = block_size(args.workload, args.seconds)
    blobs = model_blobs(args.workload, args.seed)
    frames = " ".join(str(len(b)) for b in blobs).encode() + b"\n" + b"".join(blobs)
    setup = [run_self(args, "--setup-probe", stdin=frames)["setup_s"]
             for _ in range(SETUP_SAMPLES)]
    session = Session(load_program(), args.workload, args.seed, blobs=blobs)
    session.warm_up(args.seed)
    references = []
    raw, outputs = session.loop(session.stream(args.seed, "timed"), n, references)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counts, unknown, lines = verify(session, args.seed, outputs)
    ms = [x / 1e6 for x in at_usual_speed(raw, references)]
    failed = sum(counts.values())
    metrics = {
        "latency_p50_ms": (quantile(ms, 0.5), "ms", n),
        "latency_p90_ms": (quantile(ms, 0.9), "ms", n),
        "throughput_rps": (n / (sum(ms) / 1e3), "1/s", n),
        "ok_ratio": ((n - failed) / n, "ratio", n),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    path = write_digests(f"{args.workload}-s{args.seed}", lines)
    speed = REFERENCE_NS / statistics.median(references)
    print(f"workload {args.workload}  seed {args.seed}  requests {n}  busy {sum(raw) / 1e9:.2f} s  "
          f"speed {speed:.3f}  digest {checks.combined_digest(lines)} ({path.name})")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<16}{value:>14.4f} {unit:<6}n={samples}")
    print(f"  {'fail_ratio':<16}{failed / n:>14.4f} {'ratio':<6}n={n}  "
          + "  ".join(f"fail.{k}={v}" for k, v in counts.items()))
    for line in unknown[:20]:
        print(f"  UNEXPECTED {line}")
    return {"correct": not unknown, "attempted": n, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}


def traced_pass(args) -> dict:
    """The traced half of a --trace 1 run, in its own interpreter."""
    import tracing
    tracer = tracing.Tracer()
    session = Session(load_program(), args.workload, args.seed, tracer)
    session.warm_up(args.seed)
    tracer.install()
    stream = session.stream(args.seed, "timed")
    latencies, outputs = session.loop(stream, args.requests)
    tracer.uninstall()
    tracer.write_spans(OUT / f"{args.workload}-s{args.seed}.spans.jsonl")
    lines = [checks.digest_line(i, stream[i], out) for i, out in enumerate(outputs)]
    return {"busy_ns": sum(latencies), "digests": lines, "layers": tracer.layer_metrics()}


def per_layer(args) -> dict:
    # Tracing slows minimize threefold, so the traced pass covers the
    # first half of the block, to end well within a run's time limit.
    n = block_size(args.workload, args.seconds / 2)
    session = Session(load_program(), args.workload, args.seed)
    session.warm_up(args.seed)
    latencies, outputs = session.loop(session.stream(args.seed, "timed"), n)
    counts, unknown, lines = verify(session, args.seed, outputs)
    traced = run_self(args, "--requests", str(n), "--traced-pass")
    write_digests(f"{args.workload}-s{args.seed}-traced", traced["digests"])
    if traced["digests"] != lines:
        unknown.append("traced and untraced digests differ")
    layers = traced["layers"]
    layers["trace.overhead_ratio"] = traced["busy_ns"] / sum(latencies)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"] for metric in benchmark["per_layer"]}
    print(f"workload {args.workload}  seed {args.seed}  traced requests {n}  "
          f"digest {checks.combined_digest(lines)}  "
          f"traced digest {'equal' if traced['digests'] == lines else 'DIFFERENT'}")
    for name in units:
        print(f"  {name:<44}{layers[name]:>14.4f} {units[name]}")
    for line in unknown[:20]:
        print(f"  UNEXPECTED {line}")
    return {"correct": not unknown, "attempted": n, "failed": sum(counts.values()),
            "metrics": {k: {"value": layers[k], "unit": u} for k, u in units.items()}}


def run_all(args) -> dict:
    """Each workload in turn, in its own process."""
    results = {}
    for workload in workloads.SCHEDULES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=600,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[workload] = json.loads(lines[-1])
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SCHEDULES) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    require_program()
    if args.workload == "all":
        result = run_all(args)
    elif args.setup_probe:
        result = setup_probe()
    elif args.traced_pass:
        result = traced_pass(args)
    elif args.trace:
        result = per_layer(args)
    else:
        result = end_to_end(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
