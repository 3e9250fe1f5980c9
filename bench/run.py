"""Benchmark of the ``caponshape`` CLI: throughput, set-up time, memory and
per-layer timings on three workloads.

Run from the repository root:

    python3 bench/run.py --workload mc_packaged --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all --trace 1

The CLI entry point ``caponshape.cli.main`` is called in-process, one chunk
(one CLI call) at a time, on configs generated into ``.bench_out/``. With
``--trace 0`` chunks run until ``--seconds`` is spent and the end-to-end
metrics are totals over them; set-up time is the median of fresh processes.
With ``--trace 1`` a fixed window of chunks runs twice each, untraced and
traced, so per-layer figures and counts cover the same inputs on every
commit; the ratio of the two walls is the tracing overhead. Every chunk's
files pass the correctness gate in ``workloads.py`` before any figure is
reported. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# one single-threaded process: pin every BLAS pool before numpy is first
# imported (by the modules below), and in every set-up process started later
os.environ.update({var: "1" for var in THREAD_VARS})

from spans import Recorder, layer_metrics  # noqa: E402
from workloads import WORKLOADS, GateError  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
MIN_CHUNKS = 3

# Set-up as a user pays it: interpreter already up, then import, config load,
# manifold, split and steering vector. Runs in a fresh process per sample.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
from caponshape.arrays import build_manifold, split_manifold, steering_vector
from caponshape.cli import load_run_config
config = load_run_config(sys.argv[1])
geometry = config.scenario.geometry
manifold = build_manifold(geometry, config.manifold_min_deg, config.manifold_max_deg, config.manifold_step_deg)
split_manifold(manifold, config.scenario.presumed_doa_deg, config.b)
steering_vector(geometry, config.scenario.presumed_doa_deg)
print(time.perf_counter() - start)
"""


@dataclass
class Chunk:
    index: int
    wall: float
    cpu: float
    solves: int
    summary: dict


def source_digest(*roots: Path) -> str:
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root.parent)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_facts() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError, AttributeError):
            return "unknown"
        return f"{info.get('name')} {info.get('version')}"

    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # a plain source checkout; source_sha256 identifies the code
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas(numpy),
        "blas_scipy": blas(scipy),
        "threads_env": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "commit": commit,
        "source_sha256": source_digest(SRC / "caponshape"),
        "platform": platform.platform(),
    }


class FingerprintStore:
    """Per-chunk output fingerprints of earlier runs of the same code, so two
    runs at one seed that disagree are flagged."""

    def __init__(self, path: Path, key: str):
        self.path = path
        self.key = key
        try:
            self.data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            self.data = {}

    def check(self, chunk: int, fingerprint: str) -> list:
        seen = self.data.setdefault(self.key, {})
        previous = seen.setdefault(str(chunk), fingerprint)
        if previous != fingerprint:
            return [f"chunk {chunk}: outputs or solve counts differ from an earlier run at this seed"]
        return []

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        tmp.replace(self.path)


def fingerprint(out_dir: Path, recorder) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    counts = {k: [sum(v), len(v), recorder.capped[k], recorder.numerical[k]] for k, v in recorder.iterations.items()}
    digest.update(json.dumps(counts, sort_keys=True).encode())
    return digest.hexdigest()


class Runner:
    def __init__(self, workload, seed: int, store: FingerprintStore):
        from caponshape.cli import main as cli_main

        self.cli_main = cli_main
        self.workload = workload
        self.seed = seed
        self.store = store
        self.dir = OUT / workload.name
        self.out = self.dir / "out"
        self.config_path = self.dir / "config.json"
        packaged = json.loads((SRC / "caponshape" / "data" / "default_config.json").read_text())
        self.config = workload.config(packaged)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.config, indent=2))
        self.errors = []
        # solves of every CLI call of the run, and of those that failed or
        # were rejected; the gate fixes how many solves a passing call makes
        self.attempted = 0
        self.failed = 0

    def run_chunk(self, index: int, recorder) -> Chunk | None:
        """One timed CLI call, then the gate on what it wrote."""
        shutil.rmtree(self.out, ignore_errors=True)
        argv = self.workload.argv(self.config_path, self.out, self.seed, index)
        code = 0
        with recorder.installed():
            cpu0 = time.process_time()
            start = time.perf_counter()
            try:
                recorder.call("cli", self.cli_main, argv, standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu0
        solves = self.workload.solves()
        self.attempted += solves
        if code not in (None, 0):
            self.errors.append(f"chunk {index}: CLI exited with {code}")
            self.failed += solves
            return None
        try:
            summary = self.workload.read(self.out, self.workload.chunk_seed(self.seed, index))
        except GateError as exc:
            self.errors.append(f"chunk {index}: {exc}")
            self.failed += solves
            return None
        self.errors += self.store.check(index, fingerprint(self.out, recorder))
        return Chunk(index, wall, cpu, solves, summary)

    def gate(self, chunks: list) -> None:
        if chunks and not self.errors:
            self.errors += self.workload.check([c.summary for c in chunks], self.seed,
                                               json.loads((BENCH / "reference.json").read_text()), self.config)


def measure_setup(config_path: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for i in range(SETUP_SAMPLES + 1):  # the first sample only warms the bytecode cache
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(config_path)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()}")
        if i:
            samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_timed(runner: Runner, seconds: float) -> tuple:
    setup = measure_setup(runner.config_path)
    chunks = []
    start = time.perf_counter()
    index = 0
    cycle = runner.workload.cycle
    while True:
        chunk = runner.run_chunk(index, Recorder(tracing=False))
        if chunk is None:
            break
        chunks.append(chunk)
        index += 1
        if index % cycle or index < MIN_CHUNKS:
            continue
        # stop at a whole cycle when the next one would overrun the budget
        elapsed = time.perf_counter() - start
        if elapsed + cycle * statistics.median(c.wall for c in chunks) > seconds:
            break
    details = {"setup_samples_s": setup, "chunks": [(c.index, c.wall, c.cpu, c.solves) for c in chunks]}
    if not chunks:
        return chunks, {}, details
    # Throughput is work per CPU second of this single-threaded process.
    # Wall time adds the time the process was off the CPU: on a shared VM,
    # hypervisor steal that took up to 13% of a run and drifts over minutes.
    # cpu_per_wall keeps that share, and extra threads, in view.
    trials = len(chunks) * runner.workload.trials()
    solves = sum(c.solves for c in chunks)
    wall = sum(c.wall for c in chunks)
    cpu = sum(c.cpu for c in chunks)
    details.update({"trials_per_wall_s": trials / wall, "solves_per_wall_s": solves / wall})
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "trials_per_cpu_s": (trials / cpu, "1/s"),
        "solves_per_cpu_s": (solves / cpu, "1/s"),
        "cpu_per_wall": (cpu / wall, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return chunks, metrics, details


def run_traced(runner: Runner, spans_path: Path) -> tuple:
    chunks, recorders = [], []
    walls = {False: 0.0, True: 0.0}
    for index in range(runner.workload.trace_chunks):
        # alternate which pass runs first, so neither gets the warmer caches
        for tracing in (False, True) if index % 2 == 0 else (True, False):
            recorder = Recorder(tracing=tracing)
            chunk = runner.run_chunk(index, recorder)
            if chunk is None:
                return chunks, {}, {}
            walls[tracing] += chunk.wall
            if tracing:
                chunks.append(chunk)
                recorders.append(recorder)
    metrics = layer_metrics(recorders)
    metrics["trace.overhead"] = (walls[True] / walls[False], "ratio")
    with open(spans_path, "w") as handle:
        for chunk, recorder in zip(chunks, recorders):
            for span_id, parent, name, begin, end, leaves in recorder.spans:
                handle.write(json.dumps({"chunk": chunk.index, "id": span_id, "parent": parent, "name": name,
                                         "start": begin, "end": end, "leaves": leaves}) + "\n")
    details = {"traced_wall_s": walls[True], "untraced_wall_s": walls[False], "spans_file": str(spans_path)}
    return chunks, metrics, details


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    facts = machine_facts()
    # keyed by the program and the benchmark code, since both decide the inputs
    store = FingerprintStore(OUT / "fingerprints.json", f"{name}:{seed}:{source_digest(SRC / 'caponshape', BENCH)}")
    runner = Runner(workload, seed, store)
    tag = f"{name}_seed{seed}_trace{int(trace)}"
    if trace:
        chunks, metrics, details = run_traced(runner, OUT / f"spans_{tag}.jsonl")
    else:
        chunks, metrics, details = run_timed(runner, seconds)
    runner.gate(chunks)
    store.save()
    correct = not runner.errors
    report = {"workload": name, "seed": seed, "trace": trace, "machine": facts, "errors": runner.errors,
              "metrics": metrics, "details": details, "chunk_summaries": [c.summary for c in chunks]}
    (OUT / f"report_{tag}.json").write_text(json.dumps(report, indent=1))
    for error in runner.errors:
        print(f"gate: {error}", file=sys.stderr)
    print(json.dumps({"machine": facts}))
    result = {
        "correct": correct,
        "attempted": max(1, runner.attempted),
        "failed": runner.failed,
        # a run that fails the gate is not reported as timed
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()} if correct else {},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process (peak memory is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
        print(f"{name}: {json.dumps(result)}")
        combined["correct"] &= proc.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "caponshape" / "__init__.py").is_file():
        print(f"error: no caponshape sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import caponshape

    if Path(caponshape.__file__).resolve().parent != (SRC / "caponshape").resolve():
        print(f"error: imported caponshape from {caponshape.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected all or one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
