"""Compare the benchmark's solves between two source trees, solve by solve.

``dump`` runs, in process, the solves of a tree's benchmark at benchmark
seed 0 and writes one JSON file:

* ``mc_packaged`` chunks 0-11 (scenario seeds 7-306, mismatch 0 and 3 deg,
  the criterion-10 gammas): kind, mismatch, seed, status, iterations and
  SINR (dB) of every trial;
* the four ``gamma_tune`` sweeps (held-out draws 6-9, 41 gammas per shaped
  method): each grid point's gamma, SINR and status, and the selected one;
* the SHA-256 digest of every file that the CLI ``montecarlo`` writes for
  ``mc_packaged`` chunks 0-11 and ``capon_large_k`` chunks 0-3, run as the
  benchmark runs them. The trials above come from one ``monte_carlo`` call
  per mismatch value, which every tree accepts; the CLI runs take the
  tree's own path, where one call serves all of a chunk's mismatch values.

``diff`` reads two such files and prints, per kind, the status changes, how
many solves changed their iterations and by how much at most, the iteration
sums, and the largest SINR difference; then, per kind over the sweeps, the
changed selections and the largest SINR difference at a grid point; then
the CLI output files whose digests differ. It exits 1, and says why on its
last line, when any status (of a trial or a grid point) or any sweep
selection changed.

    OPENBLAS_NUM_THREADS=1 python3 tools/compare_solves.py dump PARENT_TREE parent.json
    OPENBLAS_NUM_THREADS=1 python3 tools/compare_solves.py dump . change.json
    python3 tools/compare_solves.py diff parent.json change.json

A tree is a checkout of this repository; ``dump`` imports its
``src/caponshape`` and its ``bench/workloads.py`` (for the seeds, gammas and
grid), so each side runs its own code. Pin the BLAS thread count: cone
weights round differently at different counts. Needs numpy and the tree's
own runtime dependencies only; nothing in the package or the tests imports
this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

CHUNKS = 12
BENCH_SEED = 0
DRAWS = 4
# CLI runs whose output files are digested: workload and chunk count
CLI_RUNS = (("mc_packaged", CHUNKS), ("capon_large_k", 4))


def _number(x):
    # strict JSON: NaN and inf become null
    return float(x) if math.isfinite(x) else None


def dump(tree: Path, out: Path) -> None:
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    from caponshape.cli import BENCHMARK_OPTIONS, _prepare, load_run_config, main
    from caponshape.evaluation import best_point_index, gamma_sweep, monte_carlo
    from caponshape.solver import SolverStatus
    from workloads import WORKLOADS

    packaged = json.loads((tree / "src" / "caponshape" / "data" / "default_config.json").read_text())
    trials, sweeps = [], []
    with tempfile.TemporaryDirectory() as scratch:
        mc = WORKLOADS["mc_packaged"]
        config_path = Path(scratch) / "mc.json"
        config_path.write_text(json.dumps(mc.config(packaged)))
        for chunk in range(CHUNKS):
            seed = mc.chunk_seed(BENCH_SEED, chunk)
            config = load_run_config(str(config_path), scratch, mc.trials_per_chunk, seed=seed)
            manifold, _, _ = _prepare(config)
            for mismatch in config.mismatch_list:
                report = monte_carlo(config.scenario, config.methods, config.trials, seed, mismatch, manifold,
                                     config.b, BENCHMARK_OPTIONS)
                for entry in report.methods:
                    sinrs = iter(entry.per_trial_db)
                    for t, (status, iters) in enumerate(zip(entry.statuses, entry.iterations)):
                        value = math.nan if status is SolverStatus.NUMERICAL_FAILURE else next(sinrs)
                        trials.append([entry.method.kind.value, mismatch, seed + t, status.value, int(iters),
                                       _number(value)])

        tune = WORKLOADS["gamma_tune"]
        config_path = Path(scratch) / "tune.json"
        config_path.write_text(json.dumps(tune.config(packaged)))
        for chunk in range(DRAWS):
            config = load_run_config(str(config_path), scratch, seed=tune.chunk_seed(BENCH_SEED, chunk))
            manifold, _, _ = _prepare(config)
            held_out = config.scenario.with_seed(config.scenario.seed - 1)
            for method in config.methods:
                if method.gamma_is_auto:
                    points = gamma_sweep(method, held_out, manifold, config.b, options=BENCHMARK_OPTIONS)
                    best = best_point_index(points)
                    sweeps.append([held_out.seed, method.kind.value, points[best].gamma,
                                   [[p.gamma, _number(p.sinr_db), p.status.value] for p in points]])

        outputs = []
        for name, chunks in CLI_RUNS:
            workload = WORKLOADS[name]
            config_path = Path(scratch) / f"{name}.json"
            config_path.write_text(json.dumps(workload.config(packaged)))
            for chunk in range(chunks):
                out_dir = Path(scratch) / f"{name}_{chunk}"
                main.main(args=workload.argv(config_path, out_dir, BENCH_SEED, chunk), standalone_mode=False)
                for path in sorted(out_dir.iterdir()):
                    outputs.append([name, chunk, path.name, hashlib.sha256(path.read_bytes()).hexdigest()])
    out.write_text(json.dumps({"tree": str(tree.resolve()), "trials": trials, "sweeps": sweeps,
                               "outputs": outputs}) + "\n")
    print(f"{len(trials)} trial solves, {len(sweeps)} sweeps and {len(outputs)} CLI output files written to {out}")


def _gap(x, y) -> float:
    if x is None or y is None:
        return 0.0 if x is y else math.inf
    return abs(x - y)


def diff(before: Path, after: Path) -> None:
    a, b = (json.loads(p.read_text()) for p in (before, after))
    if [t[:3] for t in a["trials"]] != [t[:3] for t in b["trials"]]:
        sys.exit("the two files do not hold the same trials")
    rows = defaultdict(lambda: {"n": 0, "status": 0, "iter_changed": 0, "iter_max": 0, "iters": [0, 0],
                                "sinr_max": 0.0, "identical": 0})
    for (kind, _, _, s0, i0, v0), (_, _, _, s1, i1, v1) in zip(a["trials"], b["trials"]):
        row = rows[kind]
        row["n"] += 1
        row["status"] += s0 != s1
        row["iter_changed"] += i0 != i1
        row["iter_max"] = max(row["iter_max"], abs(i0 - i1))
        row["iters"][0] += i0
        row["iters"][1] += i1
        row["sinr_max"] = max(row["sinr_max"], _gap(v0, v1))
        row["identical"] += s0 == s1 and i0 == i1 and v0 == v1
    print("mc_packaged trials")
    print(f"{'kind':16} {'solves':>6} {'status':>6} {'iter chg':>8} {'|d iter|':>8} {'iter sums':>15} "
          f"{'max |d SINR| dB':>15} {'identical':>9}")
    for kind, row in rows.items():
        sums = f"{row['iters'][0]}->{row['iters'][1]}"
        print(f"{kind:16} {row['n']:6d} {row['status']:6d} {row['iter_changed']:8d} {row['iter_max']:8d} "
              f"{sums:>15} {row['sinr_max']:15.3g} {row['identical']:9d}")

    if [s[:2] for s in a["sweeps"]] != [s[:2] for s in b["sweeps"]]:
        sys.exit("the two files do not hold the same sweeps")
    sweeps = defaultdict(lambda: {"n": 0, "selected": 0, "status": 0, "sinr_max": 0.0})
    for (draw, kind, g0, p0), (_, _, g1, p1) in zip(a["sweeps"], b["sweeps"]):
        row = sweeps[kind]
        row["n"] += 1
        if g0 != g1:
            row["selected"] += 1
            print(f"draw {draw} {kind}: selected gamma {g0!r} -> {g1!r}")
        for (_, v0, s0), (_, v1, s1) in zip(p0, p1):
            row["status"] += s0 != s1
            row["sinr_max"] = max(row["sinr_max"], _gap(v0, v1))
    print("gamma_tune sweeps")
    print(f"{'kind':16} {'sweeps':>6} {'selected chg':>12} {'status':>6} {'max |d SINR| dB':>15}")
    for kind, row in sweeps.items():
        print(f"{kind:16} {row['n']:6d} {row['selected']:12d} {row['status']:6d} {row['sinr_max']:15.3g}")

    digests = [{(name, chunk, file): digest for name, chunk, file, digest in doc["outputs"]} for doc in (a, b)]
    changed = sorted(key for key in digests[0].keys() | digests[1].keys() if digests[0].get(key) != digests[1].get(key))
    print(f"CLI output files: {len(changed)} of {len(digests[1])} differ")
    for name, chunk, file in changed:
        print(f"  {name} chunk {chunk}: {file}")

    statuses = sum(row["status"] for row in rows.values()) + sum(row["status"] for row in sweeps.values())
    selections = sum(row["selected"] for row in sweeps.values())
    if statuses or selections:
        print(f"FAIL: {statuses} statuses and {selections} sweep selections changed")
        sys.exit(1)
    print("no status and no sweep selection changed")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("dump", help="solve a tree's benchmark draws and write them to a JSON file")
    p.add_argument("tree", type=Path)
    p.add_argument("out", type=Path)
    p = sub.add_parser("diff", help="compare two dumps")
    p.add_argument("before", type=Path)
    p.add_argument("after", type=Path)
    args = parser.parse_args()
    if args.mode == "dump":
        dump(args.tree, args.out)
    else:
        diff(args.before, args.after)


if __name__ == "__main__":
    main()
