"""The three benchmark workloads: generated CLI configs, the CLI arguments of
each chunk, and the correctness gate applied to the files the CLI writes.

A run is a sequence of chunks, each one in-process ``caponshape`` CLI call.
In the Monte Carlo workloads, chunk ``i`` of a run at benchmark seed ``n``
uses scenario seed ``SEED_STRIDE * n + PACKAGED_SEED + i * trials_per_chunk``,
so benchmark seed 0 starts at the packaged scenario (seed 7, the acceptance
suite's draws) and different benchmark seeds never share a snapshot draw.
``gamma_tune`` draws from a fixed pool instead; its docstring says why.
"""

from __future__ import annotations

import copy
import csv
import json
import math
from pathlib import Path

import numpy as np

PACKAGED_SEED = 7
SEED_STRIDE = 1_000_000
DEFAULT_SEED = 0
SHAPED = ("sparse", "weighted_sparse", "mixed_norm", "tvm_sparse", "mspr_relaxed")
KINDS = ("capon",) + SHAPED
# gammas the packaged sweep selects on the held-out draw (seed 6); the
# acceptance suite's byte-identity criterion freezes the same values
CRITERION_10_GAMMAS = {
    "sparse": 0.3162277660168379,
    "weighted_sparse": 10.0,
    "mixed_norm": 0.19952623149688797,
    "tvm_sparse": 0.19952623149688797,
    "mspr_relaxed": 0.025118864315095794,
}
REFERENCE_TOL_DB = 1e-3
GAMMA_GRID = tuple(float(f"{g:.9g}") for g in np.logspace(-3.0, 1.0, 41))


class GateError(ValueError):
    """An output file is malformed or a correctness check failed."""


def _reject_constant(name):
    raise GateError(f"non-standard JSON constant {name}")


def _load_json(path: Path):
    try:
        return json.loads(path.read_text(), parse_constant=_reject_constant)
    except (OSError, json.JSONDecodeError) as exc:
        raise GateError(f"{path.name}: {exc}") from exc


def _finite(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise GateError(f"{what} is not a number: {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise GateError(f"{what} is not finite: {value!r}")
    return number


def _read_csv(path: Path, header: list) -> list:
    try:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise GateError(f"{path.name}: {exc}") from exc
    if not rows or rows[0] != header:
        raise GateError(f"{path.name}: header {rows[:1]} != {header}")
    if any(len(row) != len(header) for row in rows[1:]):
        raise GateError(f"{path.name}: ragged rows")
    return rows[1:]


def _method(kind: str, gamma=None) -> dict:
    doc = {"kind": kind}
    if gamma is not None:
        doc["gamma"] = gamma
    if kind == "tvm_sparse":
        doc["tv_orders"] = 2
    return doc


def optimal_sinr_db(scenario: dict) -> float:
    """sigma_s^2 a0^H R_in^-1 a0 in dB for the true (matched) SOI direction,
    computed from the config alone as an oracle independent of the package."""
    m = scenario["geometry"]["num_sensors"]
    d = scenario["geometry"]["spacing_ratio"]

    def steer(deg):
        return np.exp(1j * 2.0 * np.pi * d * math.sin(math.radians(deg)) * np.arange(m))

    r_in = 10.0 ** (scenario["noise_power_db"] / 10.0) * np.eye(m, dtype=complex)
    for j in scenario["interferers"]:
        a_j = steer(j["doa_deg"])
        r_in += 10.0 ** (j["power_db"] / 10.0) * np.outer(a_j, a_j.conj())
    a0 = steer(scenario["presumed_doa_deg"])
    value = 10.0 ** (scenario["soi"]["power_db"] / 10.0) * np.real(a0.conj() @ np.linalg.solve(r_in, a0))
    return 10.0 * math.log10(value)


class MonteCarlo:
    """``caponshape montecarlo`` over ``trials_per_chunk`` draws per mismatch
    value; a "trial" below is one snapshot draw at one mismatch value."""

    subcommand = "montecarlo"
    mismatch = (0.0, 3.0)
    cycle = 1  # a timed run may stop after any chunk

    def __init__(self, name, trials_per_chunk, trace_chunks, methods, num_snapshots=None):
        self.name = name
        self.trials_per_chunk = trials_per_chunk
        self.trace_chunks = trace_chunks
        self.methods = methods
        self.num_snapshots = num_snapshots

    def config(self, packaged: dict) -> dict:
        doc = copy.deepcopy(packaged)
        doc["methods"] = self.methods
        doc["mismatch_list"] = list(self.mismatch)
        if self.num_snapshots is not None:
            doc["scenario"]["num_snapshots"] = self.num_snapshots
        return doc

    def chunk_seed(self, seed: int, chunk: int) -> int:
        return SEED_STRIDE * seed + PACKAGED_SEED + chunk * self.trials_per_chunk

    def argv(self, config_path, out_dir, seed: int, chunk: int) -> list:
        return [self.subcommand, "--config", str(config_path), "--out", str(out_dir),
                "--seed", str(self.chunk_seed(seed, chunk)), "--trials", str(self.trials_per_chunk)]

    def trials(self) -> int:
        return self.trials_per_chunk * len(self.mismatch)

    def solves(self) -> int:
        """Solves in one chunk that passes :meth:`read`."""
        return self.trials() * len(self.methods)

    def read(self, out_dir: Path, chunk_seed: int) -> dict:
        """Per mismatch and kind: mean SINR (dB) and the trial count behind it."""
        kinds = [m["kind"] for m in self.methods]
        summary = {}
        for mismatch in self.mismatch:
            doc = _load_json(out_dir / f"sinr_mismatch_{mismatch:g}.json")
            if doc.get("seed") != chunk_seed or doc.get("mismatch_deg") != mismatch:
                raise GateError(f"mismatch {mismatch:g}: wrong seed or mismatch in {doc}")
            entries = doc.get("methods", [])
            if [e.get("kind") for e in entries] != kinds:
                raise GateError(f"mismatch {mismatch:g}: methods {entries} != {kinds}")
            per_kind = {}
            for e in entries:
                what = f"{e['kind']} at {mismatch:g} deg"
                mean = _finite(e.get("mean_sinr_db"), f"{what}: mean_sinr_db")
                _finite(e.get("std_db"), f"{what}: std_db")
                if e.get("trials") != self.trials_per_chunk or e.get("failures") != 0:
                    raise GateError(f"{what}: trials {e.get('trials')}, failures {e.get('failures')}")
                per_kind[e["kind"]] = mean
            summary[f"{mismatch:g}"] = per_kind
        rows = _read_csv(out_dir / "sinr_summary.csv",
                         ["kind", "gamma", "mismatch_deg", "mean_sinr_db", "std_db", "failures"])
        if len(rows) != len(kinds) * len(self.mismatch):
            raise GateError(f"sinr_summary.csv has {len(rows)} rows")
        for kind, _, mismatch, mean, _, _ in rows:
            key = f"{_finite(mismatch, 'mismatch_deg'):g}"
            if _finite(mean, f"{kind}: csv mean") != summary[key][kind]:
                raise GateError(f"{kind} at {key} deg: csv mean {mean} != json {summary[key][kind]}")
        return summary

    def check(self, summaries: list, seed: int, reference: dict, config: dict) -> list:
        errors = []
        if seed == DEFAULT_SEED:
            expected = reference[self.name]["mean_sinr_db"]
            for mismatch, per_kind in expected.items():
                for kind, ref in per_kind.items():
                    got = summaries[0][mismatch][kind]
                    if abs(got - ref) > REFERENCE_TOL_DB:
                        errors.append(f"chunk 0 {kind} at {mismatch} deg: {got!r} dB, reference {ref!r} dB")
        return errors

    @staticmethod
    def pooled(summaries: list) -> dict:
        """Mean SINR per mismatch and kind over every chunk of the run."""
        first = summaries[0]
        return {m: {k: sum(s[m][k] for s in summaries) / len(summaries) for k in first[m]} for m in first}


class McPackaged(MonteCarlo):
    def check(self, summaries, seed, reference, config):
        errors = super().check(summaries, seed, reference, config)
        pooled = self.pooled(summaries)
        matched, mismatched = pooled["0"], pooled["3"]
        if mismatched["capon"] >= 1.0:
            errors.append(f"capon at 3 deg: {mismatched['capon']:.4f} dB, expected < 1 dB")
        for kind in SHAPED:
            if matched[kind] < matched["capon"] + 1.0:
                errors.append(f"{kind} matched: {matched[kind]:.4f} dB < capon + 1 dB")
            if mismatched[kind] < mismatched["capon"] + 2.0:
                errors.append(f"{kind} at 3 deg: {mismatched[kind]:.4f} dB < capon + 2 dB")
        return errors


class CaponLargeK(MonteCarlo):
    def check(self, summaries, seed, reference, config):
        errors = super().check(summaries, seed, reference, config)
        optimum = optimal_sinr_db(config["scenario"])
        for i, summary in enumerate(summaries):
            gap = optimum - summary["0"]["capon"]
            if not 0.0 <= gap <= 0.5:
                errors.append(f"chunk {i}: matched gap to optimal SINR {gap:.4f} dB outside [0, 0.5]")
        return errors


class GammaTune:
    """``caponshape sweep``: capon once, then 41 gammas per shaped method, on
    the held-out draw (chunk seed - 1). One chunk is one tuning draw.

    Unlike the Monte Carlo workloads, the draws come from a fixed pool: the
    packaged held-out draw (seed 6) and the next ``DRAW_POOL - 1``, and the
    benchmark seed only rotates their order. One sweep takes seconds and its
    cost varies by up to 40% between draws, so a run holds only a handful;
    over fresh draws per seed, runs spread by about 17% (IQR over median).
    A timed run sweeps whole cycles of the pool (``cycle``), so every run
    does the same work and the figure measures the speed of a sweep, not
    the difficulty of the draws or how many of the hard ones fit in a run.
    """

    subcommand = "sweep"
    name = "gamma_tune"
    trials_per_chunk = 1
    trace_chunks = 2
    DRAW_POOL = 4
    cycle = DRAW_POOL

    def config(self, packaged: dict) -> dict:
        return copy.deepcopy(packaged)

    def chunk_seed(self, seed: int, chunk: int) -> int:
        return PACKAGED_SEED + (seed + chunk) % self.DRAW_POOL

    def argv(self, config_path, out_dir, seed: int, chunk: int) -> list:
        return [self.subcommand, "--config", str(config_path), "--out", str(out_dir),
                "--seed", str(self.chunk_seed(seed, chunk))]

    def trials(self) -> int:
        return 1

    def solves(self) -> int:
        """Solves in one sweep that passes :meth:`read`: capon once, then
        every shaped method at every grid point."""
        return 1 + len(SHAPED) * len(GAMMA_GRID)

    def read(self, out_dir: Path, chunk_seed: int) -> dict:
        """Selected gamma and its SINR per kind; checks each selection is the
        first argmax of SINR over the full default grid."""
        rows = _read_csv(out_dir / "gamma_sweep.csv",
                         ["kind", "gamma", "sinr_db", "sidelobe_mean_db", "mspr", "selected"])
        by_kind = {}
        for kind, gamma, sinr_db, side_db, ratio, selected in rows:
            what = f"{kind} gamma {gamma}"
            mspr = float(ratio)
            if not mspr > 0.0:  # inf is allowed: an exactly zero sidelobe response
                raise GateError(f"{what}: mspr {ratio}")
            if selected not in ("0", "1"):
                raise GateError(f"{what}: selected {selected!r}")
            by_kind.setdefault(kind, []).append(
                (_finite(gamma, what), _finite(sinr_db, f"{what}: sinr_db"),
                 _finite(side_db, f"{what}: sidelobe_mean_db"), selected == "1"))
        if list(by_kind) != list(KINDS):
            raise GateError(f"gamma_sweep.csv kinds {list(by_kind)} != {list(KINDS)}")
        selected = {}
        for kind, points in by_kind.items():
            gammas = tuple(p[0] for p in points)
            if gammas != ((0.0,) if kind == "capon" else GAMMA_GRID):
                raise GateError(f"{kind}: unexpected gamma grid {gammas}")
            best = max(range(len(points)), key=lambda i: (points[i][1], -i))
            if [p[3] for p in points] != [i == best for i in range(len(points))]:
                raise GateError(f"{kind}: selected row is not the first SINR argmax")
            selected[kind] = {"gamma": points[best][0], "sinr_db": points[best][1]}
        return selected

    def check(self, summaries: list, seed: int, reference: dict, config: dict) -> list:
        """Every sweep of the packaged held-out draw, not only at seed 0, must
        select the criterion-10 gammas and match the reference SINRs."""
        errors = []
        for i, summary in enumerate(summaries):
            if self.chunk_seed(seed, i) != PACKAGED_SEED:
                continue
            for kind, gamma in CRITERION_10_GAMMAS.items():
                got = summary[kind]["gamma"]
                if not math.isclose(got, gamma, rel_tol=1e-8):
                    errors.append(f"chunk {i} {kind}: selected gamma {got!r}, criterion 10 uses {gamma!r}")
            for kind, ref in reference[self.name]["sinr_db"].items():
                got = summary[kind]["sinr_db"]
                if abs(got - ref) > REFERENCE_TOL_DB:
                    errors.append(f"chunk {i} {kind}: {got!r} dB at the selected gamma, reference {ref!r} dB")
        return errors


WORKLOADS = {
    w.name: w
    for w in (
        McPackaged(
            "mc_packaged",
            trials_per_chunk=25,
            trace_chunks=2,
            methods=[_method("capon")] + [_method(k, g) for k, g in CRITERION_10_GAMMAS.items()],
        ),
        GammaTune(),
        CaponLargeK(
            "capon_large_k",
            trials_per_chunk=25,
            trace_chunks=20,
            methods=[_method("capon")],
            num_snapshots=10_000,
        ),
    )
}
