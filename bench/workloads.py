"""The benchmark's workloads: fixed lists of fraclab CLI commands.

Each command carries its full config and a reduced config for the untimed
warm-up, which runs the same code paths at a small size so that bytecode
caches and the file cache are warm before timing starts.  The workload
seed is passed to every command as ``--seed``; the configs do not depend
on it.  README.md in this directory says why each workload exists and
which layer metrics it should move.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    name: str                  # unique within the workload
    cli: str                   # fraclab CLI command
    config: dict
    warmup: dict               # top-level keys replaced for the warm-up
    args: tuple = ()           # extra CLI flags

    def warmup_config(self) -> dict:
        return {**self.config, **self.warmup}


def _spec(orders, weights):
    return {"orders": list(orders), "weights": list(weights)}


def _grid(bounds, shape, n_steps):
    return {"bounds": [list(b) for b in bounds], "shape": list(shape),
            "n_steps": n_steps, "t_final": 1.0}


_MAP = {"c": 1.0, "X": 0.05, "T": 1.0}
_WEIGHT = {"X": 0.05}

CERTIFY = (
    Command("lemma21", "lemma21", {
        "spec": _spec((0.5, 0.25), (1.0, 0.5)),
        "coeffs": {"preset": "diagonal-variable", "n": 2, "amplitude": 0.3},
        "map": _MAP, "weight": _WEIGHT, "n_samples": 100_000},
        {"n_samples": 2_000}, ("--threads", "2")),
    Command("lemma61", "lemma61", {
        "spec": _spec((0.5,), (1.0,)),
        "coeffs": {"preset": "diagonal-variable", "n": 2},
        "map": _MAP, "weight": _WEIGHT, "n_samples": 20_000, "stage": 5},
        {"n_samples": 500}),
    Command("garding", "garding", {
        "spec": _spec((1.5, 0.75), (1.0, 0.5)),
        "coeffs": {"preset": "rotating-anisotropic", "n": 2, "ratio": 0.5},
        "map": _MAP, "weight": _WEIGHT, "n_samples": 100_000},
        {"n_samples": 2_000}),
)

EVOLVE = (
    Command("solve-1d", "solve", {
        "spec": _spec((0.5, 0.25), (1.0, 0.5)),
        "coeffs": {"preset": "identity", "n": 1},
        "grid": _grid([(0.0, 1.0)], (129,), 4096)},
        {"grid": _grid([(0.0, 1.0)], (33,), 64)}),
    Command("solve-2d", "solve", {
        "spec": _spec((0.5,), (1.0,)),
        "coeffs": {"preset": "diagonal-variable", "n": 2},
        "grid": _grid([(0.0, 1.0), (0.0, 1.0)], (41, 41), 128)},
        {"grid": _grid([(0.0, 1.0), (0.0, 1.0)], (11, 11), 8)}),
    Command("caputo-check", "caputo-check", {
        "alphas": [0.25, 0.5, 0.75, 1.25, 1.5, 1.75], "n_steps": 16_384},
        {"n_steps": 256}),
    Command("ucp-demo", "ucp-demo", {
        "spec": _spec((0.5,), (1.0,)),
        "coeffs": {"preset": "identity", "n": 1},
        "grid": _grid([(0.0, 1.0)], (97,), 64),
        "omega": [0.05, 0.25], "t_prime": 0.5,
        "source_centers": [0.45, 0.6, 0.75, 0.9]},
        {"grid": _grid([(0.0, 1.0)], (49,), 16)}),
)

_SWEEP_BETAS = [25.0, 50.0, 100.0, 200.0, 400.0]

SWEEP = (
    Command("sweep-2d", "carleman-sweep", {
        "spec": _spec((1.5, 0.5), (1.0, 0.5)),
        "coeffs": {"preset": "diagonal-variable", "n": 2},
        "map": {"c": 1.0, "X": 0.3, "T": 1.0}, "weight": {"X": 0.3},
        "grid": _grid([(-0.3, 0.3), (0.0, 0.3)], (41, 41), 160),
        "betas": _SWEEP_BETAS, "n_bumps": 5},
        {"grid": _grid([(-0.3, 0.3), (0.0, 0.3)], (41, 41), 20)}),
    Command("sweep-1d", "carleman-sweep", {
        "spec": _spec((1.5,), (1.0,)),
        "coeffs": {"preset": "identity", "n": 1},
        "map": {"c": 1.0, "X": 0.3, "T": 1.0}, "weight": {"X": 0.3},
        "grid": _grid([(0.0, 0.3)], (161,), 160),
        "betas": _SWEEP_BETAS, "n_bumps": 5},
        {"grid": _grid([(0.0, 0.3)], (81,), 40)}),
)

WORKLOADS = {"certify": CERTIFY, "evolve": EVOLVE, "sweep": SWEEP}
