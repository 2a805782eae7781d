"""Workload definitions: seeded config generation and the per-pass gate.

Each workload turns a seed into one JSON experiment config, built from
the shipped configs in ``configs/`` of the checkout, and checks the
artifacts one pass of ``chcontrol.cli.run`` leaves behind. The program
only ever sees the generated config. See README.md in this directory for
why each workload exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent

# optimize-1d draws its initial data from a finite family of this many
# members, so that every seed has a reference recorded from the parent
# commit (see references.json and record_references.py).
OPTIMIZE_FAMILY = 64
# Tolerances on the optimizer's answer against the recorded reference.
# Converged answers from different starting points agree to about 1e-9
# (cost, relative) and 5e-7 (tau), so these leave room for roundoff-level
# changes while still catching a different optimum.
COST_REL_TOL = 1e-6
TAU_ABS_TOL = 1e-5


class GateError(Exception):
    """A pass produced output outside its correctness gate."""


def _load(root: Path, name: str) -> dict:
    with open(root / "configs" / name) as fh:
        return json.load(fh)


def optimize_index(seed: int) -> int:
    return seed % OPTIMIZE_FAMILY


def config_optimize_1d(root: Path, seed: int) -> dict:
    cfg = _load(root, "baseline.json")
    # amplitude 0.05 rather than 0.3: at 0.3 the outer iteration count
    # ranges over 25-40 between seeds (wall time 5.5-15 s), which no run
    # length makes steady across seeds; at 0.05 it is 25-26.
    cfg["initial"] = {"preset": "random_interior", "amplitude": 0.05,
                      "seed": optimize_index(seed)}
    return cfg


def config_verify_1d(root: Path, seed: int) -> dict:
    cfg = _load(root, "verify-suite.json")
    cfg["seed"] = seed
    return cfg


def config_oracle_2d(root: Path, seed: int) -> dict:
    cfg = _load(root, "verify-suite.json")
    cfg["seed"] = seed
    cfg["model"]["potential"] = {"kind": "logarithmic", "lam": 2.0}
    cfg["grid"] = {"n": [32, 32], "extents": [1.0, 1.0]}
    cfg["time"] = {"horizon": 0.25, "steps": 32}
    cfg["initial"] = {"preset": "random_interior", "amplitude": 0.3, "seed": seed}
    cfg["cost"]["tau_star"] = 0.125
    cfg["control"]["tau0"] = 0.125
    # the 2D gradient oracle is left out on purpose: at this size its FD
    # errors sit at the roundoff floor and the slope gate cannot pass
    cfg["verification"] = {
        "checks": ["duality", "mass"],
        "tau": 0.125,
        "duality": {"directions": 5, "tol": 1e-9},
        "mass": {"tol": 1e-10},
    }
    return cfg


def _read_json(path: Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise GateError(f"{path.name}: unreadable ({exc})")


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def gate_verify(cfg: dict, out: Path, seed: int) -> None:
    """Every configured oracle ran, passed, and meets the config's own
    tolerance when the benchmark re-reads the reported figure."""
    vd = cfg.get("verification", {})
    summary = _read_json(out / "verify" / "summary.json")
    checks = vd.get("checks", ["gradient", "duality", "lipschitz", "mass"])
    _require(sorted(summary) == sorted(checks),
             f"verify: summary has {sorted(summary)}, config asks {sorted(checks)}")
    for name, entry in summary.items():
        _require(entry.get("passed") is True, f"verify.{name}: not passed")
    if "gradient" in summary:
        tol = float(vd.get("gradient", {}).get("tol", 1e-6))
        err = summary["gradient"]["max_rel_error"]
        _require(err <= tol, f"verify.gradient: {err} > {tol}")
    if "duality" in summary:
        tol = float(vd.get("duality", {}).get("tol", 1e-9))
        err = summary["duality"]["max_mismatch"]
        _require(err <= tol, f"verify.duality: {err} > {tol}")
    if "lipschitz" in summary:
        lopts = vd.get("lipschitz", {})
        pair_tol = float(lopts.get("pair_spread_tol", 10.0))
        mag_tol = float(lopts.get("magnitude_spread_tol", 3.0))
        entry = summary["lipschitz"]
        _require(entry["pair_spread"] <= pair_tol,
                 f"verify.lipschitz: pair spread {entry['pair_spread']} > {pair_tol}")
        _require(entry["magnitude_spread"] <= mag_tol,
                 f"verify.lipschitz: magnitude spread {entry['magnitude_spread']} "
                 f"> {mag_tol}")
    if "mass" in summary:
        tol = float(vd.get("mass", {}).get("tol", 1e-10))
        err = summary["mass"]["residual"]
        _require(err <= tol, f"verify.mass: {err} > {tol}")


def gate_optimize(cfg: dict, out: Path, seed: int) -> None:
    opt = _read_json(out / "optimize" / "optimum.json")
    grad_tol = float(cfg["optimizer"]["grad_tol"])
    _require(opt["converged"] is True, "optimize: not converged")
    _require(opt["stat_u"] <= grad_tol, f"optimize: stat_u {opt['stat_u']} > {grad_tol}")
    _require(opt["stat_tau"] <= grad_tol,
             f"optimize: stat_tau {opt['stat_tau']} > {grad_tol}")
    with open(HERE / "references.json") as fh:
        ref = json.load(fh)["optimize-1d"].get(str(optimize_index(seed)))
    _require(ref is not None, f"optimize: no reference for index {optimize_index(seed)}")
    ref_cost, ref_tau = ref["cost_total"], ref["tau_opt"]
    _require(abs(opt["cost_total"] - ref_cost) <= COST_REL_TOL * abs(ref_cost),
             f"optimize: cost_total {opt['cost_total']!r} vs reference {ref_cost!r}")
    _require(abs(opt["tau_opt"] - ref_tau) <= TAU_ABS_TOL,
             f"optimize: tau_opt {opt['tau_opt']!r} vs reference {ref_tau!r}")


@dataclass(frozen=True)
class Workload:
    name: str
    make_config: Callable[[Path, int], dict]
    check: Callable[[dict, Path, int], None]

    def gate(self, cfg: dict, out: Path, seed: int) -> None:
        """Raise GateError unless the pass's artifacts are correct."""
        summary = _read_json(out / "run_summary.json")
        _require(summary["config"]["pipeline"] == cfg["pipeline"],
                 "run_summary.json: wrong pipeline echoed")
        self.check(cfg, out, seed)


WORKLOADS = {
    w.name: w for w in (
        Workload("optimize-1d", config_optimize_1d, gate_optimize),
        Workload("verify-1d", config_verify_1d, gate_verify),
        Workload("oracle-2d", config_oracle_2d, gate_verify),
    )
}
