"""chcontrol benchmark: time to solution on seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload optimize-1d --seed 1 --seconds 15 --trace 0

Each pass runs one generated config through ``chcontrol.cli.run`` in a
fresh process (closed loop, one pass at a time) and checks its artifacts
against the workload's gate. Passes repeat until ``--seconds`` have
passed, and at least three run. With ``--trace 0`` the last line reports
the end-to-end metrics; with ``--trace 1`` it reports the per-layer
metrics of traced passes, plus the tracing overhead against untraced
passes of the same seed. Metric names and units come from BENCHMARK.json.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import reconcile  # noqa: E402
from workloads import WORKLOADS, GateError  # noqa: E402

TMP_ROOT = ROOT / ".perfbench-tmp"
SPAN_DIR = ROOT / ".perfbench-out" / "spans"
MIN_PASSES = 3
MIN_SETUP_SAMPLES = 5
# no pass starts once the run could end past this, well inside 180 s
RUN_LIMIT_S = 150.0
CHILD_TIMEOUT_S = 170.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _child(cmd, cwd):
    """Start ``cmd``; return (seconds to its ``ready`` line, remaining stdout,
    exit code). The process is always ended and reaped before returning."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=cwd)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0 if first.strip() == "ready" else None
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    return ready, rest, code


def _artifacts(out: Path):
    files = size = 0
    for dirpath, _, names in os.walk(out):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


class Bench:
    """The passes of one run: one workload, one seed, one config.

    Every pass gets a fresh output directory inside ``work``. The
    directories are deleted together when the run ends rather than after
    each pass, so that deleting hundreds of files (slow on a disk mounted
    with ``discard``) does not fall inside the timing of a later pass.
    """

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.cfg = workload.make_config(ROOT, seed)
        self.work = work

    def _fresh(self, prefix: str):
        tmp = Path(tempfile.mkdtemp(prefix=prefix, dir=self.work))
        cfg_path = tmp / "config.json"
        cfg_path.write_text(json.dumps(self.cfg, indent=1))
        cmd = [sys.executable, str(HERE / "child.py"),
               "--config", str(cfg_path), "--out-dir", str(tmp / "out")]
        return tmp, cmd

    def setup_probe(self) -> float | None:
        """Seconds for a fresh process to import chcontrol and parse the config."""
        tmp, cmd = self._fresh("setup-")
        ready, _, code = _child(cmd + ["--setup-only"], tmp)
        return ready if code == 0 else None

    def run_pass(self, spans: Path | None = None, pass_id: int = 0) -> dict:
        """One pass in a fresh process and a fresh output directory."""
        tmp, cmd = self._fresh("pass-")
        out = tmp / "out"
        if spans is not None:
            cmd += ["--spans", str(spans), "--pass-id", str(pass_id)]
        rec = {"error": None, "traced": spans is not None}
        try:
            ready, rest, code = _child(cmd, tmp)
            rec["setup_s"] = ready
            lines = rest.strip().splitlines()
            if code != 0 or ready is None or not lines:
                rec["error"] = f"pass process exited with {code}"
                return rec
            rec.update(json.loads(lines[-1]))
            if rec["exit_code"] != 0:
                rec["error"] = f"chcontrol exit code {rec['exit_code']}"
                return rec
            rec["artifact_files"], rec["artifact_bytes"] = _artifacts(out)
            echoed = json.loads((out / "run_summary.json").read_text())["config"]
            rec["seed_echoed"] = echoed.get("seed")
            self.workload.gate(self.cfg, out, self.seed)
        except (GateError, KeyError, TypeError, ValueError) as exc:
            rec["error"] = f"gate: {exc}"
        except OSError as exc:
            rec["error"] = f"pass: {exc}"
        return rec

    def repeat(self, seconds: float, make_pass) -> list:
        """Run passes until ``seconds`` have passed and at least MIN_PASSES
        ran, starting none that could end past RUN_LIMIT_S."""
        passes, t_start = [], time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(make_pass(len(passes)))
            last = time.perf_counter() - t0
            elapsed = time.perf_counter() - t_start
            if len(passes) >= MIN_PASSES and elapsed >= seconds:
                return passes
            if elapsed + 1.5 * last > RUN_LIMIT_S:
                return passes

    def timed(self, seconds: float, units: dict):
        self.setup_probe()  # fills bytecode and page caches; not a sample
        passes = self.repeat(seconds, lambda i: self.run_pass())
        ok = [p for p in passes if p["error"] is None] or passes
        samples = {name: [p[name] for p in ok if p.get(name) is not None]
                   for name in units if name != "setup_s"}
        setup = [p["setup_s"] for p in passes if p.get("setup_s") is not None]
        while len(setup) < MIN_SETUP_SAMPLES:
            probe = self.setup_probe()
            if probe is None:
                break
            setup.append(probe)
        samples["setup_s"] = setup
        metrics = {}
        for name, unit in units.items():
            values = samples[name]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
                print(f"{self.workload.name} {name} = {metrics[name]['value']:.6g} "
                      f"{unit} (median of n={len(values)}, min {min(values):.6g}, "
                      f"max {max(values):.6g})")
        return passes, metrics, []

    def traced(self, seconds: float, units: dict):
        """Untraced and traced passes, alternating; per-layer metrics from the
        traced ones, tracing overhead from the difference."""
        name = self.workload.name
        self.setup_probe()
        SPAN_DIR.mkdir(parents=True, exist_ok=True)
        for stale in SPAN_DIR.glob(f"{name}-pass*.npz"):
            stale.unlink()

        def make_pass(i):
            if i % 3 == 0:
                return self.run_pass()
            return self.run_pass(SPAN_DIR / f"{name}-pass{i}.npz", i)

        passes = self.repeat(seconds, make_pass)
        traced = [p for p in passes if p["traced"] and p["error"] is None]
        plain = [p for p in passes if not p["traced"] and p["error"] is None]
        problems = []
        if len(traced) < 2:
            problems.append("fewer than two traced passes succeeded")
        reference = traced[0]["layers"] if traced else {}
        for p in traced:
            diff = sorted(k for k, v in p["layers"].items()
                          if not _is_time(k) and v != reference[k])
            if diff:
                problems.append(f"counts differ between traced passes: {diff}")
            mismatch = reconcile(p["layers"])
            if mismatch:
                problems.append(mismatch)

        values = {}
        if traced:
            for key, value in reference.items():
                values[key] = (statistics.median(p["layers"][key] for p in traced)
                               if _is_time(key) else value)
            values["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
            if plain:
                plain_wall = statistics.median(p["wall_s"] for p in plain)
                values["trace.untraced_wall_s"] = plain_wall
                values["trace.overhead_pct"] = (100.0 * (values["trace.wall_s"] - plain_wall)
                                                / plain_wall)
        metrics = {}
        for key, unit in units.items():
            if key in values:
                metrics[key] = {"value": values[key], "unit": unit}
                print(f"{name} {key} = {values[key]:.6g} {unit}")
        print(f"{name} per-layer times are medians over {len(traced)} traced passes; "
              f"{len(plain)} untraced passes")
        return passes, metrics, problems


def _is_time(name: str) -> bool:
    return name.endswith("_s") or name.endswith("_us")


def machine_facts(bench: Bench) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba": importlib.util.find_spec("numba") is not None,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "workload": bench.workload.name,
        "seed": bench.seed,
        "config_seed": bench.cfg.get("seed"),
        "initial_seed": bench.cfg["initial"].get("seed"),
        "output_dirs": f"fresh temporary directories under {TMP_ROOT.name}/ in the "
                       "checkout (ignored by git), deleted when the run ends",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    missing = [p for p in (spec_path, ROOT / "src" / "chcontrol" / "__init__.py",
                           ROOT / "configs") if not p.exists()]
    if missing:
        print(f"not a chcontrol checkout: missing {[str(p) for p in missing]}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed: must be nonnegative", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    TMP_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, work)
        print("facts " + json.dumps(machine_facts(bench), sort_keys=True))
        run = bench.traced if args.trace else bench.timed
        passes, metrics, problems = run(args.seconds, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        # commit the deletions now, so that they do not stall a later run
        fd = os.open(TMP_ROOT, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    name = args.workload
    failed = [p for p in passes if p["error"] is not None]
    for i, p in enumerate(passes):
        print(f"{name} pass {i}: wall {p.get('wall_s', float('nan')):.4f} s, "
              f"traced {p['traced']}, seed echoed {p.get('seed_echoed')}, "
              f"error {p['error']}")
    for problem in problems:
        print(f"{name} problem: {problem}")
    print(f"{name} fail_rate = {len(failed) / len(passes):.6g} "
          f"({len(failed)} of {len(passes)} passes)")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(passes),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
