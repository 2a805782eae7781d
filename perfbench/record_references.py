"""Record the optimize-1d reference answers that the per-pass gate checks.

Run from the root of a checkout, on the commit whose answers should be
the reference (the gate then accepts later commits whose optimum agrees
within the tolerances in workloads.py):

    python3 perfbench/record_references.py

Solves every member of the optimize-1d initial-data family in this
process and rewrites references.json next to this file.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from chcontrol import cli  # noqa: E402
from workloads import OPTIMIZE_FAMILY, config_optimize_1d  # noqa: E402


def main() -> int:
    refs = {}
    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    for index in range(OPTIMIZE_FAMILY):
        tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=tmp_root))
        try:
            cfg_path = tmp / "config.json"
            cfg_path.write_text(json.dumps(config_optimize_1d(ROOT, index)))
            code = cli.run(cfg_path, out_dir=tmp / "out")
            if code != 0:
                print(f"index {index}: exit code {code}", file=sys.stderr)
                return 1
            opt = json.loads((tmp / "out" / "optimize" / "optimum.json").read_text())
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if not opt["converged"]:
            print(f"index {index}: not converged", file=sys.stderr)
            return 1
        refs[str(index)] = {k: opt[k] for k in ("cost_total", "tau_opt", "iterations")}
        print(index, refs[str(index)], flush=True)
    with open(HERE / "references.json", "w") as fh:
        json.dump({"optimize-1d": refs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
