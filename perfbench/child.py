"""One pass of ``chcontrol.cli.run`` in a fresh process.

Run by run.py, never by hand. The process imports the package from the
checkout's ``src/``, parses the config and prints ``ready`` (the parent
times set-up up to that line), then runs the config through the public
entry point ``chcontrol.cli.run`` and prints one JSON line: exit code,
wall time, peak resident memory and, for a traced pass, the per-layer
metrics. With ``--setup-only`` it exits after ``ready``.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="trace the pass, write spans here")
    ap.add_argument("--pass-id", type=int, default=0)
    args = ap.parse_args()

    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import chcontrol
    from chcontrol import cli

    if Path(chcontrol.__file__).resolve().parent != src / "chcontrol":
        print(f"chcontrol imported from {chcontrol.__file__}, not {src}", file=sys.stderr)
        return 2
    cli.parse_config(args.config, out_dir=args.out_dir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.spans:
        import tracer as tracing  # found next to this script

        tracer = tracing.Tracer()
        tracing.install(tracer)

    t0 = time.perf_counter()
    code = cli.run(args.config, out_dir=args.out_dir)
    wall = time.perf_counter() - t0
    result = {
        "exit_code": code,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(args.spans, args.pass_id)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
