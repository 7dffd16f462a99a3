"""Repository benchmark: one command, three workloads, every metric by name.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ring_large --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace 1``
prints the per-layer metrics of a separate traced run.  Metric names and
units come from ``BENCHMARK.json``; ``layer_map.json`` says which end-to-end
metric each per-layer metric should move.  Lines starting with ``#`` are the
human-readable report; the last line is the JSON result.  The exit code is
0 when every output check passed, 1 when one failed and 2 when the
benchmark cannot run at all (for example without the ``src/`` tree).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def git_revision() -> str:
    """Revision of the checkout, without searching directories above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown (not a git checkout)"


def load_spec() -> tuple[dict, dict]:
    spec_path = ROOT / "BENCHMARK.json"
    layer_path = HERE / "layer_map.json"
    if not (ROOT / "src" / "repro").is_dir():
        fail(f"no source tree at {ROOT / 'src' / 'repro'}")
    try:
        spec = json.loads(spec_path.read_text())
        layer_map = json.loads(layer_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read the benchmark definition: {exc}")
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layer_map]
    if missing:
        fail(f"layer_map.json has no entry for {missing}")
    return spec, layer_map


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    spec, layer_map = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np

    import workloads

    numba_absent = True
    try:
        import numba  # noqa: F401

        numba_absent = False
    except ImportError:
        pass
    provenance = {
        "git": git_revision(),
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "numba_absent": numba_absent,
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("# provenance " + json.dumps(provenance, sort_keys=True))

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root, prefix=f"{args.workload}-"))
    checks = workloads.Checks()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, checks, workdir)
    try:
        setup_s = workload.setup()
        if args.trace:
            values = workload.traced()
        else:
            values = workload.measure()
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = peak_rss_mb()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if workload.last_spans is not None:
        path = work_root / "spans" / f"{args.workload}.jsonl.gz"
        workload.last_spans.write(path)
        print(f"# spans of the last traced round: {path.relative_to(ROOT)}")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in declared:
        # a layer a workload bypasses reports 0; an end-to-end metric never does
        if not args.trace and metric["name"] not in values:
            checks.record(False, f"{args.workload} did not measure {metric['name']}")
        value = float(values.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        line = f"# {args.workload:14s} {metric['name']:28s} {value:14.6g} {metric['unit']}"
        if args.trace:
            moves = layer_map[metric["name"]]["moves"]
            line += f"   -> {moves}"
        print(line)
    unknown = sorted(set(values) - {m["name"] for m in declared})
    if unknown:
        checks.record(False, f"measured metrics missing from BENCHMARK.json: {unknown}")
    for message in checks.messages:
        print(f"# FAILED: {message}")
    correct = checks.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(checks.attempted, 1),
                "failed": checks.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
