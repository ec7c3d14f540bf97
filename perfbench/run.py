"""The repository benchmark: one command, two workloads.

Run from the repository root::

    python3 perfbench/run.py --workload cold-plan --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` interleaves
traced ops with untraced ones and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it (``meta {...}``) records the seed, commit, host and sample counts.
See ``perfbench/README.md`` for the metric tables.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "affine_compile_p50_s": "s",
    "random_compile_p50_s": "s",
    "compile_p90_s": "s",
    "first_request_p50_s": "s",
    "plan_disk_bytes": "B",
    "ok_frac": "fraction",
    "peak_rss_mib": "MiB",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "coloring.edge_coloring_s": "s",
    "core.engine_plan_self_s": "s",
    "passes.pipeline_s": "s",
    "staticcheck.validate_translation_s": "s",
    "passes.seal_program_s": "s",
    "planner.compile_self_s": "s",
    "core.io.save_plan_s": "s",
    "core.io.save_sealed_s": "s",
    "core.io.plan_file_bytes": "B",
    "core.io.sealed_file_bytes": "B",
    "core.io.load_sealed_s": "s",
    "ir.sealed_verify_s": "s",
    "planner.sealed_hit_ratio": "ratio",
    "passes.predicted_rounds": "count",
    "exec.np_take_floor_s": "s",
    "exec.sealed_run_s": "s",
    "planner.apply_self_s": "s",
    "service.apply_self_s": "s",
    "overhead_share": "fraction",
    "planner.memory_hit_ratio": "ratio",
    "exec.computed_bytes_per_op": "B",
    "server.queue_wait_s": "s",
    "server.dispatch_s": "s",
    "server.handoff_self_s": "s",
    "server.coalesced_ratio": "ratio",
    "server.attempts_per_request": "count",
    "telemetry.observations_per_request": "count",
    "server.unattributed_frac": "fraction",
    "unattributed_frac": "fraction",
    "trace_overhead_frac": "fraction",
}

WORKLOADS = ("cold-plan", "warm-apply")


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git
    (``unknown`` outside a git checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def cache_bytes() -> dict[str, int]:
    """Unified/data cache sizes by level (``L2``, ``L3``) of CPU 0."""
    out: dict[str, int] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.exists() else []:
        kind = _read(str(index / "type")).strip()
        level = _read(str(index / "level")).strip()
        size = _read(str(index / "size")).strip()
        if kind == "Instruction" or not size:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        digits = size.rstrip("KMG")
        if digits.isdigit():
            out[f"L{level}"] = int(digits) * scale
    return out


def host() -> dict[str, object]:
    import numpy as np

    model = next(
        (line.split(":", 1)[1].strip()
         for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    mem_kib = next(
        (int(line.split()[1])
         for line in _read("/proc/meminfo").splitlines()
         if line.startswith("MemTotal:")),
        0,
    )
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "caches_bytes": cache_bytes(),
        "ram_bytes": mem_kib * 1024,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def parse(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not "
              "found)", file=sys.stderr)
        return 2
    sys.path.insert(1, str(root / "src"))
    import workloads

    run = {
        "cold-plan": workloads.cold_plan,
        "warm-apply": workloads.warm_apply,
    }[args.workload]
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        outcome = run(args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    names = PER_LAYER if args.trace else END_TO_END
    values = outcome.layers if args.trace else outcome.metrics
    missing = sorted(set(names) - set(values))
    if missing:
        raise RuntimeError(f"workload did not report {missing}")
    print(f"{args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}")
    for name, unit in names.items():
        print(f"  {name:<36} {values[name]:>14.6g} {unit}")
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(root),
        "host": host(),
        "samples": outcome.samples,
        "failed_frac": outcome.tally.failed / max(1, outcome.tally.attempted),
        "errors": outcome.tally.errors,
        **outcome.meta,
    }
    if "index_bytes" in meta:
        # One apply reads the payload and the index and writes the
        # output; compare that working set with each cache level.
        working = 2 * meta["payload_bytes"] + meta["index_bytes"]
        meta["apply_working_set_vs_cache"] = {
            level: working / size
            for level, size in meta["host"]["caches_bytes"].items()
        }
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": outcome.tally.failed == 0,
        "attempted": outcome.tally.attempted,
        "failed": outcome.tally.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in names.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
