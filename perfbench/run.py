"""Pesos end-to-end benchmark: YCSB traffic through the HTTP front-end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ycsb-a-hot --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (and writes the spans under ``.perfbench_out/``).
``--selfcheck`` runs every workload's traced run twice under one seed
and once under another, and checks that the deterministic counts
repeat exactly.  The last line a workload run prints is one JSON
object; the exit code is non-zero when any response was wrong.  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: String hashing changes dict and set layouts; one fixed seed keeps
#: run-to-run spread down to what the code itself does.
HASH_SEED = "0"


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


def _print_table(title: str, rows: dict) -> None:
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:42s} {value:14.4f} {unit}")


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    from bench import run_traced, run_untraced
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    if trace:
        metrics, report, attempted, failed, problems = run_traced(
            workload, seed, ROOT / ".perfbench_out"
        )
    else:
        metrics, report, attempted, failed, problems = run_untraced(
            workload, seed, seconds
        )
    print(f"workload {workload.name} seed {seed}: {workload.why}")
    _print_table("metrics", metrics)
    _print_table("details", report)
    for problem in problems:
        print(f"MISMATCH {problem}", file=sys.stderr)
    correct = not problems
    _emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


#: Per-layer counts that must repeat exactly under one seed.
DETERMINISTIC = (
    "kinetic.roundtrips_per_op",
    "protocol.command_encodes_per_roundtrip",
    "kinetic.wire_bytes_per_op",
    "aead.bytes_per_op",
    "drive.bytes_written_per_user_byte",
    "store.meta_bytes_per_put",
    "freshness.pins_per_put",
    "sgx.seals_per_put",
    "policy.evals_per_op",
    "effects.events_retained_per_op",
    "virtual_us_per_op",
)


def _traced_counts(workload: str, seed: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        print(proc.stdout + proc.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    counts = {
        name: result["metrics"][name]["value"] for name in DETERMINISTIC
    }
    for line in lines:
        if line.strip().startswith("bytes_stored_per_user_byte"):
            counts["bytes_stored_per_user_byte"] = float(line.split()[1])
    return counts


def selfcheck(seed: int) -> int:
    """Same seed twice must give identical counts; a second seed must pass."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        first = _traced_counts(name, seed)
        second = _traced_counts(name, seed)
        other = _traced_counts(name, seed + 1)
        if first is None or second is None or other is None:
            print(f"{name}: a run failed")
            ok = False
            continue
        differing = [k for k in first if first[k] != second[k]]
        verdict = "repeat exactly" if not differing else f"DIFFER {differing}"
        print(f"{name}: seed {seed} counts {verdict}; seed {seed + 1} passes")
        for key in first:
            print(f"  {key:42s} {first[key]:14.4f} {other[key]:14.4f}")
        ok = ok and not differing
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no Pesos sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        return subprocess.run(
            [sys.executable, str(Path(__file__))] + argv, env=env, check=False
        ).returncode
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    if args.selfcheck:
        return selfcheck(args.seed)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
