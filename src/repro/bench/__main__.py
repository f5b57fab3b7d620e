"""Run the full evaluation from the command line.

Usage::

    python -m repro.bench                 # every figure
    python -m repro.bench fig3 fig7       # a subset
    REPRO_BENCH_SCALE=0.2 python -m repro.bench fig9   # quick pass

Prints each figure's table and saves JSON under benchmarks/results/.
"""

from __future__ import annotations

import sys
import time

from repro.bench import experiments
from repro.bench.report import save_figure


_RUNNERS = {
    "fig3": lambda: experiments.fig3_fig4()[0],
    "fig4": lambda: experiments.fig3_fig4()[1],
    "fig3+4": lambda: experiments.fig3_fig4(),
    "fig5": experiments.fig5_scalability,
    "fig6": experiments.fig6_payload,
    "enc": experiments.encryption_overhead,
    "fig7": experiments.fig7_replication,
    "fig8": experiments.fig8_policy_cache,
    "fig9": experiments.fig9_versioned,
    "fig10": experiments.fig10_mal,
    "abl-syscalls": experiments.ablation_syscalls,
    "abl-caches": experiments.ablation_caches,
    "abl-epc": experiments.ablation_epc,
    "concurrency": experiments.concurrency_sweep,
    "overload": experiments.overload_sweep,
    "freshness": experiments.freshness_overhead,
    "workload": experiments.workload_realism,
}

_DEFAULT = [
    "fig3+4", "fig5", "fig6", "enc", "fig7", "fig8", "fig9", "fig10",
    "abl-syscalls", "abl-caches", "abl-epc", "concurrency", "overload",
    "freshness", "workload",
]


def main(argv: list[str]) -> int:
    names = argv or _DEFAULT
    unknown = [name for name in names if name not in _RUNNERS]
    if unknown:
        print(f"unknown experiments: {unknown}")
        print(f"available: {sorted(_RUNNERS)}")
        return 2
    print(f"scale={experiments.bench_scale()}  experiments={names}")
    for name in names:
        started = time.time()
        result = _RUNNERS[name]()
        figures = result if isinstance(result, tuple) else (result,)
        for figure in figures:
            print()
            if isinstance(figure, dict):
                # Scalar experiments (e.g. freshness) return a plain
                # metrics dict instead of a FigureResult.
                for key in sorted(figure):
                    print(f"  {key} = {figure[key]}")
                continue
            print(figure.render())
            breakdown = figure.render_breakdown()
            if breakdown:
                print(breakdown)
            path = save_figure(figure)
            print(f"  [saved {path}]")
        print(f"  [{name}: {time.time() - started:.1f}s wall-clock]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
