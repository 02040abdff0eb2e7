"""chrono-shield benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {train,attack,defend} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The program is imported from src/. The
untraced run (--trace 0) times the workload for S seconds and prints the
end-to-end metrics. The traced run (--trace 1) runs a fixed amount of the
workload's work twice, untraced and then with every layer in layers.POINTS
traced, so its per-layer numbers compare across commits; it prints the
per-layer metrics, with the tracing overhead taken from the two runs.
Before the result line it prints one JSON line of detail: the machine
record, every workload figure with its unit and sample count, set-up times
and the attack report's SHA-256. The last line is
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

# name -> unit of every end-to-end metric, in BENCHMARK.json order
END_TO_END = {"setup_s": "s", "throughput": "1/s", "ops_ok_ratio": "ratio"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "attack", "defend"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload: str, seed: int, seconds: float, trace: bool, scale, workdir: Path) -> tuple[dict, dict]:
    """(detail, result) for one run: the two lines main() prints."""
    from layers import POINTS, UNITS, per_layer
    from machine import gemm_gflops, machine_record
    from tracing import Tracer
    from workloads import WORKLOADS

    detail = {"workload": workload, "seed": seed, "machine": machine_record(), "host.gemm_gflops": gemm_gflops()}
    wl = WORKLOADS[workload](seed, scale, workdir)
    try:
        setups, layers = [], {}
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            for name, value in wl.setup().items():
                layers.setdefault(name, []).append(value)
            setups.append(time.perf_counter() - start)
        setup_layers = {name: statistics.median(values) for name, values in layers.items()}
        wl.warm_up()

        fixed = wl.traced_units if trace else None
        plain = wl.phase(seconds, fixed)
        failed = wl.check(plain)
        attempted = plain.attempted
        if trace:
            tracer = Tracer()
            with tracer.installed(POINTS):
                traced = wl.phase(seconds, fixed)
            failed += wl.check(traced)
            attempted += traced.attempted
            defects = wl.known_defects()
    finally:
        wl.close()

    detail.update(
        unit=wl.unit,
        setup_s=setups,
        setup_layers=setup_layers,
        throughput=plain.throughput,
        timed_s=plain.seconds,
        figures={name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in plain.figures.items()},
        counters=plain.counters,
    )
    if trace:
        detail["known_defects"] = defects
        values = per_layer(
            tracer.totals(),
            tracer.sizes,
            traced.counters,
            plain.figures,
            {
                **setup_layers,
                **defects,
                "ops_failed_ratio": failed / attempted,
                "trace.overhead_ratio": plain.throughput / traced.throughput - 1.0,
                "trace.phase_s": traced.seconds,
                "host.gemm_gflops": detail["host.gemm_gflops"],
            },
        )
        units = UNITS
    else:
        values = {
            "setup_s": statistics.median(setups),
            "throughput": plain.throughput,
            "ops_ok_ratio": 1.0 - failed / attempted,
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return detail, result


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "chrono_shield" / "__init__.py").is_file():
        print(f"perfbench: no chrono_shield package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import FULL

    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)  # left by a killed run: a stale cache is not cold
    workdir.mkdir(parents=True)
    try:
        detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace), FULL, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
