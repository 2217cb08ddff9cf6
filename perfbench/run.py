"""flowseq benchmark: one workload, measured for a fixed time, checked, and reported as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a flowseq checkout; the package is imported from
./src, and BENCHMARK.json names the metrics and their units. The run repeats
whole units of the workload (set-up included) while the next one should still
end within --seconds. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones, medians over units, in reference seconds (see speed.py).
With --trace 1 untraced and traced units alternate, and the metrics are the
per-layer ones from the traced units plus the tracing overhead; the spans are
written to .perfbench/ when the run ends. Every unit of one run must produce
the same output digest, traced or not.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: with OpenBLAS at its default thread count the
# first SFT warm start of a process took twice as long as later ones.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# an untraced unit sets up at least SETUP_REPEATS times, and again until set-up has taken SETUP_SECONDS
SETUP_REPEATS = 3
SETUP_SECONDS = 0.25
SETUP_MAX_REPEATS = 5000


def git_revision(root: Path) -> str | None:
    """HEAD of the checkout's own .git, or None when it is not a git repository."""
    try:
        done = subprocess.run(["git", f"--git-dir={root / '.git'}", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy as np

    return {
        "git_revision": git_revision(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def wall(t0: float, t1: float) -> float:
    return t1 - t0


def total(unit, measure) -> float:
    """A unit's measured work: its last set-up plus every other phase."""
    seconds = unit.seconds(measure)
    return measure(*unit.intervals["setup_s"][-1]) + sum(v for k, v in seconds.items() if k != "setup_s")


def run_units(workload, seed: int, seconds: float, tracer, probe, workdir: Path) -> list:
    """Units of the workload, alternating untraced and traced when a tracer is given."""
    import layers
    from workloads import Unit

    units = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(units) % 2 == 1
        unit = Unit(tracer if traced else None)
        if traced:
            layers.install(tracer)
        # a traced unit sets up once, so its per-layer set-up figures are those of one set-up
        min_repeats, min_seconds = (1, 0.0) if traced else (SETUP_REPEATS, SETUP_SECONDS)
        try:
            setup_time = 0.0
            while len(unit.intervals["setup_s"]) < min_repeats or (
                    setup_time < min_seconds and len(unit.intervals["setup_s"]) < SETUP_MAX_REPEATS):
                with unit.phase("setup_s"):
                    state = workload.setup(unit, seed, workdir)
                setup_time += wall(*unit.intervals["setup_s"][-1])
            workload.run(unit, state, seed, workdir)
        finally:
            if traced:
                tracer.unpatch()
        units.append((traced, unit))
        phases = {k: round(v, 4) for k, v in unit.seconds(probe.reference_seconds).items()}
        print(f"unit {len(units) - 1}: traced={int(traced)} wall_s={total(unit, wall):.3f} "
              f"reference_s={total(unit, probe.reference_seconds):.3f} digest={unit.digest} "
              f"phases={json.dumps(phases)}")
        # stop before a unit that would likely end past the deadline, so that a run lasts
        # at most about `seconds` however fast the machine is
        elapsed = perf_counter() - start
        if len(units) >= (2 if tracer else 1) and elapsed * (len(units) + 1) / len(units) > seconds:
            return units


def end_to_end(units: list, measure) -> dict[str, float]:
    first = units[0][1]
    values = {
        "setup_s": statistics.median(measure(a, b) for _, u in units for a, b in u.intervals["setup_s"]),
        "wall_s": statistics.median(total(u, measure) for _, u in units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name in first.intervals:
        if name != "setup_s":
            values[name] = statistics.median(u.seconds(measure)[name] for _, u in units)
    values.update(first.quality)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flowseq" / "__init__.py").is_file():
        print(f"perfbench: no flowseq sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import layers
    from spans import Tracer
    from speed import SpeedProbe
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print(json.dumps({"environment": environment(), "workload": workload.name, "seed": args.seed}))

    tracer = Tracer() if args.trace else None
    workdir = OUT / f"{workload.name}-s{args.seed}-{os.getpid()}"
    try:
        with SpeedProbe() as probe:
            units = run_units(workload, args.seed, args.seconds, tracer, probe, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = [c for _, unit in units for c in unit.checks]
    checks += [(f"unit {i} digest matches unit 0", unit.digest == units[0][1].digest)
               for i, (_, unit) in enumerate(units[1:], start=1)]
    for what, ok in checks:
        if not ok:
            print(f"perfbench: check failed: {what}", file=sys.stderr)
    failed = sum(not ok for _, ok in checks)

    measure = probe.reference_seconds
    if tracer is None:
        declared = spec["end_to_end"]
        values = end_to_end(units, measure)
    else:
        declared = spec["per_layer"]
        untraced = statistics.median(total(u, measure) for t, u in units if not t)
        overhead = statistics.median(total(u, measure) for t, u in units if t) - untraced
        values = layers.layer_metrics(tracer, [m["name"] for m in declared], sum(t for t, _ in units),
                                      overhead, untraced)
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / f"spans-{workload.name}-s{args.seed}.tsv"))
    if sorted(values) != sorted(m["name"] for m in declared):
        raise RuntimeError(f"measured metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
