"""Benchmark for fdzeros: one workload per run, one JSON line of results.

    python3 bench/run.py --workload {suite,high_degree,classify} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a source checkout; fdzeros is imported from ./src.
The last line of standard output is a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones (setup_s, pass_s, verified_roots, cold_start_s); with
--trace 1 they are the per-layer ones from `spans.py`.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the load comes from this process alone and never
# asks for more threads than the machine has.  Set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_PASSES = 3      # timed passes per run, however short --seconds is
FRESH_STARTS = 9    # fresh interpreters per run for setup_s and cold_start_s
SUBPROCESS_TIMEOUT = 60

# Host speed references, which share no code with fdzeros.  In-process
# passes are scaled by a fixed mix of pure-Python complex arithmetic and
# Aberth-like updates on small numpy arrays, the two kinds of work fdzeros
# does; fresh interpreters by a fresh interpreter that imports numpy, since
# process start-up (exec, dynamic loading, page faults) slows down with other
# tenants' load in its own way.  The nominal values are their medians on the
# 2-CPU machine the README figures come from.
REF_PY_REPS = 5_000
REF_NP_REPS = 250
REF_NOMINAL_S = 0.027
START_REF_NOMINAL_S = 0.2

# What one fresh interpreter does for setup_s: import fdzeros and build the
# workload's inputs with fdzeros constructors.
SETUP_PROBE = (
    "import sys, pathlib; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.build(sys.argv[3], int(sys.argv[4]), pathlib.Path(sys.argv[5]))"
)
# What `fdzeros analyze op.json` runs: the console-script entry point.
CLI_ENTRY = "import sys; from fdzeros.cli import main; sys.exit(main())"


def reference_seconds() -> float:
    """Wall time of the in-process reference work."""
    coeffs = [complex(k % 7 - 3, k % 5 - 2) for k in range(24)]
    z0 = np.exp(1j * np.linspace(0.1, 6.0, 24)) * 1.3
    c = np.linspace(1.0, 2.0, 25) + 0.5j
    t0 = time.perf_counter()
    total = 0j
    for r in range(REF_PY_REPS):
        x = complex(0.3 + 1e-5 * r, 0.2)
        acc = 0j
        for ck in coeffs:
            acc = acc * x + ck
        total += acc
    z = z0
    for _ in range(REF_NP_REPS):
        p = np.zeros_like(z)
        for k in range(0, 25, 4):
            p = p * z + c[k]
        d = z[:, None] - z[None, :]
        np.fill_diagonal(d, 1.0)
        z = z - 1e-9 * p / (1.0 + np.abs((1.0 / d).sum(axis=1)))
    elapsed = time.perf_counter() - t0
    if not (np.isfinite(total) and np.all(np.isfinite(z))):  # consume results
        raise ArithmeticError("reference work produced a non-finite value")
    return elapsed


def start_reference_seconds() -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    t0 = time.perf_counter()
    _run_checked([sys.executable, "-c", "import numpy"])
    return time.perf_counter() - t0


class ScaledClock:
    """Wall times rescaled to the nominal host speed.

    The machine is shared: the same fixed work takes up to twice as long
    when other tenants load the host, and that load drifts within seconds
    and over minutes.  A reference runs before and after every measured
    interval, and the interval's wall time is multiplied by the reference's
    nominal time over the mean of the two reference times.  Passes are
    measured operation by operation, so the reference follows the drift
    within a pass too; medians over passes damp the rest.
    """

    def __init__(self, reference, nominal: float):
        self._reference = reference
        self._nominal = nominal
        self._last_ref = reference()

    def measure(self, fn):
        """Run fn(); return its result, its scaled and its raw seconds."""
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        ref = self._reference()
        scaled = wall * self._nominal / (0.5 * (self._last_ref + ref))
        self._last_ref = ref
        return out, scaled, wall

    def measure_pass(self, ops):
        """Run every op of a pass; return their outputs and the scaled total.

        Also returns the pass's scale factor, scaled over raw seconds, which
        puts the traced pass's span times on the same footing.
        """
        outputs, total, raw = [], 0.0, 0.0
        for op in ops:
            out, scaled, wall = self.measure(op)
            outputs.append(out)
            total += scaled
            raw += wall
        return outputs, total, total / raw


def _fresh_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _run_checked(argv) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, cwd=ROOT, env=_fresh_env(), capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[2:]} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc


def measure_setup(clock, workload: str, seed: int, workdir: Path) -> float:
    """Median scaled time of fresh interpreters that import and build inputs."""
    times = []
    for k in range(FRESH_STARTS):
        probe_dir = workdir / f"setup{k}"
        probe_dir.mkdir()
        argv = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH),
                workload, str(seed), str(probe_dir)]
        times.append(clock.measure(lambda: _run_checked(argv))[1])
    return statistics.median(times)


def measure_cold_start(clock, op_path: Path, tally) -> float:
    """Median scaled time of a fresh `fdzeros analyze op.json` process."""
    argv = [sys.executable, "-c", CLI_ENTRY, "analyze", str(op_path)]
    times = []
    for _ in range(FRESH_STARTS):
        proc, scaled, _ = clock.measure(lambda: _run_checked(argv))
        if not json.loads(proc.stdout)["hyperbolicity_preserver"]:
            tally.mismatches.append("cold start: preserver not recognised")
        times.append(scaled)
    return statistics.median(times)


def write_cold_start_operator(seed: int, workdir: Path) -> Path:
    import fdzeros

    op = fdzeros.random_preserver(2, np.random.default_rng([seed, 99]))
    path = workdir / "cold_start_op.json"
    path.write_text(json.dumps(fdzeros.operator_to_json(op)))
    return path


def timed_passes(clock, wl, seconds: float, tally, tracer=None):
    """Warm up, then run whole rounds of passes until `seconds` have gone by.

    Without a tracer a round is one untraced pass.  With one, a round is an
    untraced pass followed by a traced pass, and the per-layer summary of each
    traced pass is kept, its times scaled like the pass's.  Returns the scaled
    untraced times, the scaled traced times and the traced summaries.  Every
    pass is checked; the checks are not timed.
    """
    wl.check([op() for op in wl.ops])  # warm-up: lazy imports, caches, oracles
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while len(plain) < MIN_PASSES or time.perf_counter() - start < seconds:
        out, scaled, _ = clock.measure_pass(wl.ops)
        plain.append(scaled)
        tally.add(wl.check(out))
        if tracer is None:
            continue
        tracer.reset()
        with tracer.installed():
            out, scaled, factor = clock.measure_pass(wl.ops)
        traced.append(scaled)
        layers.append(tracer.summary(factor))
        tally.add(wl.check(out))
    return plain, traced, layers


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite", "high_degree", "classify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "fdzeros" / "__init__.py").is_file():
        print(f"error: no fdzeros sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        tally = workloads.Tally()
        tracer = spans.Tracer() if args.trace else None
        clock = ScaledClock(reference_seconds, REF_NOMINAL_S)
        plain, traced, layers = timed_passes(clock, wl, args.seconds, tally, tracer)
        passes = len(plain) + len(traced)
        if args.trace:
            metrics = {}
            for name, unit in spans.metric_names():
                if name == "trace.overhead_s":
                    value = statistics.median(traced) - statistics.median(plain)
                else:
                    value = statistics.median(s[name] for s in layers)
                metrics[name] = metric(value, unit)
            tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
        else:
            cold_op = write_cold_start_operator(args.seed, workdir)
            start_clock = ScaledClock(start_reference_seconds, START_REF_NOMINAL_S)
            metrics = {
                "setup_s": metric(measure_setup(start_clock, args.workload,
                                                args.seed, workdir), "s"),
                "pass_s": metric(statistics.median(plain), "s"),
                "verified_roots": metric(tally.verified_roots // passes, "count"),
                "cold_start_s": metric(measure_cold_start(start_clock, cold_op, tally),
                                       "s"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in tally.mismatches[:10]:
        print(f"mismatch: {problem}", file=sys.stderr)
    # Counts are per pass, so they do not grow with the number of passes that
    # fit in --seconds; every pass attempts the same operations.  A failure
    # seen in any pass counts as a whole one.
    print(json.dumps({
        "correct": not tally.mismatches,
        "attempted": tally.attempted // passes,
        "failed": math.ceil(tally.failed / passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
