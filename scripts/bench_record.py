"""Record a parent/change benchmark comparison to a BENCH_<n>.json file.

    python3 scripts/bench_record.py --parent REV [--change REV] --out BENCH_<n>.json \\
        [--seed-base 101]

Run it from the root of the repository.  Each revision's committed files are
exported with `git archive` into a scratch directory, so both sides run the
same benchmark code from a clean checkout.  For every workload it runs
PAIRS pairs of `bench/run.py --seconds 20 --trace 0` at seeds seed-base,
seed-base+1, ..., alternating which side runs first, and keeps every result
line.  It then records one traced run per workload and side (`--trace 1`,
seed seed-base) and a layer table: the best of 5 in-process timings of
`shift_arg`, `apply_op` and `apply_tb` on both sides of the degree cutover
of their batched Taylor shift, `roots` (including the NonConvergence raise
for gn(96, 0.7, 1), which the forward certificate decides), `roots_many`,
`witness_search` and `cli.main` at fixed inputs, and of
`run_properties(SuiteConfig(42, 20), [prop])` for each harness property
(LAYER_SCRIPT), and, from one more untimed run of each property, its
`rootfind._aberth_core` calls and rows, and the rows those calls certify
(`property_<name>_engine_calls`, `_engine_rows` and `_engine_certified`),
and likewise the calls, rows and certified rows of the pencil's sign
certificate `rootfind._real_by_signs` (`_sign_calls`, `_sign_rows` and
`_sign_certified`), which decides rows without the engine (the traced run
cannot count either, since its spans do not see into request generators),
kept apart in a `counts` block per side, next to
a `cold_start_modules` block: per side, the sorted fdzeros modules (and their
count) that one fresh `analyze` process loads, run as `cold_start_s` runs it.
The layer table has a third side, `control`, a second export of the parent:
each of LAYER_ROUNDS rounds runs the three sides in an order rotated by one
from the last, and each side's entry is its per-layer median over the rounds.
The control's relative difference from the parent is the spread of the table
on unchanged code; a layer claim needs the change's difference to exceed it.
The output holds the git revisions, machine information, every result line,
per-metric medians and quartiles, every traced run's per-layer metrics and
the layer tables with every round.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT = 600
# Ten pairs of 20 s runs is what a speed claim on the benchmark rests on.
PAIRS = 10
SECONDS = 20.0
WORKLOADS = ("suite", "high_degree", "classify")
# Rounds of the layer table per side.  With one run per side, host drift
# between the two runs reads as a layer change (up to 20% on this benchmark's
# layers for unchanged code); 6 rounds put each of the three sides in each
# position twice, and the median over them lets no single quiet or busy
# round decide a row.
LAYER_ROUNDS = 6
LAYER_SIDES = ("parent", "change", "control")

# Run in a fresh interpreter inside an exported tree; prints one JSON object,
# seconds per call by layer and input, each the best of 5 repetitions of a
# loop long enough (timeit's autorange) to be timed.  The inputs are fixed:
# real-rooted polynomials with roots drawn from [-5, 5], a preserver of
# half-support 2, T_{0.7,1}, gn(50, 0.7, 1), gn(96, 0.7, 1) (timed up to
# its NonConvergence), and two m = 2 operators of the classify workload,
# built as that workload builds them (the seeded one at FIXED_SEED):
# `witness_search` runs on the `off_circle` one, whose candidates it
# searches, and `cli.main` runs `analyze` on the `rotated` one's file with
# stdout captured.  Each harness property runs as one property of
# `fdzeros verify --seed 42 --trials 20` (the `suite` workload's operation),
# timed with the same autorange loop as the other layers: one call per
# repetition left sub-millisecond properties at the mercy of host noise.
LAYER_SCRIPT = """
import contextlib, io, json, sys, timeit
import numpy as np
sys.path[:0] = ["src", "bench"]
from fdzeros import (ALL_PROPERTIES, DeBruijnOp, NonConvergence, SuiteConfig, apply_op,
                     apply_tb, cli, from_roots, gn, operator_to_json, random_preserver,
                     rootfind, roots, roots_many, run_properties, shift_arg,
                     witness_search)
from workloads import FIXED_SEED, KINDS

def best(fn):
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(5, number)) / number

def poly(n):
    return from_roots(np.random.default_rng([7, n]).uniform(-5.0, 5.0, n))

op = random_preserver(2, np.random.default_rng(7))
def classify_op(kind):
    return KINDS[kind][0](2, np.random.default_rng([FIXED_SEED, list(KINDS).index(kind), 2]))

off_circle, rotated = classify_op("off_circle"), classify_op("rotated")
out = {}
for n in (8, 50, 200):
    p = poly(n)
    out[f"shift_arg_n{n}_s"] = best(lambda: shift_arg(p, 1.5j))
for n in (8, 50, 64, 96, 200):
    p = poly(n)
    out[f"apply_op_m2_n{n}_s"] = best(lambda: apply_op(op, p))
for n in (8, 50, 96, 200):
    p = poly(n)
    out[f"apply_tb_n{n}_s"] = best(lambda: apply_tb(DeBruijnOp(0.7, 1.0), p))
for n in (8, 20):
    p = poly(n)
    out[f"roots_n{n}_s"] = best(lambda: roots(p))
g = gn(50, 0.7, 1.0)
out["roots_gn50_s"] = best(lambda: roots(g))
g96 = gn(96, 0.7, 1.0)

def roots_raises(p):
    try:
        roots(p)
    except NonConvergence:
        return
    raise AssertionError("expected NonConvergence")

out["roots_gn96_s"] = best(lambda: roots_raises(g96))
many = [from_roots(np.random.default_rng([7, 8, k]).uniform(-5.0, 5.0, 8))
        for k in range(200)]
out["roots_many_200x8_s"] = best(lambda: roots_many(many))
out["witness_search_off_circle_m2_s"] = best(lambda: witness_search(off_circle))
with open("layer_rotated_m2.json", "w") as fh:
    json.dump(operator_to_json(rotated), fh)

def analyze_cli():
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["analyze", "layer_rotated_m2.json"])

out["cli_main_analyze_s"] = best(analyze_cli)
suite = SuiteConfig(seed=42, trials=20)
for prop in sorted(ALL_PROPERTIES, key=lambda p: p.name):
    out[f"property_{prop.name}_s"] = best(lambda: run_properties(suite, [prop]))
# Engine calls, rows and certified rows of one more run per property,
# counted at the engine core that every root-find goes through, and the
# calls, rows and certified rows of the pencil's sign certificate, which
# decides rows without the engine; not timed.
counts = {}
core, signs = rootfind._aberth_core, rootfind._real_by_signs
for prop in sorted(ALL_PROPERTIES, key=lambda p: p.name):
    tally = dict.fromkeys(("engine_calls", "engine_rows", "engine_certified",
                           "sign_calls", "sign_rows", "sign_certified"), 0)

    def counted(c, *deg):
        # the engine takes each row's degree since it pads rows of every
        # width into one call; a tree from before that takes c alone
        batch = core(c, *deg)
        tally["engine_calls"] += 1
        tally["engine_rows"] += len(c)
        tally["engine_certified"] += batch.failed.count(None)
        return batch

    def signed(c, hints):
        real = signs(c, hints)
        tally["sign_calls"] += 1
        tally["sign_rows"] += len(c)
        tally["sign_certified"] += int(real.sum())
        return real

    rootfind._aberth_core, rootfind._real_by_signs = counted, signed
    try:
        run_properties(suite, [prop])
    finally:
        rootfind._aberth_core, rootfind._real_by_signs = core, signs
    counts.update((f"property_{prop.name}_{k}", v) for k, v in tally.items())
print(json.dumps({"layers": out, "counts": counts}))
"""

# Run in a fresh interpreter inside an exported tree; prints the sorted names
# of the fdzeros modules that one `fdzeros analyze op.json` process loads, run
# as `cold_start_s` runs it: bench/run.py's CLI_ENTRY on the operator its
# write_cold_start_operator writes for the seed in argv[1].
MODULES_SCRIPT = """
import json, os, subprocess, sys, tempfile
from pathlib import Path
sys.path[:0] = ["src", "bench"]
import run

probe = ("import atexit, json, sys; atexit.register(lambda: print(json.dumps(sorted("
         "k for k in sys.modules if k.split('.')[0] == 'fdzeros')), file=sys.stderr)); "
         + run.CLI_ENTRY)
with tempfile.TemporaryDirectory() as tmp:
    op = run.write_cold_start_operator(int(sys.argv[1]), Path(tmp))
    proc = subprocess.run([sys.executable, "-c", probe, "analyze", str(op)],
                          env=dict(os.environ, PYTHONPATH="src"), check=True,
                          capture_output=True, text=True)
print(proc.stderr.strip().splitlines()[-1])
"""


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {tree}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_table(tree: Path) -> dict:
    proc = subprocess.run([sys.executable, "-c", LAYER_SCRIPT], cwd=tree,
                          capture_output=True, text=True, timeout=RUN_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"layer table in {tree}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def cold_start_modules(tree: Path, seed: int) -> list[str]:
    proc = subprocess.run([sys.executable, "-c", MODULES_SCRIPT, str(seed)], cwd=tree,
                          capture_output=True, text=True, timeout=RUN_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"cold start modules in {tree}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def layer_tables(trees: dict, seed: int) -> dict:
    rounds = []
    counts: dict = {side: [] for side in LAYER_SIDES}
    for k in range(LAYER_ROUNDS):
        order = LAYER_SIDES[k % 3:] + LAYER_SIDES[:k % 3]
        rnd = {"order": list(order)}
        for side in order:
            table = layer_table(trees[side])
            rnd[side] = table["layers"]
            counts[side].append(table["counts"])
        rounds.append(rnd)
    out = {side: {name: statistics.median(r[side][name] for r in rounds)
                   for name in rounds[0][side]}
           for side in LAYER_SIDES}
    # Each side's median relative to the parent's, per layer; the control
    # reads the table's spread on unchanged code.
    out["relative_to_parent"] = {
        side: {name: out[side][name] / out["parent"][name] - 1.0 for name in out["parent"]}
        for side in ("change", "control")}
    out["control_spread"] = max(abs(v) for v in out["relative_to_parent"]["control"].values())
    # Engine and sign counts repeat exactly from round to round, and some
    # are 0, so they stay out of the medians and ratios above: one block per
    # side, and whether every round gave that side the same counts.
    out["counts"] = {side: counts[side][0] for side in LAYER_SIDES}
    out["counts_repeat"] = all(c == counts[side][0]
                               for side in LAYER_SIDES for c in counts[side])
    # The fdzeros modules a fresh `analyze` process loads, which decide much
    # of `cold_start_s`; like the counts, they repeat exactly.
    modules = {side: cold_start_modules(trees[side], seed) for side in LAYER_SIDES}
    out["cold_start_modules"] = {side: {"count": len(names), "modules": names}
                                 for side, names in modules.items()}
    out["rounds"] = rounds
    return out


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def summarize(pairs: list[dict]) -> dict:
    out = {}
    for name, better in (("setup_s", "lower"), ("pass_s", "lower"),
                         ("verified_roots", "higher"), ("cold_start_s", "lower")):
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = 1 if better == "lower" else -1
        out[name] = {
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    out["correct"] = all(p[s]["correct"] for p in pairs for s in ("parent", "change"))
    out["attempted_failed"] = sorted({(p[s]["attempted"], p[s]["failed"])
                                      for p in pairs for s in ("parent", "change")})
    return out


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "cpu_model": model,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    parser.add_argument("--out", required=True, help="output JSON path")
    parser.add_argument("--seed-base", type=int, default=101)
    args = parser.parse_args(argv)

    revs = {side: git("rev-parse", rev) for side, rev in
            (("parent", args.parent), ("change", args.change))}
    scratch = Path(tempfile.mkdtemp(prefix="bench-record-"))
    try:
        trees = {side: export(rev, scratch / side) for side, rev in revs.items()}
        trees["control"] = export(revs["parent"], scratch / "control")
        workloads = {}
        for workload in WORKLOADS:
            pairs = []
            for k in range(PAIRS):
                seed = args.seed_base + k
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(trees[side], workload, seed, SECONDS, 0)
                print(f"{workload} seed {seed}: parent "
                      f"{pair['parent']['metrics']['pass_s']['value']:.3f} s, change "
                      f"{pair['change']['metrics']['pass_s']['value']:.3f} s",
                      file=sys.stderr)
                pairs.append(pair)
            workloads[workload] = {"runs": pairs, "summary": summarize(pairs)}
        traced = {workload: {side: run_bench(trees[side], workload, args.seed_base,
                                             SECONDS, 1)["metrics"]
                             for side in revs}
                  for workload in WORKLOADS}
        layers = layer_tables(trees, args.seed_base)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = {
        "revisions": {side: {"commit": rev, "src_tree": git("rev-parse", f"{rev}:src")}
                      for side, rev in revs.items()},
        "machine": machine(),
        "settings": {"pairs": PAIRS, "seconds": SECONDS, "layer_rounds": LAYER_ROUNDS,
                     "seeds": [args.seed_base, args.seed_base + PAIRS - 1],
                     "command": "python3 bench/run.py --workload W --seed S "
                                f"--seconds {SECONDS:g} --trace 0"},
        "workloads": workloads,
        "traced": {workload: {side: {name: m["value"] for name, m in metrics.items()}
                              for side, metrics in sides.items()}
                   for workload, sides in traced.items()},
        "layers": layers,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
