#!/usr/bin/env python3
"""esgain benchmark: seeded CLI job batches, checked outputs, per-layer trace.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the repository root. The seed generates JSON configs (see gen.py);
the program sees only those files. Each pass runs the workload's whole job
batch through `esgain.cli.main`, one job after another in one fresh child
interpreter (a closed loop with one client) with BLAS threads pinned to 1.
Passes repeat until --seconds have gone by, with at least three, so every
job is rerun and its artifacts must come out byte-identical.

--trace 0 prints the end-to-end metrics:
  setup_s      fresh interpreters spawned and importing esgain.cli until they
               could take a job; two probes before every pass, fastest kept
  wall_s       the batch's wall time, job by job: each job's fastest pass,
               summed over the batch
  peak_rss_mb  peak resident memory of the child, median over passes
The host's CPU speed drifts by 15-30 % over seconds to minutes (a fixed
Python loop shows it too), and drift only ever adds time, so the fastest
sample is the steadiest estimate of a cost; medians over passes spread
three times wider from run to run.

--trace 1 runs one untraced and one traced pass and prints the per-layer
metrics of the traced one (see layers.py), with the tracing overhead as
traced minus untraced wall time. The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402

SETUP_PROBES_PER_PASS = 2
MIN_PASSES = 3
RUN_LIMIT_S = 150.0         # stop starting passes past this; the run must end by 180 s


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def setup_probe() -> float:
    """Seconds from spawning a fresh interpreter until esgain.cli is
    imported and it could take its first job."""
    code = "import esgain.cli, sys; sys.stdout.write(esgain.cli.__file__ + '\\n')"
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], env=child_env(),
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or not line.startswith(SRC + os.sep):
        raise RuntimeError(f"esgain.cli did not import from {SRC}: {line!r}")
    return elapsed


def run_pass(work: str, k: int, jobs: list, traced: bool, timeout: float) -> dict:
    out_root = os.path.join(work, f"pass{k}")
    spec = [[command, name, path, os.path.join(out_root, name)]
            for command, name, path in jobs]
    jobs_path = os.path.join(work, f"jobs{k}.json")
    result_path = os.path.join(work, f"result{k}.json")
    with open(jobs_path, "w") as fh:
        json.dump(spec, fh)
    argv = [sys.executable, os.path.join(HERE, "child.py"), jobs_path, result_path]
    subprocess.run(argv + (["trace"] if traced else []), env=child_env(),
                   timeout=timeout, check=True, stdout=subprocess.DEVNULL)
    with open(result_path) as fh:
        result = json.load(fh)
    if not result["esgain_file"].startswith(SRC + os.sep):
        raise RuntimeError(f"child imported esgain from {result['esgain_file']}")
    result["out_root"] = out_root
    return result


def check_passes(seed: int, jobs: list, passes: list) -> tuple:
    """Return (attempted, failures, budget_over_tolerance)."""
    configs = {}
    for _, name, path in jobs:
        with open(path) as fh:
            configs[name] = json.load(fh)
    failures = []
    over = 0
    first = passes[0]["out_root"]
    for k, res in enumerate(passes):
        for (command, name, _), rec in zip(jobs, res["jobs"]):
            out_dir = os.path.join(res["out_root"], name)
            if rec["exit_code"] != 0:
                reason = f"exit code {rec['exit_code']} {rec['error'] or ''}"
            else:
                try:   # a missing or malformed artifact fails the job, not the run
                    reason = checks.CHECKS[command](configs[name], out_dir)
                    if reason is None and k:
                        reason = checks.same_artifacts(os.path.join(first, name), out_dir)
                    if reason is None and k == 0:
                        over += checks.budget_over_tolerance(configs[name], out_dir)
                except (OSError, KeyError, TypeError, ValueError) as exc:
                    reason = f"unreadable artifacts: {exc!r}"
            if reason:
                failures.append(f"pass {k} {name}: {reason}")
    for (command, name, _), rec in zip(jobs, passes[0]["jobs"]):
        if command == "perfmap" and rec["exit_code"] == 0:
            rows = checks.read_perfmap(os.path.join(first, name))
            rng = random.Random(f"check:{seed}:{name}")
            picks = rng.sample(range(len(rows)), 3)
            escaped = [i for i in range(len(rows)) if rows[i, 4] == 0 and i not in picks]
            picks += rng.sample(escaped, 1) if escaped else []
            failures += [f"pass 0 {name}: {r}"
                         for r in checks.reintegrate_cells(configs[name], rows, picks)]
    attempted = len(jobs) * len(passes)
    return attempted, failures, over


def work_counts(jobs: list) -> dict:
    """RK4 steps (simulate) and cell-steps (gainmap) in one batch."""
    steps = cell_steps = 0
    for command, _, path in jobs:
        with open(path) as fh:
            cfg = json.load(fh)
        if command == "simulate":
            per_traj, trajs = checks.simulate_steps(cfg)
            steps += per_traj * trajs
        elif command == "perfmap":
            sim = cfg["sim"]
            cell_steps += (sim["a_points"] * sim["p_points"] * sim["horizon_periods"]
                           * checks.STEPS_PER_PERIOD)
    return {"steps": steps, "cell_steps": cell_steps}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = perf_counter()
    if not os.path.isfile(os.path.join(SRC, "esgain", "cli.py")):
        print(f"no esgain sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        jobs = gen.write_jobs(args.workload, args.seed, os.path.join(work, "configs"))
        setup_probe()   # fills the file cache and compiles bytecode once
        setup_samples = []
        passes = []
        t_measure = perf_counter()
        while True:
            if not args.trace:   # probes between passes sample the whole run
                setup_samples += [setup_probe() for _ in range(SETUP_PROBES_PER_PASS)]
            traced = bool(args.trace) and len(passes) == 1
            passes.append(run_pass(work, len(passes), jobs, traced,
                                   timeout=max(1.0, 170.0 - (perf_counter() - start))))
            elapsed = perf_counter() - t_measure
            if args.trace:
                if len(passes) == 2:
                    break
            elif len(passes) >= MIN_PASSES and (
                    elapsed >= args.seconds
                    or perf_counter() - start + elapsed / len(passes) > RUN_LIMIT_S):
                break
        attempted, failures, over = check_passes(args.seed, jobs, passes)
        for line in failures:
            print("FAILED " + line, file=sys.stderr)
        failed_jobs = len({line.split(":")[0] for line in failures})
        walls = [p["wall_s"] for p in passes]
        counts = work_counts(jobs)

        if args.trace:
            metrics = layers.per_layer(passes[1]["trace"], wall=passes[1]["wall_s"],
                                       untraced_wall=passes[0]["wall_s"],
                                       budget_over_tolerance=over)
        else:
            wall = sum(min(p["jobs"][j]["seconds"] for p in passes)
                       for j in range(len(jobs)))
            metrics = {
                "setup_s": {"value": min(setup_samples), "unit": "s"},
                "wall_s": {"value": wall, "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                                "unit": "MB"},
            }
        print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of "
              f"{len(jobs)} jobs, wall per pass "
              + ", ".join(f"{w:.3f}" for w in walls) + " s")
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
        print(f"  {'failed_ratio':34s} {failed_jobs / attempted:.6g} ratio")
        if not args.trace and counts["steps"]:
            print(f"  {'steps_per_s':34s} {counts['steps'] / wall:.6g} 1/s")
        if not args.trace and counts["cell_steps"]:
            print(f"  {'cell_steps_per_s':34s} {counts['cell_steps'] / wall:.6g} 1/s")
        print(json.dumps({"correct": not failures, "attempted": attempted,
                          "failed": failed_jobs, "metrics": metrics}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass    # another run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
