"""magspec benchmark: time to a certified bottom of the spectrum.

    python3 perfbench/run.py --workload {sweep,gaps,curved,small} \
        --seed N --seconds S --trace 0|1

Run from the root of a magspec source tree (the package is imported from
`src/`, nothing is installed).  Each call starts fresh worker processes with
the BLAS thread cap at the number of usable CPUs: SETUP_PROBES that only set
up, then one that sets up and runs the workload for about S seconds (see
worker.py).  Outputs go to perfbench/out/.  Every output is checked; a
failed check is counted, never retried.

stdout: one line with the environment, then, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are BENCHMARK.json's end-to-end ones, with --trace 1 its per-layer
ones, from traced repetitions.  Timings are medians over repetitions
(setup_s: over the workload process and the probes).
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
DEADLINE_S = 170.0


def _worker(args, env, outdir, deadline, *extra):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--outdir", str(outdir), *extra]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metrics(args, res, setups, checks):
    reps = res["reps"]
    plain = [r for r in reps if r["role"] == "plain"]
    wall = statistics.median(r["wall_s"] for r in plain)
    if args.trace:
        traced = [r for r in reps if r["role"] == "traced"]
        metrics = {k: statistics.median_low(r["layers"][k] for r in traced)
                   for k in traced[0]["layers"]}
        metrics["tracing_overhead_s"] = statistics.median(
            r["wall_s"] for r in traced) - wall
        return metrics
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "pairs_per_s": statistics.median(r["pairs"] / r["wall_s"] for r in plain),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": checks.count(True) / len(checks),
        "ref_err": statistics.median(r["ref_err"] for r in plain),
    }


def main(argv=None):
    t_start = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: reduced inputs for the benchmark's own test")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "magspec" / "__init__.py").is_file():
        raise SystemExit(f"no magspec sources under {ROOT / 'src'}")

    nproc = len(os.sched_getaffinity(0))
    load = os.getloadavg()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS=str(nproc), OMP_NUM_THREADS=str(nproc),
               MKL_NUM_THREADS=str(nproc))
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    deadline = t_start + DEADLINE_S
    setups = [_worker(args, env, outdir, deadline, "--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    res = _worker(args, env, outdir, deadline)
    setups.append(res["setup_s"])

    checks = [ok for r in res["reps"] for ok in r["checks"].values()]
    metrics = _metrics(args, res, setups, checks)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = {"correct": all(checks), "attempted": len(checks),
              "failed": checks.count(False),
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units.items()}}
    env_record = {**res["env"], "nproc": nproc, "blas_threads": nproc,
                  "loadavg": list(load), "busy": load[0] > nproc,
                  "workload": args.workload, "seed": args.seed,
                  "size": args.size, "reps": len(res["reps"]),
                  "setups_s": setups}
    with open(outdir / f"result-{args.workload}-{args.size}-s{args.seed}"
              f"-t{args.trace}.json", "w") as fh:
        json.dump({"env": env_record, "reps": res["reps"], **result}, fh, indent=1)
    print(json.dumps({"env": env_record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
