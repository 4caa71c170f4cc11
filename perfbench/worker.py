"""One workload in one fresh process: set up, repeat, check, report.

    python3 perfbench/worker.py --workload W --seed N --size full \
        --seconds S --trace 0|1 --outdir DIR [--setup-only]

Prints one JSON object on its last stdout line.  `setup_s` runs from the
first line of this script (before magspec, numpy and scipy are imported)
to the end of the workload's warm-up.  run.py sets the BLAS thread cap
before this process starts.

A run makes ceil(S / nominal) timed repetitions, where nominal is the
workload's repetition time on a 2-CPU reference sandbox (NOMINAL_REP_S).
The count does not depend on the speed of the code under test, so a parent
commit and a change do the same work.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from tracer import Probe, layer_metrics  # noqa: E402
from workloads import NOMINAL_REP_S, WORKLOADS  # noqa: E402


def _environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def _schedule(count, trace):
    """Roles of the repetitions.

    The first repetition in a process runs a few per cent slower than later
    ones.  Untraced runs time it, as a user of the CLI pays it.  Traced runs
    discard it, then alternate untraced and traced repetitions, so that the
    ones compared for the tracing overhead are all warm.
    """
    if not trace:
        return ["plain"] * count
    return ["warm-up"] + ["plain", "traced"] * max(1, math.ceil(count / 2))


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--outdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    outdir = pathlib.Path(args.outdir)

    wl = WORKLOADS[args.workload](args.size, args.seed, outdir)
    wl.setup()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    count = max(1, math.ceil(args.seconds / NOMINAL_REP_S[args.size][args.workload]))
    reps, traced = [], []
    for role in _schedule(count, args.trace):
        with Probe(role == "traced") as probe:
            t0 = time.perf_counter()
            out = wl.run(probe)
            wall = time.perf_counter() - t0
        rep = {"role": role, "wall_s": wall, "pairs": out.pairs,
               "ref_err": out.ref_err, "checks": out.checks}
        if role == "traced":
            rep["layers"] = {**layer_metrics(probe), "cli.out_bytes": out.out_bytes}
            traced.append((len(reps), probe))
        reps.append(rep)

    if traced:
        with open(outdir / f"trace-{args.workload}-{args.size}-s{args.seed}.jsonl",
                  "w") as fh:
            for i, probe in traced:
                probe.write(fh, rep=i)
    print(json.dumps({
        "setup_s": setup_s, "reps": reps, "env": _environment(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
