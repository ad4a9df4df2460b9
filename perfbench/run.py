"""teamfield benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact-pure --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The run writes the workload's generated
game files under ``.perfbench_work/``, measures set-up in fresh processes,
then runs the workload in one more fresh process for about ``--seconds``
seconds. With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced pass (see
README.md). The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is a JSON object with the key ``info``: environment,
input sizes and hashes, artifact hashes and what each check saw.
"""

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

import gen

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4          # fresh processes that only set up; the run adds one more
CHILD_TIMEOUT = 170.0
WORK_DIR = ".perfbench_work"
SPANS_DIR = ".perfbench_out"


def _benchmark_spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _child(root, args, mode, workdir, extra=()):
    """Run child.py once and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.NamedTemporaryFile("r", dir=workdir, suffix=".json") as out:
        cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
               "--workload", args.workload, "--workdir", str(workdir),
               "--seed", str(args.seed), "--result", out.name, *extra]
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            raise SystemExit("benchmark child (%s) exited with %d" % (mode, proc.returncode))
        return json.loads(Path(out.name).read_text())


def _environment(root, seed):
    import numpy
    import scipy
    blas = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                           "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas["numpy_blas"] = deps["blas"].get("name")
    except (TypeError, KeyError):
        blas["numpy_blas"] = None
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "git_commit": commit, "seed": seed}


def _median(values):
    return float(statistics.median(values))


def _scaled(passes, key):
    """Median over passes of a duration in reference seconds."""
    return _median([p[key] * p["factor"] for p in passes])


def end_to_end(result, setups):
    timed = result["timed"]
    return {"setup_s": _scaled(setups, "wall"),
            "run_s": _scaled(timed, "wall"),
            "solve_s": _scaled(timed, "solve_s"),
            "certify_s": _scaled(timed, "certify_s"),
            "peak_rss_mb": result["peak_rss_mb"]}


def per_layer(result):
    traced, timed = result["traced"], result["timed"]
    out = {name: _median([p["layers"][name] for p in traced])
           for name in traced[0]["layers"]}
    out["trace.run_s"] = _scaled(traced, "wall")
    out["trace.untraced_run_s"] = _scaled(timed, "wall")
    out["trace.overhead_s"] = out["trace.run_s"] - out["trace.untraced_run_s"]
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(gen.INPUTS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "teamfield" / "__init__.py").is_file():
        raise SystemExit("no src/teamfield under %s: run from the root of a checkout" % root)
    declared = _benchmark_spec()["per_layer" if args.trace else "end_to_end"]
    work_root = root / WORK_DIR
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                                    dir=work_root))
    try:
        input_hashes = gen.write_inputs(args.workload, args.seed, workdir)
        setups = [_child(root, args, "setup", workdir)["setup"]
                  for _ in range(SETUP_PROBES)]
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            (root / SPANS_DIR).mkdir(exist_ok=True)
            extra += ["--spans", str(root / SPANS_DIR / (
                "%s-seed%d-spans.npz" % (args.workload, args.seed)))]
        result = _child(root, args, "run", workdir, extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(result["setup"])

    passes = result["timed"] + result["traced"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    values = per_layer(result) if args.trace else end_to_end(result, setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    info = {"workload": args.workload, "environment": _environment(root, args.seed),
            "inputs_sha256": input_hashes, "sizes": result["sizes"],
            "artifacts_sha256": result["digests"],
            "raw_wall_s": {kind: [p["wall"] for p in passes]
                           for kind, passes in (("setup", setups), ("timed", result["timed"]),
                                                ("traced", result["traced"]))},
            "speed_factor": {kind: [p["factor"] for p in passes]
                             for kind, passes in (("setup", setups), ("timed", result["timed"]),
                                                  ("traced", result["traced"]))},
            "checks": passes[0]["info"],
            "errors": sorted({e for p in passes for e in p["errors"]})}
    for name, m in metrics.items():
        print("%-40s %14.6g %s" % (name, m["value"], m["unit"]))
    for err in info["errors"]:
        print("FAILED %s" % err)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
