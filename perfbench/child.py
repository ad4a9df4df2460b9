"""One benchmark process: set up a workload, then run timed or traced passes.

Started by ``run.py`` with ``PYTHONPATH`` set to the checkout's ``src``;
writes its result as JSON to the file named by ``--result``.

  --mode setup   import teamfield, load and validate the inputs, build the
                 menus; report the time that took
  --mode run     the same set-up, then passes for about --seconds seconds:
                 timed passes with --trace 0, alternating untraced and
                 traced passes with --trace 1

The benchmark modules that import numpy or teamfield are imported inside
functions, after set-up has timed the import of teamfield.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import speed

MIN_TIMED_PASSES = 3


def _setup(args):
    """(workload, raw setup seconds, speed factor): the import of teamfield
    plus spec load, validation and menu building, without the benchmark's
    own imports."""
    def setup():
        t0 = time.perf_counter()
        import teamfield
        import_s = time.perf_counter() - t0
        src = (Path.cwd() / "src").resolve()
        if src not in Path(teamfield.__file__).resolve().parents:
            raise SystemExit("teamfield was imported from %s, not from %s"
                             % (teamfield.__file__, src))
        import workloads
        wl = workloads.WORKLOADS[args.workload](Path(args.workdir), args.seed)
        t1 = time.perf_counter()
        wl.setup()
        return wl, import_s + time.perf_counter() - t1

    (wl, setup_s), _, factor = speed.measure(setup)
    return wl, setup_s, factor


def _pass_summary(wl, wall, factor, ops, first_digests):
    """Per-pass record; an operation whose artifacts differ from the first
    pass's fails, since reruns must be byte-identical."""
    for res in ops:
        ref = first_digests.setdefault(res.name, res.digest)
        if res.digest is not None and res.digest != ref:
            res.errors.append("artifacts differ from the first pass")
    return {"wall": wall, "factor": factor, **wl.phases(ops),
            "attempted": len(ops), "failed": sum(1 for r in ops if r.errors),
            "errors": ["%s: %s" % (r.name, e) for r in ops for e in r.errors],
            "info": {r.name: r.info for r in ops}}


def _pass(wl, traced):
    """(recorder, raw seconds, reference seconds per raw second, [OpResult])
    of one pass; its time is the sum of its operations' times."""
    import spans
    import workloads
    rec = spans.Recorder(calibrate=None if traced else speed.loop_time)
    rec.install(workloads.MODULES, workloads.targets(traced=traced))
    try:
        ops = workloads.run_pass(wl, rec)
    finally:
        rec.uninstall()
    wall = sum(r.wall for r in ops)
    return rec, wall, sum(r.wall * r.factor for r in ops) / wall, ops


def _timed_pass(wl, first_digests):
    _, wall, factor, ops = _pass(wl, traced=False)
    return _pass_summary(wl, wall, factor, ops, first_digests)


def _traced_pass(wl, first_digests, spans_path):
    import layers
    rec, wall, factor, ops = _pass(wl, traced=True)
    summary = _pass_summary(wl, wall, factor, ops, first_digests)
    tab = rec.table()
    summary["layers"] = layers.layer_metrics(tab.rescaled(factor), wall * factor)
    if spans_path:
        tab.save(spans_path)
    return summary


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None, help="where a traced run saves its spans")
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    wl, setup_s, factor = _setup(args)
    result = {"setup": {"wall": setup_s, "factor": factor}}
    if args.mode == "run":
        result["sizes"] = wl.sizes()
        digests = {}
        timed, traced = [], []
        t0 = time.perf_counter()
        while True:
            timed.append(_timed_pass(wl, digests))
            if args.trace:
                traced.append(_traced_pass(wl, digests, args.spans))
                step = timed[-1]["wall"] + traced[-1]["wall"]
                done = True
            else:
                step = sorted(x["wall"] for x in timed)[len(timed) // 2]
                done = len(timed) >= MIN_TIMED_PASSES
            if done and time.perf_counter() - t0 + step > args.seconds:
                break
        result["timed"] = timed
        result["traced"] = traced
        result["digests"] = digests
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
