"""Benchmark of rbsde-lab: one seeded, single-process run of one workload.

    python3 bench/run.py --workload deep_tree --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 1

``--seconds`` has no default: the run length is ``run_seconds`` in
``BENCHMARK.json``.

Run from the root of a checkout; the package is imported from ``src/``, no
install needed.  ``--trace 0`` measures the end-to-end metrics with tracing
off.  ``--trace 1`` runs one round untraced and the same round traced, and
reports the per-layer metrics from the traced one; the difference of the two
walls is the tracing overhead.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (run stamp, every metric with
its sample count, failures, and in traced runs every span) is written to
``bench/out/``.

Workloads, metrics and the predictions of which layer moves which metric
are described in ``bench/README.md`` and at the top of each workload module.
"""
from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("deep_tree", "verify_corpus", "cli_oneshot")

# Metrics every workload reports; the last JSON line carries exactly these.
END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("sweep_s", "s"),
    ("check_s", "s"),
    ("instances_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("io_formats.parse_s", "s"),
    ("regulated.validate_s", "s"),
    ("solvers.projection_s", "s"),
    ("engine.sweep_inc_s", "s"),
    ("engine.sweep_dec_s", "s"),
    ("bundles.lu4_s", "s"),
    ("bundles.skorokhod_s", "s"),
    ("oracle.game_fast_s", "s"),
    ("engine.levels_run", "count"),
    ("engine.node_solves", "count"),
    ("bundles.skorokhod_refused", "count"),
    ("trace.overhead_s", "s"),
)
# Layers only some workloads load; printed, and kept in the record file.
WORKLOAD_LAYERS = (
    "io_formats.dump_s",
    "lattice.build_s",
    "lattice.expect_level_s",
    "lattice.path_arrays_s",
    "engine.level_s",
    "stopping.local_properties_s",
    "stopping.alternating_s",
    "stopping.local_solution_s",
    "stopping.patch_s",
    "oracle.uniqueness_s",
    "oracle.comparison_s",
    "oracle.game_exhaustive_s",
    "cli.interpreter_s",
    "cli.import_numpy_s",
    "cli.import_s",
    "cli.body_s",
)
# Counts printed beside them; the lattice ones describe the inputs.
WORKLOAD_COUNTS = ("lattice.nodes", "lattice.paths", "lattice.path_cells", "stopping.pieces",
                   "oracle.exhaustive_refused")
MODULES = ("io_formats", "lattice", "regulated", "solvers", "engine", "bundles",
           "stopping", "oracle", "cli", "bench")


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def _run_workload(args) -> int:
    from harness import OUT, Report, Tracer, median, peak_rss_mb, run_stamp

    module = importlib.import_module(args.workload)
    stamp = run_stamp(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("# stamp: " + json.dumps(stamp, sort_keys=True))

    record: dict = {"stamp": stamp}
    if not args.trace:
        rep = Report()
        module.run(args.seed, args.seconds, Tracer(False), rep)
        if "peak_rss_mb" not in rep.metrics:
            rep.metric("peak_rss_mb", peak_rss_mb(), "MB", 1, "peak resident set of this process")
        checks = rep.checks
        metrics = rep.metrics
        wanted = END_TO_END
    else:
        # Same round twice: untraced for the overhead baseline, then traced.
        plain = Report()
        plain_walls = module.run(args.seed, 0, Tracer(False), plain, layers=True)
        tracer = Tracer(True)
        rep = Report()
        traced_walls = module.run(args.seed, 0, tracer, rep, layers=True)
        checks = rep.checks
        for f in plain.checks.failures:
            checks.failures.append("untraced round: " + f)
        checks.attempted += plain.checks.attempted
        checks.failed_by_module.update(plain.checks.failed_by_module)
        checks.correct = checks.correct and plain.checks.correct
        checks.check(plain.counts == rep.counts, "traced round", "counts equal the untraced round's",
                     independent=True)
        metrics = {}
        for name, xs in sorted(tracer.self_times().items()):
            metrics[f"{name}_s"] = {"value": median(xs), "unit": "s", "samples": len(xs),
                                    "note": f"median self time per call; total {sum(xs):.4g} s"}
        for name in PER_LAYER + tuple((c, "count") for c in WORKLOAD_COUNTS):
            if name[1] == "count":
                metrics[name[0]] = {"value": rep.counts[name[0]], "unit": "count",
                                    "samples": 1, "note": "one round"}
        for mod in MODULES:
            metrics[f"{mod}.failed"] = {"value": checks.failed_by_module[mod], "unit": "count",
                                        "samples": 1, "note": "both rounds"}
        overhead = sum(traced_walls) - sum(plain_walls)
        metrics["trace.overhead_s"] = {
            "value": overhead, "unit": "s", "samples": len(traced_walls),
            "note": f"traced wall {sum(traced_walls):.4f} s - untraced wall {sum(plain_walls):.4f} s",
        }
        metrics.update({k: v for k, v in rep.metrics.items() if k.startswith("cli.")})
        record["spans"] = tracer.records()
        wanted = PER_LAYER

    for name, m in metrics.items():
        note = f"  [{m['note']}]" if m.get("note") else ""
        print(f"{args.workload}  {name} = {_fmt(m['value'])} {m['unit']}  (n={m['samples']}){note}")
    if args.trace:
        for name in WORKLOAD_LAYERS:
            if name not in metrics:
                print(f"{args.workload}  {name} = n/a  (this workload does not load the layer)")
        print(f"{args.workload}  wait times: none; one process, no queues")
    for note in rep.notes:
        print(f"# {note}")
    frac = checks.failed / checks.attempted if checks.attempted else 0.0
    print(f"{args.workload}  fail_frac = {frac:.6g} ratio  ({checks.failed} failed / {checks.attempted} attempted)")
    for failure, n in Counter(checks.failures).items():
        print(f"  FAILED x{n}: {failure}")

    missing = [name for name, _ in wanted if name not in metrics]
    if missing:
        print(f"error: metrics missing from the run: {missing}", file=sys.stderr)
        return 3
    record.update(
        samples=rep.samples.raw(),
        metrics=metrics,
        attempted=checks.attempted,
        failures=checks.failures,
        correct=checks.correct,
    )
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": unit} for name, unit in wanted},
    }))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return done.returncode or 3
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "rbsde_lab" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return _run_all(args)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
