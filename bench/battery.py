"""The program's own commands, with spans around the calls they make.

The benchmark runs ``rbsde_lab.cli`` itself (``cmd_verify`` and, through
``cli.main``, every other command), never a copy of its logic.  While
``cli_spans`` is active, the names the CLI module looks up
(``validate_instance``, ``uniqueness_probe``, ``dump_json``, ...) are
wrappers that open a span named ``<module>.<function>`` around the original
and keep the counts the benchmark reports; on exit the originals are put
back.  With a disabled tracer a span is a shared no-op, so the untraced and
traced runs execute the same code.

While a command runs, ``cli_spans`` also times each outermost call it
wraps, so a workload can cut the command into steps (see
``harness.Samples``); ``timed_sweep`` does the same for a penalization
sweep, one step per penalty level.

Also here: the tree, path and sweep counts every workload reports.
"""
from __future__ import annotations

import contextlib
import io
import json
import time
from argparse import Namespace
from pathlib import Path

from rbsde_lab import cli, engine
from rbsde_lab.engine import PenalizationMode, penalization_sweep
from rbsde_lab.lattice import FiltrationTree, build_binomial

# Name in ``rbsde_lab.cli`` -> span name.
SPANNED = {
    "load_instance": "io_formats.parse",
    "validate_instance": "regulated.validate",
    "check_separation": "regulated.separation",
    "solve_doubly_reflected": "solvers.projection",
    "solve_reflected_lower": "solvers.projection",
    "solve_reflected_upper": "solvers.projection",
    "lu4_residual": "bundles.lu4",
    "skorokhod_residual": "bundles.skorokhod",
    "right_jump_identity_defect": "bundles.jump_identity",
    "verify_local_properties": "stopping.local_properties",
    "uniqueness_probe": "oracle.uniqueness",
    "alternating_sequence": "stopping.alternating",
    "local_solution": "stopping.local_solution",
    "patch_global": "stopping.patch",
    "comparison_check": "oracle.comparison",
    "dynkin_value_bruteforce": "oracle.game_fast",
    "penalization_sweep": "engine.sweep",
    "solution_document": "io_formats.dump",
    "dump_json": "io_formats.dump",
    "trace_csv": "io_formats.dump",
}
INCREASING = (PenalizationMode.LOWER_PENALTY_UPPER_REFLECT, PenalizationMode.PURE_LOWER)


def sweep_span(mode: PenalizationMode) -> str:
    return "engine.sweep_inc" if mode in INCREASING else "engine.sweep_dec"


def _span_name(attr: str, args, kwargs) -> str:
    if attr == "penalization_sweep":
        return sweep_span(args[1])
    if attr == "dynkin_value_bruteforce" and kwargs.get("exhaustive"):
        return "oracle.game_exhaustive"
    return SPANNED[attr]


@contextlib.contextmanager
def cli_spans(tr, counts):
    """Wrap the package functions ``rbsde_lab.cli`` calls, for the duration.

    Yields a list that receives ``(name, seconds)`` for every outermost
    wrapped call, in call order; the caller empties it between commands.
    """
    saved = {attr: getattr(cli, attr) for attr in SPANNED}
    calls: list[tuple[str, float]] = []
    depth = [0]

    def shim(attr, fn):
        def call(*args, **kwargs):
            name = _span_name(attr, args, kwargs)
            depth[0] += 1
            t0 = time.perf_counter()
            try:
                with tr.span(name):
                    out = fn(*args, **kwargs)
            finally:
                depth[0] -= 1
            if not depth[0]:
                calls.append((name, time.perf_counter() - t0))
            if attr == "local_solution":
                counts["stopping.pieces"] += 1
            elif attr == "penalization_sweep":
                count_sweep(out, args[0].tree, counts)
            return out

        return call

    for attr, fn in saved.items():
        setattr(cli, attr, shim(attr, fn))
    try:
        yield calls
    finally:
        for attr, fn in saved.items():
            setattr(cli, attr, fn)


def timed_sweep(instance, mode, **kwargs):
    """``engine.penalization_sweep``, with the wall time of each penalty level.

    Returns ``(sweep, seconds per level)``.  A level runs from the end of
    the previous one (or the start of the sweep) to the return of its
    outermost ``solve_penalized``, so the sweep's own comparison of
    consecutive levels is counted; the levels sum to the whole sweep.
    """
    solve = engine.solve_penalized
    marks: list[float] = []
    depth = [0]

    def level(*args):
        depth[0] += 1
        try:
            out = solve(*args)
        finally:
            depth[0] -= 1
        if not depth[0]:
            marks.append(time.perf_counter())
        return out

    engine.solve_penalized = level
    try:
        t0 = time.perf_counter()
        sweep = penalization_sweep(instance, mode, **kwargs)
        end = time.perf_counter()
    finally:
        engine.solve_penalized = solve
    marks[-1] = end
    return sweep, [b - a for a, b in zip([t0] + marks, marks)]


def run_verify(path: Path, report: Path) -> tuple[int, dict]:
    """``rbsde-lab verify <path> --json <report>`` in this process.

    Returns the exit code and the gate results the command wrote.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.cmd_verify(Namespace(instance=str(path), json=str(report)))
    return code, json.loads(report.read_text(encoding="utf-8"))["checks"]


def gate_detail(gate: str, result: dict) -> str:
    """One line on why a gate of ``verify`` failed, from its JSON result."""
    if gate == "residuals":
        tol = result["tolerances"]
        return ", ".join(f"{k}={v:.3g}" for k, v in result["values"].items() if not abs(v) <= tol[k])
    if gate == "uniqueness":
        worst = max((v for key, d in result.items() if key.endswith("_distances") for v in d.values()),
                    default=float("nan"))
        return f"worst distance {worst:.3g}"
    return "; ".join(f"{k}: {v}" for k, v in result.items() if k != "passed")[:200]


def build_tree(doc: dict):
    """The tree of an instance document, built straight through ``lattice``."""
    t, steps = doc["tree"], doc["grid"]["steps"]
    if t["kind"] == "binomial":
        return build_binomial(steps, t["x0"], t["up"], t["down"], t["p_up"])
    return FiltrationTree(t["states"], t["children"], t["probs"])


def path_count(tree) -> int:
    """Root-to-leaf paths of a tree, counted level by level without enumerating."""
    ways = [1]
    for k in range(tree.depth):
        nxt = [0] * tree.level_size(k + 1)
        for j, children in enumerate(tree.children[k]):
            for c in children:
                nxt[c] += ways[j]
        ways = nxt
    return sum(ways)


def count_tree(tree, counts) -> None:
    """Node, path and path-cell counts of one instance's tree."""
    paths = path_count(tree)
    counts["lattice.nodes"] += tree.node_count()
    counts["lattice.paths"] += paths
    counts["lattice.path_cells"] += paths * tree.levels


def count_sweep(sweep, tree, counts) -> None:
    counts["engine.levels_run"] += len(sweep.levels)
    counts["engine.node_solves"] += len(sweep.levels) * tree.node_count()
