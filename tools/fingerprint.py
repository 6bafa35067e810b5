"""Print one SHA-256 per solver output, to show that a change keeps every
output bit for bit.

Run it on two versions of the package and compare the lists:

    PYTHONPATH=src python3 tools/fingerprint.py > after.txt

or in one command, against the package at a git revision:

    python3 tools/fingerprint.py --against HEAD

which extracts ``src/`` at that revision into a temporary directory, runs
this tool once on that copy and once on the working tree, prints the name
of each line that differs and exits 1 if any does.

Inputs: the shipped instances, the files in ``tests/data/``, the
benchmark's ``deep_tree`` trees for seed 1 (built by
``bench/gen_instances.py``) and ``two_sided_affine.json`` with a non-affine
driver, a sine rule, whose sweeps run on a ladder that does not double.  Outputs per input: the projection bundle and
its ``lu4_residual``, ``solve_penalized`` in every mode at a few penalty
levels, and the four-mode sweeps (levels run, convergence, trace rows and
final bundle; residual rows at depth <= 16).  After each sweep line, a
``ladder`` line digests the stacked pass of that sweep's whole ladder
(``engine.ladder_distances`` on the lower-side frame: distances, drops and
failed levels), pairs past the stopping level included.  On two-sided
inputs of depth <= 16, also the path oracle on the projection bundle: the
alternating sequence's levels, every local solution's matrices and report
fields, and the patched bundle.  A refusal is fingerprinted by its exception type and
message.

After those lines, one line per instance file digests what ``rbsde-lab
verify --json`` gives on it: the exit code, the JSON report and the printed
report.  The file is named relative to the repository root, so the report's
``instance`` entry does not depend on where the checkout lives.

Then one ``check`` line per input digests the verdicts on its data:
``validate_instance`` (each violation's kind, location and detail, in
order) and ``check_separation`` (margin and violations, or its refusal) on
the input, its negation dual, a copy whose terminal sits 1.0 below L at
leaf 0 and a copy with a custom driver whose mu * dt is 0.6.  The copies are
built with the ``ProblemInstance`` constructor.

Then one ``chain`` line per two-sided input digests the stopping walks on
its projection bundle: ``chain_report``'s stationarity index,
``worst_interval()`` and every ``intervals`` report, on the bundle, on a
copy whose dK* and dA* are lowered by 0.25, so that some minimality terms
are negative and ``worst_interval()`` reads the intervals, and on a copy
whose Y and Y+ both gain the same uniform draw from [-0.05, 0.05] per node
(``np.random.default_rng(depth)``), so that Y leaves the barriers and the
intervals' sandwich violations are not all zero; then
``verify_local_properties`` from time zero (``StoppingRule.at_zero``) at
``HIT_TOL`` and at 0.05.  Each of the five is digested on its own, floats
as hex, a refusal by its exception type and message.

Last, one ``tree`` line per input digests the tree layout: the node and edge
numbering, the states, every level's offsets, edge arrays and slot plan (a
slice written out as the indices it takes), ``path_gather()`` at depth
<= 16, and the martingale increments of the projection's Y with their
conditional mean deviation.
"""
import argparse
import contextlib
import dataclasses
import hashlib
import io
import math
import os
import pathlib
import random
import subprocess
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "src"))  # the package of this checkout, unless PYTHONPATH names another

from rbsde_lab.bundles import lu4_residual
from rbsde_lab.cli import _solve_projection, main as cli_main
from rbsde_lab.drivers import custom_driver
from rbsde_lab.engine import (
    PenalizationMode,
    _require_barriers,
    default_levels,
    ladder_distances,
    penalization_sweep,
    solve_penalized,
)
from rbsde_lab.errors import RBSDELabError
from rbsde_lab.io_formats import load_instance, parse_instance
from rbsde_lab.lattice import martingale_increments
from rbsde_lab.regulated import (
    ProblemInstance,
    RegulatedField,
    check_separation,
    negation_dual,
    require_valid,
    validate_instance,
)
from rbsde_lab.stopping import (
    HIT_TOL,
    PathContext,
    StoppingRule,
    alternating_sequence,
    chain_report,
    local_solution,
    patch_global,
    verify_local_properties,
)

sys.path.insert(0, str(ROOT / "bench"))

from deep_tree import EPS as DEEP_EPS, LEVELS as DEEP_LEVELS, SPECS as DEEP_SPECS  # noqa: E402
from gen_instances import instance_doc  # noqa: E402

PENALTIES = (1, 64, 2 ** 20)
RESIDUAL_DEPTH = 16  # sweeps and the path oracle skip deeper trees
UNEVEN_LEVELS = [1, 3, 10, 30, 100, 300, 1000, 3000, 10 ** 4, 3 * 10 ** 4, 10 ** 5, 3 * 10 ** 5, 10 ** 6]


def sine_rule(t: float, y: float) -> float:
    """A Lipschitz driver with constant 1.5 that is not affine in y."""
    return 0.5 * math.sin(3.0 * y) + 0.2 - 0.1 * t


def instance_files() -> list[pathlib.Path]:
    return sorted((ROOT / "instances").glob("*.json")) + sorted((ROOT / "tests/data").glob("*.json"))


def inputs():
    """(name, instance, sweep keyword arguments) for every input."""
    for path in instance_files():
        yield path.stem, load_instance(path), {}
    base = load_instance(ROOT / "instances/two_sided_affine.json")
    sine = ProblemInstance(base.tree, base.grid, base.terminal, custom_driver(sine_rule, 1.5), base.barriers)
    yield "two_sided_affine.sine", sine, {"levels": UNEVEN_LEVELS}
    rng = random.Random(1)
    for name, spec in DEEP_SPECS.items():
        sweep_kwargs = {"levels": DEEP_LEVELS, "eps": DEEP_EPS}
        yield f"deep_tree.{name}", parse_instance(instance_doc(spec, rng)), sweep_kwargs


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def bundle_parts(b) -> tuple:
    fields = (b.y.value, b.y.right_value, b.dm, b.dk_star, b.jump_k, b.da_star, b.jump_a)
    return tuple(f.values for f in fields) + (b.method, b.n, b.degenerate_nodes)


def sweep_parts(sweep) -> tuple:
    rows = tuple(
        (r.n, r.sup_distance.hex(), *(None if v is None else v.hex() for v in (
            r.lower_skorokhod_residual, r.upper_skorokhod_residual, r.lu4_residual)))
        for r in sweep.trace
    )
    return (sweep.levels, sweep.converged, sweep.monotone_violation.hex(), rows) + bundle_parts(sweep.final)


def alternating_parts(instance) -> tuple:
    rules, stat = alternating_sequence(_solve_projection(instance).y, instance.barriers)
    return (stat.max_index,) + tuple(rule.levels() for rule in rules)


def local_solutions(instance) -> list:
    bundle = _solve_projection(instance)
    rules, _ = alternating_sequence(bundle.y, instance.barriers)
    context = PathContext(instance, bundle)
    return [local_solution(instance, tau, sigma, context=context) for tau, sigma in zip(rules, rules[1:])]


def piece_parts(piece) -> tuple:
    """Every matrix of a local solution, then its report fields as hex."""
    matrices = tuple(getattr(piece, f.name) for f in dataclasses.fields(piece) if f.name != "report")
    return matrices + tuple(getattr(piece.report, f.name).hex() for f in dataclasses.fields(piece.report))


def ladder_parts(instance, mode, levels) -> tuple:
    """The stacked pass over the whole ladder, in the lower-side frame the sweep runs it in.

    The checks and the frame are spelled out, not taken from ``engine``, so
    that two versions of the package are fingerprinted by the same code.
    """
    require_valid(instance)
    _require_barriers(instance, mode)
    if not mode.penalizes_lower:
        instance, mode = negation_dual(instance), mode.dual
    return ladder_distances(instance, levels, mode)


def outputs(instance, sweep_kwargs):
    """(output name, thunk returning the parts to hash) for one input."""
    yield "projection", lambda: bundle_parts(_solve_projection(instance))
    yield "projection.lu4", lambda: lu4_residual(_solve_projection(instance), instance).hex()
    for mode in PenalizationMode:
        for n in PENALTIES:
            yield f"penalized.{mode.value}.n{n}", lambda mode=mode, n=n: bundle_parts(
                solve_penalized(instance, n, mode))
        residuals = instance.tree.depth <= RESIDUAL_DEPTH
        yield f"sweep.{mode.value}", lambda mode=mode: sweep_parts(
            penalization_sweep(instance, mode, compute_residuals=residuals, **sweep_kwargs))
        yield f"ladder.{mode.value}", lambda mode=mode: ladder_parts(
            instance, mode, sweep_kwargs.get("levels", default_levels()))
    if instance.lower is None or instance.upper is None or instance.tree.depth > RESIDUAL_DEPTH:
        return
    yield "path.alternating", lambda: alternating_parts(instance)
    yield "path.local_solutions", lambda: tuple(
        part for piece in local_solutions(instance) for part in piece_parts(piece))
    yield "path.patched", lambda: bundle_parts(patch_global(instance, local_solutions(instance)))


def verdict_parts(instance) -> tuple:
    """``validate_instance`` and ``check_separation`` on one instance, floats as hex."""
    report = tuple((v.kind, v.location, v.detail.hex()) for v in validate_instance(instance).violations)
    try:
        sep = check_separation(instance.barriers)
        separation = (sep.satisfied, sep.margin.hex(), *((v.which, v.level, v.node, v.gap.hex()) for v in sep.violations))
    except RBSDELabError as exc:
        separation = ("error", type(exc).__name__, str(exc))
    return report, separation


def check_parts(instance) -> tuple:
    """The verdicts on the input, its negation dual, a copy with the terminal
    1.0 below L at leaf 0 and a copy with a custom driver of mu * dt = 0.6."""
    terminal = np.array(instance.terminal)
    below = terminal if instance.lower is None else instance.lower.value.level(instance.tree.depth)
    terminal[0] = below[0] - 1.0
    stiff = custom_driver(sine_rule, 0.6 / instance.grid.max_dt)
    copies = (
        ProblemInstance(instance.tree, instance.grid, terminal, instance.driver, instance.barriers),
        ProblemInstance(instance.tree, instance.grid, instance.terminal, stiff, instance.barriers),
    )
    return tuple(verdict_parts(i) for i in (instance, negation_dual(instance), *copies))


def refusal_or(thunk) -> tuple:
    """The parts ``thunk`` returns, or its refusal's exception type and message."""
    try:
        return thunk()
    except RBSDELabError as exc:
        return ("error", type(exc).__name__, str(exc))


def walk_parts(instance, bundle) -> tuple:
    """``chain_report``'s index, ``worst_interval()`` and every interval report, floats as hex."""
    chain = chain_report(instance, bundle)
    worst = tuple((name, value.hex()) for name, value in chain.worst_interval().items())
    intervals = tuple(tuple(getattr(r, f.name).hex() for f in dataclasses.fields(r)) for r in chain.intervals)
    return chain.stationarity_index, worst, intervals


def local_parts(instance, bundle, tol: float) -> tuple:
    """``verify_local_properties`` from time zero: its four deviations as hex and its failures."""
    rep = verify_local_properties(bundle.y, instance.barriers, StoppingRule.at_zero(instance.tree), tol)
    return tuple(getattr(rep, f.name).hex() for f in dataclasses.fields(rep)[:4]) + tuple(rep.failures)


def chain_parts(instance) -> tuple:
    """The stopping walks on the projection bundle, on a copy with negative
    minimality terms and on a copy with Y and Y+ moved off the barriers."""
    bundle = _solve_projection(instance)
    lowered = dataclasses.replace(bundle, dk_star=bundle.dk_star.map(lambda v: v - 0.25),
                                  da_star=bundle.da_star.map(lambda v: v - 0.25), method="lowered")
    noise = np.random.default_rng(instance.tree.depth).uniform(-0.05, 0.05, instance.tree.node_count())
    y = RegulatedField(bundle.y.value.map(lambda v: v + noise), bundle.y.right_value.map(lambda v: v + noise))
    shifted = dataclasses.replace(bundle, y=y, method="shifted")
    walks = [refusal_or(lambda b=b: walk_parts(instance, b)) for b in (bundle, lowered, shifted)]
    return (*walks, *(refusal_or(lambda tol=tol: local_parts(instance, bundle, tol)) for tol in (HIT_TOL, 0.05)))


def slot_indices(tree, k: int) -> list:
    """Level k's slot plan, each slice written out as the indices it takes."""
    sizes = (tree.level_size(k), tree.edge_child[k].size)  # of the nodes and of the edges
    return [np.arange(n)[index] for slot in tree.slot_plans[k] for n, index in zip(sizes, slot)]


def tree_parts(instance) -> tuple:
    """The tree's layout arrays, level by level, and the increments of the projection's Y."""
    tree = instance.tree
    parts = [tree.node_start, tree.edge_start, *tree.states]
    for k in range(tree.depth):
        parts += [tree.offsets[k], tree.edge_parent[k], tree.edge_child[k], tree.edge_prob[k], *slot_indices(tree, k)]
    parts += [tree.edge_source, tree.edge_target]
    if tree.depth <= RESIDUAL_DEPTH:
        parts += tree.path_gather()
    dm = martingale_increments(_solve_projection(instance).y.value)
    return (*parts, dm.values, dm.conditional_mean_deviation().hex())


def verify_parts(path: pathlib.Path, report: pathlib.Path) -> tuple:
    """(exit code, JSON report, printed report) of ``verify --json`` on one file."""
    report.unlink(missing_ok=True)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        code = cli_main(["verify", str(path.relative_to(ROOT)), "--json", str(report)])
    return code, report.read_bytes() if report.exists() else b"", printed.getvalue()


def fingerprint_lines(package: pathlib.Path) -> dict[str, str]:
    """This tool's lines, run on the package under ``package``, keyed by their name (all but the digest)."""
    env = {**os.environ, "PYTHONPATH": str(package), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, __file__], env=env, check=True, capture_output=True, text=True).stdout
    return {" ".join(line.split(" ")[:2]): line for line in out.splitlines()}


def against(rev: str) -> int:
    """Compare the lines of the package at ``rev`` with those of the working tree; 1 if any differs."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], check=True, capture_output=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        before = fingerprint_lines(pathlib.Path(tmp) / "src")
    after = fingerprint_lines(ROOT / "src")
    names = before | after
    differ = [name for name in names if before.get(name) != after.get(name)]
    for name in differ:
        print(name)
    print(f"{len(differ)} of {len(names)} lines differ" if differ else f"{len(names)} equal lines")
    return 1 if differ else 0


def main() -> None:
    for name, instance, sweep_kwargs in inputs():
        for what, thunk in outputs(instance, sweep_kwargs):
            try:
                parts, note = thunk(), ""
            except RBSDELabError as exc:
                parts, note = ("error", type(exc).__name__, str(exc)), f" ({type(exc).__name__})"
            print(f"{name} {what} {digest(*parts)}{note}", flush=True)
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        for path in instance_files():
            code, *parts = verify_parts(path, pathlib.Path(tmp) / "report.json")
            print(f"{path.stem} verify {digest(code, *parts)} (exit {code})", flush=True)
    for name, instance, _ in inputs():
        print(f"{name} check {digest(*check_parts(instance))}", flush=True)
    for name, instance, _ in inputs():
        if instance.lower is not None and instance.upper is not None:
            print(f"{name} chain {digest(*chain_parts(instance))}", flush=True)
    for name, instance, _ in inputs():
        print(f"{name} tree {digest(*tree_parts(instance))}", flush=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print one SHA-256 per solver output.")
    parser.add_argument("--against", metavar="REV", help="compare with the package at this git revision")
    args = parser.parse_args()
    if args.against is None:
        main()
    else:
        sys.exit(against(args.against))
