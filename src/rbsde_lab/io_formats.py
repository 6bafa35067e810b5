"""Instance and result file formats.

Instances are strict JSON documents (unknown keys rejected); solutions dump
every per-node process so the residual checks can be replayed bit-for-bit
after a reload.  All output is byte-deterministic: keys sorted, floats in
shortest round-trip form.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

import numpy as np

from .bundles import SolutionBundle
from .drivers import Driver, constant_driver, linear_driver, zero_driver
from .engine import TraceRow
from .errors import InvalidInstanceError
from .lattice import AdaptedField, EdgeField, FiltrationTree, TimeGrid, build_binomial, flatten_node_lists
from .regulated import BarrierPair, ProblemInstance, RegulatedField

SOLUTION_SCHEMA = "rbsde-lab/solution-v1"
MAX_TREE_NODES = 1_000_000  # the 1000-step binomial tree has 501 501 nodes


def _take(obj: dict, where: str, required: list[str], optional: list[str] = ()) -> dict:
    if not isinstance(obj, dict):
        raise InvalidInstanceError(f"{where}: expected an object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise InvalidInstanceError(f"{where}: missing keys {missing}")
    unknown = [k for k in obj if k not in required and k not in optional]
    if unknown:
        raise InvalidInstanceError(f"{where}: unknown keys {unknown}")
    return obj


def _number(value: Any, where: str, integral: bool = False) -> float:
    """A finite JSON number, integral if asked; bools, strings and nulls are not numbers."""
    real = not isinstance(value, bool) and isinstance(value, (int, float))
    if not (real and abs(value) <= sys.float_info.max) or (integral and value != int(value)):
        kind = "an integer" if integral else "a finite number"
        raise InvalidInstanceError(f"{where}: expected {kind}, got {value!r}")
    return float(value)


def _levels(lists: Any, where: str) -> list[np.ndarray]:
    """Per-level lists of numbers as float arrays, checked numeric in one array operation."""
    counts, flat = flatten_node_lists(lists, where)
    flat, bounds = flat.astype(float, copy=False), [0, *np.cumsum(counts).tolist()]
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


_FAMILIES = {  # family: (its coefficients, its value at states x and instants t)
    "constant": (("c",), lambda x, t, c: np.full(x.size, c)),
    "affine_state": (("a", "b"), lambda x, t, a, b: a * x + b),
    "affine_time_state": (("a", "b", "c"), lambda x, t, a, b, c: a * x + b * t + c),
}


def _evaluate_function_spec(
    spec: dict, where: str, tree: FiltrationTree, grid: TimeGrid, leaves_only: bool
):
    """Named function families or explicit tables, evaluated on the tree: the
    leaves' values, or the field over the whole tree (a family's built flat)."""
    _take(spec, where, ["family"], ["a", "b", "c", "values"])
    family = spec["family"]
    if family == "table":
        _take(spec, where, ["family", "values"])
        values = spec["values"]
        if leaves_only:
            return _levels([values], f"{where}.values")[0]
        return AdaptedField(tree, _levels(values, f"{where}.values"))
    if family not in _FAMILIES:
        raise InvalidInstanceError(f"{where}: unknown function family {family!r}")
    names, rule = _FAMILIES[family]
    _take(spec, where, ["family", *names])
    coefs = [_number(spec[name], f"{where}.{name}") for name in names]
    if leaves_only:
        return rule(tree.states[-1], grid.instants[-1], *coefs)
    instants = np.repeat(grid.instants, np.diff(tree.node_start))  # each node's instant
    return AdaptedField.from_flat(tree, rule(np.concatenate(tree.states), instants, *coefs))


def _parse_driver(spec: dict) -> Driver:
    _take(spec, "driver", ["family"], ["rate", "intercept", "slope"])
    family = spec["family"]
    if family == "zero":
        _take(spec, "driver", ["family"])
        return zero_driver()
    if family == "constant":
        _take(spec, "driver", ["family", "rate"])
        return constant_driver(_number(spec["rate"], "driver.rate"))
    if family == "linear":
        _take(spec, "driver", ["family", "intercept", "slope"])
        intercept, slope = (_number(spec[key], f"driver.{key}") for key in ("intercept", "slope"))
        return linear_driver(intercept, slope)
    raise InvalidInstanceError(f"driver: unknown family {family!r}")


def _parse_tree(spec: dict, steps: int) -> FiltrationTree:
    _take(spec, "tree", ["kind"], ["x0", "up", "down", "p_up", "states", "children", "probs"])
    kind = spec["kind"]
    if kind == "binomial":
        _take(spec, "tree", ["kind", "x0", "up", "down", "p_up"])
        x0, up, down, p_up = (_number(spec[key], f"tree.{key}") for key in ("x0", "up", "down", "p_up"))
        return build_binomial(steps, x0, up, down, p_up)
    if kind == "explicit":
        _take(spec, "tree", ["kind", "states", "children", "probs"])
        tree = FiltrationTree(_levels(spec["states"], "tree.states"), spec["children"], spec["probs"])
        if tree.depth != steps:
            raise InvalidInstanceError(
                f"tree: explicit tree has {tree.depth} steps, grid declares {steps}"
            )
        return tree
    raise InvalidInstanceError(f"tree: unknown kind {kind!r}")


def parse_instance(doc: dict) -> ProblemInstance:
    _take(doc, "instance", ["grid", "tree", "terminal", "driver", "barriers"])
    grid_spec = _take(doc["grid"], "grid", ["T", "steps"])
    steps = int(_number(grid_spec["steps"], "grid.steps", integral=True))
    binomial = isinstance(doc["tree"], dict) and doc["tree"].get("kind") == "binomial"
    nodes = (steps + 1) * (steps + 2) // 2 if binomial else steps + 1
    if nodes > MAX_TREE_NODES:
        raise InvalidInstanceError(
            f"grid.steps: {steps} steps need a tree of at least {nodes} nodes, "
            f"more than the {MAX_TREE_NODES} supported"
        )
    grid = TimeGrid.uniform(_number(grid_spec["T"], "grid.T"), steps)
    tree = _parse_tree(doc["tree"], grid.steps)
    terminal = _evaluate_function_spec(doc["terminal"], "terminal", tree, grid, leaves_only=True)
    driver = _parse_driver(doc["driver"])
    barriers_spec = _take(doc["barriers"], "barriers", ["L", "U"], ["right_jumps"])

    def parse_barrier(spec, name: str) -> RegulatedField | None:
        if spec is None:
            return None
        return RegulatedField(_evaluate_function_spec(spec, name, tree, grid, leaves_only=False))

    barriers = {side: parse_barrier(barriers_spec[side], f"barriers.{side}") for side in ("L", "U")}
    jump_entries = barriers_spec.get("right_jumps", [])
    if jump_entries:
        by_side: dict[str, list[tuple[int, int, float]]] = {"L": [], "U": []}
        for i, entry in enumerate(jump_entries):
            e = _take(entry, f"right_jumps[{i}]", ["barrier", "level", "node", "new_value"])
            side = e["barrier"]
            if side not in by_side:
                raise InvalidInstanceError(f"right_jumps[{i}]: barrier must be 'L' or 'U'")
            new_value = _number(e["new_value"], f"right_jumps[{i}].new_value")
            by_side[side].append((e["level"], e["node"], new_value))
        for side, name in (("L", "lower"), ("U", "upper")):
            if by_side[side]:
                if barriers[side] is None:
                    raise InvalidInstanceError(f"right_jumps: {name} barrier is absent")
                barriers[side] = barriers[side].with_right_jumps(by_side[side])
    return ProblemInstance(tree, grid, terminal, driver, BarrierPair(barriers["L"], barriers["U"]))


def _read_json(path: str | Path) -> Any:
    """The JSON document in a file; a file that is not UTF-8 JSON text is invalid input naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise  # the command line reports a missing file itself
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as ex:
        raise InvalidInstanceError(f"{path}: not readable as JSON ({ex})") from ex


def load_instance(path: str | Path) -> ProblemInstance:
    return parse_instance(_read_json(path))


def _field_levels(field: AdaptedField) -> list[list[float]]:
    return [level.tolist() for level in field.tree.split_levels(field.values)]


def _edge_levels(edges: EdgeField) -> list[list[list[float]]]:
    """Per level, each node's edge values as one list (the dumped dM layout)."""
    flat, tree = edges.values.tolist(), edges.tree
    out = []
    for offsets, start in zip(tree.offsets, tree.edge_start.tolist()):
        bounds = (offsets + start).tolist()
        out.append([flat[a:b] for a, b in zip(bounds, bounds[1:])])
    return out


def _flat_edges(tree: FiltrationTree, levels: list) -> list[np.ndarray]:
    """Dumped per-node dM lists as flat per-level arrays, one value per child."""
    if len(levels) != tree.depth:
        raise InvalidInstanceError("dM must cover every transition level")
    out = []
    for k, level in enumerate(levels):
        counts, flat = flatten_node_lists(level, f"dM level {k}")
        if not np.array_equal(counts, np.diff(tree.offsets[k])):
            raise InvalidInstanceError(f"dM level {k}: edge values mismatch children")
        out.append(flat)
    return out


def solution_document(
    bundle: SolutionBundle,
    residuals: dict[str, float],
    tolerances: dict[str, float],
    passed: bool,
    warnings: list[str],
) -> dict[str, Any]:
    return {
        "schema": SOLUTION_SCHEMA,
        "method": bundle.method,
        "n": bundle.n,
        "tolerances": tolerances,
        "residuals": residuals,
        "passed": passed,
        "warnings": warnings,
        "solution": {
            "Y": _field_levels(bundle.y.value),
            "Y_right": _field_levels(bundle.y.right_value),
            "dK_star": _field_levels(bundle.dk_star),
            "jump_K": _field_levels(bundle.jump_k),
            "dA_star": _field_levels(bundle.da_star),
            "jump_A": _field_levels(bundle.jump_a),
            "dM": _edge_levels(bundle.dm),
        },
    }


def load_solution(path: str | Path, instance: ProblemInstance) -> SolutionBundle:
    """Rebuild a bundle from a dumped document, on the instance's tree."""
    optional = ["tolerances", "residuals", "passed", "warnings"]
    doc = _take(_read_json(path), str(path), ["schema", "method", "n", "solution"], optional)
    if doc["schema"] != SOLUTION_SCHEMA:
        raise InvalidInstanceError(f"{path}: unknown solution schema {doc['schema']!r}")
    n, method = doc["n"], doc["method"]
    if n is not None and (isinstance(n, bool) or not isinstance(n, int) or n < 1):
        raise InvalidInstanceError(f"{path}: n: expected null or an integer >= 1, got {n!r}")
    if not isinstance(method, str):
        raise InvalidInstanceError(f"{path}: method: expected a string, got {method!r}")
    sol = _take(doc["solution"], f"{path}: solution", ["Y", "Y_right", "dK_star", "jump_K", "dA_star", "jump_A", "dM"])
    tree = instance.tree

    def field(name: str) -> AdaptedField:
        return AdaptedField(tree, _levels(sol[name], f"{path}: solution.{name}"))

    return SolutionBundle(
        tree=tree,
        grid=instance.grid,
        y=RegulatedField(field("Y"), field("Y_right")),
        dm=EdgeField(tree, _flat_edges(tree, sol["dM"])),
        dk_star=field("dK_star"),
        jump_k=field("jump_K"),
        da_star=field("dA_star"),
        jump_a=field("jump_A"),
        method=method,
        n=n,
    )


def check_output_path(path: str | Path | None) -> None:
    """Refuse, before any work, an output path that is a directory or whose directory is missing."""
    if not path:
        return
    where = Path(path)
    if where.is_dir() or not where.parent.is_dir():
        problem = "is a directory" if where.is_dir() else f"directory {where.parent} is missing"
        raise InvalidInstanceError(f"{path}: cannot write output ({problem})")


def write_output(text: str, path: str | Path) -> None:
    """Write an output file; a path that cannot be written is invalid input naming it."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as ex:
        raise InvalidInstanceError(f"{path}: cannot write output ({ex})") from ex


def dump_json(doc: dict, path: str | Path) -> None:
    write_output(json.dumps(doc, sort_keys=True, indent=2) + "\n", path)


CSV_HEADER = "n,sup_distance,lower_skorokhod_residual,upper_skorokhod_residual,lu4_residual"


def trace_csv(rows: list[TraceRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        cells = [
            str(row.n),
            repr(float(row.sup_distance)),
            "" if row.lower_skorokhod_residual is None else repr(float(row.lower_skorokhod_residual)),
            "" if row.upper_skorokhod_residual is None else repr(float(row.upper_skorokhod_residual)),
            "" if row.lu4_residual is None else repr(float(row.lu4_residual)),
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
