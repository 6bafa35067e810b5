import ast
import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rbsde_lab import cli
from rbsde_lab.bundles import lu4_residual, skorokhod_residual
from rbsde_lab.cli import main
from rbsde_lab.io_formats import load_instance, load_solution, parse_instance
from rbsde_lab.errors import InvalidInstanceError, PreconditionError

ROOT = Path(__file__).resolve().parents[1]
INSTANCES = ROOT / "instances"
GOLDENS = ROOT / "goldens"


def run(*argv) -> int:
    return main([str(a) for a in argv])


def test_parse_rejects_unknown_keys(tmp_path):
    doc = json.loads((INSTANCES / "two_sided_affine.json").read_text())
    doc["surprise"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(InvalidInstanceError):
        load_instance(bad)
    assert run("solve", bad) == 1


def test_parse_rejects_malformed_json(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert run("solve", bad) == 1


def test_solve_trivial_constant_instance(tmp_path):
    doc = {
        "grid": {"T": 1.0, "steps": 3},
        "tree": {"kind": "binomial", "x0": 0.0, "up": 0.5, "down": -0.5, "p_up": 0.5},
        "terminal": {"family": "constant", "c": 0.25},
        "driver": {"family": "zero"},
        "barriers": {
            "L": {"family": "constant", "c": -1.0},
            "U": {"family": "constant", "c": 1.0},
        },
    }
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "sol.json"
    assert run("solve", path, "--out", out) == 0
    dumped = json.loads(out.read_text())
    for level in dumped["solution"]["Y"]:
        assert all(v == 0.25 for v in level)


@pytest.mark.parametrize(
    "args, golden",
    [
        (["solve", INSTANCES / "two_sided_affine.json", "--method", "projection"],
         "two_sided_affine.projection.json"),
        (["solve", INSTANCES / "two_sided_affine.json", "--method", "inc-pen"],
         "two_sided_affine.inc-pen.json"),
        (["solve", INSTANCES / "barrier_jumps.json", "--method", "projection"],
         "barrier_jumps.projection.json"),
        (["solve", INSTANCES / "lower_only.json", "--method", "projection"],
         "lower_only.projection.json"),
    ],
)
def test_solve_matches_committed_golden_bit_for_bit(tmp_path, args, golden):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run(*args, "--out", out1) == 0
    assert run(*args, "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == (GOLDENS / golden).read_bytes()


@pytest.mark.parametrize(
    "args, golden",
    [
        (["converge", INSTANCES / "two_sided_affine.json", "--mode", "inc-pen"],
         "two_sided_affine.converge.csv"),
        (["converge", INSTANCES / "barrier_jumps.json", "--mode", "dec-pen"],
         "barrier_jumps.converge.csv"),
    ],
)
def test_converge_matches_committed_golden(tmp_path, args, golden):
    out = tmp_path / "trace.csv"
    assert run(*args, "--out", out) == 0
    assert out.read_bytes() == (GOLDENS / golden).read_bytes()


def test_solve_decreasing_penalization_gates_upper_side_at_sweep_accuracy(tmp_path):
    out = tmp_path / "dec.json"
    eps = 1e-5
    code = run("solve", INSTANCES / "two_sided_affine.json", "--method", "dec-pen",
               "--eps", eps, "--out", out)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["method"] == "decreasing-penalization"
    slack = {"sandwich_upper", "skorokhod_upper"}
    for gate, tol in doc["tolerances"].items():
        assert tol == (2 * eps if gate in slack else 1e-9), gate
    assert doc["passed"]


def test_converge_trace_eventually_decreasing():
    csv = (GOLDENS / "two_sided_affine.converge.csv").read_text().strip().splitlines()
    dists = [float(line.split(",")[1]) for line in csv[1:]]
    assert dists[-1] < 1e-5
    tail = dists[3:]
    assert all(b < a for a, b in zip(tail, tail[1:]))


def test_converge_single_row_when_inactive(tmp_path):
    doc = {
        "grid": {"T": 1.0, "steps": 4},
        "tree": {"kind": "binomial", "x0": 0.0, "up": 0.5, "down": -0.5, "p_up": 0.5},
        "terminal": {"family": "affine_state", "a": 0.1, "b": 0.0},
        "driver": {"family": "zero"},
        "barriers": {
            "L": {"family": "constant", "c": -9.0},
            "U": {"family": "constant", "c": 9.0},
        },
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "trace.csv"
    assert run("converge", path, "--out", out) == 0
    assert len(out.read_text().strip().splitlines()) == 2  # header + one row


def test_converge_nmax_one_exits_two(tmp_path):
    out = tmp_path / "trace.csv"
    code = run(
        "converge", INSTANCES / "two_sided_affine.json", "--nmax", "2", "--out", out
    )
    assert code == 2
    assert out.exists()  # trace still written


@pytest.mark.parametrize("nmax", ["1", "0"])
def test_solve_nmax_below_two_reports_non_convergence(nmax, capsys):
    code = run("solve", INSTANCES / "two_sided_affine.json", "--method", "inc-pen", "--nmax", nmax)
    assert code == 2
    assert "non-convergence" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["inf", "nan", "0", "-1"])
def test_sweep_eps_must_be_finite_and_positive(eps):
    path = INSTANCES / "two_sided_affine.json"
    assert run("solve", path, "--method", "inc-pen", "--eps", eps) == 1
    assert run("converge", path, "--eps", eps) == 1


def test_solution_round_trip_reproduces_residuals(tmp_path):
    inst = load_instance(INSTANCES / "barrier_jumps.json")
    out = tmp_path / "sol.json"
    assert run("solve", INSTANCES / "barrier_jumps.json", "--out", out) == 0
    bundle = load_solution(out, inst)
    rep = skorokhod_residual(bundle, inst.barriers)
    dumped = json.loads(out.read_text())
    assert dumped["residuals"]["skorokhod_lower"] == rep.lower_residual
    assert dumped["residuals"]["skorokhod_upper"] == rep.upper_residual
    assert dumped["residuals"]["lu4"] == lu4_residual(bundle, inst)


def test_corrupted_solution_detected_on_replay(tmp_path):
    inst = load_instance(INSTANCES / "two_sided_affine.json")
    doc = json.loads((GOLDENS / "two_sided_affine.projection.json").read_text())
    doc["solution"]["dK_star"][3][1] += 0.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    bundle = load_solution(bad, inst)
    assert lu4_residual(bundle, inst) > 0.4  # budget identity broken by ~0.5
    rep = skorokhod_residual(bundle, inst.barriers)
    assert rep.lower_residual > 1e-9 or rep.upper_residual > 1e-9


def test_verify_passes_on_shipped_instances():
    assert run("verify", INSTANCES / "two_sided_affine.json") == 0
    assert run("verify", INSTANCES / "barrier_jumps.json") == 0


def test_verify_reports_separation_failure_but_continues(tmp_path, capsys):
    code = run("verify", INSTANCES / "touching_barriers.json")
    output = capsys.readouterr().out
    assert code == 1
    assert "separation: FAIL" in output
    assert "residuals: pass" in output


def test_solve_touching_barriers_warns_but_solves(capsys):
    code = run("solve", INSTANCES / "touching_barriers.json")
    captured = capsys.readouterr()
    assert code == 0
    assert "not strictly separated" in captured.err


def test_compare_ordered_and_unordered(tmp_path):
    base = json.loads((INSTANCES / "two_sided_affine.json").read_text())
    wider = json.loads(json.dumps(base))
    wider["terminal"]["b"] = 0.3
    wider["barriers"]["L"]["b"] += 0.1
    wider["barriers"]["U"]["b"] += 0.5
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(wider))
    assert run("compare", a, b) == 0
    assert run("compare", b, a) == 3


def test_game_command(tmp_path):
    assert run("game", INSTANCES / "barrier_jumps.json") == 0
    small = {
        "grid": {"T": 1.0, "steps": 3},
        "tree": {"kind": "binomial", "x0": 0.0, "up": 1.0, "down": -1.0, "p_up": 0.5},
        "terminal": {"family": "affine_state", "a": 1.0, "b": 0.0},
        "driver": {"family": "constant", "rate": 0.1},
        "barriers": {
            "L": {"family": "affine_state", "a": 1.0, "b": -0.5},
            "U": {"family": "affine_state", "a": 1.0, "b": 0.5},
        },
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(small))
    assert run("game", path, "--exhaustive") == 0
    # y-dependent driver is outside the oracle's class
    ydep = json.loads(json.dumps(small))
    ydep["driver"] = {"family": "linear", "intercept": 0.0, "slope": -0.4}
    path2 = tmp_path / "ydep.json"
    path2.write_text(json.dumps(ydep))
    assert run("game", path2) == 5


def test_game_command_with_an_inward_barrier_jump(tmp_path):
    # L = 0 jumps up to L+ = 1 at the root, so the value there is 1, not E[xi] = 0.5
    doc = {
        "grid": {"T": 1.0, "steps": 1},
        "tree": {"kind": "binomial", "x0": 0.0, "up": 1.0, "down": -1.0, "p_up": 0.5},
        "terminal": {"family": "affine_state", "a": 0.5, "b": 0.5},
        "driver": {"family": "zero"},
        "barriers": {
            "L": {"family": "constant", "c": 0.0},
            "U": {"family": "constant", "c": 2.0},
            "right_jumps": [{"barrier": "L", "level": 0, "node": 0, "new_value": 1.0}],
        },
    }
    path = tmp_path / "inward.json"
    path.write_text(json.dumps(doc))
    assert run("game", path, "--exhaustive") == 0
    assert run("verify", path) == 0


def test_explicit_tree_instance(tmp_path):
    doc = {
        "grid": {"T": 1.0, "steps": 2},
        "tree": {
            "kind": "explicit",
            "states": [[0.0], [-1.0, 0.5, 2.0], [-1.5, 0.0, 1.0, 3.0]],
            "children": [[[0, 1, 2]], [[0, 1], [1, 2], [2, 3]]],
            "probs": [[[0.25, 0.5, 0.25]], [[0.4, 0.6], [0.5, 0.5], [0.7, 0.3]]],
        },
        "terminal": {"family": "affine_state", "a": 0.3, "b": 0.0},
        "driver": {"family": "constant", "rate": 0.1},
        "barriers": {
            "L": {"family": "constant", "c": -1.0},
            "U": {"family": "constant", "c": 1.5},
            "right_jumps": [{"barrier": "L", "level": 1, "node": 1, "new_value": -1.2}],
        },
    }
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "sol.json"
    assert run("solve", path, "--out", out) == 0
    assert run("verify", path) == 0
    inst = load_instance(path)
    assert inst.tree.level_size(2) == 4
    assert inst.lower.right_jump((1, 1)) == pytest.approx(-0.2)
    # declared steps must match the explicit tree's depth
    doc["grid"]["steps"] = 3
    path.write_text(json.dumps(doc))
    assert run("solve", path) == 1



def _explicit_doc() -> dict:
    return {
        "grid": {"T": 1.0, "steps": 1},
        "tree": {
            "kind": "explicit",
            "states": [[0.0], [-1.0, 1.0]],
            "children": [[[0, 1]]],
            "probs": [[[0.5, 0.5]]],
        },
        "terminal": {"family": "affine_state", "a": 0.3, "b": 0.0},
        "driver": {"family": "zero"},
        "barriers": {"L": {"family": "constant", "c": -1.0}, "U": {"family": "constant", "c": 1.0}},
    }


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("children", [[[0, 0.7]]], "child id is not an integer"),
        ("probs", [[[0.5, "half"]]], "transition probabilities must be lists of numbers"),
        ("children", [[[0, [1]]]], "child ids must be lists of numbers"),
        ("probs", [[[0.5, None]]], "transition probabilities must be lists of numbers"),
        ("states", [[0.0], [-1.0, "x"]], "^tree.states must be lists of numbers$"),
        ("children", [[[False, 1]]], "child ids must be lists of numbers"),
        ("probs", [[[True, 0.0]]], "transition probabilities must be lists of numbers"),
        ("states", [[0.0], [-1.0, True]], "^tree.states must be lists of numbers$"),
    ],
)
def test_explicit_tree_rejects_malformed_edges(tmp_path, capsys, key, value, message):
    doc = _explicit_doc()
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(doc))
    assert run("solve", path) == 0
    doc["tree"][key] = value
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    with pytest.raises(InvalidInstanceError, match=message):
        load_instance(path)
    assert run("solve", path) == 1
    assert "invalid input:" in capsys.readouterr().err


def test_load_solution_rejects_non_finite_and_misshapen_dm(tmp_path):
    inst = load_instance(INSTANCES / "two_sided_affine.json")
    out = tmp_path / "sol.json"
    assert run("solve", INSTANCES / "two_sided_affine.json", "--out", out) == 0
    doc = json.loads(out.read_text())
    assert lu4_residual(load_solution(out, inst), inst) < 1e-12
    doc["solution"]["dM"][1][0][1] = float("nan")
    out.write_text(json.dumps(doc))
    with pytest.raises(InvalidInstanceError, match="non-finite"):
        load_solution(out, inst)
    doc["solution"]["dM"][1][0] = [0.0]
    out.write_text(json.dumps(doc))
    with pytest.raises(InvalidInstanceError, match="dM level 1: edge values mismatch children"):
        load_solution(out, inst)

def test_console_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "rbsde_lab", "solve", str(INSTANCES / "lower_only.json")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "passed: True" in result.stdout


def test_verify_and_exhaustive_game_leave_numpy_ma_unloaded(tmp_path):
    """Neither command calls what imports numpy.ma (np.unique does), some 15 ms per process."""
    small = {
        "grid": {"T": 1.0, "steps": 3},
        "tree": {"kind": "binomial", "x0": 0.0, "up": 1.0, "down": -1.0, "p_up": 0.5},
        "terminal": {"family": "affine_state", "a": 1.0, "b": 0.0},
        "driver": {"family": "constant", "rate": 0.1},
        "barriers": {
            "L": {"family": "affine_state", "a": 1.0, "b": -0.5},
            "U": {"family": "affine_state", "a": 1.0, "b": 0.5},
        },
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(small))
    script = (
        "import sys\n"
        "from rbsde_lab.cli import main\n"
        f"codes = main(['verify', {str(INSTANCES / 'two_sided_affine.json')!r}]), "
        f"main(['game', {str(path)!r}, '--exhaustive'])\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.stdout.splitlines()[-1] == "(0, 0) False", result.stderr


def test_residual_tolerance_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("RBSDE_LAB_TOL", "1e-30")
    # impossible tolerance: even round-off fails the gate
    code = run("solve", INSTANCES / "two_sided_affine.json")
    assert code == 4
    monkeypatch.setenv("RBSDE_LAB_TOL", "not-a-number")
    assert run("solve", INSTANCES / "two_sided_affine.json") == 1
    # non-finite or negative tolerances are invalid input, not theorem violations
    for raw in ("nan", "inf", "-1"):
        monkeypatch.setenv("RBSDE_LAB_TOL", raw)
        assert run("solve", INSTANCES / "two_sided_affine.json") == 1
        assert run("verify", INSTANCES / "two_sided_affine.json") == 1


def _edited_instance(tmp_path, name: str, edit) -> Path:
    doc = json.loads((INSTANCES / name).read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("node", -1, r"node out of range 0\.\.2"),
        ("node", 999, r"node out of range 0\.\.2"),
        ("level", 1.5, "level and node must be integers"),
        ("level", "2", "level and node must be integers"),
        ("level", 99, r"level out of range 0\.\.7"),
        ("level", -1, r"level out of range 0\.\.7"),
    ],
)
def test_right_jump_entries_are_range_checked(tmp_path, capsys, key, value, message):
    def edit(doc):
        doc["barriers"]["right_jumps"][0][key] = value

    path = _edited_instance(tmp_path, "barrier_jumps.json", edit)
    with pytest.raises(InvalidInstanceError, match=message):
        load_instance(path)
    capsys.readouterr()
    assert run("solve", path) == 1
    err = capsys.readouterr().err
    assert "invalid input:" in err and f"{key} {value!r}" in err


def test_right_jumps_checked_for_library_callers():
    lower = load_instance(INSTANCES / "barrier_jumps.json").lower
    with pytest.raises(InvalidInstanceError, match="node out of range"):
        lower.with_right_jumps([(2, -1, -1.5)])
    with pytest.raises(InvalidInstanceError, match="terminal instant"):
        lower.with_right_jumps([(8, 0, -1.5)])
    moved = lower.with_right_jumps([(np.int64(2), 2.0, -1.5)])
    assert moved.right_jump((2, 2)) == pytest.approx(-0.5)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("steps", 8.5, "grid.steps: expected an integer"),
        ("steps", "8", "grid.steps: expected an integer"),
        ("steps", True, "grid.steps: expected an integer"),
        ("T", "abc", "grid.T: expected a finite number"),
        ("T", None, "grid.T: expected a finite number"),
        ("T", float("inf"), "grid.T: expected a finite number"),
    ],
)
def test_grid_must_be_numeric(tmp_path, capsys, key, value, message):
    def edit(doc):
        doc["grid"][key] = value

    path = _edited_instance(tmp_path, "barrier_jumps.json", edit)
    with pytest.raises(InvalidInstanceError, match=message):
        load_instance(path)
    capsys.readouterr()
    assert run("solve", path) == 1
    assert "invalid input:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "keys, value, field",
    [
        (("terminal",), {"family": "constant", "c": "-1.5"}, "terminal.c"),
        (("tree", "p_up"), "0.5", "tree.p_up"),
        (("terminal",), {"family": "constant", "c": "abc"}, "terminal.c"),
        (("driver", "slope"), None, "driver.slope"),
        (("terminal",), {"family": "table", "values": [0.0] * 10 + ["x"]}, "terminal.values"),
        (("driver",), {"family": "constant", "rate": float("inf")}, "driver.rate"),
        (("terminal",), {"family": "table", "values": [True] + [0.0] * 10}, "terminal.values"),
        (("barriers", "L"), {"family": "table", "values": [[-9.0] * k for k in range(1, 11)] + [[-9.0] * 10 + [False]]},
         "barriers.L.values"),
        (("barriers", "U"), {"family": "quadratic", "a": 1.0}, "barriers.U: unknown function family 'quadratic'"),
        (("barriers", "L"), {"family": "affine_state", "a": 0.5}, "barriers.L: missing keys"),
        (("terminal",), {"family": "constant", "c": 0.1, "a": 2.0}, "terminal: unknown keys"),
        (("barriers", "U"), {"family": "affine_time_state", "a": 0.5, "b": "0.1", "c": None}, "barriers.U.b"),
    ],
)
def test_instance_numbers_are_checked_and_named(tmp_path, capsys, keys, value, field):
    def edit(doc):
        *parents, key = keys
        target = doc
        for name in parents:
            target = target[name]
        target[key] = value

    path = _edited_instance(tmp_path, "two_sided_affine.json", edit)
    with pytest.raises(InvalidInstanceError, match=f"^{field}"):
        load_instance(path)
    capsys.readouterr()
    assert run("solve", path) == 1
    err = capsys.readouterr().err
    assert f"invalid input: {field}" in err and "Traceback" not in err


EXPLICIT_TREE = {  # ragged: fan-out 1 to 3, a shared child
    "kind": "explicit",
    "states": [[0.1], [-0.7, 0.4, 1.3], [-1.1, 0.2], [-0.9, 0.35, 0.8, 2.05]],
    "children": [[[0, 1, 2]], [[0], [0, 1], [1]], [[0, 1], [2, 3]]],
    "probs": [[[0.2, 0.5, 0.3]], [[1.0], [0.4, 0.6], [1.0]], [[0.5, 0.5], [0.25, 0.75]]],
}
FAMILY_SPECS = {  # family: (spec, its value at a state x and an instant t)
    "constant": ({"c": -0.83}, lambda s, x, t: s["c"]),
    "affine_state": ({"a": 0.37, "b": -1.13}, lambda s, x, t: s["a"] * x + s["b"]),
    "affine_time_state": ({"a": -0.61, "b": 1.7, "c": 0.21}, lambda s, x, t: s["a"] * x + s["b"] * t + s["c"]),
}


def _family_doc(tree: dict, steps: int, terminal: dict, lower: dict, upper: dict) -> dict:
    return {
        "grid": {"T": 1.3, "steps": steps},
        "tree": tree,
        "terminal": terminal,
        "driver": {"family": "zero"},
        "barriers": {"L": lower, "U": upper},
    }


@pytest.mark.parametrize("tree, steps", [
    ({"kind": "binomial", "x0": 0.1, "up": 0.3, "down": -0.2, "p_up": 0.45}, 7),
    (EXPLICIT_TREE, 3),
])
@pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
def test_function_families_match_the_per_level_reference(tree, steps, family):
    coefs, rule = FAMILY_SPECS[family]
    terminal = {"family": family, **coefs}
    lower = {"family": family, **{name: value - 3.0 for name, value in coefs.items()}}
    upper = {"family": family, **{name: 1.5 * value + 0.25 for name, value in coefs.items()}}
    inst = parse_instance(_family_doc(tree, steps, terminal, lower, upper))
    t = inst.grid.instants.tolist()

    def reference(spec: dict, k: int) -> list[str]:
        return [float(rule(spec, x, t[k])).hex() for x in inst.tree.states[k].tolist()]

    assert [v.hex() for v in inst.terminal.tolist()] == reference(terminal, steps)
    for side, spec in ((inst.lower, lower), (inst.upper, upper)):
        for field in (side.value, side.right_value):
            for k in range(inst.tree.levels):
                assert [v.hex() for v in field.level(k).tolist()] == reference(spec, k)


def test_overflowing_barrier_family_names_the_first_level():
    # |x| reaches 1.5 at level 3 of this tree, where 1.2e308 * x overflows to inf
    tree = {"kind": "binomial", "x0": 0.0, "up": 0.5, "down": -0.5, "p_up": 0.5}
    lower = {"family": "affine_time_state", "a": 1.2e308, "b": 0.5, "c": -1.0}
    doc = _family_doc(tree, 6, {"family": "constant", "c": 0.0}, lower, {"family": "constant", "c": 1.0})
    with np.errstate(over="ignore"), pytest.raises(InvalidInstanceError, match="^level 3: non-finite field value$"):
        parse_instance(doc)


@pytest.mark.parametrize("tree, steps", [
    ({"kind": "binomial", "x0": 0.1, "up": 0.3, "down": -0.2, "p_up": 0.45}, 7),
    (EXPLICIT_TREE, 3),
])
def test_family_barrier_and_its_table_copy_parse_to_the_same_bytes(tree, steps):
    a, b = 0.37, -1.13
    family = {"family": "affine_state", "a": a, "b": b}
    upper = {"family": "constant", "c": 9.0}
    built = parse_instance(_family_doc(tree, steps, {"family": "constant", "c": 0.0}, family, upper))
    table = {"family": "table", "values": [[a * x + b for x in level.tolist()] for level in built.tree.states]}
    tabled = parse_instance(_family_doc(tree, steps, {"family": "constant", "c": 0.0}, table, upper))
    for got, want in ((built.lower.value, tabled.lower.value), (built.lower.right_value, tabled.lower.right_value)):
        assert got.values.tobytes() == want.values.tobytes()


def test_integral_grid_and_jump_numbers_still_load(tmp_path):
    def edit(doc):
        doc["grid"].update(T=1, steps=8.0)
        doc["barriers"]["right_jumps"][0].update(level=2.0, node=1.0)

    edited = load_instance(_edited_instance(tmp_path, "barrier_jumps.json", edit))
    shipped = load_instance(INSTANCES / "barrier_jumps.json")
    assert edited.grid == shipped.grid
    assert edited.lower.jump_events() == shipped.lower.jump_events()


@pytest.mark.parametrize("steps", [10_000_000_000_000, 1413])
def test_huge_step_count_is_invalid_input_before_allocation(tmp_path, capsys, steps):
    def edit(doc):
        doc["grid"]["steps"] = steps

    path = _edited_instance(tmp_path, "barrier_jumps.json", edit)
    with pytest.raises(InvalidInstanceError, match="more than the 1000000 supported"):
        load_instance(path)
    capsys.readouterr()
    assert run("solve", path) == 1
    assert "invalid input:" in capsys.readouterr().err


def test_thousand_step_tree_is_within_the_node_bound(tmp_path):
    def edit(doc):
        doc["grid"]["steps"] = 1000

    inst = load_instance(_edited_instance(tmp_path, "two_sided_affine.json", edit))
    assert inst.tree.node_count() == 501_501


@pytest.fixture(scope="module")
def thirty_steps(tmp_path_factory):
    doc = json.loads((INSTANCES / "two_sided_affine.json").read_text())
    doc["grid"]["steps"] = 30  # beyond the path enumeration cap
    path = tmp_path_factory.mktemp("deep") / "two_sided_affine_30.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--method", "projection"],
        ["solve", "--method", "inc-pen"],
        ["solve", "--method", "dec-pen"],
        ["converge"],
        ["verify"],
    ],
)
def test_commands_run_beyond_the_path_enumeration_cap(thirty_steps, args):
    assert run(args[0], thirty_steps, *args[1:]) == 0


def test_verify_never_enumerates_paths(monkeypatch):
    from rbsde_lab.lattice import FiltrationTree

    calls = []
    enumerate_all = FiltrationTree.path_arrays

    def spy(self):
        calls.append(self.depth)
        return enumerate_all(self)

    monkeypatch.setattr(FiltrationTree, "path_arrays", spy)
    for name in ("two_sided_affine.json", "barrier_jumps.json", "lower_only.json"):
        assert run("verify", INSTANCES / name) == 0
    assert run("verify", INSTANCES / "touching_barriers.json") == 1
    assert calls == []


# A 13-step explicit tree with a linear driver and right jumps on both
# barriers, where the penalization schemes once split K and A wrongly at the
# jump nodes (the Y values of all methods agreed; Y+, jumpK, jumpA did not).
JUMPS_BOTH_BARRIERS = ROOT / "tests" / "data" / "explicit_jumps_both_barriers.json"


@pytest.mark.parametrize("method", ["projection", "inc-pen", "dec-pen"])
def test_penalization_splits_k_and_a_at_jump_nodes(method):
    assert run("solve", JUMPS_BOTH_BARRIERS, "--method", method) == 0


def test_uniqueness_gates_k_and_a_at_jump_nodes():
    from rbsde_lab.oracle import uniqueness_probe

    probe = uniqueness_probe(load_instance(JUMPS_BOTH_BARRIERS))
    assert probe.separation_holds
    assert probe.passed
    assert max(probe.k_distances.values()) <= probe.tolerance
    assert max(probe.a_distances.values()) <= probe.tolerance
    assert run("verify", JUMPS_BOTH_BARRIERS) == 0


def test_verify_reports_an_unconverged_uniqueness_probe_as_non_convergence(tmp_path, capsys):
    # at 400 steps both penalization sweeps stop at the default ladder's top
    # level before they are eps-close; their distances measure the truncation
    def edit(doc):
        doc["grid"]["steps"] = 400

    report = tmp_path / "report.json"
    assert run("verify", _edited_instance(tmp_path, "two_sided_affine.json", edit), "--json", report) == 2
    uniqueness = json.loads(report.read_text())["checks"]["uniqueness"]
    assert uniqueness["converged"] == {"increasing": False, "decreasing": False}
    assert uniqueness["passed"] is False
    assert "uniqueness: FAIL" in capsys.readouterr().out


def test_benchmark_hook_names_are_cli_attributes():
    """Every key of ``SPANNED`` in bench/battery.py names an attribute of ``rbsde_lab.cli``.

    The benchmark wraps those attributes, so dropping one (say, an import
    only the benchmark reads) would crash it.  The file is parsed, not
    imported, so the check needs nothing from ``bench/``.
    """
    tree = ast.parse((ROOT / "bench" / "battery.py").read_text(encoding="utf-8"))
    spanned = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SPANNED"]
    ]
    assert len(spanned) == 1
    names = [ast.literal_eval(key) for key in spanned[0].keys]
    assert names
    assert [name for name in names if not hasattr(cli, name)] == []


def test_each_command_computes_the_validation_report_at_most_once_per_instance(monkeypatch):
    from rbsde_lab import regulated

    calls = []
    compute = regulated._validation_report
    monkeypatch.setattr(regulated, "_validation_report", lambda inst: calls.append(inst) or compute(inst))
    path = INSTANCES / "two_sided_affine.json"
    for argv, expected in ((["verify", path], 2), (["solve", path], 1), (["converge", path, "--mode", "dec-pen"], 2)):
        calls.clear()
        assert run(*argv) == 0
        assert len(calls) == expected, argv  # the instance, and for a decreasing sweep its negation dual


def test_verify_computes_the_separation_report_once(monkeypatch):
    from rbsde_lab import regulated

    calls = []
    compute = regulated._separation_report
    monkeypatch.setattr(regulated, "_separation_report", lambda pair: calls.append(pair) or compute(pair))
    assert run("verify", INSTANCES / "two_sided_affine.json") == 0
    assert len(calls) == 1  # read by the separation check and again by the uniqueness probe


def test_unreadable_instance_files_are_invalid_input(tmp_path, capsys):
    latin = tmp_path / "latin1.json"
    latin.write_bytes('{"grid": "\xe9"}'.encode("latin-1"))
    for path in (tmp_path, latin):
        with pytest.raises(InvalidInstanceError, match=str(path)):
            load_instance(path)
        assert run("solve", path) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input: {path}") and "Traceback" not in err
    assert run("solve", tmp_path / "missing.json") == 1
    assert "invalid input:" in capsys.readouterr().err


def test_load_solution_refuses_unreadable_and_incomplete_documents(tmp_path):
    inst = load_instance(INSTANCES / "two_sided_affine.json")
    out = tmp_path / "sol.json"
    assert run("solve", INSTANCES / "two_sided_affine.json", "--out", out) == 0
    doc = json.loads(out.read_text())
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidInstanceError, match="not readable as JSON"):
        load_solution(bad, inst)
    for key in ("solution", "method"):
        bad.write_text(json.dumps({k: v for k, v in doc.items() if k != key}))
        with pytest.raises(InvalidInstanceError, match=rf"missing keys \['{key}'\]"):
            load_solution(bad, inst)
    del doc["solution"]["dM"]
    bad.write_text(json.dumps(doc))
    with pytest.raises(InvalidInstanceError, match=r"solution: missing keys \['dM'\]"):
        load_solution(bad, inst)


@pytest.mark.parametrize("level", [["x"], [True, True, True]])
def test_load_solution_refuses_non_numeric_values_naming_the_field(tmp_path, level):
    inst = load_instance(INSTANCES / "two_sided_affine.json")
    doc = json.loads((GOLDENS / "two_sided_affine.projection.json").read_text())
    doc["solution"]["Y"][2] = level
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(InvalidInstanceError, match=re.escape(f"{bad}: solution.Y must be lists of numbers")):
        load_solution(bad, inst)


def test_unwritable_output_paths_are_invalid_input(tmp_path, capsys):
    path = INSTANCES / "two_sided_affine.json"
    missing = tmp_path / "missing" / "r.json"
    for argv, out in (
        (["solve", path, "--out", tmp_path], tmp_path),
        (["converge", path, "--out", tmp_path], tmp_path),
        (["verify", path, "--json", missing], missing),
    ):
        assert run(*argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input: {out}: cannot write output") and "Traceback" not in err


def _verify_report(tmp_path, instance, code: int) -> dict:
    """Run ``verify`` on ``instance``, check its exit code and return its report's checks."""
    report = tmp_path / "report.json"
    assert run("verify", instance, "--json", report) == code
    return json.loads(report.read_text())["checks"]


def test_verify_identity_failure_beats_data_failure(tmp_path, monkeypatch):
    def edit(doc):  # U's right limit brought down onto L at one node: valid, not separated
        doc["barriers"]["right_jumps"] = [{"barrier": "U", "level": 3, "node": 1, "new_value": -0.27}]

    path = _edited_instance(tmp_path, "two_sided_affine.json", edit)
    checks = _verify_report(tmp_path, path, 1)
    assert checks["validation"]["passed"] and not checks["separation"]["passed"]
    assert checks["residuals"]["passed"]
    monkeypatch.setenv("RBSDE_LAB_TOL", "1e-30")  # lu4 is about 1e-16 here, not an exact zero
    checks = _verify_report(tmp_path, path, 4)
    assert not checks["separation"]["passed"] and not checks["residuals"]["passed"]


def test_verify_identity_failure_beats_non_convergence(tmp_path, monkeypatch):
    def edit(doc):
        doc["grid"]["steps"] = 400

    monkeypatch.setenv("RBSDE_LAB_TOL", "1e-30")
    checks = _verify_report(tmp_path, _edited_instance(tmp_path, "two_sided_affine.json", edit), 4)
    assert checks["uniqueness"]["converged"] == {"increasing": False, "decreasing": False}
    assert not checks["residuals"]["passed"]


def test_verify_data_failure_beats_non_convergence(tmp_path, monkeypatch):
    probe = cli.uniqueness_probe

    def short_probe(*args, **kwargs):
        report = probe(*args, **kwargs)
        return dataclasses.replace(report, converged=dict.fromkeys(report.converged, False))

    monkeypatch.setattr(cli, "uniqueness_probe", short_probe)
    checks = _verify_report(tmp_path, INSTANCES / "touching_barriers.json", 1)
    assert not checks["separation"]["passed"] and not checks["uniqueness"]["passed"]
    assert not checks["patching"]["passed"] and "error" in checks["patching"]


def test_verify_patching_refusal_is_a_theorem_violation_under_separation(tmp_path, monkeypatch):
    def refuse(*args):
        raise PreconditionError("refused")

    monkeypatch.setattr(cli, "chain_report", refuse)
    checks = _verify_report(tmp_path, INSTANCES / "two_sided_affine.json", 4)
    assert checks["separation"]["passed"]
    assert checks["patching"] == {"passed": False, "error": "refused"}


def test_two_sided_verify_calls_each_benchmark_hook_as_often_as_before(tmp_path, monkeypatch):
    """The benchmark times ``verify`` by wrapping these ``cli`` attributes (bench/battery.py)."""
    tree = ast.parse((ROOT / "bench" / "battery.py").read_text(encoding="utf-8"))
    spanned = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SPANNED"]
    )
    counts = dict.fromkeys(map(ast.literal_eval, spanned.keys), 0)
    for name in counts:
        def counted(*args, _fn=getattr(cli, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    _verify_report(tmp_path, INSTANCES / "two_sided_affine.json", 0)
    once = {
        "load_instance", "validate_instance", "check_separation", "solve_doubly_reflected", "lu4_residual",
        "skorokhod_residual", "right_jump_identity_defect", "verify_local_properties", "uniqueness_probe",
        "dump_json",
    }
    assert counts == {name: int(name in once) for name in counts}


def test_output_paths_are_checked_before_any_work(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the work started before the output path was checked")

    for name in ("penalization_sweep", "uniqueness_probe", "_solve_projection"):
        monkeypatch.setattr(cli, name, refuse)
    path = INSTANCES / "two_sided_affine.json"
    missing = tmp_path / "missing" / "r.json"
    for argv, out in (
        (["solve", path, "--out", tmp_path], tmp_path),
        (["solve", path, "--method", "inc-pen", "--out", missing], missing),
        (["converge", path, "--out", tmp_path], tmp_path),
        (["converge", path, "--out", missing], missing),
        (["verify", path, "--json", tmp_path], tmp_path),
        (["verify", path, "--json", missing], missing),
    ):
        assert run(*argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input: {out}: cannot write output ("), argv


def test_load_solution_refuses_a_malformed_n_or_method(tmp_path):
    inst = load_instance(INSTANCES / "two_sided_affine.json")
    out = tmp_path / "sol.json"
    assert run("solve", INSTANCES / "two_sided_affine.json", "--out", out) == 0
    doc = json.loads(out.read_text())
    good = tmp_path / "good.json"
    for n, method in ((None, "projection"), (1, "inc-pen"), (2 ** 24, "x")):
        good.write_text(json.dumps({**doc, "n": n, "method": method}))
        bundle = load_solution(good, inst)
        assert (bundle.n, bundle.method) == (n, method)
    bad = tmp_path / "bad.json"
    for key, value in (("n", "abc"), ("n", 0), ("n", -3), ("n", 2.0), ("n", True), ("n", [1]),
                       ("method", [1, 2]), ("method", None), ("method", 3)):
        bad.write_text(json.dumps({**doc, key: value}))
        with pytest.raises(InvalidInstanceError, match=rf"^{re.escape(str(bad))}: {key}: expected"):
            load_solution(bad, inst)
