import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rbsde_lab.bundles import lu4_residual, skorokhod_residual
from rbsde_lab.cli import main
from rbsde_lab.io_formats import load_instance, load_solution
from rbsde_lab.errors import InvalidInstanceError

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
