"""Batch front end: instance files in, solutions / reports / traces out.

Exit codes are a stable contract:
  0 pass, 1 parse/validation failure, 2 non-convergence, 3 precondition
  failure, 4 theorem violation (should never occur), 5 unsupported oracle
  input.
``verify`` states each check once, as a ``gate`` call naming the exit code
its failure stands for; the gate table's failed codes give the exit code in
the order of ``VERIFY_PRECEDENCE``: 4, then 1, then 2, else 0.
Set RBSDE_LAB_TOL to override the default residual pass threshold used by
``solve`` and ``verify``.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

from .bundles import (
    SolutionBundle,
    lu4_residual,
    right_jump_identity_defect,
    sandwich_defect,
    skorokhod_residual,
)
from .engine import DEFAULT_MAX_PENALTY, PenalizationMode, default_levels, penalization_sweep
from .errors import (
    EnumerationCapError,
    InvalidInstanceError,
    PreconditionError,
    RBSDELabError,
    SchemeMonotonicityError,
    TheoremViolationError,
    UnsupportedDriverError,
)
from .io_formats import check_output_path, dump_json, load_instance, solution_document, trace_csv, write_output
from .oracle import comparison_check, dynkin_value_bruteforce, uniqueness_probe
from .regulated import check_separation, validate_instance
from .solvers import (
    solve_doubly_reflected,
    solve_reflected_lower,
    solve_reflected_upper,
)
from .stopping import StoppingRule, chain_report, verify_local_properties
from .tolerances import DEFAULT_EPS, DEFAULT_RESIDUAL_TOL, ROUNDOFF_TOL, sweep_gate

# The path oracles ``verify`` no longer calls, still reachable under these
# names for code that instruments this module's calls (see bench/battery.py).
from .stopping import alternating_sequence, local_solution, patch_global  # noqa: F401

EXIT_PASS = 0
EXIT_INVALID = 1
EXIT_NO_CONVERGENCE = 2
EXIT_PRECONDITION = 3
EXIT_THEOREM = 4
EXIT_UNSUPPORTED = 5
VERIFY_PRECEDENCE = (EXIT_THEOREM, EXIT_INVALID, EXIT_NO_CONVERGENCE)


def _residual_tol() -> float:
    raw = os.environ.get("RBSDE_LAB_TOL")
    if raw is None:
        return DEFAULT_RESIDUAL_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise InvalidInstanceError(f"RBSDE_LAB_TOL is not a number: {raw!r}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidInstanceError(f"RBSDE_LAB_TOL must be finite and >= 0: {raw!r}")
    return tol


def _check_eps(eps: float) -> None:
    """The sweep accuracy ``--eps`` must be finite and > 0."""
    if not (math.isfinite(eps) and eps > 0.0):
        raise InvalidInstanceError(f"--eps must be finite and > 0: {eps!r}")


def _solve_projection(instance) -> SolutionBundle:
    if instance.lower is not None and instance.upper is not None:
        return solve_doubly_reflected(instance)
    if instance.upper is None:
        return solve_reflected_lower(instance)
    return solve_reflected_upper(instance)


def _sweep_mode(instance, direction: str) -> PenalizationMode:
    two_sided = instance.lower is not None and instance.upper is not None
    if direction == "inc-pen":
        if two_sided:
            return PenalizationMode.LOWER_PENALTY_UPPER_REFLECT
        if instance.lower is not None:
            return PenalizationMode.PURE_LOWER
        raise PreconditionError("increasing scheme needs a lower barrier")
    if two_sided:
        return PenalizationMode.UPPER_PENALTY_LOWER_REFLECT
    if instance.upper is not None:
        return PenalizationMode.PURE_UPPER
    raise PreconditionError("decreasing scheme needs an upper barrier")


def _print_invalid(instance) -> bool:
    """Print the instance's validation failures; True when there are any."""
    report = validate_instance(instance)
    for v in report.violations:
        print(f"validation: {v.kind} at {v.location} ({v.detail})", file=sys.stderr)
    return not report.ok


def _bundle_report(bundle: SolutionBundle, instance, tol: float, mode: PenalizationMode | None = None,
                   eps: float = DEFAULT_EPS):
    """Residuals and pass gates for a dumped solution.

    A bundle from a sweep in ``mode`` sits off its penalized barrier by the
    penalty slack, so that side's domination is gated at ``sweep_gate(eps)``
    of the sweep accuracy instead of the exact-solution tolerance; everything
    else keeps the strict gate.
    """
    rep = skorokhod_residual(bundle, instance.barriers)
    residuals = {
        "lu4": lu4_residual(bundle, instance),
        "skorokhod_lower": rep.lower_residual,
        "skorokhod_upper": rep.upper_residual,
        "sandwich_lower": sandwich_defect(bundle, instance.lower, lower=True),
        "sandwich_upper": sandwich_defect(bundle, instance.upper, lower=False),
        "jump_identity": right_jump_identity_defect(bundle),
    }
    tolerances = dict.fromkeys(residuals, tol)
    if mode is not None:
        side = "lower" if mode.penalizes_lower else "upper"
        tolerances[f"sandwich_{side}"] = tolerances[f"skorokhod_{side}"] = sweep_gate(eps)
    passed = all(abs(residuals[k]) <= tolerances[k] for k in residuals)
    return residuals, tolerances, passed


def cmd_solve(args) -> int:
    check_output_path(args.out)
    _check_eps(args.eps)
    instance = load_instance(args.instance)
    if _print_invalid(instance):
        return EXIT_INVALID
    warnings: list[str] = []
    if instance.lower is not None and instance.upper is not None:
        sep = check_separation(instance.barriers)
        if not sep.satisfied:
            warnings.append(
                f"barriers are not strictly separated (margin {sep.margin}); "
                "only Y and K - A are pinned down"
            )
            print(f"warning: {warnings[0]}", file=sys.stderr)

    tol = _residual_tol()
    mode = None if args.method == "projection" else _sweep_mode(instance, args.method)
    if mode is None:
        bundle = _solve_projection(instance)
        converged = True
    else:
        sweep = penalization_sweep(
            instance, mode, levels=default_levels(args.nmax), eps=args.eps
        )
        bundle = sweep.final
        converged = sweep.converged
        if not converged:
            rows = sweep.trace
            last = f"last sup distance {rows[-1].sup_distance}" if rows else "one level ran"
            print(f"non-convergence: {last}", file=sys.stderr)
    residuals, tolerances, passed = _bundle_report(bundle, instance, tol, mode, args.eps)
    if args.out:
        dump_json(solution_document(bundle, residuals, tolerances, passed, warnings), args.out)
    print(f"method: {bundle.method}")
    for key in sorted(residuals):
        print(f"{key}: {residuals[key]}")
    print(f"passed: {passed}")
    if not converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_PASS if passed else EXIT_THEOREM


def cmd_converge(args) -> int:
    check_output_path(args.out)
    _check_eps(args.eps)
    instance = load_instance(args.instance)
    if _print_invalid(instance):
        return EXIT_INVALID
    mode = _sweep_mode(instance, args.mode)
    sweep = penalization_sweep(
        instance,
        mode,
        levels=default_levels(args.nmax),
        eps=args.eps,
        compute_residuals=True,
    )
    if args.out:
        write_output(trace_csv(sweep.trace), args.out)
    for row in sweep.trace:
        print(f"n={row.n} sup_distance={row.sup_distance}")
    print(f"converged: {sweep.converged} (monotone violation {sweep.monotone_violation})")
    return EXIT_PASS if sweep.converged else EXIT_NO_CONVERGENCE


def cmd_verify(args) -> int:
    check_output_path(args.json)
    instance = load_instance(args.instance)
    tol = _residual_tol()
    checks: dict[str, dict] = {}
    failed: set[int] = set()

    def gate(name: str, passed: bool, exit_code: int, **details) -> None:
        """Record a check's report entry; a failure marks its exit code."""
        checks[name] = {"passed": passed, **details}
        if not passed:
            failed.add(exit_code)

    vreport = validate_instance(instance)
    violations = [f"{v.kind} at {v.location}" for v in vreport.violations]
    gate("validation", vreport.ok, EXIT_INVALID, violations=violations)
    two_sided = instance.lower is not None and instance.upper is not None
    if two_sided:
        sep = check_separation(instance.barriers)
        gate("separation", sep.satisfied, EXIT_INVALID, margin=sep.margin)

    if vreport.ok:
        bundle = _solve_projection(instance)
        residuals, tolerances, passed = _bundle_report(bundle, instance, tol)
        gate("residuals", passed, EXIT_THEOREM, values=residuals, tolerances=tolerances)

        if two_sided:
            local = verify_local_properties(
                bundle.y, instance.barriers, StoppingRule.at_zero(instance.tree)
            )
            gate("local_properties", local.passed, EXIT_THEOREM, failures=local.failures)

            probe = uniqueness_probe(instance, projection=bundle)
            # The distances of a sweep that stopped short decide nothing.
            failure = EXIT_THEOREM if probe.converged_all else EXIT_NO_CONVERGENCE
            gate("uniqueness", probe.passed, failure, y_distances=probe.y_distances,
                 k_distances=probe.k_distances, a_distances=probe.a_distances,
                 ka_distances=probe.ka_distances, separation_holds=probe.separation_holds,
                 converged=probe.converged)

            try:
                chain = chain_report(instance, bundle)
            except RBSDELabError as ex:
                gate("patching", False, EXIT_THEOREM if sep.satisfied else EXIT_INVALID, error=str(ex))
            else:
                intervals = chain.worst_interval()
                passed = (
                    chain.stationarity_index <= instance.tree.depth + 1
                    and all(v <= tol for v in intervals.values())
                )
                gate("patching", passed, EXIT_THEOREM, stationarity_index=chain.stationarity_index,
                     intervals=intervals, y_gap=chain.y_gap, ka_gap=chain.ka_gap)

    doc = {"instance": str(args.instance), "checks": checks}
    if args.json:
        dump_json(doc, args.json)
    for name, result in checks.items():
        status = "pass" if result.get("passed") else "FAIL"
        print(f"{name}: {status}")
        for key, val in result.items():
            if key != "passed":
                print(f"  {key}: {val}")
    return next((code for code in VERIFY_PRECEDENCE if code in failed), EXIT_PASS)


def cmd_compare(args) -> int:
    a = load_instance(args.instance)
    b = load_instance(args.other)
    report = comparison_check(a, b)
    print(f"max violation of Y <= Y': {report.max_violation}")
    return EXIT_PASS if report.passed else EXIT_THEOREM


def cmd_game(args) -> int:
    instance = load_instance(args.instance)
    fast = dynkin_value_bruteforce(instance)
    solver = float(solve_doubly_reflected(instance).y.value[(0, 0)])
    diff = abs(fast - solver)
    print(f"game value (fast recursion): {fast}")
    print(f"solver value at the root:    {solver}")
    print(f"difference: {diff}")
    ok = diff <= ROUNDOFF_TOL
    if args.exhaustive:
        exhaustive = dynkin_value_bruteforce(instance, exhaustive=True)
        print(f"game value (exhaustive):     {exhaustive}")
        ok = ok and exhaustive == fast
    return EXIT_PASS if ok else EXIT_THEOREM


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbsde-lab",
        description="Doubly reflected backward equations on finite trees: solve, sweep, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, text, flag, choices in (
        ("solve", cmd_solve, "solve an instance and dump the solution",
         "--method", ["projection", "inc-pen", "dec-pen"]),
        ("converge", cmd_converge, "run a penalization sweep and emit the trace",
         "--mode", ["inc-pen", "dec-pen"]),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("instance")
        p.add_argument(flag, choices=choices, default=choices[0])
        p.add_argument("--eps", type=float, default=DEFAULT_EPS)
        p.add_argument("--nmax", type=int, default=DEFAULT_MAX_PENALTY)
        p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)

    p = sub.add_parser("verify", help="run the full invariant battery")
    p.add_argument("instance")
    p.add_argument("--json", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("compare", help="comparison of two ordered instances")
    p.add_argument("instance")
    p.add_argument("other")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("game", help="stopping-game oracle vs the solver")
    p.add_argument("instance")
    p.add_argument("--exhaustive", action="store_true")
    p.set_defaults(fn=cmd_game)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SchemeMonotonicityError, TheoremViolationError) as ex:
        print(f"theorem violation: {ex}", file=sys.stderr)
        return EXIT_THEOREM
    except (UnsupportedDriverError, EnumerationCapError) as ex:
        print(f"unsupported oracle input: {ex}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except PreconditionError as ex:
        print(f"precondition failure: {ex}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (InvalidInstanceError, FileNotFoundError) as ex:
        print(f"invalid input: {ex}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
