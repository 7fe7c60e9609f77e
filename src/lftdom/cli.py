"""Command line front end: verification suites, demos, and chain building.

Exit codes: 0 when everything passed, 1 when a suite, chain or demo failed
numerically, 2 for usage or input-file errors, an --out file that cannot be
written included; that one is found before any work, and the file is created
only when its content is complete.
"""

import argparse
import errno
import functools
import os
import sys

import numpy as np

from . import jsonio
from . import sampling as samp
from .exceptions import LftdomError, PathLeavesDomainError
from .linalg import DEFAULT_TOL, Tolerance, invert, operator_norm
from .spaces import full_space
from .domains import Verdict, lft_apply, quadric_domain
from .automorphisms import symmetry_direct, symmetry_map, transitive_chain
from .circular import (
    HyperbolicSpec,
    SiegelSpec,
    cayley_map,
    hyperbolic_transitive,
    product_transitive,
    siegel_member,
)
from .verify import RunConfig, example_domains, isometry_identity_residuals, run_verify
from . import __version__

# least verify --tol: the smallest decade at which every verify check holds
# in double precision; at 1e-15 the square-root transport and the Siegel
# unitarity test already fail. demo and transit take any --tol in (0, 1)
MIN_TOL = 1e-14


def _add_flags(parser, run=True, trials=True):
    """Add the flags a subcommand reads: the run flags (--trials with trials), --tol and --out."""
    if run:
        parser.add_argument("--seed", type=int, default=0, help="seed for all randomized suites")
        if trials:
            parser.add_argument("--trials", type=int, default=50, help="work volume per suite")
        parser.add_argument("--dim-h", type=int, default=2, help="column dimension (at most 8)")
        parser.add_argument("--dim-k", type=int, default=2, help="row dimension (at most 8)")
    parser.add_argument(
        "--tol", type=float, help="equality tolerance; the invertibility tolerance is a tenth of it"
    )
    parser.add_argument("--out", help="write the output to this file")


@functools.cache
def build_parser():
    """The command line parser, built once per process; parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="lftdom",
        description="Linear fractional domains: verification, demos, transitive chains.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run every verification suite")
    _add_flags(verify)
    demo = sub.add_parser("demo", help="walk through one example construction")
    demo.add_argument(
        "example",
        choices=["0", "1", "2", "4", "5", "6", "siegel", "exterior", "product", "hyperbolic"],
    )
    _add_flags(demo, trials=False)
    transit = sub.add_parser("transit", help="build a transitive chain from files")
    transit.add_argument("domain_file")
    transit.add_argument("target_file")
    transit.add_argument("path_file", nargs="?", default=None)
    _add_flags(transit, run=False)
    return parser


def _tol_from_args(args):
    if args.tol is None:
        return DEFAULT_TOL
    if not (0.0 < args.tol < 1.0):
        raise ValueError("--tol must lie strictly between 0 and 1")
    if args.command == "verify" and args.tol < MIN_TOL:
        raise ValueError(f"--tol must be at least {MIN_TOL:g}, where every check can hold")
    return Tolerance(args.tol)


def _config_from_args(args, tol):
    # demo has no --trials and reads no trial count
    trials = getattr(args, "trials", RunConfig.trials)
    return RunConfig(seed=args.seed, trials=trials, dim_k=args.dim_k, dim_h=args.dim_h, tol=tol)


def _check_out_path(out_path):
    """Raise the OSError that writing ``out_path`` would raise, without creating the file."""
    folder = os.path.dirname(out_path) or os.curdir
    if not os.path.isdir(folder):
        code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
    elif os.path.isdir(out_path):
        code = errno.EISDIR
    elif not os.access(out_path if os.path.exists(out_path) else folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), out_path)


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)


def cmd_verify(config, out_path):
    report = run_verify(config)
    for row in report["suites"]:
        status = "PASS" if row["passed"] else "FAIL"
        residual = row["max_residual"]
        residual = "null" if residual is None else f"{residual:.3e}"
        print(
            f"{status}  {row['name']:<24} trials={row['trials']:<6} "
            f"max_residual={residual}  [{row['anchor']}]"
        )
    print("overall:", "PASS" if report["passed"] else "FAIL")
    if out_path:
        _emit(jsonio.dumps(report), out_path)
    return 0 if report["passed"] else 1


def _demo_lines(example, config):
    rng = np.random.default_rng([config.seed, 10_000])
    tol = config.tol
    lines = []
    if example in {"0", "1", "2", "4", "5", "6"}:
        index = {"0": 0, "1": 1, "2": 2, "4": 3, "5": 4, "6": 5}[example]
        dom = example_domains(config)[index]
        y, z = samp.sample_members(rng, dom, 2, margin=0.05)
        u = symmetry_map(dom, y)
        uz = lft_apply(u, z)
        m = u.coefficient_matrix()
        lines.append(f"domain: {dom.label or 'custom'}; member shape {dom.space.shape}")
        lines.append("symmetry at Y applied to Z gives residual formulas:")
        lines.append(f"  ||U_Y(U_Y(Z)) - Z|| = {operator_norm(lft_apply(u, uz) - z):.3e}")
        lines.append(f"  ||U_Y(Y) - Y||      = {operator_norm(lft_apply(u, y) - y):.3e}")
        lines.append(f"  ||M^2 - I||         = {operator_norm(m @ m - np.eye(m.shape[0])):.3e}")
        if example == "0":
            lines.append(
                f"  ||U_Y(Z) - (2Y - Z)|| = {operator_norm(uz - (2 * y - z)):.3e}"
                "  (translation-reflection form)"
            )
        if example == "1":
            closed = y @ invert(z, tol, "Z is singular") @ y
            lines.append(f"  ||U_Y(Z) - Y Z^-1 Y|| = {operator_norm(uz - closed):.3e}")
        if example == "6":
            model = quadric_domain(min(config.dim_k + config.dim_h, 4), tol)
            zv = rng.uniform(-1, 1, model.n) + 1j * rng.uniform(-1, 1, model.n)
            yv = rng.uniform(-1, 1, model.n) + 1j * rng.uniform(-1, 1, model.n)
            closed = model.closed_form_symmetry(yv, zv)
            via = model.unembed(
                symmetry_direct(model.domain, model.embed(yv), model.embed(zv))
            )
            lines.append(
                f"  vector form matches matrix route: {np.linalg.norm(closed - via):.3e}"
            )
    elif example == "siegel":
        spec = SiegelSpec(config.dim_k, config.dim_h, tol)
        z = samp.random_siegel_member(rng, spec)
        t = cayley_map(spec, z)
        lines.append(f"stacked member of shape {spec.shape}; member: {siegel_member(spec, z)}")
        lines.append(f"||T(Z)|| = {operator_norm(t):.6f} (inside the unit ball)")
        lines.append(f"||T(T(Z)) - Z|| = {operator_norm(cayley_map(spec, t) - z):.3e}")
    elif example == "exterior":
        n = max(2, config.dim_h)
        space = full_space(n, n)
        images = [b.T.copy() for b in space.basis]
        unitary_defect, residuals = isometry_identity_residuals(space, images, rng, 20, tol)
        lines.append(f"transpose map on {n} x {n}: U = L(I), unitary defect {unitary_defect:.3e}")
        lines.append(f"max ||L(Z^-1) - U L(Z)^-1 U|| = {residuals.max():.3e}")
    elif example == "product":
        spec = SiegelSpec(config.dim_k, config.dim_h, tol)
        w = samp.random_product_member(rng, spec)
        transport = product_transitive(spec, w)
        axis = spec.stack(
            np.zeros((spec.dim_k, spec.dim_h)), np.eye(spec.dim_h)
        )
        lines.append(f"L(Z) = M Z R with ||L([0; I]) - W|| = {operator_norm(transport(axis) - w):.3e}")
        lines.append(
            "||M*JM - J|| = "
            f"{operator_norm(transport.m.conj().T @ spec.j @ transport.m - spec.j):.3e}"
        )
    elif example == "hyperbolic":
        n = max(3, min(config.dim_k + config.dim_h, 6))
        spec = HyperbolicSpec(samp.random_hyperbolic_form(rng, n), tol=tol)
        z1 = samp.random_hyperbolic_member(rng, spec)
        transport = hyperbolic_transitive(spec, z1)
        lines.append(f"form value at target: {spec.form(z1).real:.6f} (negative inside)")
        lines.append("L composed from phase, shear, and stretch factors")
        lines.append(f"||L f - z1|| = {transport.endpoint_residual():.3e}")
        lines.append(
            f"||L*JL - cJ|| = {transport.certificate_residual():.3e} with c = {transport.c:.6f}"
        )
        lines.append(f"degenerate branch used: {transport.degenerate}")
    return lines


def cmd_demo(example, config, out_path):
    try:
        lines = _demo_lines(example, config)
    except LftdomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = "\n".join(lines)
    print(text)
    if out_path:
        _emit(text, out_path)
    return 0


def cmd_transit(args, tol):
    with open(args.domain_file, "r", encoding="utf-8") as fh:
        dom = jsonio.domain_from_obj(jsonio.loads(fh.read()), tol)
    with open(args.target_file, "r", encoding="utf-8") as fh:
        target = jsonio.matrix_from_obj(jsonio.loads(fh.read()), jsonio.MAX_SIDE)
    path = None
    if args.path_file:
        with open(args.path_file, "r", encoding="utf-8") as fh:
            path = jsonio.path_from_obj(jsonio.loads(fh.read()))
    if dom.membership(target) is not Verdict.MEMBER:
        print("error: the target is not a member of the domain", file=sys.stderr)
        return 2
    try:
        chain = transitive_chain(dom, target, path=path)
    except PathLeavesDomainError as exc:
        print(f"error at waypoint {exc.index}: {exc}", file=sys.stderr)
        return 1
    except LftdomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"chain with {chain.factor_count} symmetry factors, "
        f"max step {max(chain.step_norms):.6f}, residual {chain.residual:.3e}"
    )
    _emit(jsonio.chain_dumps(chain), args.out)
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        tol = _tol_from_args(args)
        config = None if args.command == "transit" else _config_from_args(args, tol)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    input_errors = (OSError, ValueError, LftdomError) if args.command == "transit" else OSError
    try:
        # an --out file that cannot be written fails before any work
        if args.out:
            _check_out_path(args.out)
        if args.command == "verify":
            return cmd_verify(config, args.out)
        if args.command == "demo":
            return cmd_demo(args.example, config, args.out)
        return cmd_transit(args, tol)
    except input_errors as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
