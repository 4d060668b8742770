"""Command-line surface: validate, obstruct, cohomology, labs, generate.

Exit code 0 means the engine completed (even when an obstruction class is
proven nonzero); nonzero exit codes signal engine or input errors.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from . import __version__, cohomology
from .errors import EngineError, ParseError
from .laurent import as_fraction
from .scenarios import (
    BUILTIN_NAMES,
    TWISTED_BUILTINS,
    ProvenNonzero,
    Solved,
    dumps_indented,
    generate_builtin,
    load_scenario,
    run_pipeline,
    save_scenario,
    validate_scenario,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nbhdext",
        description=(
            "Exact obstruction calculus for extending a bundle on an embedded "
            "variety to infinitesimal neighborhoods of the embedding."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="run scenario validation and print the log")
    p_val.add_argument("scenario", help="path to a scenario JSON file")

    p_obs = sub.add_parser("obstruct", help="run the obstruction pipeline")
    p_obs.add_argument("scenario", nargs="+", help="scenario JSON file(s)")
    p_obs.add_argument("--order", type=int, default=2, help="highest order to lift to, 1..max_order")
    p_obs.add_argument("--window", type=int, default=None,
                       help="half-width W of the solve window [-W, W]")
    p_obs.add_argument("--out", default=None, help="write the report JSON here")

    p_coh = sub.add_parser("cohomology", help="line-bundle cohomology oracle")
    p_coh.add_argument("--space", choices=sorted(cohomology.SPACES), required=True)
    p_coh.add_argument("--twist", type=int, required=True, action="append",
                       help="twist degree; repeat for direct sums")

    p_gen = sub.add_parser("generate", help="emit a builtin scenario as JSON")
    p_gen.add_argument("name", choices=BUILTIN_NAMES)
    p_gen.add_argument("-d", type=int, default=0, help="bundle twist degree")
    p_gen.add_argument("--twist", default="0",
                       help="adapted-coordinate twist parameter (exact rational)")
    p_gen.add_argument("-o", "--out", default=None)

    sub.add_parser("formal-lab", help="run the formal-disk property suite")
    sub.add_parser("mc-lab", help="run the Maurer-Cartan lifting suite")

    args = parser.parse_args(_attach_twists(sys.argv[1:] if argv is None else argv))
    try:
        return _dispatch(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _attach_twists(argv):
    """Rewrite ``--twist X`` as ``--twist=X`` when X starts with ``-``.

    argparse reads a separate value such as ``-1/2``, which is not a plain
    negative number, as an option and refuses it.
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--twist" and arg.startswith("-"):
            out[-1] = f"--twist={arg}"
        else:
            out.append(arg)
    return out


def _dispatch(args) -> int:
    if args.command == "validate":
        s = load_scenario(args.scenario)
        log = validate_scenario(s)
        for e in log.entries:
            mark = "ok " if e.ok else "FAIL"
            detail = f"  ({e.detail})" if e.detail else ""
            print(f"[{mark}] {e.check:>20} {e.location}{detail}")
        print("scenario valid" if log.ok else "scenario INVALID")
        return 0 if log.ok else 2

    if args.command == "obstruct":
        window = None
        if args.window is not None:
            if args.window < 0:
                raise ParseError(f"--window must be nonnegative, got {args.window}")
            window = (-args.window, args.window)
        outputs = []
        for path in args.scenario:
            s = load_scenario(path)
            bundle = run_pipeline(s, k=args.order, window=window)
            outputs.append(bundle)
            print(f"scenario {bundle.scenario_name}  (digest {bundle.scenario_digest[:12]})")
            for r in bundle.reports:
                print(f"  order {r.order}: {describe_status(r.status)}  [closedness: {r.closedness}]")
            if bundle.abelianized is not None:
                verdict = "exact" if bundle.abelianized["exact"] else "NOT exact"
                print(f"  abelianized pair: {verdict}")
        if args.out:
            doc = [b.to_json() for b in outputs]
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(dumps_indented(doc if len(doc) > 1 else doc[0]) + "\n")
        return 0

    if args.command == "cohomology":
        dims = cohomology.cohomology_dim(args.space, args.twist)
        twists = "+".join(f"O({d})" for d in args.twist)
        for j, dim in enumerate(dims):
            print(f"h^{j}({args.space}, {twists}) = {dim}")
        return 0

    if args.command == "generate":
        twist = as_fraction(args.twist)
        if twist and args.name not in TWISTED_BUILTINS:
            raise ParseError(
                f"{args.name} has no twist family; --twist applies only to "
                + " and ".join(TWISTED_BUILTINS)
            )
        s = generate_builtin(args.name, d=args.d, twist=twist)
        if args.out:
            save_scenario(s, args.out)
        else:
            sys.stdout.write(s.dumps())
        return 0

    if args.command == "formal-lab":
        return _formal_lab()

    if args.command == "mc-lab":
        return _mc_lab()

    raise AssertionError("unreachable")


def describe_status(status) -> str:
    """One-line text for a solve verdict."""
    if isinstance(status, Solved):
        oracle = "" if status.h1_oracle is None else f", oracle {status.h1_oracle}"
        return f"solved; torsor dimension {status.torsor_dim}{oracle}"
    if isinstance(status, ProvenNonzero):
        return f"PROVEN NONZERO on {len(status.class_coordinates)} basis directions"
    return f"unresolved within window {status.window}"


def _lab_failure(lab: str, identity: str) -> int:
    """Report a lab identity that does not hold; the lab exits 1."""
    print(f"{lab}: identity FAILED: {identity}", file=sys.stderr)
    return 1


def _formal_lab() -> int:
    """Randomized identity checks for the formal-disk machinery."""
    from .filtered import bracket
    from .formal import (
        FormalDisk,
        extension_cochain,
        extension_cocycle,
        lie_differential,
        projection_cochain,
        relative_check,
        splitting_defect,
    )
    from .laurent import LaurentPoly
    from .linsolve import PolyMatrix

    rng = random.Random(20240)
    # only the conormal degree is truncated, so every identity is exact
    # whatever the tangential degree of the random data
    disk = FormalDisk(2, 1, 2)
    gamma = disk.trivial_connection()

    def rand_poly(t_min, t_max):
        ring = disk.ring
        if t_min > t_max:
            return ring.zero()
        terms = {}
        for _ in range(2):
            u = [0] * disk.p
            for _ in range(rng.randint(0, 2)):
                u[rng.randrange(disk.p)] += 1
            deg = rng.randint(t_min, t_max)
            t = [0] * disk.q
            for _ in range(deg):
                t[rng.randrange(disk.q)] += 1
            terms[tuple(u) + tuple(t)] = Fraction(rng.randint(-2, 2))
        return LaurentPoly(ring.names, terms)

    def rand_der(l, k):
        ring = disk.ring
        return disk.der_l_element(
            [rand_poly(0, k) for _ in range(disk.p)],
            [rand_poly(1, k + 1) for _ in range(disk.q)],
            PolyMatrix([[rand_poly(0, l) for _ in range(disk.e)] for _ in range(disk.e)]),
            l,
            k,
        )

    l, k = 0, 2
    checks = 0
    for _ in range(5):
        x, y, z = (rand_der(l, k) for _ in range(3))
        j = (
            bracket(x, bracket(y, z))
            + bracket(y, bracket(z, x))
            + bracket(z, bracket(x, y))
        )
        if not j.is_zero():
            return _lab_failure("formal-lab", "Jacobi identity")
        checks += 1
    print(f"jacobi identity: {checks} random triples exact")

    for _ in range(5):
        x, y = rand_der(-1, k), rand_der(-1, k)
        if not splitting_defect(disk, x, y, gamma, -1, k).is_zero():
            return _lab_failure("formal-lab", "flat splitting is bracket-compatible")
    print("flat splitting bracket-compatible: 5 random pairs exact")

    beta = projection_cochain(disk, l, k, gamma)
    dbeta = lie_differential(beta)
    for _ in range(3):
        x, y = rand_der(k, k), rand_der(k, k)
        c = extension_cocycle(disk, l, k, x, y, gamma)
        if c != dbeta.evaluate(x, y).scaled(-1):
            return _lab_failure(
                "formal-lab", "extension cocycle equals minus the projection coboundary"
            )
    print("extension cocycle equals minus the projection coboundary: 3 pairs exact")

    dc = lie_differential(extension_cochain(disk, l, k, gamma))
    for _ in range(2):
        x, y, z = (rand_der(l, k) for _ in range(3))
        if not dc.evaluate(x, y, z).is_zero():
            return _lab_failure("formal-lab", "extension cocycle is closed")
    print("extension cocycle closed: 2 random triples exact")

    ok, witness = relative_check(
        extension_cochain(disk, l, k, gamma), [rand_der(l, k) for _ in range(2)]
    )
    if not ok:
        return _lab_failure(
            "formal-lab", f"extension cocycle is relative to the base subalgebra: {witness}"
        )
    print("extension cocycle relative to the base subalgebra: exact")
    print("formal-lab: all identities hold")
    return 0


def _mc_lab() -> int:
    """Randomized equivalence checks for the lifting formalism."""
    import itertools

    from .mclift import AbelianExtension, GradedDgLie, add, is_mc, is_zero, lift_residual, vec

    rng = random.Random(77)
    checked = 0
    for trial in range(30):
        n1, n2 = 3, 2
        n = n1 + n2
        degrees = tuple([1] * n1 + [2] * n2)
        kernel1 = {n1 - 1}
        kernel2 = {n - 1}
        d = [[Fraction(0)] * n for _ in range(n)]
        for j in range(n1):
            targets = kernel2 if j in kernel1 else range(n1, n)
            for i in targets:
                if rng.random() < 0.5:
                    d[i][j] = Fraction(rng.randint(-2, 2))
        brackets = {}
        for i in range(n1):
            for j in range(i, n1):
                if i in kernel1 and j in kernel1:
                    continue
                targets = kernel2 if (i in kernel1 or j in kernel1) else range(n1, n)
                entry = {
                    t: Fraction(rng.randint(-2, 2))
                    for t in targets
                    if rng.random() < 0.5
                }
                entry = {t: c for t, c in entry.items() if c}
                if entry:
                    brackets[(i, j)] = dict(entry)
                    brackets[(j, i)] = dict(entry)
        amb = GradedDgLie(degrees, tuple(tuple(r) for r in d), brackets)
        ext = AbelianExtension(amb, kernel=tuple(sorted(kernel1 | kernel2)))
        deg1_q = [i for i, dd in enumerate(ext.quotient.degrees) if dd == 1]
        for coeffs in itertools.product([Fraction(0), Fraction(1), Fraction(-1)], repeat=len(deg1_q)):
            phi = vec(ext.quotient.n, dict(zip(deg1_q, coeffs)))
            ok, _ = is_mc(ext.quotient, phi)
            if not ok:
                continue
            for a in [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]:
                alpha = vec(amb.n, {n1 - 1: a})
                resid = lift_residual(ext, phi, alpha)
                direct, _ = is_mc(amb, add(ext.include_quotient(phi), alpha))
                if is_zero(resid) != direct:
                    return _lab_failure(
                        "mc-lab",
                        f"lift residual vanishes iff the direct check holds (trial {trial})",
                    )
                checked += 1
    print(f"mc-lab: lift residual vanishing equals the direct check on {checked} samples")
    return 0


if __name__ == "__main__":
    sys.exit(main())
