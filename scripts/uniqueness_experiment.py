#!/usr/bin/env python3
"""Equal-law probe across null-set representatives of the degenerate family.

The radially degenerate weight vanishes only at the origin; changing its
value there (the gamma representatives) changes the coefficient on a
Lebesgue-null set.  When the paths spend zero time on that set, all
representatives must generate the same path law: the probe simulates an
ensemble per representative from a common start and compares fixed-time
marginals with distribution-free two-sample tests.  An added drift serves as
the negative control and must be rejected.

Exits 0 when the probe passes and, under ``--control``, the control is
rejected; 1 otherwise.
"""

import argparse
import time

from sdelab import LawVariant, SimConfig, builtin_family, uniqueness_probe


def run(args):
    rad = lambda g: builtin_family(
        "radial_degenerate", 2, alpha=args.alpha, gamma=g
    )
    cfg = SimConfig(
        dt=args.dt, t_final=max(args.t_checks), n_paths=args.paths,
        master_seed=args.seed,
    )
    variants = [LawVariant(f"gamma={g:g}", c=rad(g)) for g in args.gammas]
    t0 = time.monotonic()
    rep = uniqueness_probe(
        rad(args.gammas[0]), variants, (0.0, 0.0), args.t_checks, cfg,
        level=args.level,
    )
    print(rep.summary())
    print(f"({time.monotonic() - t0:.1f}s, {len(rep.meta['comparisons'])} "
          f"comparisons, level {args.level} Bonferroni-corrected)")

    ok = rep.passed
    if args.control:
        drifted = builtin_family(
            "radial_degenerate", 2, alpha=args.alpha, gamma=args.gammas[0],
            drift=(0.5, 0.0),
        )
        cfg_n = SimConfig(
            dt=args.dt, t_final=min(args.t_checks), n_paths=args.paths,
            master_seed=args.seed + 1,
        )
        rep_n = uniqueness_probe(
            rad(args.gammas[0]),
            [LawVariant("plain"), LawVariant("drifted", c=drifted)],
            (0.0, 0.0), [min(args.t_checks)], cfg_n, level=args.level,
        )
        verdict = "rejected as expected" if not rep_n.passed else "NOT rejected"
        print(f"\nnegative control (added drift): {verdict}")
        print(rep_n.summary())
        ok &= not rep_n.passed

    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--alpha", type=float, default=0.25)
    p.add_argument("--gammas", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    p.add_argument("--t-checks", type=float, nargs="+", default=[0.5, 1.0])
    p.add_argument("--paths", type=int, default=10_000)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--level", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--control", action="store_true",
                   help="also run the added-drift negative control; exit 1 "
                        "unless it is rejected")
    raise SystemExit(run(p.parse_args()))


if __name__ == "__main__":
    main()
