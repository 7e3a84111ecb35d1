#!/usr/bin/env python3
"""Stationary-density refinement study: error and residual under grid halving.

Solves the stationary problem for a chosen family on a nested sequence of
grids and reports the max change between consecutive levels on the common
coarse nodes, the weak-form audit residuals, and (for the mean-reverting
family) the max relative error against the Gaussian closed form on the
inner half of the box.
"""

import argparse
import time

import numpy as np

from sdelab import (
    BoxGrid,
    builtin_family,
    solve_density,
    verify_divergence_free,
    verify_preinvariance,
)


def closed_form(name, pts):
    if name == "ornstein_uhlenbeck":
        return np.exp(-np.sum(pts * pts, axis=-1))
    if name == "brownian":
        return np.ones(pts.shape[:-1])
    return None


def run(args):
    c = builtin_family(args.family, 2, **dict(args.param or []))
    bounds = ((-args.half_width, args.half_width),) * 2
    prev = None
    print(f"family = {args.family}, box half-width = {args.half_width}")
    header = f"{'n':>6} {'solve s':>8} {'residual':>10} {'worst audit':>12} {'level gap':>10} {'oracle rel':>11}"
    print(header)
    n = args.n0
    for _ in range(args.levels):
        t0 = time.monotonic()
        dens = solve_density(c, bounds, n)
        elapsed = time.monotonic() - t0
        rep = verify_preinvariance(dens)
        worst = max(cl.value for cl in rep.clauses)
        gap = float("nan")
        if prev is not None:
            coarse = dens.rho.values[(slice(None, None, 2),) * 2]
            gap = np.max(np.abs(coarse - prev))
        pts = dens.grid.points()
        exact = closed_form(args.family, pts)
        rel = float("nan")
        if exact is not None:
            inner = np.all(np.abs(pts) <= 0.5 * args.half_width, axis=-1)
            rel = np.max(np.abs(dens.rho.values - exact)[inner] /
                         np.maximum(exact[inner], 1e-300))
        residual = verify_divergence_free(dens).meta["residual_norm"]
        print(f"{n:>6} {elapsed:>8.2f} {residual:>10.2e} "
              f"{worst:>12.2e} {gap:>10.2e} {rel:>11.2e}")
        prev = dens.rho.values
        n = 2 * n - 1
    grid = BoxGrid(bounds, args.n0)
    print(f"(grids are nested: {args.n0} -> ... spacing halves per level; "
          f"coarsest spacing {grid.spacing[0]:.3g})")


def parse_param(text):
    key, _, value = text.partition("=")
    try:
        return key, float(value)
    except ValueError:
        return key, value


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--family", default="ornstein_uhlenbeck")
    p.add_argument("--param", type=parse_param, action="append",
                   metavar="KEY=VALUE", help="family parameter (repeatable)")
    p.add_argument("--half-width", type=float, default=4.0)
    p.add_argument("--n0", type=int, default=33)
    p.add_argument("--levels", type=int, default=3)
    run(p.parse_args())


if __name__ == "__main__":
    main()
