#!/usr/bin/env python3
"""Emit plot-ready CSV data for the cascade and its antiderivatives.

Writes four files next to this script (or to --outdir):

    f_samples.csv   certified samples of the full series f
    g_samples.csv   certified samples of the signed variant g
    F_samples.csv   certified samples of the running integral F
    G_samples.csv   certified samples of the signed antiderivative G

Columns are exact rational strings, so any plotting tool that can evaluate
fractions (or a two-line converter) reproduces the figures without float
noise.  The sampling grid is dyadic, so most f samples are exact: dyadic
points fall onto an absorbing orbit after finitely many steps.
"""

from __future__ import annotations

import argparse
import pathlib

from sawcascade.cli import emit_samples
from sawcascade.construction import Rat, as_rational


def write(outdir: pathlib.Path, name: str, fn: str, count: int, K: int,
          a: Rat, b: Rat) -> None:
    path = outdir / name
    path.write_text("".join(emit_samples(fn, a, b, count, 1, K, "csv")), encoding="utf-8")
    print(f"wrote {path} ({count} rows, truncation depth {K})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default=str(pathlib.Path(__file__).parent))
    parser.add_argument("--count", type=int, default=513)
    parser.add_argument("--K", type=int, default=30)
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    lo, hi = as_rational(-1), as_rational(1)
    write(outdir, "f_samples.csv", "f", args.count, args.K, lo, hi)
    write(outdir, "g_samples.csv", "g", args.count, args.K, lo, hi)
    write(outdir, "F_samples.csv", "F", args.count, args.K, lo, hi)
    write(outdir, "G_samples.csv", "G", args.count, args.K, lo, hi)


if __name__ == "__main__":
    main()
