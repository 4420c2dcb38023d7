#!/usr/bin/env python3
"""Regenerate data/cob_ref.json: reference roots of

    x * int_0^b (cosh t + x sinh t)^(m-1) dt = int_0^pi sin^(m-1) t dt

on the m x b grids of the float and float-wide workloads, with mpmath at 40 significant digits.
The right side is Wallis's closed form; the left side is integrated with
mpmath's tanh-sinh quadrature and the root found by Anderson's bracketing
method, then stored with 34 significant digits.

    python3 perfbench/regen_cob_ref.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import COB_B, COB_B_WIDE, COB_M  # noqa: E402

TARGET = Path(__file__).resolve().parent / "data" / "cob_ref.json"
DPS = 40
DIGITS = 34


def reference_root(m: int, b) -> mp.mpf:
    b = mp.mpf(b)
    rhs = mp.sqrt(mp.pi) * mp.gamma(mp.mpf(m) / 2) / mp.gamma(mp.mpf(m + 1) / 2)

    def g(x):
        return x * mp.quad(lambda t: (mp.cosh(t) + x * mp.sinh(t)) ** (m - 1), [0, b]) - rhs

    lo, hi = mp.mpf(1), mp.mpf(1)
    while g(lo) > 0:
        lo /= 16
    while g(hi) < 0:
        hi *= 2
    root = mp.findroot(g, (lo, hi), solver="anderson", tol=mp.mpf(10) ** (-2 * DIGITS))
    if not lo <= root <= hi or abs(g(root)) > mp.mpf(10) ** (-DIGITS) * rhs:
        raise RuntimeError(f"reference root for m={m}, b={b} did not converge")
    return root


def main() -> None:
    mp.mp.dps = DPS
    roots = {}
    for m in COB_M:
        for b in sorted(set(COB_B + COB_B_WIDE)):
            # b is the binary64 value c_of_b receives, converted exactly
            roots[f"{m},{b}"] = mp.nstr(reference_root(m, b), DIGITS)
    payload = {"dps": DPS, "digits": DIGITS, "roots": roots}
    TARGET.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(roots)} roots to {TARGET}")


if __name__ == "__main__":
    main()
