#!/usr/bin/env python3
"""Compare the genus engine with the product-route test oracle, exactly.

Covers every full-data catalog entry of dimension divisible by 4 for
Ell1, Ell2, Witten and the B and W index families at q-truncations 25, 49
and 101, Ahat, signature and big-L on the same entries, and Todd on every
catalog entry with Chern numbers plus CP16 and CP20: 226 comparisons.
The oracle takes most of the sweep's 40 s (one 2-core x86 host,
Python 3.11), which is why this is a script and not part of the test
suite.  Run from the repository root:

    PYTHONPATH=src python scripts/oracle_sweep.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import theta_oracle  # noqa: E402
from genus_forge.catalog import load_default_catalog  # noqa: E402
from genus_forge.elliptic import EllKind, elliptic_genus, twisted_index_series  # noqa: E402
from genus_forge.genera import genus_value  # noqa: E402
from genus_forge.manifolds import GenusKind, cp  # noqa: E402

TRUNCS = (25, 49, 101)


def main() -> int:
    entries = load_default_catalog().entries
    full = [e for e in entries if e.real_dim % 4 == 0
            and (e.pontryagin_numbers is not None or e.chern_numbers is not None)]
    chern = [e for e in entries if e.chern_numbers is not None] + [cp(16), cp(20)]
    checks = []
    for e in full:
        for kind in (GenusKind.AHAT, GenusKind.SIGNATURE, GenusKind.LHAT):
            checks.append((e, kind.value, lambda e=e, k=kind: (
                genus_value(e, k), theta_oracle.genus_value(e, k))))
        for trunc in TRUNCS:
            for kind in EllKind:
                checks.append((e, f"{kind.value}@{trunc}", lambda e=e, k=kind, t=trunc: (
                    elliptic_genus(e, k, t).series, theta_oracle.elliptic_genus(e, k, t))))
            for family in ("B", "W"):
                checks.append((e, f"{family}@{trunc}", lambda e=e, f=family, t=trunc: (
                    twisted_index_series(e, f, t).series,
                    theta_oracle.twisted_index_series(e, f, t))))
    for e in chern:
        checks.append((e, "todd", lambda e=e: (
            genus_value(e, GenusKind.TODD), theta_oracle.genus_value(e, GenusKind.TODD))))

    failures = 0
    t0 = time.perf_counter()
    for entry, what, run in checks:
        engine, oracle = run()
        if engine != oracle:
            failures += 1
            print(f"MISMATCH {entry.name} {what}", flush=True)
    print(f"{len(checks) - failures} of {len(checks)} comparisons equal "
          f"({time.perf_counter() - t0:.0f} s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
