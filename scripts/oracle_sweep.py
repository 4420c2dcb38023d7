#!/usr/bin/env python3
"""Compare the genus engine with the product-route test oracle, exactly.

Covers every full-data catalog entry of dimension divisible by 4 for
Ell1, Ell2, Witten and the B and W index families at q-truncations 25, 49
and 101, Ahat, signature and big-L on the same entries, and Todd on every
catalog entry with Chern numbers plus CP16 and CP20: 226 comparisons.
Chern-only copies of K3, CP2, CP4, CP6 and CP8, which the engine reads at
doubled partitions and the oracle converts to Pontryagin numbers through
class polynomials, add Ahat, signature, big-L and the three elliptic
kinds at the same truncations: 60 more, 286 in all.  The oracle takes
most of the sweep's time (about 40 s on one 2-core x86 host, Python
3.11), which is why this is a script and not part of the test suite.
Run from the repository root:

    PYTHONPATH=src python scripts/oracle_sweep.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import theta_oracle  # noqa: E402
from genus_forge.catalog import load_default_catalog  # noqa: E402
from genus_forge.elliptic import EllKind, elliptic_genus  # noqa: E402
from genus_forge.genera import genus_value  # noqa: E402
from genus_forge.manifolds import GenusKind, ManifoldData, cp, k3  # noqa: E402

TRUNCS = (25, 49, 101)
RATIONAL = (GenusKind.AHAT, GenusKind.SIGNATURE, GenusKind.LHAT)
FAMILIES = {"B": EllKind.ELL2, "W": EllKind.WITTEN}  # family -> the genus of its index series


def _chern_only(m: ManifoldData) -> ManifoldData:
    return ManifoldData(name=f"{m.name}[chern]", real_dim=m.real_dim,
                        chern_numbers=m.chern_numbers)


def main() -> int:
    entries = load_default_catalog().values()
    full = [e for e in entries if e.real_dim % 4 == 0
            and (e.pontryagin_numbers is not None or e.chern_numbers is not None)]
    chern = [e for e in entries if e.chern_numbers is not None] + [cp(16), cp(20)]
    chern_only = [_chern_only(m) for m in (k3(), cp(2), cp(4), cp(6), cp(8))]
    checks = []
    for e, families in [(e, FAMILIES) for e in full] + [(e, {}) for e in chern_only]:
        for kind in RATIONAL:
            checks.append((e, kind.value, lambda e=e, k=kind: (
                genus_value(e, k), theta_oracle.genus_value(e, k))))
        for trunc in TRUNCS:
            for kind in EllKind:
                checks.append((e, f"{kind.value}@{trunc}", lambda e=e, k=kind, t=trunc: (
                    elliptic_genus(e, k, t).series, theta_oracle.elliptic_genus(e, k, t))))
            for family, kind in families.items():
                checks.append((e, f"{family}@{trunc}", lambda e=e, f=family, k=kind, t=trunc: (
                    elliptic_genus(e, k, t).series,
                    theta_oracle.twisted_index_series(e, f, t))))
    for e in chern:
        checks.append((e, "todd", lambda e=e: (
            genus_value(e, GenusKind.TODD), theta_oracle.genus_value(e, GenusKind.TODD))))

    failures = 0
    t0 = time.perf_counter()
    for entry, what, run in checks:
        engine, oracle = run()
        if not theta_oracle.agrees(engine, oracle):
            failures += 1
            print(f"MISMATCH {entry.name} {what}", flush=True)
    print(f"{len(checks) - failures} of {len(checks)} comparisons equal "
          f"({time.perf_counter() - t0:.0f} s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
