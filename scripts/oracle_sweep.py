#!/usr/bin/env python3
"""Compare the genus engine with the product-route test oracle, exactly.

Covers every full-data catalog entry of dimension divisible by 4 for
Ell1, Ell2, Witten and the B and W index families at q-truncations 25, 49
and 101, Ahat, signature and big-L on the same entries, and Todd on every
catalog entry with Chern numbers plus CP16 and CP20: 226 comparisons.
Chern-only copies of K3, CP2, CP4, CP6 and CP8, which the engine reads at
doubled partitions and the oracle converts to Pontryagin numbers through
class polynomials, add Ahat, signature, big-L and the three elliptic
kinds at the same truncations: 60 more.  The Chern and Pontryagin numbers
of `product` on K3xK3, HP2xHP2, CP3xCP3, CP4xCP4, CP6xCP6, T2xS6 and S6xS6,
against the oracle's Kuenneth rule, add 14 more, 300 in all.  The oracle takes
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
from genus_forge.elliptic import elliptic_genus  # noqa: E402
from genus_forge.errors import ELLIPTIC  # noqa: E402
from genus_forge.genera import genus_value  # noqa: E402
from genus_forge.manifolds import ManifoldData, builtin, cp, k3, product  # noqa: E402

TRUNCS = (25, 49, 101)
RATIONAL = ("ahat", "signature", "lhat")
FAMILIES = {"B": "ell2", "W": "witten"}  # family -> the genus of its index series
PRODUCTS = (("K3", "K3"), ("HP2", "HP2"), ("CP3", "CP3"), ("CP4", "CP4"), ("CP6", "CP6"),
            ("T2", "S6"), ("S6", "S6"))


def _chern_only(m: ManifoldData) -> ManifoldData:
    return ManifoldData(name=f"{m.name}[chern]", real_dim=m.real_dim,
                        chern_numbers=m.chern_numbers)


def _kuenneth(a: ManifoldData, b: ManifoldData, kind: str, per_weight: int):
    """The oracle's numbers of one kind for AxB: None when a factor has none,
    and {} when a factor's dimension is not a multiple of 4 (Pontryagin
    numbers, per_weight 4), since then no monomial of AxB pairs nonzero."""
    a_nums, b_nums = getattr(a, kind), getattr(b, kind)
    if a_nums is None or b_nums is None:
        return None
    if a.real_dim % per_weight or b.real_dim % per_weight:
        return {}
    return theta_oracle.kuenneth_numbers(a_nums, b_nums, a.real_dim // per_weight,
                                         b.real_dim // per_weight)


def main() -> int:
    entries = load_default_catalog().values()
    full = [e for e in entries if e.real_dim % 4 == 0
            and (e.pontryagin_numbers is not None or e.chern_numbers is not None)]
    chern = [e for e in entries if e.chern_numbers is not None] + [cp(16), cp(20)]
    chern_only = [_chern_only(m) for m in (k3(), cp(2), cp(4), cp(6), cp(8))]
    checks = []
    for e, families in [(e, FAMILIES) for e in full] + [(e, {}) for e in chern_only]:
        for kind in RATIONAL:
            checks.append((e, kind, lambda e=e, k=kind: (
                genus_value(e, k), theta_oracle.genus_value(e, k))))
        for trunc in TRUNCS:
            for kind in ELLIPTIC:
                checks.append((e, f"{kind}@{trunc}", lambda e=e, k=kind, t=trunc: (
                    elliptic_genus(e, k, t).series, theta_oracle.elliptic_genus(e, k, t))))
            for family, kind in families.items():
                checks.append((e, f"{family}@{trunc}", lambda e=e, f=family, k=kind, t=trunc: (
                    elliptic_genus(e, k, t).series,
                    theta_oracle.twisted_index_series(e, f, t))))
    for e in chern:
        checks.append((e, "todd", lambda e=e: (
            genus_value(e, "todd"), theta_oracle.genus_value(e, "todd"))))
    for a, b in (map(builtin, names) for names in PRODUCTS):
        ab = product(a, b)
        for kind, per_weight in (("chern_numbers", 2), ("pontryagin_numbers", 4)):
            checks.append((ab, kind, lambda a=a, b=b, ab=ab, k=kind, w=per_weight: (
                getattr(ab, k), _kuenneth(a, b, k, w))))

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
