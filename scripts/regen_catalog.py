#!/usr/bin/env python3
"""Build the shipped default catalog from builtins and closure operations
and write it to `src/genus_forge/data/default_catalog.json`.

`connected_sum` adds Pontryagin numbers, so it cannot form T2xS6 # B8,
whose summand B8 carries only an asserted Ahat.  That entry is written
here with the one genus the sum determines: Ahat(T2xS6) + Ahat(B8).

Run from the repository root after changing build_default_catalog(); the
serializer is canonical, so an unchanged builder reproduces the file byte
for byte:

    PYTHONPATH=src python3 scripts/regen_catalog.py

`tests/test_catalog.py` imports build_default_catalog() from here and
checks that the packaged file matches it.
"""

from fractions import Fraction
from pathlib import Path

from genus_forge.catalog import dumps_catalog
from genus_forge.genera import genus_value
from genus_forge.manifolds import ManifoldData, connected_sum, cp, hp2, k3, product, sphere, torus

TARGET = Path(__file__).resolve().parent.parent / "src" / "genus_forge" / "data" / "default_catalog.json"


def build_default_catalog() -> list[ManifoldData]:
    """The shipped catalog's entries, in file order, constructed from builtins
    and closure operations."""
    t2, t4 = torus(2), torus(4)
    s4, s6 = sphere(4), sphere(6)
    k3_, hp2_ = k3(), hp2()
    b8 = ManifoldData(
        name="B8", real_dim=8, spin=True, asserted_genera={"ahat": Fraction(1)}
    )
    w24 = ManifoldData(
        name="W24", real_dim=24, spin=True, string=True,
        asserted_genera={"ahat": Fraction(0)},
    )
    t2xs6 = product(t2, s6)
    return [
        t2,
        t4,
        s4,
        s6,
        k3_,
        hp2_,
        cp(2),
        cp(3),
        cp(4),
        b8,
        w24,
        t2xs6,
        ManifoldData(
            name="T2xS6_sharp_B8", real_dim=8, spin=True,
            asserted_genera={"ahat": genus_value(t2xs6, "ahat") + b8.asserted_genera["ahat"]},
        ),
        connected_sum(t2xs6, hp2_, name="T2xS6_sharp_HP2"),
        product(k3_, k3_, name="K3xK3"),
        product(t4, k3_, name="T4xK3"),
        product(k3_, hp2_, name="K3xHP2"),
        product(hp2_, hp2_, name="HP2xHP2"),
    ]


def main() -> None:
    text = dumps_catalog(build_default_catalog())
    TARGET.write_text(text, encoding="utf-8")
    print(f"wrote {TARGET} ({len(text)} bytes)")


if __name__ == "__main__":
    main()
