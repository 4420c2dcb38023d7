"""Seeded job plans for the benchmark workloads.

A plan is plain data: the manifolds a workload needs (as recipes), the
ordered job list, and worker_s, the seconds one worker (set-up, one pass
of the job list and its checks) took on the 2-CPU host the benchmark was
built on.  A run holds seconds // worker_s passes, a count that does not
depend on how fast the host happens to be during the run.  Building a plan imports nothing from genus_forge, so
the same seed always yields the same plan and the program under test only
ever receives the generated inputs.

Recipes:
    ("name", X)           resolve(X): a catalog entry or builtin
    ("rand", dim, nums)   random Pontryagin numbers, marked non-spin
    ("product", A, B)     product of two named manifolds of the plan
    ("sum", A, B)         connected sum of two named manifolds of the plan

Job specs are tuples whose first item is the operation:
    ("genus", M, kind)              genus_value
    ("elliptic", M, kind, q_trunc)  elliptic_genus
    ("indices", M, family, k_max)   twisted_indices
    ("fit", M, q_trunc)             witten_fit
    ("mrc", M, tau_im, q_trunc)     modular_relation_check
    ("cob", m, b, method)           c_of_b
    ("ibr", m, p, Lambda, diam, b)  index_bound_report
    ("cover", k, moduli, factor)    cover_diameter
    ("tower", k, depth)             tower
    ("l2", k, p, depth)             l2_betti_ratio
    ("cli", argv...)                one cold genus-forge process
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep", "deep", "cli", "float", "float-wide")

# the 18 entries of the packaged catalog, in file order
CATALOG_NAMES = (
    "T2", "T4", "S4", "S6", "K3", "HP2", "CP2", "CP3", "CP4", "B8", "W24",
    "T2xS6", "T2xS6_sharp_B8", "T2xS6_sharp_HP2", "K3xK3", "T4xK3",
    "K3xHP2", "HP2xHP2",
)
BUILTIN_NAMES = ("CP1", "CP5", "S2", "S8", "T6")

GENERA = ("todd", "ahat", "lhat", "signature")
ELLIPTIC = ("ell1", "ell2", "witten")
SWEEP_TRUNC = 49  # q^24
SWEEP_K_MAX = 8

# Factor pools for seeded products and connected sums, by real dimension.
# Members of a pool carry the same kinds of data, so every seed gives the
# same refusals and the same mix of cheap and costly jobs: product factors
# carry Chern and Pontryagin numbers (Todd is computed), summands carry
# Pontryagin numbers (sums keep only those, so Todd is refused).
_CHERN_POOL = {4: ("T4", "K3", "CP2"), 8: ("CP4", "K3xK3", "T4xK3")}
_PONT_POOL = {8: ("HP2", "CP4", "K3xK3", "T2xS6_sharp_HP2", "R8")}


def partitions_of(n: int):
    """Partitions of n as descending tuples, largest first."""
    if n == 0:
        return [()]
    out = []

    def gen(remaining, largest, prefix):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(largest, remaining), 0, -1):
            gen(remaining - part, part, prefix + (part,))

    gen(n, n, ())
    return out


def _random_numbers(rng: random.Random, weight: int, spread: int):
    nums = []
    for lam in partitions_of(weight):
        value = rng.randint(-spread, spread)
        if value:
            nums.append((lam, value))
    if not nums:  # keep at least one nonzero number
        nums.append(((weight,), 1))
    return tuple(nums)


def sweep_plan(seed: int) -> dict:
    rng = random.Random(f"sweep:{seed}")
    manifolds = {name: ("name", name) for name in CATALOG_NAMES + BUILTIN_NAMES}
    for dim in (4, 8):
        manifolds[f"R{dim}"] = ("rand", dim, _random_numbers(rng, dim // 4, 40))
    # fixed shapes (dimensions), seed-drawn factors: the work per pass stays
    # comparable across seeds while the inputs differ
    for name, (da, db) in (("P8", (4, 4)), ("P12", (4, 8))):
        a, b = rng.choice(_CHERN_POOL[da]), rng.choice(_CHERN_POOL[db])
        manifolds[name] = ("product", a, b)
    manifolds["C8"] = ("sum", rng.choice(_PONT_POOL[8]), rng.choice(_PONT_POOL[8]))
    # Chern data only: Pontryagin numbers are converted on every use
    manifolds["Q8"] = ("product",) + tuple(rng.sample(("CP1", "CP3"), 2))
    seeded = [name for name, recipe in manifolds.items() if recipe[0] != "name"]

    jobs = []
    for name in manifolds:
        for kind in GENERA:
            jobs.append(("genus", name, kind))
        for kind in ELLIPTIC:
            jobs.append(("elliptic", name, kind, SWEEP_TRUNC))
        for family in ("B", "W"):
            jobs.append(("indices", name, family, SWEEP_K_MAX))
        if real_dim(manifolds, name) % 4 == 0 and real_dim(manifolds, name) >= 8:
            jobs.append(("fit", name, SWEEP_TRUNC))
    return {"workload": "sweep", "seed": seed, "manifolds": manifolds, "seeded": seeded,
            "prebuild": False, "worker_s": 5.0, "jobs": jobs}


def deep_plan(seed: int) -> dict:
    rng = random.Random(f"deep:{seed}")
    manifolds = {
        "HP2": ("name", "HP2"),
        "K3": ("name", "K3"),
        "HP2xHP2": ("name", "HP2xHP2"),
        "HP2^3": ("product", "HP2xHP2", "HP2"),
        "K3xHP2^2": ("product", "K3", "HP2xHP2"),
        "R24": ("rand", 24, _random_numbers(rng, 6, 12)),
        "CP16": ("name", "CP16"),
        "CP20": ("name", "CP20"),
    }
    # Each (genus kind, weight, order) appears once, and every pass runs in a
    # fresh worker, so a cache has nothing to reuse.  One pass takes about
    # 15 s.
    jobs = [
        ("elliptic", "HP2^3", "witten", 49),
        ("elliptic", "R24", "witten", 101),
        ("elliptic", "R24", "ell1", 49),
        ("elliptic", "HP2^3", "ell1", 101),
        ("elliptic", "R24", "ell2", 49),
        ("elliptic", "HP2^3", "ell2", 101),
        ("fit", "K3xHP2^2", 101),
        ("indices", "HP2^3", "B", 16),
        ("indices", "R24", "W", 16),
        ("mrc", "HP2^3", 1.5, 48),
        ("genus", "CP16", "todd"),
        ("genus", "CP20", "todd"),
        ("genus", "R24", "ahat"),
        ("genus", "R24", "signature"),
    ]
    return {"workload": "deep", "seed": seed, "manifolds": manifolds, "seeded": ["R24"],
            "prebuild": True, "worker_s": 18.0, "jobs": jobs}


CLI_FIXED = (
    ("catalog", "list"),
    ("catalog", "show", "K3"),
    ("compute", "--manifold", "CP3", "--genus", "todd"),
    ("elliptic", "--manifold", "K3", "--kind", "witten", "--order", "4"),
    ("indices", "--manifold", "K3", "--family", "B", "--max", "3"),
    ("modular", "fit", "--manifold", "K3xK3", "--order", "24"),
    ("modular", "check", "--manifold", "HP2", "--tau-im", "2.0"),
    ("bound", "cb", "--m", "2", "--b", "1.0"),
    ("bound", "index", "--m", "4", "--p", "5", "--lambda", "1", "--diam", "1", "--b", "1"),
    ("cover", "diam", "--k", "2", "--base", "3,3", "--factor", "2"),
    ("cover", "tower", "--k", "3", "--depth", "3"),
    ("cover", "l2", "--k", "2", "--p", "1", "--depth", "3"),
    # error paths: usage (1), data (2), numerical (3)
    ("compute", "--manifold", "K3"),
    ("compute", "--manifold", "NOPE", "--genus", "todd"),
    ("modular", "check", "--manifold", "HP2", "--tau-im", "0.5"),
)
# every (catalog entry, genus) pair has a stored expected output
CLI_COMPUTE_POOL = tuple(
    ("compute", "--manifold", name, "--genus", kind)
    for name in CATALOG_NAMES for kind in GENERA
)
CLI_RANDOM = 3
CLI_WARMUP = ("catalog", "list")


def cli_plan(seed: int) -> dict:
    rng = random.Random(f"cli:{seed}")
    commands = list(CLI_FIXED) + rng.sample(CLI_COMPUTE_POOL, CLI_RANDOM)
    rng.shuffle(commands)
    return {"workload": "cli", "seed": seed, "manifolds": {}, "seeded": [], "prebuild": False,
            "worker_s": 18.0, "jobs": [("cli",) + tuple(argv) for argv in commands]}


COB_M = tuple(range(2, 13))
# b = 0.05, 0.10, .., 1.00, regular.  c_of_b promises 1e-10 relative accuracy;
# on this grid its worst error is about 8e-12, so float fails no job.
COB_B = tuple(round(0.05 * j, 2) for j in range(1, 21))
# b = 0.05, 0.60, .., 5.00, regular: the float-wide workload.  Where the root
# is small (large m and b) c_of_b misses its 1e-10 accuracy, by up to 12% at
# (8, 5.0); float-wide fails 75 of these 220 jobs until that is fixed.
COB_B_WIDE = tuple(round(0.05 + 0.55 * j, 2) for j in range(10))
IBR_GRID = [
    (m, m / 2 + dp, lam, diam, b)
    for m in (2, 3, 4, 6, 8)
    for dp in (0.5, 2.0)
    for lam in (0.0, 1.0)
    for diam in (1.0, 3.0)
    for b in (0.5, 1.0, 2.0)
]
# cover vertex counts: two sizes for every rank, and one graph near 2e5
# vertices (rank 3), which alone costs about 0.3 s of BFS
BFS_TARGETS = {1: (1_000, 30_000), 2: (1_000, 30_000), 3: (1_000, 30_000, 200_000),
               4: (1_000, 30_000)}
BFS_FACTOR = 2


def _moduli_near(rng: random.Random, k: int, base_target: int):
    """k base moduli whose product is close to base_target; the seed picks
    the shape, the last modulus absorbs the rest."""
    root = base_target ** (1.0 / k)
    moduli = [max(2, round(root) + rng.randint(-1, 1)) for _ in range(k - 1)]
    rest = base_target
    for n in moduli:
        rest /= n
    moduli.append(max(2, round(rest)))
    rng.shuffle(moduli)
    return tuple(moduli)


def float_plan(seed: int, cob_b=COB_B, workload="float") -> dict:
    rng = random.Random(f"float:{seed}")
    jobs = [("cob", m, b, method)
            for m in COB_M for b in cob_b for method in ("bisection", "secant")]
    jobs += [("ibr",) + params for params in IBR_GRID]
    for k, targets in BFS_TARGETS.items():
        for target in targets:
            base_target = max(2 ** k, target // BFS_FACTOR ** k)
            jobs.append(("cover", k, _moduli_near(rng, k, base_target), BFS_FACTOR))
    jobs += [("tower", k, depth) for k in range(1, 5) for depth in (4, 8)]
    jobs += [("l2", k, p, 6) for k in range(1, 5) for p in range(k + 1)]
    return {"workload": workload, "seed": seed, "manifolds": {}, "seeded": [], "prebuild": False,
            "worker_s": 2.1, "jobs": jobs}


def float_wide_plan(seed: int) -> dict:
    return float_plan(seed, COB_B_WIDE, "float-wide")


_PLANS = {"sweep": sweep_plan, "deep": deep_plan, "cli": cli_plan, "float": float_plan,
          "float-wide": float_wide_plan}


def build_plan(workload: str, seed: int) -> dict:
    if workload not in _PLANS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _PLANS[workload](seed)


# -- facts about recipes that the checker may use without running the program --

_DIM_FROM_NAME = {"CP": 2, "S": 1, "T": 1}


def real_dim(manifolds: dict, name: str) -> int:
    recipe = manifolds[name]
    if recipe[0] == "rand":
        return recipe[1]
    if recipe[0] == "product":
        return real_dim(manifolds, recipe[1]) + real_dim(manifolds, recipe[2])
    if recipe[0] == "sum":
        return real_dim(manifolds, recipe[1])
    return name_dim(recipe[1])


_CATALOG_DIMS = {
    "T2": 2, "T4": 4, "S4": 4, "S6": 6, "K3": 4, "HP2": 8, "CP2": 4, "CP3": 6,
    "CP4": 8, "B8": 8, "W24": 24, "T2xS6": 8, "T2xS6_sharp_B8": 8,
    "T2xS6_sharp_HP2": 8, "K3xK3": 8, "T4xK3": 8, "K3xHP2": 12, "HP2xHP2": 16,
}


def name_dim(name: str) -> int:
    if name in _CATALOG_DIMS:
        return _CATALOG_DIMS[name]
    for prefix, scale in _DIM_FROM_NAME.items():
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            return scale * int(name[len(prefix):])
    raise KeyError(name)
