"""Output checks, run untimed after the timed phase.

The checks do not call the code under test.  They use:
- the documented refusal rules (which GenusForgeError subclass an input
  must raise);
- exact known values (README examples, Todd(CPn) = 1, Ahat(K3) = 2, ...);
- digests of the exact outputs of the seed implementation for every job
  whose inputs do not depend on the seed (data/expected.json);
- relations between outputs of the same pass: multiplicativity under
  product, additivity under connected sum, q^0 terms against the
  rational genera, spin integrality, Eisenstein fits rebuilt here;
- closed forms for the covering lab and >= 30-digit references for
  c_of_b (data/cob_ref.json), at the documented 1e-10 relative accuracy.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

from workloads import name_dim

DATA = Path(__file__).resolve().parent / "data"
COB_REL_TOL = 1e-10
IBR_REL_TOL = 1e-9


def load_expected() -> dict:
    return json.loads((DATA / "expected.json").read_text())


def load_cob_ref() -> dict:
    return {key: Fraction(text) for key, text in
            json.loads((DATA / "cob_ref.json").read_text())["roots"].items()}


# -- canonical forms ---------------------------------------------------------------


def canonical(value) -> str:
    """Exact, implementation-independent text of an output."""
    if isinstance(value, bool) or value is None:
        return repr(value)
    if isinstance(value, (int, Fraction)):
        value = Fraction(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{canonical(k)}:{canonical(v)}" for k, v in sorted(value.items())) + "}"
    if hasattr(value, "terms") and hasattr(value, "trunc"):  # QSeries
        return f"S{value.trunc}<" + ",".join(f"{n}:{canonical(c)}" for n, c in value.terms()) + ">"
    if hasattr(value, "series"):
        return f"G({value.manifold},{value.kind},{value.q_trunc},{canonical(value.series)})"
    if hasattr(value, "residual_ok"):
        return (f"F({value.manifold},{value.weight},{canonical(value.coefficients)},"
                f"{value.residual_ok},{value.checked_order},{canonical(value.first_mismatch)})")
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(outcome) -> str:
    status, value = outcome
    text = f"raised:{type(value).__name__}" if status == "raised" else canonical(value)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def cli_digest(outcome) -> str:
    code, stdout = outcome[1]
    return f"{code}:{hashlib.sha256(stdout).hexdigest()[:24]}"


# -- facts about the inputs, from recipes and input data only -------------------------


class Facts:
    """Dimension, data kinds and spin flag of each manifold of a plan.

    Leaves resolved from the catalog report what their stored data holds;
    products and sums follow the documented rules."""

    def __init__(self, plan: dict, leaves: dict):
        self.plan, self.leaves, self._memo = plan, leaves, {}

    def __call__(self, name: str) -> dict:
        if name not in self._memo:
            self._memo[name] = self._facts(name)
        return self._memo[name]

    def _facts(self, name):
        recipe = self.plan["manifolds"][name]
        if recipe[0] == "rand":
            return {"dim": recipe[1], "chern": False, "pont": True, "asserted": (), "spin": False}
        if recipe[0] == "name":
            m = self.leaves[recipe[1]]
            return {"dim": name_dim(recipe[1]), "chern": m.chern_numbers is not None,
                    "pont": m.pontryagin_numbers is not None,
                    "asserted": tuple(m.asserted_genera or ()), "spin": m.spin}
        a, b = self(recipe[1]), self(recipe[2])
        if recipe[0] == "product":
            return {"dim": a["dim"] + b["dim"], "chern": a["chern"] and b["chern"],
                    "pont": a["pont"] and b["pont"], "asserted": (),
                    "spin": a["spin"] and b["spin"]}
        # connected sums in the plans join Pontryagin data only
        return {"dim": a["dim"], "chern": False, "pont": True, "asserted": (),
                "spin": a["spin"] and b["spin"]}


def expected_refusal(job, facts) -> str | None:
    """Name of the GenusForgeError subclass the job must raise, or None."""
    op = job[0]
    if op not in ("genus", "elliptic", "indices", "fit"):
        return None
    f = facts(job[1])
    full = f["chern"] or f["pont"]
    if op == "genus" and job[2] == "todd":
        return None if f["chern"] or "todd" in f["asserted"] else "InsufficientData"
    if f["dim"] % 4:
        return "DimensionError"
    if op == "genus":
        return None if full or job[2] in f["asserted"] else "InsufficientData"
    return None if full else "InsufficientData"


# -- exact series helpers (plain dicts, independent of QSeries) ---------------------


def _coeffs(series) -> dict:
    return {n: Fraction(c) for n, c in series.terms() if c}


def _mul(a: dict, b: dict, trunc: int) -> dict:
    out: dict = {}
    for n, x in a.items():
        for m, y in b.items():
            if n + m < trunc:
                out[n + m] = out.get(n + m, 0) + x * y
    return {n: c for n, c in out.items() if c}


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for n, c in b.items():
        out[n] = out.get(n, 0) + c
    return {n: c for n, c in out.items() if c}


def _sigma(n: int, k: int) -> int:
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def eisenstein(scale: int, power: int, trunc: int) -> dict:
    """1 + scale * sum sigma_power(n) q^n on the half-exponent grid."""
    out = {0: Fraction(1)}
    for n in range(1, (trunc - 1) // 2 + 1):
        out[2 * n] = Fraction(scale * _sigma(n, power))
    return out


def _e_monomial(i: int, j: int, trunc: int) -> dict:
    out = {0: Fraction(1)}
    for _ in range(i):
        out = _mul(out, eisenstein(240, 3, trunc), trunc)
    for _ in range(j):
        out = _mul(out, eisenstein(-504, 5, trunc), trunc)
    return out


def _close(x: float, ref, tol: float) -> bool:
    ref = float(ref)
    return math.isfinite(x) and abs(x - ref) <= tol * abs(ref)


# -- the checker ----------------------------------------------------------------------

KNOWN = {
    ("genus", "K3", "ahat"): Fraction(2),
    ("genus", "K3", "signature"): Fraction(-16),
    ("genus", "HP2", "signature"): Fraction(1),
    ("genus", "HP2", "ahat"): Fraction(0),
    ("genus", "CP2", "signature"): Fraction(1),
}


def _known(job, value) -> str | None:
    if job[0] == "genus" and job[2] == "todd" and job[1].startswith("CP") and job[1][2:].isdigit():
        return None if value == 1 else f"Todd({job[1]}) = {value}, expected 1"
    if job[:3] in KNOWN and value != KNOWN[job[:3]]:
        return f"{job[2]}({job[1]}) = {value}, expected {KNOWN[job[:3]]}"
    if job[:3] == ("elliptic", "K3", "witten") and value.series.coeff(2) != -48:
        return "Witten(K3) q^1 coefficient is not -48"
    if job[:3] == ("indices", "K3", "B") and list(value[:4]) != [2, 48, 48, 192]:
        return f"B-indices of K3 start {value[:4]}, expected [2, 48, 48, 192]"
    return None


def job_key(plan: dict, job) -> str:
    """Seed-independent key of a job with an exact, stored output; None for
    float jobs and jobs on seed-drawn manifolds."""
    if job[0] == "cli":
        return "|".join(job)
    if job[0] not in ("genus", "elliptic", "indices", "fit") or job[1] in plan["seeded"]:
        return None
    recipe = plan["manifolds"][job[1]]
    head = recipe[1] if recipe[0] == "name" else f"{job[1]}={recipe}"
    return "|".join([job[0], head] + [str(x) for x in job[2:]])


class Checker:
    """Check every job of one pass; `check_pass` returns failure messages
    indexed by job position (None for a pass)."""

    def __init__(self, plan: dict, facts: Facts | None, errors, expected: dict,
                 cob_ref: dict | None = None):
        self.plan, self.facts, self.errors = plan, facts, errors
        self.expected, self.cob_ref = expected, cob_ref or {}
        self.keys = [job_key(plan, job) for job in plan["jobs"]]

    def check_pass(self, outcomes: list) -> list:
        jobs = self.plan["jobs"]
        verdicts = [self._single(i, job, outcome) for i, (job, outcome) in enumerate(zip(jobs, outcomes))]
        ok = {job: outcome[1] for job, outcome, v in zip(jobs, outcomes, verdicts)
              if v is None and outcome[0] == "ok"}
        for i, job in enumerate(jobs):
            if verdicts[i] is None and job in ok:
                verdicts[i] = self._relations(job, ok)
        return verdicts

    # single-job checks: refusal rules, known values, digests, closed forms
    def _single(self, i, job, outcome):
        status, value = outcome
        op = job[0]
        if op == "cli":
            want = self.expected.get(self.keys[i])
            got = cli_digest(outcome) if status == "ok" else None
            return None if got == want else f"cli {' '.join(job[1:])}: got {got}, expected {want}"
        if self.facts is not None:
            refusal = expected_refusal(job, self.facts)
            if refusal is not None:
                if status == "raised" and isinstance(value, getattr(self.errors, refusal)):
                    return None
                got = type(value).__name__ if status == "raised" else "a value"
                return f"{job}: expected {refusal}, got {got}"
        if status == "raised":
            return f"{job}: unexpected {type(value).__name__}: {value}"
        problem = _known(job, value)
        key = self.keys[i]
        if problem is None and key in self.expected and digest(outcome) != self.expected[key]:
            problem = f"{job}: output differs from the seed implementation"
        check = getattr(self, f"_check_{op}", None)
        if problem is None and check is not None:
            problem = check(job, value)
        return problem

    def _check_indices(self, job, value):
        if len(value) != job[3] + 1:
            return f"{job}: {len(value)} indices for k_max {job[3]}"
        if self.facts(job[1])["spin"] and any(Fraction(v).denominator != 1 for v in value):
            return f"{job}: spin manifold with non-integral indices {value}"
        return None

    def _check_mrc(self, job, value):
        if not (value.passed and value.abs_error < value.tol):
            return f"{job}: modular relation check failed, |lhs - rhs| = {value.abs_error}"
        return None

    def _check_cob(self, job, value):
        m, b, _ = job[1:]
        ref = self.cob_ref[f"{m},{b}"]
        if not _close(value, ref, COB_REL_TOL):
            rel = abs(value - float(ref)) / float(ref)
            return f"c_of_b({m}, {b}, {job[3]}) = {value!r}, reference {float(ref)!r}, rel err {rel:.2e}"
        return None

    def _check_ibr(self, job, rep):
        m, p, lam, diam, b = job[1:]
        v = m / 2 if m > 2 else (1 + p) / 2
        mu = v / (v - 1)
        denom = mu * (p - 1) - p
        R = diam / (b * rep.c_of_b)
        B = lam ** (0.5 * (mu - 1) / denom) * R ** (p * (mu - 1) / denom) + 2.0  # cmp = 1
        constant = mu ** (2 * (mu / (mu - 1) ** 2) * p * (mu - 1) / denom) * B ** (2 / (mu - 1))
        expect = {"mu": mu, "K1": mu / (mu - 1) ** 2, "K2": 1 / (mu - 1), "R": R, "B": B,
                  "constant": constant, "dim_bound": constant, "index_bound": constant}
        for field, want in expect.items():
            if not _close(getattr(rep, field), want, IBR_REL_TOL):
                return f"{job}: {field} = {getattr(rep, field)!r}, recomputed {want!r}"
        return None

    def _check_cover(self, job, res):
        k, moduli, factor = job[1:]
        base = sum(n // 2 for n in moduli)
        cover = sum(factor * n // 2 for n in moduli)
        index = factor ** k
        got = (res.base_diam, res.cover_diam, res.index, res.inequality_holds)
        want = (base, cover, index, cover <= index * base)
        return None if got == want else f"{job}: got {got}, expected {want}"

    def _check_tower(self, job, res):
        k, depth = job[1:]
        got = [(lv.j, lv.scale, lv.index) for lv in res.levels]
        want = [(j, 2 ** (j - 1), 2 ** ((j - 1) * k)) for j in range(1, depth + 1)]
        return None if got == want and res.k == k else f"{job}: tower levels {got}"

    def _check_l2(self, job, res):
        k, p, depth = job[1:]
        want = [Fraction(math.comb(k, p), 2 ** ((j - 1) * k)) for j in range(1, depth + 1)]
        return None if list(res) == want else f"{job}: ratios {res}, expected {want}"

    # relations between outputs of the same pass
    def _relations(self, job, ok):
        op, name = job[0], job[1]
        if op not in ("genus", "elliptic", "indices", "fit"):
            return None
        recipe = self.plan["manifolds"][name]
        if recipe[0] in ("product", "sum"):
            parts = [ok.get((op, recipe[1]) + job[2:]), ok.get((op, recipe[2]) + job[2:])]
            if None not in parts and op != "fit":
                combine = _product_of if recipe[0] == "product" else _sum_of
                want = combine(op, job, parts)
                got = _plain(op, ok[job])
                if got != want:
                    rule = "multiplicativity" if recipe[0] == "product" else "additivity"
                    return f"{job}: {rule} fails for {recipe}"
        value = ok[job]
        ahat = ok.get(("genus", name, "ahat"))
        signature = ok.get(("genus", name, "signature"))
        if op == "elliptic":
            q0 = value.series.coeff(0)
            want = signature if job[2] == "ell1" else ahat
            if want is not None and q0 != want:
                return f"{job}: q^0 term {q0} is not {'signature' if job[2] == 'ell1' else 'Ahat'} {want}"
        if op == "indices" and ahat is not None and value[0] != ahat:
            return f"{job}: index_0 = {value[0]} is not Ahat = {ahat}"
        if op == "fit":
            witten = ok.get(("elliptic", name, "witten", job[2]))
            if witten is not None:
                return _fit_agrees(job, value, _coeffs(witten.series), job[2])
        return None


def _plain(op, value):
    if op == "genus":
        return Fraction(value)
    if op == "elliptic":
        return _coeffs(value.series)
    return [Fraction(v) for v in value]


def _product_of(op, job, parts):
    a, b = (_plain(op, p) for p in parts)
    if op == "genus":
        return a * b
    if op == "elliptic":
        return _mul(a, b, job[3])
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]


def _sum_of(op, job, parts):
    a, b = (_plain(op, p) for p in parts)
    if op == "genus":
        return a + b
    if op == "elliptic":
        return _add(a, b)
    return [x + y for x, y in zip(a, b)]


def _fit_agrees(job, fit, witten: dict, trunc: int):
    weight = fit.weight
    monomials = sorted((i, j) for i in range(weight // 4 + 1) for j in range(weight // 6 + 1)
                       if 4 * i + 6 * j == weight)
    if sorted(fit.coefficients) != monomials:
        return f"{job}: fit monomials {sorted(fit.coefficients)}, expected {monomials}"
    combo: dict = {}
    for (i, j), c in fit.coefficients.items():
        combo = _add(combo, {n: c * x for n, x in _e_monomial(i, j, trunc).items()})
    residual = _add(witten, {n: -c for n, c in combo.items()})
    if fit.residual_ok != (not residual):
        return f"{job}: residual_ok = {fit.residual_ok}, rebuilt residual {'empty' if not residual else 'nonzero'}"
    if residual:
        first = min(residual)
        if fit.first_mismatch != (first, residual[first]):
            return f"{job}: first_mismatch {fit.first_mismatch}, rebuilt {(first, residual[first])}"
    return None
