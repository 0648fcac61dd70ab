"""Workload job lists and per-job output checks for the nonarch benchmark.

A job is one in-process call of ``nonarch.cli.main(argv)``.  Each workload
is a list of artifact-producing jobs built from the seed alone; the runner
follows every one of them with a ``--check`` replay job.  Every job chosen
here has a positive verdict (exit status 0): negative verdicts and
undecidable inputs (for example the ``r06`` radius, whose comparisons
exit 1 by design) are outcomes the benchmark does not measure.

Why each workload exists (see also BENCHMARK.json):

* ``certify``: linear algebra and enumeration (``linalg``, ``derivlab``,
  ``lognorm.norm_exceeds``) do almost all the work; ``rootlift`` and the
  CLI do almost none.
* ``ring``: many small random elements (``squarezero``, short ``series``
  products, ``fields``, ``coeffs.GF``, ``lognorm.ln_compare``); ``linalg``,
  ``rootlift`` and ``frobenius`` are never called.
* ``lift``: fewer, larger objects and many short jobs (``rootlift``,
  ``frobenius``, p-adic ``fields.valuation``, long ``series`` products and
  the CLI's own parse/write cost).

Every README example runs in the workload of the layers it exercises, so
each layer that a workload claims to leave idle stays idle there.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

# tail indices of the gap series rows: i_2, i_3, ... (derivlab.sparse_indices)
GAP_TAIL_INDICES = [4, 11, 37, 153, 771]


@dataclass(frozen=True)
class Job:
    argv: tuple                      # CLI argv, without --out
    verdict: str                     # expected verdict (exit status 0)
    check: Optional[Callable[[dict], Optional[str]]]   # artifact -> error


def _opt(argv, flag, default=None):
    """Value following ``flag`` in an argv list."""
    argv = list(argv)
    if flag in argv:
        return argv[argv.index(flag) + 1]
    return default


# ---------------------------------------------------------------------------
# Per-kind invariants: each returns None or a one-line reason


def _check_unbounded(argv, art):
    terms = int(_opt(argv, "--terms"))
    w = art["result"]["witness"]
    got = [row["tail_index"] for row in w["rows"]]
    if got != GAP_TAIL_INDICES[:terms - 1]:
        return f"tail indices {got}"
    if w["strictly_increasing"] is not True:
        return "ratios not strictly increasing"
    if w["first_row_exceeding_bound"] is None:
        return "no row exceeds the bound"
    return None


def _check_nonintegral(argv, art):
    n, d = int(_opt(argv, "--nmax")), int(_opt(argv, "--dmax"))
    w = art["result"]["witness"]
    unknowns = (n + 1) * (d + 1)
    if not (w["rank"] == w["unknowns"] == unknowns and w["nullity"] == 0):
        return f"rank {w['rank']} of {w['unknowns']} (expected {unknowns})"
    return None


def _check_pbasis(argv, art):
    nvars, terms = int(_opt(argv, "--nvars")), int(_opt(argv, "--terms"))
    w = art["result"]["witness"]
    names = (["t"] + [f"u{i + 1}" for i in range(nvars)])[:terms]
    obs = w["obstructions"]
    if [o["lambda"] for o in obs] != names:
        return f"obstructions for {[o['lambda'] for o in obs]}"
    if w["products_enumerated"] != sum(o["span_products_checked"]
                                       for o in obs):
        return "enumerated products do not add up"
    return None


def _check_pth_root(argv, art):
    return None if art["result"]["trace"]["steps"] else "trace has no steps"


def _check_tower(argv, art):
    tower = art["result"]["tower"]
    depth = int(_opt(argv, "--depth"))
    if tower["depth"] != depth or len(tower["elements"]) != depth + 1:
        return f"tower of depth {tower['depth']} (expected {depth})"
    return None


def _check_ffinite(argv, art):
    terms = len(json.loads(_opt(argv, "--series"))["terms"])
    if len(art["result"]["norm_bounds"]) != terms:
        return "a term has no norm bound"
    return None


def _max_term(params):
    """(valuation, exponent) of the stored term of largest norm, recomputed
    from the job's own one-variable series.  A term w*x^e with v = v_q(w)
    has log_q norm -v - e*log_q(1/r), where log_q(1/r) = (a + b*sqrt(d))/c
    and a coefficient is written as a product of integer powers."""
    q = params["field"]["residue_prime"]
    r = params["radii"][0]["params"]
    log_inv_r = (r["a"] + r["b"] * math.sqrt(r["d"])) / r["c"]
    best = None
    for term in params["series"]["terms"]:
        x = Fraction(1)
        for factor in term["coeff"].split("*"):
            base, _, power = factor.partition("^")
            x *= Fraction(int(base)) ** int(power or 1)
        v, num, den = 0, x.numerator, x.denominator
        while num % q == 0:
            num, v = num // q, v + 1
        while den % q == 0:
            den, v = den // q, v - 1
        e = term["exp"][0]
        if best is None or -v - e * log_inv_r > best[0]:
            best = (-v - e * log_inv_r, v, e)
    return best[1:]


def _same_norm(norm, params):
    """None if a stored LogNorm is the recomputed maximal term norm."""
    got = (Fraction(norm["e0"]), Fraction(norm["radius"][0]))
    want = _max_term(params)
    return None if got == want else f"norm {got} (expected {want})"


def _check_spectral(argv, art):
    r = art["result"]
    if len(r["power_estimates"]) != int(_opt(argv, "--powers", 6)):
        return "power estimates missing"
    return _same_norm(r["spectral_radius"], art["params"])


def _check_gauss(argv, art):
    return _same_norm(art["result"]["norm"], art["params"])


# Checks restate nothing the verdict already implies: sz-check's PASS means
# all trials ran without a failure, so it has no check of its own.
CHECKS = {
    "unbounded-demo": ("UNBOUNDED", _check_unbounded),
    "nonintegral-cert": ("NON_INTEGRAL", _check_nonintegral),
    "pbasis-cert": ("P_INDEPENDENT", _check_pbasis),
    "sz-check": ("PASS", None),
    "pth-root": ("CERTIFIED", _check_pth_root),
    "tower": ("VERIFIED", _check_tower),
    "ffinite-decompose": ("VERIFIED", _check_ffinite),
    "spectral-radius": ("VERIFIED", _check_spectral),
    "gauss-norm": ("EXACT", _check_gauss),
}


def job(*argv) -> Job:
    argv = tuple(str(a) for a in argv)
    verdict, check = CHECKS[argv[0]]
    return Job(argv, verdict, check and functools.partial(check, argv))


# ---------------------------------------------------------------------------
# Artifact-derived work counters (deterministic; traced run only)


def artifact_counters(art) -> dict:
    """Work sizes recorded in an artifact, keyed by per-layer metric."""
    r = art["result"]
    out = {}
    if art["command"] == "nonintegral-cert":
        system = r["params"]["system"]
    elif art["command"] == "unbounded-demo":
        system = r["params"]["transcendence"]["system"]
    else:
        system = None
    if system:
        out["derivlab.system_entries"] = \
            system["equations"] * system["unknowns"]
    if art["command"] == "pbasis-cert":
        out["derivlab.span_products"] = sum(
            o.get("span_products_checked", 0)
            for o in r["witness"]["obstructions"])
    if art["command"] == "pth-root":
        out["rootlift.steps"] = len(r["trace"]["steps"])
    return out


# ---------------------------------------------------------------------------
# Workloads


README_CERTIFY = [
    ("unbounded-demo", "--terms", 6, "--radius", "r1", "--bound", "1e6"),
    ("nonintegral-cert", "--terms", 3, "--nmax", 2, "--dmax", 3),
    ("pbasis-cert", "--prime", 2, "--nvars", 3, "--terms", 4,
     "--tdeg", 4, "--cdeg", 2),
]

# (field, terms, nmax, dmax) with the degree gap n*i_m + d < i_{m+1} and
# d < i_m, so the verdict is NON_INTEGRAL.  Systems with more than 40k
# entries take the sparse rank-mod-P path, the rest the dense nullspace path.
NONINTEGRAL_GRID = [
    ("q3", 3, 1, 5), ("q5", 3, 2, 6), ("q3", 3, 3, 2), ("q5", 4, 2, 3),
    ("q3", 4, 1, 12), ("q5", 4, 2, 8), ("q3", 4, 3, 11),          # dense
    ("q5", 5, 2, 40), ("q3", 5, 1, 100), ("q5", 5, 3, 20),        # sparse
]

# (nvars, terms, tdeg, cdeg) over ratfun2, p = 2
PBASIS_GRID = [(3, 4, 4, 1), (3, 3, 4, 1), (3, 2, 4, 2), (2, 3, 4, 2),
               (2, 2, 4, 2), (1, 2, 4, 2)]


def certify(rng: random.Random):
    """A fixed set of certificates in seeded order.  The field of each one
    is fixed too: a job's cost depends on it, and with so few jobs a seeded
    choice would change the amount of work from seed to seed."""
    jobs = [job(*a) for a in README_CERTIFY]
    # norm_exceeds escalates on the rows below the bound (a 1e30 table is
    # too long to repeat: see NOTES.md)
    jobs.append(job("unbounded-demo", "--field", "q5", "--terms", 6,
                    "--bound", "1e12"))
    for field, terms, n, d in NONINTEGRAL_GRID:
        jobs.append(job("nonintegral-cert", "--field", field, "--terms",
                        terms, "--nmax", n, "--dmax", d))
    for nvars, terms, tdeg, cdeg in PBASIS_GRID:
        jobs.append(job("pbasis-cert", "--prime", 2, "--nvars", nvars,
                        "--terms", terms, "--tdeg", tdeg, "--cdeg", cdeg))
    rng.shuffle(jobs)
    return jobs


RING_FIELDS = ["q3", "q5", "f2t", "f4t"]


def ring(rng: random.Random):
    jobs = [job("sz-check", "--field", "q3", "--count", 1000, "--seed", 7)]
    for i in range(20):
        jobs.append(job("sz-check", "--field", RING_FIELDS[i % 4],
                        "--count", 60, "--seed", rng.randrange(10 ** 9)))
    rng.shuffle(jobs)
    return jobs


README_SERIES_F2T = ('{"kind":"power","radius":["r1"],"terms":[{"exp":[1],'
                     '"coeff":"t"},{"exp":[2],"coeff":"1"}]}')
README_SERIES_Q3 = ('{"kind":"laurent","radius":["r1"],"terms":[{"exp":[1],'
                    '"coeff":"3"},{"exp":[2],"coeff":"1"}]}')

# (field, p) pairs where p is a unit, so the root iteration contracts
ROOT_CASES = [("q3", 2), ("q5", 2), ("q5", 3)]


def _unit_near_one(rng, q):
    """Rational literal f with |f - 1| = 1/q in Q_q.  Deeper targets are
    out of reach: see the pth-root note in NOTES.md."""
    b, a = (rng.choice([d for d in range(1, 60) if d % q]) for _ in "ba")
    return f"{b + q * a}/{b}"


def _fq_series(rng, field, n):
    """n-term power series over F_Q((t)) with unit-ish coefficients."""
    units = ["1", "w", "w + 1"] if field == "f4t" else ["1"]
    terms = []
    for e in sorted(rng.sample(range(3 * n), n)):
        k = rng.randint(-2, 3)
        c = rng.choice(units) if k == 0 else f"({rng.choice(units)})*t^{k}"
        if rng.random() < 0.5:
            c += f" + t^{k + 1}"
        terms.append({"exp": [e], "coeff": c})
    return json.dumps({"kind": "power", "radius": ["r1"], "terms": terms})


def _laurent_series(rng, q, n):
    """n-term Laurent series over Q_q with coefficients +-u*q^v."""
    terms = []
    for e in sorted(rng.sample(range(-n, n), n)):
        u, v = rng.choice([1, 2, -1, -2]), rng.randint(-2, 2)
        terms.append({"exp": [e], "coeff": f"{u}*{q}^{v}"})
    return json.dumps({"kind": "laurent", "radius": ["r1"], "terms": terms})


def lift(rng: random.Random):
    jobs = [job("pth-root", "--field", "q3", "--prime", 2, "--target", 4),
            job("tower", "--field", "q3", "--prime", 2, "--target", 4,
                "--depth", 2),
            job("ffinite-decompose", "--field", "f2t", "--series",
                README_SERIES_F2T),
            job("gauss-norm", "--field", "q3", "--series",
                README_SERIES_Q3)]
    for i in range(24):
        field, p = ROOT_CASES[i % 3]
        jobs.append(job("pth-root", "--field", field, "--prime", p,
                        "--target", _unit_near_one(rng, int(field[1:]))))
    # the seed draws values; sizes (depths, term counts) are fixed, so
    # every seed asks for the same amount of work
    for i, depth in enumerate((4, 5, 6, 7, 8, 6)):
        field, p = ROOT_CASES[i % 3]
        jobs.append(job("tower", "--field", field, "--prime", p, "--target",
                        _unit_near_one(rng, int(field[1:])),
                        "--depth", depth))
    # characteristic 2, p = 3: the Hensel path of scalar_pth_root
    for depth in (4, 6, 8):
        a, b = sorted(rng.sample(range(1, 8), 2))
        jobs.append(job("tower", "--field", "f2t", "--prime", 3, "--target",
                        f"1 + t^{a} + t^{b}", "--depth", depth))
    for field, n in zip(("f2t", "f4t") * 3, (40, 50, 60, 40, 50, 60)):
        jobs.append(job("ffinite-decompose", "--field", field, "--series",
                        _fq_series(rng, field, n)))
    # the longest jobs: with 16 of 114 a batch, the p90 job_tail_s lands
    # inside this group, not on the edge between it and the pth-root jobs
    for field in ("q3", "q5") * 4:
        jobs.append(job("spectral-radius", "--field", field, "--powers", 4,
                        "--series",
                        _laurent_series(rng, int(field[1:]), 20)))
    for field, n in zip(("q3", "q5") * 3, (20, 30, 40, 40, 30, 20)):
        jobs.append(job("gauss-norm", "--field", field, "--series",
                        _laurent_series(rng, int(field[1:]), n)))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"certify": certify, "ring": ring, "lift": lift}


def build(workload: str, seed: int):
    """The workload's artifact-producing jobs for this seed."""
    return WORKLOADS[workload](random.Random(f"{workload}-{seed}"))
