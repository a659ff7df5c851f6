"""Workload definitions: the job pool of each workload and the jobs a seed draws.

A job is a `hyperlab` argv tuple.  Every workload has a fixed pool of jobs,
listed in a fixed order; a benchmark seed selects pool entries (and, for
small-batch, their order).  The reference exit codes and stdout digests in
reference.json are indexed by pool position, so every seed is checked
against outputs recorded from the program, not against itself.
"""

import random

WORKLOADS = ("sl2-energy", "rich-grid", "small-batch")

# Variants per seeded template in the two large workloads: the seed picks one.
_VARIANTS = 8

# sl2-energy: the group-histogram kernels (quotient histogram, the T_3
# enumeration, the T_4 convolution, the Cauchy-Schwarz chain).  p = 65537 lies
# above p <= 55108, where an SL2 entry 4-tuple packs into one int64 key.
_SL2_ENERGY = (
    "compute energy --p 1009 --H randomh:1024,{s}",
    "compute t3 --p 1009 --H randomh:64,{s}",
    "compute t3 --p 1009 --H randomh:128,{s}",
    "compute t3 --p 65537 --H randomh:96,{s}",
    "compute t3 --p 1009 --H cart:ap:1,1,10;ap:1,1,10",
    "compute t4 --p 1009 --H randomh:32,{s}",
    "compute t4 --p 1009 --H cart:ap:1,1,6;ap:1,1,6",
    "compute borel --p 1009 --H randomh:96,{s}",
    "compute cschain --p 1009 --A ap:1,1,64 --H randomh:512,{s}",
)

# rich-grid: the point-pair kernels (rich hyperbolae, rich lines, sigma and
# the difference histograms); the SL2 histogram is never called.  At
# p = 65537 a p|A|^2 column pass costs more than the |A|^4 pair pass.
_RICH_GRID = (
    "scan --family ap-main --workers 1",
    "compute mk --p 1009 --A random:40,{s} --k 3",
    "compute mk --p 65537 --A gp:3,5,32 --k 3",
    "compute lk --p 1009 --A ap:1,1,24 --k 4",
    "compute lk --p 1009 --A random:24,{s} --k 3",
    "compute sigma --p 1009 --A random:300,{s} --H cart:random:48,{s};random:48,{t}",
    "compute sumprod --p 1009 --A random:64,{s}",
    "compute minkowski --p 1009 --A random:512,{s}",
    "compute eplus --p 4099 --A random:2000,{s}",
)

_QUANTITIES = (
    "sigma", "energy", "t3", "t4", "q", "mk", "lk",
    "eplus", "sumprod", "minkowski", "cschain", "borel",
)

# small-batch draws its primes from 48 primes spread over [61, 4099], more
# than the 8 inverse tables the kernels cache.
_ALL_PRIMES = [n for n in range(61, 4100) if all(n % d for d in range(2, int(n**0.5) + 1))]
_PRIMES = tuple(_ALL_PRIMES[i * (len(_ALL_PRIMES) - 1) // 47] for i in range(48))

_SIZES = range(4, 13)
_SLOTS = 28  # compute jobs per (quantity, size): 12 * 9 * 28 = 3024 per run
_SMALL_VARIANTS = 2

# Every verify suite but algebraic-identities, whose fixed exhaustive part
# (about 4 s) would swamp the tail.  The same 144 verify jobs run under every
# seed: their cost varies tenfold between suite seeds (lemma-sh-cartesian
# draws |B| up to 8, so T_3 up to |H| = 64), which would otherwise make the
# workload's wall time depend on the benchmark seed.
_VERIFY_SUITES = (
    "oracle-equivalence", "lemma-t3", "lemma-sh-cartesian", "borel",
    "charsum", "minkowski-rotation", "t4-chain", "cross-algorithm-mk",
)
_VERIFY_SEEDS = range(18)
_VERIFY_TRIALS = 2


def _templated(templates):
    pool = []
    groups = []
    for tpl in templates:
        start = len(pool)
        n = _VARIANTS if "{s}" in tpl else 1
        for v in range(n):
            pool.append(tuple(tpl.format(s=1 + v, t=101 + v).split()))
        groups.append(range(start, start + n))
    return pool, groups


def _scalar_spec(rng, p, n):
    kind = rng.randrange(3)
    if kind == 0:
        return f"random:{n},{rng.randrange(1, 10**6)}"
    if kind == 1:
        return f"ap:{rng.randrange(p)},{rng.randrange(1, p)},{n}"
    return f"gp:{rng.randrange(1, p)},{rng.randrange(2, p)},{n}"


def _small_compute_job(rng, quantity, size):
    p = rng.choice(_PRIMES)
    argv = ["compute", quantity, "--p", str(p)]
    if quantity in ("sigma", "cschain", "mk", "lk", "eplus", "sumprod", "minkowski"):
        argv += ["--A", _scalar_spec(rng, p, size)]
    if quantity in ("sigma", "cschain", "energy", "t3", "t4", "q", "borel"):
        argv += ["--H", f"randomh:{size},{rng.randrange(1, 10**6)}"]
    if quantity in ("mk", "lk"):
        argv += ["--k", str(rng.choice((2, 3)))]
    if quantity in ("sigma", "mk", "minkowski") and rng.random() < 0.5:
        argv += ["--lambda", str(rng.randrange(1, p))]
    if rng.random() < 0.25:
        argv += ["--format", "json"]
    return tuple(argv)


def _small_batch():
    rng = random.Random("small-batch-pool")
    pool = []
    groups = []
    for quantity in _QUANTITIES:
        for size in _SIZES:
            for slot in range(_SLOTS):
                start = len(pool)
                for _ in range(_SMALL_VARIANTS):
                    pool.append(_small_compute_job(rng, quantity, size))
                groups.append(range(start, start + _SMALL_VARIANTS))
    for suite in _VERIFY_SUITES:
        for s in _VERIFY_SEEDS:
            pool.append(("verify", suite, "--trials", str(_VERIFY_TRIALS), "--seed", str(s)))
            groups.append(range(len(pool) - 1, len(pool)))
    return pool, groups


def pool(workload):
    """(jobs, groups): every job the workload can run, and the pool ranges a
    run draws exactly one job from."""
    if workload == "sl2-energy":
        return _templated(_SL2_ENERGY)
    if workload == "rich-grid":
        return _templated(_RICH_GRID)
    if workload == "small-batch":
        return _small_batch()
    raise ValueError(f"unknown workload {workload!r}")


def select(workload, groups, seed):
    """Pool indices of the jobs one run executes, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    picks = [g[rng.randrange(len(g))] for g in groups]
    if workload == "small-batch":
        rng.shuffle(picks)
    return picks


# Spans each compute quantity makes below cli.main, with their call counts.
# They follow the call structure of cli and counts; a change to that structure
# changes this table with it.
_KERNEL_CALLS = {
    "sigma": {"counts.sigma": 1, "counts.sigma_rect": 1, "sets.max_line_multiplicity": 1},
    "energy": {"counts.t_k.k2": 1, "counts.quotient_histogram": 1, "sets.max_line_multiplicity": 1},
    "t3": {"counts.t_k.k3": 1, "counts.q_rect": 1, "counts.d_histogram": 1,
           "sets.max_line_multiplicity": 1},
    "t4": {"counts.t_k.k4": 1, "counts.t_k.k3": 1, "counts.quotient_histogram": 1},
    "q": {"counts.q_rect": 1, "counts.d_histogram": 1, "sets.max_line_multiplicity": 1},
    "mk": {"counts.rich_hyperbolae": 1},
    "lk": {"counts.rich_lines": 1},
    "eplus": {"counts.additive_energy": 1},
    "sumprod": {"counts.sumprod_quadruples": 4},
    "minkowski": {"counts.minkowski_realisations": 1, "sets.sumset": 1, "sets.difference_set": 1},
    "cschain": {"counts.cs_chain_report": 1, "counts.sigma": 1, "counts.sigma_rect": 1,
                "counts.quotient_histogram": 1},
    "borel": {"counts.borel_coset_mass": 1, "counts.quotient_histogram": 1,
              "counts.borel_t3_mass": 1},
}
_BOUND_EVALS = {"sigma": 6, "t3": 1, "q": 1, "mk": 1, "lk": 1}
_SET_FLAGS = ("--A", "--H", "--B", "--C")


def expected_calls(argv, rows):
    """Span name -> calls one job must make, given the report rows it printed."""
    want = {"cli.main": 1}
    if argv[0] == "compute":
        quantity = argv[1]
        evals = _BOUND_EVALS.get(quantity, 0)
        if quantity == "sigma" and argv[argv.index("--H") + 1].startswith("cart:"):
            evals += 1  # the Cartesian main estimate
        want.update(_KERNEL_CALLS[quantity])
        want["sets.parse_setspec"] = sum(flag in argv for flag in _SET_FLAGS)
        want["bounds.eval"] = evals
        want["bounds.make_report"] = rows
        want["bounds.render"] = rows
    elif argv[0] == "verify":
        want["verify.suite"] = 1
        if argv[1] == "oracle-equivalence":
            want["oracle"] = 4 * int(argv[argv.index("--trials") + 1])
    elif argv[:3] == ("scan", "--family", "ap-main"):
        # four mk rows (--A only) and four sigma rows (--A and a cart: --H);
        # each row is rendered as CSV and as JSON
        want.update({"sets.parse_setspec": 12, "counts.rich_hyperbolae": 4,
                     "counts.sigma": 4, "counts.sigma_rect": 4, "bounds.render": 16})
    return want


def pool_digest(jobs):
    """SHA-256 of a job pool, to tie reference.json to the pool it indexes."""
    import hashlib

    return hashlib.sha256("\n".join(" ".join(argv) for argv in jobs).encode()).hexdigest()
