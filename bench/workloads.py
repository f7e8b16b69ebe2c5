"""The benchmark's workloads: the CLI calls that make up one job, and the
codes a user's set-up builds before the first call.

A job is one fixed round of command calls; every call of a job gets the
job's seed.  Repeat counts are chosen so that the ladder and the MP contrast
each take about a second and the moments call keeps the eigensolve the
larger share beside code_report (20 repeats, several seconds); a spectral
job takes about 7 s, and the walk audit has no such knob.
"""

LADDER = ((5, 8), (7, 20), (9, 35), (11, 50))

# The paper's headline path: distinct sampling, centered Gram, eigensolve,
# semicircle KS, and every per-repeat artifact written.
SEMICIRCLE_LADDER = [
    {"command": "spectrum", "code": "gold", "m": m, "p": p, "repeats": 4, "lmax": 6}
    for m, p in LADDER
]
# Matched-scale MP contrast (Gold dual distance 5 against RM(1) dual
# distance 4) plus a second aspect ratio; the only calls where the MP CDF
# quadrature inside the KS statistic does real work.
MP_CONTRAST = [
    {"command": "mp", "code": "gold", "m": 5, "y": 0.5, "repeats": 10, "lmax": 4},
    {"command": "mp", "code": "rm1", "m": 5, "y": 0.5, "repeats": 10, "lmax": 4},
    {"command": "mp", "code": "gold", "m": 7, "y": 0.25, "repeats": 10, "lmax": 4},
]
# The only call of code_report (its dual-distance pair search sets the peak
# memory); samples and eigensolves, but writes no per-repeat artifacts.
MOMENTS_GOLD11 = [
    {"command": "moments", "code": "gold", "m": 11, "p": 50, "repeats": 20, "lmax": 4},
]

WORKLOADS = {
    # Every spectral layer in one job: the three groups above run back to
    # back.  They share the machine's slow speed drift, and one workload of
    # long runs averages it out better than three of short runs.
    "spectral": {
        "codes": [("make_gold", m) for m, _ in LADDER] + [("make_rm1", 5)],
        "calls": SEMICIRCLE_LADDER + MP_CONTRAST + MOMENTS_GOLD11,
    },
    # Exact walk counting; shares no spectral layer, so it should not move
    # when they do.
    "walk_audit": {
        "codes": [("make_even_weight", 4), ("make_gold", 5)],
        "calls": [
            {"command": "paths-audit", "code": "even", "n": 4, "lmax": 4},
            {"command": "paths-audit", "code": "gold", "m": 5, "lmax": 4},
        ],
    },
}

# A run stops starting jobs once the next one would end after --seconds,
# but never before it has timed this many.
MIN_JOBS = 3
# Set-up probes per untraced run, spread over the run between jobs.
SETUP_SAMPLES = 21
