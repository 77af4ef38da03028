"""The four benchmark workloads, built from a seed.

A workload pass is a list of operations: in-process jobs and
command-line calls, each call tagged with the cache round (one fresh cache
directory per round) it runs against.  Every job carries its own check
against refs.py.
Jobs call the engine through module attributes (bar.bar_homology_dims,
not an imported name) so that the traced run can wrap those attributes.

The seed fixes the order of the in-process jobs, the coefficient c of the
scaled cubic in dims_q and the interleaving of cold and warm calls in
cli_cache, which changes from pass to pass.  The program itself only
ever sees the generated inputs.
"""

import json
import os
import random
from fractions import Fraction

from koszul import artin, bar, dga, dgmod, dual, extres
from koszul.exactla import Field, Window

import refs

FP = "Fp:32003"

# Non-unit merge coefficients for the scaled cubic x.x = c.y.  They share one
# height (numerator and denominator 2 and 3), so the Fraction cost does not
# depend on which one the seed draws, while none of them is +-1.
SCALED_C = (Fraction(2, 3), Fraction(-2, 3), Fraction(3, 2), Fraction(-3, 2))

# The command-line share of the in-process workloads, so that the cache-hit
# and cache-miss latencies exist on every workload: rounds of one cold call
# against an empty cache directory followed by warm calls of the same job.
# The mix is an arbitrary choice of the benchmark, not a measured usage
# pattern.  The calls are spread evenly between the in-process jobs, so the
# latency samples span the whole pass rather than one moment of it; their
# time is left out of the pass's wall time.
SERVE_ROUNDS = 6
SERVE_HITS = 5

# cli_cache: warm calls per cacheable job, calls of the refusal job (every
# call recomputes, since refusals are never cached).  With 11 cold calls
# plus 4 refusal calls a pass has an odd number of misses, so the miss
# median is one job's latency rather than a jump between two.
CLI_WARM = 20
CLI_REFUSAL_CALLS = 4

# cli_cache: the job whose cache entry gets truncated.  It is a fixed,
# cheap job, so that once the engine recovers from the corrupt entry, the
# recomputation adds about the same small time to every seed's pass.
CORRUPT_JOB = "bar k[x]/x^3 Q"


class Job:
    """One in-process call.  check(value) decides correctness; refusal, when
    set, is a substring the expected RefusalError message must contain."""

    def __init__(self, name, window, call, check, refusal=None):
        self.name = name
        self.window = window
        self.call = call
        self.check = check
        self.refusal = refusal


class CliJob:
    """One koszul.cli.main invocation (without --cache-dir, which the runner
    adds).  code is the expected exit status; check(report) the answer."""

    def __init__(self, name, window, argv, check, code=0):
        self.name = name
        self.window = window
        self.argv = argv
        self.check = check
        self.code = code


class CliCall:
    """One call of a CliJob against the cache directory of its round.  A
    serve call is the command-line share of an in-process workload."""

    def __init__(self, round_, job, serve=False):
        self.round = round_
        self.job = job
        self.serve = serve


class Workload:
    def __init__(self, name, ops, largest, corrupt=None, params=None,
                 order_seed=None):
        self.name = name
        self.ops = ops            # Jobs and CliCalls, in run order
        self.largest = largest    # name of the widest-window job
        self.corrupt = corrupt    # CliCall whose cache entry gets truncated,
                                  # then made once more after the last op
        self.params = params or {}
        self.order_seed = order_seed

    def pass_ops(self, index):
        """The operations of pass number index.  With an order_seed, each
        pass draws its own order of ops from it."""
        if self.order_seed is None:
            return self.ops
        ops = list(self.ops)
        random.Random(f"{self.order_seed}/{index}").shuffle(ops)
        return ops

    def job_list(self):
        """Distinct jobs with their windows, in first-call order."""
        seen, out = set(), []
        for op in self.ops:
            job = op.job if isinstance(op, CliCall) else op
            if job.name not in seen:
                seen.add(job.name)
                out.append({"job": job.name, "window": job.window})
        return out


def _win(lo, hi):
    return f"[{lo},{hi}]"


def _eq(expected):
    return lambda value: value == expected


# -- algebras -----------------------------------------------------------------


def _cubic(field):
    return dga.truncated_polynomial(field, 3, 0)


def _exterior(field, n):
    """k[x_1..x_n]/(x_j^2) as an iterated tensor product of complete slices."""
    one = dga.algebra_slice(dga.truncated_polynomial(field, 2, 0), Window(0, 0))
    out = one
    for _ in range(n - 1):
        out = dga.tensor_algebra(out, one)
    return out


def _scaled_cubic(field, c):
    one = field.one
    mult = {("1", "1"): {"1": one}, ("1", "x"): {"x": one},
            ("x", "1"): {"x": one}, ("1", "y"): {"y": one},
            ("y", "1"): {"y": one}, ("x", "x"): {"y": c}}
    return dga.finite_dga_from_tables(
        field, Window(0, 0), {0: ("1", "x", "y")}, diff={}, mult_table=mult,
        unit="1", aug={"1": one}, complete=True, name=f"k[x]/x^3 (x.x={c}.y)")


def _xyz_document():
    """k[x,y,z]/(x^2,y^2,z^2) as an explicit table document."""
    gens = "xyz"
    monomials = [""] + [g for g in gens] + ["xy", "xz", "yz", "xyz"]

    def label(m):
        return m or "1"

    mult = []
    for a in monomials:
        for b in monomials:
            if set(a) & set(b):
                continue
            prod = "".join(sorted(a + b))
            mult.append([label(a), label(b), [["1", label(prod)]]])
    return {
        "name": "k[x,y,z]/(x^2,y^2,z^2)",
        "field": "Q",
        "basis": [[label(m), 0] for m in monomials],
        "differential": {},
        "multiplication": mult,
        "unit": "1",
        "augmentation": {"1": "1"},
    }


# -- in-process workloads -----------------------------------------------------


def _dims_jobs(field, widths, dual_hi, xy_width, scaled_c=None, derived_w=None):
    cubic = _cubic(field)
    xy = _exterior(field, 2).as_spec()
    jobs = []
    for w in widths:
        jobs.append(Job(
            f"bar_homology_dims(k[x]/x^3) w={w}", _win(-w, 0),
            lambda w=w: bar.bar_homology_dims(cubic, Window(-w, 0)),
            _eq(refs.tor_exterior(1, -w, 0))))
    jobs.append(Job(
        "dual_cohomology_dims(k[x]/x^3)", _win(0, dual_hi),
        lambda: dual.dual_cohomology_dims(cubic, Window(0, dual_hi)),
        _eq(refs.ext_exterior(1, 0, dual_hi))))
    if scaled_c is not None:
        scaled = _scaled_cubic(field, scaled_c).as_spec()
        jobs.append(Job(
            "bar_homology_dims(scaled k[x]/x^3) w=10", _win(-10, 0),
            lambda: bar.bar_homology_dims(scaled, Window(-10, 0)),
            _eq(refs.tor_exterior(1, -10, 0))))
    jobs.append(Job(
        f"bar_homology_dims(k[x,y]/(x^2,y^2)) w={xy_width}", _win(-xy_width, 0),
        lambda: bar.bar_homology_dims(xy, Window(-xy_width, 0)),
        _eq(refs.tor_exterior(2, -xy_width, 0))))
    if derived_w is not None:
        k = dgmod.trivial_module(cubic)
        jobs.append(Job(
            "derived_tensor_dims(k, k[x]/x^3, k)", _win(-derived_w, 0),
            lambda: bar.derived_tensor_dims(k, cubic, k, Window(-derived_w, 0)),
            _eq(refs.tor_exterior(1, -derived_w, 0))))
    return jobs


def _with_serve(jobs, serve):
    """jobs with SERVE_ROUNDS rounds of serve calls spread between them."""
    calls = [CliCall(r, serve, serve=True) for r in range(SERVE_ROUNDS)
              for _ in range(1 + SERVE_HITS)]
    ops = []
    for i, job in enumerate(jobs):
        ops.append(job)
        ops += calls[i * len(calls) // len(jobs):
                     (i + 1) * len(calls) // len(jobs)]
    return ops


def _dims_check(expected):
    return lambda report: _dims(report) == expected


def _dims(report, key="dims"):
    return {d: n for d, n in report["result"][key]}


def _cubic_ring(ring_entries):
    ring = {(tuple(c1), tuple(c2)): {tuple(c3): v for c3, v in lc}
            for c1, c2, lc in ring_entries}
    return refs.cubic_ring_facts(ring)


def build_dims_q(seed, docs):
    rng = random.Random(seed)
    c = rng.choice(SCALED_C)
    jobs = _dims_jobs(Field(), (9, 10, 11), 10, 7, scaled_c=c, derived_w=9)
    rng.shuffle(jobs)
    serve = CliJob("cli bar k[x]/x^3 Q", _win(-6, 0),
                   ["bar", docs["cubic"], "--window=-6..0"],
                   _dims_check(refs.tor_exterior(1, -6, 0)))
    return Workload("dims_q", _with_serve(jobs, serve),
                    largest="bar_homology_dims(k[x]/x^3) w=11",
                    params={"scaled_c": str(c)})


def build_dims_fp(seed, docs):
    rng = random.Random(seed)
    jobs = _dims_jobs(Field(32003), (11, 12, 13), 11, 8)
    rng.shuffle(jobs)
    serve = CliJob("cli bar k[x]/x^3 F_32003", _win(-8, 0),
                   ["bar", docs["cubic"], "--window=-8..0", "--field", FP],
                   _dims_check(refs.tor_exterior(1, -8, 0)))
    return Workload("dims_fp", _with_serve(jobs, serve),
                    largest="bar_homology_dims(k[x]/x^3) w=13",
                    params={"field": FP})


def build_ring_oracle(seed, docs):
    rng = random.Random(seed)
    q = Field()
    cubic = _cubic(q)
    cubic_slice = dga.algebra_slice(cubic, Window(0, 0))
    xy = _exterior(q, 2).as_spec()
    xyz = _exterior(q, 3)
    jobs = [
        Job("dual_cohomology_ring(k[x]/x^3)", _win(0, 9),
            lambda: dual.dual_cohomology_ring(cubic, Window(0, 9)),
            lambda r: (r.dims == refs.ext_exterior(1, 0, 9)
                       and refs.cubic_ring_facts(r.ring))),
        Job("dual_cohomology_ring(k[x,y]/(x^2,y^2))", _win(0, 7),
            lambda: dual.dual_cohomology_ring(xy, Window(0, 7)),
            lambda r: r.dims == refs.ext_exterior(2, 0, 7)),
        Job("dual_cohomology_ring(k+k[1]) + power generation g=2", _win(0, 18),
            lambda: _ring_with_powers(q, Window(0, 18), 2),
            lambda r: (r[0].dims == refs.ext_square_zero(1, 0, 18)
                       and r[1] is refs.POWER_GENERATED_SQUARE_ZERO_1)),
        Job("ext_dims(k[x]/x^3)", _win(0, 14),
            lambda: extres.ext_dims(cubic_slice, Window(0, 14)),
            _eq(refs.ext_exterior(1, 0, 14))),
        Job("ext_dims(k[x,y,z]/(x^2,y^2,z^2))", _win(0, 10),
            lambda: extres.ext_dims(xyz, Window(0, 10)),
            _eq(refs.ext_exterior(3, 0, 10))),
    ]
    for n in (1, 2, 3):
        sq = dga.square_zero(q, n)
        jobs.append(Job(
            f"bidual_cohomology(k+k[{n}])", _win(-4, 1),
            lambda sq=sq: dual.bidual_cohomology(sq, Window(-4, 1)),
            _eq(refs.input_square_zero(n, -4, 1))))
    sq0 = dga.square_zero(q, 0)
    jobs.append(Job(
        "bidual_cohomology(k+k[0]) refused", _win(-4, 1),
        lambda: dual.bidual_cohomology(sq0, Window(-4, 1)),
        None, refusal="non-convergent"))
    archetype = dga.algebra_slice(dga.square_zero(q, 0), Window(0, 0))
    jobs += [
        Job("verify_square(k+k[0], s=1)", None,
            lambda: bool(artin.verify_square(
                *artin.small_extension_square(archetype, 1))),
            _eq(refs.SQUARE_ARCHETYPE_VERDICT)),
        Job("verify_square(k[x]/x^3, s=1)", None,
            lambda: bool(artin.verify_square(
                *artin.small_extension_square(cubic_slice, 1))),
            _eq(refs.SQUARE_CUBIC_VERDICT)),
        Job("is_artin(xyz)", None,
            lambda: artin.is_artin(xyz).verdict, _eq(True)),
        Job("radical_filtration(xyz)", None,
            lambda: artin.radical_filtration(xyz),
            lambda s: (s.radical_dims == refs.radical_dims_exterior(3)
                       and s.length == refs.exterior_total_dim(3)
                       and s.factors == ["k"] * refs.exterior_total_dim(3))),
    ]
    for n in (1, 2, 3):
        kos = dgmod.koszul_complex(q, n)
        jobs.append(Job(
            f"verify_free_filtration(Kos({n}))", _win(0, 3 * (n + 1)),
            lambda kos=kos, n=n: dgmod.verify_free_filtration(
                kos, Window(0, 3 * (n + 1))),
            lambda cert, n=n: (bool(cert) and [s["generator_degree"]
                                               for s in cert.steps] == [0, n])))
        jobs.append(Job(
            f"strict_tensor(Kos({n}))", _win(-1, n + 2),
            lambda kos=kos, n=n: dgmod.strict_tensor(
                kos, Window(-1, n + 2)).cohomology(representatives=False).dims,
            lambda got, n=n: ({d: got.get(d, 0) for d in range(0, n + 2)}
                              == refs.tor_free_one(n, 0, n + 1))))
        sq = dga.square_zero(q, n)
        k = dgmod.trivial_module(sq)
        jobs.append(Job(
            f"derived_tensor_dims(k, k+k[{n}], k)", _win(-8, 0),
            lambda sq=sq, k=k: bar.derived_tensor_dims(k, sq, k, Window(-8, 0)),
            _eq(refs.tor_square_zero(n, -8, 0))))
    rng.shuffle(jobs)
    serve = CliJob("cli dual k+k[1] --power-gen 2", _win(0, 12),
                   ["dual", docs["sq1"], "--window=0..12", "--power-gen", "2"],
                   lambda r: (_dims(r) == refs.ext_square_zero(1, 0, 12)
                              and r["result"]["power_generated"] is True))
    return Workload("ring_oracle", _with_serve(jobs, serve),
                    largest="dual_cohomology_ring(k[x,y]/(x^2,y^2))")


def _ring_with_powers(field, window, g):
    report = dual.dual_cohomology_ring(dga.square_zero(field, 1), window)
    return report, dual.check_power_generation(report, g)


# -- command-line workload ----------------------------------------------------


def cli_jobs(docs):
    """Twelve distinct jobs covering all eight subcommands at small windows."""
    ext_xyz = refs.ext_exterior(3, 0, 4)
    return [
        CliJob("validate xyz table", _win(0, 0),
               ["validate", docs["xyz"], "--window=0..0"],
               lambda r: (r["result"]["ok"] is True
                          and r["result"]["dims"]
                          == [[0, refs.exterior_total_dim(3)]])),
        CliJob("bar k[x]/x^3 Q", _win(-7, 0),
               ["bar", docs["cubic"], "--window=-7..0"],
               _dims_check(refs.tor_exterior(1, -7, 0))),
        CliJob("bar k[x]/x^3 F_32003", _win(-9, 0),
               ["bar", docs["cubic"], "--window=-9..0", "--field", FP],
               _dims_check(refs.tor_exterior(1, -9, 0))),
        CliJob("dual k+k[1] --power-gen 2", _win(0, 10),
               ["dual", docs["sq1"], "--window=0..10", "--power-gen", "2"],
               lambda r: (_dims(r) == refs.ext_square_zero(1, 0, 10)
                          and r["result"]["power_generated"] is True)),
        CliJob("dual k[x]/x^3 --ring", _win(0, 6),
               ["dual", docs["cubic"], "--window=0..6", "--ring"],
               lambda r: (_dims(r) == refs.ext_exterior(1, 0, 6)
                          and _cubic_ring(r["result"]["ring"]))),
        CliJob("ext xyz table", _win(0, 4),
               ["ext", docs["xyz"], "--window=0..4"],
               lambda r: (_dims(r, "ext_dims") == ext_xyz
                          and _dims(r, "dual_dims") == ext_xyz
                          and r["result"]["agree"] is True)),
        CliJob("ext k[x]/x^3", _win(0, 8),
               ["ext", docs["cubic"], "--window=0..8"],
               lambda r: (_dims(r, "ext_dims") == refs.ext_exterior(1, 0, 8)
                          and r["result"]["agree"] is True)),
        CliJob("bidual k+k[1]", _win(-3, 1),
               ["bidual", docs["sq1"], "--window=-3..1"],
               lambda r: (_dims(r, "bidual_dims")
                          == refs.input_square_zero(1, -3, 1)
                          and r["result"]["agree"] is True)),
        CliJob("bidual k+k[0] refused", _win(-2, 1),
               ["bidual", docs["sq0"], "--window=-2..1"],
               lambda r: (r["result"] is None
                          and "non-convergent" in r["flags"]["refusal"]),
               code=2),
        CliJob("tensor k k<u> k --strict-via-kos 1", _win(0, 2),
               ["tensor", docs["k"], docs["u2"], docs["k"], "--window=0..2",
                "--strict-via-kos", "1"],
               lambda r: (_dims(r, "derived_dims") == refs.tor_free_one(1, 0, 2)
                          and _dims(r, "strict_dims") == refs.tor_free_one(1, 0, 2)
                          and r["result"]["strict_matches_derived"] is True)),
        CliJob("square small_extension k+k[0] s=1", None,
               ["square", docs["square"]],
               lambda r: r["result"]["verdict"] is refs.SQUARE_ARCHETYPE_VERDICT),
        CliJob("series xyz table", None,
               ["series", docs["xyz"]],
               lambda r: (r["result"]["radical_dims"]
                          == refs.radical_dims_exterior(3)
                          and r["result"]["length"] == refs.exterior_total_dim(3))),
    ]


def build_cli_cache(seed, docs):
    rng = random.Random(seed)
    schedule = []
    for job in cli_jobs(docs):
        count = CLI_REFUSAL_CALLS if job.code != 0 else 1 + CLI_WARM
        schedule += [job] * count
    rng.shuffle(schedule)
    corrupt = next(j for j in schedule if j.name == CORRUPT_JOB)
    # A fresh order every pass: where a job's cold call falls among the
    # others moves its latency (by up to 14 % on miss_p50_ms from one seed's
    # single order to the next), and a run should average over that.
    return Workload("cli_cache", [CliCall(0, job) for job in schedule],
                    largest="ext xyz table", corrupt=CliCall(0, corrupt),
                    order_seed=seed)


# -- inputs -------------------------------------------------------------------


DOCUMENTS = {
    "cubic": {"builder": "truncated_polynomial", "m": 3, "d": 0},
    "sq0": {"builder": "square_zero", "n": 0},
    "sq1": {"builder": "square_zero", "n": 1},
    "u2": {"builder": "free_assoc", "gens": [["u", 2]]},
    "k": {"module": "trivial"},
    "square": {"square": "small_extension",
               "algebra": {"builder": "square_zero", "n": 0}, "shift": 1},
    "xyz": _xyz_document(),
}

BUILDERS = {
    "dims_q": build_dims_q,
    "dims_fp": build_dims_fp,
    "ring_oracle": build_ring_oracle,
    "cli_cache": build_cli_cache,
}


def write_documents(directory):
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for key, doc in DOCUMENTS.items():
        path = os.path.join(directory, key + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        paths[key] = path
    return paths


def build(name, seed, directory):
    """Write the documents into directory and build the workload."""
    return BUILDERS[name](seed, write_documents(directory))
