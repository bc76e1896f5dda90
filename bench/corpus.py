"""Seeded inputs and job lists for the four benchmark workloads.

Everything here is built with plain ints and Fractions (see oracle.py), so
the inputs and the expected answers do not depend on the code under test.
A job is one CLI invocation; ``build`` writes its input files and returns
the jobs in the fixed order of one pass.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field as dc_field
from typing import Callable

import oracle as O

P = 10007  # word-size prime of the mod-p workloads


@dataclass
class Job:
    id: str
    argv: list[str]
    check: Callable[[dict], list[str]]
    largest: bool = False         # member of the workload's largest-input class
    rnf: bool = False             # runs rnf_transform (verify spans expected)
    files: list[str] = dc_field(default_factory=list)


# -- random elements, chains and conjugators -----------------------------


def _elem(rng, p, lo=-3, hi=3):
    return rng.randrange(p) if p else O.canon(0, rng.randint(lo, hi))


def _monic(rng, p, d):
    return [_elem(rng, p) for _ in range(d)] + [O.canon(p, 1)]


def chain_for(rng, p, parts):
    """A random divisibility chain P_1, ..., P_r with deg P_i = parts[i]."""
    chain = [_monic(rng, p, parts[-1])]
    for d_big, d_small in zip(reversed(parts[:-1]), reversed(parts[1:])):
        chain.insert(0, O.poly_mul(p, chain[0], _monic(rng, p, d_big - d_small)))
    return chain


def dense(rng, p, n, lo=-9, hi=9):
    return [[O.canon(p, rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]


def random_invertible(rng, p, n):
    while True:
        s = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if O.det(p, s):
            return s


def conjugate(p, mats, s):
    """s^-1 * m * s for each m."""
    si = O.inverse(p, s)
    return [O.mat_mul(p, O.mat_mul(p, si, m), s) for m in mats]


def conjugate_unimodular(rng, p, mats, steps):
    """Conjugate by a product of random transvections I + e*E_ij, e = +-1,
    so integer matrices stay integer with small entries."""
    mats = [[list(row) for row in m] for m in mats]
    n = len(mats[0])
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        e = rng.choice((-1, 1))
        for m in mats:
            for row in m:
                row[j] = O.canon(p, row[j] + e * row[i])
            m[i] = [O.canon(p, x - e * y) for x, y in zip(m[i], m[j])]
    return mats


def unimodular(rng, n, steps):
    """A product of random column transvections: integer, with integer inverse."""
    s = O.identity(0, n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        e = rng.choice((-1, 1))
        for row in s:
            row[j] += e * row[i]
    return s


def diagonal_conjugate(rng, p, mats):
    """D * m * D^-1 for a random diagonal D: of units over GF(p), of signs
    over Q.  Zero patterns, degrees and coefficient sizes are kept, so every
    algorithm takes the same steps at the same cost on the new input."""
    n = len(mats[0])
    d = [rng.randrange(1, p) if p else rng.choice((-1, 1)) for _ in range(n)]
    dinv = [O.inv(p, x) for x in d]
    return [[[O.canon(p, d[i] * m[i][j] * dinv[j]) for j in range(n)] for i in range(n)] for m in mats]


def qform(rng, p):
    """A point (a11, b11, b21) of the normalized family Q."""
    while True:
        a, b, c = (_elem(rng, p, -4, 4) for _ in range(3))
        if O.canon(p, a * b * c * (4 * a * b + c)):
            return a, b, c


def qform_pair(p, a, b, c):
    zero, one = O.canon(p, 0), O.canon(p, 1)
    return [[a, one], [zero, O.canon(p, -a)]], [[b, zero], [c, O.canon(p, -b)]]


def split_instance(rng, p, n, conj):
    """S(n-2) (+) T for a Q-form pair T; returns (m1, m2, triple of T)."""
    s1, s2 = O.simple_pair(p, n - 2)
    t1, t2 = qform_pair(p, *qform(rng, p))
    m = [O.block_diag(p, [s1, t1]), O.block_diag(p, [s2, t2])]
    m1, m2 = conj(m)
    return m1, m2, O.triple(p, t1, t2)


# -- files ----------------------------------------------------------------


def _header(p):
    return "field Q" if p == 0 else f"field GF {p}"


def format_matrix(p, m):
    lines = [_header(p), f"{len(m)} {len(m[0])}"]
    lines += [" ".join(str(x) for x in row) for row in m]
    return "\n".join(lines) + "\n"


class _Writer:
    def __init__(self, directory):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def put(self, name, text):
        path = os.path.join(self.directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path


# -- job constructors -----------------------------------------------------


def rnf_job(w, jid, p, a, expected, verify=True, largest=False, override=False):
    path = w.put(f"{jid}.mat", format_matrix(p, a))
    argv = ["rnf", path, "--format", "json"]
    if verify:
        argv.append("--verify")
    if override:
        argv += ["--field"] + (["Q"] if p == 0 else ["GF", str(p)])
    return Job(jid, argv, lambda out: O.check_rnf(p, a, expected, out, verify),
               largest=largest, rnf=True, files=[path])


def normal_form_job(w, jid, p, a, expected, family, largest=False):
    path = w.put(f"{jid}.mat", format_matrix(p, a))
    argv = ["normal-form", path, "--family", family, "--format", "json"]
    return Job(jid, argv, lambda out: O.check_normal_form(p, a, expected, out, family),
               largest=largest, files=[path])


def affine_job(w, jid, p, a, expected):
    path = w.put(f"{jid}.mat", format_matrix(p, a))
    return Job(jid, ["affine", path, "--format", "json"],
               lambda out: O.check_affine(p, a, expected, out), files=[path])


def verify_job(w, jid, p, a, r, t):
    paths = [w.put(f"{jid}.{k}.mat", format_matrix(p, m)) for k, m in (("a", a), ("r", r), ("t", t))]

    def check(out):
        return [] if out["status"] == "ok" else ["verify rejected a correct (R, T)"]
    return Job(jid, ["verify", *paths, "--format", "json"], check, files=paths)


def hom_job(w, jid, p, m1, m2, largest=False):
    path = w.put(f"{jid}.pair", format_matrix(p, m1) + format_matrix(p, m2))
    return Job(jid, ["pairs", "hom", path, path, "--format", "json"],
               lambda out: O.check_hom(out, 2), largest=largest, files=[path])


def split_job(w, jid, p, m1, m2, tail, largest=False):
    path = w.put(f"{jid}.pair", format_matrix(p, m1) + format_matrix(p, m2))
    return Job(jid, ["pairs", "split", path, "--format", "json"],
               lambda out: O.check_split(p, m1, m2, tail, out), largest=largest, files=[path])


# -- workloads --------------------------------------------------------------


def rnf_modp(rng, w):
    # The cost of the k[X] diagonalization depends on the matrix: over ten
    # seeds one derogatory class took 1.1 s to 4.2 s.  So, as in exact_q,
    # the matrices are fixed per class and the seed applies a diagonal
    # similarity.  GF(2) has no nontrivial one, so its matrices stay fixed.
    def fixed(tag):
        return random.Random(f"rnf-modp/{tag}")

    def jitter(a):
        return diagonal_conjugate(rng, P, [a])[0]

    jobs = []
    for n in (16, 24, 32):
        a = jitter(dense(fixed(f"dense-{n}-0"), P, n))
        jobs.append(rnf_job(w, f"dense-{n}-0", P, a, None, largest=n == 32))
    for parts in ((8, 8, 8, 8), (16, 8, 4, 4), (12, 12, 8)):
        jid = "derog-" + "-".join(map(str, parts))
        f = fixed(jid)
        chain = chain_for(f, P, parts)
        (a,) = conjugate(P, [O.rnf_matrix(P, chain)], random_invertible(f, P, 32))
        jobs.append(rnf_job(w, jid, P, jitter(a), chain, largest=True))
    nil = [[0] * d + [1] for d in (12, 8, 6, 4, 2)]
    (a,) = conjugate(P, [O.rnf_matrix(P, nil)], random_invertible(fixed("nilpotent-32"), P, 32))
    jobs.append(rnf_job(w, "nilpotent-32", P, jitter(a), nil))
    c = rng.randrange(1, P)
    scalar = [[(c if i == j else 0) for j in range(32)] for i in range(32)]
    jobs.append(rnf_job(w, "scalar-32", P, scalar, [[P - c, 1]] * 32))
    for n in (32, 40):
        jobs.append(rnf_job(w, f"gf2-dense-{n}", 2, dense(fixed(f"gf2-dense-{n}"), 2, n), None))
    return jobs


def pairs_modp(rng, w):
    jobs = []
    for n in (8, 10, 12):
        for i in range(2):
            conj = lambda m: conjugate(P, m, random_invertible(rng, P, n))  # noqa: E731
            m1, m2, tail = split_instance(rng, P, n, conj)
            jobs.append(hom_job(w, f"hom-{n}-{i}", P, m1, m2, largest=n == 12))
            jobs.append(split_job(w, f"split-{n}-{i}", P, m1, m2, tail))
    return jobs


def exact_q(rng, w):
    # Over Q the cost of one algorithm varies up to 20x between random
    # matrices of one size (coefficient swell depends on the pivots met), so
    # the matrices are fixed per class and the seed only flips signs by a
    # diagonal similarity, which keeps every coefficient size.  Dense n = 13
    # is left out: its fixed matrix takes 27 s.
    jobs = []

    def fixed(tag):
        return random.Random(f"exact-q/{tag}")

    for n in (10, 11, 12):
        (a,) = diagonal_conjugate(rng, 0, [dense(fixed(f"dense-{n}"), 0, n)])
        jobs.append(rnf_job(w, f"rnf-dense-{n}", 0, a, None))
    (a,) = diagonal_conjugate(rng, 0, [dense(fixed("dense-12"), 0, 12)])
    jobs.append(normal_form_job(w, "nf-dense-12", 0, a, None, "affine"))
    for parts in ((6, 4, 2), (4, 4, 2, 2)):
        f = fixed("derog-" + "-".join(map(str, parts)))
        chain = chain_for(f, 0, parts)
        (a,) = conjugate_unimodular(f, 0, [O.rnf_matrix(0, chain)], 3 * sum(parts))
        (a,) = diagonal_conjugate(rng, 0, [a])
        jid = "nf-derog-" + "-".join(map(str, parts))
        jobs.append(normal_form_job(w, jid, 0, a, chain, "affine"))
    for n, count in ((6, 1), (8, 3)):
        for i in range(count):
            f = fixed(f"split-{n}-{i}")
            m1, m2, tail = split_instance(f, 0, n, lambda m: conjugate_unimodular(f, 0, m, 2 * n))
            m1, m2 = diagonal_conjugate(rng, 0, [m1, m2])
            jobs.append(hom_job(w, f"hom-{n}-{i}", 0, m1, m2, largest=n == 8))
            if n == 8 and i == 0:
                jobs.append(split_job(w, "split-8", 0, m1, m2, tail))
    return jobs


def cli_small(rng, w):
    jobs = []
    for p in (2, 3, 7, 0):
        label = "Q" if p == 0 else f"GF({p})"
        # The simple pair needs n - 2 <= p.  Over GF(3) its 2x2 member is
        # trace-zero with the triple of every Q-form point, so n = 4 would
        # make S isomorphic to T.  Over Q, hom at n = 6 already takes
        # 100 times a typical job here, so Q pairs stay at n <= 4.
        pair_sizes = {2: (3, 4), 3: (3, 5), 7: (3, 4, 5, 6)}.get(p, (3, 4))
        for k in range(6):
            n = 2 + k % 5
            # The partition sets the work of every matrix job, so it is the
            # same for every seed; the seed draws the coefficients.
            parts = _random_partition(random.Random(f"cli-small/{p}/{k}"), n)
            chain = chain_for(rng, p, parts)
            r = O.rnf_matrix(p, chain)
            if p:
                s = random_invertible(rng, p, n)
                (a,) = conjugate(p, [r], s)
            else:
                (a,) = conjugate_unimodular(rng, 0, [r], 2 * n)
                s = None
            tag = f"{label}-{k}"
            matrix_jobs = [
                rnf_job(w, f"rnf-v-{tag}", p, a, chain, override=k % 2 == 0),
                rnf_job(w, f"rnf-{tag}", p, a, chain, verify=False),
                affine_job(w, f"affine-{tag}", p, a, chain),
                *(normal_form_job(w, f"nf-{fam}-{tag}", p, a, chain, fam)
                  for fam in ("rational", "affine")),
            ]
            if s is None:
                s = unimodular(rng, n, 2 * n)
            t = O.inverse(p, s)
            a_rt = O.mat_mul(p, O.mat_mul(p, t, r), s)   # T R T^-1
            matrix_jobs.append(verify_job(w, f"verify-{tag}", p, a_rt, r, t))
            for job in matrix_jobs:
                job.largest = n == 6
            jobs += matrix_jobs
            jobs += _pair_jobs(rng, w, p, tag)
            npair = pair_sizes[k % len(pair_sizes)]
            m1, m2, tail = split_instance(rng, p, npair, _small_conj(rng, p, npair))
            jobs.append(hom_job(w, f"hom-{tag}", p, m1, m2))
            jobs.append(split_job(w, f"split-{tag}", p, m1, m2, tail))
    for k in range(2):
        jobs.append(Job(f"selftest-{k}", ["selftest", "--format", "json"],
                        lambda out: [] if out["status"] == "ok" else ["selftest reported a mismatch"]))
    return jobs


def _small_conj(rng, p, n):
    if p:
        return lambda m: conjugate(p, m, random_invertible(rng, p, n))
    return lambda m: conjugate_unimodular(rng, 0, m, 2 * n)


def _pair_jobs(rng, w, p, tag):
    a11, b11, b21 = qform(rng, p)
    qa, qb = qform_pair(p, a11, b11, b21)
    a, b = _small_conj(rng, p, 2)([qa, qb])
    path = w.put(f"pair-{tag}.pair", format_matrix(p, a) + format_matrix(p, b))
    fld = ["Q"] if p == 0 else ["GF", str(p)]
    x = O.triple(p, qa, qb)
    return [
        Job(f"inv-{tag}", ["pairs", "invariants", path, "--format", "json"],
            lambda out: O.check_invariants(p, a, b, out), files=[path]),
        Job(f"reduce-{tag}", ["pairs", "reduce", path, "--format", "json"],
            lambda out: O.check_reduce(p, a, b, out), files=[path]),
        Job(f"fiber-{tag}", ["pairs", "fiber", *map(str, x), "--field", *fld, "--format", "json"],
            lambda out: O.check_fiber(p, x, out)),
    ]


def _random_partition(rng, n):
    parts = []
    left = n
    while left:
        d = rng.randint(1, min(left, parts[-1] if parts else left))
        parts.append(d)
        left -= d
    return parts


WORKLOADS = {
    "rnf-modp": (rnf_modp, (P, 2)),
    "pairs-modp": (pairs_modp, (P,)),
    "exact-q": (exact_q, (0,)),
    "cli-small": (cli_small, (2, 3, 7, 0)),
}


def build(workload: str, seed: int, directory: str) -> tuple[list[Job], tuple[int, ...]]:
    """The job list of one pass and the fields (characteristics) it uses."""
    make, fields = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    return make(rng, _Writer(directory)), fields
