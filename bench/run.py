"""matcanon benchmark: seeded CLI workloads, checked answers, traced layers.

    python3 bench/run.py --workload rnf-modp --seed 1 --seconds 20 --trace 0

One process, one thread, closed loop: each workload's fixed job list is
sent through ``matcanon.cli.main(argv)`` in-process, round after round,
until the next job would overrun ``--seconds``.  Answers are checked
after the timed rounds, against oracles in oracle.py and against the
frozen digests in digests.json.  ``--trace 0`` prints the end-to-end
metrics, with job and set-up times scaled to a reference host's speed by
host-speed probes taken between jobs (see Probe); ``--trace 1`` runs every
job untraced and then traced and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is the JSON result;
bench/out/ keeps the full record.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

JOB_TIMEOUT_S = 30
SETUP_REPEATS = 15
FAILURE_SAMPLES = 20
PROBE_EVERY_S = 0.2      # job time between two host-speed samples
PROBE_RUNS = 20          # kernel runs in one sample
PROBE_NOMINAL_S = 0.001  # kernel time on the reference host


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job that ran past JOB_TIMEOUT_S."""


def _on_alarm(signum, frame):
    raise JobTimeout()


# -- environment -------------------------------------------------------


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "commit": _git_commit(),
        "timer": "time.perf_counter",
    }


# -- host speed ----------------------------------------------------------


def _probe_kernel():
    """Fixed stdlib-only work in the style of matcanon's inner loops."""
    p = 10007
    row = list(range(1, 121))
    acc = 0
    for i in range(1, 41):
        scaled = [x * i % p for x in row]
        acc = (acc + sum(x * y for x, y in zip(scaled, row))) % p
    q = Fraction(0)
    for k in range(1, 13):
        q += Fraction(acc % 97 + k, k * k + 1)
    return q


class Probe:
    """Host-speed samples taken between jobs.

    A shared host's speed drifts by tens of percent within a run and from
    one run to the next, alike for every job and for set-up.  A sample is
    the mean time of PROBE_RUNS runs of a fixed kernel that does not touch
    matcanon (a mean, so that time the process loses to the host counts as
    it does in a job).  A time measured between samples i and i + 1 is
    multiplied by PROBE_NOMINAL_S over their mean, which states it in
    seconds of the reference host.
    """

    def __init__(self):
        self.times: list[float] = []
        _probe_kernel()  # warm-up, not timed

    def sample(self) -> int:
        gc.disable()  # the jobs' garbage is theirs to collect, not the probe's
        start = time.perf_counter()
        for _ in range(PROBE_RUNS):
            _probe_kernel()
        self.times.append((time.perf_counter() - start) / PROBE_RUNS)
        gc.enable()
        return len(self.times) - 1

    def scale(self, seconds: float, i: int) -> float:
        """``seconds`` measured after sample i and before sample i + 1."""
        return seconds * PROBE_NOMINAL_S / ((self.times[i] + self.times[i + 1]) / 2)


# -- set-up --------------------------------------------------------------


def set_up(fields: tuple[int, ...]) -> float:
    """Import matcanon afresh and build the workload's fields; seconds taken."""
    for name in [m for m in sys.modules if m == "matcanon" or m.startswith("matcanon.")]:
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("matcanon.cli")
    fmod = sys.modules["matcanon.fields"]
    for p in fields:
        (fmod.GF(p) if p else fmod.QQ).poly_ops()
    return time.perf_counter() - start


def timed_set_ups(fields) -> tuple[float, float]:
    """Median set-up time over SETUP_REPEATS, scaled and as wall time; a
    probe sample is taken before each set-up and after the last."""
    probe = Probe()
    scaled, wall = [], []
    before = probe.sample()
    for _ in range(SETUP_REPEATS):
        seconds = set_up(fields)
        after = probe.sample()
        scaled.append(probe.scale(seconds, before))
        wall.append(seconds)
        before = after
    return statistics.median(scaled), statistics.median(wall)


# -- running -------------------------------------------------------------


@dataclass(slots=True)
class Attempt:
    job: object
    seconds: float
    code: int | None
    output: str
    error: str | None
    scaled: float = 0.0  # seconds of the reference host (see Probe)


def run_job(cli, job) -> Attempt:
    buf = io.StringIO()
    code, error = None, None
    signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(job.argv)
    except JobTimeout:
        error = f"timeout after {JOB_TIMEOUT_S} s"
    except SystemExit as exc:
        error = f"exit {exc.code}"
    except Exception as exc:  # a crash in the program is a failed job, not a crashed run
        error = f"{type(exc).__name__}: {exc}"
    finally:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
    return Attempt(job, end - start, code, buf.getvalue(), error)


def run_cycling(cli, jobs, seconds, probe):
    """One full pass, then the job list again and again until the next job
    would end past ``seconds`` (judged by that job's last latency).  A
    host-speed sample is taken before a job once PROBE_EVERY_S of job time
    has passed since the last one, and after the last job; each attempt is
    scaled by the two samples around it."""
    began = time.perf_counter()
    attempts, marks = [], []
    last: dict[str, float] = {}
    since = PROBE_EVERY_S
    i = 0
    while i < len(jobs) or time.perf_counter() - began + last[jobs[i % len(jobs)].id] <= seconds:
        if since >= PROBE_EVERY_S:
            mark = probe.sample()
            since = 0.0
        at = run_job(cli, jobs[i % len(jobs)])
        attempts.append(at)
        marks.append(mark)
        last[at.job.id] = at.seconds
        since += at.seconds
        i += 1
    probe.sample()
    for at, mark in zip(attempts, marks):
        at.scaled = probe.scale(at.seconds, mark)
    return attempts


# -- checking ------------------------------------------------------------


def digest(output: str) -> str:
    """Digest of a report without its (non-unique) transform."""
    report = json.loads(output)
    report.pop("transform", None)
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()[:16]


def check(attempts):
    """Mark each attempt ok or failed; returns (ok flags, failures, digests).

    The first output of a job is checked by its oracle; later outputs of
    the same job must repeat it byte for byte.
    """
    first: dict[str, str] = {}
    first_problem: dict[str, str | None] = {}
    digests: dict[str, str] = {}
    failures: list[tuple[str, str]] = []
    ok_flags = []
    for at in attempts:
        problem = at.error
        if problem is None and at.code != 0:
            problem = f"exit code {at.code}"
        if problem is None:
            jid = at.job.id
            if jid not in first:
                first[jid] = at.output
                try:
                    out = json.loads(at.output)
                    problems = [] if out.get("status") == "ok" else [f"status {out.get('status')}"]
                    problems += at.job.check(out)
                    digests[jid] = digest(at.output)
                except Exception as exc:  # malformed output can break any oracle step
                    problems = [f"unreadable report: {type(exc).__name__}: {exc}"]
                problem = first_problem[jid] = "; ".join(problems) or None
            elif at.output != first[jid]:
                problem = "output differs from the job's first output"
            else:
                problem = first_problem[jid]
        ok_flags.append(problem is None)
        if problem is not None:
            failures.append((at.job.id, problem))
    return ok_flags, failures, digests


# -- metrics -------------------------------------------------------------


def _quantile(values, q):
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0]
    pos = q * (len(vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def end_to_end(jobs, attempts, ok_flags, setup_s, scaled=True):
    """Each job's latency is the mean of its attempts in the run: scaling
    has taken out the host's drift, and a long job has only two or three
    attempts, of which a mean keeps more than a median does.  A job with a
    failed attempt counts as infinitely slow and as not completed.  Job
    times are those scaled to the reference host unless ``scaled`` is off."""
    times: dict[str, list[float]] = {job.id: [] for job in jobs}
    for at, ok in zip(attempts, ok_flags):
        times[at.job.id].append((at.scaled if scaled else at.seconds) if ok else float("inf"))
    lat = {jid: statistics.fmean(ts) for jid, ts in times.items()}
    largest = [lat[job.id] for job in jobs if job.largest]
    n_largest = sum(len(times[job.id]) for job in jobs if job.largest)
    n = len(attempts)
    completed = sum(1 for x in lat.values() if x != float("inf"))
    metrics = {
        "jobs_per_s": (completed / sum(lat.values()), "1/s", n),
        "job_p50_s": (_quantile(lat.values(), 0.5), "s", n),
        "job_p90_s": (_quantile(lat.values(), 0.9), "s", n),
        "largest_p50_s": (_quantile(largest, 0.5), "s", n_largest),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "setup_s": (setup_s, "s", SETUP_REPEATS),
    }
    return metrics


def _bits(x) -> int:
    if isinstance(x, int):
        return x.bit_length()
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def per_layer(tracer, traced, untraced_wall, traced_wall):
    """Layer metrics per traced round."""
    from tracing import JOB, LEAVES, NAME

    tot = tracer.totals
    rounds = len(traced)

    def calls(*names):
        return sum(tot[n][0] for n in names) / rounds

    def self_s(*names):
        return sum(tot[n][1] for n in names) / rounds

    def work(*names):
        return sum(tot[n][2] for n in names) / rounds

    # Verification: matrix inverse/product/det under rnf_transform, and
    # directly under cli.main for `rnf --verify`.
    verify_jobs = {f"{lab}:{at.job.id}" for lab, ats in traced for at in ats
                   if at.job.rnf and "--verify" in at.job.argv}
    verify_s = 0.0
    verify_by_job: dict[str, float] = {}
    for rec in tracer.spans:
        if rec[NAME] == "rnf.rnf_transform" or (rec[NAME] == "cli.main" and rec[JOB] in verify_jobs):
            leaves = rec[LEAVES] or {}
            part = sum(leaves.get(k, (0, 0.0))[1] for k in ("matrix.inverse", "matrix.mul", "matrix.det"))
            verify_s += part
            if rec[NAME] == "rnf.rnf_transform":
                verify_by_job[rec[JOB]] = verify_by_job.get(rec[JOB], 0.0) + part

    chain_bits, t_bits = 0, 0
    for name, result in tracer.results:
        if name == "rnf.invariant_factors":
            for f in result.factors:
                chain_bits = max(chain_bits, max(map(_bits, f.coeffs)))
        elif name == "rnf.rnf_transform":
            t = result[1]
            if t.field.characteristic == 0:
                t_bits = max(t_bits, max(_bits(x) for row in t._rows for x in row))

    polyops = [f"polyops.{m}" for m in ("add", "sub", "mul", "scale", "divmod", "monic", "neg")]
    elim = [f"matrix.{m}" for m in ("rank", "rank_and_kernel", "inverse", "det")]
    poly = [f"poly.{m}" for m in ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "__divmod__", "product")]
    out_bytes = sum(len(at.output.encode()) for _, ats in traced for at in ats) / rounds
    layer = {
        "cli.self_s": (self_s("cli.main"), "s"),
        "cli.render_s": (self_s("cli.render_json"), "s"),
        "cli.output_bytes": (out_bytes, "bytes"),
        "fileio.parse_s": (self_s("fileio.parse_matrix_file", "fileio.parse_pair_file",
                                  "fileio.parse_matrix_text", "fileio.parse_pair_text",
                                  "fileio.parse_field_words"), "s"),
        "fileio.input_bytes": (work("fileio.parse_matrix_file", "fileio.parse_pair_file"), "bytes"),
        "rnf.invariant_factors.calls": (calls("rnf.invariant_factors"), "count"),
        "rnf.invariant_factors.self_s": (self_s("rnf.invariant_factors"), "s"),
        "rnf.rnf_transform.calls": (calls("rnf.rnf_transform"), "count"),
        "rnf.rnf_transform.self_s": (self_s("rnf.rnf_transform"), "s"),
        "rnf.verify_s": (verify_s / rounds, "s"),
        "rnf.chain_max_bits": (chain_bits, "bits"),
        "rnf.t_max_bits": (t_bits, "bits"),
        "fields.polyops.mul.calls": (calls("polyops.mul"), "count"),
        "fields.polyops.divmod.calls": (calls("polyops.divmod"), "count"),
        "fields.polyops.addsub.calls": (calls("polyops.add", "polyops.sub"), "count"),
        "fields.polyops.self_s": (self_s(*polyops), "s"),
        "fields.polyops.mul.coeff_products": (work("polyops.mul"), "products"),
        "poly.calls": (calls(*poly), "count"),
        "poly.self_s": (self_s(*poly), "s"),
        "matrix.mul.calls": (calls("matrix.mul"), "count"),
        "matrix.mul.self_s": (self_s("matrix.mul"), "s"),
        "matrix.mul_vector.calls": (calls("matrix.mul_vector"), "count"),
        "matrix.mul_vector.self_s": (self_s("matrix.mul_vector"), "s"),
        "matrix.elim.calls": (calls(*elim), "count"),
        "matrix.elim.self_s": (self_s(*elim), "s"),
        "matrix.elim.cells": (work(*elim), "cells"),
        "pairs.hom.calls": (calls("pairs.hom_dimension", "pairs.intertwiners"), "count"),
        "pairs.system_s": (self_s("pairs.hom_dimension", "pairs.intertwiners"), "s"),
        "pairs.system_cells": (work("pairs.hom_dimension", "pairs.intertwiners"), "cells"),
        "pairs.split.self_s": (self_s("pairs.split_off_simple"), "s"),
        "pairs.reduce.self_s": (self_s("pairs.reduce_to_q"), "s"),
        "affine.self_s": (self_s("affine.to_affine", "affine.affine_point"), "s"),
        "trace.overhead_frac": ((traced_wall - untraced_wall) / untraced_wall, "ratio"),
    }
    rnf_jobs = {f"{lab}:{at.job.id}" for lab, ats in traced for at in ats if at.job.rnf}
    return layer, rnf_jobs, verify_by_job


# -- main ----------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        print("run without -O: rnf_transform's certificate is an assert", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "matcanon", "cli.py")):
        print(f"no matcanon sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import corpus

    if args.workload not in corpus.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(corpus.WORKLOADS)}", file=sys.stderr)
        return 2
    env = provenance(args)
    work_dir = os.path.join(BENCH, "work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work_dir, ignore_errors=True)
    jobs, fields = corpus.build(args.workload, args.seed, work_dir)

    setup_s, setup_wall_s = timed_set_ups(fields)
    cli = sys.modules["matcanon.cli"]
    if not cli.__file__.startswith(SRC):
        print(f"matcanon imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)

    tracer = None
    untraced, traced = [], []
    if args.trace:
        # Each job runs untraced and then traced, back to back, so the two
        # latency sums see the same machine state and their ratio is the
        # tracing overhead.
        from tracing import Tracer
        tracer = Tracer({path: os.path.getsize(path) for job in jobs for path in job.files})
        untraced_wall = traced_wall = 0.0
        began = time.perf_counter()
        while True:
            round_began = time.perf_counter()
            label = f"t{len(traced)}"
            plain, traced_round = [], []
            for job in jobs:
                plain.append(run_job(cli, job))
                tracer.job = f"{label}:{job.id}"
                tracer.install()
                try:
                    traced_round.append(run_job(cli, job))
                finally:
                    tracer.uninstall()
            untraced.append(plain)
            traced.append((label, traced_round))
            untraced_wall += sum(at.seconds for at in plain)
            traced_wall += sum(at.seconds for at in traced_round)
            now = time.perf_counter()
            if now - began + (now - round_began) > args.seconds:
                break
    else:
        probe = Probe()
        untraced.append(run_cycling(cli, jobs, args.seconds, probe))

    frozen = _frozen_digest(args.workload, args.seed)
    all_attempts = [at for ats in untraced for at in ats] + [at for _, ats in traced for at in ats]
    ok_flags, failures, digests = check(all_attempts)
    violations = []
    combined = hashlib.sha256(json.dumps([[job.id, digests.get(job.id)] for job in jobs]).encode()).hexdigest()
    if frozen is not None and frozen != combined:
        violations.append("outputs differ from the frozen digest of this workload and seed")

    result = {"provenance": env, "traced_rounds": len(traced), "digest": combined,
              "job_digests": digests, "frozen_digest_checked": frozen is not None}
    if args.trace:
        layer, rnf_jobs, verify_by_job = per_layer(tracer, traced, untraced_wall, traced_wall)
        missing = sorted(j for j in rnf_jobs if verify_by_job.get(j, 0.0) <= 0.0)
        if missing:
            violations.append(f"no verification time under rnf_transform for {missing[:3]}")
        if args.workload == "pairs-modp":
            used = [m for m in layer if m.startswith("fields.polyops.") and m.endswith(".calls") and layer[m][0]]
            if used:
                violations.append(f"pairs-modp made polynomial calls: {used}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        tracer.write(os.path.join(_out_dir(), f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        e2e = end_to_end(jobs, all_attempts, ok_flags, setup_s)
        wall = end_to_end(jobs, all_attempts, ok_flags, setup_wall_s, scaled=False)
        # A failed job's latency is infinite; JSON has no infinity, so it reads null.
        metrics = {k: {"value": v if math.isfinite(v) else None, "unit": u} for k, (v, u, _) in e2e.items()}
        result["samples"] = {k: n for k, (_, _, n) in e2e.items()}
        result["wall"] = {k: v if math.isfinite(v) else None for k, (v, _, _) in wall.items()}
        result["probe_s"] = {"mean": statistics.fmean(probe.times), "min": min(probe.times),
                             "max": max(probe.times), "samples": len(probe.times)}
        result["attempts"] = {job.id: [[at.seconds, at.scaled] for at in all_attempts if at.job is job]
                              for job in jobs}

    shutil.rmtree(work_dir, ignore_errors=True)
    attempted = len(all_attempts)
    failed = attempted - sum(ok_flags)
    result.update({"failures": failures[:FAILURE_SAMPLES], "violations": violations,
                   "failed_frac": failed / attempted, "metrics": metrics})
    with open(os.path.join(_out_dir(), f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    print(f"# {args.workload} seed {args.seed}: {len(all_attempts)} attempts of {len(jobs)} jobs, "
          f"{len(traced)} traced rounds; python {env['python']}, {env['cpu']}, nproc {env['nproc']}, "
          f"load {env['loadavg'][0]:.2f}, commit {env['commit'][:12]}")
    for jid, why in failures[:FAILURE_SAMPLES]:
        print(f"# FAILED {jid}: {why}")
    for v in violations:
        print(f"# VIOLATION {v}")
    samples, wall = result.get("samples", {}), result.get("wall", {})
    if "probe_s" in result:
        ps = result["probe_s"]
        print(f"# probe {1000 * ps['mean']:.4g} ms mean, {1000 * ps['min']:.4g}..{1000 * ps['max']:.4g} ms "
              f"over {ps['samples']} samples; reference host {1000 * PROBE_NOMINAL_S:g} ms")
    for name, m in metrics.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        raw = f"  wall {wall[name]:.6g}" if wall.get(name) is not None and wall[name] != m["value"] else ""
        print(f"{name:36s} {value} {m['unit']}{n}{raw}")
    print(f"{'failed_frac':36s} {failed / attempted:.6g} ratio  ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0 and not violations, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _out_dir():
    path = os.path.join(BENCH, "out")
    os.makedirs(path, exist_ok=True)
    return path


def _frozen_digest(workload, seed):
    try:
        with open(os.path.join(BENCH, "digests.json"), encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


if __name__ == "__main__":
    sys.exit(main())
