#!/usr/bin/env python3
"""Conversion benchmark for the cumulants package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it works on the checkout it sits in and imports the
package from that checkout's `src/`, never from an installed copy.

One closed-loop client runs one job at a time.  The parent imports
`cumulants.cli` once and forks a child per job, so each job starts with
every cache empty, exactly like a fresh `cumulants` invocation, and the
caches it fills die with it.  A job's wall time runs from the fork to the
reaped exit.  Each child arms a wall-clock cap on itself; a child over the
cap is killed by its own SIGALRM and counts as failed.

With `--trace 0` the job list is repeated until `--seconds` have been
measured (at least MIN_PASSES times) and the end-to-end metrics are
printed, with job times scaled to a reference speed (see `end_to_end`).
With `--trace 1` each job runs once untraced and then once
traced (see layertrace.py); `--seconds` is not used.  The per-layer metrics
come from the traced runs, both runs of a job must give byte-identical
output, and the difference between their summed times is reported as the
tracing overhead.

Outputs are checked outside the timed region: every convert output must
parse, have the target kind and convert back to its input exactly; every
repeat of a job must give the same bytes; every verify job must exit 0 with
every identity PASS.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Details, with the
environment, go to `.bench_work/results/` in the checkout.  See README.md
for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import reference  # noqa: E402
import tables  # noqa: E402

KINDS = ("moment", "free", "boolean", "monotone")
PAIRS = tuple((s, t) for s in KINDS for t in KINDS if s != t)

MIN_PASSES = 3
SETUP_REPEATS = 21
JOB_CAP_S = 30.0
CHECK_CAP_S = 60.0
# The reference computations' median times on the development VM (2 vCPU
# Intel Xeon, Python 3.11.7): the speed that reported times are scaled to.
REFERENCE_S = 0.02  # reference.fork_sample, for job times
REFERENCE_IMPORT_S = 0.035  # reference.IMPORT_CODE, for setup_s
# No pass starts once this much of the run is spent, so a run ends in time
# even when every job runs to its cap.
RUN_BUDGET_S = 100.0


@dataclass(frozen=True)
class Workload:
    command: str  # "convert" or "verify"
    sizes: tuple  # (generators, degree) pairs


# ROADMAP's grid (1 generator at degrees 8 and 10, 2 generators at 6 and 7,
# 3 at 5, verify at degree 5 and 6) takes over a minute per pass; these
# sizes keep its axes and fit the repeats every later comparison needs.
WORKLOADS = {
    "convert-multivariate": Workload("convert", ((2, 6),)),
    "convert-univariate-deep": Workload("convert", ((1, 10),)),
    "verify-suite": Workload("verify", ((2, 5), (1, 8), (3, 4))),
}


@dataclass
class Job:
    index: int
    name: str
    argv: list
    words: int
    output: Path  # the file whose bytes are the job's result
    stdout: Path
    stderr: Path
    source: str | None = None
    target: str | None = None
    input: Path | None = None


@dataclass
class Sample:
    job: int
    passno: int
    wall_s: float
    code: int  # exit code, or minus the signal that ended the child
    maxrss_kb: int
    digest: str | None


@dataclass
class Outcome:
    samples: list = field(default_factory=list)
    problems: dict = field(default_factory=dict)  # job index -> message
    references: list = field(default_factory=list)  # blocks of fork samples


def build_jobs(name: str, workload: Workload, seed: int, work: Path) -> list[Job]:
    """The workload's job list; writes the convert inputs into `work`."""
    jobs: list[Job] = []
    for generators, degree in workload.sizes:
        words = len(tables.table_words(generators, degree))
        if workload.command == "convert":
            for source, target in PAIRS:
                i = len(jobs)
                label = f"{name}:{seed}:{generators}:{degree}:{source}->{target}"
                path = work / f"in-{i}.json"
                path.write_text(
                    tables.table_text(source, generators, degree, label), encoding="utf-8"
                )
                out = work / f"out-{i}.json"
                jobs.append(Job(
                    i, f"{source}->{target} g{generators} d{degree}",
                    ["convert", "-i", str(path), "--from", source, "--to", target,
                     "-o", str(out)],
                    words, out, work / f"stdout-{i}.txt", work / f"stderr-{i}.txt",
                    source, target, path,
                ))
        else:
            i = len(jobs)
            vseed = tables.derived_seed(f"{name}:{seed}:{generators}:{degree}")
            out = work / f"stdout-{i}.txt"
            jobs.append(Job(
                i, f"verify g{generators} d{degree} seed {vseed}",
                ["verify", "--degree", str(degree), "--generators", str(generators),
                 "--seed", str(vseed)],
                words, out, out, work / f"stderr-{i}.txt",
            ))
    return jobs


# ---------------------------------------------------------------------------
# job processes
# ---------------------------------------------------------------------------


def _redirect(fd: int, path: Path):
    """Point fd at path; return a text stream on it for sys.stdout/stderr."""
    target = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(target, fd)
    os.close(target)
    return open(fd, "w", encoding="utf-8", closefd=False)


def in_child(body, cap_s: float):
    """Fork, run body() in the child under a wall-clock cap and exit with the
    int it returns (70 if it raises); return (exit code, rusage).

    The cap is an interval timer in the child whose SIGALRM, left at its
    default action, ends the child; its exit code is then -SIGALRM.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            signal.setitimer(signal.ITIMER_REAL, cap_s)
            code = body()
        except BaseException:  # not re-raised: the child must never return
            traceback.print_exc()  # into the parent's code; it exits below
        finally:
            try:
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage


def _digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def run_job(job: Job, passno: int, trace_path: Path | None = None) -> Sample:
    """One timed run of a job in a fresh child; traced when trace_path is set."""

    def body() -> int:
        sys.stdout = _redirect(1, job.stdout)
        sys.stderr = _redirect(2, job.stderr)
        import cumulants.cli  # already imported by the parent, so no cost here

        tracer = layertrace.install(job.index) if trace_path else None
        code = cumulants.cli.main(list(job.argv))
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(trace_path)
        return code

    if job.output.exists():
        job.output.unlink()
    t0 = time.perf_counter()
    code, usage = in_child(body, JOB_CAP_S)
    wall = time.perf_counter() - t0
    return Sample(job.index, passno, wall, code, usage.ru_maxrss, _digest(job.output))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _roundtrip_all(jobs: list[Job], report: Path) -> int:
    from cumulants.tablefile import parse_table
    from cumulants.transforms import convert_table

    problems = {}
    for job in jobs:
        try:
            src = parse_table(job.input.read_text(encoding="utf-8"))
            out = parse_table(job.output.read_text(encoding="utf-8"))
            if out.kind != job.target:
                problems[job.index] = f"output kind {out.kind}, expected {job.target}"
            elif (out.generators, out.max_degree) != (src.generators, src.max_degree):
                problems[job.index] = "output generators or degree differ from the input"
            elif convert_table(out, job.source) != src:
                problems[job.index] = f"converting back to {job.source} misses the input"
        except Exception as exc:  # any failure is a wrong output, reported by job
            problems[job.index] = f"{type(exc).__name__}: {exc}"
    report.write_text(json.dumps(problems), encoding="utf-8")
    return 0


def verify_output_problem(text: str) -> str | None:
    """Why a verify report is not an all-PASS report, or None."""
    lines = text.splitlines()
    if len(lines) < 3 or not lines[0].startswith("identity suite:"):
        return "not an identity-suite report"
    body = lines[1:-1]
    failing = [line for line in body if not line.startswith("PASS ")]
    if failing:
        return f"not PASS: {failing[0]}"
    if lines[-1] != f"identities: {len(body)} passed, 0 failed":
        return f"unexpected summary {lines[-1]!r}"
    return None


def check_outputs(jobs: list[Job], outcome: Outcome, work: Path) -> None:
    """Fill outcome.problems; runs after all timing."""
    by_job: dict[int, list[Sample]] = {}
    for s in outcome.samples:
        by_job.setdefault(s.job, []).append(s)
    for job in jobs:
        samples = by_job.get(job.index, [])
        bad = next((s for s in samples if s.code != 0), None)
        if not samples:
            outcome.problems[job.index] = "never ran"
        elif bad is not None:
            why = f"killed by signal {-bad.code}" if bad.code < 0 else f"exit code {bad.code}"
            outcome.problems[job.index] = f"{why} in pass {bad.passno}"
        elif len({s.digest for s in samples}) != 1 or samples[0].digest is None:
            outcome.problems[job.index] = "repeats gave different or missing output"
        elif job.source is None:
            problem = verify_output_problem(job.output.read_text(encoding="utf-8"))
            if problem:
                outcome.problems[job.index] = problem
    converts = [j for j in jobs if j.source is not None and j.index not in outcome.problems]
    if converts:
        report = work / "roundtrip.json"
        code, _ = in_child(lambda: _roundtrip_all(converts, report), CHECK_CAP_S)
        if code != 0 or not report.exists():
            for job in converts:
                outcome.problems[job.index] = f"round-trip check ended with {code}"
        else:
            for i, why in json.loads(report.read_text(encoding="utf-8")).items():
                outcome.problems[int(i)] = why


def failed_count(outcome: Outcome) -> int:
    """Runs that crashed or hit the cap; every run of a job whose output was
    wrong when none of its runs crashed."""
    crashed = {s.job for s in outcome.samples if s.code != 0}
    return sum(
        1 for s in outcome.samples
        if s.code != 0 or (s.job in outcome.problems and s.job not in crashed)
    )


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

_SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import cumulants.cli; print(repr(time.perf_counter() - t))"
)


def _seconds_printed(code: str) -> float:
    done = subprocess.run(
        [sys.executable, "-E", "-s", "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def measure_setup(repeats: int) -> tuple[list[float], list[float]]:
    """Seconds to import cumulants.cli, each in a fresh interpreter, and the
    import reference timed before the first and after every one of them."""
    setup = []
    refs = [_seconds_printed(reference.IMPORT_CODE)]
    for _ in range(repeats):
        setup.append(_seconds_printed(_SETUP_CODE))
        refs.append(_seconds_printed(reference.IMPORT_CODE))
    return setup, refs


def scaled_setup(setup: list[float], refs: list[float]) -> float:
    """Median import time at the reference speed: each time is scaled by
    REFERENCE_IMPORT_S over the mean of the references on either side."""
    return statistics.median(
        s * 2 * REFERENCE_IMPORT_S / (before + after)
        for s, before, after in zip(setup, refs, refs[1:])
    )


def reference_server() -> subprocess.Popen:
    """reference.py serving fork samples; use it as a context manager."""
    return subprocess.Popen(
        [sys.executable, "-E", "-s", str(HERE / "reference.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )


def fork_samples(server: subprocess.Popen, n: int) -> list[float]:
    server.stdin.write("\n" * n)
    server.stdin.flush()
    return [float(server.stdout.readline()) for _ in range(n)]


def run_passes(jobs: list[Job], seconds: float, started: float, server) -> Outcome:
    """Repeat the job list until `seconds` are measured (at least MIN_PASSES
    times).  A block of the server's fork samples is timed before every job
    and after the last one, so each job run sits between two blocks."""
    outcome = Outcome()
    per_gap = -(-12 // len(jobs))  # at least 12 reference samples per pass
    measured = 0.0
    passno = 0
    while passno < MIN_PASSES or measured < seconds:
        spent = time.perf_counter() - started
        if passno and spent + measured / passno > RUN_BUDGET_S:
            break
        for job in jobs:
            outcome.references.append(fork_samples(server, per_gap))
            sample = run_job(job, passno)
            outcome.samples.append(sample)
            measured += sample.wall_s
        passno += 1
    outcome.references.append(fork_samples(server, per_gap))
    return outcome


def tail_percentile(samples: list[float]):
    """The highest percentile with at least ten samples beyond it, as
    (percent, value), or None when there are fewer than 20 samples."""
    n = len(samples)
    if n < 20:
        return None
    k = n - 10
    return 100 * k // n, sorted(samples)[k - 1]


def describe(values: list[float], unit: str) -> str:
    line = f"median {statistics.median(values):.6g} {unit}, n={len(values)}"
    tail = tail_percentile(values)
    if tail:
        line += f", p{tail[0]} {tail[1]:.6g} {unit}"
    else:
        line += ", no percentile above the median has 10 samples beyond it"
    return line


def _job_summary(jobs: list[Job], times: dict) -> dict:
    medians = [statistics.median(times[job.index]) for job in jobs]
    return {
        "words_per_s": sum(job.words for job in jobs) / sum(medians),
        "job_s.geomean": math.exp(statistics.fmean(math.log(v) for v in medians)),
        "job_s.max": max(medians),
    }


def end_to_end(jobs: list[Job], outcome: Outcome, setup: tuple) -> tuple[dict, list]:
    """The end-to-end metrics, with times at the reference speed.

    The host's speed drifts by about 20% within seconds to minutes (see
    README.md), so each job run's wall time is multiplied by REFERENCE_S
    over the median of the reference blocks just before and just after it,
    and `setup_s` is scaled the same way by the import reference (see
    `scaled_setup`).  `setup` is what `measure_setup` returns.  The raw
    figures are in the report lines.
    """
    blocks = outcome.references
    raw: dict[int, list[float]] = {}
    scaled: dict[int, list[float]] = {}
    for s, before, after in zip(outcome.samples, blocks, blocks[1:]):
        raw.setdefault(s.job, []).append(s.wall_s)
        scaled.setdefault(s.job, []).append(s.wall_s * REFERENCE_S / statistics.median(before + after))
    at_reference = _job_summary(jobs, scaled)
    metrics = {
        "setup_s": (scaled_setup(*setup), "s"),
        "words_per_s": (at_reference["words_per_s"], "1/s"),
        "job_s.geomean": (at_reference["job_s.geomean"], "s"),
        "peak_rss_mb": (max(s.maxrss_kb for s in outcome.samples) / 1024, "MB"),
    }
    attempted = len(outcome.samples)
    failed = failed_count(outcome)
    lines = [f"job {job.name}: {describe(raw[job.index], 's')}" for job in jobs]
    lines += [
        f"setup_s, raw: {describe(setup[0], 's')}",
        f"import reference: {describe(setup[1], 's')} "
        f"(setup times are scaled to {REFERENCE_IMPORT_S} s)",
        f"job wall time over all samples: {describe([s.wall_s for s in outcome.samples], 's')}",
        f"fork reference: {describe([r for b in blocks for r in b], 's')} "
        f"(job times are scaled to {REFERENCE_S} s)",
        "raw, unscaled: "
        + ", ".join(f"{k} {v:.6g}" for k, v in _job_summary(jobs, raw).items()),
        # Reported, not in BENCHMARK.json: too noisy to gate (see README.md).
        f"job_s.max: {at_reference['job_s.max']:.6g} s",
        f"fail_rate: {failed / attempted:.6g} ({failed} of {attempted} jobs)",
    ]
    return metrics, lines


# ---------------------------------------------------------------------------
# environment and results
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cumulants").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "host": platform.node(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "loadavg_before": os.getloadavg(),
    }


def warn_if_busy(env: dict) -> None:
    cpus = env["usable_cpus"]
    for key in ("loadavg_before", "loadavg_after"):
        load = env.get(key)
        if load and load[0] >= cpus:
            print(
                f"warning: 1-minute load {load[0]:.2f} {key[8:]} the run is at least the "
                f"{cpus} usable CPUs; do not compare these figures with a quiet run",
                file=sys.stderr,
            )


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def traced_run(jobs: list[Job], work: Path) -> tuple[Outcome, dict, list]:
    """One untraced and one traced run of each job; per-layer metrics from
    the traced runs."""
    plain = Outcome()
    traced = Outcome()
    dumps = []
    for job in jobs:  # each job untraced then traced, so drift hits both alike
        plain.samples.append(run_job(job, 0))
        path = work / f"trace-{job.index}.json"
        traced.samples.append(run_job(job, 1, path))
        if path.exists():
            dumps.append(json.loads(path.read_text(encoding="utf-8")))
    both = Outcome(samples=plain.samples + traced.samples)
    check_outputs(jobs, both, work)

    per_job = {d["job"]: layertrace.job_metrics(d) for d in dumps}
    figures = layertrace.combine(list(per_job.values()))
    by_pair = {  # a job that left no dump has failed its checks already
        f"{job.source}-{job.target}": per_job[job.index]["transforms.crosscheck_words"]
        for job in jobs if job.source is not None and job.index in per_job
    }
    overhead = sum(s.wall_s for s in traced.samples) - sum(s.wall_s for s in plain.samples)
    metrics = {key: (figures.get(key, 0), unit) for key, unit in PER_LAYER.items()}
    for source, target in PAIRS:
        pair = f"{source}-{target}"
        metrics[f"transforms.crosscheck_words.{pair}"] = (by_pair.get(pair, 0), "count")
    metrics["trace.overhead_s"] = (overhead, "s")
    lines = [f"crosscheck words {pair}: {words}" for pair, words in by_pair.items()]
    plain_s = sum(s.wall_s for s in plain.samples)
    lines.append(
        f"tracing overhead: {overhead:.6g} s over one pass "
        f"({overhead / plain_s:.1%} of the untraced {plain_s:.6g} s)"
    )
    with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
        for d in dumps:
            fh.write(json.dumps(d) + "\n")
    return both, metrics, lines


PER_LAYER = {
    "cli.self_s": "s",
    "tablefile.parse_s": "s",
    "tablefile.render_s": "s",
    "tablefile.bytes_in": "bytes",
    "tablefile.bytes_out": "bytes",
    "transforms.self_s": "s",
    "transforms.crosscheck_words": "count",
    "prelie.self_s": "s",
    "prelie.magnus_s": "s",
    "prelie.w_map_s": "s",
    "prelie.triangle_calls": "count",
    "forms.self_s": "s",
    "forms.eval_calls": "count",
    "forms.memo_hit_ratio": "ratio",
    "coproducts.build_s": "s",
    "coproducts.terms_built": "count",
    "coproducts.hit_ratio": "ratio",
    "coproducts.cache_entries": "count",
    "partitions.enumerate_s": "s",
    "partitions.enumerated": "count",
    "partitions.weight_s": "s",
    "partitions.weight_calls": "count",
    "partitions.sum_self_s": "s",
    "partitions.sum_calls": "count",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cumulants" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'cumulants'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    env = environment(args)
    setup = None if args.trace else measure_setup(SETUP_REPEATS)

    sys.path.insert(0, str(SRC))
    import cumulants.cli  # the parent imports once; every job forks from here

    if not Path(cumulants.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {cumulants.cli.__file__}, not the checkout", file=sys.stderr)
        return 2

    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    jobs = build_jobs(args.workload, WORKLOADS[args.workload], args.seed, work)
    print(f"bench: workload {args.workload}, seed {args.seed}, {len(jobs)} jobs, "
          f"trace {args.trace}")
    if args.trace:
        outcome, metrics, lines = traced_run(jobs, work)
    else:
        with reference_server() as server:
            outcome = run_passes(jobs, args.seconds, started, server)
        check_outputs(jobs, outcome, work)
        metrics, lines = end_to_end(jobs, outcome, setup)
    env["loadavg_after"] = os.getloadavg()
    warn_if_busy(env)

    for i, why in sorted(outcome.problems.items()):
        print(f"FAILED {jobs[i].name}: {why}")
    for line in lines:
        print(line)
    for key, (value, unit) in metrics.items():
        print(f"metric {key} = {value:.6g} {unit}")
    print("env " + json.dumps(env))

    attempted = len(outcome.samples)
    failed = failed_count(outcome)
    result = {
        "correct": not outcome.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    detail = {
        "env": env,
        "result": result,
        "jobs": [{"name": j.name, "argv": j.argv, "words": j.words} for j in jobs],
        "samples": [vars(s) for s in outcome.samples],
        "fork_reference_s": outcome.references,
        "setup_s": setup and setup[0],
        "import_reference_s": setup and setup[1],
        "problems": {str(k): v for k, v in outcome.problems.items()},
        "report": lines,
    }
    (results / f"{stem}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    if args.trace:
        (work / "spans.jsonl").replace(results / f"{stem}-spans.jsonl")
    for path in work.iterdir():
        path.unlink()
    work.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
