"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

They import the package from this checkout's src/ and run small versions
of the benchmark's workloads in forked children, as the benchmark does.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layertrace  # noqa: E402
import run  # noqa: E402
import tables  # noqa: E402
from cumulants.tablefile import parse_table  # noqa: E402

# Each per-layer metric must be non-zero on the workload that exercises it;
# a zero means a wrapper was not rebound at some call site.
EXERCISED = {
    "convert-univariate-deep": (
        "partitions.enumerate_s",
        "partitions.enumerated",
        "partitions.weight_s",
        "partitions.weight_calls",
        "partitions.sum_self_s",
        "partitions.sum_calls",
    ),
    "convert-multivariate": (
        "cli.self_s",
        "tablefile.parse_s",
        "tablefile.render_s",
        "tablefile.bytes_in",
        "tablefile.bytes_out",
        "transforms.self_s",
        "transforms.crosscheck_words",
        "prelie.self_s",
        "prelie.magnus_s",
        "prelie.w_map_s",
        "prelie.triangle_calls",
        "forms.self_s",
        "forms.eval_calls",
        "forms.memo_hit_ratio",
    ),
    "verify-suite": (
        "forms.self_s",
        "forms.eval_calls",
        "forms.memo_hit_ratio",
        "coproducts.build_s",
        "coproducts.terms_built",
        "coproducts.hit_ratio",
        "coproducts.cache_entries",
    ),
}

# The workloads at sizes that run in seconds; same commands and kind pairs.
SMALL = {
    "convert-univariate-deep": run.Workload("convert", ((1, 5),)),
    "convert-multivariate": run.Workload("convert", ((2, 3),)),
    "verify-suite": run.Workload("verify", ((2, 3), (1, 4), (3, 2))),
}


def test_every_per_layer_metric_has_a_workload():
    named = {m for metrics in EXERCISED.values() for m in metrics}
    assert named == set(run.PER_LAYER)


def _declared(section):
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[section]}


def test_end_to_end_metrics_match_benchmark_json(tmp_path):
    jobs = run.build_jobs("convert-multivariate", run.Workload("convert", ((1, 2),)), 1, tmp_path)
    samples = [run.run_job(job, p) for p in range(2) for job in jobs]
    with run.reference_server() as server:
        references = [run.fork_samples(server, 1) for _ in range(len(samples) + 1)]
    assert server.returncode == 0
    outcome = run.Outcome(samples=samples, references=references)
    metrics, _ = run.end_to_end(jobs, outcome, run.measure_setup(2))
    assert {k: unit for k, (_, unit) in metrics.items()} == _declared("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


def test_tables_repeat_per_seed_and_differ_between_seeds():
    a = tables.table_text("free", 2, 4, "w:1")
    assert a == tables.table_text("free", 2, 4, "w:1")
    assert json.loads(a)["values"] != json.loads(tables.table_text("free", 2, 4, "w:2"))["values"]


def test_job_inputs_repeat_per_seed_and_differ_between_seeds(tmp_path):
    def inputs(seed, sub):
        work = tmp_path / sub
        work.mkdir()
        jobs = run.build_jobs("convert-multivariate", SMALL["convert-multivariate"], seed, work)
        return [job.input.read_bytes() for job in jobs]

    first = inputs(1, "a")
    assert first == inputs(1, "b")
    assert all(x != y for x, y in zip(first, inputs(2, "c")))


@pytest.mark.parametrize("kind", run.KINDS)
@pytest.mark.parametrize("n_letters,degree", [(1, 10), (2, 6), (3, 4)])
def test_tables_are_total_and_parse(kind, n_letters, degree):
    text = tables.table_text(kind, n_letters, degree, f"{kind}:{n_letters}:{degree}")
    table = parse_table(text)  # raises on a missing or stray word
    assert table.kind == kind
    assert table.max_degree == degree
    assert len(table.values) == sum(n_letters**d for d in range(1, degree + 1))
    for value in table.values.values():
        assert -6 <= value.numerator <= 6 and value.denominator in (1, 2, 3, 4)


def test_verify_seeds_derive_from_the_workload_seed(tmp_path):
    one = run.build_jobs("verify-suite", SMALL["verify-suite"], 1, tmp_path)
    again = run.build_jobs("verify-suite", SMALL["verify-suite"], 1, tmp_path)
    other = run.build_jobs("verify-suite", SMALL["verify-suite"], 2, tmp_path)
    assert [j.argv for j in one] == [j.argv for j in again]
    assert [j.argv for j in one] != [j.argv for j in other]


def test_setup_times_are_scaled_by_the_references_around_them():
    ref = run.REFERENCE_IMPORT_S
    # The host runs at half speed for the last two imports: the same cost.
    setup, refs = [0.02, 0.04, 0.04], [ref, ref, 3 * ref, ref]
    assert run.scaled_setup(setup, refs) == pytest.approx(0.02)
    assert run.scaled_setup([0.04] * 3, [2 * ref] * 4) == pytest.approx(0.02)


def test_self_times_subtract_what_children_cover():
    # root [0, 10] > a [1, 4], b [5, 9] > c [6, 7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert layertrace.self_times(start, end, parent) == pytest.approx([3.0, 3.0, 3.0, 1.0])
    # Overlapping children are counted once, and only inside the parent.
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 4.0, 6.0, 12.0]
    parent = [-1, 0, 0, 0]
    assert layertrace.self_times(start, end, parent)[0] == pytest.approx(10 - 5 - 2)


def test_job_metrics_on_a_synthetic_span_tree():
    names = [
        "cli.main",
        "transforms.convert_table",
        "transforms.convert",
        "transforms.cumulants_to_moments",
        "partitions.partition_sum",
        "partitions.enumerate_irreducible_nc",
        "partitions.enumerate_nc",
        "partitions.weight",
        "transforms.moments_to_cumulants",
    ]
    # main > convert_table > convert > (cumulants_to_moments > partition_sum,
    # moments_to_cumulants > partition_sum, partition_sum)
    dump = {
        "names": names,
        "name": list(range(9)) + [4, 4],
        "start": [0.0, 1.0, 2.0, 3.0, 4.0, 4.5, 4.6, 6.0, 11.0, 14.0, 11.5],
        "end": [20.0, 19.0, 18.0, 10.0, 9.0, 5.5, 5.4, 7.0, 13.0, 15.0, 12.0],
        "parent": [-1, 0, 1, 2, 3, 4, 5, 4, 2, 2, 8],
        "value": [0, 0, 0, 0, 0, 7, 14, 0, 126, 0, 0],
        "counts": {"forms.eval": 10, "forms._eval": 4},
        "cache_hits": 3,
        "cache_misses": 1,
        "cache_entries": 1,
    }
    m = layertrace.job_metrics(dump)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["transforms.self_s"] == pytest.approx(2 + 6 + 2 + 1.5)
    assert m["partitions.enumerate_s"] == pytest.approx(1.0)  # the outer enumerator only
    assert m["partitions.enumerated"] == 7
    assert m["partitions.weight_s"] == pytest.approx(1.0)
    assert m["partitions.weight_calls"] == 1
    assert m["partitions.sum_self_s"] == pytest.approx(5 - 1 - 1 + 1 + 0.5)
    assert m["partitions.sum_calls"] == 3
    # A partition sum directly in convert or cumulants_to_moments is one
    # word; moments_to_cumulants in convert brings its 126; the sum inside
    # moments_to_cumulants is not a cross-check.
    assert m["transforms.crosscheck_words"] == 1 + 126 + 1
    total = layertrace.combine([m, m])
    assert total["forms.memo_hit_ratio"] == pytest.approx(0.6)
    assert total["coproducts.hit_ratio"] == pytest.approx(0.75)
    assert total["coproducts.cache_entries"] == 1
    assert total["partitions.enumerated"] == 14


def test_install_leaves_no_call_site_on_an_original(tmp_path):
    report = tmp_path / "left.json"

    def probe() -> int:
        tracer = layertrace.install(0)
        originals = {id(f) for f in tracer.originals}
        left = []
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "cumulants":
                continue
            for key, obj in vars(module).items():
                held = obj.items() if type(obj) is dict else [(None, obj)]
                left += [f"{name}.{key}[{k}]" for k, v in held if id(v) in originals]
        # A name is layer.function; the function must be the layer's own.
        for name in tracer.names:
            layer, _, rest = name.partition(".")
            head = rest.split(".")[0]
            obj = getattr(sys.modules[f"cumulants.{layer}"], head, None)
            if head not in ("eval", "weight") and obj.__module__ != f"cumulants.{layer}":
                left.append(f"misplaced span {name}")
        if len({id(f) for f in tracer.originals}) != len(tracer.originals):
            left.append("a function was wrapped twice")
        report.write_text(json.dumps(left), encoding="utf-8")
        return 0

    assert run.in_child(probe, 60)[0] == 0
    assert json.loads(report.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("name", sorted(EXERCISED))
def test_traced_run_counts_every_layer_it_exercises(name, tmp_path):
    jobs = run.build_jobs(name, SMALL[name], 7, tmp_path)
    outcome, metrics, _ = run.traced_run(jobs, tmp_path)
    assert outcome.problems == {}  # includes traced bytes == untraced bytes
    assert len(outcome.samples) == 2 * len(jobs)
    for key in EXERCISED[name]:
        assert metrics[key][0] > 0, key
    assert {k: unit for k, (_, unit) in metrics.items()} == _declared("per_layer")


def _unchecked_convert(c, target):
    """transforms.convert on the shuffle route alone."""
    from cumulants import transforms

    result = transforms._CONVERSIONS[(c.kind, target)](transforms._infchar(c))
    return transforms.CumulantTable(target, c.generators, c.max_degree, result.table)


def _unchecked_cumulants_to_moments(c):
    """transforms.cumulants_to_moments on the shuffle route alone."""
    from cumulants import transforms

    form = transforms._MOMENT_EXP[c.kind](transforms.forms.InfinitesimalFromWords(c.values))
    values = {w: form.eval_word(w) for w in transforms._words_of(c)}
    return transforms.CumulantTable("moment", c.generators, c.max_degree, values)


def _traced_crosscheck_words(job, path, stub=None) -> int:
    """crosscheck_words of one traced run of job, with stub in place of the
    transforms function of the same name."""

    def body() -> int:
        sys.stdout = run._redirect(1, job.stdout)
        from cumulants import cli, transforms

        if stub is not None:
            name = stub.__name__.removeprefix("_unchecked_")
            stub.__module__ = transforms.__name__
            setattr(transforms, name, stub)
        tracer = layertrace.install(job.index)
        code = cli.main(list(job.argv))
        tracer.dump(path)
        return code

    assert run.in_child(body, 60)[0] == 0
    return layertrace.job_metrics(json.loads(path.read_text(encoding="utf-8")))[
        "transforms.crosscheck_words"
    ]


@pytest.mark.parametrize("target,stub", [
    ("boolean", _unchecked_convert),  # checked against a lattice formula
    ("monotone", _unchecked_convert),  # checked through moments
    ("moment", _unchecked_cumulants_to_moments),
])
def test_crosscheck_words_fall_when_a_conversion_skips_its_check(target, stub, tmp_path):
    jobs = run.build_jobs("convert-multivariate", SMALL["convert-multivariate"], 5, tmp_path)
    job = next(j for j in jobs if (j.source, j.target) == ("free", target))
    checked = _traced_crosscheck_words(job, tmp_path / "checked.json")
    unchecked = _traced_crosscheck_words(job, tmp_path / "unchecked.json", stub)
    assert checked >= job.words
    assert unchecked < checked


def test_crosscheck_by_pair_shows_single_route_conversions(tmp_path):
    jobs = run.build_jobs(
        "convert-multivariate", run.Workload("convert", ((1, 3),)), 3, tmp_path
    )
    _, metrics, _ = run.traced_run(jobs, tmp_path)
    for source, target in run.PAIRS:
        words = metrics[f"transforms.crosscheck_words.{source}-{target}"][0]
        assert (words == 0) == (source == "moment"), (source, target)


def test_checks_catch_a_wrong_output(tmp_path):
    jobs = run.build_jobs("convert-multivariate", run.Workload("convert", ((1, 3),)), 3, tmp_path)
    outcome = run.Outcome(samples=[run.run_job(job, 0) for job in jobs])
    job = jobs[5]
    text = job.output.read_text(encoding="utf-8")
    doc = json.loads(text)
    doc["values"]["aaa"] = "12345"
    job.output.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    run.check_outputs(jobs, outcome, tmp_path)
    assert set(outcome.problems) == {5}


def test_a_child_over_the_cap_is_killed_and_counted_as_failed():
    code, _ = run.in_child(lambda: time.sleep(10) or 0, 0.2)
    assert code == -signal.SIGALRM
    outcome = run.Outcome(
        samples=[run.Sample(0, p, 1.0, c, 1, "x") for p, c in enumerate((0, code))]
        + [run.Sample(1, p, 1.0, 0, 1, "y") for p in range(2)],
        problems={0: "killed", 1: "wrong output"},
    )
    assert run.failed_count(outcome) == 1 + 2


def test_verify_report_check():
    good = "identity suite: x\nPASS a\nPASS b\nidentities: 2 passed, 0 failed\n"
    assert run.verify_output_problem(good) is None
    bad = "identity suite: x\nPASS a\nFAIL b: at w\nidentities: 1 passed, 1 failed\n"
    assert run.verify_output_problem(bad) == "not PASS: FAIL b: at w"


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(list(range(19))) is None
    percent, value = run.tail_percentile([float(i) for i in range(40)])
    assert (percent, value) == (75, 29.0)
    assert sum(1 for i in range(40) if i > value) == 10


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify-suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
