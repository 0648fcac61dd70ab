"""Tests of the benchmark itself.

Run from the repository root:  python -m pytest -q bench/tests
The smoke tests run one batch of every workload (about half a minute).
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import jobs
import run
import tracing


def test_self_time_of_nested_spans():
    # A[0,10] > B[1,4], C[5,9] > B[6,7]
    names = ["A", "B", "C"]
    name_ids = [0, 1, 2, 1]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    t = tracing.summarize(names, name_ids, starts, ends, parents)
    assert t["A"] == {"calls": 1, "self_s": 3.0, "total_s": 10.0}
    assert t["B"] == {"calls": 2, "self_s": 4.0, "total_s": 4.0}
    assert t["C"] == {"calls": 1, "self_s": 3.0, "total_s": 4.0}


def test_recursion_counts_outermost_span_in_total_only():
    # A[0,10] > A[2,8] > A[3,4]; then a sibling A[11,12] after the chain
    names = ["A"]
    t = tracing.summarize(names, [0, 0, 0, 0], [0.0, 2.0, 3.0, 11.0],
                          [10.0, 8.0, 4.0, 12.0], [-1, 0, 1, -1])
    assert t["A"]["calls"] == 4
    assert t["A"]["total_s"] == 11.0
    assert t["A"]["self_s"] == 4.0 + 5.0 + 1.0 + 1.0


def test_tail_percentile_keeps_ten_jobs_beyond():
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(42) == 75
    assert run.tail_percentile(114) == 90
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(10000) == 99.9
    with pytest.raises(ValueError):
        run.tail_percentile(19)


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([3.0], 75) == 3.0


def test_wrapping_covers_every_binding_site():
    from nonarch import derivlab, linalg
    original = linalg.sparse_rank_mod_p
    rows = [{0: 1, 1: 2}, {1: 3}]
    with tracing.Tracer() as tr:
        assert derivlab.sparse_rank_mod_p is not original
        assert derivlab.sparse_rank_mod_p(rows, 2) == 2
        linalg.sparse_rank_mod_p(rows[:1], 2)
    assert derivlab.sparse_rank_mod_p is original
    assert linalg.sparse_rank_mod_p is original
    metrics, _ = tr.metrics()
    assert metrics["linalg.sparse_rank_mod_p.calls"] == 2
    assert metrics["linalg.sparse_rank_mod_p.full_rank_ratio"] == 0.5
    assert metrics["linalg.nullspace.calls"] == 0


def test_method_spans_nest_under_their_caller():
    from nonarch.series import TateSeries
    from nonarch.fields import FieldSpec, PADIC, Scalar
    from nonarch.lognorm import RadiusDecl
    spec = FieldSpec(PADIC, 3, precision_cap=20)
    r = (RadiusDecl.default(),)
    f = TateSeries(spec, "power", r, {(0,): Scalar.one(spec),
                                      (1,): Scalar.from_int(spec, 3)})
    with tracing.Tracer() as tr:
        f * f
    table = tracing.summarize(tr.names, *tr.spans()[:4])
    assert table["series.mul"]["calls"] == 1
    assert table["fields.mul"]["calls"] == 4
    assert tr.counters["term_products"] == 4
    mul_id = tr.names.index("series.mul")
    assert all(tr.parents[i] == 0 for i in range(1, len(tr.starts))
               if tr.name_ids[i] == tr.names.index("fields.mul"))
    assert tr.name_ids[0] == mul_id


def test_same_seed_same_jobs_and_checks_reject_bad_artifacts():
    a = [j.argv for j in jobs.build("lift", 5)]
    assert a == [j.argv for j in jobs.build("lift", 5)]
    assert a != [j.argv for j in jobs.build("lift", 6)]
    unbounded = jobs.job("unbounded-demo", "--terms", 6, "--bound", "1e6")
    art = {"result": {"witness": {"rows": [{"tail_index": i} for i in
                                           (4, 11, 37, 153)],
                                  "strictly_increasing": True,
                                  "first_row_exceeding_bound": 2}}}
    assert "tail indices" in unbounded.check(art)


def test_gauss_norm_check_recomputes_the_maximal_term():
    series = {"kind": "laurent", "radius": ["r1"],
              "terms": [{"exp": [1], "coeff": "3"},
                        {"exp": [-1], "coeff": "2*3^-2"},
                        {"exp": [2], "coeff": "-1*3^0"}]}
    gauss = jobs.job("gauss-norm", "--field", "q3", "--series",
                     json.dumps(series))
    params = {"field": {"residue_prime": 3},
              "radii": [{"params": {"a": 0, "b": 1, "c": 2, "d": 2}}],
              "series": series}
    # |2*3^-2| r^-1 = 3^2 * 3^(sqrt(2)/2) is the largest term norm
    right = {"e0": "-2", "radius": ["-1"]}
    assert gauss.check({"params": params,
                        "result": {"norm": right}}) is None
    wrong = {"e0": "-1", "radius": ["1"]}
    assert "expected" in gauss.check({"params": params,
                                      "result": {"norm": wrong}})
    assert jobs.job("sz-check", "--field", "q3").check is None


def _main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return out.getvalue().splitlines()


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_smoke_run_has_no_failures(workload):
    lines = _main("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", "0")
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


ROOTLIFT = ("pth_root_near_one", "verify_trace", "build_tower",
            "verify_tower")
FROBENIUS = ("series_decompose", "verify_norm_bound",
             "derivative_span_witness")

# per workload: (layers' functions that must never be called, functions
# that must be), as in the per-layer table of NOTES.md
LAYER_USE = {
    "certify": (
        [f"rootlift.{f}" for f in ROOTLIFT]
        + [f"frobenius.{f}" for f in FROBENIUS] + ["squarezero.mul"],
        ["linalg.sparse_rank_mod_p", "linalg.nullspace",
         "derivlab.nonintegral_certificate",
         "derivlab.p_independence_certificate",
         "derivlab.unboundedness_table", "lognorm.norm_exceeds"]),
    "ring": (
        ["linalg.sparse_rank_mod_p", "linalg.nullspace"]
        + [f"rootlift.{f}" for f in ROOTLIFT]
        + [f"frobenius.{f}" for f in FROBENIUS],
        ["squarezero.mul", "squarezero.norm_ln", "lognorm.ln_compare",
         "coeffs.GF.mul", "series.mul"]),
    "lift": (
        ["linalg.sparse_rank_mod_p", "linalg.nullspace", "squarezero.mul",
         "squarezero.norm_ln"],
        [f"rootlift.{f}" for f in ROOTLIFT]
        + [f"frobenius.{f}" for f in FROBENIUS]
        + ["fields.valuation", "series.mul"]),
}


@pytest.mark.parametrize("workload", sorted(LAYER_USE))
def test_traced_run_touches_only_its_layers(workload):
    lines = _main("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", "1")
    result = json.loads(lines[-1])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"] is True and result["failed"] == 0
    assert set(m) == {n for n, _ in tracing.per_layer_metric_units()}
    idle, busy = LAYER_USE[workload]
    assert {f: m[f"{f}.calls"] for f in idle} == dict.fromkeys(idle, 0)
    assert all(m[f"{f}.calls"] > 0 for f in busy)
    assert m["cli.artifact_bytes"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copytree(here, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ring", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
