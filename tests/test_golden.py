"""Golden artifact bytes: every case must reproduce its recorded sha256.

Each case runs the CLI into a fresh directory and compares the exit code
and the sha256 of the written artifact with ``golden_sha256.json``, then
replays the artifact with ``--check``.  A refactor that keeps verdicts and
witnesses keeps these bytes; a change that has to alter them bumps
``SCHEMA`` and regenerates the table with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import tempfile

import pytest

from nonarch.cli import (_params_for, build_parser, load_config,
                         make_artifact, main)

TABLE = os.path.join(os.path.dirname(__file__), "golden_sha256.json")
# radii whose norms tie with other norms written differently: a rational
# rs = q^(-3/5) and r1s = q^(-(1 + sqrt(2))/2), the twin of r1
TIES = ["--config", os.path.join(os.path.dirname(__file__), "radii_ties.json")]


def _series(*terms):
    return json.dumps({"kind": "power", "radius": ["r1"],
                       "terms": [{"exp": [e], "coeff": c}
                                 for e, c in terms]})


def _laurent(q, n):
    """n-term Laurent series over Q_q with coefficients +-u*q^v, spread
    over negative and positive exponents."""
    units = [1, 2, -1, -2]
    return json.dumps({"kind": "laurent", "radius": ["r1"], "terms": [
        {"exp": [3 * i - n], "coeff": f"{units[i % 4]}*{q}^{i * 7 % 5 - 2}"}
        for i in range(n)]})


def _mixed_laurent(q, n):
    """n-term Laurent series over Q_q with exponents in [-n, n) and
    coefficients +-a/b*q^v, a in {1, 2, 3, 7}, b in {1, 2, 3, 7, 9} and v
    in [-2, 2]: the common denominator mixes primes other than q."""
    nums, dens = [1, 2, 3, 7], [1, 2, 3, 7, 9]
    return json.dumps({"kind": "laurent", "radius": ["r1"], "terms": [
        {"exp": [i * 7 % (2 * n) - n],
         "coeff": f"{'-' if i % 3 == 1 else ''}{nums[i % 4]}/"
                  f"{dens[(2 * i + 1) % 5]}*{q}^{i * 3 % 5 - 2}"}
        for i in range(n)]})


_STUB_TIE = json.dumps({"kind": "power", "radius": ["rs"], "terms": [
    {"exp": [0], "coeff": "27"}, {"exp": [5], "coeff": "1"}]})

CASES = {
    # the README CLI examples
    "readme-pth-root": ["pth-root", "--field", "q3", "--prime", "2",
                        "--target", "4"],
    "readme-tower": ["tower", "--field", "q3", "--prime", "2", "--target",
                     "4", "--depth", "2"],
    "readme-unbounded-demo": ["unbounded-demo", "--terms", "6", "--radius",
                              "r1", "--bound", "1e6"],
    # the acceptance table: every row decided against powers of q
    "unbounded-demo-1e30": ["unbounded-demo", "--terms", "6", "--radius",
                            "r1", "--bound", "1e30"],
    "readme-nonintegral-cert": ["nonintegral-cert", "--terms", "3",
                                "--nmax", "2", "--dmax", "3"],
    "readme-pbasis-cert": ["pbasis-cert", "--prime", "2", "--nvars", "3",
                           "--terms", "4", "--tdeg", "4", "--cdeg", "2"],
    "readme-ffinite-decompose": [
        "ffinite-decompose", "--field", "f2t", "--series",
        '{"kind":"power","radius":["r1"],"terms":[{"exp":[1],"coeff":"t"},'
        '{"exp":[2],"coeff":"1"}]}'],
    "readme-gauss-norm": [
        "gauss-norm", "--field", "q3", "--series",
        '{"kind":"laurent","radius":["r1"],"terms":[{"exp":[1],"coeff":"3"},'
        '{"exp":[2],"coeff":"1"}]}'],
    "readme-sz-check": ["sz-check", "--field", "q3", "--count", "1000",
                        "--seed", "7"],
    # relation certificates off the README path
    "q3-sparse-rank": ["nonintegral-cert", "--field", "q3", "--terms", "5",
                       "--nmax", "1", "--dmax", "100"],
    "f-is-T": ["nonintegral-cert", "--field", "q3", "--series",
               _series((1, "1")), "--nmax", "1", "--dmax", "1"],
    "f-is-T-mod-P-fallthrough": [
        "nonintegral-cert", "--field", "q3", "--series", _series((1, "1")),
        "--nmax", "1", "--dmax", "200"],
    "fraction-witness": ["nonintegral-cert", "--field", "q3", "--series",
                         _series((0, "3"), (2, "1/2")), "--nmax", "2",
                         "--dmax", "3"],
    "f2t-relation": ["nonintegral-cert", "--field", "f2t", "--series",
                     _series((1, "1"), (3, "1")), "--nmax", "3",
                     "--dmax", "4"],
    # element arithmetic and norm comparisons on the r1 radius
    "sz-check-q5": ["sz-check", "--field", "q5", "--count", "60",
                    "--seed", "1"],
    "sz-check-f2t": ["sz-check", "--field", "f2t", "--count", "60",
                     "--seed", "1"],
    "sz-check-f4t": ["sz-check", "--field", "f4t", "--count", "60",
                     "--seed", "1"],
    "q3-laurent-spectral": ["spectral-radius", "--field", "q3", "--powers",
                            "4", "--series", _laurent(3, 20)],
    "q5-laurent-gauss-norm": ["gauss-norm", "--field", "q5", "--series",
                              _laurent(5, 30)],
    "q5-mixed-denominator-spectral": ["spectral-radius", "--field", "q5",
                                      "--powers", "6", "--series",
                                      _mixed_laurent(5, 24)],
    "f2t-tower": ["tower", "--field", "f2t", "--prime", "3", "--target",
                  "1 + t + t^3", "--depth", "4"],
    # Laurent unit-series paths: GF(4) and RatFun Newton towers, division
    # at the cap, characteristic roots with series division
    "f4t-tower": ["tower", "--field", "f4t", "--prime", "3", "--target",
                  "1 + w*t + t^2", "--depth", "3"],
    "ratfun2-tower": ["tower", "--field", "ratfun2", "--prime", "3",
                      "--target", "1 + u1*t", "--depth", "2"],
    # coefficients dense in u1 and u2, polynomials throughout: no gcd
    "ratfun2-tower-two-u": ["tower", "--field", "ratfun2", "--prime", "3",
                            "--target", "1 + u1*t + u2*t^2", "--depth", "2"],
    "f4t-pth-root-division": ["pth-root", "--field", "f4t", "--prime", "3",
                              "--target", "w/(w + t)"],
    # characteristic-p roots whose Newton steps multiply long dense series
    "f2t-pth-root-p3": ["pth-root", "--field", "f2t", "--prime", "3",
                        "--target", "1 + t"],
    "f4t-pth-root-p3": ["pth-root", "--field", "f4t", "--prime", "3",
                        "--target", "1 + t + t^2"],
    "f4t-ffinite-decompose": ["ffinite-decompose", "--field", "f4t",
                              "--series", _series((0, "w/(1 + w*t)"),
                                                  (1, "w + t^-1"))],
    # the parameter paths of every command: defaults, overrides, optional
    # flags and a series without "radius" ids
    "sparse-series-default-field": ["sparse-series", "--terms", "4"],
    "q3-pth-root-precision": ["pth-root", "--field", "q3", "--prime", "2",
                              "--target", "7", "--precision", "9"],
    "q5-pth-root-max-steps": ["pth-root", "--field", "q5", "--prime", "2",
                              "--target", "6", "--max-steps", "50"],
    "pbasis-cert-explicit-series": [
        "pbasis-cert", "--nvars", "1", "--tdeg", "2", "--cdeg", "1",
        "--series", json.dumps({"kind": "power", "radius": ["r1"], "terms": [
            {"exp": [0], "coeff": "t"}, {"exp": [1], "coeff": "u1"}]})],
    "gauss-norm-default-radius": [
        "gauss-norm", "--field", "q3", "--series",
        '{"kind":"power","terms":[{"exp":[1],"coeff":"3"},'
        '{"exp":[2],"coeff":"1/3"}]}'],
    "nonintegral-cert-terms-and-series": [
        "nonintegral-cert", "--field", "q3", "--terms", "3", "--series",
        _series((1, "1")), "--nmax", "1", "--dmax", "1"],
    "unbounded-demo-decimal-bound": ["unbounded-demo", "--terms", "4",
                                     "--bound", "2.5e3"],
    # a relation system of 5405 x 1544, sized by its 6,176 nonzeros
    "unbounded-demo-terms-7": ["unbounded-demo", "--terms", "7", "--radius",
                               "r1", "--bound", "1e6"],
    # valuations of 64 and more in every Newton step of the root trace
    "q3-pth-root-valuation-64": ["pth-root", "--field", "q3", "--prime", "2",
                                 "--target", "1+2*3^64"],
    # exact series powers whose term sums cancel while they accumulate
    "q3-spectral-cancelling-powers": [
        "spectral-radius", "--field", "q3", "--powers", "5", "--series",
        json.dumps({"kind": "laurent", "radius": ["r1"], "terms": [
            {"exp": [0], "coeff": "1"}, {"exp": [1], "coeff": "2"},
            {"exp": [2], "coeff": "-2"}]})],
    # 2^65 - 1 generator products, listed lazily
    "pbasis-cert-64-vars": ["pbasis-cert", "--nvars", "64", "--terms", "65"],
    # a monomial residue: its root is u1^3 times a unit series
    "ratfun2-tower-monomial-residue": [
        "tower", "--field", "ratfun2", "--prime", "3", "--target",
        "u1^9*(1 + t)", "--depth", "2"],
    # coefficients with non-constant denominators, reduced by gcds
    "ratfun2-tower-true-fraction": [
        "tower", "--field", "ratfun2", "--prime", "3", "--target",
        "1 + t/(1 + u1)", "--depth", "2"],
    # a Laurent root past REDUCE_THRESHOLD_BITS: cut back to the work depth
    "f2t-pth-root-precision-200": ["pth-root", "--field", "f2t", "--prime",
                                   "3", "--target", "1 + t", "--precision",
                                   "200"],
    # a three-term Laurent series, raised to powers by square-and-multiply
    "f2t-laurent-spectral": [
        "spectral-radius", "--field", "f2t", "--powers", "4", "--series",
        json.dumps({"kind": "laurent", "radius": ["r1"], "terms": [
            {"exp": [0], "coeff": "1 + t"}, {"exp": [1], "coeff": "t^-1"},
            {"exp": [3], "coeff": "t^2"}]})],
    # a tail bound compared with the stored maximum: below it, and above
    "q3-gauss-norm-tail-below": [
        "gauss-norm", "--field", "q3", "--series",
        json.dumps({"kind": "power", "radius": ["r1"], "terms": [
            {"exp": [0], "coeff": "1"}, {"exp": [3], "coeff": "3"}],
            "tail": {"e0": "1", "radius": ["2"]}})],
    "q3-gauss-norm-tail-above": [
        "gauss-norm", "--field", "q3", "--series",
        json.dumps({"kind": "power", "radius": ["r1"], "terms": [
            {"exp": [2], "coeff": "9"}],
            "tail": {"e0": "0", "radius": ["1"]}})],
    # a planted relation among the coefficients, and a span too small to
    # decide
    "pbasis-cert-planted-relation": [
        "pbasis-cert", "--nvars", "1", "--tdeg", "2", "--cdeg", "1",
        "--series", json.dumps({"kind": "power", "radius": ["r1"], "terms": [
            {"exp": [0], "coeff": "t^2"}, {"exp": [2], "coeff": "u1^2"}]})],
    "pbasis-cert-not-certified": [
        "pbasis-cert", "--nvars", "1", "--tdeg", "2", "--cdeg", "1",
        "--series", json.dumps({"kind": "power", "radius": ["r1"], "terms": [
            {"exp": [0], "coeff": "t^8"}]})],
    # towers that stop: no square root of 2 in Q_3, and no cube root of the
    # residue w in F_4
    "q3-tower-obstructed": ["tower", "--field", "q3", "--prime", "2",
                            "--target", "2", "--depth", "1"],
    "f4t-tower-obstructed-residue": [
        "tower", "--field", "f4t", "--prime", "3", "--target", "w*(1 + t)",
        "--depth", "2"],
    # equal norms written differently: 27 and T^5 over rs are both q^-3,
    # and f^5 of the four-term series over (r1, r1s) has two terms of
    # equal norm where f has none
    "rational-radius-gauss-norm-tie": TIES + [
        "gauss-norm", "--field", "q3", "--series", _STUB_TIE],
    "rational-radius-spectral-tie": TIES + [
        "spectral-radius", "--field", "q3", "--series", _STUB_TIE],
    "twin-radii-spectral-tie": TIES + [
        "spectral-radius", "--field", "q5", "--series", json.dumps({
            "kind": "power", "radius": ["r1", "r1s"], "terms": [
                {"exp": [3, 4], "coeff": "7/3*5"},
                {"exp": [0, 1], "coeff": "8/3*5"},
                {"exp": [4, 2], "coeff": "8/9*5^2"},
                {"exp": [1, 0], "coeff": "1/9*5"}]})],
}


def run_case(argv, out_dir):
    """(exit code, artifact sha256, artifact path) of one CLI run."""
    code = main(list(argv) + ["--out", str(out_dir)])
    command = build_parser().parse_args(argv).command
    path = os.path.join(str(out_dir), command + ".json")
    with open(path, "rb") as fh:
        return code, hashlib.sha256(fh.read()).hexdigest(), path


def _table():
    with open(TABLE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_artifact(case, tmp_path):
    want = _table()[case]
    code, digest, path = run_case(CASES[case], tmp_path)
    assert (code, digest) == (want["exit"], want["sha256"])
    assert main(["--check", path]) == 0


def test_table_covers_cases():
    assert sorted(_table()) == sorted(CASES)


def test_terms_7_extends_the_readme_table(tmp_path):
    rows = []
    for case in ("readme-unbounded-demo", "unbounded-demo-terms-7"):
        _, _, path = run_case(CASES[case], tmp_path / case)
        with open(path) as fh:
            rows.append(json.load(fh)["result"]["witness"]["rows"])
    six, seven = rows
    assert seven[:5] == six and len(seven) == 6
    assert seven[5]["tail_index"] == 4633


@pytest.mark.parametrize("case", sorted(CASES))
def test_replay_names_a_missing_param(case, tmp_path, capsys):
    # the params a run of the case stores, each deleted in turn
    args = build_parser().parse_args(CASES[case])
    params = _params_for(args, load_config(args.config))
    for key in params:
        art = make_artifact(args.command, dict(params), {}, "", "")
        del art["params"][key]
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(art))
        capsys.readouterr()
        assert main(["--check", str(path)]) == 1
        assert capsys.readouterr().err == \
            f"error: artifact params lack {key!r}\n"


if __name__ == "__main__":
    table = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            code, digest, _ = run_case(CASES[name], tmp)
        table[name] = {"exit": code, "sha256": digest}
    with open(TABLE, "w") as fh:
        json.dump(table, fh, sort_keys=True, indent=2)
        fh.write("\n")
