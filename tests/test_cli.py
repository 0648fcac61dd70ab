"""CLI subcommands: artifacts, exit codes, determinism and replay."""

import json
import sys
import time
from fractions import Fraction

import pytest

from nonarch import cli, frobenius
from nonarch.cli import main
from nonarch.coeffs import GF
from nonarch.fields import PADIC, FieldSpec, scalar_from_literal
from nonarch.series import TateSeries
from nonarch.squarezero import SquareZeroElem, SquareZeroRing

SER_Q3 = json.dumps({"kind": "laurent", "radius": ["r1"],
                     "terms": [{"exp": [1], "coeff": "3"},
                               {"exp": [2], "coeff": "1"}]})
SER_F2 = json.dumps({"kind": "power", "radius": ["r1"],
                     "terms": [{"exp": [1], "coeff": "t"},
                               {"exp": [2], "coeff": "1"}]})


def _read(out, name):
    with open(out / f"{name}.json") as fh:
        return json.load(fh)


def test_pth_root(tmp_path):
    code = main(["pth-root", "--field", "q3", "--prime", "2",
                 "--target", "4", "--out", str(tmp_path)])
    assert code == 0
    art = _read(tmp_path, "pth-root")
    assert art["verdict"] == "CERTIFIED"
    assert art["result"]["trace"]["steps"][0]["g"] == "1/2*3^1"
    assert art["result"]["replay_ok"]


def test_gauss_and_spectral(tmp_path):
    assert main(["gauss-norm", "--field", "q3", "--series", SER_Q3,
                 "--out", str(tmp_path)]) == 0
    art = _read(tmp_path, "gauss-norm")
    assert art["result"]["norm"] == {"e0": "0", "radius": ["2"]}
    assert art["result"]["exact"]
    assert main(["spectral-radius", "--field", "q3", "--series", SER_Q3,
                 "--out", str(tmp_path)]) == 0
    art = _read(tmp_path, "spectral-radius")
    assert art["result"]["all_match"]
    assert len(art["result"]["power_estimates"]) == 6


def test_gauss_norm_zero_series(tmp_path):
    ser = json.dumps({"kind": "power", "radius": ["r1"], "terms": []})
    assert main(["gauss-norm", "--field", "q3", "--series", ser,
                 "--out", str(tmp_path)]) == 0
    art = _read(tmp_path, "gauss-norm")
    assert art["result"]["norm"] == {"zero": True}


def test_tower_and_obstruction(tmp_path):
    assert main(["tower", "--field", "q3", "--prime", "2", "--target", "4",
                 "--depth", "2", "--out", str(tmp_path)]) == 0
    art = _read(tmp_path, "tower")
    assert art["verdict"] == "VERIFIED" and art["result"]["base_is_unit"]
    assert main(["tower", "--field", "q3", "--prime", "2", "--target", "3",
                 "--depth", "1", "--out", str(tmp_path)]) == 2
    art = _read(tmp_path, "tower")
    assert art["verdict"] == "OBSTRUCTED"
    assert art["result"]["obstruction_depth"] == 1


def test_sparse_and_nonintegral(tmp_path):
    assert main(["sparse-series", "--terms", "3", "--radius", "r1",
                 "--field", "q3", "--out", str(tmp_path)]) == 0
    art = _read(tmp_path, "sparse-series")
    assert art["result"]["indices"] == [2, 4, 11]
    assert main(["nonintegral-cert", "--terms", "3", "--nmax", "2",
                 "--dmax", "3", "--field", "q3",
                 "--out", str(tmp_path)]) == 0
    art = _read(tmp_path, "nonintegral-cert")
    assert art["verdict"] == "NON_INTEGRAL"
    control = json.dumps({"kind": "power", "radius": ["r1"],
                          "terms": [{"exp": [1], "coeff": "1"}]})
    assert main(["nonintegral-cert", "--series", control, "--nmax", "1",
                 "--dmax", "1", "--field", "q3",
                 "--out", str(tmp_path)]) == 2


def test_unbounded_demo(tmp_path):
    assert main(["unbounded-demo", "--terms", "4", "--radius", "r1",
                 "--bound", "1e6", "--field", "q3",
                 "--out", str(tmp_path)]) == 0
    art = _read(tmp_path, "unbounded-demo")
    assert art["verdict"] == "UNBOUNDED"
    rows = art["result"]["witness"]["rows"]
    assert [r["tail_index"] for r in rows] == [4, 11, 37]


def test_pbasis_cert(tmp_path):
    assert main(["pbasis-cert", "--prime", "2", "--nvars", "3", "--terms",
                 "4", "--tdeg", "4", "--cdeg", "2",
                 "--out", str(tmp_path)]) == 0
    art = _read(tmp_path, "pbasis-cert")
    assert art["verdict"] == "P_INDEPENDENT"
    control = json.dumps({"kind": "power", "radius": ["r1"],
                          "terms": [{"exp": [2], "coeff": "u1^2"}]})
    assert main(["pbasis-cert", "--series", control, "--tdeg", "4",
                 "--cdeg", "2", "--out", str(tmp_path)]) == 2


def test_pbasis_cert_at_64_variables(tmp_path, capsys):
    # every single generator t, u1..u64 present; the 2^65 - 1 products
    # are never listed
    assert main(["pbasis-cert", "--nvars", "64", "--terms", "65",
                 "--out", str(tmp_path)]) == 0
    art = _read(tmp_path, "pbasis-cert")
    assert art["verdict"] == "P_INDEPENDENT"
    assert art["result"]["series"]["terms"][-1]["coeff"] == "u64"
    capsys.readouterr()
    assert main(["--check", str(tmp_path / "pbasis-cert.json")]) == 0
    assert "replay matches" in capsys.readouterr().out


def test_residue_prime_past_the_primality_bound_refused(tmp_path, capsys):
    cfg = tmp_path / "session.json"
    cfg.write_text(json.dumps({"fields": {"qbig": {
        "kind": "PADIC", "residue_prime": (1 << 89) - 1,
        "precision_cap": 30}}}))
    _fails_with_one_line(capsys, ["--config", str(cfg), "pth-root",
                                  "--field", "qbig", "--prime", "2",
                                  "--target", "4", "--out", str(tmp_path)])


def test_field_over_a_61_bit_prime(tmp_path):
    cfg = tmp_path / "session.json"
    cfg.write_text(json.dumps({"fields": {"q61": {
        "kind": "PADIC", "residue_prime": (1 << 61) - 1,
        "precision_cap": 30}}}))
    assert main(["--config", str(cfg), "gauss-norm", "--field", "q61",
                 "--series", SER_Q3, "--out", str(tmp_path)]) == 0
    assert main(["--check", str(tmp_path / "gauss-norm.json")]) == 0


@pytest.mark.parametrize("limit", [None, 640], ids=["default", "640"])
def test_root_with_literals_past_the_int_str_limit(tmp_path, limit):
    # q = 2^61 - 1 and |f - 1| = 1/q: at cap 64 the Newton steps' defects
    # run to thousands of digits, past the interpreter's int-to-str limit
    cfg = tmp_path / "session.json"
    cfg.write_text(json.dumps({"fields": {"q61": {
        "kind": "PADIC", "residue_prime": (1 << 61) - 1,
        "precision_cap": 64}}}))
    old = sys.get_int_max_str_digits()
    if limit is not None:
        sys.set_int_max_str_digits(limit)
    try:
        assert main(["--config", str(cfg), "pth-root", "--field", "q61",
                     "--prime", "2", "--target", str(1 << 61),
                     "--out", str(tmp_path)]) == 0
        assert main(["--check", str(tmp_path / "pth-root.json")]) == 0
    finally:
        sys.set_int_max_str_digits(old)
    art = _read(tmp_path, "pth-root")
    assert art["verdict"] == "CERTIFIED"
    longest = max(len(s["h"]) for s in art["result"]["trace"]["steps"])
    assert longest > 4300


def test_literals_past_the_int_str_limit_round_trip():
    spec = FieldSpec(PADIC, 5)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        n = int("7" * 6000)
    finally:
        sys.set_int_max_str_digits(old)
    s = scalar_from_literal(spec, "7" * 6000 + "/2")
    assert s.to_fraction() == Fraction(n, 2)
    assert scalar_from_literal(spec, s.to_literal()).equals(s)
    assert s.to_literal() == "7" * 6000 + "/2"
    # under the limit the literal is plain str() of the ints
    assert scalar_from_literal(spec, "4301/7").to_literal() == "4301/7"
    # non-decimal digits stay refused with int()'s message
    with pytest.raises(ValueError, match="invalid literal"):
        scalar_from_literal(spec, "²" * 5000)


def test_ffinite_decompose(tmp_path):
    assert main(["ffinite-decompose", "--field", "f2t", "--series",
                 SER_F2, "--out", str(tmp_path)]) == 0
    art = _read(tmp_path, "ffinite-decompose")
    assert art["result"]["round_trip_exact"]
    assert art["result"]["derivative_span"]
    assert all(r["pass"] for r in art["result"]["norm_bounds"])


def test_sz_check(tmp_path):
    assert main(["sz-check", "--field", "q3", "--count", "60", "--seed",
                 "7", "--out", str(tmp_path)]) == 0
    art = _read(tmp_path, "sz-check")
    assert art["result"]["failures"] == []


def test_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["unbounded-demo", "--terms", "4", "--radius", "r1",
                     "--bound", "1e6", "--field", "q3",
                     "--out", str(out)]) == 0
    assert (a / "unbounded-demo.json").read_bytes() \
        == (b / "unbounded-demo.json").read_bytes()


def test_check_replay(tmp_path):
    assert main(["pth-root", "--field", "q3", "--prime", "2", "--target",
                 "25", "--out", str(tmp_path)]) == 0
    path = tmp_path / "pth-root.json"
    assert main(["pth-root", "--check", str(path)]) == 0
    art = json.loads(path.read_text())
    art["result"]["root_capped"] = "1"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(art))
    assert main(["pth-root", "--check", str(tampered)]) == 2


def _set(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    if value is _DELETE:
        del doc[last]
    else:
        doc[last] = value


_DELETE = object()


@pytest.mark.parametrize("path,value,where", [
    (("result", "trace", "steps", 3, "h"), "1", "result.trace.steps[3].h"),
    (("result", "trace", "steps", 0, "m"), 99, "result.trace.steps[0].m"),
    (("result", "trace", "certified"), 1, "result.trace.certified"),
    (("result", "trace", "steps", 5), _DELETE, "result.trace.steps[5]"),
    (("result", "trace", "claim"), _DELETE, "result.trace.claim"),
    (("result", "extra"), [], "result.extra"),
])
def test_replay_names_the_first_path_that_differs(path, value, where,
                                                  tmp_path, capsys):
    assert main(["pth-root", "--field", "q3", "--prime", "2", "--target",
                 "25", "--out", str(tmp_path)]) == 0
    art = _read(tmp_path, "pth-root")
    assert len(art["result"]["trace"]["steps"]) == 6
    # "verdict" sorts after "result": the edit there is not the first
    art["verdict"] = "EDITED"
    _set(art, path, value)
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(art))
    capsys.readouterr()
    assert main(["--check", str(edited)]) == 2
    assert capsys.readouterr().out == \
        f"pth-root: replay DIFFERS at {where} (verdict CERTIFIED)\n"


@pytest.mark.parametrize("schema,shown", [
    ("nonarch-artifact/1", "nonarch-artifact/1"),
    ("nonarch-artifact/2", "nonarch-artifact/2"),
    (_DELETE, "(none)"),
    (5, "5"),
], ids=["schema-1", "schema-2", "missing", "number"])
def test_check_refuses_another_schema(schema, shown, tmp_path, capsys,
                                      monkeypatch):
    assert main(["pth-root", "--field", "q3", "--prime", "2", "--target",
                 "25", "--out", str(tmp_path)]) == 0
    art = _read(tmp_path, "pth-root")
    _set(art, ("schema",), schema)
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(art))

    def replay(params):
        raise AssertionError("an artifact of another schema was replayed")

    monkeypatch.setitem(cli.COMMANDS, "pth-root",
                        cli.COMMANDS["pth-root"]._replace(run=replay))
    capsys.readouterr()
    assert main(["--check", str(edited)]) == 2
    assert capsys.readouterr().out == (
        f"pth-root: artifact schema {shown} is not {cli.SCHEMA}; "
        "regenerate it\n")


def test_first_difference_of_values():
    first = cli._first_difference
    assert first({"a": [1, {"b": 2}]}, {"a": [1, {"b": 3}]}) == "a[1].b"
    assert first({"a": [1, 2]}, {"a": [1]}) == "a[1]"
    assert first({"a": 1, "b": 1}, {"b": 2}) == "a"
    assert first({"a": True}, {"a": 1}) == "a"
    assert first({"a": 0.0}, {"a": -0.0}) == "a"
    assert first([1], {"a": 1}) == first({"a": 1}, {"a": 1}) == ""
    deep = inner = []
    for _ in range(100_000):
        inner.append([])
        inner = inner[0]
    assert first({"x": deep}, {"x": []}) == "x[0]"


def test_bad_inputs(tmp_path):
    assert main(["gauss-norm", "--field", "nosuch", "--series", SER_Q3,
                 "--out", str(tmp_path)]) == 1
    assert main(["gauss-norm", "--field", "q3", "--series", "{bad json",
                 "--out", str(tmp_path)]) == 1


def test_config_file(tmp_path):
    cfg = tmp_path / "session.json"
    cfg.write_text(json.dumps({
        "fields": {"q7": {"kind": "PADIC", "residue_prime": 7,
                          "precision_cap": 30}},
        "out": str(tmp_path / "cfgout"),
    }))
    assert main(["--config", str(cfg), "pth-root", "--field", "q7",
                 "--prime", "2", "--target", "8"]) == 0
    art = _read(tmp_path / "cfgout", "pth-root")
    assert art["params"]["field"]["residue_prime"] == 7


def _fails_with_one_line(capsys, argv):
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_vacuous_inputs_rejected(tmp_path, capsys):
    out = ["--out", str(tmp_path)]
    _fails_with_one_line(capsys, ["tower", "--field", "q3", "--prime", "2",
                                  "--target", "4", "--depth", "-1"] + out)
    _fails_with_one_line(capsys, ["sz-check", "--field", "q3", "--count",
                                  "-3"] + out)
    _fails_with_one_line(capsys, ["spectral-radius", "--field", "q3",
                                  "--series", SER_Q3, "--powers", "0"] + out)
    assert not list(tmp_path.iterdir())


def test_vacuous_replay_rejected(tmp_path, capsys):
    assert main(["tower", "--field", "q3", "--prime", "2", "--target", "4",
                 "--depth", "1", "--out", str(tmp_path)]) == 0
    art = _read(tmp_path, "tower")
    art["params"]["depth"] = -1
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(art))
    _fails_with_one_line(capsys, ["tower", "--check", str(edited)])


SER_ZERO = json.dumps({"kind": "power", "radius": ["r1"], "terms": []})
SER_INEXACT = json.dumps({"kind": "power", "radius": ["r1"],
                          "terms": [{"exp": [1], "coeff": "1"}],
                          "tail": {"e0": "5", "radius": ["0"]}})


def test_spectral_radius_of_zero_series_rejected(tmp_path, capsys):
    # no power estimate exists for 0, so VERIFIED would rest on nothing
    _fails_with_one_line(capsys, ["spectral-radius", "--field", "q3",
                                  "--series", SER_ZERO,
                                  "--out", str(tmp_path)])
    assert not list(tmp_path.iterdir())


def test_spectral_radius_of_inexact_series_rejected(tmp_path, capsys):
    _fails_with_one_line(capsys, ["spectral-radius", "--field", "q3",
                                  "--series", SER_INEXACT,
                                  "--out", str(tmp_path)])
    assert not list(tmp_path.iterdir())


def test_spectral_radius_replay_without_evidence_rejected(tmp_path, capsys):
    assert main(["spectral-radius", "--field", "q3", "--series", SER_Q3,
                 "--powers", "2", "--out", str(tmp_path)]) == 0
    art = _read(tmp_path, "spectral-radius")
    for ser in (SER_ZERO, SER_INEXACT):
        art["params"]["series"] = json.loads(ser)
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(art))
        _fails_with_one_line(capsys, ["spectral-radius", "--check",
                                      str(edited)])


def test_malformed_series_rejected(tmp_path, capsys):
    for bad in ('{"kind":"laurent","terms":[{"coeff":"3"}]}', "[1,2]",
                '{"terms":[{"exp":[1.5],"coeff":"3"}]}',
                '{"terms":[{"exp":[1],"coeff":3}]}', '{"terms":{}}',
                '{"radius":"r1","terms":[]}'):
        _fails_with_one_line(capsys, ["gauss-norm", "--field", "q3",
                                      "--series", bad,
                                      "--out", str(tmp_path)])


def test_config_caps_rejected(tmp_path, capsys):
    cfg = tmp_path / "session.json"
    for bad in ({"caps": {"support": 4096}}, {"fields": 5}, [1]):
        cfg.write_text(json.dumps(bad))
        _fails_with_one_line(capsys, ["--config", str(cfg), "pth-root",
                                      "--field", "q3", "--prime", "2",
                                      "--target", "4",
                                      "--out", str(tmp_path)])


def _ser_with_tail(tail):
    return json.dumps({"kind": "power", "radius": ["r1"],
                       "terms": [{"exp": [1], "coeff": "1"}], "tail": tail})


@pytest.mark.parametrize("tail", [5, [], "abc", {"radius": ["1"]}],
                         ids=["int", "list", "str", "no-e0"])
def test_malformed_series_tail_rejected(tail, tmp_path, capsys):
    _fails_with_one_line(capsys, ["gauss-norm", "--field", "q3", "--series",
                                  _ser_with_tail(tail),
                                  "--out", str(tmp_path)])
    assert not list(tmp_path.iterdir())


def _coeff_5(art):
    art["params"]["series"]["terms"][0]["coeff"] = 5


def _terms_7(art):
    art["params"]["series"]["terms"] = 7


def _params_zz(art):
    art["params"] = "zz"


def _radii_5(art):
    art["params"]["radii"] = 5


@pytest.mark.parametrize("edit", [_coeff_5, _terms_7, _params_zz, _radii_5],
                         ids=["coeff-int", "terms-int", "params-str",
                              "radii-int"])
def test_malformed_replay_rejected(edit, tmp_path, capsys):
    assert main(["gauss-norm", "--field", "q3", "--series", SER_Q3,
                 "--out", str(tmp_path)]) == 0
    art = _read(tmp_path, "gauss-norm")
    edit(art)
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(art))
    _fails_with_one_line(capsys, ["gauss-norm", "--check", str(edited)])


def _replay_edited(tmp_path, capsys, argv, edit):
    """Run argv (exit 0), apply edit to the artifact's params, and expect
    the replay to exit 1 with one line."""
    assert main(argv + ["--out", str(tmp_path)]) == 0
    art = _read(tmp_path, argv[0])
    edit(art["params"])
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(art))
    _fails_with_one_line(capsys, [argv[0], "--check", str(edited)])


# inputs whose positive verdict rested on no evidence: a span of 0 products,
# a decomposition with no parts
@pytest.mark.parametrize("argv,good,key,value", [
    (["pbasis-cert", "--tdeg", "-1"], ["pbasis-cert"], "T_deg_max", -1),
    (["pbasis-cert", "--cdeg", "-1"], ["pbasis-cert"], "coeff_deg_max", -1),
    (["ffinite-decompose", "--field", "f2t", "--series", SER_ZERO],
     ["ffinite-decompose", "--field", "f2t", "--series", SER_F2],
     "series", json.loads(SER_ZERO)),
], ids=["tdeg", "cdeg", "zero-series"])
def test_vacuous_positive_verdicts_rejected(argv, good, key, value, tmp_path,
                                            capsys):
    _fails_with_one_line(capsys, argv + ["--out", str(tmp_path)])
    assert not list(tmp_path.iterdir())
    _replay_edited(tmp_path, capsys, good,
                   lambda params: params.update({key: value}))


@pytest.mark.parametrize("key,value", [
    ("depth", "x"), ("field", 5), ("prime", "2"), ("target", 7)])
def test_malformed_tower_params_rejected(key, value, tmp_path, capsys):
    _replay_edited(tmp_path, capsys,
                   ["tower", "--field", "q3", "--prime", "2", "--target",
                    "4", "--depth", "1"],
                   lambda params: params.update({key: value}))


def _radius(kind, params, **extra):
    return {"radii": {"r1": {"gen_id": "r1", "kind": kind, "params": params,
                             **extra}}}


@pytest.mark.parametrize("field,cfg", [
    ("q7", {"fields": {"q7": {"residue_prime": 7, "precision_cap": 30}}}),
    ("q3", _radius("quadratic", {"a": 0, "c": 2, "d": 2})),
    ("q7", {"fields": {"q7": {"kind": PADIC, "residue_prime": 7,
                              "precison_cap": 30}}}),
    ("rf", {"fields": {"rf": {"kind": "RATFUN_LAURENT", "residue_prime": 2,
                              "nvars": 3}}}),
    ("q3", _radius("quadratic", {"a": 0, "b": 1, "c": 2, "d": 2},
                   asserts_irrational=True, nte="typo")),
    # an irrationality claim the params do not bear out
    ("q3", _radius("rational", {"value": "3/5"}, asserts_irrational=True)),
    ("q3", _radius("quadratic", {"a": 1, "b": 0, "c": 2, "d": 2},
                   asserts_irrational=True)),
    ("q3", _radius("quadratic", {"a": 0, "b": 1, "c": 2, "d": 9},
                   asserts_irrational=True)),
    ("q3", _radius("quadratic", {"a": 0, "b": 1, "c": 2, "d": 2},
                   asserts_irrational=False)),
], ids=["field-without-kind", "quadratic-without-b", "field-unknown-key",
        "field-nvars-alias", "radius-unknown-key",
        "rational-claims-irrational", "quadratic-b0-claims-irrational",
        "quadratic-square-d-claims-irrational", "irrational-denied"])
def test_malformed_config_entries_rejected(field, cfg, tmp_path, capsys):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(cfg))
    _fails_with_one_line(capsys, ["--config", str(path), "sparse-series",
                                  "--field", field, "--terms", "3",
                                  "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("target", ["82", "98/17"])
def test_deep_padic_pth_root_certified(target, tmp_path):
    # |f - 1| = 3^-4 makes the tolerance 3^-160, so the corrections must
    # keep more than the 136 digits that suffice for |f - 1| = 1/3
    assert main(["pth-root", "--field", "q3", "--prime", "2", "--target",
                 target, "--out", str(tmp_path)]) == 0
    assert _read(tmp_path, "pth-root")["verdict"] == "CERTIFIED"
    assert main(["pth-root", "--check",
                 str(tmp_path / "pth-root.json")]) == 0


# each flag with a minimum of 1: a command line without it, the flag, its
# params key and a value that runs
@pytest.mark.parametrize("argv,flag,key,good", [
    (["pth-root", "--field", "q3", "--prime", "2", "--target", "4"],
     "--max-steps", "max_steps", "8"),
    (["spectral-radius", "--field", "q3", "--series", SER_Q3],
     "--powers", "powers", "2"),
    (["tower", "--field", "q3", "--prime", "2", "--target", "4"],
     "--depth", "depth", "1"),
    (["pbasis-cert"], "--terms", "terms", "2"),
    (["sz-check", "--field", "q3"], "--count", "count", "2"),
], ids=["max-steps", "powers", "depth", "terms", "count"])
@pytest.mark.parametrize("steps", [0, -2])
def test_flag_below_its_minimum_rejected(steps, argv, flag, key, good,
                                         tmp_path, capsys):
    # a --max-steps of 0 used to run the default budget, -2 to fail after
    # "-2 steps"; the minimum holds on the run and on --check alike
    want = f"error: {argv[0]} needs {flag} >= 1\n"
    capsys.readouterr()
    assert main(argv + [flag, str(steps),
                        "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == want
    assert not (tmp_path / "run").exists()
    assert main(argv + [flag, good, "--out", str(tmp_path)]) == 0
    art = _read(tmp_path, argv[0])
    art["params"][key] = steps
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(art))
    capsys.readouterr()
    assert main([argv[0], "--check", str(edited)]) == 1
    assert capsys.readouterr().err == want


# ids: b/c, the coefficient of sqrt(2) in log_q(1/r)
@pytest.mark.parametrize("b,want", [
    (-1, "table needs a radius r < 1"),
    (0, 'radius rs declares "asserts_irrational": true, but its quadratic '
        "params make it false"),
], ids=["-1/2", "0"])
def test_unbounded_demo_needs_radius_below_one(b, want, tmp_path, capsys):
    # log_q(1/r) = -sqrt(2)/2 makes r > 1; b = 0 makes r = 1 exactly, a
    # radius inside |k^x|^Q that cannot be declared irrational
    cfg = tmp_path / "session.json"
    cfg.write_text(json.dumps({"radii": {"rs": {
        "gen_id": "rs", "kind": "quadratic",
        "params": {"a": 0, "b": b, "c": 2, "d": 2},
        "asserts_irrational": True}}}))
    capsys.readouterr()
    assert main(["--config", str(cfg), "unbounded-demo", "--terms", "3",
                 "--radius", "rs", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {want}\n"
    assert not (tmp_path / "out").exists()


def test_unbounded_demo_r06_is_not_declared(tmp_path, capsys):
    # log_q(1/r) = 3/5 puts r inside |k^x|^Q, where every such map is bounded
    _fails_with_one_line(capsys, [
        "unbounded-demo", "--terms", "6", "--radius", "r06", "--bound", "1e6",
        "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


RATIONAL_RADIUS = {"radii": {"rs": {"gen_id": "rs", "kind": "rational",
                                    "params": {"value": "3/5"}}}}


@pytest.mark.parametrize("argv", [
    ["unbounded-demo", "--terms", "4", "--bound", "1e6"],
    ["sparse-series", "--terms", "3"],
    ["nonintegral-cert", "--terms", "3", "--nmax", "1", "--dmax", "1"],
], ids=["unbounded-demo", "sparse-series", "nonintegral-cert"])
def test_rational_radius_refused_where_the_gap_series_needs_irrationality(
        argv, tmp_path, capsys):
    cfg = tmp_path / "session.json"
    cfg.write_text(json.dumps(RATIONAL_RADIUS))
    capsys.readouterr()
    assert main(["--config", str(cfg)] + argv + [
        "--radius", "rs", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err \
        == "error: radius rs is not declared outside |k^x|^Q\n"
    assert not (tmp_path / "out").exists()


def test_rational_radius_runs_gauss_norm(tmp_path):
    cfg = tmp_path / "session.json"
    cfg.write_text(json.dumps(RATIONAL_RADIUS))
    series = SER_Q3.replace('"r1"', '"rs"')
    assert main(["--config", str(cfg), "gauss-norm", "--series", series,
                 "--out", str(tmp_path)]) == 0
    art = _read(tmp_path, "gauss-norm")
    assert art["params"]["radii"] == [RATIONAL_RADIUS["radii"]["rs"]]
    assert main(["--check", str(tmp_path / "gauss-norm.json")]) == 0


@pytest.mark.parametrize("radius", [
    {"gen_id": "r1", "kind": "rational", "params": {"value": "3/5"},
     "asserts_irrational": True},
    {"gen_id": "r1", "kind": "quadratic",
     "params": {"a": 0, "b": 0, "c": 2, "d": 2}, "asserts_irrational": True},
], ids=["rational", "quadratic-b0"])
def test_unbounded_demo_replay_of_false_irrationality_rejected(
        radius, tmp_path, capsys):
    # exit 1 with one error line, not a "replay DIFFERS" (exit 2)
    _replay_edited(tmp_path, capsys,
                   ["unbounded-demo", "--terms", "4", "--radius", "r1",
                    "--bound", "1e6"],
                   lambda params: params.update(radius=radius))


@pytest.mark.parametrize("bound", ["1/0", "-5", "0", "1"])
def test_unbounded_demo_vacuous_bound_rejected(bound, tmp_path, capsys):
    # every ratio r^(-i) with r < 1 exceeds a bound <= 1, and 1/0 is no
    # number at all: neither is evidence of unboundedness
    _fails_with_one_line(capsys, [
        "unbounded-demo", "--terms", "4", "--radius", "r1",
        f"--bound={bound}", "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_unbounded_demo_replay_of_infinite_bound_rejected(tmp_path, capsys):
    assert main(["unbounded-demo", "--terms", "4", "--radius", "r1",
                 "--bound", "1e6", "--out", str(tmp_path)]) == 0
    art = _read(tmp_path, "unbounded-demo")
    art["params"]["bound"] = "1/0"
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(art))
    _fails_with_one_line(capsys, ["unbounded-demo", "--check", str(edited)])


@pytest.mark.parametrize("bound", ["1/0e3", "1e6.5"])
def test_unbounded_demo_malformed_exponent_bound_rejected(bound, tmp_path,
                                                          capsys):
    _fails_with_one_line(capsys, [
        "unbounded-demo", "--terms", "4", "--bound", bound,
        "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bound", ["1e999999999999", "1e-999999999999"])
def test_unbounded_demo_exponent_past_the_digit_limit_rejected(
        bound, tmp_path, capsys):
    # 10^exp is refused before it is built, which would never end
    _fails_with_one_line(capsys, [
        "unbounded-demo", "--terms", "4", "--bound", bound,
        "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()
    _replay_edited(tmp_path, capsys, ["unbounded-demo", "--terms", "4"],
                   lambda params: params.update(bound=bound))


def test_padic_literal_powers_past_the_digit_limit_rejected(tmp_path,
                                                            capsys):
    # 2^1000000 took 12 s, and 3^100000000 never finished; each is refused
    # before the power is built, on the run and on the replay
    big = json.loads(SER_Q3)
    big["terms"][0]["coeff"] = "3^100000000"
    for argv, edit in (
            (["pth-root", "--field", "q3", "--prime", "2", "--target",
              "2^1000000"], lambda params: params.update(target="2^1000000")),
            (["gauss-norm", "--field", "q3", "--series", json.dumps(big)],
             lambda params: params.update(series=big))):
        _fails_with_one_line(capsys, argv + ["--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()
        good = argv[:-1] + ["4" if argv[0] == "pth-root" else SER_Q3]
        _replay_edited(tmp_path, capsys, good, edit)


def test_unbounded_demo_bound_stored_exact(tmp_path):
    # one reader takes the bound on the run and on the replay, and the
    # artifact stores what it read: an integer or p/q
    assert main(["unbounded-demo", "--terms", "4", "--bound", "2.5",
                 "--out", str(tmp_path)]) == 0
    assert _read(tmp_path, "unbounded-demo")["params"]["bound"] == "5/2"
    assert main(["--check", str(tmp_path / "unbounded-demo.json")]) == 0


# JSON norm exponents and radius values are integers or p/q: a zero
# denominator, or e-notation whose power of 10 Fraction() would never
# finish, exits 1 with one line on the run and on the replay
_BAD_RATIOS = ["1/0", "1e999999999", "0.5"]


@pytest.mark.parametrize("e0", _BAD_RATIOS)
def test_malformed_tail_exponent_rejected(e0, tmp_path, capsys):
    series = json.loads(SER_Q3)
    series["tail"] = {"e0": e0, "radius": ["1"]}
    _fails_with_one_line(capsys, [
        "gauss-norm", "--field", "q3", "--series", json.dumps(series),
        "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()
    _replay_edited(tmp_path, capsys, ["gauss-norm", "--series", SER_Q3],
                   lambda params: params["series"].update(
                       tail={"e0": e0, "radius": ["1"]}))


@pytest.mark.parametrize("value", _BAD_RATIOS + [None, True, 0.5])
def test_malformed_rational_radius_rejected(value, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"radii": {"rs": {
        "gen_id": "rs", "kind": "rational", "params": {"value": value}}}}))
    series = SER_Q3.replace('"r1"', '"rs"')
    _fails_with_one_line(capsys, [
        "--config", str(bad), "gauss-norm", "--series", series,
        "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()
    cfg = tmp_path / "session.json"
    cfg.write_text(json.dumps(RATIONAL_RADIUS))
    assert main(["--config", str(cfg), "gauss-norm", "--series", series,
                 "--out", str(tmp_path)]) == 0
    art = _read(tmp_path, "gauss-norm")
    art["params"]["radii"][0]["params"]["value"] = value
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(art))
    _fails_with_one_line(capsys, ["--check", str(edited)])


@pytest.mark.parametrize("field", ["f2t", "f4t", "ratfun2"])
def test_unbounded_demo_over_characteristic_p_refused(field, tmp_path,
                                                      capsys):
    # every field of characteristic p here is F-finite, where every
    # homomorphism of affinoid algebras is bounded: UNBOUNDED would be false
    _fails_with_one_line(capsys, [
        "unbounded-demo", "--field", field, "--terms", "5", "--radius", "r1",
        "--bound", "1e6", "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_unbounded_demo_replay_over_characteristic_p_refused(tmp_path,
                                                             capsys):
    f2t = cli.load_config()["fields"]["f2t"]
    _replay_edited(tmp_path, capsys,
                   ["unbounded-demo", "--terms", "4", "--radius", "r1",
                    "--bound", "1e6"],
                   lambda params: params.update(field=f2t))


def test_residue_one_tower_over_a_30_bit_prime(tmp_path):
    # a unit of residue 1 takes root 1 without listing the 10^9 + 7
    # residues, which took longer than 20 s
    cfg = tmp_path / "session.json"
    cfg.write_text(json.dumps({"fields": {"q30": {
        "kind": "PADIC", "residue_prime": 10 ** 9 + 7,
        "precision_cap": 40}}}))
    start = time.perf_counter()
    assert main(["--config", str(cfg), "tower", "--field", "q30", "--prime",
                 "2", "--target", str(10 ** 9 + 8), "--depth", "2",
                 "--out", str(tmp_path)]) == 0
    assert main(["--check", str(tmp_path / "tower.json")]) == 0
    assert time.perf_counter() - start < 2
    assert _read(tmp_path, "tower")["verdict"] == "VERIFIED"


def _q30_config(tmp_path):
    cfg = tmp_path / "session.json"
    cfg.write_text(json.dumps({"fields": {"q30": {
        "kind": "PADIC", "residue_prime": 10 ** 9 + 7,
        "precision_cap": 40}}}))
    return ["--config", str(cfg)]


@pytest.mark.parametrize("prime,depth", [(3, 2), (2, 1)])
def test_other_residue_towers_over_a_30_bit_prime(tmp_path, prime, depth):
    # 3 does not divide 10^9 + 6, so the cube root of the residue 4 is a
    # power of it; 2 does, and a scan finds the square root 2
    start = time.perf_counter()
    assert main(_q30_config(tmp_path) + [
        "tower", "--field", "q30", "--prime", str(prime), "--target", "4",
        "--depth", str(depth), "--out", str(tmp_path)]) == 0
    assert main(["--check", str(tmp_path / "tower.json")]) == 0
    assert time.perf_counter() - start < 2
    assert _read(tmp_path, "tower")["verdict"] == "VERIFIED"


def test_residue_root_past_the_scan_limit_refused(tmp_path, capsys):
    # the square roots of 2 mod 10^9 + 7 lie past the first 2^20 residues
    _fails_with_one_line(capsys, _q30_config(tmp_path) + [
        "tower", "--field", "q30", "--prime", "2", "--target", "4",
        "--depth", "2", "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_precision_zero_rejected(tmp_path, capsys):
    # a falsy 0 used to fall back to the field's cap of 40
    capsys.readouterr()
    assert main(["pth-root", "--field", "q3", "--prime", "2", "--target",
                 "7", "--precision", "0", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == \
        "error: precision_cap must be >= 1\n"
    assert not list(tmp_path.iterdir())


def test_check_with_equals_sign_replays(tmp_path, capsys):
    argv = ["pth-root", "--field", "q3", "--prime", "2", "--target", "7"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    path = tmp_path / "pth-root.json"
    capsys.readouterr()
    assert main(argv + [f"--check={path}"]) == 0
    assert capsys.readouterr().out == \
        "pth-root: replay matches (verdict CERTIFIED)\n"
    art = _read(tmp_path, "pth-root")
    art["result"]["root_capped"] = "1"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(art))
    assert main([f"--check={tampered}"]) == 2
    _fails_with_one_line(capsys, ["--check="])


@pytest.mark.parametrize("argv", [
    ["tower", "--field", "q3", "--prime", "2", "--target", "4",
     "--depth", "x"],
    ["tower", "--field", "q3", "--target", "4", "--depth", "1"],
    ["sz-check", "--count", "3", "--no-such-flag"],
    ["pth-root", "--field", "q3", "--prime", "2", "--target", "4",
     "--radius", "r1"],
    ["tower", "--field", "q3", "--prime", "2", "--target", "4",
     "--depth", "1", "--radius", "nosuch"],
    ["no-such-command"],
    [],
], ids=["bad-int", "missing-prime", "unknown-flag", "pth-root-radius",
        "tower-radius", "unknown-command", "no-command"])
def test_usage_errors_exit_1_with_one_line(argv, tmp_path, capsys):
    # exit status 2 is a negative verdict; a usage error is an error
    _fails_with_one_line(capsys, argv + ["--out", str(tmp_path)])
    assert not list(tmp_path.iterdir())


def test_help_exits_0_and_names_check(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "--check=ARTIFACT" in capsys.readouterr().out


def test_nonintegral_replay_without_terms_or_series_rejected(tmp_path,
                                                            capsys):
    # the run path asks for --terms or --series; so must the replay
    _replay_edited(tmp_path, capsys,
                   ["nonintegral-cert", "--terms", "3", "--nmax", "2",
                    "--dmax", "3"],
                   lambda params: params.update({"terms": None}))


def test_replay_of_non_string_command_rejected(tmp_path, capsys):
    assert main(["sz-check", "--count", "4", "--out", str(tmp_path)]) == 0
    art = _read(tmp_path, "sz-check")
    art["command"] = ["sz-check"]
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(art))
    _fails_with_one_line(capsys, ["--check", str(edited)])


def test_replay_types_derived_from_command_table():
    # the hand-written table these types replace
    i, s, opt_i = (int,), (str,), (int, type(None))
    want = {
        "spectral-radius": {"powers": i},
        "pth-root": {"prime": i, "target": s, "max_steps": opt_i},
        "tower": {"prime": i, "target": s, "depth": i},
        "sparse-series": {"terms": i},
        "nonintegral-cert": {"n_max": i, "d_max": i, "terms": opt_i},
        "unbounded-demo": {"terms": i, "bound": s},
        "pbasis-cert": {"prime": i, "num_pbasis_vars": i, "terms": i,
                        "T_deg_max": i, "coeff_deg_max": i},
        "sz-check": {"count": i, "seed": i},
    }
    got = {name: cli.param_types(name) for name in cli.COMMANDS}
    assert {name: t for name, t in got.items() if t} == want
    assert sorted(got) == sorted([*want, "ffinite-decompose", "gauss-norm"])


@pytest.mark.parametrize("argv", [
    ["sparse-series", "--terms", "0"],
    ["nonintegral-cert", "--terms", "0", "--nmax", "2", "--dmax", "3"]],
    ids=["sparse-series", "nonintegral-cert"])
def test_empty_gap_series_rejected(argv, tmp_path, capsys):
    # 0 terms gave BUILT with no indices, or an IndexError traceback
    _fails_with_one_line(capsys, argv + ["--out", str(tmp_path / "run")])
    assert not (tmp_path / "run").exists()
    good = [a if a != "0" else "3" for a in argv]
    _replay_edited(tmp_path, capsys, good,
                   lambda params: params.update({"terms": 0}))


def _nested(n):
    return "(" * n + "1" + ")" * n


@pytest.mark.parametrize("depth", [260, 5000])
def test_deeply_nested_literal_rejected(depth, tmp_path, capsys):
    with pytest.raises(ValueError, match="nested too deeply"):
        scalar_from_literal(FieldSpec(PADIC, 3), _nested(depth))
    _fails_with_one_line(capsys, ["pth-root", "--field", "q3", "--prime",
                                  "2", "--target", _nested(depth),
                                  "--out", str(tmp_path)])
    assert not list(tmp_path.iterdir())


def test_nested_literal_at_the_limit_parses():
    one = scalar_from_literal(FieldSpec(PADIC, 3), _nested(200))
    assert one.to_literal() == "1"


PBASIS_SERIES = json.dumps({"kind": "power", "terms": [
    {"exp": [0], "coeff": "t"}, {"exp": [1], "coeff": "u1"}]})
PBASIS_ARGV = ["pbasis-cert", "--nvars", "1", "--tdeg", "2", "--cdeg", "1",
               "--series", PBASIS_SERIES]


def test_pbasis_series_prime_must_match_field(tmp_path, capsys):
    # the field's residue prime decides; a different --prime was stored
    # beside a witness for p = 2
    _fails_with_one_line(capsys, PBASIS_ARGV + ["--prime", "3",
                                                "--out", str(tmp_path)])
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("key,value", [("prime", 3), ("num_pbasis_vars", 2)])
def test_pbasis_series_replay_must_match_field(key, value, tmp_path, capsys):
    _replay_edited(tmp_path, capsys, PBASIS_ARGV,
                   lambda params: params.update({key: value}))


def _power_series(*coeffs):
    return json.dumps({"kind": "power", "radius": ["r1"],
                       "terms": [{"exp": [e], "coeff": c}
                                 for e, c in coeffs]})


def test_oversized_relation_system_rejected(tmp_path, capsys):
    # --terms 10: 2,854,742 nonzeros; T^3000000: 3,000,001 equations;
    # f = 0 with n_max 10^12: as many unknowns and powers of f
    _fails_with_one_line(capsys, ["unbounded-demo", "--terms", "10",
                                  "--out", str(tmp_path)])
    for ser, n_max in ((_power_series((3_000_000, "1")), "1"),
                       (_power_series(), "1000000000000")):
        _fails_with_one_line(capsys, ["nonintegral-cert", "--series", ser,
                                      "--nmax", n_max, "--dmax", "0",
                                      "--out", str(tmp_path)])
    assert not list(tmp_path.iterdir())


def test_elimination_fill_in_rejected(tmp_path, capsys):
    # f = 1 + T, d_max 20000: 60,003 nonzeros, but each column T^e
    # reduces down a chain of e pivots, about 2 * 10^8 entry operations
    ser = _power_series((0, "1"), (1, "1"))
    _fails_with_one_line(capsys, ["nonintegral-cert", "--series", ser,
                                  "--nmax", "1", "--dmax", "20000",
                                  "--out", str(tmp_path)])
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("terms", ["0", "-1"])
def test_pbasis_terms_below_one_rejected(terms, tmp_path, capsys):
    # with --series the count is never read, but it is stored
    _fails_with_one_line(capsys, PBASIS_ARGV + ["--terms", terms,
                                                "--out", str(tmp_path)])
    _fails_with_one_line(capsys, PBASIS_ARGV[:-2] + ["--terms", terms,
                                                     "--out", str(tmp_path)])
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("series", [True, False], ids=["series", "built"])
def test_pbasis_terms_below_one_replay_rejected(series, tmp_path, capsys):
    argv = PBASIS_ARGV if series else PBASIS_ARGV[:-2] + ["--terms", "2"]
    _replay_edited(tmp_path, capsys, argv,
                   lambda params: params.update(terms=-1))


def _deep_json(depth):
    return "[" * depth + "]" * depth


def test_deeply_nested_series_json_rejected(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(_deep_json(100_000))
    out = tmp_path / "out"
    _fails_with_one_line(capsys, ["gauss-norm", "--field", "q3", "--series",
                                  str(path), "--out", str(out)])
    assert not out.exists()


def test_deeply_nested_artifact_rejected(tmp_path, capsys):
    assert main(["gauss-norm", "--field", "q3", "--series", SER_Q3,
                 "--out", str(tmp_path)]) == 0
    text = (tmp_path / "gauss-norm.json").read_text()
    edited = tmp_path / "edited.json"
    edited.write_text(text.replace('"exact": true',
                                   '"exact": ' + _deep_json(100_000), 1))
    assert edited.read_text() != text
    _fails_with_one_line(capsys, ["--check", str(edited)])


def test_deeply_nested_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "session.json"
    cfg.write_text('{"fields": ' + _deep_json(100_000) + "}")
    _fails_with_one_line(capsys, ["--config", str(cfg), "pth-root",
                                  "--field", "q3", "--prime", "2",
                                  "--target", "4", "--out", str(tmp_path)])


def test_sz_check_multiplies_seven_times_per_trial(tmp_path, monkeypatch):
    # x*y is computed once and reused by assoc, distrib and submult
    calls = []
    mul = SquareZeroElem.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(SquareZeroElem, "__mul__", counting)
    for field in ("q3", "f2t"):
        calls.clear()
        assert main(["sz-check", "--field", field, "--count", "12",
                     "--out", str(tmp_path)]) == 0
        assert len(calls) == 7 * 12


def _drawn(x):
    """A drawn element as literals: a scalar, or the (exponent,
    coefficient) terms of a series in insertion order; both exact."""
    if isinstance(x, TateSeries):
        assert x.is_exact()
        return [(e, c.to_literal()) for (e,), c in x.support.items()]
    assert x.exact
    return x.to_literal()


# (x, y, z) of the first four trials of sz-check --seed 7 as drawn by the
# Fraction-based draws: scalar trials, then series trials, alternate
SZ_DRAWS = {
    "q3": [
        ("-10", "-5"), ("-26*3^-2", "-4*3^1"), ("7", "28*3^-2"),
        ([(1, "-28")], [(-2, "5*3^-1")]),
        ([(3, "-23"), (-2, "10*3^-2"), (1, "2*3^-1")], [(2, "-16")]),
        ([(-1, "-4")], [(0, "-23*3^-2"), (-2, "5"), (3, "7*3^-2")]),
        ("-1*3^2", "-8*3^-1"), ("5*3^1", "2*3^1"), ("1*3^2", "1*3^-2"),
        ([(1, "19/2"), (0, "7*3^-1")], [(3, "-5*3^1"), (-2, "19")]),
        ([(1, "-11*3^-2"), (3, "13"), (2, "-1")], [(1, "-23*3^-2")]),
        ([(-1, "1*3^2")], [(3, "-4"), (2, "-26*3^-2")]),
    ],
    "f2t": [
        ("t^2", "t^-1"), ("t^3", "t^-3"), ("t^-2", "t^-2"),
        ([(2, "t^-3"), (-2, "1")], [(1, "t^3")]),
        ([(-2, "1")], [(-2, "t^3"), (-1, "t^-2"), (2, "t^-3")]),
        ([(-2, "1"), (0, "t^-1")], [(2, "t^-2")]),
        ("t", "t^-1"), ("t^-2", "1"), ("t^2", "t^-2"),
        ([(2, "t^-3"), (1, "1")], [(0, "t^4"), (2, "t^4")]),
        ([(-1, "1"), (-2, "1")], [(2, "t"), (0, "t^4")]),
        ([(-2, "t^-2"), (-1, "t^2")], [(-2, "t^3"), (2, "t^-2")]),
    ],
}


@pytest.mark.parametrize("field", sorted(SZ_DRAWS))
def test_sz_check_draws_the_same_elements(field, tmp_path, monkeypatch):
    # the artifact stores no drawn element, so a change of the draws would
    # keep its bytes; each trial draws x, y, z, then builds two elements
    # for the square-zero check
    seen = []
    elem = SquareZeroRing.elem

    def recording(self, a, b):
        seen.append((_drawn(a), _drawn(b)))
        return elem(self, a, b)

    monkeypatch.setattr(SquareZeroRing, "elem", recording)
    assert main(["sz-check", "--field", field, "--count", "4", "--seed",
                 "7", "--out", str(tmp_path)]) == 0
    assert len(seen) == 5 * 4
    assert [d for i, d in enumerate(seen) if i % 5 < 3] == SZ_DRAWS[field]


def test_ffinite_decompose_splits_the_series_once(tmp_path, monkeypatch):
    # the round trip and the derivative witness share one decomposition
    calls = []
    decompose = frobenius.series_decompose

    def counting(*args):
        calls.append(1)
        return decompose(*args)

    monkeypatch.setattr(frobenius, "series_decompose", counting)
    assert main(["ffinite-decompose", "--field", "f2t", "--series", SER_F2,
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_laurent_integers_are_not_inverted(tmp_path, monkeypatch):
    # Scalar.one and from_int have denominator 1: no GF inversion, where
    # this run made 11
    calls = []
    inv = GF.inv

    def counting(self, a):
        calls.append(1)
        return inv(self, a)

    monkeypatch.setattr(GF, "inv", counting)
    assert main(["ffinite-decompose", "--field", "f2t", "--series", SER_F2,
                 "--out", str(tmp_path)]) == 0
    assert calls == []


def test_char_p_root_packs_its_series_products(tmp_path, monkeypatch):
    # a product over GF is one packed integer product, not one GF.mul per
    # term pair: 1,117 GF.mul calls here (scalings and the scalar setup),
    # where one call per term pair made 7.56M
    calls = []
    mul = GF.mul

    def counting(self, a, b):
        calls.append(1)
        return mul(self, a, b)

    monkeypatch.setattr(GF, "mul", counting)
    assert main(["pth-root", "--field", "f2t", "--prime", "3", "--target",
                 "1+t", "--out", str(tmp_path)]) == 0
    assert 0 < len(calls) < 30_000
    # a square too sparse for its span stays on the schoolbook loop: one
    # GF.mul per term pair
    calls.clear()
    a = {0: (1,), 10 ** 6: (1,)}
    assert GF(2).series_mul(a, a, None) == {0: (1,), 2 * 10 ** 6: (1,)}
    assert len(calls) == 4
