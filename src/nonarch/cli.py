"""Batch CLI: one subcommand per demonstration, JSON in / JSON out.

Every run writes a single artifact under the output directory and prints a
short human summary.  Artifacts embed their full parameters (field spec,
radius declarations, series data), so ``--check`` can replay the verdict
from the artifact alone and compare byte-for-byte.

A command is declared once, as a row of ``COMMANDS``: the argument parser,
the params an artifact stores and the types a replay checks are all built
from that row.

Exit status: 0 for a verdict in ``POSITIVE``, 2 for any other verdict, 1
for an error, a usage error included.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from collections import namedtuple
from fractions import Fraction

from .derivlab import (nonintegral_certificate,
                       p_independence_certificate, pbasis_series,
                       sparse_series, unboundedness_table)
from .errors import NonarchError, TowerObstruction
from .fields import (FQ_LAURENT, PADIC, RATFUN_LAURENT, FieldSpec, Scalar,
                     scalar_from_literal)
from .frobenius import decomposition_artifact, verify_norm_bound
from .lognorm import Cmp, RadiusDecl, ln_compare, ln_mul
from .rootlift import build_tower, pth_root_near_one, verify_tower, \
    verify_trace, tower_unit_certificate
from .series import (LAURENT, TateSeries, check_series_json,
                     spectral_power_estimate)
from .squarezero import SquareZeroRing

SCHEMA = "nonarch-artifact/3"

DEFAULT_CONFIG = {
    "fields": {
        "q3": {"kind": PADIC, "residue_prime": 3, "precision_cap": 40},
        "q5": {"kind": PADIC, "residue_prime": 5, "precision_cap": 40},
        "f2t": {"kind": FQ_LAURENT, "residue_prime": 2, "field_size": 2,
                "precision_cap": 64},
        "f4t": {"kind": FQ_LAURENT, "residue_prime": 2, "field_size": 4,
                "precision_cap": 64},
        "ratfun2": {"kind": RATFUN_LAURENT, "residue_prime": 2,
                    "num_pbasis_vars": 3, "precision_cap": 64},
    },
    "radii": {
        "r1": {"gen_id": "r1", "kind": "quadratic",
               "params": {"a": 0, "b": 1, "c": 2, "d": 2},
               "asserts_irrational": True,
               "note": "log_q(1/r) = sqrt(2)/2 = 0.70710678..."},
    },
    "out": "out",
}


def load_config(path=None):
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    if path:
        with open(path) as fh:
            user = _parse_json(fh.read(), "config")
        if not isinstance(user, dict):
            raise NonarchError("config must be a JSON object")
        unknown = sorted(set(user) - set(cfg))
        if unknown:
            raise NonarchError(f"unknown config keys {unknown}; "
                               f"known: {sorted(cfg)}")
        for key in ("fields", "radii"):
            if not isinstance(user.get(key, {}), dict):
                raise NonarchError(f"config {key!r} must be an object")
            cfg[key].update(user.get(key, {}))
        if "out" in user:
            cfg["out"] = user["out"]
    return cfg


def _parse_json(text, what):
    """json.loads, with input nested too deeply for the decoder refused
    as a NonarchError instead of raising RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise NonarchError(f"{what} JSON is nested too deeply") from None


def _declared(decls, what, key):
    """The declaration of field or radius ``key`` in a config section."""
    try:
        return decls[key]
    except KeyError:
        raise NonarchError(f"{what} {key!r} is not declared; "
                           f"known: {sorted(decls)}")


def _series_from_params(params):
    spec = FieldSpec.from_json(params["field"])
    if not isinstance(params["radii"], list):
        raise NonarchError("params 'radii' must be a list")
    radii = tuple(RadiusDecl.from_json(r) for r in params["radii"])
    return TateSeries.from_json(spec, radii, params["series"]), spec, radii


def _load_series_arg(arg):
    """--series accepts a JSON file path or an inline JSON object in the
    shape ``TateSeries.from_json`` reads (checked here already, because
    the run path looks its "radius" ids up before building the series)."""
    text = arg
    if os.path.exists(arg):
        with open(arg) as fh:
            text = fh.read()
    obj = _parse_json(text, "series")
    check_series_json(obj)
    return obj


# ---------------------------------------------------------------------------
# Runners: pure functions params -> (result dict, claim, verdict)


def run_gauss_norm(params):
    f, spec, radii = _series_from_params(params)
    n, exact = f.gauss_norm()
    result = {"norm": n.to_json(), "exact": exact}
    return result, "stored-term-maximum-is-gauss-norm", \
        "EXACT" if exact else "BOUND_ONLY"


def run_spectral_radius(params):
    f, spec, radii = _series_from_params(params)
    n, exact = f.gauss_norm()
    powers = params.get("powers", 6)
    if powers < 1:
        raise NonarchError("spectral-radius needs --powers >= 1")
    # the power estimates are the evidence for VERIFIED; neither input
    # below has any
    if f.is_ring_zero():
        raise NonarchError("spectral-radius needs a nonzero series")
    if not f.is_exact():
        raise NonarchError("spectral-radius needs an exact series (no tail "
                           "bound)")
    checks = []
    agree = True
    for power in range(1, powers + 1):
        est = spectral_power_estimate(f, power)
        ok = est == n
        agree = agree and ok
        checks.append({"l": power, "estimate": est.to_json(),
                       "matches": ok})
    result = {"spectral_radius": n.to_json(), "exact": exact,
              "power_estimates": checks, "all_match": agree}
    return result, "spectral-radius-equals-weighted-term-maximum", \
        "VERIFIED" if agree else "MISMATCH"


def run_pth_root(params):
    spec = FieldSpec.from_json(params["field"])
    target = scalar_from_literal(spec, params["target"])
    max_steps = params.get("max_steps")
    if max_steps is not None and max_steps < 1:
        raise NonarchError("pth-root needs --max-steps >= 1")
    kwargs = {} if max_steps is None else {"max_steps": max_steps}
    root, trace = pth_root_near_one(target, params["prime"], **kwargs)
    replay = verify_trace(trace)
    result = {"trace": trace.to_json(),
              "root_capped": root.cap().to_literal(), "replay_ok": replay}
    return result, "pth-root-iteration", \
        "CERTIFIED" if trace.certified and replay else "NOT_CERTIFIED"


def run_tower(params):
    spec = FieldSpec.from_json(params["field"])
    target = scalar_from_literal(spec, params["target"])
    if params["depth"] < 1:
        raise NonarchError("tower needs --depth >= 1")
    try:
        tower = build_tower(target, params["prime"], params["depth"])
    except TowerObstruction as exc:
        result = {"obstruction_depth": exc.depth, "message": str(exc)}
        return result, "compatible-p-power-root-tower", "OBSTRUCTED"
    ok = verify_tower(tower)
    unit_ok, inv = tower_unit_certificate(tower)
    result = {"tower": tower.to_json(), "verified": ok,
              "base_is_unit": unit_ok,
              "base_inverse": inv.cap().to_literal() if inv is not None
              else None}
    return result, "compatible-p-power-root-tower", \
        "VERIFIED" if ok and unit_ok else "FAILED"


def run_sparse_series(params):
    spec = FieldSpec.from_json(params["field"])
    radius = RadiusDecl.from_json(params["radius"])
    sp = sparse_series(params["terms"], spec, radius)
    n, exact = sp.series.gauss_norm()
    result = {"indices": sp.indices, "next_index": sp.next_index,
              "series": sp.series.to_json(),
              "completion_tail": sp.completion_tail.to_json(),
              "gauss_norm": n.to_json(), "gauss_exact": exact}
    return result, "sparse-gap-series", "BUILT"


def run_nonintegral_cert(params):
    spec = FieldSpec.from_json(params["field"])
    radius = RadiusDecl.from_json(params["radius"])
    if params.get("series") is not None:
        f = TateSeries.from_json(spec, (radius,), params["series"])
    elif params["terms"] is None:
        raise NonarchError("need --terms or --series")
    else:
        f = sparse_series(params["terms"], spec, radius)
    cert = nonintegral_certificate(f, params["n_max"], params["d_max"])
    return cert.to_json(), cert.claim, cert.verdict


def _table_bound(text):
    """The bound of an unboundedness table, e-notation included ("2.5e3"
    is 2500): a finite number > 1.  Every ratio r^(-i) with r < 1 exceeds
    1, so a smaller bound certifies nothing.  An exponent past the
    int-to-str digit limit is refused: 10^exp would never be built."""
    mant, e, exp = text.lower().partition("e")
    limit = sys.get_int_max_str_digits()
    try:
        if e and limit and abs(int(exp)) > limit:
            raise NonarchError(f"bound {text!r} has an exponent past "
                               f"{limit} digits")
        bound = Fraction(mant) * Fraction(10) ** int(exp) if e \
            else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise NonarchError(f"bound {text!r} is not a finite number") \
            from None
    if bound <= 1:
        raise NonarchError(f"bound {text} is not > 1: every ratio r^(-i) "
                           "with r < 1 exceeds it")
    return bound


def run_unbounded_demo(params):
    spec = FieldSpec.from_json(params["field"])
    radius = RadiusDecl.from_json(params["radius"])
    cert = unboundedness_table(params["terms"], spec, radius,
                               _table_bound(params["bound"]))
    return cert.to_json(), cert.claim, cert.verdict


def run_pbasis_cert(params):
    p, nvars = params["prime"], params["num_pbasis_vars"]
    # checked with --series too, which never reads it, so that no
    # artifact stores a term count below 1
    if params["terms"] < 1:
        raise NonarchError("pbasis-cert needs --terms >= 1")
    spec = FieldSpec.from_json(params["field"])
    radius = RadiusDecl.from_json(params["radius"])
    if (spec.residue_prime, spec.nvars) != (p, nvars):
        raise NonarchError(f"--prime {p} and --nvars {nvars} disagree with "
                           f"the field's p = {spec.residue_prime} and "
                           f"N = {spec.nvars}")
    if params.get("series") is not None:
        f = TateSeries.from_json(spec, (radius,), params["series"])
    else:
        f = pbasis_series(spec, params["terms"], radius)
    cert = p_independence_certificate(f, params["T_deg_max"],
                                      params["coeff_deg_max"])
    result = cert.to_json()
    result["series"] = f.to_json()
    return result, cert.claim, cert.verdict


def run_ffinite_decompose(params):
    f, _, _ = _series_from_params(params)
    # VERIFIED of 0 would rest on an empty decomposition
    if f.is_ring_zero():
        raise NonarchError("ffinite-decompose needs a nonzero series")
    art = decomposition_artifact(f)
    ratios = []
    for e, c in f.sorted_terms():
        ratio, ok = verify_norm_bound(c)
        ratios.append({"exp": list(e), "ratio": ratio.to_json(), "pass": ok})
    art["norm_bounds"] = ratios
    ok = art["round_trip_exact"] and art["derivative_span"] \
        and all(r["pass"] for r in ratios)
    return art, art["claim"], "VERIFIED" if ok else "FAILED"


def run_sz_check(params):
    spec = FieldSpec.from_json(params["field"])
    radius = RadiusDecl.from_json(params["radius"])
    rng = random.Random(params["seed"])
    count = params["count"]
    if count < 1:
        raise NonarchError("sz-check needs --count >= 1")

    def rand_scalar():
        if spec.kind == PADIC:
            q = spec.residue_prime
            num = rng.randint(-30, 30)
            den = rng.choice([1, 1, 2, q, q * q])
            if num == 0:
                num = 1
            return Scalar.from_fraction(spec, Fraction(num, den))
        val = rng.randint(-3, 4)
        return Scalar.t_power(spec, val)

    def rand_series():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[(rng.randint(-2, 3),)] = rand_scalar()
        return TateSeries(spec, LAURENT, (radius,), terms)

    failures = []
    scalar_ring = SquareZeroRing(Scalar.one(spec))
    series_ring = SquareZeroRing(
        TateSeries.one(spec, (radius,), kind=LAURENT))
    for trial in range(count):
        use_series = trial % 2 == 1
        ring = series_ring if use_series else scalar_ring
        rand = rand_series if use_series else rand_scalar
        x = ring.elem(rand(), rand())
        y = ring.elem(rand(), rand())
        z = ring.elem(rand(), rand())
        xy = x * y
        checks = {
            "assoc": (xy * z).equals(x * (y * z)),
            "distrib": (x * (y + z)).equals(xy + x * z),
            "square_zero": (ring.elem(ring.base_zero, x.b)
                            * ring.elem(ring.base_zero, x.b)).equals(
                                ring.zero()),
            "isometry": ring.embed(x.a).norm_ln()
            == x.a.norm_ln().pad(len(ring.radii)),
        }
        nxy = xy.norm_ln()
        nx, ny = x.norm_ln(), y.norm_ln()
        if nxy.is_zero:
            checks["submult"] = True
        elif nx.is_zero or ny.is_zero:
            checks["submult"] = False
        else:
            checks["submult"] = ln_compare(
                nxy, ln_mul(nx, ny), (radius,)) is not Cmp.GT
        bad = [k for k, v in checks.items() if not v]
        if bad:
            failures.append({"trial": trial, "failed": bad})
            if len(failures) >= 5:
                break
    result = {"trials": count, "failures": failures}
    return result, "square-zero-extension-ring-axioms", \
        "PASS" if not failures else "FAIL"


# the verdicts that exit 0; every other verdict exits 2
POSITIVE = frozenset({"EXACT", "BOUND_ONLY", "VERIFIED", "CERTIFIED", "BUILT",
                      "NON_INTEGRAL", "UNBOUNDED", "P_INDEPENDENT", "PASS"})

REQUIRED = ...      # the default of a flag that must be given

# a subcommand: runner, help, default field, whether it reads --radius, how
# it reads --series (None; "radius": required, its "radius" ids naming the
# radii; "optional") and its flags, each (flag, key, type, default|REQUIRED)
Command = namedtuple("Command", "run help field radius series flags",
                     defaults=("q3", True, None, ()))


COMMANDS = {
    "gauss-norm": Command(run_gauss_norm, "Gauss norm of a series",
                          series="radius"),
    "spectral-radius": Command(
        run_spectral_radius, "spectral radius with power-estimate oracle",
        series="radius", flags=(("--powers", "powers", int, 6),)),
    "pth-root": Command(
        run_pth_root, "certified p-th root iteration", radius=False,
        flags=(("--prime", "prime", int, REQUIRED),
               ("--target", "target", str, REQUIRED),
               ("--max-steps", "max_steps", int, None))),
    "tower": Command(
        run_tower, "compatible p-power root tower", radius=False,
        flags=(("--prime", "prime", int, REQUIRED),
               ("--target", "target", str, REQUIRED),
               ("--depth", "depth", int, REQUIRED))),
    "sparse-series": Command(
        run_sparse_series, "gap series with certificates",
        flags=(("--terms", "terms", int, REQUIRED),)),
    "nonintegral-cert": Command(
        run_nonintegral_cert, "bounded-degree relation refutation",
        series="optional",
        flags=(("--terms", "terms", int, None),
               ("--nmax", "n_max", int, REQUIRED),
               ("--dmax", "d_max", int, REQUIRED))),
    "unbounded-demo": Command(
        run_unbounded_demo, "norm-ratio divergence of the dual-number map",
        flags=(("--terms", "terms", int, REQUIRED),
               ("--bound", "bound", str, "1e6"))),
    "pbasis-cert": Command(
        run_pbasis_cert, "p-independence of series coefficients",
        field="ratfun2", series="optional",
        flags=(("--prime", "prime", int, 2),
               ("--nvars", "num_pbasis_vars", int, 3),
               ("--terms", "terms", int, 4),
               ("--tdeg", "T_deg_max", int, 4),
               ("--cdeg", "coeff_deg_max", int, 2))),
    "ffinite-decompose": Command(
        run_ffinite_decompose, "p-th power basis decomposition",
        field="f2t", series="radius"),
    "sz-check": Command(
        run_sz_check, "randomized square-zero ring axioms",
        flags=(("--count", "count", int, 1000), ("--seed", "seed", int, 7))),
}


def _norm_str(obj):
    if obj.get("zero"):
        return "0"
    rad = obj.get("radius", [])
    parts = [f"q^-({obj['e0']})"]
    parts += [f"r{j + 1}^({e})" for j, e in enumerate(rad) if e != "0"]
    return " * ".join(parts)


def _summary_lines(command, result):
    if command in ("gauss-norm",):
        yield f"norm = {_norm_str(result['norm'])} " \
              f"({'exact' if result['exact'] else 'bound only'})"
    elif command == "spectral-radius":
        yield f"spectral radius = {_norm_str(result['spectral_radius'])}"
        yield f"power estimates l=1..{len(result['power_estimates'])} " \
              f"{'all match' if result['all_match'] else 'MISMATCH'}"
    elif command == "pth-root":
        steps = result["trace"]["steps"]
        yield f"{len(steps)} steps, root = {result['root_capped'][:48]}"
        if steps:
            yield f"contraction |g1| = " \
                  f"{_norm_str(result['trace']['contraction'])}"
    elif command == "tower" and "tower" in result:
        yield f"depth {result['tower']['depth']}, " \
              f"verified = {result['verified']}"
    elif command == "sparse-series":
        yield f"indices {result['indices']}, next {result['next_index']}"
    elif command == "nonintegral-cert":
        w = result["witness"]
        yield f"system rank {w.get('rank')}/{w.get('unknowns')} unknowns"
        if "relation" in w:
            yield f"relation: {w['relation']}"
    elif command == "unbounded-demo":
        for row in result["witness"]["rows"]:
            lo, hi = (float(Fraction(s)) for s in row["ratio_log_q"])
            yield (f"n={row['n']}: ratio = r^(-{row['tail_index']}) "
                   f"= q^{lo:.4f}..q^{hi:.4f}, "
                   f"exceeds bound: {row['exceeds_bound']}")
    elif command == "pbasis-cert":
        w = result["witness"]
        for obs in w.get("obstructions", []):
            yield (f"generator {obs['lambda']}: obstruction over "
                   f"{obs['span_products_checked']} span products")
        if "relation" in w:
            yield f"decomposed {len(w['relation'])} monomials as g * h^p"
    elif command == "ffinite-decompose":
        yield f"parts: {sorted(result['parts'])}"
        yield f"round trip exact: {result['round_trip_exact']}, " \
              f"derivative span: {result['derivative_span']}"
    elif command == "sz-check":
        yield f"{result['trials']} trials, {len(result['failures'])} failures"


def param_types(command):
    """The types of a command's scalar params, which a replayed artifact
    must carry: the flag's type, or None where that is the default."""
    return {key: (typ,) if default is not None else (typ, type(None))
            for _, key, typ, default in COMMANDS[command].flags}


def param_keys(command):
    """The params keys every artifact of a command carries."""
    cmd = COMMANDS[command]
    keys = ["field"] + [key for _, key, _, _ in cmd.flags]
    if cmd.series == "radius":
        keys.append("radii")
    elif cmd.radius:
        keys.append("radius")
    return keys + ["series"] * bool(cmd.series)


def make_artifact(command, params, result, claim, verdict):
    return {"schema": SCHEMA, "command": command, "params": params,
            "claim": claim, "verdict": verdict, "result": result}


def write_artifact(artifact, out_dir, name):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name + ".json")
    with open(path, "w") as fh:
        # one write of the whole text: json.dump with an indent writes
        # each of its many small chunks separately
        fh.write(json.dumps(artifact, sort_keys=True, indent=2) + "\n")
    return path


def check_artifact(path):
    """Replay an artifact from its stored parameters; 0 iff it reproduces."""
    with open(path) as fh:
        stored = _parse_json(fh.read(), "artifact")
    if not isinstance(stored, dict) or not isinstance(stored.get("params"),
                                                      dict):
        raise NonarchError("artifact and its params must be JSON objects")
    command = stored.get("command")
    if not isinstance(command, str) or command not in COMMANDS:
        raise NonarchError(f"unknown artifact command {command!r}")
    schema = stored.get("schema", "(none)")
    if schema != SCHEMA:
        # another schema's bytes differ by design, not at a replay path
        shown = schema if isinstance(schema, str) and schema.isprintable() \
            else json.dumps(schema)
        print(f"{command}: artifact schema {shown} is not {SCHEMA}; "
              "regenerate it")
        return 2
    params = stored["params"]
    for key in param_keys(command):
        if key not in params:
            raise NonarchError(f"artifact params lack {key!r}")
    for key, types in param_types(command).items():
        if key in params and type(params[key]) not in types:
            raise NonarchError(
                f"artifact param {key!r} must be "
                f"{' or '.join(t.__name__ for t in types)}, not "
                f"{type(params[key]).__name__}")
    result, claim, verdict = COMMANDS[command].run(params)
    fresh = json.dumps(make_artifact(command, params, result, claim,
                                     verdict), sort_keys=True)
    if fresh == json.dumps(stored, sort_keys=True):
        print(f"{command}: replay matches (verdict {verdict})")
        return 0
    where = _first_difference(json.loads(fresh), stored) or "the top level"
    print(f"{command}: replay DIFFERS at {where} (verdict {verdict})")
    return 2


_ABSENT = object()


def _first_difference(a, b):
    """The path (``result.trace.steps[3].h``) of the first place, in
    sorted-key order, where two parsed JSON values differ: a leaf that
    differs, a key or list item on one side only, or a change of type;
    "" for the top level or no difference.  Iterative, so that no nesting
    depth can raise RecursionError."""
    stack = [("", a, b)]
    while stack:
        path, x, y = stack.pop()
        if type(x) is not type(y):
            return path
        if isinstance(x, dict):
            for k in sorted(x.keys() | y.keys(), reverse=True):
                stack.append((f"{path}.{k}" if path else k,
                              x.get(k, _ABSENT), y.get(k, _ABSENT)))
        elif isinstance(x, list):
            for i in range(max(len(x), len(y)) - 1, -1, -1):
                stack.append((f"{path}[{i}]",
                              x[i] if i < len(x) else _ABSENT,
                              y[i] if i < len(y) else _ABSENT))
        elif json.dumps(x) != json.dumps(y):
            return path
    return ""


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as NonarchError: one line, exit status 1."""

    def error(self, message):
        raise NonarchError(message)


@functools.cache
def build_parser():
    ap = _Parser(
        prog="nonarch",
        description="exact demonstrations in non-archimedean Banach rings",
        epilog="nonarch --check ARTIFACT (or --check=ARTIFACT) replays a "
               "stored artifact instead of running")
    ap.add_argument("--config", default=None,
                    help="session config JSON (fields, radii, out)")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        sp.add_argument("--field", default=cmd.field)
        if cmd.radius:
            sp.add_argument("--radius", default="r1")
        sp.add_argument("--precision", type=int, default=None,
                        help="override the field's precision cap")
        sp.add_argument("--out", default=None)
        if cmd.series:
            sp.add_argument("--series", required=cmd.series == "radius",
                            help="series JSON (inline or file path)")
        for flag, key, typ, default in cmd.flags:
            sp.add_argument(flag, dest=key, metavar=flag[2:].upper(),
                            type=typ, required=default is REQUIRED,
                            default=None if default is REQUIRED else default)
    return ap


def _params_for(args, cfg):
    cmd = COMMANDS[args.command]
    params = {"field": dict(_declared(cfg["fields"], "field", args.field))}
    if args.precision is not None:
        params["field"]["precision_cap"] = args.precision
    if cmd.series == "radius":
        params["series"] = _load_series_arg(args.series)
        params["radii"] = [_declared(cfg["radii"], "radius", r) for r in
                           params["series"].get("radius", [args.radius])]
    elif cmd.radius:
        params["radius"] = _declared(cfg["radii"], "radius", args.radius)
    if cmd.series == "optional":
        params["series"] = None if args.series is None \
            else _load_series_arg(args.series)
    params.update((key, getattr(args, key)) for _, key, _, _ in cmd.flags)
    if args.command == "pbasis-cert":
        params["field"]["num_pbasis_vars"] = params["num_pbasis_vars"]
    if args.command == "unbounded-demo":
        params["bound"] = str(_table_bound(params["bound"]))
    return params


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        for i, arg in enumerate(argv):      # --check PATH or --check=PATH
            flag, eq, path = arg.partition("=")
            if flag == "--check":
                if not eq:
                    path = argv[i + 1] if i + 1 < len(argv) else ""
                if not path:
                    raise NonarchError("--check needs an artifact path")
                return check_artifact(path)
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config)
        params = _params_for(args, cfg)
        result, claim, verdict = COMMANDS[args.command].run(params)
        artifact = make_artifact(args.command, params, result, claim,
                                 verdict)
        path = write_artifact(artifact, args.out or cfg["out"], args.command)
        for line in _summary_lines(args.command, result):
            print("  " + line)
        print(f"{args.command}: {verdict}  ->  {path}")
        return 0 if verdict in POSITIVE else 2
    except (NonarchError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
