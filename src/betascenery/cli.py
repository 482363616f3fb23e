"""Experiment runner.

Every subcommand reads exact inputs (JSON files, scalar strings), runs a
deterministic seeded experiment, and writes its outputs under --out-dir:
a <command>_report.json carrying the fully materialized config echo plus
results, and CSV tables where the data is tabular.  Identical configs give
byte-identical files; wall-clock goes to stdout only.

Exit codes: 0 all checks passed, 2 a tolerance check failed, 1 error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .algebraics import (AlgebraicNumber, Dependent, IntPolynomial, is_pisot,
                         multiplicative_relation, named_constant,
                         parse_scalar, scalar_to_str)
from .beta_numeration import (BetaBase, beta_orbit,
                              normality_from_orbit, parry_density)
from .model import Model, build_model, verify_ssc
from .rng import UniformStream
from .scenery import (PANEL_VERSION, build_extended_chain,
                      compare_scenery_to_Q, evaluate_panel, point_mass_window,
                      rescale_model_for_gap, sample_Q, scenery_orbit,
                      spectrum_obstruction, Inconclusive, NormalityImplied)
from .selfsimilar import SimilarityIFS, SimilarityMap, sample_measure


class CliError(Exception):
    """User-facing error: bad input, missing file, rejected precondition."""


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a CliError, so that it exits 1 like every
    other bad input; argparse alone would exit 2, the code of a failed
    tolerance check."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


# -- plumbing -------------------------------------------------------------------


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _parse_beta(text: str) -> BetaBase:
    """'2', '3/2', 'golden', or a monic-ish polynomial like 'x^2 - x - 1'
    (largest real root)."""
    text = text.strip()
    try:
        return BetaBase(Fraction(text))
    except (ValueError, ZeroDivisionError):
        pass
    try:
        return BetaBase(named_constant(text))
    except ValueError:
        pass
    try:
        poly = IntPolynomial.parse(text)
        return BetaBase(AlgebraicNumber.largest_root(poly))
    except ValueError as e:
        raise CliError(f"cannot interpret base {text!r}: {e}") from e


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise CliError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise CliError(f"{path}: expected a JSON object")
    return doc


def _load_ifs(doc: dict, path: str) -> SimilarityIFS:
    if not isinstance(doc.get("maps"), list):
        raise CliError(f"{path}: expected an object with a 'maps' list")
    maps = []
    for k, entry in enumerate(doc["maps"]):
        try:
            maps.append(SimilarityMap(parse_scalar(str(entry["s"])),
                                      parse_scalar(str(entry["t"]))))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
            raise CliError(f"{path}: map {k}: {e}") from e
    try:
        weights = None
        if doc.get("weights"):
            weights = [Fraction(str(w)) for w in doc["weights"]]
        return SimilarityIFS(maps, weights)
    except (ValueError, ZeroDivisionError) as e:
        raise CliError(f"{path}: {e}") from e


def _load_model(path: str, max_length: int = 8) -> Model:
    doc = _load_json(path)
    if doc.get("format") == "dss-model-v1":
        return Model.from_json(json.dumps(doc))
    ifs = _load_ifs(doc, path)
    try:
        return build_model(ifs, max_length=max_length)
    except ValueError as e:
        raise CliError(f"{path}: {e}") from e


def _finish(args, name: str, config: dict, results: dict,
            checks: List[dict], extra_files: List[str],
            t0: float) -> int:
    """Assemble the run report, write it, print the summary, pick the exit
    code."""
    status = "pass" if all(c["pass"] for c in checks) else "fail"
    report = {
        "command": name,
        "config": config,
        "versions": {"betascenery": __version__,
                     "panel": PANEL_VERSION},
        "results": results,
        "checks": checks,
        "status": status,
    }
    out = os.path.join(args.out_dir, f"{name}_report.json")
    _write(out, _json_text(report))
    elapsed = time.monotonic() - t0
    print(f"[{name}] status={status}  elapsed={elapsed:.2f}s")
    for c in checks:
        mark = "ok" if c["pass"] else "FAIL"
        print(f"  check {c['name']}: {c['value']:.6g} "
              f"(tolerance {c['tolerance']}) {mark}")
    for f in [out] + extra_files:
        print(f"  wrote {f}")
    return 0 if status == "pass" else 2


def _config_echo(args, fields: Sequence[str]) -> dict:
    # only result-affecting parameters: out_dir never changes what gets
    # computed, so it stays out of the echo (byte-identity)
    cfg = {"seed": args.seed}
    for f in fields:
        cfg[f] = getattr(args, f)
    return cfg


# -- subcommands ----------------------------------------------------------------


def _require(args, *names: str) -> None:
    """Flags that must be present either on the command line or in a
    --config file (argparse required= would defeat config defaults)."""
    for n in names:
        if getattr(args, n) is None:
            raise CliError(f"--{n.replace('_', '-')} is required "
                           "(flag or config entry)")


def cmd_pisot(args) -> int:
    t0 = time.monotonic()
    text = args.number.strip()
    results: dict = {"input": text}
    try:
        q = Fraction(text)
        results["kind"] = "rational"
        results["pisot"] = bool(is_pisot(q))
        results["conjugate_moduli"] = []
        results["value"] = float(q)
    except ValueError:
        try:
            num = named_constant(text)
        except ValueError:
            try:
                num = AlgebraicNumber.largest_root(IntPolynomial.parse(text))
            except ValueError as e:
                raise CliError(f"cannot parse {text!r}: {e}") from e
        results["kind"] = "algebraic"
        results["polynomial"] = str(num.min_poly)
        results["value"] = float(num)
        results["pisot"] = bool(is_pisot(num))
        results["conjugate_moduli"] = num.conjugates().conjugate_moduli()
    cfg = _config_echo(args, ["number"])
    return _finish(args, "pisot", cfg, results, [], [], t0)


def cmd_model(args) -> int:
    t0 = time.monotonic()
    doc = _load_json(args.ifs)
    ifs = _load_ifs(doc, args.ifs)
    try:
        model = build_model(ifs, max_length=args.max_length)
    except ValueError as e:
        raise CliError(str(e)) from e
    gap = verify_ssc(model)
    results = {
        "pair_length": model.pair.length,
        "pair_words": [list(model.pair.word_i), list(model.pair.word_j)],
        "n_components": model.n_components,
        "component_sizes": [c.size for c in model.components],
        "selection": [str(q) for q in model.selection],
        "ratios": [scalar_to_str(c.ratio) for c in model.components],
        "ssc_min_gap": scalar_to_str(gap) if gap != float("inf") else "inf",
        "hull": [scalar_to_str(model.hull[0]), scalar_to_str(model.hull[1])],
        "has_reflection": model.has_reflection,
    }
    if args.beta is not None:
        base = _parse_beta(args.beta)
        table = []
        for j, comp in enumerate(model.components):
            verdict = multiplicative_relation(abs(comp.ratio), base.beta)
            table.append({"component": j,
                          "ratio": scalar_to_str(comp.ratio),
                          **_verdict_doc(verdict)})
        results["base"] = args.beta
        results["relation_table"] = table
    model_path = os.path.join(args.out_dir, "model.json")
    _write(model_path, model.to_json() + "\n")
    cfg = _config_echo(args, ["ifs", "max_length", "beta"])
    return _finish(args, "model", cfg, results, [], [model_path], t0)


def _verdict_doc(v) -> dict:
    if isinstance(v, Dependent):
        return {"verdict": "dependent", "p": v.p, "q": v.q}
    return {"verdict": "independent_certified", "reason": v.reason}


def cmd_sample(args) -> int:
    t0 = time.monotonic()
    doc = _load_json(args.ifs)
    ifs = _load_ifs(doc, args.ifs)
    if args.mode == "direct":
        pts = sample_measure(ifs, args.count, depth=args.depth,
                             seed=args.seed, )
    else:
        model = build_model(ifs)
        pts = model.sample_measure(args.count, args.seed,
                                   depth=args.depth)
    rows = [(k, repr(float(x))) for k, x in enumerate(pts)]
    csv_path = os.path.join(args.out_dir, "samples.csv")
    _write(csv_path, _csv_text(["point_id", "value"], rows))
    results = {"count": args.count, "mode": args.mode,
               "mean": float(np.mean(pts)), "min": float(np.min(pts)),
               "max": float(np.max(pts))}
    cfg = _config_echo(args, ["ifs", "count", "depth", "mode"])
    return _finish(args, "sample", cfg, results, [], [csv_path], t0)


def cmd_expand(args) -> int:
    t0 = time.monotonic()
    _require(args, "beta", "x")
    base = _parse_beta(args.beta)
    rows = []
    for k, text in enumerate(args.x):
        try:
            x = parse_scalar(text)
            rec = beta_orbit(base, x, args.digits)
        except (ValueError, ZeroDivisionError) as e:
            raise CliError(f"point {text!r}: {e}") from e
        rows.append((k, text, args.beta, args.digits,
                     " ".join(str(d) for d in rec.digits),
                     rec.precision_used))
    csv_path = os.path.join(args.out_dir, "expand.csv")
    _write(csv_path, _csv_text(
        ["point_id", "x", "beta", "n", "digits", "precision_used"], rows))
    results = {"n_points": len(rows)}
    cfg = _config_echo(args, ["beta", "x", "digits"])
    return _finish(args, "expand", cfg, results, [], [csv_path], t0)


def cmd_parry(args) -> int:
    t0 = time.monotonic()
    _require(args, "beta")
    base = _parse_beta(args.beta)
    try:
        pd = parry_density(base, truncation=args.truncation)
    except (TypeError, ValueError) as e:
        raise CliError(str(e)) from e
    br, vals = pd.piece_floats
    rows = [(repr(float(br[j])), repr(float(br[j + 1])),
             repr(float(vals[j]))) for j in range(len(vals))]
    csv_path = os.path.join(args.out_dir, "parry.csv")
    _write(csv_path, _csv_text(["piece_lo", "piece_hi", "density"], rows))
    results = {
        "pieces": len(vals),
        "breakpoints": [scalar_to_str(b) for b in pd.breakpoints],
        "densities": [scalar_to_str(v) for v in pd.values],
        "truncated_at": pd.truncated_at,
        "tail_bound": pd.tail_bound,
    }
    cfg = _config_echo(args, ["beta", "truncation"])
    return _finish(args, "parry", cfg, results, [], [csv_path], t0)


def _exact_model_points(model: Model, base: BetaBase, n_points: int,
                        n_digits: int, seed: int):
    """Exact attractor points from independent disintegration paths, deep
    enough that coding ambiguity sits far below the digit horizon."""
    # need contraction product below beta^-n * 2^-64
    target = n_digits * math.log(float(base.beta)) + 64 * math.log(2)
    costs = np.array([-math.log(abs(float(c.ratio)))
                      for c in model.components])
    # no path needs more levels than one made of the cheapest component
    depth = math.ceil(target / costs.min()) + 1
    pts = []
    for j in range(n_points):
        # level k draws its component from uniform 2k, its inner map from
        # uniform 2k + 1; the path ends at the first level whose summed
        # costs reach the target (cumsum adds in level order)
        u = UniformStream(seed, "normality-point", j).slice(0, 2 * depth)
        omega = np.searchsorted(model._selection_thresholds, u[0::2],
                                side="right")
        n = int(np.searchsorted(np.cumsum(costs[omega]), target)) + 1
        omega = omega[:n]
        inner = model._add_inner_draws(np.zeros(n, dtype=np.int64), omega,
                                       u[1:2 * n:2])
        x = model.point_of_path(omega.tolist(), inner.tolist())
        pts.append(x - math.floor(x))   # reduce into [0, 1) exactly
    return pts


def cmd_normality(args) -> int:
    t0 = time.monotonic()
    _require(args, "beta")
    model = _load_model(args.model)
    base = _parse_beta(args.beta)
    density = parry_density(base)
    pts = _exact_model_points(model, base, args.n_points, args.n_digits,
                              args.seed)
    rows = []
    freq_acc = None
    disc_acc = 0.0
    for j, x in enumerate(pts):
        rec = beta_orbit(base, x, args.n_digits)
        stat = normality_from_orbit(rec, density=density)
        if freq_acc is None:
            freq_acc = np.zeros_like(stat.digit_freqs)
        freq_acc += stat.digit_freqs
        disc_acc += stat.discrepancy
        rows.append((j, args.beta, args.n_digits,
                     *[repr(float(f)) for f in stat.digit_freqs],
                     repr(stat.discrepancy), rec.precision_used))
    k = base.alphabet_size
    header = (["point_id", "beta", "n"] +
              [f"freq_{d}" for d in range(k)] +
              ["discrepancy", "precision_used"])
    csv_path = os.path.join(args.out_dir, "normality.csv")
    _write(csv_path, _csv_text(header, rows))
    mean_freqs = (freq_acc / len(pts)).tolist()
    mean_disc = disc_acc / len(pts)
    results = {"n_points": len(pts), "mean_digit_freqs": mean_freqs,
               "mean_discrepancy": mean_disc}
    checks = []
    if args.max_mean_discrepancy is not None:
        checks.append({"name": "mean_discrepancy",
                       "value": mean_disc,
                       "tolerance": args.max_mean_discrepancy,
                       "pass": bool(mean_disc < args.max_mean_discrepancy)})
    cfg = _config_echo(args, ["model", "beta", "n_points", "n_digits",
                              "max_mean_discrepancy"])
    return _finish(args, "normality", cfg, results, checks, [csv_path], t0)


def cmd_scenery(args) -> int:
    t0 = time.monotonic()
    model = _load_model(args.model)
    scaled, factor = rescale_model_for_gap(model)
    chain = build_extended_chain(scaled)
    T = args.T if args.T is not None else 200.0 * chain.expected_roof()
    orbit = scenery_orbit(scaled, a=0, T=T, dt=args.dt, seed=args.seed,
                          gap_rescale=float(factor))
    q = sample_Q(scaled, chain, args.n_q, args.seed + 1)
    rep = compare_scenery_to_Q(orbit, q)
    contrast = float(np.abs(
        np.asarray(rep.orbit_average) -
        evaluate_panel(point_mass_window())).max())
    results = rep.to_dict()
    results["gap_rescale"] = float(factor)
    results["T"] = T
    results["expected_roof"] = chain.expected_roof()
    results["chain_states"] = len(chain.states)
    results["chain_diameter"] = chain.diameter
    results["trivial_contrast"] = contrast
    checks = [
        {"name": "max_panel_distance", "value": rep.max_distance,
         "tolerance": args.tolerance,
         "pass": bool(rep.max_distance < args.tolerance)},
        {"name": "trivial_contrast", "value": contrast,
         "tolerance": 0.2, "pass": bool(contrast > 0.2)},
    ]
    files = []
    if args.dump_windows:
        rows = []
        for wid, w in enumerate(orbit.windows[:args.dump_windows]):
            for blo, bhi, mass in w.csv_rows():
                rows.append((wid, repr(float(blo)), repr(float(bhi)),
                             repr(float(mass))))
        wpath = os.path.join(args.out_dir, "windows.csv")
        _write(wpath, _csv_text(["window_id", "bin_lo", "bin_hi", "mass"],
                                rows))
        files.append(wpath)
    cfg = _config_echo(args, ["model", "T", "dt", "n_q", "tolerance",
                              "dump_windows"])
    return _finish(args, "scenery", cfg, results, checks, files, t0)


def cmd_disintegration(args) -> int:
    t0 = time.monotonic()
    doc = _load_json(args.ifs)
    ifs = _load_ifs(doc, args.ifs)
    model = build_model(ifs)
    direct = np.sort(sample_measure(ifs, args.count, seed=args.seed))
    via_model = np.sort(model.sample_measure(args.count, args.seed + 1))
    grid = np.union1d(direct, via_model)
    cd = np.searchsorted(direct, grid, side="right") / direct.size
    cm = np.searchsorted(via_model, grid, side="right") / via_model.size
    ks = float(np.abs(cd - cm).max())
    results = {"count": args.count, "ks_distance": ks}
    checks = [{"name": "ks_distance", "value": ks,
               "tolerance": args.tolerance,
               "pass": bool(ks < args.tolerance)}]
    cfg = _config_echo(args, ["ifs", "count", "tolerance"])
    return _finish(args, "disintegration", cfg, results, checks, [], t0)


def cmd_spectrum(args) -> int:
    t0 = time.monotonic()
    _require(args, "beta")
    model = _load_model(args.model)
    table = []
    for btext in args.beta:
        base = _parse_beta(btext)
        if not base.pisot:
            raise CliError(f"base {btext!r} is not Pisot; the obstruction "
                           "argument does not apply")
        verdict = spectrum_obstruction(model, base)
        if isinstance(verdict, NormalityImplied):
            table.append({"beta": btext, "verdict": "normality_implied",
                          "component": verdict.component,
                          "evidence": "certified",
                          "explanation": verdict.explanation})
        else:
            table.append({"beta": btext, "verdict": "inconclusive",
                          "reason": verdict.reason,
                          "relations": [
                              {"component": j, **_verdict_doc(d)}
                              for j, d in verdict.relations]})
    results = {"table": table}
    cfg = _config_echo(args, ["model", "beta"])
    return _finish(args, "spectrum", cfg, results, [], [], t0)


# -- parser ---------------------------------------------------------------------


def _build_parser() -> Tuple[argparse.ArgumentParser, dict]:
    p = _Parser(
        prog="betascenery",
        description="Deterministic experiments on self-similar measures, "
                    "greedy beta-expansions, and magnification dynamics.")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed; all randomness derives from it")
    p.add_argument("--config", type=str, default=None,
                   help="JSON file of argument defaults (a config echo "
                        "from a previous report round-trips)")
    p.add_argument("--out-dir", type=str, default=".",
                   help="directory for report and table files")
    sub = p.add_subparsers(dest="command", required=True)
    registry: dict = {}

    def add_parser(name, **kw):
        sp = sub.add_parser(name, **kw)
        registry[name] = sp
        return sp

    s = add_parser("pisot", help="decide the Pisot property")
    s.add_argument("number", help="integer, named constant, or polynomial")
    s.set_defaults(func=cmd_pisot)

    s = add_parser("model", help="build the disintegration model")
    s.add_argument("ifs", help="IFS JSON file")
    s.add_argument("--max-length", type=int, default=8)
    s.add_argument("--beta", type=str, default=None,
                   help="also report ratio-vs-base relation verdicts")
    s.set_defaults(func=cmd_model)

    s = add_parser("sample", help="draw from the self-similar measure")
    s.add_argument("ifs")
    s.add_argument("--count", type=int, default=10000)
    s.add_argument("--depth", type=int, default=None)
    s.add_argument("--mode", choices=["direct", "model"], default="direct")
    s.set_defaults(func=cmd_sample)

    s = add_parser("expand", help="greedy digits of given points")
    s.add_argument("--beta", type=str, default=None)
    s.add_argument("--x", action="append", default=None,
                   help="exact point (repeatable)")
    s.add_argument("--digits", type=int, default=64)
    s.set_defaults(func=cmd_expand)

    s = add_parser("parry", help="invariant density of the greedy map")
    s.add_argument("--beta", type=str, default=None)
    s.add_argument("--truncation", type=int, default=256)
    s.set_defaults(func=cmd_parry)

    s = add_parser("normality", help="digit statistics of model points")
    s.add_argument("model", help="model JSON or IFS JSON")
    s.add_argument("--beta", type=str, default=None)
    s.add_argument("--n-points", type=int, default=100)
    s.add_argument("--n-digits", type=int, default=2000)
    s.add_argument("--max-mean-discrepancy", type=float, default=None)
    s.set_defaults(func=cmd_normality)

    s = add_parser("scenery", help="zoom-orbit vs stationary-law panel")
    s.add_argument("model")
    s.add_argument("--T", type=float, default=None,
                   help="orbit length (default 200 * expected roof)")
    s.add_argument("--dt", type=float, default=0.25)
    s.add_argument("--n-q", type=int, default=2000)
    s.add_argument("--tolerance", type=float, default=0.05)
    s.add_argument("--dump-windows", type=int, default=0)
    s.set_defaults(func=cmd_scenery)

    s = add_parser("disintegration",
                   help="direct sampler vs model sampler KS")
    s.add_argument("ifs")
    s.add_argument("--count", type=int, default=100000)
    s.add_argument("--tolerance", type=float, default=0.01)
    s.set_defaults(func=cmd_disintegration)

    s = add_parser("spectrum", help="arithmetic obstruction verdicts")
    s.add_argument("model")
    s.add_argument("--beta", action="append", default=None)
    s.set_defaults(func=cmd_spectrum)
    return p, registry


def _parse(argv: List[str]) -> argparse.Namespace:
    parser, registry = _build_parser()
    # a --config file supplies defaults; explicit flags still win
    probe, _ = parser.parse_known_args(argv)
    if not probe.config:
        return parser.parse_args(argv)
    cfg = _load_json(probe.config)
    if isinstance(cfg.get("config"), dict):
        cfg = cfg["config"]   # a full report echoes its config here
    cfg = {k: v for k, v in cfg.items()
           if k not in ("command", "config", "func")}
    for p in [parser, *registry.values()]:
        p.set_defaults(**{a.dest: cfg[a.dest] for a in p._actions
                          if a.dest in cfg and not _repeatable(a)})
    args = parser.parse_args(argv)
    # argparse appends explicit values of a repeatable flag to its default,
    # so the config's list fills such a flag only when it is not given
    for a in registry[args.command]._actions:
        if _repeatable(a) and a.dest in cfg and getattr(args, a.dest) is None:
            setattr(args, a.dest, cfg[a.dest])
    return args


def _repeatable(action: argparse.Action) -> bool:
    return isinstance(action, argparse._AppendAction)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        os.makedirs(args.out_dir, exist_ok=True)
        return args.func(args)
    except (CliError, OSError, ValueError, TypeError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
