"""Command-line surface: build -> encode -> layout -> optimize -> report.

Exit codes: 0 success, 2 bad arguments or malformed input, 3 build/encoding
failure, 4 solution quality below threshold, 5 propagation failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .annealer import AnnealerError, PropagationConfig, Schedule, propagate
from .encoding import (AtomLayout, HardwareLimits, NotEncodableError,
                       embed_layout, validate)
from .hardness import (DEFAULT_EPSILON, analyze_model, analyze_supplied,
                       format_csv, format_table, format_value, report_row,
                       report_rows)
from .models import (ModelError, as_ising, enumerate_spectrum, ground_summary,
                     model_from_json, state_bits)
from .optimizer import StagePlan
from .pipeline import (default_schedule, encode_for_annealing, result_json,
                       run_pipeline, trajectory_csv, trajectory_table)
from .problems import (PRESET_NAMES, ProblemError, build_from_params,
                       preset_instance)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUILD = 3
EXIT_QUALITY = 4
EXIT_PROPAGATION = 5


class InputFileError(Exception):
    """A missing or malformed input file; main() maps it to EXIT_USAGE."""


def _load_json(path: str, what: str, parse):
    """``parse`` applied to the JSON in ``path``; every failure is an
    InputFileError."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (OSError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputFileError(
            f"cannot load {what} {path}: {type(exc).__name__}: {exc}") from exc


def _load_limits(args) -> HardwareLimits:
    if not args.config:
        return HardwareLimits()
    return _load_json(args.config, "config",
                      lambda data: HardwareLimits(**data))


def _emit(args, text: str) -> None:
    """Write ``text`` to the --out file if one was given, else to stdout."""
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


def _out_path(args, name: str) -> Path:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def cmd_problem(args) -> int:
    try:
        if args.preset:
            preset = preset_instance(args.preset)
            model, meta = preset.model, dict(preset.metadata)
            meta["preset"] = preset.name
        else:
            params = json.loads(args.params) if args.params else {}
            for key in ("constraints", "clauses"):
                if getattr(args, key, None):
                    params[key] = json.loads(getattr(args, key))
            if "n" not in params and args.n is not None:
                params["n"] = args.n
            _, model = build_from_params(args.family, params)
            meta = {"family": args.family}
    except (ProblemError, ModelError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUILD if isinstance(exc, (ProblemError, ModelError)) else EXIT_USAGE
    payload = model.to_dict()
    payload["metadata"] = meta
    _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK


def _load_model(path: str):
    try:
        return model_from_json(path)
    except (OSError, ValueError) as exc:  # JSONDecodeError, ModelError
        raise InputFileError(f"cannot load model {path}: {exc}") from exc


def cmd_spectrum(args) -> int:
    model = _load_model(args.model)
    try:
        table = enumerate_spectrum(model)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUILD
    summary = ground_summary(table)
    print("energy,multiplicity")
    for entry in table.entries:
        print(f"{format_value(entry.energy)},{entry.multiplicity}")
    grounds = [''.join(map(str, state_bits(s, model.n)))
               for s in summary.ground_states]
    print(f"# C_opt={format_value(summary.c_opt)} "
          f"C_max={format_value(summary.c_max)} "
          f"D_opt={len(summary.ground_states)} grounds={' '.join(grounds)}")
    return EXIT_OK


def cmd_encode(args) -> int:
    model = _load_model(args.model)
    limits = _load_limits(args)
    try:
        outcome = encode_for_annealing(model, mode=args.mode, limits=limits)
    except NotEncodableError as exc:
        print(f"error: not encodable: {exc}", file=sys.stderr)
        return EXIT_BUILD
    enc = outcome.target
    payload = {"n": enc.n, "V": enc.v.tolist(),
               "delta_final": enc.delta_final.tolist(),
               "constant": enc.constant, "scale": enc.scale,
               "signed_interactions": outcome.signed,
               "gauge_flips": list(outcome.flips),
               "scale_binding": outcome.scale_binding}
    _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_layout(args) -> int:
    model = _load_model(args.model)
    limits = _load_limits(args)
    try:
        outcome = encode_for_annealing(model, mode="physical", limits=limits)
        layout, report = embed_layout(outcome.target, dim=args.dim,
                                      seed=args.seed, limits=limits)
    except NotEncodableError as exc:
        print(f"error: not encodable: {exc}", file=sys.stderr)
        return EXIT_BUILD
    payload = layout.to_dict()
    payload["max_rel_error"] = report.max_rel_error
    payload["worst_pair"] = list(report.worst_pair)
    _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_validate(args) -> int:
    model = _load_model(args.model)
    layout = _load_json(args.layout, "layout", AtomLayout.from_dict)
    limits = _load_limits(args)
    try:
        outcome = encode_for_annealing(model, mode="physical", limits=limits)
        report = validate(outcome.target, layout, tol=args.tol)
    except (NotEncodableError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUILD
    print(f"max_rel_error={format_value(report.max_rel_error)} "
          f"worst_pair={report.worst_pair} "
          f"worst_unwanted={format_value(report.worst_unwanted)} "
          f"passed={report.passed}")
    for pair in report.offending_pairs:
        print(f"offending pair: {pair}")
    return EXIT_OK if report.passed else EXIT_QUALITY


def cmd_hardness(args) -> int:
    model = _load_model(args.model)
    try:
        rep = analyze_model(model, epsilon=args.epsilon,
                            energy_shift=args.energy_shift)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUILD
    row = report_row(args.name, rep)
    print(format_csv([row]) if args.csv else format_table([row]))
    return EXIT_OK


def _load_schedule(args) -> Schedule | None:
    if not args.schedule:
        return None
    return _load_json(args.schedule, "schedule", Schedule.from_dict)


def cmd_anneal(args) -> int:
    model = _load_model(args.model)
    limits = _load_limits(args)
    try:
        outcome = encode_for_annealing(model, mode=args.mode, limits=limits)
    except NotEncodableError as exc:
        print(f"error: not encodable: {exc}", file=sys.stderr)
        return EXIT_BUILD
    enc = outcome.target
    schedule = _load_schedule(args) or default_schedule(
        None, enc, t_total=args.duration, limits=limits)
    try:
        _, traj = propagate(enc, schedule,
                            PropagationConfig(initial_steps=args.steps))
    except AnnealerError as exc:
        print(f"error: propagation failed: {exc}", file=sys.stderr)
        return EXIT_PROPAGATION
    rows = trajectory_table(traj, enc.delta_final)
    _emit(args, format_csv(rows, list(rows[0])))
    print(f"# E(T)={format_value(traj.energy[-1])} "
          f"F(T)={format_value(traj.fidelity[-1])}", file=sys.stderr)
    return EXIT_OK


def _run_full(args, instance_name: str, model, preset_name=None) -> int:
    limits = _load_limits(args)
    plan = (_load_json(args.plan, "plan", StagePlan.from_dict) if args.plan
            else StagePlan.default())
    schedule = _load_schedule(args)
    try:
        result = run_pipeline(model, instance_name, preset_name=preset_name,
                              mode=args.mode, plan=plan, seed=args.seed,
                              schedule=schedule, limits=limits)
    except NotEncodableError as exc:
        print(f"error: not encodable: {exc}", file=sys.stderr)
        return EXIT_BUILD
    except AnnealerError as exc:
        print(f"error: propagation failed: {exc}", file=sys.stderr)
        return EXIT_PROPAGATION

    payload = result_json(result)
    _out_path(args, f"{instance_name}_result.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    _out_path(args, f"{instance_name}_trajectory.csv").write_text(
        trajectory_csv(result) + "\n")
    try:
        row = report_row(instance_name, analyze_model(as_ising(model)))
        _out_path(args, f"{instance_name}_hardness.csv").write_text(
            format_csv([row]) + "\n")
    except Exception as exc:
        print(f"warning: hardness row failed: {exc}", file=sys.stderr)

    opt = result.optimization
    print(f"instance={instance_name} R={format_value(opt.ratio)} "
          f"F={format_value(opt.f_best)} E={format_value(opt.e_best)} "
          f"evaluations={opt.evaluations} "
          f"manifest={result.manifest.hash()}")
    return EXIT_OK if opt.ratio >= args.threshold else EXIT_QUALITY


def cmd_pipeline(args) -> int:
    if args.preset:
        try:
            preset = preset_instance(args.preset)
        except ProblemError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        return _run_full(args, preset.name, preset.model, preset.name)
    model = _load_model(args.model)
    name = Path(args.model).stem
    return _run_full(args, name, model)


def _supplied_row(item: dict) -> dict:
    rep = analyze_supplied(
        float(item["E0"]), float(item["gap"]), int(item["D_opt"]),
        int(item.get("D_E1", 0)),
        [(float(d), float(de)) for d, de in item["threat_degeneracies"]],
        float(item["E_max"]) if "E_max" in item else None)
    # a width normalization replaces the provenance note instead of extending it
    return report_row(item["problem"], rep, "" if rep.normalized_by_width
                      else "from supplied spectral quantities")


def _result_row(stem: str, data: dict) -> dict:
    """A report row from a pipeline result JSON; it has no spectral columns."""
    return {"problem": data.get("instance", stem),
            "E0": float(data.get("C_opt", float("nan"))),
            "gap": float("nan"),
            "D_opt": len(data.get("ground_states", [])),
            "D_E1": 0, "threats": 0, "Sigma": float("nan"),
            "HP": float("nan"),
            "note": f"R={data.get('R'):.6f}"}


def cmd_report(args) -> int:
    if args.from_spectral:
        rows = _load_json(args.from_spectral, "spectral input",
                          lambda data: [_supplied_row(item) for item in data])
    elif args.presets:
        named = []
        for name in PRESET_NAMES:
            preset = preset_instance(name)
            note = ("" if preset.metadata.get("degeneracy_pinned")
                    else "degeneracy depends on unpinned penalty defaults")
            named.append((name, preset.model, note))
        rows = report_rows(named, epsilon=args.epsilon)
    else:
        if not args.inputs:
            print("error: no inputs given", file=sys.stderr)
            return EXIT_USAGE
        rows = [_load_json(path, "result",
                           functools.partial(_result_row, Path(path).stem))
                for path in args.inputs]
    _emit(args, format_csv(rows) if args.csv else format_table(rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydqubo",
        description="QUBO problems on a simulated Rydberg annealer")
    sub = parser.add_subparsers(dest="command", required=True)

    common = {"--config": {"help": "hardware limits JSON file"},
              "--out-dir": {"default": ".", "help": "output directory"},
              "--seed": {"type": int, "default": 0},
              "--mode": {"choices": ("ideal", "physical"), "default": "ideal"}}

    def add_common(p, *names):
        for name in names:
            p.add_argument(name, **common[name])

    p = sub.add_parser("problem", help="build a model from a family or preset")
    p.add_argument("--preset", choices=PRESET_NAMES)
    p.add_argument("--family", choices=PRESET_NAMES)
    p.add_argument("--params", help="family parameters as JSON")
    p.add_argument("--clauses", help="two-SAT clauses JSON shorthand")
    p.add_argument("--constraints", help="XOR constraints JSON shorthand")
    p.add_argument("--n", type=int, help="variable count shorthand")
    p.add_argument("--out")
    p.set_defaults(func=cmd_problem)

    p = sub.add_parser("spectrum", help="exhaustive spectrum of a model")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("encode", help="map a model to interactions/detunings")
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    add_common(p, "--config", "--mode")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("layout", help="embed atom positions for a model")
    p.add_argument("--model", required=True)
    p.add_argument("--dim", type=int, choices=(2, 3), default=2)
    p.add_argument("--out")
    add_common(p, "--config", "--seed")
    p.set_defaults(func=cmd_layout)

    p = sub.add_parser("validate", help="check a layout against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--layout", required=True)
    p.add_argument("--tol", type=float, default=1e-3)
    add_common(p, "--config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("hardness", help="spectral hardness of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--name", default="model")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--energy-shift", type=float, default=0.0)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_hardness)

    p = sub.add_parser("anneal", help="propagate one schedule, emit trajectory")
    p.add_argument("--model", required=True)
    p.add_argument("--schedule", help="schedule JSON file")
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--out")
    add_common(p, "--config", "--mode")
    p.set_defaults(func=cmd_anneal)

    for name, help_text in (("optimize", "optimize a pulse schedule"),
                            ("pipeline", "full build-encode-optimize run")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--preset", choices=PRESET_NAMES)
        p.add_argument("--model")
        p.add_argument("--plan", help="stage plan JSON file")
        p.add_argument("--schedule", help="schedule JSON file")
        p.add_argument("--threshold", type=float, default=0.98)
        add_common(p, *common)
        p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("report", help="aggregate hardness/result rows")
    p.add_argument("inputs", nargs="*", help="result JSON files")
    p.add_argument("--from-spectral", help="JSON with spectral quantities")
    p.add_argument("--presets", action="store_true",
                   help="hardness table of the built-in presets")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("optimize", "pipeline") and not (args.preset or args.model):
        print("error: provide --preset or --model", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except InputFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
