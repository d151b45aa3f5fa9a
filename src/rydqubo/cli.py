"""Command-line surface: build -> encode -> layout -> optimize -> report.

Exit codes: 0 success; 2 bad arguments (a non-positive or infinite
--duration, a non-positive --steps, a negative --seed, a non-finite
--energy-shift or --threshold, a negative or non-finite --tol, a missing or
malformed input file, a non-finite number in any JSON input, a string or a
boolean where a number belongs (a result file's R too), a fractional number
where an input file holds an integer, a schedule file whose basis is not
"fourier" or whose omega_max is not positive, a plan file with a negative
stage tolerance, an unwritable --out or
--out-dir path (an --out-dir that cannot be created fails before the run),
family parameters that are unreadable, fractional where an integer is read,
not read, or a two_sat negation flag other than a boolean, 0 or 1, no
--preset or --family for ``problem``, no --preset or --model for
``pipeline``, ``report`` without inputs or with more than one of
--from-spectral, --presets and result files, or a layout whose atom count
differs from the model's or that puts two atoms on one site); 3 a problem,
model or hardness analysis that cannot be built, or a model that cannot be
encoded, also because its encoded coefficients overflow a float; 4
solution quality below --threshold, or a failed validation; 5 propagation
failure. A reader that closes stdout early ends the command
quietly with exit 0. Subcommands raise; main() alone maps an exception to
its exit code through FAILURES. Any other exception is a bug and prints a
traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from pathlib import Path

from .annealer import AnnealerError, PropagationConfig, Schedule, propagate
from .encoding import (AtomLayout, HardwareLimits, NotEncodableError,
                       embed_layout, validate)
from .hardness import (HardnessError, analyze_model, analyze_spectrum,
                       analyze_supplied, format_csv, format_table,
                       format_value, report_row, report_rows)
from .models import (ModelError, _float, _int, enumerate_spectrum,
                     model_from_dict, state_bits)
from .optimizer import AnnealObjective, StagePlan, initial_parameters
from .pipeline import (default_schedule, encode_for_annealing, result_json,
                       run_pipeline, trajectory_csv)
from .problems import (PRESET_NAMES, ProblemError, build_from_params,
                       preset_instance)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUILD = 3
EXIT_QUALITY = 4
EXIT_PROPAGATION = 5


class UsageError(Exception):
    """Bad arguments or a missing or malformed input file."""


# (exception type, exit code, stderr prefix); main() prints
# "error: <prefix><message>" for the first row the exception matches
FAILURES = (
    (UsageError, EXIT_USAGE, ""),
    (NotEncodableError, EXIT_BUILD, "not encodable: "),
    (AnnealerError, EXIT_PROPAGATION, "propagation failed: "),
    (ProblemError, EXIT_BUILD, ""),
    (ModelError, EXIT_BUILD, ""),
    (HardnessError, EXIT_BUILD, ""),
)
_MAPPED = tuple(kind for kind, _, _ in FAILURES)


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise OverflowError(f"number {text} overflows a float")
    return value


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _parse_json(text: str):
    """JSON text as Python data; NaN and +-Infinity raise ValueError, and a
    number that overflows a float raises OverflowError."""
    return json.loads(text, parse_float=_finite_float,
                      parse_constant=_reject_constant)


def _load_json(path: str, what: str, parse):
    """``parse`` applied to the JSON in ``path``; every failure is a
    UsageError."""
    try:
        with open(path) as fh:
            return parse(_parse_json(fh.read()))
    except (OSError, AttributeError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise UsageError(
            f"cannot load {what} {path}: {type(exc).__name__}: {exc}") from exc


@contextlib.contextmanager
def _bad_input(what: str):
    """A KeyError, OverflowError, TypeError or ValueError raised while reading
    ``what`` is a UsageError; an error FAILURES maps passes through unchanged."""
    try:
        yield
    except _MAPPED:
        raise
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise UsageError(f"bad {what}: {type(exc).__name__}: {exc}") from exc


def _load_limits(args) -> HardwareLimits:
    if not args.config:
        return HardwareLimits()
    return _load_json(args.config, "config", lambda data: HardwareLimits(
        **{key: _float(value) for key, value in data.items()}))


def _write(path: Path, text: str) -> None:
    """Write ``text`` and a newline to ``path``; an OSError is a UsageError."""
    try:
        path.write_text(text + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _emit(args, text: str) -> None:
    """Write ``text`` to the --out file if one was given, else to stdout."""
    if args.out:
        _write(Path(args.out), text)
    else:
        print(text)


def cmd_problem(args) -> int:
    if args.preset:
        preset = preset_instance(args.preset)
        model, meta = preset.model, dict(preset.metadata)
        meta["preset"] = preset.name
    elif args.family:
        with _bad_input("family parameters"):
            params = _parse_json(args.params) if args.params else {}
            for key in ("constraints", "clauses"):
                if getattr(args, key):
                    params[key] = _parse_json(getattr(args, key))
            if "n" not in params and args.n is not None:
                params["n"] = args.n
            _, model = build_from_params(args.family, params)
        meta = {"family": args.family}
    else:
        raise UsageError("provide --preset or --family")
    payload = model.to_dict()
    payload["metadata"] = meta
    _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK


def _encoded(args, mode: str):
    """(model, encoding outcome, hardware limits) of the --model file under
    --config."""
    model = _load_json(args.model, "model", model_from_dict)
    limits = _load_limits(args)
    return model, encode_for_annealing(model, mode=mode, limits=limits), limits


def cmd_spectrum(args) -> int:
    model = _load_json(args.model, "model", model_from_dict)
    table = enumerate_spectrum(model)
    print("energy,multiplicity")
    for energy, count in zip(table.energies.tolist(), table.counts.tolist()):
        print(f"{format_value(energy)},{count}")
    grounds = [''.join(map(str, state_bits(s, model.n)))
               for s in table.ground_states]
    print(f"# C_opt={format_value(table.e_min)} "
          f"C_max={format_value(table.e_max)} "
          f"D_opt={len(grounds)} grounds={' '.join(grounds)}")
    return EXIT_OK


def cmd_encode(args) -> int:
    _, outcome, _ = _encoded(args, args.mode)
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
    _, outcome, limits = _encoded(args, "physical")
    layout, report = embed_layout(outcome.target, dim=args.dim,
                                  seed=args.seed, limits=limits)
    payload = layout.to_dict()
    payload["max_rel_error"] = report.max_rel_error
    payload["worst_pair"] = list(report.worst_pair)
    _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_validate(args) -> int:
    layout = _load_json(args.layout, "layout", AtomLayout.from_dict)
    _, outcome, _ = _encoded(args, "physical")
    with _bad_input(f"layout {args.layout}"):
        report = validate(outcome.target, layout, tol=args.tol)
    print(f"max_rel_error={format_value(report.max_rel_error)} "
          f"worst_pair={report.worst_pair} "
          f"worst_unwanted={format_value(report.worst_unwanted)} "
          f"passed={report.passed}")
    for pair in report.offending_pairs:
        print(f"offending pair: {pair}")
    return EXIT_OK if report.passed else EXIT_QUALITY


def cmd_hardness(args) -> int:
    model = _load_json(args.model, "model", model_from_dict)
    rep = analyze_model(model, energy_shift=args.energy_shift)
    row = report_row(args.name, rep)
    print(format_csv([row]) if args.csv else format_table([row]))
    return EXIT_OK


def _load_schedule(args) -> Schedule | None:
    if not args.schedule:
        return None
    return _load_json(args.schedule, "schedule", Schedule.from_dict)


def cmd_anneal(args) -> int:
    model, outcome, limits = _encoded(args, args.mode)
    enc = outcome.target
    schedule = _load_schedule(args)
    if schedule is None:  # the pulse the optimizer starts from
        template = default_schedule(None, enc, t_total=args.duration,
                                    limits=limits)
        schedule = AnnealObjective(enc, template).schedule_for(
            initial_parameters(template))
    _, traj = propagate(enc, schedule, PropagationConfig(args.steps),
                        ground_indices=outcome.ground_indices(
                            enumerate_spectrum(model)))
    _emit(args, trajectory_csv(traj, enc.delta_final))
    print(f"# E(T)={format_value(traj.energy[-1])} "
          f"F(T)={format_value(traj.fidelity[-1])}", file=sys.stderr)
    return EXIT_OK


def _run_full(args, instance_name: str, model, preset_name=None) -> int:
    limits = _load_limits(args)
    plan = (_load_json(args.plan, "plan", StagePlan.from_dict) if args.plan
            else StagePlan.default())
    schedule = _load_schedule(args)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot write {out_dir}: {exc}") from exc
    result = run_pipeline(model, instance_name, preset_name=preset_name,
                          mode=args.mode, plan=plan, seed=args.seed,
                          schedule=schedule, limits=limits)

    _write(out_dir / f"{instance_name}_result.json",
           json.dumps(result_json(result), indent=2))
    opt = result.optimization
    _write(out_dir / f"{instance_name}_trajectory.csv",
           f"# manifest {result.manifest.hash()}\n"
           + trajectory_csv(opt.trajectory, result.outcome.target.delta_final))
    try:
        row = report_row(instance_name, analyze_spectrum(result.spectrum))
    except HardnessError as exc:
        print(f"warning: hardness row failed: {exc}", file=sys.stderr)
    else:
        _write(out_dir / f"{instance_name}_hardness.csv", format_csv([row]))

    print(f"instance={instance_name} R={format_value(opt.ratio)} "
          f"F={format_value(opt.f_best)} E={format_value(opt.e_best)} "
          f"evaluations={opt.evaluations} "
          f"manifest={result.manifest.hash()}")
    return EXIT_OK if opt.ratio >= args.threshold else EXIT_QUALITY


def cmd_pipeline(args) -> int:
    if args.preset:
        preset = preset_instance(args.preset)
        return _run_full(args, preset.name, preset.model, preset.name)
    if not args.model:
        raise UsageError("provide --preset or --model")
    model = _load_json(args.model, "model", model_from_dict)
    return _run_full(args, Path(args.model).stem, model)


def _supplied_row(item: dict) -> dict:
    rep = analyze_supplied(
        _float(item["E0"]), _float(item["gap"]), _int(item["D_opt"]),
        _int(item.get("D_E1", 0)),
        [(_int(d), _float(de)) for d, de in item["threat_degeneracies"]],
        _float(item["E_max"]) if "E_max" in item else None)
    # a width normalization replaces the provenance note instead of extending it
    return report_row(item["problem"], rep, "" if rep.normalized_by_width
                      else "from supplied spectral quantities")


def _result_row(stem: str, data: dict) -> dict:
    """A report row from a pipeline result JSON; it has no spectral columns."""
    return {"problem": data.get("instance", stem),
            "E0": _float(data["C_opt"]) if "C_opt" in data else float("nan"),
            "gap": float("nan"),
            "D_opt": len(data.get("ground_states", [])),
            "D_E1": 0, "threats": 0, "Sigma": float("nan"),
            "HP": float("nan"),
            "note": f"R={_float(data['R']):.6f}"}


def cmd_report(args) -> int:
    sources = sum(map(bool, (args.from_spectral, args.presets, args.inputs)))
    if sources != 1:
        raise UsageError("no inputs given" if sources == 0 else
                         "give one of --from-spectral, --presets or result files")
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
        rows = report_rows(named)
    else:
        rows = [_load_json(path, "result",
                           functools.partial(_result_row, Path(path).stem))
                for path in args.inputs]
    _emit(args, format_csv(rows) if args.csv else format_table(rows))
    return EXIT_OK


def _checked(name: str, convert, ok, what: str):
    """An argparse type named ``name``: ``convert(text)``, refused unless
    ``ok`` holds for it."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    parse.__name__ = name  # argparse names the type when convert fails
    return parse


positive_float = _checked("positive_float", float,
                          lambda x: 0 < x < math.inf, "positive and finite")
finite_float = _checked("finite_float", float, math.isfinite, "finite")
nonnegative_float = _checked("nonnegative_float", float,
                             lambda x: 0 <= x < math.inf,
                             "non-negative and finite")
positive_int = _checked("positive_int", int, lambda k: k > 0, "positive")
nonnegative_int = _checked("nonnegative_int", int, lambda k: k >= 0,
                           "non-negative")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydqubo", allow_abbrev=False,
        description="QUBO problems on a simulated Rydberg annealer")
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    common = {"--config": {"help": "hardware limits JSON file"},
              "--out-dir": {"default": ".", "help": "output directory"},
              "--seed": {"type": nonnegative_int, "default": 0},
              "--mode": {"choices": ("ideal", "physical"), "default": "ideal"}}

    def add_common(p, *names):
        for name in names:
            p.add_argument(name, **common[name])

    p = add_parser("problem", help="build a model from a family or preset")
    p.add_argument("--preset", choices=PRESET_NAMES)
    p.add_argument("--family", choices=PRESET_NAMES)
    p.add_argument("--params", help="family parameters as JSON")
    p.add_argument("--clauses", help="two-SAT clauses JSON shorthand")
    p.add_argument("--constraints", help="XOR constraints JSON shorthand")
    p.add_argument("--n", type=int, help="variable count shorthand")
    p.add_argument("--out")
    p.set_defaults(func=cmd_problem)

    p = add_parser("spectrum", help="exhaustive spectrum of a model")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = add_parser("encode", help="map a model to interactions/detunings")
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    add_common(p, "--config", "--mode")
    p.set_defaults(func=cmd_encode)

    p = add_parser("layout", help="embed atom positions for a model")
    p.add_argument("--model", required=True)
    p.add_argument("--dim", type=int, choices=(2, 3), default=2)
    p.add_argument("--out")
    add_common(p, "--config", "--seed")
    p.set_defaults(func=cmd_layout)

    p = add_parser("validate", help="check a layout against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--layout", required=True)
    p.add_argument("--tol", type=nonnegative_float, default=1e-3)
    add_common(p, "--config")
    p.set_defaults(func=cmd_validate)

    p = add_parser("hardness", help="spectral hardness of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--name", default="model")
    p.add_argument("--energy-shift", type=finite_float, default=0.0)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_hardness)

    p = add_parser("anneal", help="propagate one schedule, emit trajectory")
    p.add_argument("--model", required=True)
    p.add_argument("--schedule", help="schedule JSON file")
    p.add_argument("--duration", type=positive_float, default=None)
    p.add_argument("--steps", type=positive_int, default=200)
    p.add_argument("--out")
    add_common(p, "--config", "--mode")
    p.set_defaults(func=cmd_anneal)

    p = add_parser("pipeline", help="full build-encode-optimize run")
    p.add_argument("--preset", choices=PRESET_NAMES)
    p.add_argument("--model")
    p.add_argument("--plan", help="stage plan JSON file")
    p.add_argument("--schedule", help="schedule JSON file")
    p.add_argument("--threshold", type=finite_float, default=0.98)
    add_common(p, *common)
    p.set_defaults(func=cmd_pipeline)

    p = add_parser("report", help="aggregate hardness/result rows")
    p.add_argument("inputs", nargs="*", help="result JSON files")
    p.add_argument("--from-spectral", help="JSON with spectral quantities")
    p.add_argument("--presets", action="store_true",
                   help="hardness table of the built-in presets")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early, as ``| head`` does; point stdout at
        # devnull so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except _MAPPED as exc:
        code, prefix = next((code, prefix) for kind, code, prefix in FAILURES
                            if isinstance(exc, kind))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
