"""Command-line interface.

One command per run, one JSON report on stdout; stderr carries only error
messages. Exit codes: 0 YES (or plain success for commands without a
verdict), 1 NO, 2 simulator/oracle disagreement, 3 bad input (usage errors
included), 4 resource limit exceeded, 5 internal error (an unexpected
exception, with its traceback on stderr; never read as a verdict).

The report is written by a direct walk of its dicts, lists and dataclasses,
with sorted keys and a two-space indent: the text that
json.dumps(report, indent=2, sort_keys=True) would give, with every Fraction
as its exact decimal (or p/q) string.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time
import traceback
from dataclasses import fields, replace
from fractions import Fraction
from typing import Iterator

from .analysis import feasibility_report, slow_light_rescale
from .errors import (
    InvalidValue,
    Overflow,
    ParseError,
    ResourceLimit,
)
from .model import (
    DeviceLayout,
    Instance,
    PhysicalParams,
    Verdict,
    cable_lengths,
    compile_epsilon_layout,
    compile_layout,
    load_instance_file,
    normalize,
)
from .oracles import solve_auto
from .perturb import perturb_and_classify
from .rational import fraction_str, to_fraction
from .sim import (
    detect,
    epsilon_false_positive_demo,
    propagate,
    propagate_halves,
    write_profile,
)

EXIT_OK = 0
EXIT_NO = 1
EXIT_DISAGREEMENT = 2
EXIT_INPUT_ERROR = 3
EXIT_RESOURCE_ERROR = 4
EXIT_INTERNAL_ERROR = 5

# Rendering an exact number takes time quadratic in its length: the longest a
# report accepts, about 242 000 digits, takes about 1.1 s on a 2-vCPU VM.
MAX_REPORT_DIGITS = 250_000

# json's ASCII string encoder, written in C where the interpreter has it.
_quote = json.encoder.encode_basestring_ascii

# Built once per process: building it costs about 20 times what a parse does.
# The parser holds no functions; main looks the command up when it runs.
# Returns the whole parser and each command's own, by name.
@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("file", help="instance file (JSON with 'set' and 'target')")
    shared.add_argument("--k", type=int, default=None, metavar="QUANTA",
                        help="offset added to every arc (default 1)")
    shared.add_argument("--quantum-s", default=None, metavar="SECONDS",
                        help="delay quantum in seconds (default 1e-12)")
    shared.add_argument("--velocity-factor", default=None, metavar="F",
                        help="light speed fraction in fiber (default 1.0)")
    shared.add_argument("--slow-light", default=None, metavar="F",
                        help="additional slow-light factor applied on top")

    parser = argparse.ArgumentParser(
        prog="lightsum",
        description="Simulate an optical delay-line device deciding subset-sum instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[shared],
                       help="decide the instance and cross-check against an oracle")
    p.add_argument("--dump-profile", default=None, metavar="PATH",
                   help="write the arrival profile as '<time> <count>' lines")
    p.add_argument("--max-cable-m", default=None, metavar="METERS",
                   help="also include a feasibility report for this cable budget")

    p = sub.add_parser("compile", parents=[shared],
                       help="print the stage table and physical cable lengths")

    p = sub.add_parser("analyze", parents=[shared],
                       help="feasibility bounds for a physical build")
    p.add_argument("--max-cable-m", default="3000", metavar="METERS",
                   help="longest available cable (default 3000)")

    p = sub.add_parser("demo-epsilon", parents=[shared],
                       help="show the spurious detection of the epsilon device")
    p.add_argument("--dump-profile", default=None, metavar="PATH",
                   help="write the arrival profile as '<time> <count>' lines")
    p.add_argument("--epsilon", type=int, default=1, metavar="QUANTA",
                   help="skip-arc length of the epsilon device (default 1)")

    p = sub.add_parser("perturb", parents=[shared],
                       help="classify detection under random cable-length errors")
    p.add_argument("--max-error-m", required=True, metavar="METERS",
                   help="maximum absolute length error per cable")
    p.add_argument("--trials", type=int, default=1000, help="number of trials (default 1000)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    return parser, sub.choices


def _load(args: argparse.Namespace) -> tuple[Instance, PhysicalParams]:
    """File params override the defaults; explicit CLI flags override the file."""
    raw, params = load_instance_file(args.file)
    overrides: dict[str, object] = {}
    if args.k is not None:
        overrides["offset_k_quanta"] = args.k
    if args.quantum_s is not None:
        overrides["delay_quantum_s"] = to_fraction(args.quantum_s)
    if args.velocity_factor is not None:
        overrides["velocity_factor"] = to_fraction(args.velocity_factor)
    if overrides:
        params = replace(params, **overrides)  # type: ignore[arg-type]
    if args.slow_light is not None:
        params = slow_light_rescale(params, args.slow_light)
    return normalize(raw), params


@contextlib.contextmanager
def _exact_ints() -> Iterator[None]:
    """Lift the int-to-str digit limit while output is written; input keeps it."""
    if not hasattr(sys, "set_int_max_str_digits"):  # 3.10.6 and older have none
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _check_length(x: int | Fraction) -> None:
    # At least len(fraction_str(x)): digits(p) <= bits(p) * 0.302 + 1, the
    # denominator or the decimal places it makes take at most bits(q) digits,
    # then a sign and "." or "/".
    length = abs(x.numerator).bit_length() * 31 // 100 + x.denominator.bit_length() + 3
    if length > MAX_REPORT_DIGITS:
        raise ResourceLimit(f"a report number may take {length} digits, past {MAX_REPORT_DIGITS}")


def _render(report: object) -> str:
    """The whole report as JSON, built before any output is written.

    The text is what json.dumps(report, indent=2, sort_keys=True) writes,
    plus a final newline, with a Fraction as its fraction_str and a dataclass
    as the object of its fields. json.dumps itself runs its pure-Python
    encoder once given an indent, and took longer. An int or Fraction that
    might render past MAX_REPORT_DIGITS raises ResourceLimit before it is
    rendered.
    """
    with _exact_ints():
        return _json(report, "\n") + "\n"


def _json(obj: object, newline: str) -> str:
    """obj as JSON text; `newline` is a line break followed by the indent of
    the line obj starts on."""
    writer = _WRITERS.get(type(obj))
    if writer is None:
        # A subclass (a str Enum writes its value) takes the writer of its
        # first base in _WRITERS' order; anything else is a dataclass.
        writer = next((w for t, w in _WRITERS.items() if isinstance(obj, t)), _dataclass)
    return writer(obj, newline)


def _int(obj: int, newline: str) -> str:
    _check_length(obj)
    return int.__repr__(obj)


def _fraction(obj: Fraction, newline: str) -> str:
    _check_length(obj)
    return f'"{fraction_str(obj)}"'


def _list(obj: list | tuple, newline: str) -> str:
    if not obj:
        return "[]"
    inner = newline + "  "
    body = ("," + inner).join([_json(item, inner) for item in obj])
    return f"[{inner}{body}{newline}]"


def _object(items: list[tuple[str, object]], newline: str) -> str:
    if not items:
        return "{}"
    inner = newline + "  "
    body = ("," + inner).join([f"{_quote(key)}: {_json(value, inner)}" for key, value in items])
    return f"{{{inner}{body}{newline}}}"


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(sorted(f.name for f in fields(cls)))


def _dataclass(obj: object, newline: str) -> str:
    return _object([(name, getattr(obj, name)) for name in _field_names(type(obj))], newline)


# Checked in this order for a subclass: str before the rest, bool before int.
_WRITERS = {
    str: lambda obj, newline: _quote(obj),
    type(None): lambda obj, newline: "null",
    bool: lambda obj, newline: "true" if obj else "false",
    int: _int,
    float: lambda obj, newline: float.__repr__(obj),
    Fraction: _fraction,
    list: _list,
    tuple: _list,
    dict: lambda obj, newline: _object(sorted(obj.items()), newline),
}


def _dump(path: str, layout: DeviceLayout) -> None:
    # Built before the file is opened, so a ResourceLimit leaves it untouched.
    profile = propagate(layout)
    with _exact_ints(), open(path, "w", encoding="utf-8") as fh:
        write_profile(profile, fh)


def cmd_solve(args: argparse.Namespace) -> int:
    timing: dict[str, float] = {}

    def timed(name: str, fn, *fn_args):
        start = time.perf_counter()
        result = fn(*fn_args)
        timing[name + "_s"] = time.perf_counter() - start
        return result

    instance, params = timed("normalize", _load, args)
    layout = timed("compile", compile_layout, instance, params)
    halves = timed("propagate", propagate_halves, layout)
    detection = timed("detect", detect, halves, instance, params)
    oracle = timed("oracle", solve_auto, instance)
    agreement = detection.verdict is oracle.verdict
    feasibility = None
    if args.max_cable_m is not None:
        feasibility = feasibility_report(instance, params, args.max_cable_m)
    report = _render({
        "instance_echo": instance,
        "simulator": detection,
        "oracle": oracle,
        "agreement": agreement,
        "feasibility": feasibility,
        "stats": {"half_entries": halves.half_entries},
        "timing": timing,
    })
    if args.dump_profile:
        _dump(args.dump_profile, layout)
    sys.stdout.write(report)
    if not agreement:
        sys.stderr.write("simulator and oracle disagree; this is a bug\n")
        return EXIT_DISAGREEMENT
    return EXIT_OK if detection.verdict is Verdict.YES else EXIT_NO


def cmd_compile(args: argparse.Namespace) -> int:
    instance, params = _load(args)
    layout = compile_layout(instance, params)
    lengths = cable_lengths(layout, params)
    stages = []
    for i, stage in enumerate(layout.stages):
        stages.append({
            "stage": i,
            "value": stage.value,
            "skip_quanta": stage.skip_delay,
            "take_quanta": stage.take_delay,
            "skip_m": lengths[2 * i],
            "take_m": lengths[2 * i + 1],
        })
    sys.stdout.write(_render({
        "instance_echo": instance,
        "node_count": layout.node_count,
        "quantum_length_m": params.quantum_length_m,
        "stages": stages,
    }))
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    instance, params = _load(args)
    compile_layout(instance, params)  # the device's longest-path bound
    sys.stdout.write(_render(feasibility_report(instance, params, args.max_cable_m)))
    return EXIT_OK


def cmd_demo_epsilon(args: argparse.Namespace) -> int:
    instance, params = _load(args)
    # The demo compiles the epsilon layout first, so a bad --epsilon is
    # refused before any dump is written.
    demo = epsilon_false_positive_demo(instance, args.epsilon, params)
    report = _render(demo)
    if args.dump_profile:
        _dump(args.dump_profile, compile_epsilon_layout(instance, args.epsilon))
    sys.stdout.write(report)
    return EXIT_OK if demo.offset_correct else EXIT_DISAGREEMENT


def cmd_perturb(args: argparse.Namespace) -> int:
    instance, params = _load(args)
    report = perturb_and_classify(instance, params, args.max_error_m, args.trials, args.seed)
    sys.stdout.write(_render(report))
    return EXIT_OK


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed as the whole parser parses it, by the command's own
    parser alone when argv starts with a command name.

    The whole parser's pass costs about as much as the command's parse.
    Anything else (no arguments, an unknown command, a top-level option)
    goes through the whole parser, and it reports the arguments a command
    leaves over, so every usage error reads as before.
    """
    parser, commands = build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error("unrecognized arguments: " + " ".join(extra))
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # --help exits 0; argparse exits 2 on a usage error, which here is
        # the disagreement code, so report it as bad input.
        return EXIT_OK if exc.code == 0 else EXIT_INPUT_ERROR
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (ParseError, InvalidValue, Overflow, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    except ResourceLimit as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return EXIT_RESOURCE_ERROR
    except Exception:
        # A bug, not a verdict: exit 1 would read as NO.
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
