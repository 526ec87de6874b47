"""Command-line front end.

Subcommands wrap the library one-to-one and emit machine-readable CSV or
JSON so results can be plotted or checked in CI.  Exit codes: 0 success,
1 bad input (a usage error included), 2 integration stopped near a
singularity, 3 an --expect-* assertion was violated.

Randomized sampling is deterministic given --seed.  Flags may also be read
from a JSON config file (--config), each value checked through its flag's
type and choices; explicit flags win, and the effective configuration is
echoed in the output header.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import re
import sys

import numpy as np

from . import el_ode
from .closed_form import MobiusFamily, family_eval_jet, family_singularities, family_verify
from .errors import SchwarzLabError
from .ode_geometry import OdeField, el_field, invariants_at, linearize
from .schwarzian import Jet4, schwarzian
from .variation import ExprCurve, MobiusCurve, critical_test

log = logging.getLogger("schwarzlab")

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_SINGULAR_STOP = 2
EXIT_EXPECTATION = 3

_CANONICAL_BASES = {
    "exp": MobiusFamily(1.0, 0.0, 0.0, 1.0, -0.5),
    "line": MobiusFamily(1.0, 0.0, 0.0, 1.0, 0.0),
    "tan": MobiusFamily(1.0, 0.0, 0.0, 1.0, 2.0),
}


def _setup_logging():
    level = os.environ.get("SCHWARZ_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR), format="%(levelname)s %(message)s")


def _finite(name: str, x: float) -> float:
    if not math.isfinite(x):
        raise ValueError(f"{name} {x} is not finite")
    return x


def _parse_jet(text: str) -> Jet4:
    parts = [_finite("jet entry", float(x)) for x in text.split(",")]
    if len(parts) != 5:
        raise ValueError(f"jet must be 5 comma-separated numbers t,u,p,q,r, got {len(parts)}")
    return Jet4(*parts)


class _Repeatable(argparse.Action):
    """A repeatable flag collected into a list.  Its first use on the command
    line starts a new list, so it replaces a config file's list rather than
    extending it."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = getattr(namespace, self.dest, None)
        setattr(namespace, self.dest, ([] if given is self.default else given) + [values])


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are bad input, exit 1 through
    main() rather than argparse's exit 2 (which here means a singular stop),
    and which keeps each flag's action by dest for checking config values.
    A value that starts with - and a digit, or -. and a digit, is a number,
    not a flag: -1e-3 as well as argparse's own -2 and -0.5.  Subparsers are
    made of the same class."""

    def __init__(self, *args, **kwargs):
        self.flags = {}
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags[action.dest] = action
        return action

    def error(self, message):
        raise ValueError(f"{message}\n{self.format_usage().rstrip()}")


def _config_value(key: str, value, action: argparse.Action):
    """A config file's value for a flag, checked as the command line would
    check it: a switch takes true or false, a repeatable flag a list, and
    every other value (or list element) is a number or a string whose text
    goes through the flag's type and choices.  ValueError names the key."""
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise ValueError(f"config key {key!r} must be true or false, got {value!r}")
        return value
    if isinstance(action, _Repeatable):
        if not isinstance(value, list):
            raise ValueError(f"config key {key!r} must be a list, got {value!r}")
        return [_config_item(key, item, action) for item in value]
    return _config_item(key, value, action)


def _config_item(key: str, value, action: argparse.Action):
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"config key {key!r} must be a number or a string, got {value!r}")
    try:
        out = action.type(str(value)) if action.type else str(value)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        raise ValueError(f"config key {key!r} has an invalid value {value!r}") from None
    if action.choices is not None and out not in action.choices:
        raise ValueError(f"config key {key!r} must be one of {list(action.choices)}, got {value!r}")
    return out


def _parse_args(parser: _Parser, argv) -> argparse.Namespace:
    """Parse argv.  The values of the --config JSON file then become the
    subcommand's defaults and argv is parsed again, so explicit flags win,
    even one equal to its default.  Unknown config keys are ignored."""
    args = parser.parse_args(argv)
    if args.config:
        with open(args.config) as fh:
            conf = json.load(fh)
        if not isinstance(conf, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        flags = args.parser.flags
        defaults = {}
        for key, value in conf.items():
            dest = key.replace("-", "_")
            if dest in flags and hasattr(args, dest):
                defaults[dest] = _config_value(key, value, flags[dest])
        args.parser.set_defaults(**defaults)
        args = parser.parse_args(argv)
    return args


def _effective_config(args: argparse.Namespace) -> dict:
    skip = {"func", "parser", "config", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and not callable(v)}


def _emit(text: str, out):
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, args) -> None:
    """Write the payload after the effective config.  A NaN or infinity is
    not JSON: dumps raises ValueError, which exits 1, before anything is
    written."""
    payload = {"config": _effective_config(args), **payload}
    _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", args.out)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_integrate(args) -> int:
    init = _parse_jet(args.jet)
    traj = el_ode.integrate(init, args.t_end, args.tol)
    header = "config: " + json.dumps(_effective_config(args))
    body = f"# {header}\n" + el_ode.trajectory_csv(traj)
    _emit(body, args.out)
    log.info("integrated %d steps, status %s", len(traj.samples), traj.status)
    return EXIT_SINGULAR_STOP if traj.status == el_ode.STATUS_STOPPED else EXIT_OK


def _resolve_field(args) -> OdeField:
    if getattr(args, "F", None):
        return OdeField.from_expression(args.F)
    name = getattr(args, "field", None) or "EL"
    if name.upper() == "EL":
        return el_field()
    raise ValueError(f"unknown named field {name!r}; use --F for a custom expression")


def cmd_invariants(args) -> int:
    field = _resolve_field(args)
    is_el = not getattr(args, "F", None)
    jets = [_parse_jet(j) for j in args.jet or []]
    if args.random:
        rng = np.random.default_rng(args.seed)
        for _ in range(args.random):
            p = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 1.0)
            jets.append(Jet4(rng.uniform(-1, 1), rng.uniform(-1, 1), p,
                             rng.uniform(-1, 1), rng.uniform(-1, 1)))
    if not jets:
        raise ValueError("no jets given; use --jet or --random")
    rows = [invariants_at(field, j, with_schwarzian=is_el) for j in jets]
    _emit_json({"rows": rows}, args)
    return EXIT_OK


def cmd_family(args) -> int:
    fam = MobiusFamily(args.A, args.B, args.C, args.D, args.sigma)
    payload = {
        "family": json.loads(fam.to_json()),
        "class": fam.family_class,
        "singularities": family_singularities(fam, args.t0, args.t1),
    }
    if args.verify:
        report = family_verify(fam, args.verify, args.t0, args.t1)
        payload["verify"] = report.to_dict()
    if args.jet_at is not None:
        jet = family_eval_jet(fam, _finite("--jet-at", args.jet_at))
        payload["jet"] = list(jet.as_tuple())
        payload["schwarzian"] = schwarzian(jet)
    _emit_json(payload, args)
    return EXIT_OK


def cmd_linearize(args) -> int:
    field = _resolve_field(args)
    if args.base in _CANONICAL_BASES:
        base = _CANONICAL_BASES[args.base]
    else:
        base = MobiusFamily.from_json(args.base)
    rows = []
    for t in args.t:
        a1, a2, a3 = linearize(field, base, _finite("--t", t))
        rows.append({"t": t, "a1": a1, "a2": a2, "a3": a3})
    _emit_json({"base": args.base, "rows": rows}, args)
    return EXIT_OK


def cmd_variation(args) -> int:
    parts = args.interval.split(",")
    if len(parts) != 2:
        raise ValueError(f"--interval must be t0,t1, got {args.interval!r}")
    t0, t1 = (float(x) for x in parts)
    if args.u:
        curve = ExprCurve(args.u, (t0, t1))
    elif args.mobius:
        fam = MobiusFamily.from_json(args.mobius)
        curve = MobiusCurve(fam, (t0, t1))
    else:
        raise ValueError("give a curve with --u EXPR or --mobius JSON")
    report = critical_test(curve, t0, t1, args.n, seed=args.seed)
    _emit_json(report.to_dict(), args)
    if args.expect_critical and report.witness is not None:
        log.info("witness found: %s", report.witness)
        return EXIT_EXPECTATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser construction / entry point
# ---------------------------------------------------------------------------

def _add_common(sp: argparse.ArgumentParser):
    sp.add_argument("--out", default=None, help="output path (default: stdout)")
    sp.add_argument("--config", default=None, help="JSON config file mirroring flags")
    sp.add_argument("--seed", type=int, default=0, help="seed for randomized sampling")


def build_parser() -> _Parser:
    parser = _Parser(prog="schwarzlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("integrate", help="integrate the stationarity equation from a jet")
    sp.add_argument("--jet", required=True, help="initial jet t,u,p,q,r")
    sp.add_argument("--t-end", dest="t_end", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-10)
    _add_common(sp)
    sp.set_defaults(func=cmd_integrate, parser=sp)

    sp = sub.add_parser("invariants", help="evaluate W0/W1 for a field at jets")
    sp.add_argument("--field", default=None, help="named field (EL)")
    sp.add_argument("--F", default=None, help="right-hand side expression in t,u,p,q,r")
    sp.add_argument("--jet", action=_Repeatable, help="jet t,u,p,q,r (repeatable)")
    sp.add_argument("--random", type=int, default=0, help="additionally sample N random jets")
    _add_common(sp)
    sp.set_defaults(func=cmd_invariants, parser=sp)

    sp = sub.add_parser("family", help="closed-form family report")
    sp.add_argument("--sigma", type=float, required=True)
    sp.add_argument("--A", type=float, default=1.0)
    sp.add_argument("--B", type=float, default=0.0)
    sp.add_argument("--C", type=float, default=0.0)
    sp.add_argument("--D", type=float, default=1.0)
    sp.add_argument("--t0", type=float, default=0.0)
    sp.add_argument("--t1", type=float, default=1.0)
    sp.add_argument("--verify", type=int, default=0, help="verify residuals at N samples")
    sp.add_argument("--jet-at", dest="jet_at", type=float, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_family, parser=sp)

    sp = sub.add_parser("linearize", help="linearized-equation coefficients along a base solution")
    sp.add_argument("--field", default="EL")
    sp.add_argument("--F", default=None)
    sp.add_argument("--base", required=True,
                    help="named base (exp|line|tan) or a family JSON object")
    sp.add_argument("--t", type=float, action=_Repeatable, required=True, help="sample time (repeatable)")
    _add_common(sp)
    sp.set_defaults(func=cmd_linearize, parser=sp)

    sp = sub.add_parser("variation", help="critical-point test with admissible variations")
    sp.add_argument("--u", default=None, help="curve expression in t")
    sp.add_argument("--mobius", default=None, help="curve as a family JSON object")
    sp.add_argument("--interval", required=True, help="t0,t1")
    sp.add_argument("--n", type=int, default=50)
    sp.add_argument("--expect-critical", dest="expect_critical", action="store_true",
                    help="exit 3 if a witness variation is found")
    _add_common(sp)
    sp.set_defaults(func=cmd_variation, parser=sp)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        return args.func(args)
    # input nested deeper than Python's recursion limit is bad input too
    except (SchwarzLabError, ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
