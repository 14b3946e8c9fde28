"""Command line interface: construct objects, run checks, emit JSON.

Every check takes the object it certifies and returns a CheckReport;
each verify subcommand is one entry of the _VERIFY table, which builds
that object, and all checks leave through _emit_report.  Output
is deterministic JSON (entries pre-sorted, fixed key order).  Exit codes:
0 all requested checks pass, 1 a verification failed (the report is still
emitted), 2 invalid configuration (a malformed rational, an option the
command does not take) or an unwritable -o path, 3 internal
inconsistency: the routes to R(z) disagree or the generators do not
preserve a wedge quotient (messages on stderr, nothing on stdout).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .rmatrix import (InternalMismatch, build_r, build_r_z,
                      check_braid_constant, check_min_poly,
                      check_module_morphism, check_ybe_spectral,
                      jimbo_compare)
from .scalars import SampledField, SymbolicField
from .uqrs import (InvalidPower, check_defining_relations,
                   hopf_antipode_check, natural_rep, tensor_power_rep,
                   weight_spaces)
from .wedge import (WellDefinednessFailure, build_wedge_module,
                    spectral_projector_check, verify_fundamental)


def _add_common(p, with_k=False, k_default=None):
    p.add_argument("-n", type=int, required=True, help="rank parameter n")
    if with_k:
        p.add_argument("-k", type=int, default=k_default,
                       help="tensor power / wedge degree")
    p.add_argument("--symbolic", action="store_true",
                   help="compute in Q(r, s) instead of at sampled (r, s)")
    p.add_argument("--r", type=_rational, metavar="RAT",
                   help="sampled value of r (default 2)")
    p.add_argument("--s", type=_rational, metavar="RAT",
                   help="sampled value of s (default 3)")
    p.add_argument("-o", metavar="PATH", default=None,
                   help="write JSON to a file instead of stdout")


def _rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"invalid rational {text!r}") from None


def _field(args):
    """The scalar field of the options.  Q(r, s), for --symbolic and for
    verify jimbo, has no sampled values, so it takes no --r or --s."""
    jimbo = args.command == "verify" and args.what == "jimbo"
    if not (jimbo or args.symbolic):
        return SampledField(2 if args.r is None else args.r,
                            3 if args.s is None else args.s)
    if args.r is not None or args.s is not None:
        who = "verify jimbo" if jimbo else "--symbolic"
        raise ValueError(f"{who} runs in Q(r, s); it takes no --r or --s")
    return SymbolicField()


def _emit(obj, path):
    text = json.dumps(obj, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(name, args, mode, report, rows=True, **extra):
    """Emit the verdict, with the rows if asked; return the exit code."""
    obj = {"check": name, "n": args.n, **extra, "mode": mode, "ok": report.ok}
    if rows:
        obj["checks"] = report.to_json()
    _emit(obj, args.o)
    return 0 if report.ok else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="rsqg",
        description="representations and R-matrices of the two-parameter "
                    "quantum group on sl_n, in exact arithmetic")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rep", help="construct or check representations")
    rsub = p.add_subparsers(dest="rep_command", required=True)
    pn = rsub.add_parser("natural", help="the natural representation")
    _add_common(pn)
    pt = rsub.add_parser("tensor", help="tensor power of the natural module")
    _add_common(pt, with_k=True, k_default=2)
    pc = rsub.add_parser("check", help="verify the defining relations")
    _add_common(pc, with_k=True, k_default=1)

    p = sub.add_parser("rmatrix", help="constant or spectral R-matrix")
    _add_common(p)
    p.add_argument("-z", type=_rational, metavar="RAT",
                   help="evaluate the spectral R(z) at this rational")
    p.add_argument("--spectral", action="store_true",
                   help="emit the pair (A, B) with R(z) = A + z B")

    p = sub.add_parser("verify", help="run one verification suite")
    p.add_argument("what", choices=_VERIFY)
    _add_common(p, with_k=True)  # only morphism takes -k; see _cmd_verify

    p = sub.add_parser("wedge", help="build or verify a wedge module")
    p.add_argument("action", nargs="?", choices=("verify",), default=None)
    _add_common(p, with_k=True, k_default=2)

    p = sub.add_parser("weights", help="weight space decomposition")
    _add_common(p, with_k=True, k_default=1)
    return ap


def _cmd_rep(args, field):
    if args.rep_command == "natural":
        _emit(natural_rep(args.n, field).to_json(), args.o)
        return 0
    if args.rep_command == "tensor":
        _emit(tensor_power_rep(args.n, args.k, field).to_json(), args.o)
        return 0
    report = check_defining_relations(tensor_power_rep(args.n, args.k, field))
    return _emit_report("relations", args, field.mode, report, k=args.k)


def _cmd_rmatrix(args, field):
    if args.spectral:
        _emit(build_r_z(args.n, field).to_json(), args.o)
    elif args.z is not None:
        z = field.from_fraction(args.z)
        _emit(build_r_z(args.n, field).at(z).to_json(), args.o)
    else:
        _emit(build_r(args.n, field).to_json(), args.o)
    return 0


# verify subcommand -> (its check of the object built from (args, field),
# whether to print rows).  The R-matrix checks print only the verdict:
# golden files and perfbench's check_verdict_json pin that object.
_VERIFY = {
    "ybe": (lambda a, f: check_ybe_spectral(build_r_z(a.n, f), f), False),
    "braid": (lambda a, f: check_braid_constant(build_r(a.n, f), f), False),
    "minpoly": (lambda a, f: check_min_poly(build_r(a.n, f), f), False),
    "morphism": (lambda a, f: check_module_morphism(
        build_r(a.n, f), tensor_power_rep(a.n, a.k, f)), False),
    "hopf": (lambda a, f: hopf_antipode_check(natural_rep(a.n, f)), True),
    "jimbo": (lambda a, f: jimbo_compare(build_r_z(a.n, f)), False),
    "prop41": (lambda a, f: spectral_projector_check(build_r_z(a.n, f), f),
               True),
}


def _cmd_verify(args, field):
    what = args.what
    if what != "morphism" and args.k is not None:
        raise ValueError(f"verify {what} takes no -k; only verify morphism "
                         "has a tensor power")
    if args.k is None:
        args.k = 2  # the morphism check's default tensor power
    if args.k < 2:
        # here, as tensor_power_rep would reject k = 0 with another message
        raise InvalidPower("module morphism check needs k >= 2")
    check, rows = _VERIFY[what]
    extra = {"k": args.k} if what == "morphism" else {}
    return _emit_report(what, args, field.mode, check(args, field),
                        rows=rows, **extra)


def _cmd_wedge(args, field):
    mod = build_wedge_module(args.n, args.k, field)
    if args.action == "verify":
        return _emit_report("fundamental", args, field.mode,
                            verify_fundamental(mod), k=args.k)
    _emit(mod.to_json(), args.o)
    return 0


def _cmd_weights(args, field):
    rep = tensor_power_rep(args.n, args.k, field)
    spaces = weight_spaces(rep)
    rows = [{"weight": list(w.coords), "dim": sp.dim}
            for w, sp in sorted(spaces.items(),
                                key=lambda kv: kv[0].coords, reverse=True)]
    _emit({"n": args.n, "k": args.k, "mode": field.mode, "dim": rep.dim,
           "weights": rows}, args.o)
    return 0


def _attach_negative_rationals(argv):
    """argparse takes a value such as -2/7 for an option string, so join
    it to its option: "--r -2/7" becomes "--r=-2/7"."""
    out = []
    for tok in argv:
        if (out and out[-1] in ("-z", "--r", "--s")
                and tok.startswith("-") and "/" in tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


_COMMANDS = {"rep": _cmd_rep, "rmatrix": _cmd_rmatrix, "verify": _cmd_verify,
             "wedge": _cmd_wedge, "weights": _cmd_weights}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_negative_rationals(argv))
    try:
        return _COMMANDS[args.command](args, _field(args))
    except (ValueError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    except (InternalMismatch, WellDefinednessFailure) as exc:
        print(exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
