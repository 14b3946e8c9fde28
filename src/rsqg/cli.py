"""Command line interface: construct objects, run checks, emit JSON.

Every verify subcommand is a thin wrapper over one library check; output
is deterministic JSON (entries pre-sorted, fixed key order).  Exit codes:
0 all requested checks pass, 1 a verification failed (the report is still
emitted), 2 invalid configuration or an unwritable -o path, 3 internal
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
from .uqrs import (check_defining_relations, hopf_antipode_check, natural_rep,
                   tensor_power_rep, weight_spaces)
from .wedge import (WellDefinednessFailure, build_wedge_module,
                    spectral_projector_check, verify_fundamental)


def _add_common(p, with_k=False, k_default=None):
    p.add_argument("-n", type=int, required=True, help="rank parameter n")
    if with_k:
        p.add_argument("-k", type=int, default=k_default,
                       help="tensor power / wedge degree")
    p.add_argument("--mode", choices=("sampled", "symbolic"), default=None,
                   help="scalar field (default sampled)")
    p.add_argument("--symbolic", action="store_true",
                   help="shorthand for --mode symbolic")
    p.add_argument("--r", default="2", metavar="RAT",
                   help="sampled value of r (default 2)")
    p.add_argument("--s", default="3", metavar="RAT",
                   help="sampled value of s (default 3)")
    p.add_argument("-o", metavar="PATH", default=None,
                   help="write JSON to a file instead of stdout")


def _field(args):
    if args.symbolic or args.mode == "symbolic":
        return SymbolicField()
    return SampledField(Fraction(args.r), Fraction(args.s))


def _emit(obj, path):
    text = json.dumps(obj, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_json(name, args, mode, field, report, **extra):
    obj = {"check": name, "n": args.n, **extra, "mode": mode,
           "ok": report.ok, "checks": report.to_json(field)}
    return obj


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
    p.add_argument("-z", default=None, metavar="RAT",
                   help="evaluate the spectral R(z) at this rational")
    p.add_argument("--spectral", action="store_true",
                   help="emit the pair (A, B) with R(z) = A + z B")

    p = sub.add_parser("verify", help="run one verification suite")
    p.add_argument("what", choices=("ybe", "braid", "minpoly", "morphism",
                                    "hopf", "jimbo", "prop41"))
    _add_common(p, with_k=True)  # only morphism takes -k; see _cmd_verify

    p = sub.add_parser("wedge", help="build or verify a wedge module")
    p.add_argument("action", nargs="?", choices=("verify",), default=None)
    _add_common(p, with_k=True, k_default=2)

    p = sub.add_parser("weights", help="weight space decomposition")
    _add_common(p, with_k=True, k_default=1)
    return ap


def _cmd_rep(args, field, mode):
    if args.rep_command == "natural":
        _emit(natural_rep(args.n, field).to_json(), args.o)
        return 0
    if args.rep_command == "tensor":
        _emit(tensor_power_rep(args.n, args.k, field).to_json(), args.o)
        return 0
    rep = tensor_power_rep(args.n, args.k, field)
    report = check_defining_relations(rep)
    _emit(_report_json("relations", args, mode, field, report, k=args.k),
          args.o)
    return 0 if report.ok else 1


def _cmd_rmatrix(args, field, mode):
    if args.spectral:
        _emit(build_r_z(args.n, field).to_json(field), args.o)
    elif args.z is not None:
        z = field.from_fraction(Fraction(args.z))
        _emit(build_r_z(args.n, field).at(z).to_json(field), args.o)
    else:
        _emit(build_r(args.n, field).to_json(field), args.o)
    return 0


def _cmd_verify(args, field, mode):
    what = args.what
    if what != "morphism" and args.k is not None:
        raise ValueError(f"verify {what} takes no -k; only verify morphism "
                         "has a tensor power")
    if args.k is None:
        args.k = 2  # the morphism check's default tensor power
    if what == "hopf":
        report = hopf_antipode_check(natural_rep(args.n, field))
        _emit(_report_json("hopf", args, mode, field, report), args.o)
        return 0 if report.ok else 1
    if what == "prop41":
        report = spectral_projector_check(args.n, field)
        _emit(_report_json("prop41", args, mode, field, report), args.o)
        return 0 if report.ok else 1
    if what == "ybe":
        ok = check_ybe_spectral(args.n, field)
    elif what == "braid":
        ok = check_braid_constant(args.n, field)
    elif what == "minpoly":
        ok = check_min_poly(args.n, field)
    elif what == "morphism":
        ok = check_module_morphism(args.n, args.k, field)
    else:
        ok = jimbo_compare(args.n)
        mode = "symbolic"
    obj = {"check": what, "n": args.n, "mode": mode, "ok": ok}
    if what == "morphism":
        obj = {"check": what, "n": args.n, "k": args.k, "mode": mode, "ok": ok}
    _emit(obj, args.o)
    return 0 if ok else 1


def _cmd_wedge(args, field, mode):
    mod = build_wedge_module(args.n, args.k, field)
    if args.action == "verify":
        report = verify_fundamental(args.n, args.k, field, module=mod)
        _emit(_report_json("fundamental", args, mode, field, report,
                           k=args.k), args.o)
        return 0 if report.ok else 1
    _emit(mod.to_json(), args.o)
    return 0


def _cmd_weights(args, field, mode):
    rep = tensor_power_rep(args.n, args.k, field)
    spaces = weight_spaces(rep)
    rows = [{"weight": list(w.coords), "dim": sp.dim}
            for w, sp in sorted(spaces.items(),
                                key=lambda kv: kv[0].coords, reverse=True)]
    _emit({"n": args.n, "k": args.k, "mode": mode, "dim": rep.dim,
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


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_negative_rationals(argv))
    try:
        field = _field(args)
        mode = field.mode
        if args.command == "rep":
            return _cmd_rep(args, field, mode)
        if args.command == "rmatrix":
            return _cmd_rmatrix(args, field, mode)
        if args.command == "verify":
            return _cmd_verify(args, field, mode)
        if args.command == "wedge":
            return _cmd_wedge(args, field, mode)
        return _cmd_weights(args, field, mode)
    except (ValueError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    except (InternalMismatch, WellDefinednessFailure) as exc:
        print(exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
