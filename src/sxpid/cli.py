"""Command-line interface.

Subcommands: compute, example, lattice, gradient, optimize, bench.
Exit codes: 0 success, 2 validation error, 3 assertion failure in
example mode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import grad, measures, report
from .builtins import builtin_distribution, builtin_names
from .dist import (DistributionError, JointDistribution, Realization,
                   load_distribution)
from .lattice import (BoundaryError, LatticeError, enumerate_lattice,
                      parse_node_name)

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_VALIDATION = 2
EXIT_ASSERTION = 3

#: The significant decimal digits of a float64; more would only pad.
MAX_PRECISION = 17


def _load_input(spec: str, input_format: str | None,
                tolerance: float) -> JointDistribution:
    try:
        return builtin_distribution(spec)
    except KeyError as exc:
        lookup_error = exc.args[0]
    path = Path(spec)
    if not path.exists():
        raise FileNotFoundError(f"no such file {spec!r}, and {lookup_error}")
    fmt = input_format or ("json" if path.suffix.lower() == ".json" else "csv")
    with open(path, "rb") as fh:
        return load_distribution(fh, fmt, normalization_tolerance=tolerance)


def _filter_nodes(doc: dict, keep: set[str]) -> dict:
    """A copy of the report ``doc`` restricted to the nodes in ``keep``;
    ``doc`` itself is left as it was."""
    def kept(nodes: dict) -> dict:
        return {k: v for k, v in nodes.items() if k in keep}
    doc = dict(doc, nodes=[x for x in doc["nodes"] if x in keep],
               averages=kept(doc["averages"]))
    if "pointwise" in doc:
        doc["pointwise"] = [dict(r, nodes=kept(r["nodes"])) for r in doc["pointwise"]]
    return doc


def cmd_compute(args) -> int:
    d = _load_input(args.input, args.input_format, args.tolerance)
    keep = None
    if args.nodes:
        lat = enumerate_lattice(d.n_sources)
        keep = {lat.node_by_name(x).name for x in args.nodes}
    decs = measures.decompose_support(d)
    avg = measures.average_decomposition(d, decompositions=decs)
    if args.format == "json":
        doc = report.decomposition_report(d, avg, decs if args.pointwise else None)
        print(report.render_json(doc if keep is None else _filter_nodes(doc, keep)))
    else:
        if args.pointwise:
            print(report.render_pointwise_tables(d, decs, args.precision, keep))
            print()
        print(report.render_average_table(avg, args.precision, keep))
    return EXIT_OK


# ---------------------------------------------------------------------------
# example: builtin runs plus their frozen expectations.
# ---------------------------------------------------------------------------

_L2 = math.log2


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _xor_checks(d, decs, avg) -> list[tuple[str, bool, str]]:
    dec = measures.pointwise_decomposition(d, Realization(t=0, s=(1, 1)))
    lat = dec.lattice
    exact = {"{1}{2}": _L2(2 / 3), "{1}": _L2(3 / 2),
             "{2}": _L2(3 / 2), "{1,2}": _L2(4 / 3)}
    printed = {"{1}{2}": -0.585, "{1}": 0.585, "{2}": 0.585, "{1,2}": 0.415}
    out = []
    i_bot = dec.i[lat.index(lat.bottom)]
    out.append(("i(t=0 : {1};{2}) = log2(2/3)",
                _close(i_bot, _L2(2 / 3), 1e-9), f"{i_bot:.6f}"))
    for name, want in exact.items():
        got = dec.pi_by_name(name)
        out.append((f"pi({name}) exact", _close(got, want, 1e-9), f"{got:.6f}"))
        out.append((f"pi({name}) printed", _close(got, printed[name], 1e-3),
                    f"{got:.4f} vs {printed[name]}"))
    same = all(_close(avg.Pi[j], dec.pi[j], 1e-12) for j in range(len(lat.nodes)))
    out.append(("averages equal pointwise values (symmetry)", same, ""))
    return out


def _pwunq_checks(d, decs, avg) -> list[tuple[str, bool, str]]:
    want = {"{1}{2}": 0.0, "{1}": 0.5, "{2}": 0.5, "{1,2}": 0.0}
    out = [(f"Pi({name})", _close(avg.pi_by_name(name), v, 1e-9),
            f"{avg.pi_by_name(name):.6f}") for name, v in want.items()]
    ok = True
    for dec in decs:
        informative = 1 if dec.realization.s[0] == 0 else 0  # which source fixes t
        want_plus = {"{1}{2}": 1.0, "{1}": 1.0 - informative,
                     "{2}": float(informative), "{1,2}": 0.0}
        want_minus = {"{1}{2}": 1.0, "{1}": 0.0, "{2}": 0.0, "{1,2}": 0.0}
        for name in want_plus:
            j = dec.lattice.index(dec.lattice.node_by_name(name))
            ok &= _close(dec.pi_plus[j], want_plus[name], 1e-9)
            ok &= _close(dec.pi_minus[j], want_minus[name], 1e-9)
    out.append(("pointwise atoms are the 0/1 pattern", ok, ""))
    return out


def _rnd_checks(d, decs, avg) -> list[tuple[str, bool, str]]:
    want = {"{1}{2}": 1.0, "{1}": 0.0, "{2}": 0.0, "{1,2}": 0.0}
    return [(f"Pi({name})", _close(avg.pi_by_name(name), v, 1e-9),
             f"{avg.pi_by_name(name):.6f}") for name, v in want.items()]


def _rnderr_checks(d, decs, avg) -> list[tuple[str, bool, str]]:
    want = {
        "{1}{2}": 0.75 * _L2(8 / 5) + 0.25 * _L2(8 / 7),
        "{1}": 0.75 * _L2(5 / 4) + 0.25 * _L2(7 / 4),
        "{2}": 0.75 * _L2(5 / 4) + 0.25 * _L2(7 / 4)
               - (0.75 * _L2(4 / 3) + 0.5),
        "{1,2}": 0.75 * _L2(16 / 15) + 0.25 * _L2(16 / 7),
    }
    return [(f"Pi({name})", _close(avg.pi_by_name(name), v, 1e-9),
             f"{avg.pi_by_name(name):.6f} vs {v:.6f}") for name, v in want.items()]


XORDUP_EXPECTED_PI = {
    "{1}{3}": 0.5849, "{2}": 0.5849, "{1,2}{2,3}": 0.415,
    "{1}{2}": 0.0, "{2}{3}": 0.0, "{2}{1,3}": 0.0, "{1}{2}{3}": -0.5849,
}


def _xorduplicate_checks(d, decs, avg) -> list[tuple[str, bool, str]]:
    rep = measures.duplicate_invariance_check(d, pair=(1, 3),
                                              expected_pi=XORDUP_EXPECTED_PI,
                                              tol=1e-3)
    detail = "; ".join(v.detail for v in rep.violations[:3])
    return [("duplicated source leaves every atom in place", rep.passed, detail)]


PARITY3_EXPECTED = {
    # node -> (Pi_plus, Pi_minus), exact logs; Pi is the difference
    "{1}{2}{3}": (_L2(8 / 7), 0.0),
    "{1}{2}": (_L2(7 / 6), _L2(4 / 3)),
    "{1}{3}": (_L2(7 / 6), _L2(4 / 3)),
    "{2}{3}": (_L2(7 / 6), _L2(4 / 3)),
    "{1}{2,3}": (_L2(36 / 35), _L2(9 / 8)),
    "{2}{1,3}": (_L2(36 / 35), _L2(9 / 8)),
    "{3}{1,2}": (_L2(36 / 35), _L2(9 / 8)),
    "{1}": (_L2(5 / 4), 0.0),
    "{2}": (_L2(5 / 4), 0.0),
    "{3}": (_L2(5 / 4), 0.0),
    "{1,2}{1,3}{2,3}": (_L2(875 / 864), _L2(32 / 27)),
    "{1,2}": (_L2(9 / 8), 0.0),
    "{1,3}": (_L2(9 / 8), 0.0),
    "{2,3}": (_L2(9 / 8), 0.0),
    "{1,2}{1,3}": (_L2(16 / 15), 0.0),
    "{1,2}{2,3}": (_L2(16 / 15), 0.0),
    "{1,3}{2,3}": (_L2(16 / 15), 0.0),
    "{1,2,3}": (_L2(32 / 27), 0.0),
}


def _parity3_checks(d, decs, avg) -> list[tuple[str, bool, str]]:
    lat = avg.lattice
    out = []
    for name, (wp, wm) in PARITY3_EXPECTED.items():
        j = lat.index(lat.node_by_name(name))
        ok = (_close(avg.Pi_plus[j], wp, 1e-9) and _close(avg.Pi_minus[j], wm, 1e-9)
              and _close(avg.Pi[j], wp - wm, 1e-9))
        out.append((f"atoms at {name}", ok,
                    f"({avg.Pi_plus[j]:.4f}, {avg.Pi_minus[j]:.4f}, {avg.Pi[j]:.4f})"))
    return out


def _parity4_checks(d, decs, avg) -> list[tuple[str, bool, str]]:
    r = Realization(t=1, s=(0, 0, 1, 0))
    lat = enumerate_lattice(4)
    alpha = lat.node_by_name("{1,2}{3,4}")
    i_val = measures.i_sx(d, r, alpha)
    dec = measures.pointwise_decomposition(d, r, lat)
    pi_val = dec.pi[lat.index(alpha)]
    return [
        ("i(t=1 : {1,2};{3,4}) = log2(6/7)",
         _close(i_val, _L2(6 / 7), 1e-9), f"{i_val:.6f}"),
        ("pi({1,2}{3,4}) = -0.0145", _close(pi_val, -0.0145, 5e-4),
         f"{pi_val:.6f}"),
    ]


def _parity_generic_checks(d, decs, avg) -> list[tuple[str, bool, str]]:
    lat, dec = avg.lattice, decs[0]
    total = math.fsum(dec.pi)
    mi = measures.local_mi(d, d.support[0], range(1, d.n_sources + 1))
    return [(f"{len(lat)} atoms sum to the full local mutual information",
             _close(total, mi, 1e-9), f"{total:.6f} vs {mi:.6f}")]


def _vchannel_checks() -> list[tuple[str, bool, str]]:
    rep = measures.v_channel_xor()
    wrong_rows = [row for row in rep.rows if not row.correct]
    return [
        ("exactly 4 incorrect and 8 correct predictions",
         rep.n_incorrect == 4 and rep.n_correct == 8,
         f"{rep.n_incorrect} / {rep.n_correct}"),
        ("every incorrect prediction is a shared-information row",
         all(row.carries_shared for row in wrong_rows), ""),
        ("whole channel informative on average", rep.avg_info_all > 0,
         f"{rep.avg_info_all:.4f}"),
        ("shared-information rows misinformative on average",
         rep.avg_info_shared < 0, f"{rep.avg_info_shared:.4f}"),
    ]


def cmd_example(args) -> int:
    name = args.name.strip().lower()
    if name == "vchannel":
        checks = _vchannel_checks()
        rep = measures.v_channel_xor()
        for row in rep.rows:
            mark = "x" if not row.correct else "ok"
            shared = " (shared)" if row.carries_shared else ""
            print(f"s={row.realization.s} t={row.realization.t} "
                  f"statement S1={row.statement[0]} or S2={row.statement[1]}"
                  f"{shared}: predict {row.predicted_t} [{mark}] "
                  f"{row.info_bits:+.4f} bits")
        print(f"I(channel) = {rep.avg_info_all:+.4f} bits; "
              f"I(shared rows) = {rep.avg_info_shared:+.4f} bits")
    else:
        d = builtin_distribution(name)
        decs = measures.decompose_support(d)
        avg = measures.average_decomposition(d, decompositions=decs)
        print(report.render_average_table(avg, args.precision))
        if args.atom:
            lat = avg.lattice
            alpha = lat.node_by_name(args.atom)
            print(f"\npi({alpha.name}) at "
                  f"{report.realization_label(d, d.support[0])}: "
                  f"{decs[0].pi[lat.index(alpha)]:.6f} bits "
                  f"(average {avg.Pi[lat.index(alpha)]:.6f})")
        registry = {
            "xor": _xor_checks, "pwunq": _pwunq_checks, "rnd": _rnd_checks,
            "rnderr": _rnderr_checks, "xorduplicate": _xorduplicate_checks,
            "parity:3": _parity3_checks, "parity:4": _parity4_checks,
        }
        fn = registry.get(name, _parity_generic_checks)
        checks = fn(d, decs, avg)
    print()
    failed = 0
    for desc, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        suffix = f"  [{detail}]" if detail and not ok else ""
        print(f"{status}  {desc}{suffix}")
        failed += not ok
    return EXIT_ASSERTION if failed else EXIT_OK


def cmd_lattice(args) -> int:
    lat = enumerate_lattice(args.n)
    names = lat.names
    doc = {
        "n": args.n,
        "node_count": len(lat),
        "nodes": list(names),
        "bottom": lat.bottom.name,
        "top": lat.top.name,
        "cover_edges": [[names[c], names[p]] for c, p in lat.cover_edges()],
        "children": {a.name: [b.name for b in lat.children(a)]
                     for a in lat.nodes},
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _check_interior_options(args) -> None:
    if not (math.isfinite(args.epsilon) and args.epsilon > 0):
        raise ValueError(f"--epsilon must be finite and > 0, got {args.epsilon!r}")
    if not 0 <= args.mix < 1:  # also rejects NaN
        raise ValueError(f"--mix must be in [0, 1), got {args.mix!r}")


def _start_point(d: JointDistribution, args) -> grad.SimplexPoint:
    """The input on its full grid, mixed with the uniform grid pmf by --mix."""
    try:
        return grad.interior_mix(d, args.mix, args.epsilon)
    except BoundaryError as exc:
        raise BoundaryError(f"{exc}; --mix LAMBDA (0 < LAMBDA < 1) mixes in the "
                            "uniform grid distribution to move off the boundary"
                            ) from None


def cmd_gradient(args) -> int:
    _check_interior_options(args)
    d = _load_input(args.input, args.input_format, args.tolerance)
    point = _start_point(d, args)
    lat = enumerate_lattice(d.n_sources)
    alpha = lat.node_by_name(args.atom)
    if args.realization:
        labels = [x.strip() for x in args.realization.split(",")]
        if len(labels) != d.n_sources + 1:
            raise DistributionError("realization needs t plus one symbol per source")
        r = Realization(
            t=d.target_alphabet.index(labels[0]),
            s=tuple(a.index(x) for a, x in zip(d.source_alphabets, labels[1:])))
        rec = grad.grad_atom(point, r, alpha, args.which)
        value = grad.pointwise_value(point.p, point.shape, r, alpha, "pi",
                                     args.which)
        fd_target = lambda p: grad.pointwise_value(p, point.shape, r, alpha,
                                                   "pi", args.which)
    else:
        rec = grad.grad_average(point, alpha, args.which)
        value = grad.average_atom_value(point.p, point.shape, alpha, args.which)
        fd_target = lambda p: grad.average_atom_value(p, point.shape, alpha,
                                                      args.which)
    doc = {
        "quantity": rec.quantity,
        "node": alpha.name,
        "value": float(value),
        "partials": {"|".join(map(str, cell)): v
                     for cell, v in rec.by_cell().items()},
    }
    if args.check_fd:
        fd = grad.central_difference(fd_target, point.p)
        doc["fd_max_mismatch"] = float(grad.fd_mismatch(rec.partials, fd))
        doc["fd_ok"] = bool(doc["fd_max_mismatch"] <= 1.0)
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_optimize(args) -> int:
    _check_interior_options(args)
    if not math.isfinite(args.lr):
        raise ValueError(f"--lr must be finite, got {args.lr!r}")
    if args.mechanism_fixed and args.mix:
        raise ValueError("--mix cannot be combined with --mechanism-fixed, "
                         "which keeps the input's p(t|s)")
    d = _load_input(args.input, args.input_format, args.tolerance)
    lat = enumerate_lattice(d.n_sources)
    alpha = lat.node_by_name(args.atom)
    if args.mechanism_fixed:
        mech, q = grad.mechanism_from_distribution(d)
        traj = grad.optimize_atom_mechanism_fixed(
            mech, q, grad.grid_shape(d), alpha, which=args.which,
            maximize=not args.minimize, steps=args.steps,
            learning_rate=args.lr, epsilon=args.epsilon)
    else:
        point = _start_point(d, args)
        traj = grad.optimize_atom(point, alpha, which=args.which,
                                  maximize=not args.minimize, steps=args.steps,
                                  learning_rate=args.lr)
    for step in traj:
        print(json.dumps({"step": step.step, "objective": step.objective,
                          "grad_norm": step.grad_norm}))
    return EXIT_OK


def _bench_distribution(n: int, rng: np.random.Generator) -> JointDistribution:
    from .dist import Alphabet

    shape = (2,) + (2,) * n
    raw = rng.uniform(0.2, 1.0, size=int(np.prod(shape)))
    raw /= raw.sum()
    bits = lambda name: Alphabet(name, ("0", "1"))
    points = []
    for k, idx in enumerate(np.ndindex(*shape)):
        points.append((Realization(t=idx[0], s=tuple(idx[1:])), float(raw[k])))
    return JointDistribution.from_points(
        bits("t"), [bits(f"s{i+1}") for i in range(n)], points,
        normalization_tolerance=1e-6)


def cmd_bench(args) -> int:
    t0 = time.perf_counter()
    lat = enumerate_lattice(args.n)
    lat.moebius_passes  # the inversion every decomposition runs
    build_s = time.perf_counter() - t0

    rng = np.random.default_rng(args.seed)
    dists = [_bench_distribution(args.n, rng) for _ in range(args.trials)]
    digests = []
    times, average_times, report_times = [], [], []
    for d in dists:
        t0 = time.perf_counter()
        decs = measures.decompose_support(d, lat)
        t1 = time.perf_counter()
        avg = measures.average_decomposition(d, lat, decompositions=decs)
        t2 = time.perf_counter()
        report.render_json(report.decomposition_report(d, avg))
        t3 = time.perf_counter()
        times.append(t1 - t0)
        average_times.append(t2 - t1)
        report_times.append(t3 - t2)
        payload = ";".join(f"{v:.12f}" for dec in decs for v in dec.pi)
        digests.append(hashlib.sha256(payload.encode()).hexdigest()[:16])

    results = {"n": args.n, "atoms": len(lat), "trials": args.trials,
               "seed": args.seed, "digests": digests}
    timing = {"lattice_build_s": round(build_s, 6),
              "per_trial_s": [round(t, 6) for t in times],
              "average_s": [round(t, 6) for t in average_times],
              "report_s": [round(t, 6) for t in report_times]}
    print(json.dumps({"results": results, "timing": timing}, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sxpid",
        description="Shared-exclusion pointwise partial information decomposition")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("input", help="builtin name or path "
                       f"(builtins: {', '.join(builtin_names())})")
        p.add_argument("--input-format", choices=["csv", "json"])
        p.add_argument("--tolerance", type=float, default=1e-9,
                       help="normalization tolerance for file input")

    p = sub.add_parser("compute", help="decompose a distribution")
    add_io(p)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.add_argument("--pointwise", action="store_true")
    p.add_argument("--nodes", action="append",
                   help="restrict output to these nodes (repeatable)")
    p.add_argument("--precision", type=int, default=4)
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("example", help="run a builtin with its checks")
    p.add_argument("name", help="builtin name, parity:k, or vchannel")
    p.add_argument("--atom", help="print one atom, e.g. {1,2}{3,4}")
    p.add_argument("--precision", type=int, default=4)
    p.set_defaults(fn=cmd_example)

    p = sub.add_parser("lattice", help="emit the antichain lattice as JSON")
    p.add_argument("n", type=int)
    p.set_defaults(fn=cmd_lattice)

    mix_help = ("start from (1 - LAMBDA) p + LAMBDA uniform over the grid, "
                "0 <= LAMBDA < 1 (default 0)")
    p = sub.add_parser("gradient", help="analytic gradient of an atom")
    add_io(p)
    p.add_argument("--atom", required=True)
    p.add_argument("--which", choices=["plus", "minus", "net"], default="net")
    p.add_argument("--realization",
                   help="comma-separated symbols t,s1,...,sn (default: averaged)")
    p.add_argument("--check-fd", action="store_true")
    p.add_argument("--epsilon", type=float, default=grad.DEFAULT_INTERIOR_MARGIN)
    p.add_argument("--mix", type=float, default=0.0, metavar="LAMBDA",
                   help=mix_help)
    p.set_defaults(fn=cmd_gradient)

    p = sub.add_parser("optimize", help="projected gradient on the simplex")
    add_io(p)
    p.add_argument("--atom", required=True)
    p.add_argument("--which", choices=["plus", "minus", "net"], default="net")
    p.add_argument("--minimize", action="store_true")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--lr", type=float, default=grad.DEFAULT_LEARNING_RATE)
    p.add_argument("--mechanism-fixed", action="store_true",
                   help="hold p(t|s) fixed, optimize the source pmf")
    p.add_argument("--epsilon", type=float, default=grad.DEFAULT_INTERIOR_MARGIN)
    p.add_argument("--mix", type=float, default=0.0, metavar="LAMBDA",
                   help=mix_help)
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("bench", help="lattice size and decomposition timing")
    p.add_argument("n", type=int)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for option, low, high in (("precision", 0, MAX_PRECISION),
                                  ("steps", 0, math.inf), ("trials", 1, math.inf)):
            value = getattr(args, option, low)
            if not low <= value <= high:
                bound = f">= {low}" if value < low else f"<= {high}"
                raise ValueError(f"--{option} must be {bound}, got {value}")
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away (`| head`); as in the Python docs' SIGPIPE
        # recipe, stdout goes to devnull so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (DistributionError, LatticeError, BoundaryError, KeyError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
