"""Command-line front end.

JSON results go to stdout (or --out); diagnostics, including the fully
resolved configuration, go to stderr so outputs stay pipeline-composable.

Exit codes: 0 success, 1 validation error, 2 runtime failure,
3 acceptance-audit violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .bounds import full_report
from .experiment import (
    ExperimentConfig,
    capacity_csv,
    effective_jobs,
    histogram_csv,
    run_experiment,
    run_sweep,
    sweep_to_csv,
)
from .graph import (
    build_connectivity_graph,
    load_graph,
    min_cut,
    save_graph,
    write_json_atomic,
    write_text_atomic,
)
from .model import ConnectionModel, KERNEL_FIXED, KERNEL_LINEAR_DECAY
from .rlnc import verify_achievability
from .rng import RandomStream
from .svgplot import histogram_svg

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_AUDIT = 3

# Reference-figure presets; p and terminals are inferences, recorded in provenance.
PRESETS = {
    "fig3": {"n": 200, "r": 0.1, "r_prime": 0.2, "p": 0.5, "terminals": 1},
    "fig4": {"n": 200, "r": 0.13, "r_prime": 0.18, "p": 0.5, "terminals": 1},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _add_model_flags(p):
    p.add_argument("--r", type=float, help="inner radius (always connected)")
    p.add_argument("--r-prime", type=float, help="outer radius (never connected beyond)")
    p.add_argument("--kernel", choices=["fixed", "linear-decay"], default="fixed",
                   help="annulus kernel (default: fixed)")
    p.add_argument("--p", type=float, help="annulus probability for the fixed kernel")
    p.add_argument("--p-connection", type=float,
                   help="interference factor for the linear-decay kernel")


def _resolve_model(args) -> ConnectionModel:
    if args.r is None or args.r_prime is None:
        raise ValueError("--r and --r-prime are required")
    if args.kernel == "fixed":
        if args.p is None:
            raise ValueError("--p is required with the fixed kernel")
        kernel, prob = KERNEL_FIXED, args.p
    else:
        if args.p_connection is None:
            raise ValueError("--p-connection is required with --kernel linear-decay")
        kernel, prob = KERNEL_LINEAR_DECAY, args.p_connection
    return ConnectionModel(r=args.r, r_prime=args.r_prime, kernel=kernel, p=prob)


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("QRGG_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"QRGG_SEED is not an integer: {env!r}") from exc
    raise ValueError("--seed is required (or set QRGG_SEED)")


def _check_jobs(args):
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")


def _print_resolved(name: str, resolved: dict):
    print(f"[qrggsim] {name}: {json.dumps(resolved, sort_keys=True)}", file=sys.stderr)


def _emit(obj: dict, out: str | None):
    if out:
        write_json_atomic(out, obj)
    else:
        json.dump(obj, sys.stdout, indent=2)
        sys.stdout.write("\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="qrggsim", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="draw a connectivity graph and write its JSON")
    g.add_argument("--n", type=int, required=True, help="number of relay nodes")
    g.add_argument("--terminals", type=int, default=1, help="number of terminals (default: 1)")
    _add_model_flags(g)
    g.add_argument("--seed", type=int, help="master seed (QRGG_SEED fallback)")
    g.add_argument("--out", required=True, help="output graph JSON path")

    c = sub.add_parser("capacity", help="multicast capacity of a graph")
    c.add_argument("--graph", help="graph JSON file (alternative to generation flags)")
    c.add_argument("--n", type=int, help="number of relay nodes")
    c.add_argument("--terminals", type=int, default=1)
    _add_model_flags(c)
    c.add_argument("--seed", type=int, help="master seed (QRGG_SEED fallback)")
    c.add_argument("--out", help="write JSON here instead of stdout")

    b = sub.add_parser("bounds", help="closed-form bound report")
    b.add_argument("--n", type=int, required=True, help="number of relay nodes")
    b.add_argument("--terminals", type=int, default=1)
    b.add_argument("--k", type=int, default=0, help="cut size for the lower bound (default: 0)")
    _add_model_flags(b)
    b.add_argument("--out", help="write JSON here instead of stdout")

    e = sub.add_parser("experiment", help="Monte Carlo capacity experiment")
    e.add_argument("--preset", choices=sorted(PRESETS), help="reference figure parameter set")
    e.add_argument("--n", type=int, help="number of relay nodes")
    e.add_argument("--terminals", type=int, help="number of terminals (default: 1)")
    _add_model_flags(e)
    e.add_argument("--trials", type=int, required=True, help="number of graph draws")
    e.add_argument("--seed", type=int, help="master seed (QRGG_SEED fallback)")
    e.add_argument("--bins", type=int, help="histogram bin count (default: unit integer bins)")
    e.add_argument("--audit", help="comma-separated epsilons for the tail-bound audit")
    e.add_argument("--rlnc-check", action="store_true",
                   help="run the random-coding achievability check per trial")
    e.add_argument("--jobs", type=int, default=1, help="parallel workers (default: 1)")
    e.add_argument("--out", help="write result JSON here instead of stdout")
    e.add_argument("--csv", help="write per-trial capacities CSV here")
    e.add_argument("--hist-csv", help="write histogram CSV here")
    e.add_argument("--svg", help="write histogram SVG here")

    s = sub.add_parser("sweep", help="mean capacity over (n, r) with the decay kernel")
    s.add_argument("--n-list", required=True, help="comma-separated relay counts")
    s.add_argument("--r-list", required=True, help="comma-separated inner radii")
    s.add_argument("--r-prime-factor", type=float, default=1.8,
                   help="r' = factor * r, clamped to 1 (default: 1.8)")
    s.add_argument("--r-prime-list", help="explicit comma-separated r' values")
    s.add_argument("--p-connection", type=float, default=0.9,
                   help="interference factor (default: 0.9)")
    s.add_argument("--terminals", type=int, default=1)
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--seed", type=int, help="master seed (QRGG_SEED fallback)")
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--out", help="write CSV here instead of stdout")

    v = sub.add_parser("verify-rlnc", help="random linear coding achievability check")
    v.add_argument("--graph", required=True, help="graph JSON file")
    v.add_argument("--trials", type=int, required=True)
    v.add_argument("--seed", type=int, help="master seed (QRGG_SEED fallback)")
    v.add_argument("--out", help="write JSON here instead of stdout")

    x = sub.add_parser("export", help="re-emit a result JSON as CSV/SVG artifacts")
    x.add_argument("--result", required=True, help="experiment result JSON file")
    x.add_argument("--csv", help="write per-trial capacities CSV here")
    x.add_argument("--hist-csv", help="write histogram CSV here")
    x.add_argument("--svg", help="write histogram SVG here")

    return parser


def _parse_list(text: str, what: str, kind=float):
    try:
        values = [kind(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"bad {what} list: {text!r}") from exc
    if not values:
        raise ValueError(f"{what} list is empty")
    return values


def _generate_graph(args):
    """The graph that --n, --terminals, the model flags and the seed draw."""
    return build_connectivity_graph(args.n, args.terminals, _resolve_model(args),
                                    RandomStream.from_seed(_resolve_seed(args)))


def _cmd_generate(args) -> int:
    graph = _generate_graph(args)
    _print_resolved("generate", {
        "n": args.n, "terminals": args.terminals, "model": graph.model.to_json(),
        "seed": graph.seed, "out": args.out,
    })
    save_graph(graph, args.out)
    print(
        f"[qrggsim] wrote {graph.n_nodes} nodes, {len(graph.edges)} edges "
        f"to {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_capacity(args) -> int:
    if args.graph:
        graph = load_graph(args.graph)
    elif args.n is None:
        raise ValueError("provide --graph or generation flags (--n, --r, ...)")
    else:
        graph = _generate_graph(args)
    _print_resolved("capacity", {
        "graph": args.graph, "n_relays": graph.n_relays,
        "terminals": graph.terminal_ids,
    })
    cuts = {t: min_cut(graph, t).capacity for t in graph.terminal_ids}
    _emit({
        "multicast_capacity": min(cuts.values()),
        "per_terminal_min_cut": {str(t): c for t, c in cuts.items()},
    }, args.out)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    model = _resolve_model(args)
    _print_resolved("bounds", {
        "n": args.n, "terminals": args.terminals, "k": args.k,
        "model": model.to_json(),
    })
    report = full_report(args.n, args.terminals, model, k=args.k)
    _emit(report.to_json(), args.out)
    return EXIT_OK


def _experiment_config(args) -> ExperimentConfig:
    if args.preset:
        for key, value in PRESETS[args.preset].items():
            if getattr(args, key) is None:
                setattr(args, key, value)
    if args.n is None:
        raise ValueError("provide --preset or --n with model flags")
    model = _resolve_model(args)
    seed = _resolve_seed(args)
    epsilons = ()
    if args.audit:
        epsilons = tuple(_parse_list(args.audit, "audit epsilon"))
    return ExperimentConfig(
        n_relays=args.n,
        n_terminals=1 if args.terminals is None else args.terminals,
        model=model,
        trials=args.trials,
        master_seed=seed,
        histogram_bins=args.bins,
        audit_epsilons=epsilons,
        rlnc_check=args.rlnc_check,
    )


def _cmd_experiment(args) -> int:
    _check_jobs(args)
    config = _experiment_config(args)
    resolved = config.to_json()
    resolved["jobs"] = effective_jobs(args.jobs, config.trials)
    if args.preset:
        resolved["preset"] = args.preset
        resolved["inferred_parameters"] = "p and terminals are inferred, not part of the preset's reference source"
    _print_resolved("experiment", resolved)
    doc = run_experiment(config, jobs=args.jobs).to_json()
    _emit(doc, args.out)
    _write_artifacts(args, doc)
    if any(not row["ok"] for row in doc["audit_outcomes"]):
        print("[qrggsim] audit violation beyond sampling slack", file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


def _cmd_sweep(args) -> int:
    n_list = _parse_list(args.n_list, "n", int)
    r_list = _parse_list(args.r_list, "r")
    r_prime_list = _parse_list(args.r_prime_list, "r'") if args.r_prime_list else None
    seed = _resolve_seed(args)
    _check_jobs(args)
    _print_resolved("sweep", {
        "n_list": n_list, "r_list": r_list, "r_prime_factor": args.r_prime_factor,
        "r_prime_list": r_prime_list, "p_connection": args.p_connection,
        "terminals": args.terminals, "trials": args.trials, "seed": seed,
        "jobs": effective_jobs(args.jobs, args.trials),
    })
    rows = run_sweep(
        n_list, r_list, trials=args.trials, master_seed=seed,
        r_prime_factor=args.r_prime_factor, r_prime_list=r_prime_list,
        p_connection=args.p_connection, n_terminals=args.terminals,
        jobs=args.jobs,
    )
    csv = sweep_to_csv(rows)
    if args.out:
        write_text_atomic(args.out, csv)
    else:
        sys.stdout.write(csv)
    return EXIT_OK


def _cmd_verify_rlnc(args) -> int:
    graph = load_graph(args.graph)
    seed = _resolve_seed(args)
    _print_resolved("verify-rlnc", {
        "graph": args.graph, "trials": args.trials, "seed": seed,
    })
    report = verify_achievability(graph, args.trials, RandomStream.from_seed(seed))
    _emit(report.to_json(), args.out)
    return EXIT_OK


def _cmd_export(args) -> int:
    with open(args.result, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    _print_resolved("export", {"result": args.result})
    _check_result_shape(obj)
    _write_artifacts(args, obj)
    return EXIT_OK


def _check_result_shape(obj):
    """The fields _write_artifacts reads must be lists of finite numbers
    (math.isfinite overflows on an int beyond the float range), and the
    histogram must have at least one count and one more edge than counts."""
    try:
        fields = (obj["per_trial_capacity"], obj["histogram"]["bin_edges"],
                  obj["histogram"]["counts"])
        ok = all(isinstance(values, list) and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
            for x in values
        ) for values in fields) and len(fields[1]) == len(fields[2]) + 1 >= 2
    except (KeyError, TypeError, OverflowError):
        ok = False
    if not ok:
        raise ValueError("not an experiment result document: per_trial_capacity and "
                         "histogram.bin_edges/counts must be lists of finite numbers, "
                         "with len(bin_edges) == len(counts) + 1 >= 2")


def _write_artifacts(args, doc: dict):
    """The --csv, --hist-csv and --svg outputs shared by experiment and export.

    Both read the result document, so export reproduces experiment's bytes.
    """
    edges, counts = doc["histogram"]["bin_edges"], doc["histogram"]["counts"]
    if args.csv:
        write_text_atomic(args.csv, capacity_csv(doc["per_trial_capacity"]))
    if args.hist_csv:
        write_text_atomic(args.hist_csv, histogram_csv(edges, counts))
    if args.svg:
        write_text_atomic(args.svg, histogram_svg(edges, counts))


_COMMANDS = {
    "generate": _cmd_generate,
    "capacity": _cmd_capacity,
    "bounds": _cmd_bounds,
    "experiment": _cmd_experiment,
    "sweep": _cmd_sweep,
    "verify-rlnc": _cmd_verify_rlnc,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit:  # error() raises ValueError, so only --help and --version exit
        return EXIT_OK
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        # Both decode errors subclass ValueError; match them before the
        # validation branch so bad input files report as runtime failures.
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
