"""Command-line interface.

Subcommands cover the pipeline stages individually (widgetize, compile,
verify) and end to end (estimate, sweep), plus the scaling-law fitter and a
QFT circuit generator for quick experiments.

Exit codes: 0 success, 2 invalid input or configuration, 3 estimation
infeasible under the given constraints, 4 file I/O failure, 141 standard
output closed by its reader (the code of a filter killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from functools import partial
from pathlib import Path

from . import __version__
from .architecture import EstimationError
from .circuit import emit_qasm, generate_qft, transpile
from .config import load_config, read_field, scaling_preset
from .pipeline import (
    compile_circuit,
    load_circuit,
    render_sweep_csv,
    run_decoder_sweep,
    run_estimate,
    run_pipe_sweep,
    verify_circuit,
)
from .report import render_console, render_csv

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4
EXIT_PIPE = 141

VERIFY_TOLERANCE = 1e-9


def _cmd_estimate(args: argparse.Namespace) -> int:
    result = run_estimate(args.circuit, args.config, args.cache_dir)
    text = render_csv(result.report)
    if args.out_dir is not None:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.csv").write_text(text)
    if args.csv:
        Path(args.csv).write_text(text)
    print(render_console(result.report))
    return EXIT_OK


def _cmd_widgetize(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    plan = load_circuit(args.circuit, config).plan
    print(f"n_input: {plan.n_input}")
    print(f"widgets: {plan.n_widgets} ({plan.n_distinct_widgets} distinct)")
    for wid in plan.widgets:
        print(f"  {wid}: x{plan.multiplicity[wid]}, "
              f"{len(plan.widgets[wid])} gates")
    print(f"stitches: {sum(plan.stitches.values())}")
    for (a, b), count in sorted(plan.stitches.items()):
        print(f"  {a} -> {b}: x{count}")
    return EXIT_OK


def _cmd_compile(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    algo, _ = compile_circuit(args.circuit, config, args.cache_dir)
    for wid in algo.plan.ids:
        record = algo.compiled[wid]
        print(f"{wid}: {record.n_nodes} nodes, {record.n_edges} edges, "
              f"{record.n_T} T, {record.n_Rz} Rz, "
              f"{record.n_consump_steps} consumption steps, "
              f"{record.n_sub_steps} preparation sub-steps")
    est = algo.est
    print(f"sequence: {est.n_widgets} widgets, {est.n_nodes_total} nodes, "
          f"max {est.n_logical_max} logical, "
          f"{est.n_clifford_init} Clifford gates")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    config = load_config(args.config)
    loaded = load_circuit(args.circuit, config)
    worst = min(verify_circuit(loaded, seed=args.seed + i)
                for i in range(args.trials))
    print(f"fidelity: {worst!r} over {args.trials} trial(s)")
    if worst < 1.0 - VERIFY_TOLERANCE:
        print("verification FAILED", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


def _cmd_fit_scaling(args: argparse.Namespace) -> int:
    # The fitter and its csv reader load only for this command.
    from .scalefit import fit_scaling_law, read_samples_csv

    fit = fit_scaling_law(read_samples_csv(args.samples))
    print(f"kappa: {fit.kappa!r}")
    print(f"p_thresh: {fit.p_thresh!r}")
    print(f"residual: {fit.residual!r}")
    return EXIT_OK


def _preset_name(name: str) -> str:
    """``name``, once ``scaling_preset`` has accepted it: a decoder sweep
    labels each row by its preset's name."""
    scaling_preset(name)
    return name


# sweep kind -> its sweep, the reader of one value, the CSV's label column
# and the default values
_SWEEPS = {
    "pipes": (run_pipe_sweep, partial(read_field, "n_inter_pipes"),
              "n_inter_pipes", "1,2,4,8,16,32"),
    "decoder": (run_decoder_sweep, _preset_name, "preset",
                "mwpm-circuit,astra-gnn"),
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    sweep, read, label, default = _SWEEPS[args.kind]
    # Every token is read before the compile, so a bad one costs none.
    values = [read(token) for token in
              (default if args.values is None else args.values).split(",")]
    config = load_config(args.config)
    algo, _ = compile_circuit(args.circuit, config, args.cache_dir)
    text = render_sweep_csv(sweep(algo, config, values), label)
    if args.csv:
        Path(args.csv).write_text(text)
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_gen_qft(args: argparse.Namespace) -> int:
    text = emit_qasm(generate_qft(args.n), args.n)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_transpile(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    plan = load_circuit(args.circuit, config).plan
    for wid, gates in plan.widgets.items():
        tw = transpile(gates)
        print(f"{wid}: {tw.n_T_init} T, {tw.n_Rz_init} Rz, "
              f"{tw.n_Clifford_init} Clifford")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qre",
        description="Resource estimator for modular surface-code machines.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("estimate", _cmd_estimate,
            "full resource estimate for a circuit")
    p.add_argument("circuit", help="circuit file (.qasm or .json)")
    p.add_argument("--config", help="YAML configuration file")
    p.add_argument("--out-dir", help="directory for report.csv")
    p.add_argument("--csv", help="also write the report CSV to this path")
    p.add_argument("--cache-dir", help="compiled-widget cache directory")

    p = add("widgetize", _cmd_widgetize,
            "show the widget decomposition of a circuit")
    p.add_argument("circuit")
    p.add_argument("--config")

    p = add("compile", _cmd_compile,
            "compile each distinct widget to a graph state")
    p.add_argument("circuit")
    p.add_argument("--config")
    p.add_argument("--cache-dir")

    p = add("verify", _cmd_verify,
            "check compiled widgets against the circuit by simulation")
    p.add_argument("circuit")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1)

    p = add("transpile", _cmd_transpile,
            "show per-widget transpiled gate counts")
    p.add_argument("circuit")
    p.add_argument("--config")

    p = add("fit-scaling", _cmd_fit_scaling,
            "fit the logical-error scaling law to sampled rates")
    p.add_argument("samples", help="CSV of p,d,ler[,weight] rows")

    p = add("sweep", _cmd_sweep, "sweep interconnect pipes or decoder preset")
    p.add_argument("kind", choices=["pipes", "decoder"])
    p.add_argument("circuit")
    p.add_argument("--config")
    p.add_argument("--cache-dir")
    p.add_argument("--values", help=(
        "comma-separated pipe counts or scaling presets, each read as in a "
        "config file; default " + "; ".join(
            f"{kind} {values}" for kind, (*_, values) in _SWEEPS.items())))
    p.add_argument("--csv", help="write the sweep table to this path")

    p = add("gen-qft", _cmd_gen_qft,
            "generate a quantum Fourier transform circuit")
    p.add_argument("n", type=int, help="number of qubits")
    p.add_argument("--out", help="output path (default: stdout)")

    return parser


def _show_warning(message, category, filename, lineno, file=None,
                  line=None) -> None:
    """Print a warning as one ``warning: <message>`` line on stderr, without
    the source location and line that Python's default format adds."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        return _run(args)


def _run(args: argparse.Namespace) -> int:
    """Run the parsed command; map its failures to exit codes."""
    try:
        status = args.func(args)
        sys.stdout.flush()  # so a closed pipe fails here, not at exit
        return status
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:  # each input and config error class is one
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BrokenPipeError:
        # A reader such as `head` closed standard output: stop quietly, and
        # point stdout at the null device so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
