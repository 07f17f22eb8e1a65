"""Command-line front end.

Five subcommands: `analytics` prints every closed form at one parameter
point, `mgf` evaluates the restricted transforms, `simulate` runs the
estimation layer, `validate` compares estimates against closed forms
(exit 1 on failure), and `scaling` tabulates the diffusive-limit sweep.
All numbers are printed with 12 significant digits and runs with equal
flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from . import analytics, mgf, montecarlo, scaling
from ._report import render
from .core import ModelParams, SwitchingProb
from .errors import TelegraphBoxError


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _add_model_flags(sp: argparse.ArgumentParser, with_alpha: bool = True) -> None:
    sp.add_argument("--lambda", dest="lam", type=float, required=True,
                    help="rate of upward sojourns")
    sp.add_argument("--mu", type=float, required=True,
                    help="rate of downward sojourns")
    sp.add_argument("--h", type=float, required=True, help="upper boundary level")
    sp.add_argument("--velocity", type=float, default=1.0,
                    help="constant speed (default 1)")
    if with_alpha:
        sp.add_argument("--alpha", type=float, required=True,
                        help="absorption probability per boundary contact, in (0, 1]")


def _add_output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", dest="fmt", choices=("json", "csv", "table"),
                    default="table", help="output format (default table)")
    sp.add_argument("--output", default=None,
                    help="write to this file instead of standard output")


def _add_mc_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--paths", type=int, default=100000,
                    help="number of simulated paths/phases (default 100000)")
    sp.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    sp.add_argument("--threads", type=int,
                    help="accepted and ignored: a large call splits its work "
                         "with one forked process where that is predicted to "
                         "pay, within the CPU affinity mask (taskset)")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="telegraph-box",
        description="Closed forms and exact Monte Carlo for a telegraph "
                    "process confined to [0, H] with partially absorbing "
                    "boundaries.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analytics", help="print every closed form")
    sp.set_defaults(cmd=_cmd_analytics)
    _add_model_flags(sp)
    _add_output_flags(sp)

    sp = sub.add_parser("mgf", help="evaluate the restricted transforms")
    sp.set_defaults(cmd=_cmd_mgf)
    _add_model_flags(sp, with_alpha=False)
    sp.add_argument("--omega", type=float, required=True,
                    help="transform argument (a negative in exponent form: --omega=-1e-3)")
    sp.add_argument("--d", type=float, default=None,
                    help="first descent duration for the level-start pair")
    _add_output_flags(sp)

    sp = sub.add_parser("simulate", help="run the estimation layer")
    sp.set_defaults(cmd=_cmd_simulate)
    _add_model_flags(sp)
    _add_mc_flags(sp)
    _add_output_flags(sp)

    sp = sub.add_parser("validate",
                        help="compare estimates against closed forms; "
                             "exit 1 if any |z| exceeds the gate")
    sp.set_defaults(cmd=_cmd_validate)
    _add_model_flags(sp)
    _add_mc_flags(sp)
    sp.add_argument("--zmax", type=float, default=4.0,
                    help="largest acceptable |z| (default 4)")
    _add_output_flags(sp)

    sp = sub.add_parser("scaling", help="diffusive-limit sweep")
    sp.set_defaults(cmd=_cmd_scaling)
    sp.add_argument("--sigma", type=float, default=1.0,
                    help="infinitesimal standard deviation (default 1)")
    sp.add_argument("--drift-a", type=float, default=0.5,
                    help="upward drift coefficient (default 0.5)")
    sp.add_argument("--drift-b", type=float, default=1.0,
                    help="downward drift coefficient (default 1)")
    sp.add_argument("--c-values", type=_float_list,
                    default="1,2,4,8,16,32,64,128,256",
                    help="comma-separated increasing velocities")
    sp.add_argument("--h", type=float, required=True, help="upper boundary level")
    sp.add_argument("--alpha", type=float, required=True,
                    help="absorption probability per boundary contact")
    _add_output_flags(sp)
    return ap


def _cmd_analytics(ns: argparse.Namespace) -> tuple[str, int]:
    p = ModelParams(ns.lam, ns.mu, ns.h, ns.velocity)
    s = SwitchingProb(ns.alpha)
    doc = {
        "phase_probabilities": asdict(analytics.phase_probabilities(p)),
        "truncated_time_means": asdict(analytics.expected_truncated_times(p)),
        "cycle_means": asdict(analytics.expected_cycles(p)),
        "absorption": asdict(analytics.expected_absorption_time(p, s)),
    }
    return render(doc, ns.fmt), 0


def _cmd_mgf(ns: argparse.Namespace) -> tuple[str, int]:
    p = ModelParams(ns.lam, ns.mu, ns.h, ns.velocity)
    rp = mgf.theta_roots(ns.omega, p)
    doc = {"omega": rp.omega, "theta1": rp.theta1, "theta2": rp.theta2}
    doc["f00"], doc["f0h"] = mgf.transform_from_origin(ns.omega, p)
    if ns.d is not None:
        doc["d"] = ns.d
        doc["fhh"], doc["fh0"] = mgf.transform_from_H(ns.omega, ns.d, p)
    return render(doc, ns.fmt), 0


def _cmd_simulate(ns: argparse.Namespace) -> tuple[str, int]:
    p = ModelParams(ns.lam, ns.mu, ns.h, ns.velocity)
    s = SwitchingProb(ns.alpha)
    summ = montecarlo.estimate(p, s, ns.paths, ns.seed)
    names, cyc = montecarlo._QUANTITIES[:4], montecarlo._QUANTITIES[4:8]
    doc = {
        "n_paths": summ.n_paths,
        "phase_freqs": dict(zip(names, summ.phase_freqs)),
        "cycle_means": dict(zip(cyc, summ.cycle_means)),
        "mean_m": summ.mean_m,
        "mean_absorption_time": summ.mean_absorption_time,
        "se": {
            **dict(zip(names + cyc, summ.se_phase_freqs + summ.se_cycle_means)),
            "mean_m": summ.se_mean_m,
            "mean_absorption_time": summ.se_mean_absorption_time},
    }
    return render(doc, ns.fmt), 0


def _cmd_validate(ns: argparse.Namespace) -> tuple[str, int]:
    p = ModelParams(ns.lam, ns.mu, ns.h, ns.velocity)
    s = SwitchingProb(ns.alpha)
    rep = montecarlo.validate(p, s, ns.paths, ns.seed, z_max=ns.zmax)
    if ns.fmt == "table":
        text = montecarlo.validation_report_table(rep) + "\n"
    else:
        text = render(montecarlo._report_doc(rep), ns.fmt)
    return text, 0 if rep.overall_pass else 1


def _cmd_scaling(ns: argparse.Namespace) -> tuple[str, int]:
    spec = scaling.ScalingSpec(ns.sigma, ns.drift_a, ns.drift_b, ns.c_values)
    rows = scaling.scaling_sweep(spec, ns.h, SwitchingProb(ns.alpha))
    return render(scaling._sweep_doc(rows), ns.fmt), 0


def run(argv: list[str] | None = None) -> int:
    """Parse argv and execute; returns the process exit code.

    0 on success (validate: all gates passed), 1 when validation fails,
    2 on usage or parameter errors and when --output cannot be written.
    """
    ap = _build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
    try:
        text, code = ns.cmd(ns)
    except TelegraphBoxError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    out_path = getattr(ns, "output", None)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as err:
            print(f"error: cannot write --output: {err}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
