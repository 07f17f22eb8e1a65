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
import json
import os
import sys

from . import analytics, mgf, montecarlo, scaling
from .core import ModelParams, SwitchingProb, validate_params
from .errors import TelegraphBoxError
from .montecarlo import _sig


def _threads_default() -> int:
    env = os.environ.get("TELEGRAPH_BOX_THREADS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


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
    sp.add_argument("--threads", type=int, default=_threads_default(),
                    help="worker threads; results do not depend on this "
                         "(default: TELEGRAPH_BOX_THREADS or 1)")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="telegraph-box",
        description="Closed forms and exact Monte Carlo for a telegraph "
                    "process confined to [0, H] with partially absorbing "
                    "boundaries.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analytics", help="print every closed form")
    _add_model_flags(sp)
    _add_output_flags(sp)

    sp = sub.add_parser("mgf", help="evaluate the restricted transforms")
    _add_model_flags(sp, with_alpha=False)
    sp.add_argument("--omega", type=float, required=True,
                    help="transform argument")
    sp.add_argument("--d", type=float, default=None,
                    help="first descent duration for the level-start pair")
    _add_output_flags(sp)

    sp = sub.add_parser("simulate", help="run the estimation layer")
    _add_model_flags(sp)
    _add_mc_flags(sp)
    _add_output_flags(sp)

    sp = sub.add_parser("validate",
                        help="compare estimates against closed forms; "
                             "exit 1 if any |z| exceeds the gate")
    _add_model_flags(sp)
    _add_mc_flags(sp)
    sp.add_argument("--zmax", type=float, default=4.0,
                    help="largest acceptable |z| (default 4)")
    _add_output_flags(sp)

    sp = sub.add_parser("scaling", help="diffusive-limit sweep")
    sp.add_argument("--sigma", type=float, default=1.0,
                    help="infinitesimal standard deviation (default 1)")
    sp.add_argument("--drift-a", type=float, default=0.5,
                    help="upward drift coefficient (default 0.5)")
    sp.add_argument("--drift-b", type=float, default=1.0,
                    help="downward drift coefficient (default 1)")
    sp.add_argument("--c-values", default="1,2,4,8,16,32,64,128,256",
                    help="comma-separated increasing velocities")
    sp.add_argument("--h", type=float, required=True, help="upper boundary level")
    sp.add_argument("--alpha", type=float, required=True,
                    help="absorption probability per boundary contact")
    _add_output_flags(sp)
    return ap


def _flat(obj: dict, prefix: str = "") -> list[tuple[str, float]]:
    pairs = []
    for k, v in obj.items():
        if isinstance(v, dict):
            pairs.extend(_flat(v, f"{prefix}{k}."))
        else:
            pairs.append((f"{prefix}{k}", v))
    return pairs


def _emit_mapping(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    pairs = _flat(doc)
    if fmt == "csv":
        lines = ["name,value"]
        lines += [f"{k},{v:.12g}" if isinstance(v, float) else f"{k},{v}"
                  for k, v in pairs]
        return "\n".join(lines) + "\n"
    width = max(len(k) for k, _ in pairs)
    lines = [f"{k:<{width}}  {v:.12g}" if isinstance(v, float) else
             f"{k:<{width}}  {v}" for k, v in pairs]
    return "\n".join(lines) + "\n"


def _cmd_analytics(ns: argparse.Namespace) -> tuple[str, int]:
    p = validate_params(ModelParams(ns.lam, ns.mu, ns.h, ns.velocity))
    s = SwitchingProb(ns.alpha)
    pm = analytics.phase_probabilities(p)
    tm = analytics.expected_truncated_times(p)
    cm = analytics.expected_cycles(p)
    rep = analytics.expected_absorption_time(p, s)
    doc = {
        "phase_probabilities": {
            "p00": _sig(pm.p00), "p0h": _sig(pm.p0h),
            "ph0": _sig(pm.ph0), "phh": _sig(pm.phh)},
        "truncated_time_means": {
            "t00": _sig(tm.t00), "t0h": _sig(tm.t0h),
            "thh": _sig(tm.thh), "th0": _sig(tm.th0)},
        "cycle_means": {
            "m00": _sig(cm.m00), "m0h": _sig(cm.m0h),
            "mh0": _sig(cm.mh0), "mhh": _sig(cm.mhh),
            "kappa00": _sig(cm.kappa00), "kappa0h": _sig(cm.kappa0h),
            "kappah0": _sig(cm.kappah0), "kappahh": _sig(cm.kappahh)},
        "absorption": {
            "l1": _sig(rep.l1), "l1_star": _sig(rep.l1_star),
            "theta_spectral": _sig(rep.theta_spectral),
            "expected_absorption_time": _sig(rep.expected_absorption_time)},
    }
    return _emit_mapping(doc, ns.fmt), 0


def _cmd_mgf(ns: argparse.Namespace) -> tuple[str, int]:
    p = validate_params(ModelParams(ns.lam, ns.mu, ns.h, ns.velocity))
    rp = mgf.theta_roots(ns.omega, p)
    f00, f0h = mgf.transform_from_origin(ns.omega, p)
    doc = {
        "omega": _sig(ns.omega),
        "theta1": _sig(rp.theta1),
        "theta2": _sig(rp.theta2),
        "f00": _sig(f00),
        "f0h": _sig(f0h),
    }
    if ns.d is not None:
        fhh, fh0 = mgf.transform_from_H(ns.omega, ns.d, p)
        doc["d"] = _sig(ns.d)
        doc["fhh"] = _sig(fhh)
        doc["fh0"] = _sig(fh0)
    return _emit_mapping(doc, ns.fmt), 0


def _cmd_simulate(ns: argparse.Namespace) -> tuple[str, int]:
    p = validate_params(ModelParams(ns.lam, ns.mu, ns.h, ns.velocity))
    s = SwitchingProb(ns.alpha)
    summ = montecarlo.estimate(p, s, ns.paths, ns.seed, threads=ns.threads)
    names = ("p00", "p0h", "ph0", "phh")
    cyc = ("m00", "m0h", "mh0", "mhh")
    doc = {
        "n_paths": summ.n_paths,
        "phase_freqs": {k: _sig(v) for k, v in zip(names, summ.phase_freqs)},
        "cycle_means": {k: _sig(v) for k, v in zip(cyc, summ.cycle_means)},
        "mean_m": _sig(summ.mean_m),
        "mean_absorption_time": _sig(summ.mean_absorption_time),
        "se": {
            **{f"{k}": _sig(v) for k, v in zip(names, summ.se_phase_freqs)},
            **{f"{k}": _sig(v) for k, v in zip(cyc, summ.se_cycle_means)},
            "mean_m": _sig(summ.se_mean_m),
            "mean_absorption_time": _sig(summ.se_mean_absorption_time)},
    }
    return _emit_mapping(doc, ns.fmt), 0


def _cmd_validate(ns: argparse.Namespace) -> tuple[str, int]:
    p = validate_params(ModelParams(ns.lam, ns.mu, ns.h, ns.velocity))
    s = SwitchingProb(ns.alpha)
    rep = montecarlo.validate(p, s, ns.paths, ns.seed, z_max=ns.zmax,
                              threads=ns.threads)
    if ns.fmt == "json":
        text = montecarlo.validation_report_json(rep) + "\n"
    elif ns.fmt == "csv":
        lines = ["name,analytic,estimate,standard_error,z_score"]
        for r in rep.records:
            lines.append(f"{r.name},{r.analytic:.12g},{r.estimate:.12g},"
                         f"{r.standard_error:.12g},{r.z_score:.12g}")
        text = "\n".join(lines) + "\n"
    else:
        text = montecarlo.validation_report_table(rep) + "\n"
    return text, 0 if rep.overall_pass else 1


def _cmd_scaling(ns: argparse.Namespace) -> tuple[str, int]:
    cvals = tuple(float(tok) for tok in ns.c_values.split(",") if tok.strip())
    spec = scaling.ScalingSpec(ns.sigma, ns.drift_a, ns.drift_b, cvals)
    rows = scaling.scaling_sweep(spec, ns.h, SwitchingProb(ns.alpha))
    if ns.fmt == "json":
        doc = [{"c": _sig(r.c), "lambda": _sig(r.lam), "mu": _sig(r.mu),
                "EC00": _sig(r.ec00), "EC0H": _sig(r.ec0h),
                "Etau": _sig(r.etau), "ETA": _sig(r.eta)} for r in rows]
        return json.dumps(doc, indent=2) + "\n", 0
    if ns.fmt == "csv":
        return scaling.sweep_csv(rows), 0
    head = (f"{'c':>10}{'lambda':>16}{'mu':>16}{'EC00':>14}{'EC0H':>14}"
            f"{'Etau':>14}{'ETA':>14}")
    lines = [head]
    for r in rows:
        lines.append(f"{r.c:>10.6g}{r.lam:>16.10g}{r.mu:>16.10g}"
                     f"{r.ec00:>14.6g}{r.ec0h:>14.6g}{r.etau:>14.6g}"
                     f"{r.eta:>14.6g}")
    return "\n".join(lines) + "\n", 0


_COMMANDS = {
    "analytics": _cmd_analytics,
    "mgf": _cmd_mgf,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
    "scaling": _cmd_scaling,
}


def run(argv: list[str] | None = None) -> int:
    """Parse argv and execute; returns the process exit code.

    0 on success (validate: all gates passed), 1 when validation fails,
    2 on usage or parameter errors.
    """
    ap = _build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
    try:
        text, code = _COMMANDS[ns.command](ns)
    except TelegraphBoxError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    out_path = getattr(ns, "output", None)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
