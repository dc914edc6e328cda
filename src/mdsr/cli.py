"""Command-line surface: synth, fit, pump-design, validate."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import RunConfig, load_config
from .fitting import FitProblem, fit_populations
from .io import format_float, read_spectrum, write_spectrum, write_text
from .levels import build_level_scheme
from .pumping import design_pump
from .spectrum import PopulationDistribution, add_noise, synth_spectrum
from .validate import run_checks

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_MET = 2  # result written, but the fit did not converge or the target is out of reach
PUMP_TARGET_TOLERANCE = 0.02  # per-sublevel bound, as criterion 3's 2 pp fit bound


def _parse_triple(raw: str, what: str) -> np.ndarray:
    try:
        parts = [float(x) for x in raw.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse {what} {raw!r}") from None
    # a sum that overflows to inf would normalize to all zeros
    if (len(parts) != 3 or not np.isfinite(parts).all() or min(parts) < 0
            or not 0 < sum(parts) < np.inf):
        raise ValueError(f"{what} must be three non-negative numbers with a finite, positive sum")
    arr = np.array(parts)
    return arr / arr.sum()


def _load_config(args) -> RunConfig:
    return load_config(args.config) if args.config else RunConfig()


def cmd_synth(args) -> int:
    if not (np.isfinite(args.noise) and args.noise >= 0):
        raise ValueError(f"--noise must be finite and >= 0, got {args.noise!r}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    cfg = _load_config(args)
    model = cfg.experiment_model()
    pops_arr = _parse_triple(args.pops, "--pops") if args.pops else np.full(3, 1 / 3)
    pops = PopulationDistribution(*pops_arr)
    spectrum = synth_spectrum(model, pops, cfg.scan_grid())
    out = args.out or "spectrum.csv"
    write_spectrum(spectrum, out)
    print(f"wrote {len(spectrum)} points to {out}")
    if args.noise > 0:
        noisy = add_noise(spectrum, args.noise, args.seed)
        noisy_path = os.path.splitext(out)[0] + "_noisy.csv"
        write_spectrum(noisy, noisy_path)
        print(f"wrote noisy copy (sigma={args.noise:g}, seed={args.seed}) to {noisy_path}")
    return EXIT_OK


def cmd_fit(args) -> int:
    cfg = _load_config(args)
    model = cfg.experiment_model()
    problem = FitProblem(
        observed=read_spectrum(args.spectrum),
        model_template=model,
        fit_density=cfg.fit_density,
    )
    result = fit_populations(problem)
    p = result.pops.as_array()
    if args.out:  # written before the summary, so a path that fails leaves stdout empty
        lines = [
            f"p_minus_pct = {format_float(round(100 * p[0], 1))}",
            f"p_zero_pct = {format_float(round(100 * p[1], 1))}",
            f"p_plus_pct = {format_float(round(100 * p[2], 1))}",
            f"p_minus = {format_float(p[0])}",
            f"p_zero = {format_float(p[1])}",
            f"p_plus = {format_float(p[2])}",
            f"n_f1_cm3 = {format_float(result.n_f1)}",
            f"residual_rms = {format_float(result.residual_rms)}",
            f"iterations = {result.iterations}",
            f"converged = {str(result.converged).lower()}",
            f"jacobian_condition = {format_float(result.jacobian_condition)}",
        ]
        write_text(args.out, "\n".join(lines) + "\n")
    print("fitted ground-state populations (F=1):")
    print(f"  P(a_-1) = {100 * p[0]:6.1f} %")
    print(f"  P(a_0)  = {100 * p[1]:6.1f} %")
    print(f"  P(a_+1) = {100 * p[2]:6.1f} %")
    print(f"  N_F1        = {result.n_f1:.4e} cm^-3")
    print(f"  residual rms = {result.residual_rms:.3e}")
    print(f"  iterations   = {result.iterations}, converged = {result.converged}")
    print(f"  stop reason  = {result.stop_reason}")
    if args.out:
        print(f"wrote result to {args.out}")
    return EXIT_OK if result.converged else EXIT_NOT_MET


def cmd_pump_design(args) -> int:
    cfg = _load_config(args)
    target = _parse_triple(args.target, "--target")
    scheme = build_level_scheme(cfg.b_field, include_e1=True)
    plan = design_pump(
        target, scheme, cfg.coupling_field(),
        duration_ms=cfg.pump_duration,
        beam_diameter_mm=cfg.pump_beam_diameter,
    )
    pred = plan.predicted
    if args.out:  # written before the summary, so a path that fails leaves stdout empty
        lines = [
            f"polarization = {plan.polarization}",
            f"power_mw = {format_float(plan.power_mw)}",
            f"duration_ms = {format_float(cfg.pump_duration)}",
            f"predicted_p_minus = {format_float(pred[0])}",
            f"predicted_p_zero = {format_float(pred[1])}",
            f"predicted_p_plus = {format_float(pred[2])}",
            f"target_distance = {format_float(plan.target_distance)}",
        ]
        write_text(args.out, "\n".join(lines) + "\n")
    pol_name = {-1: "sigma-", 0: "pi", 1: "sigma+"}[plan.polarization]
    print("pump design:")
    print(f"  target       = {target[0]:.4f}, {target[1]:.4f}, {target[2]:.4f}")
    print(f"  polarization = {pol_name} (q={plan.polarization:+d})")
    print(f"  power        = {plan.power_mw:.4f} mW")
    print(f"  duration     = {cfg.pump_duration:g} ms")
    print(f"  predicted    = {pred[0]:.4f}, {pred[1]:.4f}, {pred[2]:.4f}")
    print(f"  L1 distance  = {plan.target_distance:.4f}")
    if args.out:
        print(f"wrote plan to {args.out}")
    miss = float(np.abs(pred - target).max())
    if miss > PUMP_TARGET_TOLERANCE:
        print(f"warning: target not reachable at duration {cfg.pump_duration:g} ms: "
              f"max |predicted - target| = {miss:.4f} > {PUMP_TARGET_TOLERANCE}",
              file=sys.stderr)
        return EXIT_NOT_MET
    return EXIT_OK


def cmd_validate(args) -> int:
    results = run_checks()
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name}: {r.detail}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdsr",
        description="Multi-dark-state resonance spectra of Rb-87 D1: "
                    "synthesize, fit populations, design optical pumping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize a transmission spectrum CSV")
    p_synth.add_argument("--config", help="config file path")
    p_synth.add_argument("--out", help="output CSV path")
    p_synth.add_argument("--pops", help="P-,P0,P+ populations (any positive weights)")
    p_synth.add_argument("--noise", type=float, default=0.0, help="also write a noisy copy")
    p_synth.add_argument("--seed", type=int, default=0, help="noise seed")
    p_synth.set_defaults(func=cmd_synth)

    p_fit = sub.add_parser("fit", help="fit populations/density to a spectrum CSV")
    p_fit.add_argument("spectrum", help="observed spectrum CSV")
    p_fit.add_argument("--config", help="config file path")
    p_fit.add_argument("--out", help="machine-readable result path")
    p_fit.set_defaults(func=cmd_fit)

    p_pump = sub.add_parser("pump-design", help="choose pump polarization and power")
    p_pump.add_argument("--target", required=True, help="target P-,P0,P+ distribution")
    p_pump.add_argument("--config", help="config file path")
    p_pump.add_argument("--out", help="machine-readable plan path")
    p_pump.set_defaults(func=cmd_pump_design)

    p_val = sub.add_parser("validate", help="run the physical invariant suite")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    """Run one command; a bad input or an unusable path is one `error:` line and exit 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        message = f"path not found: {exc.filename}"
    except (OSError, ValueError) as exc:   # ValueError covers ConfigError and SpectrumFormatError
        message = str(exc)
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
