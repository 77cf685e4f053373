"""Command-line pipeline: geometry, simulate, train, reconstruct, evaluate.

One flat config file drives every command; seeds can be overridden with
--seed. All outputs are written atomically and are bit-reproducible for
fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .config import (load_config, parallel_map, recon_config, system_config,
                     train_config)
from .designs import (DesignMatrix, heuristic_design, load_design, save_design,
                      single_led_design)
from .errors import ConfigError, FpmError
from .formats import read_stack, to_gray, write_csv, write_pgm, write_stack
from .geometry import build_led_geometry
from .metrics import context_quantity, hf_psnr, lf_psnr
from .optics import MeasurementStack, add_shot_noise, make_pupil, simulate_stack
from .phantoms import generate_phantom, make_dataset
from .recon import reconstruct
from .training import train


def _load_common(args):
    values = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        values["seed"] = args.seed
    cfg = system_config(values)
    geometry = build_led_geometry(cfg)
    pupil = make_pupil(cfg)
    return values, cfg, geometry, pupil


def _geometry_image(geometry) -> np.ndarray:
    reach = int(np.abs(geometry.grid).max())
    side = 2 * reach + 1
    img = np.zeros((side, side), dtype=np.uint8)
    for (m, n), bright in zip(geometry.grid, geometry.is_bright):
        img[reach - n, m + reach] = 255 if bright else 128
    return np.kron(img, np.ones((16, 16), dtype=np.uint8))


def _design_image(design: DesignMatrix, geometry) -> np.ndarray:
    """One LED-grid panel per measurement, tiled horizontally."""
    reach = int(np.abs(geometry.grid).max())
    side = 2 * reach + 1
    top = max(design.weights.max(), 1e-300)
    panels = []
    for row in design.weights:
        panel = np.zeros((side, side))
        for (m, n), w in zip(geometry.grid, row):
            panel[reach - n, m + reach] = w / top
        panels.append(panel)
        panels.append(np.full((side, 1), 0.25))
    tiled = np.hstack(panels[:-1])
    gray = np.clip(np.rint(tiled * 255.0), 0, 255).astype(np.uint8)
    return np.kron(gray, np.ones((8, 8), dtype=np.uint8))


def cmd_geometry(args) -> int:
    _, cfg, geometry, _ = _load_common(args)
    from .formats import atomic_write_text
    atomic_write_text(args.out, geometry.dump_text())
    write_pgm(args.out + ".pgm", _geometry_image(geometry))
    print(f"wrote {geometry.L} LEDs ({geometry.bright_count} bright, "
          f"{geometry.dark_count} dark) to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    values, cfg, geometry, pupil = _load_common(args)
    design = load_design(args.design, geometry)
    context = values.get("context", "amplitude")
    phantom = generate_phantom(cfg, context, args.phantom_seed)
    stack = simulate_stack(phantom.field, design.weights, geometry, pupil, cfg,
                           design_id=os.path.basename(args.design))
    if args.noise == "on":
        stack = add_shot_noise(stack, geometry, int(values.get("seed", 0)),
                               mean_rate=float(values.get("noise_rate", 10000.0)))
    write_stack(args.out, stack.images)
    print(f"wrote {stack.K} x {cfg.patch_px} x {cfg.patch_px} stack to {args.out}")
    return 0


def _parse_context(raw: str):
    if raw.startswith("mixed:"):
        return "mixed", float(raw.split(":", 1)[1])
    if raw == "mixed":
        raise FpmError("mixed context must specify gamma as mixed:<gamma>")
    return raw, None


def cmd_train(args) -> int:
    values, cfg, geometry, pupil = _load_common(args)
    context, gamma = _parse_context(args.context)
    configured = values.get("context")
    if configured is not None and configured.split(":", 1)[0] != context:
        raise ConfigError(f"config context {configured!r} contradicts "
                          f"--context {args.context!r}")
    tcfg = train_config(values)
    phantom_context = "phase" if context == "phase" else "amplitude"
    n = int(values.get("n_phantoms", 20))
    dataset = make_dataset(cfg, phantom_context, n, tcfg.seed)
    result = train(dataset, geometry, pupil, cfg, args.K, context, tcfg, gamma=gamma)
    save_design(result.design, args.out, geometry)
    write_csv(args.out + ".log.csv", ["epoch", "train_loss", "test_loss"],
              [[e, f"{tr:.17g}", f"{te:.17g}"] for e, tr, te in result.log])
    write_pgm(args.out + ".pgm", _design_image(result.design, geometry))
    print(f"trained K={args.K} {args.context} design -> {args.out} "
          f"(best epoch {result.best_epoch})")
    return 0


def cmd_reconstruct(args) -> int:
    values, cfg, geometry, pupil = _load_common(args)
    design = load_design(args.design, geometry)
    images = read_stack(args.stack)
    if np.iscomplexobj(images):
        raise FpmError(f"{args.stack} holds complex data, expected intensities")
    if len(images) != design.K:
        raise FpmError(f"stack has K = {len(images)} measurements but design has "
                       f"K = {design.K}")
    bright = (design.weights[:, geometry.is_bright] > 0).any(axis=1)
    stack = MeasurementStack(images, bright)
    rcfg = recon_config(values)
    trace = reconstruct(stack, design.weights, geometry, pupil, cfg, rcfg)
    write_stack(args.out, trace.x_star[None])
    write_pgm(args.out + ".amp.pgm", to_gray(np.abs(trace.x_star)))
    write_pgm(args.out + ".phase.pgm", to_gray(np.angle(trace.x_star)))
    print(f"reconstructed {cfg.hires_px} x {cfg.hires_px} field -> {args.out} "
          f"(final cost {trace.cost_history[-1]:.3e})")
    return 0


def cmd_evaluate(args) -> int:
    values, cfg, geometry, pupil = _load_common(args)
    if not args.designs:
        raise FpmError("evaluate needs at least one design")
    context = values.get("context", "amplitude")
    seed = int(values.get("seed", 0))
    rate = float(values.get("noise_rate", 10000.0))
    n = int(values.get("n_phantoms", 20))
    rcfg = recon_config(values)
    dataset = make_dataset(cfg, context, n, seed)
    test_phantoms = dataset.test_phantoms()

    designs = []
    for path in args.designs:
        designs.append((os.path.basename(path), load_design(path, geometry)))

    jobs = [(d_idx, p_idx) for d_idx in range(len(designs))
            for p_idx in range(len(test_phantoms))]

    def run(job):
        d_idx, p_idx = job
        name, design = designs[d_idx]
        phantom = test_phantoms[p_idx]
        stack = simulate_stack(phantom.field, design.weights, geometry, pupil, cfg)
        if args.noise == "on":
            stack = add_shot_noise(stack, geometry, (seed, d_idx, p_idx), mean_rate=rate)
        trace = reconstruct(stack, design.weights, geometry, pupil, cfg, rcfg)
        rec_q, tru_q = context_quantity(trace.x_star, phantom.field, context)
        return lf_psnr(rec_q, tru_q, cfg), hf_psnr(rec_q, tru_q, cfg)

    scores = parallel_map(run, jobs)

    rows = []
    per_design = {}
    for (d_idx, p_idx), (lf, hf) in zip(jobs, scores):
        name, design = designs[d_idx]
        rows.append([name, design.K, context, f"{lf:.6f}", f"{hf:.6f}"])
        per_design.setdefault(name, []).append((lf, hf))
    for name, design in designs:
        vals = np.array(per_design[name])
        rows.append([f"{name}:mean", design.K, context,
                     f"{vals[:, 0].mean():.6f}", f"{vals[:, 1].mean():.6f}"])
    write_csv(args.out, ["design", "K", "context", "lf_psnr", "hf_psnr"], rows)
    print(f"wrote {len(rows)} evaluation rows to {args.out}")
    return 0


def cmd_baseline(args) -> int:
    """Generate a baseline design file (single-LED identity or heuristic)."""
    _, cfg, geometry, _ = _load_common(args)
    if args.kind == "single":
        design = single_led_design(geometry)
    else:
        design = heuristic_design(geometry, args.K, args.seed or 0)
    save_design(design, args.out, geometry)
    print(f"wrote {args.kind} design (K={design.K}) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpm",
        description="Fourier ptychography simulation, reconstruction, and "
                    "learned illumination design",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="flat key = value file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", required=True)

    p = sub.add_parser("geometry", help="dump LED geometry and a preview image")
    common(p)
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("simulate", help="simulate a measurement stack")
    common(p)
    p.add_argument("--design", required=True)
    p.add_argument("--phantom-seed", type=int, required=True)
    p.add_argument("--noise", choices=("on", "off"), default="off")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="learn a multiplexed design")
    common(p)
    p.add_argument("--context", required=True,
                   help="amplitude | phase | mixed:<gamma>")
    p.add_argument("--K", type=int, required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("reconstruct", help="run the unrolled solver on a stack")
    common(p)
    p.add_argument("--stack", required=True)
    p.add_argument("--design", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("evaluate", help="score designs on noisy test phantoms")
    common(p)
    p.add_argument("--designs", nargs="+", required=True)
    p.add_argument("--noise", choices=("on", "off"), default="on")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("baseline", help="write a single-LED or heuristic design")
    common(p)
    p.add_argument("--kind", choices=("single", "heuristic"), required=True)
    p.add_argument("--K", type=int, default=15)
    p.set_defaults(func=cmd_baseline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FpmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
