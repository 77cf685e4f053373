"""The benchmark's workloads: inputs made from a seed, the commands of one
pass (`fpm` commands, or a library call where a command would fail), and the
checks run on every command's outputs.

Each workload writes its config, design and stack files in set-up. A pass is
a fixed list of commands; the runner repeats passes, and a command run again
on identical inputs must repeat its outputs byte for byte. Quality figures
come from the first pass only, so they depend on the seed and nothing else.

Quality is scored on the amplitude |x| against the seeded truth:
  - band PSNR (low band DC..0.4 NA, high band 0.4..0.62 NA), which must
    exceed the PSNR of an all-zero field (the floor);
  - the amplitude loss (`fpmdesign.training.loss`, gamma = 1) as a multiple
    of the loss of the truth low-passed to the low band. The raw loss follows
    each phantom's high-band energy and spreads about 17% across seeds; the
    ratio spreads about 4%, so it can carry a regression bound.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from fpmdesign import (DesignMatrix, FpmError, LossSpec, MeasurementStack, ReconConfig,
                       TrainConfig, training,
                       add_shot_noise, build_led_geometry, context_mask,
                       generate_phantom, grad_design, hf_psnr, lf_psnr, load_design,
                       loss, make_dataset, make_pupil, reconstruct, simulate_stack)
from fpmdesign import optics
from fpmdesign.config import load_config, recon_config, system_config, train_config
from fpmdesign.formats import read_stack, write_stack
from fpmdesign.metrics import band_filter, band_limits
from fpmdesign.optics import SubApertureOps, simulate_singles
from fpmdesign.training import _resolve_stride

AMPLITUDE_LOSS = LossSpec(gamma=1.0)
NOISE_RATE = 10000.0
# phantom seeds of the reconstruct workload: seed * stride + stack index
PHANTOM_SEED_STRIDE = 1000


class CheckFailed(Exception):
    """An output of one command is wrong."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _write_config(path, **values):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in values.items():
            fh.write(f"{key} = {value}\n")


class Truth:
    """Amplitude of one seeded phantom, with its PSNR floors and loss reference."""

    def __init__(self, field, cfg):
        self.field = field
        self.amp = np.abs(field)
        zero = np.zeros_like(self.amp)
        self.lf_floor = lf_psnr(zero, self.amp, cfg)
        self.hf_floor = hf_psnr(zero, self.amp, cfg)
        split, _ = band_limits(cfg)
        low = band_filter(self.amp, 0.0, split, cfg)
        self.ref_loss = float(np.sum((low - self.amp) ** 2))

    def check_psnr(self, lf, hf, what):
        _require(np.isfinite(lf) and np.isfinite(hf), f"{what}: non-finite PSNR")
        _require(lf > self.lf_floor,
                 f"{what}: low-band PSNR {lf:.4f} <= zero-field floor {self.lf_floor:.4f}")
        _require(hf > self.hf_floor,
                 f"{what}: high-band PSNR {hf:.4f} <= zero-field floor {self.hf_floor:.4f}")


class Quality:
    """Mean band PSNR and relative loss over the scored reconstructions."""

    def __init__(self):
        self.lf, self.hf, self.loss, self.ref = [], [], [], []

    def add_psnr(self, lf, hf):
        self.lf.append(lf)
        self.hf.append(hf)

    def add_loss(self, value, ref):
        self.loss.append(value)
        self.ref.append(ref)

    def metrics(self) -> dict:
        """NaN where nothing was scored (the first pass failed)."""
        nan = float("nan")
        return {
            "lf_psnr_db": (float(np.mean(self.lf)) if self.lf else nan, "dB"),
            "hf_psnr_db": (float(np.mean(self.hf)) if self.hf else nan, "dB"),
            "test_loss_rel": (float(np.sum(self.loss) / np.sum(self.ref))
                              if self.loss else nan, "ratio"),
        }


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _finite_float(text, what):
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{what}: {text!r} is not a number") from None
    _require(np.isfinite(value), f"{what}: non-finite value {text!r}")
    return value


def _check_evaluate_csv(path, design_names, truths):
    """Per-pair (lf, hf) rows of an `fpm evaluate` CSV, checked for
    completeness, order, finiteness, the PSNR floors and the mean rows."""
    rows = _read_rows(path)
    _require(rows and rows[0] == ["design", "K", "context", "lf_psnr", "hf_psnr"],
             f"{path}: bad header")
    n_pairs = len(design_names) * len(truths)
    _require(len(rows) == 1 + n_pairs + len(design_names),
             f"{path}: {len(rows) - 1} rows, expected {n_pairs + len(design_names)}")
    pairs = []
    for j, row in enumerate(rows[1:1 + n_pairs]):
        d_idx, p_idx = divmod(j, len(truths))
        what = f"{path} row {j + 1}"
        _require(len(row) == 5 and row[0] == design_names[d_idx], f"{what}: bad row {row}")
        lf = _finite_float(row[3], what)
        hf = _finite_float(row[4], what)
        truths[p_idx].check_psnr(lf, hf, what)
        pairs.append((lf, hf))
    for d_idx, name in enumerate(design_names):
        row = rows[1 + n_pairs + d_idx]
        what = f"{path} mean row {name}"
        _require(len(row) == 5 and row[0] == f"{name}:mean", f"{what}: bad row {row}")
        mine = np.mean(pairs[d_idx * len(truths):(d_idx + 1) * len(truths)], axis=0)
        _require(np.allclose([_finite_float(row[3], what), _finite_float(row[4], what)],
                             mine, rtol=0, atol=1e-5), f"{what}: mean does not match rows")
    return pairs


class Workload:
    """One benchmark workload. Subclasses fill in the class attributes."""

    name = ""
    patch_px = 0
    unroll_T = 0
    solves_per_command = 1
    # untimed commands run by extra_checks, counted as attempted
    extra_commands = 0

    def __init__(self, work_dir, seed):
        self.work = work_dir
        self.seed = seed
        self.quality = Quality()

    def path(self, name):
        return os.path.join(self.work, name)

    def setup(self, run):
        """Write the input files. run(argv) executes one `fpm` command."""
        raise NotImplementedError

    def commands(self) -> list[list[str]]:
        """argv of every command in one pass."""
        raise NotImplementedError

    def execute(self, i, argv, run):
        """Run command i; (exit code, stderr). run(argv) executes one `fpm`
        command."""
        return run(argv)

    def outputs(self, i) -> list[str]:
        """Files whose bytes must repeat whenever command i runs."""
        raise NotImplementedError

    def check(self, i, first, run):
        """Raise CheckFailed unless command i's outputs are right; on the
        first pass, also record quality."""
        raise NotImplementedError

    def extra_checks(self, run):
        """Untimed checks after the timed passes of a traced run; yields
        failure messages."""
        return iter(())

    def probes(self):
        """Untimed calls that fill the layer table where no command makes them."""


class ReconstructP35(Workload):
    """`fpm reconstruct` at the desk-scale patch on noisy heuristic K=15 stacks."""

    name = "reconstruct-p35"
    patch_px = 35
    unroll_T = 100
    stacks = 4

    def setup(self, run):
        cfg_path = self.path("recon.cfg")
        _write_config(cfg_path, patch_px=self.patch_px, upsample=3,
                      unroll_T=self.unroll_T, step_alpha=0.5, seed=self.seed,
                      noise_rate=NOISE_RATE, context="amplitude")
        design_path = self.path("heuristic15.design")
        rc, err = run(["baseline", "--config", cfg_path, "--kind", "heuristic",
                       "--K", "15", "--seed", str(self.seed), "--out", design_path])
        _require(rc == 0, f"baseline design failed: {err.strip()}")
        self.cfg = system_config(load_config(cfg_path))
        self.geometry = build_led_geometry(self.cfg)
        self.pupil = make_pupil(self.cfg)
        self.design = load_design(design_path, self.geometry)
        self.truths = []
        self.argv = []
        for i in range(self.stacks):
            phantom = generate_phantom(self.cfg, "amplitude",
                                       self.seed * PHANTOM_SEED_STRIDE + i)
            stack = simulate_stack(phantom.field, self.design.weights, self.geometry,
                                   self.pupil, self.cfg)
            stack = add_shot_noise(stack, self.geometry, (self.seed, i), NOISE_RATE)
            stack_path = self.path(f"stack{i}.fpms")
            write_stack(stack_path, stack.images)
            self.truths.append(Truth(phantom.field, self.cfg))
            self.argv.append(["reconstruct", "--config", cfg_path, "--stack", stack_path,
                              "--design", design_path, "--out", self.path(f"recon{i}.fpms")])

    def commands(self):
        return self.argv

    def outputs(self, i):
        return [self.path(f"recon{i}.fpms")]

    def check(self, i, first, run):
        out = read_stack(self.path(f"recon{i}.fpms"))
        q = self.cfg.hires_px
        _require(out.shape == (1, q, q), f"recon{i}: shape {out.shape}")
        _require(np.all(np.isfinite(out)), f"recon{i}: non-finite output field")
        x = out[0]
        truth = self.truths[i]
        lf = lf_psnr(np.abs(x), truth.amp, self.cfg)
        hf = hf_psnr(np.abs(x), truth.amp, self.cfg)
        truth.check_psnr(lf, hf, f"recon{i}")
        if first:
            self.quality.add_psnr(lf, hf)
            self.quality.add_loss(loss(x, truth.field, AMPLITUDE_LOSS), truth.ref_loss)

    def probes(self):
        """_example_loss and _example_grad at p=35, T=30, heuristic K=15 (the
        ROADMAP item-1 rows no reconstruct command makes)."""
        T = 30
        ops = SubApertureOps.for_geometry(self.geometry, self.pupil, self.cfg)
        singles = simulate_singles(self.truths[0].field, self.geometry, self.pupil, self.cfg)
        flat = singles.reshape(ops.L, -1)
        C = self.design.weights
        stride = _resolve_stride(TrainConfig(unroll=ReconConfig(unroll_T=T)))
        training._example_loss(ops, singles, self.truths[0].field, C, AMPLITUDE_LOSS, T, 0.5)
        training._example_grad(ops, flat, self.truths[0].field, C, T, 0.5, AMPLITUDE_LOSS,
                               stride)


class TrainP21(Workload):
    """`fpm train --context amplitude --K 15` at the acceptance trend profile."""

    name = "train-p21"
    patch_px = 21
    unroll_T = 30
    K = 15
    n_phantoms = 20
    epochs = 1
    # 20 phantoms split 18/2; batches of 6 -> 18 example gradients per epoch
    solves_per_command = 18 * epochs
    extra_commands = 1

    def setup(self, run):
        self.cfg_path = self.path("train.cfg")
        _write_config(self.cfg_path, patch_px=self.patch_px, upsample=3,
                      unroll_T=self.unroll_T, step_alpha=0.5, lr=0.05,
                      epochs=self.epochs, batch=6, seed=self.seed,
                      n_phantoms=self.n_phantoms, train_noise="true",
                      noise_rate=NOISE_RATE, context="amplitude")
        self.cfg = system_config(load_config(self.cfg_path))
        self.geometry = build_led_geometry(self.cfg)
        self.mask = context_mask(self.geometry, self.K, "amplitude")
        dataset = make_dataset(self.cfg, "amplitude", self.n_phantoms, self.seed)
        self.truths = [Truth(ph.field, self.cfg) for ph in dataset.test_phantoms()]
        self.design_path = self.path("learned.design")

    def commands(self):
        return [["train", "--config", self.cfg_path, "--context", "amplitude",
                 "--K", str(self.K), "--out", self.design_path]]

    def outputs(self, i):
        return [self.design_path, self.design_path + ".log.csv"]

    def check(self, i, first, run):
        design = load_design(self.design_path, self.geometry)
        _require(np.all(np.isfinite(design.weights)), "learned design: non-finite weight")
        try:
            DesignMatrix(design.weights, self.mask, "amplitude").check_feasible()
        except FpmError as exc:
            raise CheckFailed(f"learned design infeasible: {exc}") from None
        rows = _read_rows(self.design_path + ".log.csv")
        _require(rows and rows[0] == ["epoch", "train_loss", "test_loss"], "log: bad header")
        _require(len(rows) == 1 + self.epochs, f"log: {len(rows) - 1} epochs")
        test = [_finite_float(r[2], "log test_loss") for r in rows[1:]]
        for r in rows[1:]:
            _finite_float(r[1], "log train_loss")
        if not first:
            return
        # best-epoch test loss: mean clean-measurement loss over the test split
        self.quality.add_loss(min(test), np.mean([t.ref_loss for t in self.truths]))
        # untimed: score the learned design on the held-out phantoms with noise
        scores = self.path("learned.eval.csv")
        rc, err = run(["evaluate", "--config", self.cfg_path, "--designs",
                       self.design_path, "--noise", "on", "--out", scores])
        _require(rc == 0, f"evaluate of learned design failed: {err.strip()}")
        for lf, hf in _check_evaluate_csv(scores, ["learned.design"], self.truths):
            self.quality.add_psnr(lf, hf)

    def extra_checks(self, run):
        """The learned design must not depend on the worker thread count."""
        if not os.path.exists(self.design_path):
            yield "FPM_THREADS=2 check not run: the timed commands wrote no design"
            return
        with open(self.design_path, "rb") as fh:
            single = fh.read()
        os.environ["FPM_THREADS"] = "2"
        try:
            rc, err = run(self.commands()[0])
        finally:
            os.environ["FPM_THREADS"] = "1"
        if rc != 0:
            yield f"train under FPM_THREADS=2 failed: {err.strip()}"
            return
        with open(self.design_path, "rb") as fh:
            if fh.read() != single:
                yield "learned design differs between FPM_THREADS=1 and FPM_THREADS=2"


class GradP21(Workload):
    """`fpmdesign.grad_design` on the training examples of the acceptance trend
    profile, taken at the heuristic K=15 design: the projected-SGD step of
    `fpm train` without the projection."""

    name = "grad-p21"
    patch_px = 21
    unroll_T = 30
    K = 15
    n_phantoms = 20
    # 20 phantoms split 18/2 -> 9 batches of 2, one command each. `fpm train`
    # at the trend profile takes batches of 6; an example gradient costs the
    # same in either, and three times as many commands per run steady the
    # median command time.
    batch = 2
    solves_per_command = batch
    extra_commands = 1

    def setup(self, run):
        cfg_path = self.path("train.cfg")
        _write_config(cfg_path, patch_px=self.patch_px, upsample=3,
                      unroll_T=self.unroll_T, step_alpha=0.5, seed=self.seed)
        design_path = self.path("heuristic15.design")
        rc, err = run(["baseline", "--config", cfg_path, "--kind", "heuristic",
                       "--K", str(self.K), "--seed", str(self.seed), "--out", design_path])
        _require(rc == 0, f"baseline design failed: {err.strip()}")
        values = load_config(cfg_path)
        self.cfg = system_config(values)
        self.rcfg = recon_config(values)
        self.tcfg = train_config(values)
        self.geometry = build_led_geometry(self.cfg)
        self.pupil = make_pupil(self.cfg)
        self.design = load_design(design_path, self.geometry)
        dataset = make_dataset(self.cfg, "amplitude", self.n_phantoms, self.seed)
        phantoms = dataset.train_phantoms()
        self.singles = [simulate_singles(ph.field, self.geometry, self.pupil, self.cfg)
                        for ph in phantoms]
        self.truths = [Truth(ph.field, self.cfg) for ph in phantoms]

    def commands(self):
        n = len(self.truths) // self.batch
        return [["grad_design", "--batch", str(b)] for b in range(n)]

    def outputs(self, i):
        return [self.path(f"grad{i}.npy")]

    def _examples(self, i):
        """(index, noisy singles) of batch i; each example has its own
        seeded shot-noise draw, as in `fpm train`."""
        for j in range(i * self.batch, (i + 1) * self.batch):
            stack = MeasurementStack(self.singles[j], self.geometry.is_bright)
            # looked up on the module, so a traced command sees the call
            noisy = optics.add_shot_noise(stack, self.geometry, (self.seed, j), NOISE_RATE)
            yield j, noisy.images

    def execute(self, i, argv, run):
        batch = [(singles, self.truths[j].field) for j, singles in self._examples(i)]
        grad = grad_design(batch, self.design.weights, self.geometry, self.pupil,
                           self.cfg, AMPLITUDE_LOSS, self.tcfg)
        np.save(self.path(f"grad{i}.npy"), grad)
        return 0, ""

    def check(self, i, first, run):
        grad = np.load(self.path(f"grad{i}.npy"))
        C = self.design.weights
        _require(grad.shape == C.shape, f"grad{i}: shape {grad.shape}, design {C.shape}")
        _require(np.all(np.isfinite(grad)), f"grad{i}: non-finite gradient")
        _require(np.any(grad[C > 0] != 0.0), f"grad{i}: zero on every lit LED")
        if not first:
            return
        # Score the unrolled solves the gradient differentiates through: the
        # same design, measurements and solver, run by `reconstruct`.
        for j, singles in self._examples(i):
            images = (C @ singles.reshape(len(singles), -1)).reshape(
                C.shape[0], self.patch_px, self.patch_px)
            stack = MeasurementStack(images, np.any(C[:, self.geometry.is_bright] > 0, axis=1))
            x = reconstruct(stack, C, self.geometry, self.pupil, self.cfg, self.rcfg).x_star
            truth = self.truths[j]
            lf = lf_psnr(np.abs(x), truth.amp, self.cfg)
            hf = hf_psnr(np.abs(x), truth.amp, self.cfg)
            truth.check_psnr(lf, hf, f"grad{i} example {j}")
            self.quality.add_psnr(lf, hf)
            self.quality.add_loss(loss(x, truth.field, AMPLITUDE_LOSS), truth.ref_loss)

    def extra_checks(self, run):
        """The gradient must not depend on the worker thread count."""
        path = self.path("grad0.npy")
        if not os.path.exists(path):
            yield "FPM_THREADS=2 check not run: the timed commands wrote no gradient"
            return
        with open(path, "rb") as fh:
            single = fh.read()
        os.environ["FPM_THREADS"] = "2"
        try:
            self.execute(0, self.commands()[0], run)
        finally:
            os.environ["FPM_THREADS"] = "1"
        with open(path, "rb") as fh:
            if fh.read() != single:
                yield "design gradient differs between FPM_THREADS=1 and FPM_THREADS=2"


class EvaluateP21(Workload):
    """`fpm evaluate --noise on` over single-LED K=89 and heuristic K=15, K=10."""

    name = "evaluate-p21"
    patch_px = 21
    unroll_T = 30
    n_phantoms = 30       # 27/3 split -> three held-out phantoms
    designs = (("single.design", ["--kind", "single"]),
               ("heuristic15.design", ["--kind", "heuristic", "--K", "15"]),
               ("heuristic10.design", ["--kind", "heuristic", "--K", "10"]))
    solves_per_command = 3 * 3

    def setup(self, run):
        self.cfg_path = self.path("eval.cfg")
        _write_config(self.cfg_path, patch_px=self.patch_px, upsample=3,
                      unroll_T=self.unroll_T, step_alpha=0.5, seed=self.seed,
                      n_phantoms=self.n_phantoms, noise_rate=NOISE_RATE,
                      context="amplitude")
        for name, kind in self.designs:
            rc, err = run(["baseline", "--config", self.cfg_path, *kind,
                           "--seed", str(self.seed), "--out", self.path(name)])
            _require(rc == 0, f"baseline {name} failed: {err.strip()}")
        values = load_config(self.cfg_path)
        self.cfg = system_config(values)
        self.rcfg = recon_config(values)
        self.geometry = build_led_geometry(self.cfg)
        self.pupil = make_pupil(self.cfg)
        dataset = make_dataset(self.cfg, "amplitude", self.n_phantoms, self.seed)
        self.truths = [Truth(ph.field, self.cfg) for ph in dataset.test_phantoms()]
        self.out = self.path("scores.csv")

    def commands(self):
        return [["evaluate", "--config", self.cfg_path, "--designs",
                 *[self.path(name) for name, _ in self.designs],
                 "--noise", "on", "--out", self.out]]

    def outputs(self, i):
        return [self.out]

    def check(self, i, first, run):
        names = [name for name, _ in self.designs]
        pairs = _check_evaluate_csv(self.out, names, self.truths)
        if not first:
            return
        # Re-solve every (design, phantom) pair through the library, as
        # `fpm evaluate` documents it, to cross-check the CSV and score the loss.
        designs = [load_design(self.path(name), self.geometry) for name in names]
        for j, (lf, hf) in enumerate(pairs):
            d_idx, p_idx = divmod(j, len(self.truths))
            design = designs[d_idx]
            truth = self.truths[p_idx]
            stack = simulate_stack(truth.field, design.weights, self.geometry,
                                   self.pupil, self.cfg)
            stack = add_shot_noise(stack, self.geometry, (self.seed, d_idx, p_idx),
                                   NOISE_RATE)
            x = reconstruct(stack, design.weights, self.geometry, self.pupil, self.cfg,
                            self.rcfg).x_star
            mine = (lf_psnr(np.abs(x), truth.amp, self.cfg),
                    hf_psnr(np.abs(x), truth.amp, self.cfg))
            _require(np.allclose(mine, (lf, hf), rtol=0, atol=1e-5),
                     f"{names[d_idx]} phantom {p_idx}: CSV PSNR {(lf, hf)} but "
                     f"re-solve gives {mine}")
            self.quality.add_psnr(lf, hf)
            self.quality.add_loss(loss(x, truth.field, AMPLITUDE_LOSS), truth.ref_loss)


WORKLOADS = {w.name: w for w in (ReconstructP35, TrainP21, GradP21, EvaluateP21)}
