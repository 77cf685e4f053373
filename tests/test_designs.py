import numpy as np
import pytest

from fpmdesign import (
    DesignMatrix,
    SystemConfig,
    build_led_geometry,
    heuristic_design,
    load_design,
    save_design,
    single_led_design,
)
from fpmdesign.designs import context_mask, mirror_asymmetry, mirror_permutation
from fpmdesign.errors import FingerprintError, FormatError, FpmError
from fpmdesign.optics import multiplex


def test_single_led_design_is_identity(geom_full):
    d = single_led_design(geom_full)
    assert d.K == d.L == 89
    assert np.array_equal(d.weights, np.eye(89))
    d.check_feasible()


def test_single_led_rows_reproduce_singles(geom_full):
    d = single_led_design(geom_full)
    rng = np.random.default_rng(50)
    singles = rng.uniform(size=(89, 4, 4))
    for k in (0, 44, 88):
        assert np.array_equal(multiplex(singles, d.weights[k]), singles[k])


def test_heuristic_bright_rows_are_half_planes(geom_full):
    d = heuristic_design(geom_full, 15, seed=3)
    m = geom_full.grid[:, 0]
    n = geom_full.grid[:, 1]
    bright = geom_full.is_bright
    upper = bright & (n >= 0)
    lower = bright & (n < 0)
    left = bright & (m <= 0)
    assert upper.sum() == 13 and lower.sum() == 8 and left.sum() == 13
    for row, sel in zip(d.weights[:3], (upper, lower, left)):
        assert (row > 0).tolist() == sel.tolist()
        assert np.allclose(row[sel], 1.0 / sel.sum())
        assert abs(row.sum() - 1.0) < 1e-12


def test_heuristic_dark_partition(geom_full):
    d = heuristic_design(geom_full, 15, seed=3)
    dark_rows = d.weights[3:]
    supports = [np.flatnonzero(r) for r in dark_rows]
    sizes = sorted(len(s) for s in supports)
    assert sizes == [5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6]
    all_ids = np.concatenate(supports)
    assert len(all_ids) == len(set(all_ids.tolist())) == 68
    assert set(all_ids.tolist()) == set(np.flatnonzero(~geom_full.is_bright).tolist())
    for r in dark_rows:
        nz = r[r > 0]
        assert np.allclose(nz, 1.0 / len(nz))
    d.check_feasible()


def test_heuristic_k5_structure(geom_full):
    d = heuristic_design(geom_full, 5, seed=0)
    assert d.K == 5
    bright = geom_full.is_bright
    assert d.weights[:3][:, ~bright].max() == 0.0
    assert d.weights[3:][:, bright].max() == 0.0
    sizes = sorted(np.count_nonzero(r) for r in d.weights[3:])
    assert sizes == [34, 34]


def test_heuristic_determinism_and_seed_sensitivity(geom_full):
    a = heuristic_design(geom_full, 15, seed=9)
    b = heuristic_design(geom_full, 15, seed=9)
    assert np.array_equal(a.weights, b.weights)
    c = heuristic_design(geom_full, 15, seed=10)
    assert not np.array_equal(a.weights, c.weights)
    # bright-field rows ignore the seed
    assert np.array_equal(a.weights[:3], c.weights[:3])


def test_heuristic_argument_errors(geom_full):
    with pytest.raises(FpmError):
        heuristic_design(geom_full, 3, seed=0)
    with pytest.raises(FpmError):
        heuristic_design(geom_full, 72, seed=0)  # 69 dark rows > 68 dark LEDs


def test_context_mask_shapes(geom_full):
    amp = context_mask(geom_full, 6, "amplitude")
    assert amp.shape == (6, 89)
    bright = geom_full.is_bright
    assert amp[0].tolist() == bright.tolist()
    assert not amp[1:][:, bright].any()
    ph = context_mask(geom_full, 6, "phase")
    assert ph[0].tolist() == ph[1].tolist() == bright.tolist()
    assert not ph[2:][:, bright].any()
    mx = context_mask(geom_full, 6, "mixed")
    assert np.array_equal(mx, ph)
    with pytest.raises(FpmError):
        context_mask(geom_full, 1, "amplitude")
    with pytest.raises(FpmError):
        context_mask(geom_full, 2, "phase")


def test_mirror_permutation_pairs(geom_full):
    perm = mirror_permutation(geom_full)
    grid = geom_full.grid
    for i in (0, 13, 40, 88):
        mi = perm[i]
        assert grid[mi, 0] == grid[i, 0]
        assert grid[mi, 1] == -grid[i, 1]
    assert np.array_equal(perm[perm], np.arange(89))


def test_mirror_asymmetry_values(geom_full):
    ids = {tuple(g): i for i, g in enumerate(geom_full.grid)}
    row = np.zeros(89)
    row[ids[(0, 1)]] = 1.0
    assert abs(mirror_asymmetry(row, geom_full) - 2.0) < 1e-15
    sym = np.zeros(89)
    sym[ids[(0, 1)]] = 0.5
    sym[ids[(0, -1)]] = 0.5
    assert mirror_asymmetry(sym, geom_full) == 0.0
    axis = np.zeros(89)
    axis[ids[(2, 0)]] = 1.0  # its own mirror image
    assert mirror_asymmetry(axis, geom_full) == 0.0


def test_design_feasibility_violations_detected(geom_full):
    d = heuristic_design(geom_full, 6, seed=1)
    bad = d.weights.copy()
    bad[2, 5] = -0.1
    with pytest.raises(FpmError):
        DesignMatrix(bad, d.mask).check_feasible()
    bad2 = d.weights.copy()
    bad2[1] *= 1.5
    with pytest.raises(FpmError):
        DesignMatrix(bad2, d.mask).check_feasible()


def test_save_load_round_trip(tmp_path, geom_full):
    d = heuristic_design(geom_full, 15, seed=4)
    path = str(tmp_path / "heur.design")
    save_design(d, path, geom_full)
    back = load_design(path, geom_full)
    assert np.array_equal(back.weights, d.weights)
    assert np.array_equal(back.mask, d.weights > 0)
    assert back.K == 15 and back.L == 89


def test_load_rejects_other_geometry(tmp_path, geom_full):
    d = heuristic_design(geom_full, 5, seed=4)
    path = str(tmp_path / "h.design")
    save_design(d, path, geom_full)
    other = build_led_geometry(SystemConfig(led_height_mm=45.5))
    with pytest.raises(FingerprintError):
        load_design(path, other)


def test_load_errors_carry_line_numbers(tmp_path, geom_full):
    d = heuristic_design(geom_full, 5, seed=4)
    path = str(tmp_path / "t.design")
    save_design(d, path, geom_full)
    lines = open(path).read().splitlines()

    truncated = str(tmp_path / "trunc.design")
    with open(truncated, "w") as fh:
        fh.write("\n".join(lines[:4]) + "\n")
    with pytest.raises(FormatError) as err:
        load_design(truncated, geom_full)
    assert "line" in str(err.value)

    garbled = str(tmp_path / "bad.design")
    bad_lines = list(lines)
    bad_lines[3] = bad_lines[3].replace(bad_lines[3].split()[0], "zz", 1)
    with open(garbled, "w") as fh:
        fh.write("\n".join(bad_lines) + "\n")
    with pytest.raises(FormatError):
        load_design(garbled, geom_full)

    for bad_value in ("nan", "-0.25"):
        bad_weight = str(tmp_path / f"w{bad_value}.design")
        bad_lines = list(lines)
        bad_lines[4] = " ".join([bad_value] + bad_lines[4].split()[1:])
        with open(bad_weight, "w") as fh:
            fh.write("\n".join(bad_lines) + "\n")
        with pytest.raises(FormatError, match=":5: weights must be finite"):
            load_design(bad_weight, geom_full)

    wrong_magic = str(tmp_path / "m.design")
    with open(wrong_magic, "w") as fh:
        fh.write("NOTADESIGN v9\n" + "\n".join(lines[1:]) + "\n")
    with pytest.raises(FormatError):
        load_design(wrong_magic, geom_full)
