import numpy as np
import pytest

from fpmdesign import SystemConfig, build_led_geometry, load_design
from fpmdesign.cli import main
from fpmdesign.formats import read_stack

TINY_CFG = """
# tiny end-to-end profile
patch_px = 15
upsample = 3
unroll_T = 10
step_alpha = 0.5
lr = 0.05
epochs = 2
batch = 2
seed = 3
n_phantoms = 4
noise_rate = 10000
"""


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


@pytest.fixture()
def tiny_geometry():
    return build_led_geometry(SystemConfig(patch_px=15))


def test_geometry_command(tmp_path, cfg_file, capsys):
    out = str(tmp_path / "geom.txt")
    assert main(["geometry", "--config", cfg_file, "--out", out]) == 0
    lines = open(out).read().strip().splitlines()
    assert len(lines) == 89
    assert (tmp_path / "geom.txt.pgm").exists()
    assert "89 LEDs" in capsys.readouterr().out


def test_missing_config_reports_error(tmp_path, capsys):
    rc = main(["geometry", "--config", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path / "g.txt")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_baseline_designs(tmp_path, cfg_file, tiny_geometry):
    single = str(tmp_path / "single.design")
    assert main(["baseline", "--config", cfg_file, "--kind", "single",
                 "--out", single]) == 0
    d = load_design(single, tiny_geometry)
    assert d.K == 89
    assert np.array_equal(d.weights, np.eye(89))

    heur = str(tmp_path / "heur.design")
    assert main(["baseline", "--config", cfg_file, "--kind", "heuristic",
                 "--K", "7", "--out", heur]) == 0
    h = load_design(heur, tiny_geometry)
    assert h.K == 7
    h.check_feasible()


def test_simulate_determinism_and_noise(tmp_path, cfg_file):
    design = str(tmp_path / "heur.design")
    main(["baseline", "--config", cfg_file, "--kind", "heuristic", "--K", "6",
          "--out", design])
    a = str(tmp_path / "a.fpmstack")
    b = str(tmp_path / "b.fpmstack")
    for out in (a, b):
        assert main(["simulate", "--config", cfg_file, "--design", design,
                     "--phantom-seed", "5", "--out", out]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    images = read_stack(a)
    assert images.shape == (6, 15, 15)

    n1 = str(tmp_path / "n1.fpmstack")
    n2 = str(tmp_path / "n2.fpmstack")
    assert main(["simulate", "--config", cfg_file, "--design", design,
                 "--phantom-seed", "5", "--noise", "on", "--out", n1]) == 0
    assert main(["simulate", "--config", cfg_file, "--design", design,
                 "--phantom-seed", "5", "--noise", "on", "--out", n2]) == 0
    assert open(n1, "rb").read() == open(n2, "rb").read()
    assert open(n1, "rb").read() != open(a, "rb").read()

    n3 = str(tmp_path / "n3.fpmstack")
    assert main(["simulate", "--config", cfg_file, "--design", design,
                 "--phantom-seed", "5", "--noise", "on", "--seed", "99",
                 "--out", n3]) == 0
    assert open(n3, "rb").read() != open(n1, "rb").read()


def test_reconstruct_roundtrip(tmp_path, cfg_file):
    design = str(tmp_path / "heur.design")
    main(["baseline", "--config", cfg_file, "--kind", "heuristic", "--K", "6",
          "--out", design])
    stack = str(tmp_path / "s.fpmstack")
    main(["simulate", "--config", cfg_file, "--design", design,
          "--phantom-seed", "5", "--out", stack])
    out = str(tmp_path / "recon.fpmstack")
    assert main(["reconstruct", "--config", cfg_file, "--stack", stack,
                 "--design", design, "--out", out]) == 0
    field = read_stack(out)
    assert field.shape == (1, 45, 45)
    assert np.iscomplexobj(field)
    assert (tmp_path / "recon.fpmstack.amp.pgm").exists()
    assert (tmp_path / "recon.fpmstack.phase.pgm").exists()


def test_reconstruct_k_mismatch_message(tmp_path, cfg_file, capsys):
    d6 = str(tmp_path / "d6.design")
    d8 = str(tmp_path / "d8.design")
    main(["baseline", "--config", cfg_file, "--kind", "heuristic", "--K", "6",
          "--out", d6])
    main(["baseline", "--config", cfg_file, "--kind", "heuristic", "--K", "8",
          "--out", d8])
    stack = str(tmp_path / "s.fpmstack")
    main(["simulate", "--config", cfg_file, "--design", d6,
          "--phantom-seed", "5", "--out", stack])
    rc = main(["reconstruct", "--config", cfg_file, "--stack", stack,
               "--design", d8, "--out", str(tmp_path / "r.fpmstack")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "6" in err and "8" in err


def test_reconstruct_rejects_complex_stack(tmp_path, cfg_file, capsys):
    design = str(tmp_path / "d.design")
    main(["baseline", "--config", cfg_file, "--kind", "heuristic", "--K", "6",
          "--out", design])
    from fpmdesign.formats import write_stack
    bogus = str(tmp_path / "cplx.fpmstack")
    write_stack(bogus, np.ones((6, 15, 15), dtype=complex))
    rc = main(["reconstruct", "--config", cfg_file, "--stack", bogus,
               "--design", design, "--out", str(tmp_path / "r.fpmstack")])
    assert rc == 1
    assert "complex" in capsys.readouterr().err


def test_train_amplitude_structure(tmp_path, cfg_file, tiny_geometry):
    out = str(tmp_path / "learned.design")
    assert main(["train", "--config", cfg_file, "--context", "amplitude",
                 "--K", "5", "--out", out]) == 0
    d = load_design(out, tiny_geometry)
    assert d.K == 5
    d.check_feasible()
    bright = tiny_geometry.is_bright
    assert d.weights[0, ~bright].max() == 0.0
    assert d.weights[1:, bright].max() == 0.0
    log = open(out + ".log.csv").read().strip().splitlines()
    assert log[0] == "epoch,train_loss,test_loss"
    assert len(log) == 3  # two epochs
    assert (tmp_path / "learned.design.pgm").exists()


def test_train_phase_structure(tmp_path, cfg_file, tiny_geometry):
    out = str(tmp_path / "phase.design")
    assert main(["train", "--config", cfg_file, "--context", "phase",
                 "--K", "4", "--out", out]) == 0
    d = load_design(out, tiny_geometry)
    bright = tiny_geometry.is_bright
    assert d.weights[:2, ~bright].max() == 0.0
    assert d.weights[2:, bright].max() == 0.0


def test_train_context_validation(tmp_path, cfg_file, capsys):
    rc = main(["train", "--config", cfg_file, "--context", "mixed",
               "--K", "5", "--out", str(tmp_path / "x.design")])
    assert rc == 1
    assert "gamma" in capsys.readouterr().err
    rc = main(["train", "--config", cfg_file, "--context", "mixed:1.5",
               "--K", "5", "--out", str(tmp_path / "y.design")])
    assert rc == 1


def test_train_rejects_contradicting_config_context(tmp_path, capsys):
    path = tmp_path / "phase.cfg"
    path.write_text(TINY_CFG + "context = phase\n")
    rc = main(["train", "--config", str(path), "--context", "amplitude",
               "--K", "5", "--out", str(tmp_path / "x.design")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "context" in err and "phase" in err
    assert not (tmp_path / "x.design").exists()
    # the gamma suffix is not part of the comparison
    path.write_text(TINY_CFG.replace("epochs = 2", "epochs = 1") + "context = mixed\n")
    assert main(["train", "--config", str(path), "--context", "mixed:0.5",
                 "--K", "5", "--out", str(tmp_path / "y.design")]) == 0


def test_evaluate_csv_and_determinism(tmp_path, cfg_file):
    d6 = str(tmp_path / "d6.design")
    d8 = str(tmp_path / "d8.design")
    main(["baseline", "--config", cfg_file, "--kind", "heuristic", "--K", "6",
          "--out", d6])
    main(["baseline", "--config", cfg_file, "--kind", "heuristic", "--K", "8",
          "--out", d8])
    out1 = str(tmp_path / "scores1.csv")
    out2 = str(tmp_path / "scores2.csv")
    for out in (out1, out2):
        assert main(["evaluate", "--config", cfg_file, "--designs", d6, d8,
                     "--out", out]) == 0
    assert open(out1).read() == open(out2).read()
    lines = open(out1).read().strip().splitlines()
    assert lines[0] == "design,K,context,lf_psnr,hf_psnr"
    # 4 phantoms -> 1 test phantom; 2 designs -> 2 rows + 2 mean rows
    assert len(lines) == 5
    assert sum(1 for ln in lines if ":mean" in ln) == 2

    out3 = str(tmp_path / "scores3.csv")
    assert main(["evaluate", "--config", cfg_file, "--designs", d6, d8,
                 "--seed", "42", "--out", out3]) == 0
    assert open(out3).read() != open(out1).read()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
