import os
import struct

import numpy as np
import pytest

from fpmdesign.config import parse_config_text, load_config, system_config, worker_count
from fpmdesign.errors import ConfigError, FormatError
from fpmdesign.formats import (
    STACK_MAGIC,
    read_stack,
    to_gray,
    write_csv,
    write_pgm,
    write_stack,
)


def test_stack_round_trip_real(tmp_path):
    rng = np.random.default_rng(70)
    data = rng.uniform(0, 50, size=(5, 9, 7)).astype(np.float32)
    path = str(tmp_path / "a.fpmstack")
    write_stack(path, data)
    back = read_stack(path)
    # storage is f32; values survive exactly through the float64 return
    assert back.dtype == np.float64
    assert np.array_equal(back, data)


def test_stack_round_trip_quantizes_doubles(tmp_path):
    rng = np.random.default_rng(71)
    data = rng.uniform(0, 1, size=(2, 4, 4))
    path = str(tmp_path / "b.fpmstack")
    write_stack(path, data)
    back = read_stack(path)
    assert np.array_equal(back, data.astype(np.float32))


def test_stack_round_trip_complex(tmp_path):
    rng = np.random.default_rng(72)
    data = (rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5)))
    path = str(tmp_path / "c.fpmstack")
    write_stack(path, data)
    back = read_stack(path)
    assert back.dtype == np.complex128
    assert np.array_equal(back, data.astype(np.complex64).astype(np.complex128))


def test_stack_header_layout(tmp_path):
    data = np.zeros((2, 3, 4), dtype=np.float32)
    path = str(tmp_path / "d.fpmstack")
    write_stack(path, data)
    raw = open(path, "rb").read()
    magic, version, count, height, width, dtype = struct.unpack("<4sIIIIB", raw[:21])
    assert magic == STACK_MAGIC == b"FPMS"
    assert version == 1
    assert (count, height, width, dtype) == (2, 3, 4, 0)
    assert len(raw) == 21 + 2 * 3 * 4 * 4


def test_stack_errors(tmp_path):
    data = np.ones((1, 2, 2), dtype=np.float32)
    good = str(tmp_path / "good.fpmstack")
    write_stack(good, data)
    raw = open(good, "rb").read()

    bad_magic = str(tmp_path / "m.fpmstack")
    open(bad_magic, "wb").write(b"XXXX" + raw[4:])
    with pytest.raises(FormatError, match="m.fpmstack"):
        read_stack(bad_magic)

    bad_version = str(tmp_path / "v.fpmstack")
    open(bad_version, "wb").write(raw[:4] + struct.pack("<I", 9) + raw[8:])
    with pytest.raises(FormatError):
        read_stack(bad_version)

    truncated = str(tmp_path / "t.fpmstack")
    open(truncated, "wb").write(raw[:-3])
    with pytest.raises(FormatError):
        read_stack(truncated)

    with pytest.raises(FormatError):
        read_stack(str(tmp_path / "missing.fpmstack"))


def test_write_stack_rejects_bad_shape(tmp_path):
    with pytest.raises(FormatError):
        write_stack(str(tmp_path / "x.fpmstack"), np.zeros((4, 4)))


def test_to_gray_range_and_constants():
    img = np.array([[0.0, 1.0], [2.0, 4.0]])
    g = to_gray(img)
    assert g.dtype == np.uint8
    assert g[0, 0] == 0 and g[1, 1] == 255
    flat = to_gray(np.full((3, 3), 7.0))
    assert flat.max() == 0


def test_pgm_format(tmp_path):
    g = np.array([[0, 128], [255, 7]], dtype=np.uint8)
    path = str(tmp_path / "img.pgm")
    write_pgm(path, g)
    lines = open(path).read().split()
    assert lines[0] == "P2"
    assert lines[1:4] == ["2", "2", "255"]
    assert lines[4:] == ["0", "128", "255", "7"]
    with pytest.raises(FormatError):
        write_pgm(str(tmp_path / "bad.pgm"), g.astype(np.float64))


def test_write_csv(tmp_path):
    path = str(tmp_path / "log.csv")
    write_csv(path, ["epoch", "loss"], [[0, 1.5], [1, "0.75"]])
    text = open(path).read()
    assert text == "epoch,loss\n0,1.5\n1,0.75\n"


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "out.fpmstack")
    write_stack(path, np.ones((1, 2, 2), dtype=np.float32))
    names = sorted(os.listdir(tmp_path))
    assert names == ["out.fpmstack"]


# ---------------- flat config parser ----------------

def test_parse_config_typed_values():
    text = """
    # a comment line
    wavelength_um = 0.514
    patch_px = 21   # trailing comment
    train_noise = off
    context = phase
    """
    values = parse_config_text(text)
    assert values == {
        "wavelength_um": 0.514,
        "patch_px": 21,
        "train_noise": False,
        "context": "phase",
    }
    cfg = system_config(values)
    assert cfg.patch_px == 21
    assert cfg.wavelength_um == 0.514


def test_parse_config_errors():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("frobnicate = 3")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("patch_px = 21\nthis is not a pair")
    with pytest.raises(ConfigError):
        parse_config_text("patch_px = lots")
    with pytest.raises(ConfigError):
        parse_config_text("train_noise = maybe")


def test_removed_keys_are_unknown():
    # parsed-but-ignored keys are rejected rather than silently dropped
    for key in ("gamma", "design_K", "checkpoint_every"):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            parse_config_text(f"{key} = 1")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.cfg"))


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("FPM_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("FPM_THREADS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("FPM_THREADS", "0")
    assert worker_count() == 1
    monkeypatch.setenv("FPM_THREADS", "two")
    with pytest.raises(ConfigError):
        worker_count()
