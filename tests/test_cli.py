import json

import pytest

import semikit as sk
from semikit.cli import main


@pytest.fixture
def pb_file(tmp_path, pb):
    path = tmp_path / "pb.sg"
    sk.write_sg(pb, path)
    return str(path)


@pytest.fixture
def z3_file(tmp_path, z3):
    path = tmp_path / "z3.sg"
    sk.write_sg(z3, path)
    return str(path)


def test_validate(z3_file, capsys):
    assert main(["validate", z3_file]) == 0
    assert "associative, order 3" in capsys.readouterr().out


def test_validate_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.sg"
    path.write_text("2\n0 1\n1 0\n")  # not associative? it is (Z2); use range error
    path.write_text("2\n0 5\n1 0\n")
    assert main(["validate", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exit_2(capsys):
    assert main(["validate", "/nonexistent/x.sg"]) == 2


def test_unknown_flag_exit_2(z3_file):
    with pytest.raises(SystemExit) as exc:
        main(["validate", z3_file, "--bogus"])
    assert exc.value.code == 2


def test_report_structured(z3_file, capsys):
    assert main(["--format", "structured", "report", z3_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["is_group"] is True and doc["identity"] == 0


def test_greens_dot(pb_file, tmp_path, capsys):
    dot = tmp_path / "egg.dot"
    assert main(["greens", pb_file, "--dot", str(dot)]) == 0
    assert dot.read_text().startswith("digraph")
    assert "D-class" in capsys.readouterr().out


def test_greens_structured_stable(pb_file, capsys):
    assert main(["--format", "structured", "greens", pb_file]) == 0
    first = capsys.readouterr().out
    assert main(["--format", "structured", "greens", pb_file]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert set(doc) == {"l_classes", "r_classes", "j_classes", "h_classes", "d_classes", "eggbox"}


def test_kernel_pinned(pb_file, capsys):
    assert main(["kernel", pb_file]) == 0
    out = capsys.readouterr().out
    assert "K = {0,1}" in out
    assert "minimal right ideals: {0} {1}" in out
    assert "minimal left ideals: {0,1}" in out


def test_decompose_emit_rms(z3_file, tmp_path, capsys):
    rms = tmp_path / "z3.rms"
    assert main(["--format", "structured", "decompose", z3_file, "--emit-rms", str(rms)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["base_idempotent"] == 0
    back = sk.read_rms(rms)
    assert back.realized.order == 3


def test_quotient(pb_file, capsys):
    assert main(["--format", "structured", "quotient", pb_file, "--ideal", "0,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 3


def test_quotient_rejects_non_ideal(pb_file, capsys):
    assert main(["quotient", pb_file, "--ideal", "2"]) == 2


def test_subsemigroups(z3_file, capsys):
    assert main(["--format", "structured", "subsemigroups", z3_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 2


def test_gen_and_validate(tmp_path, capsys):
    out = tmp_path / "rb.sg"
    assert main(["gen", "rect_band:2,2", "-o", str(out)]) == 0
    assert main(["validate", str(out)]) == 0


def test_census_verify_roundtrip(tmp_path, capsys):
    d = tmp_path / "census2"
    assert main(["census", "--max-order", "2", "-o", str(d)]) == 0
    capsys.readouterr()
    manifest = json.loads((d / "manifest.json").read_text())
    assert len(manifest["instances"]) == 6
    assert main(["verify", "--corpus", str(d)]) == 0
    assert "failed" in capsys.readouterr().out


def test_verify_single_file(z3_file, capsys):
    assert main(["--format", "structured", "verify", z3_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["fail"] == 0


def test_structured_output_byte_identical(pb_file, capsys):
    outs = []
    for _ in range(2):
        assert main(["--format", "structured", "kernel", pb_file]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_env_max_order(tmp_path, z3, monkeypatch):
    monkeypatch.setenv("SEMIKIT_MAX_ORDER", "2")
    from semikit.errors import Overflow

    with pytest.raises(Overflow):
        sk.from_table(3, z3.table)


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_env_max_order_invalid(z3_file, monkeypatch, capsys, value):
    monkeypatch.setenv("SEMIKIT_MAX_ORDER", value)
    assert main(["validate", z3_file]) == 2
    err = capsys.readouterr().err
    assert f"SEMIKIT_MAX_ORDER must be a positive integer, got '{value}'" in err
