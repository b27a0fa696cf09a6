import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

import semikit as sk
from semikit import corpus as corpus_mod
from semikit.cli import main
from semikit.corpus import gen_random_rees


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


@pytest.mark.parametrize("e", ["99", "-1"])
def test_decompose_out_of_range_exit_2(tmp_path, rb22, capsys, e):
    path = tmp_path / "rb22.sg"
    sk.write_sg(rb22, path)
    assert main(["decompose", str(path), "--base-idempotent", e]) == 2
    assert f"element {e} not in [0,4)" in capsys.readouterr().err


def test_quotient(pb_file, capsys):
    assert main(["--format", "structured", "quotient", pb_file, "--ideal", "0,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 3


def test_quotient_rejects_non_ideal(pb_file, capsys):
    assert main(["quotient", pb_file, "--ideal", "2"]) == 2
    assert capsys.readouterr().err == "error: [2] is not a two-sided ideal\n"


def test_subsemigroups(z3_file, capsys):
    assert main(["--format", "structured", "subsemigroups", z3_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 2


def test_gen_and_validate(tmp_path, capsys):
    for desc in ("rect_band:2,2", "trivial"):
        out = tmp_path / "out.sg"
        assert main(["gen", desc, "-o", str(out)]) == 0
        assert main(["validate", str(out)]) == 0


def test_gen_rejects_nonpositive_sizes(tmp_path, capsys):
    out = tmp_path / "out.sg"
    assert main(["gen", "rect_band:-2,-3", "-o", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("desc", ["census", "census:", "census:2,3", "census:0", "census:2", "census:3"])
def test_gen_rejects_bad_census_descriptor(tmp_path, capsys, desc):
    assert main(["gen", desc, "-o", str(tmp_path / "out.sg")]) == 2
    assert repr(desc) in capsys.readouterr().err


def test_gen_census_refused_before_enumerating(tmp_path, capsys, monkeypatch):
    def enumerate_census(*args, **kwargs):
        pytest.fail("census enumerated for a descriptor that gen refuses")

    monkeypatch.setattr(corpus_mod, "census", enumerate_census)
    assert main(["gen", "census:4", "-o", str(tmp_path / "out.sg")]) == 2
    assert repr("census:4") in capsys.readouterr().err


@pytest.mark.parametrize("desc", ["transformation:0,2,0", "transformation:-1,2,0"])
def test_gen_rejects_nonpositive_degree(tmp_path, capsys, desc):
    out = tmp_path / "out.sg"
    assert main(["gen", desc, "-o", str(out)]) == 2
    assert "degree" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("order", ["0", "-3"])
def test_census_rejects_nonpositive_order(tmp_path, capsys, order):
    out = tmp_path / "corpus"
    assert main(["census", "--max-order", order, "-o", str(out)]) == 2
    assert "must be positive" in capsys.readouterr().err
    assert not out.exists()


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


def test_verify_text_line_names_skips(z3_file, tmp_path, capsys):
    assert main(["verify", z3_file]) == 0
    assert capsys.readouterr().out == "14 passed, 0 failed\n"
    lz13 = tmp_path / "lz13.sg"
    assert main(["gen", "left_zero:13", "-o", str(lz13)]) == 0
    capsys.readouterr()
    assert main(["verify", str(lz13)]) == 0
    assert capsys.readouterr().out == "11 passed, 0 failed, 3 skipped\n"


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


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Inputs for the argv fuzz: valid tables up to order 8, malformed and
    non-associative files, and a census(2) corpus directory."""
    d = tmp_path_factory.mktemp("fuzz")
    for name, S in (
        ("rb22", sk.gen_standard("rect_band", 2, 2)),
        ("t2", sk.gen_standard("t2")),
        ("z3", sk.gen_standard("cyclic", 3)),
        ("rees", gen_random_rees(2, 2, "z2", 1).realized),
    ):
        sk.write_sg(S, d / f"{name}.sg")
    (d / "range.sg").write_text("2\n0 5\n1 0\n")
    (d / "nonassoc.sg").write_text("2\n1 0\n0 0\n")
    (d / "short.sg").write_text("3\n0 1\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["census", "--max-order", "2", "-o", str(d / "corpus")]) == 0
    return d


# malformed, negative and out-of-range integers; census orders stay <= 3 and
# transformation degrees <= 4 so that every argv runs in well under a second
_INTS = ["-1", "0", "1", "2", "3", "99", "x", "", "1.5", str(2**70)]
_SMALL = ["-2", "-1", "0", "1", "2", "3", "x", ""]
_HEADS = ["census", "random_rees", "transformation", "cyclic", "rect_band",
          "left_zero", "sym3", "t2", "paper_band", "octonions"]


@st.composite
def argvs(draw, d):
    files = [str(d / f) for f in ("rb22.sg", "t2.sg", "z3.sg", "rees.sg", "range.sg",
                                  "nonassoc.sg", "short.sg", "missing.sg", "corpus")]
    outs = [str(d / "out"), str(d / "no" / "out"), str(d)]
    file = draw(st.sampled_from(files))
    out = draw(st.sampled_from(outs))
    ints = st.sampled_from(_INTS)
    sub = draw(st.sampled_from(["validate", "report", "greens", "kernel", "decompose",
                                "quotient", "subsemigroups", "gen", "census", "verify"]))
    argv = [sub]
    if sub in ("validate", "report", "kernel"):
        argv.append(file)
    elif sub == "greens":
        argv += [file] + draw(st.sampled_from([[], ["--dot", out]]))
    elif sub == "decompose":
        argv.append(file)
        if draw(st.booleans()):
            argv += ["--base-idempotent", draw(ints)]
        if draw(st.booleans()):
            argv += ["--emit-rms", out]
    elif sub == "quotient":
        ideal = ",".join(draw(st.lists(ints, min_size=1, max_size=3)))
        argv += [file, "--ideal", ideal] + draw(st.sampled_from([[], ["-o", out]]))
    elif sub == "subsemigroups":
        argv += [file] + draw(st.sampled_from([[], ["--cap", draw(ints)]]))
    elif sub == "gen":
        args = draw(st.lists(st.sampled_from(_SMALL + ["z2", "s3"]), max_size=5))
        desc = draw(st.sampled_from(_HEADS)) + (":" + ",".join(args) if args else "")
        argv += [desc, "-o", out]
    elif sub == "census":
        argv += ["--max-order", draw(st.sampled_from(_SMALL + ["6", "99"])), "-o", out]
    else:
        argv += draw(st.sampled_from([[file], ["--corpus", file], []]))
    if draw(st.booleans()):
        argv = ["--format", draw(st.sampled_from(["human", "structured", "json"]))] + argv
    return argv


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_main_exits_cleanly_on_any_argv(fuzz_dir, data):
    # main() returns 0, 1 or 2, or argparse exits with 2; nothing else escapes.
    # A gen that succeeds leaves a table that loads: in range and associative.
    argv = data.draw(argvs(fuzz_dir), label="argv")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse refused the argv
            assert exc.code == 2
        else:
            assert rc in (0, 1, 2)
            if rc == 0 and "gen" in argv:
                sk.read_sg(argv[argv.index("-o") + 1])
