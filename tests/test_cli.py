import contextlib
import hashlib
import io
import json
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import semikit as sk
from semikit import cli as cli_mod
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


# sha256 of `semikit --format structured decompose FILE --base-idempotent e`
# at each idempotent e, ascending, of every completely simple member of
# census(4) (by census index) and of four Rees instances with P != 1
DECOMPOSE_SHA256 = {
    ("census", 0): (
        "295f698befed59f99f359414bc07e532161cc2f555bd8d320f7ca5051b2f2a7b",
    ),
    ("census", 3): (
        "ee95a65c369492e00ab5eb2576ed87a62ceeac44f668a593e8077288df32e4f7",
        "afbd33e93994d742fa36aa4cad8b6eb1316a00f9f7c7392746e9fc0c681073b8",
    ),
    ("census", 4): (
        "69690c9a941976b0791808d90b285918b7294164b1bafb15b132cebcb538ade8",
        "c51bd442a55734213227dd4664db245143e8cfa773051acc2d0ff156f18d386f",
    ),
    ("census", 5): (
        "f1948f91adf45e6b6907d34c4bed6d6a2e1837d8382c0c92225499607b06f72c",
    ),
    ("census", 21): (
        "c85e50d143ed53342e393db5b96c535d39496869dec7b14fc881579601f612a5",
        "1bdd48442bcc51b246f0d4aa501fc0781b713360f4c94084747a3627f953454c",
        "c795c99713471d5b6fe7a21e4db7e790e17241ddbe724e0303564295eccf66d0",
    ),
    ("census", 28): (
        "6f786490209b530edcb8293dbd0ca08b3b983df1ff8e2c1ab3fea964968f140b",
        "a2bd5a6d491da0f9ff4725407733950ba761e0db743811281625f5a6d08b63c2",
        "a4c0308d9febc58b708ca5fecda9ce0d76d42d3767d30e0874f0f753cc7a0d32",
    ),
    ("census", 29): (
        "7f6471f3b4d0d1c25c70842b558b1aa6a59ad18f7fd5ccef4ef4b752d8482435",
    ),
    ("census", 154): (
        "276ecb44a91bf2a6f7172e2379daf8de922f1585f3d02c420bb39ff30ec3dba1",
        "eb50e45ed644802107bbf6c5f02d2b9fba37ec5337c9e979055b3a3999ee23cd",
        "6eff9c2d604791d65703615d3d464c67f3782e77ff4ca66c867accf3bc5ba4dc",
        "0845716885fd9868690852aa95df82dee3e8a88196b8508441298d70ff9a6b9e",
    ),
    ("census", 203): (
        "f0e838eedbef8d53f2c74bc93c5731a05fdeaf9e76f6a81e49949db251823059",
        "b1faf82d8cc01717be043102c37a5605434428b12a13c6d934ae58f14e7f5950",
        "7c3b641e63b6fd988a34aa295315f5b30e69f55167cfd3e47d8d53f2418cf55a",
        "21a08e834ac366364a592ecb2fa4c27e7c26134c259500016ec696a48c9162eb",
    ),
    ("census", 204): (
        "46c4237159a6276fa13a3113f0af931f195afab38491829f505582e0cc5b5977",
        "b4a843571318a39fd68657e175a9c7dba4a8a899542d27f1a00f53707823d4df",
    ),
    ("census", 214): (
        "ce80d9846027d4a3959f746fa83568b65d517397e0a39bd6c6f3e340a28b9fb3",
        "98bbe0684d74791e14056785d1ad51fa1fd2066dd37663363ae733073c085d1d",
        "265608273ce4f9e37b7ba1ea10b2dee195eaae40662bb1b71c4345f7381bd2f9",
        "516809c3ee7be88cec604848e9d7a3f84b09479bd119ece524c91bc270947a15",
    ),
    ("census", 215): (
        "177bf8dbf1a5615755c073bb32862dbab3552373e6b75b7a80c96e24e15dedd5",
        "49aa8ae8422169b8fede6e6e8a0d9f009d907519035c7903c6cb56a71352ffd2",
    ),
    ("census", 216): (
        "74529776c5606a99bf872faab0a0ecc5e4093d4ea657941e433f86c791b757e3",
    ),
    ("census", 217): (
        "74529776c5606a99bf872faab0a0ecc5e4093d4ea657941e433f86c791b757e3",
    ),
    ("random_rees", 2, 2, "z2", 1): (
        "9abf9fa10227e9d067f945926574b7be4de1d859057a2bcd3f982fc1fed02e1f",
        "b1525aee581c4bbc9ad4afae72f5de831935a94a0849b15938fce6f0b85655f5",
        "0ae3496a3020165a2dedc6612e037247683fd20d174580b5690bc1fbb5305a69",
        "fa58cef836eaa0568e762121d8c8d51bba30d1b79da49f9b790c81f29b94729f",
    ),
    ("random_rees", 2, 2, "z2", 2): (
        "1b7e614cee63849fac227ed853c481b8ba8b67a6a3e32432e4d5e71c258c2c1e",
        "9fdf5dc3474aedcd90ab8f7e58508e6597b5a71d7f790654587fda63db346b7f",
        "03917b5cce555a466e2ee6b28007184bfbb6a7bd0ce2b91cd3412948703b2811",
        "a28a0baed53de3e78eda4193653ae4073b996a2de71a5cc394dc8c735e2aa695",
    ),
    ("random_rees", 2, 3, "z2", 2): (
        "bfbe581d8dc2585dfd059c3ab4e0dff7558a75286f75d291145a3fc15007c060",
        "49b499bcc5df11dfbc3d911a7eb251a377b2a7ada80d3ba08bde739b446de772",
        "97858f3acb7ecf98777e4bd84c75a1c8fd3b728b307c94799fe7d801aef9d518",
        "e67a2db09befd2c7a27da42586c3fa92f7e6d817c3749f9189523840f70d7e28",
        "3d5947832a193f23e5ec91de3a002a81125ac4601e0c4692a19f228267529f1b",
        "29aa29d79c9df9aec5d804afc5461659139257f848d79bdea885e2fd399fb674",
    ),
    ("random_rees", 3, 2, "z2", 3): (
        "7017d048bc8f4cef96342fca600f27ff8bc0e78dbbd65d5d17af6a98a504a6c4",
        "063cdc8d6f9b165782f12ff4b7bdc260c3de894fb73ffd4bad9e4824aada5f19",
        "2351305e4d438ff108f81022d77d3c754aa640e8d622574276baeb47511fbac0",
        "e6a3583f29e167fe5ad6951b48cfd4cb891a1311e8ca4836f949684b53cf249d",
        "3349309cc1c7985f09196c66d67600ced5d99192c7e4f56c68b6bb9b8a135b15",
        "04cb4b74aad5d4be3b06a4c2373d9db80e422e9e72fbbf37e7abccdbf23b5b74",
    ),
}


def test_decompose_structured_bytes_pinned(census4, tmp_path, capsys):
    instances = {("census", k): S for k, S in enumerate(census4) if sk.is_completely_simple(S)}
    instances.update(
        {key: gen_random_rees(*key[1:]).realized for key in DECOMPOSE_SHA256 if key[0] == "random_rees"}
    )
    assert instances.keys() == DECOMPOSE_SHA256.keys()
    path = tmp_path / "s.sg"
    for key, S in instances.items():
        sk.write_sg(S, path)
        digests = []
        for e in sk.idempotents(S):
            assert main(["--format", "structured", "decompose", str(path), "--base-idempotent", str(e)]) == 0
            digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
        assert tuple(digests) == DECOMPOSE_SHA256[key], key


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


@pytest.mark.parametrize("exists", [True, False])
def test_verify_refuses_file_with_corpus(z3_file, tmp_path, capsys, exists):
    # a FILE beside --corpus DIR is refused, not silently dropped, even a
    # missing FILE beside an empty DIR
    empty = tmp_path / "empty"
    empty.mkdir()
    path = z3_file if exists else str(tmp_path / "a.sg")
    assert main(["verify", path, "--corpus", str(empty)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "not both" in out.err


def test_structured_mode_renders_no_human_text(monkeypatch, pb_file, capsys):
    def refuse(*args):
        raise AssertionError("human text rendered in structured mode")

    monkeypatch.setattr(cli_mod, "_eggbox_ascii", refuse)
    assert main(["--format", "structured", "greens", pb_file]) == 0
    assert json.loads(capsys.readouterr().out)["d_classes"]
    with pytest.raises(AssertionError, match="human text"):
        main(["greens", pb_file])


def test_structured_quotient_builds_no_sg_text(monkeypatch, pb_file, capsys):
    # without -o, the quotient's .sg text is built only when it is printed
    def refuse(*args):
        raise AssertionError("quotient text built")

    monkeypatch.setattr(cli_mod, "dumps_sg", refuse)
    assert main(["--format", "structured", "quotient", pb_file, "--ideal", "0,1"]) == 0
    assert json.loads(capsys.readouterr().out)["table"] == [[0, 0, 0], [0, 1, 1], [0, 2, 2]]
    with pytest.raises(AssertionError, match="quotient text"):
        main(["quotient", pb_file, "--ideal", "0,1"])


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


def test_main_calls_share_no_state(pb_file, tmp_path, capsys):
    # no option of one call reaches the next
    dot = tmp_path / "egg.dot"
    assert main(["--format", "structured", "greens", pb_file, "--dot", str(dot)]) == 0
    first = capsys.readouterr().out
    dot.unlink()
    assert main(["--format", "structured", "greens", pb_file]) == 0
    assert capsys.readouterr().out == first and not dot.exists()
    assert main(["greens", pb_file]) == 0  # human, the default
    assert capsys.readouterr().out.startswith("D-class 0:")


def json_oracle(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()


@given(st.recursive(_SCALARS, lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner), max_leaves=30))
@example({"": [], "é\"\\": [{}, [[]], "\u2028\x00😀"], "a": [1, -2, 2**70, True, None]})
@settings(max_examples=300, deadline=None)
def test_json_writer_matches_json_dumps(doc):
    assert cli_mod._json(doc) == json_oracle(doc)


def test_structured_output_matches_json_dumps(pb_file, z3_file, rb22, tmp_path):
    # every structured subcommand and the census manifest, written by the
    # writer and by json.dumps: the same bytes, exit codes and files
    rb22_file = str(tmp_path / "rb22.sg")
    sk.write_sg(rb22, rb22_file)
    argvs = [["census", "--max-order", "2", "-o", str(tmp_path / "c2")],
             ["verify", "--corpus", str(tmp_path / "c2")],
             ["gen", "rect_band:2,2", "-o", str(tmp_path / "g.sg")]]
    for path in (pb_file, z3_file, rb22_file):
        ideal = ",".join(map(str, sk.kernel(sk.read_sg(path)).kernel.members))
        argvs += [[sub, path] for sub in ("validate", "report", "greens", "kernel", "decompose", "subsemigroups")]
        argvs += [["quotient", path, "--ideal", ideal], ["quotient", path, "--ideal", ideal, "-o", str(tmp_path / "q.sg")]]
    for argv in argvs:
        outs = []
        for writer in (cli_mod._json, json_oracle):
            sink = io.StringIO()
            with mock.patch.object(cli_mod, "_json", writer), contextlib.redirect_stdout(sink):
                rc = main(["--format", "structured", *argv])
            manifest = (tmp_path / "c2" / "manifest.json").read_bytes() if argv[0] == "census" else None
            outs.append((rc, sink.getvalue(), manifest))
        assert outs[0] == outs[1], argv
        assert outs[0][0] == (2 if argv[:2] == ["decompose", pb_file] else 0), argv  # pb is not simple


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
