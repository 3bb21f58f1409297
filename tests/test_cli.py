"""CLI surface: flags, exit codes, file formats."""

import json
import re
import time

import pytest

from mrlrc.cli import main
from mrlrc.constructions import KINDS

GEN_ARGS = ["construct", "--kind", "gen", "--r", "2", "--delta", "2",
            "--t", "1", "--N", "2", "--g", "2", "--k", "5"]


@pytest.fixture()
def bundle(tmp_path):
    out = tmp_path / "b"
    assert main(GEN_ARGS + ["--out", str(out)]) == 0
    return out / "bundle.json"


def test_construct_writes_bundle(bundle, capsys):
    assert bundle.exists()
    doc = json.loads(bundle.read_text())
    assert doc["kind"] == "gen" and doc["k"] == 5 and doc["h"] == 1
    assert (bundle.parent / doc["matrices"]["G"]).exists()
    assert (bundle.parent / doc["matrices"]["H"]).exists()


def test_construct_rejects_bad_params(tmp_path, capsys):
    rc = main(["construct", "--kind", "pc1", "--r", "2", "--delta", "2",
               "--t", "1", "--N", "2", "--g", "2", "--h", "3",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "h <= r" in capsys.readouterr().err


@pytest.mark.parametrize("kind,flag,message", [
    ("gen", "--k", "0 <= k <= g(t+N(r-t)) violated: k = -1, bound = 6"),
    ("pc1", "--h", "0 <= h <= g(t+N(r-t)) violated: h = -1, bound = 6"),
    ("pc1", "--k", "0 <= k <= g(t+N(r-t)) violated: k = -1, bound = 6"),
    ("gen", "--h", "0 <= h <= g(t+N(r-t)) violated: h = 9, bound = 6"),
])
def test_construct_negative_dimension_states_both_bounds(tmp_path, capsys,
                                                         kind, flag, message):
    # the size passed is the one the message names, whatever the kind
    value = re.search(r"= (-?\d+),", message).group(1)
    rc = main(["construct", "--kind", kind, "--r", "2", "--delta", "2",
               "--t", "1", "--N", "2", "--g", "2", flag, value,
               "--out", str(tmp_path / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_construct_usage_error(tmp_path, capsys):
    assert main(["construct", "--kind", "gen", "--r", "2",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: mrlrc construct")
    assert "mrlrc construct: error: the following arguments are required" in err
    assert "--delta" in err.split("error:")[1]


BOUNDS_ARGS = ["bounds", "--r", "2", "--delta", "2", "--t", "1", "--g", "2",
               "--N", "2"]


def test_bounds_bad_integer_names_the_flag(capsys):
    assert main(BOUNDS_ARGS + ["--k", "x"]) == 1
    err = capsys.readouterr().err
    assert "mrlrc bounds: error: argument --k: invalid int value: 'x'" in err


@pytest.mark.parametrize("flag,value,message", [
    ("--k", "100", "0 <= k <= g(t+N(r-t)) violated: k = 100, bound = 6"),
    ("--h", "-3", "0 <= h <= g(t+N(r-t)) violated: h = -3, bound = 6"),
])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_bounds_out_of_range_size_exits_1(capsys, flag, value, message, json_flag):
    assert main(BOUNDS_ARGS + [flag, value] + json_flag) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_bounds_too_long_to_print_exits_1(capsys, json_flag):
    # h = 1999: each kind's field-size bound has about 6600 decimal digits,
    # more than the 4300 that CPython converts; nothing is half written
    argv = ["bounds", "--r", "2000", "--delta", "2", "--t", "1", "--g", "1",
            "--N", "1", "--k", "1"]
    assert main(argv + json_flag) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a bound has more than 4300 decimal digits, "
                            "the limit for writing an integer\n")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_bounds_too_long_is_refused_before_any_power(capsys, json_flag):
    # r = 10^8 makes gen's bound (10^8 + 1)^(10^8), pc1's (10^8 + 1)^(10^8 - 1)
    # and pc2's (10^8)^(10^8 + 1): each has about 8 * 10^8 digits, which
    # its exponent tells before any of them is computed
    argv = ["bounds", "--r", "100000000", "--delta", "2", "--t", "1",
            "--g", "1", "--N", "1", "--k", "1"]
    start = time.monotonic()
    assert main(argv + json_flag) == 1
    assert time.monotonic() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a bound has more than 4300 decimal digits, "
                            "the limit for writing an integer\n")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_bounds_field_order_over_the_limit_is_inapplicable(tmp_path, capsys, json_flag):
    # g = 10^18 asks for a base field of order at least g + 1 > 2^40, which
    # no FieldCtx builds; with r = t = 1 every bound is short (pc2's is
    # (n/g - 1)^ell = 0), so each kind is refused before any prime-power
    # search
    g = 10 ** 18
    sizes = ["--r", "1", "--delta", "2", "--t", "1", "--g", str(g),
             "--N", "1", "--k", str(g - 1)]
    start = time.monotonic()
    assert main(["bounds"] + sizes + json_flag) == 0
    assert time.monotonic() - start < 1
    out = capsys.readouterr().out
    refused = ("q >= max(g+1, r+delta-1) = 1000000000000000001 exceeds the "
               "field order limit 1099511627776")
    if json_flag:
        row = json.loads(out)
        assert row["gen"] == row["pc1"] == row["pc2"] == {"inapplicable": refused}
    else:
        for kind in KINDS:
            assert f"  {kind}: inapplicable ({refused})" in out.splitlines()
    start = time.monotonic()
    assert main(["construct", "--kind", "gen"] + sizes + ["--out", str(tmp_path)]) == 1
    assert time.monotonic() - start < 1
    assert capsys.readouterr().err == f"error: {refused}\n"
    assert not (tmp_path / "bundle.json").exists()
    # with r = 2 pc2's bound 2^ell, ell about 2 * 10^18, is too long to
    # write, which ends the command first
    argv = ["bounds", "--r", "2", "--delta", "2", "--t", "1", "--g", str(g),
            "--N", "1", "--k", "1"]
    assert main(argv + json_flag) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a bound has more than 4300 decimal digits, "
                            "the limit for writing an integer\n")


@pytest.mark.parametrize("g", [2 ** 40 - 1, 2 ** 40])
def test_bounds_too_long_exits_1_on_both_sides_of_the_field_order_limit(capsys, g):
    # q >= g + 1 is 2^40, the limit, or one past it; pc2's bound 2^ell is
    # too long to write either way, and the answer does not change with it
    argv = ["bounds", "--r", "2", "--delta", "2", "--t", "1", "--g", str(g),
            "--N", "1", "--k", "1"]
    start = time.monotonic()
    assert main(argv) == 1
    assert time.monotonic() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a bound has more than 4300 decimal digits, "
                            "the limit for writing an integer\n")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_bounds_asymptotic_too_long_exits_1(capsys, json_flag):
    # gen's bound is (g+1)^3, but the lower bound's asymptotic g t r^expo
    # has expo = N(delta-1) = 10^9: it is refused as every bound is, before
    # the power is taken
    argv = ["bounds", "--r", "3", "--delta", "2", "--t", "3", "--g", "1000000002",
            "--N", "1000000000", "--k", "1000000002"]
    start = time.monotonic()
    assert main(argv + json_flag) == 1
    assert time.monotonic() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a bound has more than 4300 decimal digits, "
                            "the limit for writing an integer\n")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("h", ["200000002", "100000002"], ids=["regime_A", "regime_B"])
def test_bounds_lower_bound_too_long_exits_1(capsys, h, json_flag):
    # the lower bound's binomial power is 6^(10^8) in regime A and 3^(10^8)
    # in regime B: it is refused before it is taken, as every bound is
    argv = ["bounds", "--r", "3", "--delta", "3", "--t", "1", "--g", "1099511627776",
            "--N", "100000000", "--h", h]
    start = time.monotonic()
    assert main(argv + json_flag) == 1
    assert time.monotonic() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a bound has more than 4300 decimal digits, "
                            "the limit for writing an integer\n")


@pytest.mark.parametrize("size", [[], ["--k", "4", "--h", "2"]],
                         ids=["neither", "both"])
@pytest.mark.parametrize("command", ["construct", "bounds"])
def test_exactly_one_of_k_and_h(command, size, tmp_path, capsys):
    if command == "construct":
        argv = GEN_ARGS[:-2] + size + ["--out", str(tmp_path)]
    else:
        argv = BOUNDS_ARGS + size
    assert main(argv) == 1
    err = capsys.readouterr().err
    reason = ("not allowed with argument" if size
              else "one of the arguments --k --h is required")
    assert f"mrlrc {command}: error: " in err and reason in err
    assert not (tmp_path / "bundle.json").exists()


def test_verify_exhaustive_pass(bundle, tmp_path, capsys):
    report = tmp_path / "rep.json"
    rc = main(["verify", str(bundle), "--report", str(report)])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    doc = json.loads(report.read_text())
    assert doc["verdict"] == "pass" and doc["patterns_checked"] == 64


def test_verify_sampled_deterministic(bundle, tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", str(bundle), "--mode", "sampled", "--trials", "60",
                 "--seed", "5", "--report", str(r1)]) == 0
    assert main(["verify", str(bundle), "--mode", "sampled", "--trials", "60",
                 "--seed", "5", "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


@pytest.mark.parametrize("flags,message", [
    (["--trials", "5"], "--trials applies to --mode sampled only, not exhaustive"),
    (["--seed", "3"], "--seed applies to --mode sampled only, not exhaustive"),
    (["--mode", "exhaustive", "--seed", "0"],
     "--seed applies to --mode sampled only, not exhaustive"),
    (["--mode", "sampled", "--side", "parity"],
     "--side applies to --mode exhaustive only, not sampled"),
    (["--mode", "sampled", "--side", "generator", "--trials", "5"],
     "--side applies to --mode exhaustive only, not sampled"),
], ids=["trials", "seed", "explicit-exhaustive", "side", "side-default-value"])
def test_verify_refuses_a_flag_its_mode_ignores(bundle, tmp_path, capsys, flags, message):
    report = tmp_path / "rep.json"
    capsys.readouterr()
    assert main(["verify", str(bundle), "--report", str(report)] + flags) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert not report.exists()


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
@pytest.mark.parametrize("command", [
    ["verify", "--mode", "sampled", "--trials", "3"],
    ["simulate", "--trials", "3", "--model", "per_group_burst"],
], ids=["verify", "simulate"])
def test_seed_outside_64_bits_exits_1(bundle, tmp_path, capsys, command, seed):
    # the report records the seed as given, so one the generator would
    # reduce mod 2^64 is refused before any report is written
    report = tmp_path / "rep.json"
    capsys.readouterr()
    assert main([command[0], str(bundle), *command[1:], "--seed", seed,
                 "--report", str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: seed must be in [0, 2^64), got {seed}\n"
    assert captured.out == "" and not report.exists()


def test_verify_defaults_are_the_documented_values(bundle, tmp_path):
    def report(*flags):
        path = tmp_path / "rep.json"
        assert main(["verify", str(bundle), "--report", str(path), *flags]) == 0
        return path.read_bytes()

    assert report() == report("--side", "generator")
    assert (report("--mode", "sampled")
            == report("--mode", "sampled", "--trials", "1000", "--seed", "0"))


def test_verify_corrupted_srmat_fails(bundle, capsys):
    doc = json.loads(bundle.read_text())
    gpath = bundle.parent / doc["matrices"]["G"]
    lines = gpath.read_text().splitlines()
    head, first = lines[0], lines[1].split()
    first[0] = "0" if first[0] != "0" else "1"
    gpath.write_text("\n".join([head, " ".join(first)] + lines[2:]) + "\n")
    rc = main(["verify", str(bundle)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "FAIL" in out and "witness" in out


@pytest.mark.parametrize("edit,message", [
    (lambda head, rows: [head] + rows + rows[:1],
     "SRMAT row count mismatch: the header says 5 rows, the payload has 6"),
    (lambda head, rows: [head.replace("rows=5", "rows=0")] + rows,
     "SRMAT row count mismatch: the header says 0 rows, the payload has 5"),
    (lambda head, rows: [head.replace(" cols=10", "")] + rows,
     "SRMAT header has no cols= field"),
], ids=["surplus-row", "rows-0-with-data", "no-cols"])
def test_verify_rejects_malformed_srmat(bundle, capsys, edit, message):
    doc = json.loads(bundle.read_text())
    gpath = bundle.parent / doc["matrices"]["G"]
    head, *rows = gpath.read_text().splitlines()
    assert head.endswith(" rows=5 cols=10")
    gpath.write_text("\n".join(edit(head, rows)) + "\n")
    capsys.readouterr()
    assert main(["verify", str(bundle)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot load bundle {bundle}: {message}\n"
    assert captured.out == ""


def test_verify_rejects_bundle_with_wrong_h(bundle, capsys):
    doc = json.loads(bundle.read_text())
    for bad in ({**doc, "h": 0}, {**doc, "h": "x"}, [1, 2]):
        bundle.write_text(json.dumps(bad))
        assert main(["verify", str(bundle), "--side", "parity"]) == 1
        err = capsys.readouterr().err
        assert "error: cannot load bundle" in err and "Traceback" not in err


def test_verify_rejects_bundle_with_huge_extension_degree(bundle, capsys):
    # the tower comes from the plan, so the edited degree is refused
    # before any field is sized
    doc = json.loads(bundle.read_text())
    bundle.write_text(json.dumps({**doc, "m": 10 ** 12}))
    t0 = time.monotonic()
    assert main(["verify", str(bundle)]) == 1
    assert time.monotonic() - t0 < 1.0
    err = capsys.readouterr().err
    assert "error: cannot load bundle" in err
    assert f"bundle m = {10 ** 12} differs from the plan's 3" in err


@pytest.mark.parametrize("sizes,order", [
    (("11", "2", "1", "1", "1"), "13^11"),
    (("12", "1", "1", "1", "1"), "13^12"),
], ids=["r11-delta2", "r12-delta1"])
def test_gen_realized_past_the_order_limit_is_inapplicable(tmp_path, capsys, sizes, order):
    # max(g+1, r+delta-1) = 12 fits, but gen's realized field 13^m does not:
    # bounds marks gen inapplicable with the message construct exits 1 with
    args = [f"--{name}={value}" for name, value in
            zip(("r", "delta", "t", "g", "N"), sizes)] + ["--k", "5"]
    refused = f"p^e = {order} exceeds the {1 << 40} limit"
    assert main(["bounds", "--json"] + args) == 0
    assert json.loads(capsys.readouterr().out)["gen"] == {"inapplicable": refused}
    assert main(["bounds"] + args) == 0
    assert f"  gen: inapplicable ({refused})" in capsys.readouterr().out.splitlines()
    assert main(["construct", "--kind", "gen"] + args + ["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {refused}\n"


def test_construct_beyond_the_order_limit_exits_1(tmp_path, capsys):
    # pc2 (3, 3, 1, 3, 2), h = 1 plans GF(5^32): the order bound is checked
    # before the field is sized
    t0 = time.monotonic()
    assert main(["construct", "--kind", "pc2", "--r", "3", "--delta", "3",
                 "--t", "1", "--g", "3", "--N", "2", "--h", "1",
                 "--out", str(tmp_path)]) == 1
    assert time.monotonic() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.err == f"error: p^e = 5^32 exceeds the {1 << 40} limit\n"
    assert captured.out == ""


@pytest.mark.parametrize("edit", [{"a": 5}, {"beta": None}, {"matrices": []},
                                  {"matrices": {"H": 5}}, {"p": "2"}],
                         ids=["a-int", "beta-null", "matrices-list",
                              "matrices-H-int", "p-str"])
def test_verify_rejects_bundle_with_mistyped_field(bundle, capsys, edit):
    doc = json.loads(bundle.read_text())
    bundle.write_text(json.dumps({**doc, **edit}))
    assert main(["verify", str(bundle)]) == 1
    err = capsys.readouterr().err
    assert "error: cannot load bundle" in err and "Traceback" not in err
    assert next(iter(edit)) in err


@pytest.mark.parametrize("args", [["verify"], ["encode", "msg.txt"], ["decode", "msg.txt"],
                                  ["simulate", "--trials", "1", "--model", "uniform_nodes"]],
                         ids=["verify", "encode", "decode", "simulate"])
def test_deeply_nested_bundle_exits_1_without_a_traceback(tmp_path, capsys, args):
    # json.load recurses once per bracket, so the nesting ends in a
    # RecursionError, which read_bundle reports as a ValueError
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000 + "]" * 200_000)
    (tmp_path / "msg.txt").write_text("1 2 3 4 5\n")
    command, *rest = args
    rest = [str(tmp_path / a) if a.endswith(".txt") else a for a in rest]
    assert main([command, str(nested), *rest]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: cannot load bundle {nested}: "
                            "JSON nested too deeply to parse\n")
    assert captured.out == ""


def test_verify_rejects_bundle_with_unknown_kind(bundle, capsys):
    doc = json.loads(bundle.read_text())
    bundle.write_text(json.dumps({**doc, "kind": "pc3"}))
    assert main(["verify", str(bundle)]) == 1
    err = capsys.readouterr().err
    assert "error: cannot load bundle" in err and "Traceback" not in err
    assert "unknown kind 'pc3'" in err


def test_encode_decode_round_trip(bundle, tmp_path, capsys):
    msg = tmp_path / "msg.txt"
    msg.write_text("1 2 3 4 5\n")
    cw = tmp_path / "cw.txt"
    assert main(["encode", str(bundle), str(msg), "--out", str(cw)]) == 0
    symbols = cw.read_text().split()
    assert len(symbols) == 10

    word = tmp_path / "word.txt"
    erased = ["?", "?"] + symbols[2:]
    word.write_text(" ".join(erased) + "\n")
    out = tmp_path / "decoded.txt"
    assert main(["decode", str(bundle), str(word), "--out", str(out)]) == 0
    assert out.read_text().split() == symbols


def test_decode_unrecoverable_exit_code(bundle, tmp_path, capsys):
    word = tmp_path / "word.txt"
    word.write_text(" ".join(["?"] * 10) + "\n")
    rc = main(["decode", str(bundle), str(word)])
    assert rc == 2
    assert "unrecoverable" in capsys.readouterr().out


def test_decode_rejects_wrong_length(bundle, tmp_path):
    word = tmp_path / "word.txt"
    word.write_text("1 2 3\n")
    assert main(["decode", str(bundle), str(word)]) == 1


def test_decode_rejects_symbol_outside_the_field(bundle, tmp_path, capsys):
    # GF(27): 27 is not a field element, whether or not the word decodes
    word = tmp_path / "word.txt"
    for text in ("? ? 27 0 0 0 0 0 0 0", "27 ? ? ? ? ? ? ? ? ?"):
        word.write_text(text + "\n")
        assert main(["decode", str(bundle), str(word)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 27 is not an element") and "Traceback" not in err


def test_encode_message_length_checked(bundle, tmp_path):
    msg = tmp_path / "short.txt"
    msg.write_text("1 2\n")
    assert main(["encode", str(bundle), str(msg)]) == 1


def test_encode_refusals_print_one_error_line(bundle, tmp_path, capsys):
    # GF(27), k = 5
    msg = tmp_path / "msg.txt"
    for text, err in (("1 2", "error: message length must be k = 5\n"),
                      ("1 2 27 4 5", "error: 27 is not an element of GF(3^3)\n")):
        msg.write_text(text + "\n")
        assert main(["encode", str(bundle), str(msg)]) == 1
        assert capsys.readouterr().err == err


def test_encode_non_integer_symbol_is_usage_error(bundle, tmp_path, capsys):
    msg = tmp_path / "msg.txt"
    msg.write_text("1 2 x 4 5\n")
    assert main(["encode", str(bundle), str(msg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'x'" in err


def test_decode_non_integer_symbol_is_usage_error(bundle, tmp_path, capsys):
    word = tmp_path / "word.txt"
    word.write_text("? ? 1.5 0 0 0 0 0 0 0\n")
    assert main(["decode", str(bundle), str(word)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'1.5'" in err


def test_simulate_report(bundle, tmp_path, capsys):
    rep = tmp_path / "sim.json"
    rc = main(["simulate", str(bundle), "--trials", "100", "--seed", "7",
               "--model", "adversarial_maximal", "--report", str(rep)])
    assert rc == 0
    doc = json.loads(rep.read_text())
    assert doc["outcomes"]["data_loss"] == 0
    assert sum(doc["outcomes"].values()) == 100


def test_simulate_deterministic_bytes(bundle, tmp_path):
    r1, r2 = tmp_path / "s1.json", tmp_path / "s2.json"
    for rp in (r1, r2):
        assert main(["simulate", str(bundle), "--trials", "80", "--seed", "3",
                     "--model", "uniform_nodes", "--failures", "2",
                     "--report", str(rp)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_simulate_failures_beyond_n_is_usage_error(bundle, capsys):
    rc = main(["simulate", str(bundle), "--trials", "5", "--model",
               "uniform_nodes", "--failures", "11"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "failures = 11 > n = 10" in err


@pytest.mark.parametrize("model,flag", [("per_group_burst", "--failures"),
                                        ("adversarial_maximal", "--failures"),
                                        ("per_group_burst", "--extra"),
                                        ("uniform_nodes", "--extra")])
def test_simulate_flag_of_another_model_is_usage_error(bundle, capsys, model, flag):
    extra = ["--failures", "2"] if model == "uniform_nodes" else []
    rc = main(["simulate", str(bundle), "--trials", "5", "--model", model,
               flag, "3", *extra])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert flag[2:] + " applies to" in err


def test_simulate_negative_extra_is_usage_error(bundle, capsys):
    rc = main(["simulate", str(bundle), "--trials", "5", "--model",
               "adversarial_maximal", "--extra", "-1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "extra" in err


@pytest.mark.parametrize("extra,rc", [("18446744073709551615", 0),
                                       ("18446744073709551616", 1)])
def test_simulate_extra_at_the_64_bit_edge(bundle, capsys, extra, rc):
    # 2^64 - 1 is the largest extra a trial can draw up to; one more used to
    # hang the rejection loop and now ends with one error line, before any trial
    assert main(["simulate", str(bundle), "--trials", "1", "--seed", "1", "--model",
                 "adversarial_maximal", "--extra", extra]) == rc
    out, err = capsys.readouterr()
    if rc:
        assert out == ""
        assert err == f"error: extra must be in [0, 2^64), got {extra}\n"
    else:
        assert out.startswith("adversarial_maximal: trials=1 local=0 global=0 loss=1")


def test_bounds_fig1(capsys):
    rc = main(["bounds", "--r", "3", "--delta", "3", "--t", "2", "--g", "8",
               "--N", "2", "--k", "16"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "6561" in out                      # gen: 9^4
    assert "h <= r" in out                    # pc1 inapplicable: 16 > 3
    assert str(7 ** 64) in out                # pc2: (n/g - 1)^(g(N(delta-1)+t)+h)


def test_bounds_json_all_applicable(capsys):
    rc = main(["bounds", "--r", "2", "--delta", "2", "--t", "1", "--g", "2",
               "--N", "2", "--h", "1", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    for kind in ("gen", "pc1", "pc2"):
        assert "bound_value" in doc[kind]
    assert doc["lower_bound"]["regime"] == "none"  # h = 1 < 2


def test_bounds_h1_regime_none(capsys):
    rc = main(["bounds", "--r", "2", "--delta", "2", "--t", "1", "--g", "4",
               "--N", "1", "--h", "1"])
    assert rc == 0
    assert "regime none" in capsys.readouterr().out


def test_missing_bundle_is_usage_error(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "nope.json")]) == 1
    assert "cannot load bundle" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_construct_pc2_bundle(tmp_path, capsys):
    out = tmp_path / "p2"
    rc = main(["construct", "--kind", "pc2", "--r", "2", "--delta", "2",
               "--t", "1", "--N", "1", "--g", "2", "--h", "1",
               "--out", str(out)])
    assert rc == 0
    assert "GF(3^5)" in capsys.readouterr().out
    doc = json.loads((out / "bundle.json").read_text())
    assert doc["m"] == 5 and doc["p"] == 3
    assert main(["verify", str(out / "bundle.json")]) == 0


@pytest.mark.parametrize("h", ["1", "2"])
def test_construct_pc1_with_wide_local_code(h, tmp_path, capsys):
    # n_loc = r + delta - 1 = 25: the 1 x 25 prefix check of the local
    # code sweeps only 25 column subsets
    out = tmp_path / "wide"
    rc = main(["construct", "--kind", "pc1", "--r", "24", "--delta", "2",
               "--t", "1", "--g", "1", "--N", "1", "--h", h,
               "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    report = tmp_path / "rep.json"
    assert main(["verify", str(out / "bundle.json"), "--side", "parity",
                 "--report", str(report)]) == 0
    assert json.loads(report.read_text())["verdict"] == "pass"


def test_bounds_sorted_ascending(capsys):
    rc = main(["bounds", "--r", "2", "--delta", "2", "--t", "1", "--g", "2",
               "--N", "2", "--h", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    bounds = [int(line.split("bound=")[1].split()[0])
              for line in out.splitlines() if "bound=" in line]
    assert bounds == sorted(bounds) and len(bounds) == 3
