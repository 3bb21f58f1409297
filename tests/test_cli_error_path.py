"""The CLI's one error path: bad input files and bundles end in exit 1 with
a single ``error:`` line, never a traceback."""

import json

import pytest

from mrlrc import constructions
from mrlrc.cli import main
from test_cli import bundle  # noqa: F401  (the gen bundle fixture)


@pytest.mark.parametrize("command,text", [
    ("encode", "1 2 3 4 é\n"),
    ("decode", "? ? ü 0 0 0 0 0 0 0\n"),
], ids=["encode", "decode"])
def test_non_ascii_input_file(bundle, tmp_path, capsys, command, text):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    assert main([command, str(bundle), str(path)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(path) in lines[0] and "Traceback" not in captured.err
    assert captured.out == ""


# the gen bundle has n = 10, k = 5, so H should be 5 x 10
@pytest.mark.parametrize("rows,cols", [(0, 40), (5, 11)],
                         ids=["no-rows", "one-column-too-many"])
def test_bundle_without_g_checks_h_before_the_dual(bundle, capsys,
                                                   monkeypatch, rows, cols):
    # a mis-shaped H must be refused before dual_matrix sizes a kernel on it
    doc = json.loads(bundle.read_text())
    hpath = bundle.parent / doc["matrices"]["H"]
    hpath.write_text(f"srmat p=3 e=3 rows={rows} cols={cols}\n"
                     + f"{' '.join(['0'] * cols)}\n" * rows)
    bundle.write_text(json.dumps({**doc, "matrices": {"H": doc["matrices"]["H"]}}))

    def fail(mat):
        raise AssertionError("dual_matrix called on an unchecked H")

    monkeypatch.setattr(constructions, "dual_matrix", fail)
    with pytest.raises(ValueError, match="shapes"):
        constructions.read_bundle(bundle)
    assert main(["verify", str(bundle)]) == 1
    err = capsys.readouterr().err
    assert "error: cannot load bundle" in err and "Traceback" not in err


@pytest.fixture(scope="module")
def huge_bundle(tmp_path_factory):
    # pc1 (r, delta, t, g, N) = (6, 6, 1, 1, 10), h = 1 builds over GF(11^10)
    # and has about 9.6e24 maximal patterns in its one group
    out = tmp_path_factory.mktemp("huge")
    assert main(["construct", "--kind", "pc1", "--r", "6", "--delta", "6",
                 "--t", "1", "--g", "1", "--N", "10", "--h", "1",
                 "--out", str(out)]) == 0
    return str(out / "bundle.json")


@pytest.mark.parametrize("argv", [
    ["verify"], ["verify", "--side", "parity"], ["verify", "--mode", "sampled"],
    ["simulate", "--trials", "10", "--model", "adversarial_maximal"],
], ids=["generator", "parity", "sampled", "adversarial"])
def test_pattern_cap_ends_in_an_error_line(huge_bundle, argv, capsys):
    capsys.readouterr()
    assert main(argv[:1] + [huge_bundle] + argv[1:]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "exceed the cap" in lines[0] and captured.out == ""
