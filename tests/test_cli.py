"""End-to-end command line runs: exit codes, reports, determinism."""

from branegauge.cli import main
from branegauge.reports import SCHEMA


OK_MANIFEST = """\
[ring]
n = 1

[module M]
twists = [0]
relations = [["x0"], ["x1"]]

[task resolve]
module = M

[task cech]
module = O(-2)
i = 1

[task annihilator]
module = M
"""

FALSE_MANIFEST = """\
[ring]
n = 2

[task disjointness]
i = 1
j = 1
"""

BAD_MANIFEST = """\
[ring]
n = 1

[task resolve]
module = Nope
"""


def _run(tmp_path, text, *extra):
    p = tmp_path / "in.bg"
    p.write_text(text)
    return main(["run", str(p), *extra])


def test_ok_run_exits_zero(tmp_path, capsys):
    code = _run(tmp_path, OK_MANIFEST)
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith(f"schema: {SCHEMA}")
    assert "status: ok" in out
    assert "dim: 1" in out          # h^1(O(-2)) on the line
    assert '"x0"' in out and '"x1"' in out  # annihilator generators


def test_false_claim_exits_one(tmp_path, capsys):
    code = _run(tmp_path, FALSE_MANIFEST)
    out = capsys.readouterr().out
    assert code == 1
    assert "status: false" in out


def test_structural_error_exits_two(tmp_path, capsys):
    code = _run(tmp_path, BAD_MANIFEST)
    err = capsys.readouterr().err
    assert code == 2
    assert "Nope" in err


def test_missing_file_exits_two(tmp_path, capsys):
    code = main(["run", str(tmp_path / "absent.bg")])
    assert code == 2
    assert capsys.readouterr().err


def test_report_file_matches_stdout(tmp_path, capsys):
    rp = tmp_path / "out.report"
    code = _run(tmp_path, OK_MANIFEST, "--report", str(rp))
    out = capsys.readouterr().out
    assert code == 0
    assert rp.read_text() == out


def test_double_run_byte_identical(tmp_path, capsys):
    _run(tmp_path, OK_MANIFEST)
    first = capsys.readouterr().out
    _run(tmp_path, OK_MANIFEST)
    second = capsys.readouterr().out
    assert first == second
    assert first.encode() == second.encode()


def test_cech_bound_flag_controls_window(tmp_path, capsys):
    text = """\
[ring]
n = 1

[task cech]
module = O(-5)
i = 1
"""
    # too narrow a window cannot stabilize: reported as a task error
    code = _run(tmp_path, text, "--cech-bound", "2")
    out = capsys.readouterr().out
    assert code == 2
    assert "status: error" in out
    # a wide enough window gives the true value
    code = _run(tmp_path, text, "--cech-bound", "4")
    out = capsys.readouterr().out
    assert code == 0
    assert "dim: 4" in out


def test_bad_cech_bound_rejected(tmp_path, capsys):
    code = _run(tmp_path, OK_MANIFEST, "--cech-bound", "0")
    assert code == 2


SES_MANIFEST = """\
[ring]
n = 1

[task triangle-from-ses]
source = O(-1)
target = O(0)
matrix = [["x0"]]
"""


def test_negative_max_degree_rejected(tmp_path, capsys):
    # an empty degree window would check no rank identity and pass
    code = _run(tmp_path, SES_MANIFEST, "--max-degree", "-1")
    captured = capsys.readouterr()
    assert code == 2
    assert "--max-degree" in captured.err
    assert captured.out == ""
    code = _run(tmp_path, SES_MANIFEST, "--max-degree", "0")
    out = capsys.readouterr().out
    assert code == 0
    assert "les-window: 0..0" in out and "les-ok: true" in out
