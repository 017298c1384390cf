"""End-to-end command line runs: exit codes, reports, determinism."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from branegauge import groebner
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


def test_malformed_manifest_bytes_exit_two(tmp_path, capsys):
    # an inhomogeneous relation entry (line 6), then a 0xff byte (line 2)
    inhomogeneous = OK_MANIFEST.replace('[["x0"], ["x1"]]', '[["x0 + x1^2"]]')
    for data, line in ((inhomogeneous.encode(), 6),
                       (b"[ring]\n# \xff\nn = 1\n", 2)):
        p = tmp_path / "in.bg"
        p.write_bytes(data)
        assert main(["run", str(p)]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert f"(line {line})" in captured.err
        assert "Traceback" not in captured.err


LEVEL_MANIFEST = """\
[ring]
n = 1

[complex J]
degrees = -1..0
term -1 = O(-1)
term 0 = O(0)
map -1 = [["x0"]]

[task cone]
source = J
target = J
level -1 = [["1"]]
level 0 = [["{entry}"]]
level 7 = [["1"]]
"""


def test_level_outside_the_complexes_exits_two_on_its_line(tmp_path, capsys):
    code = _run(tmp_path, LEVEL_MANIFEST.format(entry="1"))
    captured = capsys.readouterr()
    assert code == 2
    assert not captured.out
    assert "level 7 outside" in captured.err and "(line 15)" in captured.err
    # a level inside the degrees that fails at run time names its own line
    text = LEVEL_MANIFEST.format(entry='1", "1').replace('level 7 = [["1"]]\n', "")
    code = _run(tmp_path, text)
    out = capsys.readouterr().out
    assert code == 2
    assert "status: error" in out
    assert "level 0: column 0 has 2 entries, expected 1 (line 14)" in out


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


def test_cech_task_reads_no_window_bound(tmp_path, capsys):
    text = """\
[ring]
n = 1

[task cech]
module = O(-5)
i = 1
"""
    # h^1(O(-5)) = 4 is exact by local duality; a Cech window would need
    # bound 4, and the command line has no bound to give
    code = _run(tmp_path, text)
    assert code == 0
    assert "dim: 4" in capsys.readouterr().out


def test_bad_cech_bound_rejected(tmp_path, capsys):
    # no certificate reads a truncation bound, so the option is gone: any
    # value is an unknown argument, exit 2, and no report
    for value in ("0", "3"):
        with pytest.raises(SystemExit) as e:
            _run(tmp_path, OK_MANIFEST, "--cech-bound", value)
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --cech-bound" in captured.err


def test_cold_import_loads_no_dataclasses_or_inspect():
    # the records are named tuples and slots classes, so a fresh import of
    # the command line pulls in neither module (nor what they import)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    probe = ("import sys; before = set(sys.modules); import branegauge.cli; "
             "print(sorted({'dataclasses', 'inspect'} "
             "& (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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


def test_matrix_key_on_a_task_that_takes_none_exits_two(tmp_path, capsys):
    # a shift never reads a matrix; the key is an error, not ignored
    text = """\
[ring]
n = 1

[complex K]
degrees = 0..0
term 0 = O(0)

[task shift]
complex = K
k = 1
matrix = [["1"]]
"""
    code = _run(tmp_path, text)
    captured = capsys.readouterr()
    assert code == 2
    assert "'matrix'" in captured.err and "(line 11)" in captured.err
    assert captured.out == ""


OUT_OF_RANGE = """\
[ring]
n = 2

[complex K]
degrees = 0..0
term 0 = {term}
{generators}
[task sheaf-hom]
source = {source}
target = O
"""


@pytest.mark.parametrize("term, generators, source, line, message", [
    ("O", "", "S(9)", 9, "S(9): generator index 9 outside 1..3"),
    ("S(0)", "", "O", 6, "S(0): generator index 0 outside 1..3"),
    ("S(1)", "generators 0 = [S(7)]\n", "O", 7,
     "generators 0: generator index 7 outside 1..3"),
    ("S(1)", "generators 0 = [Omega1]\n", "O", 7,
     "generators 0: brane component 'Omega1' is not of the form S(k) or O(a)"),
])
def test_bad_built_in_reference_exits_two_on_its_line(
        tmp_path, capsys, term, generators, source, line, message):
    # out-of-range built-ins and brane components no task reads are parse
    # errors on the key's line
    text = OUT_OF_RANGE.format(term=term, generators=generators, source=source)
    code = _run(tmp_path, text)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"brane-gauge: {message} (line {line})\n"


def test_a_failed_certificate_is_a_task_error(tmp_path, capsys, monkeypatch):
    real = groebner.syzygy_module

    def tampered(*args):
        # a fake syzygy e_0: the relation matrix does not kill it
        return real(*args) + [{(0, (0,) * args[-1]): 1}]

    monkeypatch.setattr(groebner, "syzygy_module", tampered)
    code = _run(tmp_path, OK_MANIFEST.split("\n[task annihilator]")[0])
    out = capsys.readouterr().out
    assert code == 2
    assert re.findall(r"status: (\w+)", out) == ["error", "ok"]
    assert "message: syzygy certification failed: m * syz != 0" in out
