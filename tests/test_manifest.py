"""Manifest parsing: grammar, diagnostics, reference resolution, round trip."""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from branegauge.errors import BraneGaugeError, ManifestError
from branegauge.manifest import (
    _TASK_PARAMS,
    TASK_KINDS,
    _argument,
    _strip_comment,
    parse_manifest,
    print_manifest,
)
from branegauge.modules import hilbert_window


GOOD = """\
[ring]
n = 2

[module M]
twists = [0, 1]
relations = [["x0^2", "0"], ["x1^2", "x2"]]

[complex K]
degrees = 0..1
term 0 = O(-1)
term 1 = O(0)
map 0 = [["x0"]]

[task resolve]
module = M

[task cech]
module = O(-2)
i = 1
"""


def test_parse_good_manifest():
    m = parse_manifest(GOOD)
    assert m.n == 2
    assert "M" in m.modules
    assert "K" in m.complexes
    assert len(m.tasks) == 2
    assert m.tasks[0].kind == "resolve"


def test_module_with_two_generators():
    m = parse_manifest(GOOD)
    mod = m.modules["M"]
    assert mod.rank == 2
    # relations are column-major: each inner list is one relation column
    assert mod.relations.cols == 2
    assert str(mod.relations.entries[1][1]) == "x2"


def test_builtin_references_resolve():
    m = parse_manifest(GOOD)
    o2 = m.resolve_module("O(-2)")
    assert o2.rank == 1
    assert o2.cover_twists == (2,)
    om = m.resolve_module("Omega1")
    assert om.rank == 3  # pairs on the plane
    s = m.resolve_module("S(2)")
    assert hilbert_window(s, 0, 2) == [0, 1, 2]
    named = m.resolve_module("M")
    assert named is m.modules["M"]


def test_unknown_reference_has_line_info():
    bad = GOOD.replace("module = M", "module = Missing")
    with pytest.raises(ManifestError) as e:
        parse_manifest(bad)
    assert "Missing" in str(e.value)
    assert e.value.line is not None


def test_ring_block_must_come_first():
    text = "[module M]\ntwists = [0]\n\n[ring]\nn = 2\n"
    with pytest.raises(ManifestError) as e:
        parse_manifest(text)
    assert "ring" in str(e.value)


def test_duplicate_module_rejected():
    text = GOOD + "\n[module M]\ntwists = [0]\n"
    with pytest.raises(ManifestError) as e:
        parse_manifest(text)
    assert "M" in str(e.value)


def test_builtin_shadowing_rejected():
    text = GOOD + "\n[module Omega1]\ntwists = [0]\n"
    with pytest.raises(ManifestError):
        parse_manifest(text)


def test_bad_polynomial_diagnostic_carries_position():
    text = GOOD.replace('"x1^2"', '"x1^"')
    with pytest.raises(ManifestError) as e:
        parse_manifest(text)
    assert e.value.line is not None


def test_unknown_task_kind_lists_vocabulary():
    text = GOOD + "\n[task frobnicate]\nmodule = M\n"
    with pytest.raises(ManifestError) as e:
        parse_manifest(text)
    msg = str(e.value)
    assert "frobnicate" in msg
    assert "resolve" in msg  # the expected vocabulary is listed


def test_missing_required_param_rejected():
    text = GOOD + "\n[task cech]\nmodule = M\n"  # i missing
    with pytest.raises(ManifestError) as e:
        parse_manifest(text)
    assert "i" in str(e.value)


def test_complex_with_bad_square_rejected():
    text = """\
[ring]
n = 1

[complex B]
degrees = 0..2
term 0 = O(2)
term 1 = O(1)
term 2 = O(0)
map 0 = [["x0"]]
map 1 = [["x1"]]
"""
    with pytest.raises(ManifestError):
        parse_manifest(text)


def test_task_kind_vocabulary_is_complete():
    assert "resolve" in TASK_KINDS
    assert "gauge-bound" in TASK_KINDS
    assert "lem1-check" in TASK_KINDS
    assert len(TASK_KINDS) == 14


_COMPLEX_K = """\
[ring]
n = 1

[complex K]
degrees = 0..1
term 0 = O(-1)
term 1 = O(0)
map 0 = [["x0"]]

"""


@pytest.mark.parametrize("task, key", [
    ("[task shift]\ncomplex = K\nk = 1", "matrix"),
    ("[task resolve]\nmodule = O(0)", "level 0"),
    ("[task hom-complex]\nsource = K\ntarget = K", "level 1"),
    ("[task cone]\nsource = K\ntarget = K", "matrix"),
    ("[task triangle-from-ses]\nsource = O(-1)\ntarget = O(0)\n"
     'matrix = [["x0"]]', "level 0"),
], ids=["shift-matrix", "resolve-level", "hom-complex-level", "cone-matrix",
        "triangle-from-ses-level"])
def test_matrix_key_outside_the_task_schema_is_rejected(task, key):
    text = _COMPLEX_K + task + f'\n{key} = [["1"]]\n'
    with pytest.raises(ManifestError) as e:
        parse_manifest(text)
    assert repr(key) in str(e.value)
    assert e.value.line == text.count("\n")  # the key's own line


_COMPLEX_J = """\
[ring]
n = 1

[complex J]
degrees = -1..0
term -1 = O(-1)
term 0 = O(0)
map -1 = [["x0"]]

"""


@pytest.mark.parametrize("kind", ["cone", "quasi-iso"])
def test_level_outside_both_complexes_is_rejected_on_its_line(kind):
    text = (_COMPLEX_J + f"[task {kind}]\nsource = J\ntarget = J\n"
            'level -1 = [["1"]]\nlevel 0 = [["1"]]\nlevel 7 = [["1"]]\n')
    with pytest.raises(ManifestError) as e:
        parse_manifest(text)
    assert "level 7 outside" in str(e.value)
    assert e.value.line == text.count("\n")  # the key's own line
    # levels inside the degrees parse, each with its own line
    ok = text.replace('level 7 = [["1"]]\n', "")
    last = ok.count("\n")
    assert parse_manifest(ok).tasks[0].matrix_lines == {
        ("level", -1): last - 1, ("level", 0): last}


def test_triangle_from_ses_needs_its_matrix_at_parse_time():
    text = _COMPLEX_K + "[task triangle-from-ses]\nsource = O(-1)\ntarget = O(0)\n"
    with pytest.raises(ManifestError) as e:
        parse_manifest(text)
    assert "matrix" in str(e.value)
    assert e.value.line == _COMPLEX_K.count("\n") + 1  # the task header


def test_task_kinds_come_from_the_parameter_table():
    assert TASK_KINDS == tuple(_TASK_PARAMS)
    takes = {k: v[2] for k, v in _TASK_PARAMS.items() if v[2]}
    assert takes == {"triangle-from-ses": "matrix", "cone": "level N",
                     "quasi-iso": "level N"}


_SCHEMA = """\
[ring]
n = 1

[module M]
twists = [0]

[complex K]
degrees = 0..1
term 0 = O(-1)
term 1 = O(0)
map 0 = [["x0"]]

"""


@pytest.mark.parametrize("task, message", [
    ("[task resolve]\nmodule = 3", "module expects a module name"),
    ("[task sheaf-hom]\nsource = M\ntarget = Missing",
     "unresolved module reference 'Missing'; expected a declared module, "
     "O(a), Omega1 or S(k)"),
    ("[task shift]\nk = 1\ncomplex = Nope",
     "complex must name a declared complex"),
    ("[task atiyah]\na = x1", "a expects an integer"),
    ("[task disjointness]\ni = 1\nj = 3",
     "j = 3 outside the generator range 1..2"),
    ("[task hom-complex]\nsource = K\ntarget = K\noracle = both",
     "oracle must be 'module' or 'sheaf'"),
], ids=["module-not-a-name", "module-unknown", "complex-unknown", "int",
        "generator", "oracle"])
def test_each_parameter_type_rejects_a_bad_value_on_its_line(task, message):
    text = _SCHEMA + task + "\n"
    line = text.count("\n")  # the bad value is on the last line
    with pytest.raises(ManifestError) as e:
        parse_manifest(text)
    assert str(e.value) == f"{message} (line {line})"
    assert e.value.line == line


def test_task_args_hold_the_checked_values():
    m = parse_manifest(
        _SCHEMA + "[task sheaf-hom]\nsource = M\ntarget = S(2)\n\n"
        "[task hom-complex]\nsource = K\ntarget = K\n\n"
        "[task gauge-bound]\ncomplex = K\nbrane-id = b\n")
    sheaf_hom, hom_complex, gauge_bound = m.tasks
    assert sheaf_hom.args["source"] is m.modules["M"]
    assert sheaf_hom.args["target"] == m.resolve_module("S(2)")
    assert hom_complex.args["source"] is m.complexes["K"]
    assert hom_complex.args["target"] is m.complexes["K"]
    assert "oracle" not in hom_complex.args  # absent optional parameter
    assert gauge_bound.args == {"complex": m.complexes["K"], "brane-id": "b"}
    # the raw value and its line stay for the report echo
    assert sheaf_hom.params["target"] == ("S(2)", _SCHEMA.count("\n") + 3)


def test_every_parameter_type_is_one_the_checker_knows():
    m = parse_manifest(_SCHEMA)
    good = {"module": "M", "complex": "K", "int": -3, "generator": 2,
            "oracle": "sheaf", "text": "b"}
    for required, optional, _ in _TASK_PARAMS.values():
        for kind in (*required.values(), *optional.values()):
            _argument(kind, "p", good[kind], 1, m.space, m.modules,
                      m.complexes)
    with pytest.raises(AssertionError):
        _argument("float", "p", 1.5, 1, m.space, m.modules, m.complexes)


def test_print_parse_round_trip():
    m = parse_manifest(GOOD)
    text = print_manifest(m)
    m2 = parse_manifest(text)
    assert print_manifest(m2) == text
    assert m2.n == m.n
    assert set(m2.modules) == set(m.modules)
    assert set(m2.complexes) == set(m.complexes)
    assert [t.kind for t in m2.tasks] == [t.kind for t in m.tasks]
    # the rebuilt module presents the same graded object
    assert (hilbert_window(m2.modules["M"], 0, 3)
            == hilbert_window(m.modules["M"], 0, 3))


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n" + GOOD.replace(
        "n = 2", "n = 2   # dimension")
    m = parse_manifest(text)
    assert m.n == 2


def _char_by_char_strip(line):
    """The characters of line before its first '#' outside double quotes,
    right-stripped, read one at a time."""
    out, quoted = [], False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        if ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out).rstrip()


@given(st.text(alphabet='ab "#\t', max_size=12))
@example('n = 2  # dim')
@example('name = "a#b"  # c')
@example('x = "#')
@example("no comment here \t ")
@settings(max_examples=200, deadline=None)
def test_strip_comment_equals_the_char_by_char_reading(line):
    assert _strip_comment(line) == _char_by_char_strip(line)


def test_bytes_input_accepted():
    m = parse_manifest(GOOD.encode())
    assert m.n == 2


def test_complex_missing_term_defaults_to_zero():
    text = """\
[ring]
n = 1

[complex G]
degrees = 0..2
term 0 = O(0)
term 2 = O(3)
"""
    m = parse_manifest(text)
    g = m.complexes["G"]
    assert g.term(1).rank == 0
    assert g.term(0).rank == 1


# -- malformed input ends in a ManifestError with its line --------------------


def _module_manifest(twists: str, relations: str) -> str:
    return (f"[ring]\nn = 2\n\n[module M]\ntwists = {twists}\n"
            f"relations = {relations}\n")


@pytest.mark.parametrize("twists, relations", [
    ("[0]", '[["x0 + x1^2"]]'),            # the first entry is inhomogeneous
    ("[0, 0]", '[["0", "x0 + x1^2"]]'),    # so is the first nonzero one
])
def test_inhomogeneous_relation_entry_is_a_manifest_error(twists, relations):
    with pytest.raises(ManifestError) as e:
        parse_manifest(_module_manifest(twists, relations))
    assert "not homogeneous" in str(e.value)
    assert e.value.line == 6


def test_invalid_utf8_is_a_manifest_error():
    with pytest.raises(ManifestError) as e:
        parse_manifest(b"[ring]\nn = 2\n# a comment with \xff in it\n")
    assert "UTF-8" in str(e.value)
    assert e.value.line == 3


# -- fuzzing: parse_manifest returns or raises a BraneGaugeError --------------


def _parses_or_raises_structured(text) -> None:
    try:
        parse_manifest(text)
    except BraneGaugeError:
        pass


@given(st.binary(max_size=300))
@example(b"[ring]\nn = 2\n# \xff\n")
@settings(max_examples=150, deadline=None)
def test_fuzz_arbitrary_bytes(data):
    _parses_or_raises_structured(data)


_TOKEN_RE = re.compile(r"\s+|\w+|\.\.|.")
_GOOD_TOKENS = _TOKEN_RE.findall(GOOD)
_VOCAB = sorted(set(_GOOD_TOKENS) | {
    "+", "-", "*", "/", "^", "(", ")", "#", "..", "x3", "-1", "3", "S(1)",
    "Omega1", "[task cone]", "[complex C]", "level 0", "\n",
})
_MUTATION = st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                      st.integers(0, len(_GOOD_TOKENS)),
                      st.sampled_from(_VOCAB))


def _mutate(tokens: list[str], mutations) -> str:
    out = list(tokens)
    for op, pos, token in mutations:
        if op == "insert":
            out.insert(pos % (len(out) + 1), token)
        elif out and op == "delete":
            del out[pos % len(out)]
        elif out:
            out[pos % len(out)] = token
    return "".join(out)


@given(st.lists(_MUTATION, min_size=1, max_size=4))
# "x0^2" -> "x0+2": an inhomogeneous first relation entry
@example([("replace", _GOOD_TOKENS.index("^"), "+")])
@settings(max_examples=200, deadline=None)
def test_fuzz_token_mutations_of_a_valid_manifest(mutations):
    _parses_or_raises_structured(_mutate(_GOOD_TOKENS, mutations))
