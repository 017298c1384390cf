"""Task execution over parsed manifests, one exercise per task kind."""

from branegauge.manifest import TASK_KINDS, parse_manifest
from branegauge.reports import exit_code, render_report
from branegauge.tasks import _HANDLERS, run_tasks


FULL = """\
[ring]
n = 2

[module M]
twists = [0]
relations = [["x0"], ["x1"], ["x2"]]

[complex K]
degrees = 0..1
term 0 = O(-1)
term 1 = O(0)
map 0 = [["x0"]]

[complex OB]
degrees = 0..0
term 0 = O(0)
generators 0 = [O(0)]

[task resolve]
module = M

[task shift]
complex = K
k = 1

[task cone]
source = K
target = K
level 0 = [["1"]]
level 1 = [["1"]]

[task hom-complex]
source = K
target = K

[task generators]

[task disjointness]
i = 1
j = 2

[task sheaf-hom]
source = S(3)
target = O(0)

[task atiyah]
a = -2

[task gauge-bound]
complex = OB

[task quasi-iso]
source = K
target = K
level 0 = [["1"]]
level 1 = [["1"]]

[task annihilator]
module = S(2)
"""


def _statuses(reports):
    return [t.status for t in reports]


def test_full_vocabulary_runs_clean():
    m = parse_manifest(FULL)
    reports = run_tasks(m)
    assert len(reports) == 11
    assert _statuses(reports) == ["ok"] * 11
    assert exit_code(reports) == 0


def test_report_values():
    m = parse_manifest(FULL)
    text = render_report("mem", m.n, run_tasks(m))
    # koszul resolution of the skyscraper on the plane
    assert "free 0: [0]" in text
    assert "free 1: [1, 1, 1]" in text
    assert "free 3: [3]" in text
    # cone of the identity is acyclic: every reported piece vanishes
    assert "h^-1 at degree 0: 0" in text
    assert "h^0 at degree 0: 0" in text
    assert "h^1 at degree 0: 0" in text
    assert "quasi-iso: true" in text
    # atiyah coordinate echoes the twist
    assert "coordinate: -2" in text
    assert "connection-exists: false" in text
    # structure sheaf brane admits exactly one field
    assert "count: exactly_1" in text
    # annihilator of the line through two coordinate points
    assert 'generators: ["x0"]' in text


def test_disjoint_false_is_exit_one():
    m = parse_manifest("""\
[ring]
n = 2

[task disjointness]
i = 2
j = 2
""")
    reports = run_tasks(m)
    assert reports[0].status == "false"
    assert exit_code(reports) == 1


def test_lem1_finding_beats_false():
    m = parse_manifest("""\
[ring]
n = 2

[task lem1-check]
""")
    reports = run_tasks(m)
    assert reports[0].status == "finding"
    assert exit_code(reports) == 1
    text = render_report("mem", m.n, reports)
    assert "support-disjoint" in text
    assert "findings:" in text


def test_triangle_task_certifies_les():
    m = parse_manifest("""\
[ring]
n = 1

[task triangle-from-ses]
source = O(-1)
target = O(0)
matrix = [["x0"]]
""")
    reports = run_tasks(m)
    assert reports[0].status == "ok"
    pairs = dict(reports[0].payload)
    assert pairs.get("les-ok") == "true"


def test_deterministic_render():
    m = parse_manifest(FULL)
    a = render_report("mem", m.n, run_tasks(m))
    b = render_report("mem", m.n, run_tasks(m))
    assert a == b


def test_every_task_kind_has_exactly_one_handler():
    assert sorted(_HANDLERS) == sorted(TASK_KINDS)
