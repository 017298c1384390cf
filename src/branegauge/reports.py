"""Deterministic report rendering.

One report block per task, key: value lines in a fixed order, preceded by a
schema header.  Two runs on the same manifest must produce byte-identical
output, so every value formatter is order-stable and locale-free.
"""

from __future__ import annotations

SCHEMA = "brane-gauge-report/1"


class TaskReport:
    """One task's outcome: index, kind, status and the ordered (key, value)
    payload pairs.  Mutable; equal by its fields."""

    __slots__ = ("index", "kind", "status", "payload")

    def __init__(self, index: int, kind: str, status: str,
                 payload: list | None = None):
        self.index = index
        self.kind = kind
        self.status = status
        self.payload = [] if payload is None else payload

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    def line_items(self):
        yield ("task", str(self.index))
        yield ("kind", self.kind)
        yield ("status", self.status)
        for key, value in self.payload:
            yield (key, value)


def fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def fmt_int_list(values) -> str:
    return "[" + ", ".join(str(v) for v in values) + "]"


def fmt_str_list(values) -> str:
    return "[" + ", ".join(f'"{v}"' for v in values) + "]"


# task statuses, in increasing severity; exit codes map ok -> 0,
# false/finding -> 1, error -> 2
def exit_code(reports) -> int:
    worst = 0
    for r in reports:
        if r.status == "error":
            worst = max(worst, 2)
        elif r.status in ("false", "finding"):
            worst = max(worst, 1)
    return worst


def render_report(source_label: str, n: int, reports) -> str:
    lines = [
        f"schema: {SCHEMA}",
        f"manifest: {source_label}",
        f"ring: n={n}",
        f"tasks: {len(reports)}",
    ]
    for r in reports:
        lines.append("")
        for key, value in r.line_items():
            lines.append(f"{key}: {value}")
    lines.append("")
    return "\n".join(lines)
