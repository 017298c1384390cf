"""Report-digest gate: every benchmark report stays byte for byte the same.

    python .github/scripts/report_digest.py           # check, exit 1 on drift
    python .github/scripts/report_digest.py --write   # record the digests

Run from the root of a checkout.  Each workload of perfbench/workloads.py
(imported read-only, no bytecode written) gives its seed-1 manifest; the
script writes it under a fixed relative name in a temporary directory, runs
`python -m branegauge.cli run <name>` there on this checkout's `src/`, and
takes the sha256 of the report on stdout together with the exit code.  The
manifest name is printed in the report, hence the fixed name.

`.github/report-digests.txt` holds one line per workload,
`<workload> <exit code> <sha256>`.  The check exits 1 when a workload's
report or exit code differs from its line, or when a workload or a line is
missing; otherwise 0.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DIGESTS = ROOT / ".github" / "report-digests.txt"
SEED = 1


def _workloads() -> dict:
    """perfbench's WORKLOADS, loaded without writing into perfbench/."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def digest(name: str, manifest: str) -> tuple[int, str]:
    """(exit code, sha256 of stdout) of one CLI run on the manifest."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.bg"
        path.write_text(manifest, encoding="utf-8")
        run = subprocess.run(
            [sys.executable, "-m", "branegauge.cli", "run", path.name],
            cwd=tmp, env=env, capture_output=True, check=False)
    return run.returncode, hashlib.sha256(run.stdout).hexdigest()


def current() -> dict:
    return {name: digest(name, w.manifest(SEED))
            for name, w in _workloads().items()}


def recorded() -> dict:
    out = {}
    for line in DIGESTS.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, code, sha = line.split()
            out[name] = (int(code), sha)
    return out


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print("usage: report_digest.py [--write]", file=sys.stderr)
        return 2
    now = current()
    if argv:
        lines = [f"{name} {code} {sha}" for name, (code, sha) in now.items()]
        DIGESTS.write_text(
            f"# <workload> <exit code> <sha256 of the seed-{SEED} report>\n"
            + "\n".join(lines) + "\n", encoding="utf-8")
        print("\n".join(lines))
        return 0
    want = recorded()
    problems = []
    for name in sorted(set(now) | set(want)):
        if name not in want:
            problems.append(f"{name}: no recorded digest")
        elif name not in now:
            problems.append(f"{name}: recorded but no such workload")
        elif now[name] != want[name]:
            problems.append(f"{name}: got exit {now[name][0]} {now[name][1]}, "
                            f"recorded exit {want[name][0]} {want[name][1]}")
        else:
            print(f"{name}: ok (exit {now[name][0]})")
    for line in problems:
        print(f"report digest: {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
