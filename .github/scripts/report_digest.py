"""Report-digest gate: every benchmark report stays byte for byte the same.

    python .github/scripts/report_digest.py           # check, exit 1 on drift
    python .github/scripts/report_digest.py --write   # record the digests

Run from the root of a checkout.  Each workload of perfbench/workloads.py
(imported read-only, no bytecode written) gives its seed-1 manifest, and
complex-batch, the only workload that draws its manifest from the seed,
also its seed-2 manifest; the script writes each under a fixed relative name
in a temporary directory, runs `python -m branegauge.cli run <name>` there on
this checkout's `src/`, and takes the sha256 of the report on stdout together
with the exit code.  The manifest name is printed in the report, hence the
fixed name.

`.github/report-digests.txt` holds one line per (workload, seed),
`<workload> <seed> <exit code> <sha256>`.  The check exits 1 when a report
or exit code differs from its line, or when a run or a line is missing;
otherwise 0.
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
SEEDS = (1,)
EXTRA_SEEDS = {"complex-batch": (2,)}


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
    """{(workload, seed): (exit code, sha256)} of every digested run."""
    return {(name, seed): digest(name, w.manifest(seed))
            for name, w in _workloads().items()
            for seed in SEEDS + EXTRA_SEEDS.get(name, ())}


def recorded() -> dict:
    out = {}
    for line in DIGESTS.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, seed, code, sha = line.split()
            out[name, int(seed)] = (int(code), sha)
    return out


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print("usage: report_digest.py [--write]", file=sys.stderr)
        return 2
    now = current()
    if argv:
        lines = [f"{name} {seed} {code} {sha}"
                 for (name, seed), (code, sha) in now.items()]
        DIGESTS.write_text(
            "# <workload> <seed> <exit code> <sha256 of the report>\n"
            + "\n".join(lines) + "\n", encoding="utf-8")
        print("\n".join(lines))
        return 0
    want = recorded()
    problems = []
    for key in sorted(set(now) | set(want)):
        label = f"{key[0]} seed {key[1]}"
        if key not in want:
            problems.append(f"{label}: no recorded digest")
        elif key not in now:
            problems.append(f"{label}: recorded but not run")
        elif now[key] != want[key]:
            problems.append(f"{label}: got exit {now[key][0]} {now[key][1]}, "
                            f"recorded exit {want[key][0]} {want[key][1]}")
        else:
            print(f"{label}: ok (exit {now[key][0]})")
    for line in problems:
        print(f"report digest: {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
