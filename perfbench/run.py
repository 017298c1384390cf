"""The branegauge benchmark: fixed manifests through the real CLI.

    python3 perfbench/run.py --workload hom-table --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 120 --trace 0

Run it from the root of a source checkout; it imports the package from
`src/` and keeps its scratch files under `.bench_build/perfbench/`.

Closed loop, one client: each `brane-gauge run` happens in a fresh child
process (perfbench/child.py), one at a time, so nothing cached in one run
reaches the next, as for a user who runs the tool.  Rounds repeat until the
next one would end after `--seconds`; with `--workload all` every round runs
each workload once, round-robin, so slow drift on the machine hits all of
them alike.  A round is:

- PROBES set-up probes: children that stop once the manifest is parsed;
- a plain run, timed from outside with tracing off;
- with `--trace 1`, also a traced run (tracer.py), which gives the per-layer
  metrics, and whose report must equal the plain one byte for byte.

End-to-end metrics (`--trace 0`), medians over the run's children:

- wall_s: spawn to exit of a plain run, the time a user waits for the report;
- setup_s: spawn until `parse_manifest` returns (interpreter, imports,
  parse), over the probes and the plain runs; children load the bytecode
  that an unmeasured first probe cached, as an installed package would;
- peak_rss_mb: peak resident memory of one plain run, from `os.wait4`.

A child fails on a wrong exit code, a report the workload's oracle rejects,
a report that differs from the first one of the run, a crash or a timeout.
The last stdout line is one JSON object: correct, attempted, failed and the
metrics (per-layer ones with `--trace 1`), named and with the units that
BENCHMARK.json gives them.  The lines above it give each metric with its
quartiles and sample count, and the failure ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 100.0
ROUND_MARGIN = 1.2
PROBES = 3  # set-up probes per round; each costs about one setup_s

LAYER_SELF = ("groebner", "polymatrix", "polynomials", "linalg", "cech",
              "modules", "projective", "gauge", "complexes", "homspace")

# count metric -> span whose calls it counts
CALL_COUNTS = {
    "groebner.runs": "groebner.module_groebner",
    "groebner.reductions": "groebner.reduce_vec",
    "groebner.syzygy_calls": "groebner.syzygy_module",
    "groebner.lift_calls": "groebner.lift_through",
    "polymatrix.mul.calls": "polymatrix.mul",
    "polynomials.mul.calls": "polynomials.mul",
    "polynomials.add.calls": "polynomials.add",
    "linalg.trackers": "linalg.tracker",
    "linalg.inserts": "linalg.insert",
    "cech.levels": "cech.cech_level",
    "cech.relation_builds": "cech.cech_relation_columns",
    "modules.saturate.calls": "modules.saturate",
    "modules.torsion_free.calls": "modules.torsion_free_quotient",
    "modules.minimal_presentation.calls": "modules.minimal_presentation",
    "modules.kernel.calls": "modules.kernel_with_inclusion",
    "modules.hom_module.calls": "modules.hom_module_with_inclusion",
    "modules.graded_piece_dim.calls": "modules.graded_piece_dim",
    "modules.piece_map_rank.calls": "modules.piece_map_rank",
    "modules.free_resolution.calls": "modules.free_resolution",
    "projective.sheaf_hom.calls": "projective.sheaf_hom_dim",
    "gauge.hom_pair.calls": "gauge.hom_pair_dim",
    "gauge.atiyah.calls": "gauge.atiyah_class_line_bundle",
    "complexes.cohomology.calls": "complexes.cohomology_subquotient",
    "complexes.hom_complex.calls": "complexes.hom_complex",
    "complexes.les_check.calls": "complexes.triangle_les_ok",
    "homspace.hom_basis.calls": "homspace.hom_basis",
}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def count_metrics(trace: dict) -> dict:
    """Per-layer counts of one traced run; they repeat exactly."""
    calls, counts, distinct = trace["calls"], trace["counts"], trace["distinct"]
    out = {name: calls.get(span, 0) for name, span in CALL_COUNTS.items()}
    out["groebner.member_calls"] = (calls.get("groebner.mvec_member", 0)
                                    + calls.get("groebner.ideal_member", 0))
    for key in ("groebner.input_gens", "groebner.basis_elems",
                "linalg.pivots", "cech.window_spots", "cech.relation_cols"):
        out[key] = counts.get(key, 0)
    out["groebner.runs_distinct"] = distinct.get("groebner.runs", 0)
    out["cech.relation_builds_distinct"] = distinct.get(
        "cech.relation_builds", 0)
    out["modules.saturate.distinct"] = distinct.get("modules.saturate", 0)
    out["modules.kernel.distinct"] = distinct.get("modules.kernel", 0)
    return out


def ratio_metrics(c: dict, trace: dict) -> dict:
    """Useful-work and shared-work shares; 0 when the layer did nothing."""
    return {
        "groebner.reductions_useful_ratio": _ratio(
            trace["counts"].get("groebner.reductions_useful", 0),
            c["groebner.reductions"]),
        "linalg.pivot_ratio": _ratio(c["linalg.pivots"], c["linalg.inserts"]),
        "groebner.runs_distinct_ratio": _ratio(
            c["groebner.runs_distinct"], c["groebner.runs"]),
        "cech.relation_builds_distinct_ratio": _ratio(
            c["cech.relation_builds_distinct"], c["cech.relation_builds"]),
        "modules.saturate.distinct_ratio": _ratio(
            c["modules.saturate.distinct"], c["modules.saturate.calls"]),
        "modules.kernel.distinct_ratio": _ratio(
            c["modules.kernel.distinct"], c["modules.kernel.calls"]),
    }


def time_metrics(trace: dict) -> dict:
    """Per-layer times of one traced run, in seconds."""
    incl, self_ = trace["inclusive"], trace["self"]
    out = {f"{layer}.self_s": trace["layer_self"][layer]
           for layer in LAYER_SELF}
    out["polymatrix.mul.self_s"] = self_.get("polymatrix.mul", 0.0)
    out["modules.saturate.self_s"] = self_.get("modules.saturate", 0.0)
    out["modules.saturate.s"] = incl.get("modules.saturate", 0.0)
    out["manifest.parse_s"] = incl.get("manifest.parse_manifest", 0.0)
    out["reports.render_s"] = incl.get("reports.render_report", 0.0)
    for span, t in incl.items():
        if span.startswith("tasks."):  # one per task kind the run has
            out[f"{span}.s"] = t
    return out


# -- children ----------------------------------------------------------------


class Child:
    """Outcome of one child process."""

    def __init__(self, mode):
        self.mode = mode
        self.exit = self.wall = self.setup = self.rss_mb = self.cpu = None
        self.info: dict = {}
        self.report = b""
        self.problems: list = []


def spawn(mode: str, manifest: str, root: Path, work: Path, env) -> Child:
    """Run one child to completion and measure it from outside."""
    child = Child(mode)
    info_path = work / "info.json"
    out_path = work / "report.out"
    info_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(info_path), mode, manifest]
    with open(out_path, "wb") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, cwd=root, env=env)
    reaped = False
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
        t1 = time.monotonic()
        if not ready:
            proc.kill()
            child.problems.append(f"timeout after {CHILD_TIMEOUT_S:.0f} s")
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
    finally:
        os.close(pidfd)
        if not reaped:
            proc.kill()
            os.wait4(proc.pid, 0)
    child.exit = proc.returncode = os.waitstatus_to_exitcode(status)
    child.wall = t1 - t0
    child.rss_mb = usage.ru_maxrss / 1024.0
    child.cpu = usage.ru_utime + usage.ru_stime
    child.report = out_path.read_bytes()
    try:
        child.info = json.loads(info_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        child.problems.append(f"no timing record (exit {child.exit})")
    if "parsed_at" in child.info:
        child.setup = child.info["parsed_at"] - t0
    return child


# -- statistics --------------------------------------------------------------


def quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


# -- one workload ------------------------------------------------------------


class Run:
    """Every child of one workload in this invocation, and their checks."""

    def __init__(self, workload, seed: int, root: Path, work: Path, env):
        self.workload = workload
        self.text = workload.manifest(seed)
        path = work / f"{workload.name}-{seed}.bg"
        path.write_text(self.text, encoding="utf-8")
        self.manifest = str(path.relative_to(root))
        self.root, self.work, self.env = root, work, env
        self.children: list = []
        self.reference = None  # the first plain report, to compare others to
        self.counts = None  # the first traced run's counts

    def run(self, mode: str) -> Child:
        c = spawn(mode, self.manifest, self.root, self.work, self.env)
        self.children.append(c)
        if c.problems:
            return c
        if mode == "setup":
            if c.exit != 0 or c.setup is None:
                c.problems.append(f"set-up probe exit {c.exit}")
            return c
        if c.exit != self.workload.expected_exit:
            c.problems.append(f"exit {c.exit}, expected "
                              f"{self.workload.expected_exit}")
        text = c.report.decode("utf-8", errors="replace")
        c.problems.extend(self.workload.check(text, self.text))
        if self.reference is None:
            self.reference = c.report
        elif c.report != self.reference:
            c.problems.append("report differs from the run's first report")
        if mode == "trace":
            counts = count_metrics(c.info["trace"])
            if self.counts is None:
                self.counts = counts
            elif counts != self.counts:
                c.problems.append("per-layer counts differ between runs")
        return c

    def ok(self, mode: str):
        return [c for c in self.children if c.mode == mode and not c.problems]

    def end_to_end(self) -> dict:
        plain = self.ok("run")
        setups = [c.setup for c in plain + self.ok("setup")]
        samples = {
            "wall_s": [c.wall for c in plain],
            "setup_s": setups,
            "peak_rss_mb": [c.rss_mb for c in plain],
        }
        return {k: v for k, v in samples.items() if v}

    def per_layer(self) -> dict:
        traced, plain = self.ok("trace"), self.ok("run")
        if not traced or not plain:
            return {}
        traces = [c.info["trace"] for c in traced]
        counts = count_metrics(traces[0])
        out = {k: [v] for k, v in counts.items()}
        out.update({k: [v] for k, v in ratio_metrics(counts, traces[0]).items()})
        for t in traces:
            for k, v in time_metrics(t).items():
                out.setdefault(k, []).append(v)
        out["proc.import_s"] = [c.info["import_s"] for c in plain]
        out["proc.cpu_s"] = [c.cpu for c in plain]
        out["trace.overhead_ratio"] = [
            statistics.median(c.wall for c in traced)
            / statistics.median(c.wall for c in plain)
            - 1.0]
        return out


# -- the command -------------------------------------------------------------


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "branegauge" / "cli.py").is_file():
        print("perfbench: run from the root of a branegauge checkout "
              "(no src/branegauge/cli.py here)", file=sys.stderr)
        return 2
    work = root / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
    env["PYTHONHASHSEED"] = str(args.seed % 2**32)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = [Run(WORKLOADS[n], args.seed, root, work, env) for n in names]
    # an unmeasured probe per workload fills the bytecode cache first
    for r in runs:
        r.run("setup")
    for r in runs:
        r.children.clear()

    modes = ["setup"] * PROBES + ["run"] + (["trace"] if args.trace else [])
    deadline = time.monotonic() + args.seconds
    last_round = 0.0
    while True:
        start = time.monotonic()
        # a round may run slower than the last one; keep a margin so the run
        # ends by its deadline
        if last_round and start + ROUND_MARGIN * last_round > deadline:
            break
        for r in runs:
            for mode in modes:
                r.run(mode)
        last_round = time.monotonic() - start

    print(f"perfbench: python {platform.python_version()}, "
          f"nproc {os.cpu_count()}, seed {args.seed}, "
          f"seconds {args.seconds:g}, trace {args.trace}")
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    metrics = {}
    attempted = failed = 0
    for r in runs:
        attempted += len(r.children)
        bad = [c for c in r.children if c.problems]
        failed += len(bad)
        for c in bad:
            print(f"{r.workload.name}: {c.mode} run failed: "
                  + "; ".join(c.problems[:5]))
        samples = r.per_layer() if args.trace else r.end_to_end()
        if samples:
            # a task kind this workload does not run took no time
            absent = [n for n in units
                      if n.startswith("tasks.") and n not in samples]
            samples.update((n, [0.0]) for n in absent)
            if absent:
                print(f"{r.workload.name}: not run, read 0: "
                      + ", ".join(absent))
        prefix = f"{r.workload.name}." if len(runs) > 1 else ""
        print(f"{'workload':<14} {'metric':<38} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'n':>3}  unit")
        for name, unit in units.items():
            if name not in samples:
                continue
            q1, med, q3 = quartiles(samples[name])
            print(f"{r.workload.name:<14} {name:<38} {med:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g} {len(samples[name]):>3}  {unit}")
            metrics[prefix + name] = {"value": med, "unit": unit}
        plain = [c for c in r.children if c.mode != "setup"]
        print(f"{r.workload.name:<14} {'fail_ratio':<38} "
              f"{_ratio(sum(bool(c.problems) for c in plain), len(plain)):>12.6g}"
              f" {'':>12} {'':>12} {len(plain):>3}  ratio")
        missing = [n for n in units if n not in samples]
        if missing:
            print(f"{r.workload.name}: no value for {', '.join(missing)}")
    result = {"correct": failed == 0 and attempted > 0
              and len(metrics) == len(units) * len(runs),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
