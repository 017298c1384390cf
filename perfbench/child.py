"""One `brane-gauge run` in a fresh process, timed from inside.

    python3 perfbench/child.py INFO MODE MANIFEST

MODE is `run` (the plain CLI run), `trace` (the same run with every layer
wrapped by tracer.Tracer) or `setup` (stop as soon as the manifest is
parsed).  The report goes to stdout exactly as the CLI writes it; what the
parent cannot see from outside goes to the JSON file INFO:

- `parsed_at`: CLOCK_MONOTONIC when `parse_manifest` returned, which the
  parent subtracts from its spawn time to get the set-up time;
- `import_s`: time spent importing the package;
- `trace`: the tracer's summary in `trace` mode.
"""

from __future__ import annotations

import json
import sys
import time


class _SetupDone(Exception):
    pass


def main() -> int:
    info_path, mode, manifest = sys.argv[1:4]
    t0 = time.perf_counter()
    import branegauge.cli as cli
    info = {"import_s": time.perf_counter() - t0}

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    parse = cli.parse_manifest

    def timed_parse(text):
        m = parse(text)
        info["parsed_at"] = time.monotonic()
        if mode == "setup":
            raise _SetupDone
        return m

    cli.parse_manifest = timed_parse
    try:
        code = cli.main(["run", manifest])
    except _SetupDone:
        code = 0
    sys.stdout.flush()
    if tracer is not None:
        info["trace"] = tracer.summary()
    with open(info_path, "w", encoding="utf-8") as fh:
        json.dump(info, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
