"""Run the milnorhodge CLI like ``python -m milnorhodge.cli`` and record its spans.

Usage: python bench/cli_launcher.py SPAN_FILE [CLI ARGUMENTS...]

The traced cli-cold run starts this instead of the module.  It times the
import of ``milnorhodge.cli`` (span ``cli.import``) and the call of ``main()``
(span ``cli.main``, with the wrapped layer calls inside it), then writes the
spans and counters to SPAN_FILE as JSON.  Stdout and the exit code are the
CLI's own.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import milnorhodge.cli as cli

    imported = perf_counter()
    from tracing import Tracer  # after the timed import: it loads numpy itself

    tracer = Tracer()
    tracer.spans.append(["cli.import", start, imported, None, None])
    with tracer.installed(), tracer.span("cli.main"):
        code = cli.main(argv)
    with open(span_file, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
