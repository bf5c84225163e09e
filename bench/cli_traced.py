"""One ``pcwk`` command-line call with spans recorded, for the traced cli run.

    python3 bench/cli_traced.py SPANS.json --spec problem.json --out DIR

Behaves like the ``pcwk`` console script (same arguments, same exit code)
and writes the spans of the call to SPANS.json on exit.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    span = tracer.open("import.pcwk")
    import pcwk.cli

    tracer.close(span)
    tracer.install()
    try:
        return pcwk.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
