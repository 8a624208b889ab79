"""Traced CLI bootstrap: ``python child.py SPANS_OUT <cli arguments>``.

Runs ``coherence_forge.cli.main`` like ``python -m coherence_forge.cli``, with
the package import recorded as an ``import`` span and every public function
wrapped by the tracer. The spans are written to SPANS_OUT even when the CLI
raises, so an uncaught exception still leaves its trace and exit code.
"""

import sys
from time import perf_counter

start = perf_counter()

from tracer import Tracer  # noqa: E402  (this file's directory is sys.path[0])


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    import_start = perf_counter()
    import coherence_forge.cli as cli

    tracer.record("import", import_start, perf_counter())
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.record("bench.bootstrap", start, import_start)
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())
