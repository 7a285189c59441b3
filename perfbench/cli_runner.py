"""Run one CLI call under the span wrappers, for the traced `cli_batch`.

    python perfbench/cli_runner.py <spans.json> <cli arguments...>

Times `import anabel.cli`, wraps every module, then calls `cli.main(argv)`.
Exit code and output are those of `python -m anabel.cli`; an uncaught
exception still ends the process with a traceback. The spans and the
import time are written to <spans.json> either way.
"""

import json
import sys
import time

from spans import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    from anabel import cli
    import_ms = (time.perf_counter() - t0) * 1e3
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump({"import_ms": import_ms, "spans": tracer.dump()}, fh)


if __name__ == "__main__":
    sys.exit(main())
