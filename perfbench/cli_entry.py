"""Run one mossbeat CLI command in this fresh interpreter, traced.

    python3 perfbench/cli_entry.py SPANS_JSON LABEL COMMAND [ARGS...]

Times ``import mossbeat.cli`` as the ``import`` span, wraps the traced
functions, runs ``mossbeat.cli.run_cli`` under the span ``cli.LABEL``,
writes every span and count to SPANS_JSON and exits with the command's
exit code.  The import path must put the package's ``src`` first.
"""

import json
import sys

import spans


def main(argv) -> int:
    spans_path, label, *cli_argv = argv
    tracer = spans.Tracer()
    sid = tracer.begin("import")
    import mossbeat.cli

    tracer.end(sid)
    tracer.install()
    sid = tracer.begin("cli." + label)
    try:
        code = mossbeat.cli.run_cli(cli_argv)
    finally:
        tracer.end(sid)
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(spans.to_json(tracer), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
