"""Traced cold CLI process: ``python child.py OP_ID SPANS_FILE ARG...``.

Runs ``rrm_lab.cli.main(ARGS)`` exactly as ``python -m rrm_lab.cli`` would,
with spans around the import, ``build_parser``/``parse_args``, the constants
loaders, the handler (its self time is the render), the kernels it calls and
the stdout write. The spans stay in memory and go to SPANS_FILE at the end,
followed by a last line holding the monotonic time just before exit.
"""

import time

T0 = time.monotonic()

import sys  # noqa: E402

import spans  # noqa: E402


class _TimedStdout:
    """Spans each write (and its flush) and counts the bytes written."""

    def __init__(self, stream, rec):
        self._stream = stream
        self._rec = rec

    def write(self, text):
        self._rec.count("cli.output_bytes", len(text.encode("utf-8")))
        return self._rec.call("cli.write", self._write, text)

    def _write(self, text):
        n = self._stream.write(text)
        self._stream.flush()
        return n

    def __getattr__(self, name):
        return getattr(self._stream, name)


def _instrument_cli(cli, rec):
    build = cli.build_parser

    def build_parser():
        parser = rec.call("cli.parse", build)
        parse = parser.parse_args

        def parse_args(argv=None, namespace=None):
            args = rec.call("cli.parse", parse, argv, namespace)
            handler = getattr(args, "handler", None)
            if handler is not None:
                args.handler = rec.wrap(handler, "cli.handler")
            return args
        parser.parse_args = parse_args
        return parser
    cli.build_parser = build_parser


def main():
    op_id, out_path, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    rec = spans.Recorder()
    rec.op = op_id
    modules_before = len(sys.modules)
    rec.trace_heavy_imports()
    cli = rec.call("import.rrm_lab", __import__, "rrm_lab.cli",
                   fromlist=("main",))
    rec.install((sys.modules["rrm_lab"], cli))
    _instrument_cli(cli, rec)
    sys.stdout = _TimedStdout(sys.stdout, rec)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout = sys.stdout._stream
        rec.counts["import.modules_loaded"] = len(sys.modules) - modules_before
        rec.counts["import.numpy_loaded"] = int("numpy" in sys.modules)
        rec.counts["import.scipy_loaded"] = int("scipy" in sys.modules)
        _dump(out_path, rec)
    return code


def _dump(path, rec):
    import json
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"t0": T0, "spans": rec.spans,
                             "counts": rec.counts}) + "\n")
        fh.flush()
        fh.write(repr(time.monotonic()) + "\n")


if __name__ == "__main__":
    sys.exit(main())
