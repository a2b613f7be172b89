"""`python -m ruledsurf` and the `ruledsurf` console script: run the CLI
and exit with its code.

At exit the interpreter runs full garbage collections over every object
still alive, and nearly all of them were made at start-up, by `site` and
the imports: about 13,000 once ruledsurf.cli is imported.  Those
collections cost 10-15 ms a process, about as much as the CLI's own
imports.  Measured on a 2-vCPU Intel Xeon with Python 3.11.7, medians of
60 spawns: `python -c pass` 78.5 ms, 64.1 ms when it ends by os._exit
and 68.5 ms when it calls gc.freeze(); of 50, `classify` 94.4 ms and
83.7 ms frozen.  gc.freeze() moves those objects once, after the
imports, to a generation no collection visits.  Exit is otherwise
unchanged: atexit handlers, stream flushes and exit codes run as before.
main() itself does not freeze, since tests and benchmarks call it in a
long-lived process.

main() flushes stdout as it prints, so it alone decides what a failed
write means: a reader that closes stdout early (`ruledsurf scan ... |
head -1`) leaves output unwritten, which main() drops, and any other
failure, a full device say, exits 3 with one `error:` line.  A failed
write to stderr changes nothing: main() and its parsers write every
refusal through one helper that drops it.
Either way the unwritten text stays in the stream's buffer, so run()
flushes stdout and then stderr once more: where that fails too, it
points the stream's fd at os.devnull, so that the interpreter's own
flush at exit neither reports an ignored OSError nor turns the exit code
into 120.  With fd 1 or fd 2 closed at start-up, sys.stdout or
sys.stderr is None and there is nothing to flush.  main() never touches
a file descriptor, for the same reason as the freeze.
"""
import gc
import os
import sys

from .cli import main


def run() -> int:
    gc.freeze()
    code = main()
    for stream in sys.stdout, sys.stderr:
        try:
            if stream is not None:
                stream.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(run())
