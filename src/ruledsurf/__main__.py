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
"""
import gc

from .cli import main


def run() -> int:
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(run())
