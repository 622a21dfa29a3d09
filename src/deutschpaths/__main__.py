import os
import sys

from .cli import main


def entry() -> int:
    """Run :func:`main`; when the reader closes the pipe early, exit 141.

    That is 128 + SIGPIPE, what a shell reports under ``| head``.  As in
    Python's recipe, devnull takes over stdout so the flush at exit stays
    quiet.  ``main`` itself lets ``BrokenPipeError`` through.
    """
    try:
        code = main()
        sys.stdout.flush()  # short output meets the closed pipe only here
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    raise SystemExit(entry())
