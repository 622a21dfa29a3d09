"""Stand-ins for the standard output of one CLI call.

``print`` in the CLI writes to ``sys.stdout``; the runner swaps in one of
these for the length of a call.  Both note when the first write arrives,
for ``first_output_ms_p50``.
"""

from __future__ import annotations

import errno
import io
import time


class CaptureSink:
    """Keeps everything written, like a pipe read to the end.  The text
    goes into one buffer, so the sink's own memory stays near the size of
    the output and peak memory follows what the program holds."""

    def __init__(self):
        self._buffer = io.StringIO()
        self.first_write: float | None = None

    def write(self, text: str) -> int:
        if self.first_write is None and text:
            self.first_write = time.perf_counter()
        return self._buffer.write(text)

    def flush(self) -> None:
        pass

    def getvalue(self) -> str:
        return self._buffer.getvalue()


class HeadSink(CaptureSink):
    """Keeps the first ``limit`` lines, then fails every further write with
    ``BrokenPipeError``, the way a pipe into ``head -n limit`` fails once
    ``head`` has exited.  ``rejected`` holds the text of the first refused
    write, which for ``print`` is the line after the last one kept."""

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit
        self.lines = 0
        self.closed = False
        self.rejected: str | None = None

    def write(self, text: str) -> int:
        if self.closed or (self.lines >= self.limit and text):
            if not self.closed:
                self.closed = True
                self.rejected = text
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        self.lines += text.count("\n")
        return super().write(text)
