"""CSV rows, the snapshot file layout, and the snapshot writer process.

Every CSV file of the package is written by `write_rows`, line by line,
and every snapshot file by `write_grid`. Run as a script, this file is the
writer process of `chillwave run` (see SnapshotWriter): it reads records
from stdin and writes each one as a snapshot file with `write_grid`. A
record is RECORD (the path's length in bytes, then M, eps, gamma, t and
step), the path (`os.fsencode`) and the M x M grid as M*M native float64s.
The module imports the standard library only, so that the process, started
as `python -I -S <this file>`, does not spend its start-up loading numpy.
"""

import os
import sys
from struct import Struct

SNAPSHOT_HEADER = "M,eps,gamma,t,step"
RECORD = Struct("=Iqdddq")


def write_rows(path, header: str, rows, cell=repr) -> None:
    """Write the header line, then per row one line of cell(value) for
    each value, comma-joined."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(cell, row)) + "\n")


def write_grid(path, meta, rows) -> None:
    """Write a snapshot file: line 1 SNAPSHOT_HEADER, line 2 the meta
    values (M, eps, gamma, t, step), then the M rows of the grid."""
    write_rows(path, SNAPSHOT_HEADER, [meta, *rows])


class SnapshotWriter:
    """The writer process, started from this file. `send` hands it one
    snapshot file and returns once the pipe has taken it; `close` waits
    until the process has written every file sent. Either raises OSError,
    naming the file, once the process could not write one. As a context
    manager it closes on every exit; an exception already in flight is
    the one reported."""

    def __init__(self):
        import subprocess  # here, not at the top: the writer process never needs it

        # its own session: a Ctrl-C reaches only the run, which then closes the pipe
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", __file__],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, start_new_session=True,
        )

    def send(self, path, meta, grid) -> None:
        """Queue the snapshot file path: meta is (M, eps, gamma, t, step)
        and grid a C-contiguous M x M float64 array."""
        name = os.fsencode(path)
        pipe = self._proc.stdin
        try:
            pipe.write(RECORD.pack(len(name), *meta) + name)
            pipe.write(grid)
            pipe.flush()
        except BrokenPipeError:  # the process has stopped: report why
            self.close()
            raise

    def close(self) -> None:
        message = self._proc.communicate()[0]
        if self._proc.returncode:
            raise OSError(message.decode(errors="replace").strip()
                          or f"snapshot writer exited with status {self._proc.returncode}")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self._proc.communicate()


def _read_record(stdin):
    """(path, meta, grid) of the next record; None at the end of the input
    or of a record cut short."""
    head = stdin.read(RECORD.size)
    if len(head) < RECORD.size:
        return None
    size, *meta = RECORD.unpack(head)
    M = meta[0]
    name, data = stdin.read(size), stdin.read(8 * M * M)
    if len(name) < size or len(data) < 8 * M * M:
        return None
    grid = memoryview(data).cast("d")  # its items are Python floats
    return os.fsdecode(name), meta, (grid[i:i + M] for i in range(0, M * M, M))


def main() -> int:
    """Write every record on stdin as a snapshot file. On the first file
    it cannot write, print one line naming it on stdout and return 1."""
    while record := _read_record(sys.stdin.buffer):
        path, meta, rows = record
        try:
            write_grid(path, meta, rows)
        except OSError as exc:
            message = str(exc) if exc.filename else f"{exc}: {path!r}"
            sys.stdout.buffer.write(message.encode(errors="backslashreplace") + b"\n")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
