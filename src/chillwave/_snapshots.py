"""CSV rows, the snapshot file layout, and the snapshot writer process.

Every CSV file of the package is written by `write_rows`, line by line,
every snapshot file by `write_grid` from the grid `snapshot_grid` gives,
and `snapshot_path` names them. Run as a script, this file is the writer
process of `chillwave run` (see SnapshotWriter): started with the run's
directory, M, eps and gamma, it reads records from stdin and writes each
one as a snapshot file. A record is one step: STEP (t, step), then the
M x M grid as M*M native float64s. The module imports the standard
library only, so that the process, started as `python -I -S <this file>`,
does not spend its start-up loading numpy.
"""

import os
import sys
from itertools import chain
from struct import Struct

SNAPSHOT_HEADER = "M,eps,gamma,t,step"
STEP = Struct("=dq")


def snapshot_path(directory, step: int) -> str:
    """The snapshot file of step `step` in `directory`."""
    return os.path.join(directory, f"snapshot_{step:06d}.csv")


def snapshot_grid(u):
    """The nodal values T_M v T_M^T of the Field u on the M x M Gauss grid."""
    T = u.basis.T_M
    return T @ u.v @ T.T


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
    write_rows(path, SNAPSHOT_HEADER, chain((meta,), rows))


class SnapshotWriter:
    """The writer process, started from this file for one run's snapshots
    in `directory`. `send`, the run's one snapshot path (run_simulation's
    on_snapshot hook), hands the process one step and returns once the
    pipe has taken it; `close` waits until it has written every file sent.
    Either raises OSError, naming the file, once the process could not
    write one. As a context manager it closes on every exit; an exception
    already in flight is the one reported."""

    def __init__(self, directory, M: int, eps: float, gamma: float):
        import subprocess  # here, not at the top: the writer process never needs it

        self._directory = directory
        # its own session: a Ctrl-C reaches only the run, which then closes the pipe
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", __file__, directory, str(M), repr(eps), repr(gamma)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, start_new_session=True,
        )

    def send(self, n: int, t: float, u) -> None:
        """Queue the Field u of step n at time t, making the directory first."""
        os.makedirs(self._directory, exist_ok=True)
        pipe = self._proc.stdin
        try:
            pipe.write(STEP.pack(t, n))
            pipe.write(snapshot_grid(u))
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


def main() -> int:
    """Write every record on stdin as a snapshot file, until the input or
    a record ends short. On the first file it cannot write, print one line
    naming it on stdout and return 1."""
    directory, M, eps, gamma = sys.argv[1], int(sys.argv[2]), *map(float, sys.argv[3:5])
    stdin, size = sys.stdin.buffer, 8 * M * M
    while len(head := stdin.read(STEP.size)) == STEP.size and len(data := stdin.read(size)) == size:
        t, step = STEP.unpack(head)
        path = snapshot_path(directory, step)
        grid = memoryview(data).cast("d")  # its items are Python floats
        try:
            write_grid(path, (M, eps, gamma, t, step), (grid[i:i + M] for i in range(0, M * M, M)))
        except OSError as exc:
            message = str(exc) if exc.filename else f"{exc}: {path!r}"
            sys.stdout.buffer.write(message.encode(errors="backslashreplace") + b"\n")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
