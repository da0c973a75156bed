"""Shares of one computation run in forked child processes.

``fork_map(work, shares)`` is ``[work(share) for share in shares]``: the
calling process runs the first share, and a child forked for the call
runs each other one. A child inherits ``work`` and its inputs through
fork, so they need not be picklable; only its result, or the exception
it raised, comes back, pickled, through a pipe of its own. Children only
write, and the caller reads only once its own share is done, so a result
larger than the pipe buffer merely waits. No child outlives the call.

Only ``montecarlo`` imports this module, and ``simulate_many`` runs
every simulation through it, on one share or several; one share runs in
the calling process and forks nothing.
"""

import os
import pickle
import signal


def fork_map(work, shares):
    """``[work(share) for share in shares]``, each share but the first in
    a child forked for it.

    An exception a child raises is raised here with its type. One that
    does not survive pickling comes back as a ``RuntimeError`` carrying
    its ``repr``. A child that ends without a result, by a nonzero exit,
    a signal or an empty pipe, raises ``RuntimeError`` naming its wait
    status. If the caller's own share, or the collection of another
    child's result, raises, every child left is killed and reaped.
    """
    pids, fds = [], []  # children not yet reaped; pipe ends still open
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            fds += read, write
            if (pid := os.fork()) == 0:
                _serve(read, write, work, share)
            pids.append(pid)
            os.close(fds.pop())
        results = [work(shares[0])]
        for pid, read in zip(list(pids), fds):
            with open(read, "rb", closefd=False) as pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            pids.remove(pid)
            if status or not payload:
                raise RuntimeError(f"worker process {pid} ended without a result "
                                   f"(wait status {status}, exit code "
                                   f"{os.waitstatus_to_exitcode(status)})")
            result = pickle.loads(payload)
            if isinstance(result, BaseException):
                raise result
            results.append(result)
        return results
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def _serve(read, write, work, share):
    """Send ``work(share)``, or the exception it raised, to the caller
    through ``write``, and exit.

    The child leaves by ``os._exit`` and never returns into the caller's
    code, so it flushes no buffer and runs no exit handler it inherited.
    """
    try:
        os.close(read)  # so that, should the caller die, the write fails
        try:
            result = work(share)
        except BaseException as exc:
            result = exc
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                result = RuntimeError(f"a worker process raised {exc!r}")
        with open(write, "wb") as pipe:
            pickle.dump(result, pipe)
        os._exit(0)
    finally:
        os._exit(1)
