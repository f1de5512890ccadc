"""fork_map: one function over shares of work, one process per share.

Each share but the first runs in a child started by os.fork, a copy of the
parent, so only results are pickled, never fn or the shares. A child's
exception is raised in the parent; one that does not survive pickling
arrives as a RuntimeError naming its type and message. Every child is
killed and reaped before fork_map returns or raises. Where os.pipe or
os.fork raises OSError, or os.fork is missing, the share runs in process,
so a fork that fails changes speed, never a result. Fork only from a
process with one thread.
"""

from __future__ import annotations

import os
import pickle
import signal


def fork_map(fn, shares: list) -> list:
    """[fn(share) for share in shares], shares non-empty; the caller runs the first
    share and any share no child could start for, after starting the others."""
    results = [None] * len(shares)
    children = []  # (share index, pid, read end of its pipe), until reaped
    try:
        in_process = [0]
        for index in range(1, len(shares)):
            child = _start(fn, shares[index])
            if child is None:
                in_process.append(index)
            else:
                children.append((index, *child))
        for index in in_process:
            results[index] = fn(shares[index])
        while children:
            index, pid, reader = children[0]
            with reader:
                try:
                    failed, value = pickle.load(reader)  # written by our own child
                except (EOFError, pickle.UnpicklingError):
                    failed = None  # cut short
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if status != 0 or failed is None:
                raise ChildProcessError(f"child {pid} ended with wait status {status}")
            if failed:
                raise value
            results[index] = value
    finally:
        for _, pid, reader in children:
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def _start(fn, share):
    """Fork a child that pickles (failed, fn(share) or its exception) to a
    pipe; returns (pid, the pipe's read end), or None if none could start.
    The child exits with status 0 once its result is written, else 1."""
    if not hasattr(os, "fork"):
        return None
    fds = ()
    try:
        fds = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    if pid:
        os.close(fds[1])
        return pid, os.fdopen(fds[0], "rb")
    status = 1
    try:
        os.close(fds[0])
        try:
            result = False, fn(share)
        except Exception as exc:
            result = True, _portable(exc)
        with os.fdopen(fds[1], "wb") as out:
            # protocol 5 writes a numpy array's buffer straight to the pipe
            pickle.dump(result, out, protocol=5)
        status = 0
    finally:
        os._exit(status)


def _portable(exc: Exception) -> Exception:
    """exc, or a RuntimeError naming it if it does not survive pickling."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc
