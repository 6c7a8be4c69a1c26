"""One supervised worker pool, shared by the experiment engine and campaigns.

:class:`WorkerPool` forks up to ``jobs`` workers that persist across
items: each runs ``handler(item)`` for one item at a time, sent over its
own pipe, and is replaced only after it dies or is killed.
:meth:`WorkerPool.wait` wakes on answers and on deaths alike (pipes and
process sentinels in one ``multiprocessing.connection.wait``), so a
dead worker fails its item at once.  No worker outlives its parent: an
idle one reads end of file on its pipe, and on Linux the kernel kills a
busy one (``PR_SET_PDEATHSIG``).  Workers are forked, not spawned, so
the handler may be any callable, closures included, and workers inherit
state armed before the first fork (telemetry emitters); only items and
answers cross the pipe, and must pickle.
Owners fork from a single-threaded process.
"""

import multiprocessing
import os
import pickle
import signal
from multiprocessing.connection import wait as wait_any

from repro.errors import ReproError
from repro.utils.rng import hash_to_unit

#: How an item ended: the handler returned (value: the result) or
#: raised (value: the exception), or its worker died (value: the exit
#: code, ``-N`` for signal N).
DONE, RAISED, DIED = "done", "raised", "died"


def backoff_delay(base, seed, attempt):
    """Host seconds to wait before retry number ``attempt`` (1-based):
    exponential, with jitter drawn from ``seed`` so a retry schedule
    replays exactly.  It shapes when work reruns, never what it computes."""
    jitter = 0.5 + hash_to_unit(seed, "campaign-backoff", attempt)
    return base * (2 ** (attempt - 1)) * jitter


def exit_reason(exitcode):
    """Plain words for a dead worker's exit code."""
    if exitcode is None or exitcode >= 0:
        return "exited with code %s" % exitcode
    try:
        name = signal.Signals(-exitcode).name
    except ValueError:
        name = "unnamed"
    return "killed by signal %d (%s)" % (-exitcode, name)


def _portable(exc):
    """``exc`` if it survives pickling, else a ReproError quoting it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return ReproError("%s: %s" % (type(exc).__name__, exc))
    return exc


def _serve(handler, conn, parent_ends, parent_pid):
    """A worker's life: one item per message until its pipe closes."""
    for end in parent_ends:
        end.close()  # held here, it would keep a pipe open past the parent
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent decides
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        import ctypes

        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (AttributeError, OSError):
        pass  # not Linux: a busy worker exits when its answer finds no reader
    if os.getppid() != parent_pid:
        return  # the parent died before the request took effect
    while True:
        try:
            item = conn.recv()
        except EOFError:
            return  # the pool closed, or the parent died
        try:
            answer = (True, handler(item))
        except Exception as exc:
            answer = (False, _portable(exc))
        try:
            conn.send(answer)
        except OSError:
            return


class _Worker:
    __slots__ = ("process", "conn", "token")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.token = None  # names the item it runs, if any


class WorkerPool:
    """Up to ``jobs`` forked workers running ``handler``, one item each.

    Callers keep at most ``jobs`` items in flight and :meth:`close` the
    pool when done (it is also a context manager).
    """

    def __init__(self, handler, jobs):
        self.handler = handler
        self.jobs = jobs
        self._context = multiprocessing.get_context("fork")
        self._workers = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def submit(self, token, item):
        """Run ``handler(item)`` on an idle worker, forking one if none
        is idle; returns its pid.  ``token`` names the item in :meth:`wait`."""
        worker = next((w for w in self._workers if w.token is None), None)
        if worker is None:
            if len(self._workers) >= self.jobs:
                raise ReproError("all %d pool workers are busy" % self.jobs)
            parent_end, child_end = self._context.Pipe()
            parent_ends = [w.conn for w in self._workers] + [parent_end]
            process = self._context.Process(
                target=_serve,
                args=(self.handler, child_end, parent_ends, os.getpid()),
                daemon=True,
            )
            process.start()
            child_end.close()
            worker = _Worker(process, parent_end)
            self._workers.append(worker)
        try:
            worker.conn.send(item)
        except OSError:  # it died while idle
            self._reap(worker)
            return self.submit(token, item)
        worker.token = token
        return worker.process.pid

    def _reap(self, worker):
        """Forget a dead worker; returns its exit code."""
        worker.conn.close()
        worker.process.join()
        self._workers.remove(worker)
        return worker.process.exitcode

    def wait(self, timeout=None):
        """Block until a busy worker answers or dies, or ``timeout`` host
        seconds pass (with nothing in flight, just sleep ``timeout``).

        Returns ``[(token, kind, value)]`` for every item that ended,
        ``kind`` being :data:`DONE`, :data:`RAISED` or :data:`DIED`.
        """
        busy = [w for w in self._workers if w.token is not None]
        ready = set(
            wait_any([w.conn for w in busy] + [w.process.sentinel for w in busy], timeout)
        )
        ended = []
        for worker in busy:
            if ready.isdisjoint((worker.conn, worker.process.sentinel)):
                continue
            token, worker.token = worker.token, None
            try:
                answered, value = worker.conn.recv()
            except (EOFError, OSError):
                ended.append((token, DIED, self._reap(worker)))
            else:
                ended.append((token, DONE if answered else RAISED, value))
        return ended

    def kill(self, token):
        """SIGKILL the worker running ``token``; :meth:`wait` reports it."""
        for worker in self._workers:
            if worker.token == token:
                worker.process.kill()

    def close(self):
        """Stop every worker: busy ones are killed, idle ones read end
        of file and exit (or are killed if they have not within 5 s)."""
        for worker in self._workers:
            if worker.token is not None:
                worker.process.kill()
            worker.conn.close()
        for worker in self._workers:
            worker.process.join(5.0)
            worker.process.kill()
            worker.process.join()
        self._workers = []
