"""The supervised worker pool both executors run on (repro.utils.pool)."""

import multiprocessing
import os
import signal
import time

from repro.errors import ReproError, TransientFault
from repro.utils.pool import DIED, DONE, EXPIRED, RAISED, WorkerPool, exit_reason


def _drain(pool, pending, deadline):
    """Feed ``pending`` through ``pool``; returns ``{token: (kind, value)}``."""
    ended = {}
    queue = list(pending)[::-1]
    busy = 0
    while queue or busy:
        assert time.time() < deadline, "pool stalled with %d busy" % busy
        while queue and busy < pool.jobs:
            token, item = queue.pop()
            pool.submit(token, item)
            busy += 1
        for token, kind, value in pool.wait(1.0):
            assert token not in ended, "item %r ended twice" % token
            ended[token] = (kind, value)
            busy -= 1
        assert len(multiprocessing.active_children()) <= pool.jobs
    return ended


def _handler(item):
    if item % 5 == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    if item % 7 == 0:
        raise TransientFault(item)
    return item * item


def test_every_item_ends_once_through_deaths_and_errors():
    # More workers than cores, and every fifth item kills its worker:
    # each item is reported exactly once, with the right kind, and dead
    # workers are replaced without ever exceeding ``jobs``.
    items = range(1, 61)
    with WorkerPool(_handler, jobs=4) as pool:
        ended = _drain(pool, [(i, i) for i in items], time.time() + 60)
    assert sorted(ended) == list(items)
    for item, (kind, value) in ended.items():
        if item % 5 == 0:
            assert (kind, value) == (DIED, -signal.SIGKILL)
        elif item % 7 == 0:
            assert kind == RAISED and isinstance(value, TransientFault)
            assert value.vaddr == item  # rebuilt with its state
        else:
            assert (kind, value) == (DONE, item * item)
    assert multiprocessing.active_children() == []


class _Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.callback = lambda: None  # lambdas do not pickle


def _raise_unpicklable(item):
    raise _Unpicklable("no pickle for %s" % item)


def test_an_exception_that_does_not_pickle_crosses_as_repro_error():
    with WorkerPool(_raise_unpicklable, jobs=1) as pool:
        pool.submit("a", 1)
        [(token, kind, value)] = pool.wait(30.0)
    assert (token, kind) == ("a", RAISED)
    assert isinstance(value, ReproError)
    assert str(value) == "_Unpicklable: no pickle for 1"


def _sleep(seconds):
    time.sleep(seconds)
    return seconds


def test_workers_persist_and_close_stops_busy_and_idle_ones():
    pool = WorkerPool(_sleep, jobs=2)
    first = pool.submit("a", 0)
    assert pool.wait(30.0) == [("a", DONE, 0)]
    assert pool.submit("b", 0) == first  # the idle worker is reused
    pool.wait(30.0)
    pool.submit("c", 60)  # busy for a minute: close must kill it
    started = time.time()
    pool.close()
    assert time.time() - started < 10
    assert multiprocessing.active_children() == []


def test_kill_reports_the_death_and_exit_reason_names_the_signal():
    with WorkerPool(_sleep, jobs=1) as pool:
        pool.submit("hung", 60)
        pool.kill("hung")
        [(token, kind, value)] = pool.wait(30.0)
    assert (token, kind) == ("hung", DIED)
    assert exit_reason(value) == "killed by signal 9 (SIGKILL)"
    assert exit_reason(1) == "exited with code 1"


def test_an_item_past_its_deadline_expires_and_its_worker_is_replaced():
    # One worker sleeps far past its item's deadline while the other
    # runs an item that has none: the late item is reported expired
    # soon after its deadline, its worker is gone, and the pool forks
    # a fresh worker for the next item.
    with WorkerPool(_sleep, jobs=2) as pool:
        started = time.time()
        stuck = pool.submit("stuck", 60, deadline=0.5)
        pool.submit("quick", 0.2)
        ended = {}
        while len(ended) < 2:
            assert time.time() - started < 30, ended
            for token, kind, value in pool.wait(30.0):
                ended[token] = (kind, value, time.time() - started)
        assert ended["quick"][:2] == (DONE, 0.2)
        assert ended["stuck"][:2] == (EXPIRED, -signal.SIGKILL)
        assert 0.5 <= ended["stuck"][2] < 2.0
        assert stuck not in [child.pid for child in multiprocessing.active_children()]
        # Two more items: one on the idle worker, one on a fresh fork.
        pids = {pool.submit(token, 0, deadline=30.0) for token in ("x", "y")}
        assert len(pids) == 2 and stuck not in pids
        ended = []
        while len(ended) < 2:
            assert time.time() - started < 60, ended
            ended += pool.wait(30.0)
        assert sorted(ended) == [("x", DONE, 0), ("y", DONE, 0)]
    assert multiprocessing.active_children() == []
