"""parallel.map_in_order: job order, errors, the OpenBLAS pin, the worker cap and no nesting."""

import sys
import threading
import time

import pytest

from chrono_shield import parallel


@pytest.mark.parametrize("n_cpus", [1, 64])
def test_worker_cap(cpus, n_cpus):
    cpus(n_cpus)
    for jobs in (0, 1, 2, 3, 64):
        assert parallel.worker_count(jobs) == min(2, n_cpus, jobs)


@pytest.mark.parametrize("n_cpus, jobs", [(1, 5), (64, 1), (64, 0)])
def test_one_worker_is_a_plain_loop(cpus, monkeypatch, n_cpus, jobs):
    cpus(n_cpus)
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", None)  # starting a pool would raise
    caller = threading.get_ident()
    out = parallel.map_in_order(lambda k: (k, threading.get_ident()), range(jobs))
    assert out == [(k, caller) for k in range(jobs)]


def test_results_in_job_order(cpus):
    cpus(2)

    def job(k):
        time.sleep(0.002 * (9 - k))  # early jobs finish last
        return k * k, threading.get_ident()

    out = parallel.map_in_order(job, range(10))
    assert [value for value, _ in out] == [k * k for k in range(10)]
    threads = {ident for _, ident in out}
    assert len(threads) <= 2 and threading.get_ident() not in threads


def test_job_exception_reaches_caller(cpus):
    cpus(2)

    def job(k):
        if k == 3:
            raise KeyError(k)
        return k

    with pytest.raises(KeyError):
        parallel.map_in_order(job, range(6))


@pytest.mark.skipif(parallel._openblas() is None, reason="no handle on numpy's bundled OpenBLAS")
@pytest.mark.parametrize("fail", [False, True])
def test_openblas_pinned_to_one_thread_and_restored(cpus, fail):
    cpus(2)
    get, set_ = parallel._openblas()
    before = get()
    set_(2)
    try:

        def job(k):
            if fail and k == 1:
                raise RuntimeError("job failed")
            return get()

        if fail:
            with pytest.raises(RuntimeError):
                parallel.map_in_order(job, range(4))
        else:
            assert parallel.map_in_order(job, range(4)) == [1, 1, 1, 1]
        assert get() == 2
    finally:
        set_(before)


def test_map_inside_a_job_runs_on_that_job_thread(cpus):
    cpus(2)

    def job(k):
        inner = parallel.map_in_order(lambda j: threading.get_ident(), range(3))
        return threading.get_ident(), inner, parallel.worker_count(8)

    out = parallel.map_in_order(job, range(2))
    for ident, inner, count in out:
        assert inner == [ident] * 3 and count == 1
    assert parallel.worker_count(8) == 2


def test_handles_are_looked_up_once(cpus, monkeypatch):
    cpus(2)
    parallel.map_in_order(abs, [1, 2])
    monkeypatch.setattr(parallel.ctypes, "CDLL", None)  # a second lookup would raise
    assert parallel.map_in_order(abs, [-1, -2]) == [1, 2]


@pytest.mark.skipif(parallel._openblas() is None, reason="no handle on numpy's bundled OpenBLAS")
def test_pin_blocks_nest_and_overlap_across_threads():
    get, set_ = parallel._openblas()
    before = get()
    set_(2)
    try:
        with parallel.one_blas_thread():
            with parallel.one_blas_thread():
                assert get() == 1
            assert get() == 1
        assert get() == 2
        # Thread A opens first and closes first; the count comes back when B closes.
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        counts = {}

        def a():
            with parallel.one_blas_thread():
                a_in.set()
                b_in.wait(5)
            a_out.set()

        def b():
            a_in.wait(5)
            with parallel.one_blas_thread():
                b_in.set()
                a_out.wait(5)
                counts["b after a"] = get()
            counts["after both"] = get()

        threads = [threading.Thread(target=a), threading.Thread(target=b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert counts == {"b after a": 1, "after both": 2}
    finally:
        set_(before)


@pytest.mark.skipif(parallel._openblas() is None, reason="no handle on numpy's bundled OpenBLAS")
def test_pin_survives_many_threads_opening_and_closing():
    # Eight threads on at most two cores, switching often: a lost update to
    # the open-block count would leave the thread count pinned or restored early.
    get, set_ = parallel._openblas()
    before, interval = get(), sys.getswitchinterval()
    set_(2)
    early = []

    def churn():
        for _ in range(300):
            with parallel.one_blas_thread():
                if get() != 1:
                    early.append(get())

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not any(t.is_alive() for t in threads)
        assert early == [] and get() == 2
    finally:
        sys.setswitchinterval(interval)
        set_(before)
