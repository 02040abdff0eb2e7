"""parallel.map_in_order: job order, errors, the OpenBLAS pin and the worker cap."""

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
