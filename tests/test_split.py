"""A Monte Carlo call split between the caller and one worker process.

The split is forced on by setting the private `_SPLIT_MIN_DRAWS` to 0
with two CPUs in the affinity mask, and forced off through the affinity
mask.  Either way a call gives the same bytes and raises what a serial
call raises.  The worker is forked by the first call that splits, and
every test starts and ends without one, so that a test's worker sees
the test's patches and no process is left behind.
"""

from __future__ import annotations

import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from telegraph_box import (
    Boundary,
    ModelParams,
    RandomSource,
    SwitchingProb,
    analytics,
    cli,
    montecarlo,
    simulate_until_absorption,
)
from telegraph_box.errors import TelegraphBoxError
from telegraph_box.simulate import _run_phases
from test_engines import SCALAR_CASES

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="a call forks only on Linux")

# (lam, mu, H, alpha, paths): the three benchmark regimes, and three
# batches of which the last holds the remainder
GATHER_CASES = ((1.0, 2.0, 1.0, 0.5, 2 ** 15), (5.0, 5.0, 20.0, 1.0, 2000),
                (1.0, 2.0, 1.0, 0.02, 2000), (1.0, 2.0, 1.0, 0.5, 2 ** 15 + 1234))


@pytest.fixture(autouse=True)
def no_child_left():
    montecarlo._stop_worker()
    yield
    montecarlo._stop_worker()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Count the calls of os.fork."""
    count = []
    fork = os.fork

    def counted():
        count.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return count


def split_on(monkeypatch):
    monkeypatch.setattr(montecarlo, "_SPLIT_MIN_DRAWS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def split_off(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def gather(case, seed=3):
    p, s = ModelParams(*case[:3]), SwitchingProb(case[3])
    omega = montecarlo._clock_frequencies(analytics.expected_cycles(p))
    return montecarlo._gather(p, s, case[4], seed, omega).tobytes()


def python_c(code):
    """The stdout of `python -c code` in a fresh interpreter with this
    package on its path."""
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


def jobs_of(n_paths):
    sizes = [montecarlo.BATCH_SIZE] * (n_paths // montecarlo.BATCH_SIZE)
    sizes += [n_paths % montecarlo.BATCH_SIZE] if n_paths % montecarlo.BATCH_SIZE else []
    return [(b, engine, k) for b, k in enumerate(sizes) for engine in range(3)]


@pytest.mark.parametrize("case", GATHER_CASES, ids=str)
def test_split_and_serial_calls_give_the_same_bytes(monkeypatch, forks, case):
    split_off(monkeypatch)
    serial = gather(case)
    assert not forks
    split_on(monkeypatch)
    assert gather(case) == serial
    assert len(forks) == 1


def test_the_benchmark_regimes_split_only_where_the_forms_predict_a_gain(monkeypatch):
    # the worker takes the lighter share, and a call splits once that share
    # passes 2^16 draws.  At alpha = 0.02 the worker runs the two phase
    # jobs, about 77k draws against 2M for the absorption job; at r*H = 100
    # one of three equal jobs; the README regime at 2^17 paths keeps the
    # exact tie of longest-first, with batches 0, 2, 4 and 6 the worker's.
    # The 1000-path warm-up call, 4.7k draws a share, stays serial
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for case, n_paths, child in (((1.0, 2.0, 1.0, 0.5), 1000, []),
                                 ((1.0, 2.0, 1.0, 0.02), 2 ** 14, [1, 2]),
                                 ((1.0, 2.0, 1.0, 0.5), 2 ** 17,
                                  [j for j in range(24) if j // 3 % 2 == 0]),
                                 ((5.0, 5.0, 20.0, 1.0), 2 ** 14, [1])):
        p, s = ModelParams(*case[:3]), SwitchingProb(case[3])
        assert montecarlo._child_share(p, s, jobs_of(n_paths)) == child, case


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
       st.floats(-8.0, 0.0), st.integers(1000, 2 ** 20))
@example(0.0, math.log10(2.0), 0.0, math.log10(0.5), 2 ** 17)
@settings(max_examples=200, deadline=None)
def test_the_worker_takes_the_lighter_share_of_a_partition(lam, mu, h, alpha, n_paths):
    # log-uniform rates, level and alpha; the shares are summed in the
    # order longest-first adds the jobs, as _child_share sums them
    p, s = ModelParams(10.0 ** lam, 10.0 ** mu, 10.0 ** h), SwitchingProb(10.0 ** alpha)
    jobs = jobs_of(n_paths)
    units = montecarlo._predicted_draws(p, s)
    draws = [size * units[engine] for _, engine, size in jobs]
    with pytest.MonkeyPatch.context() as mp:
        split_on(mp)
        child = montecarlo._child_share(p, s, jobs)
    assert child and child == sorted(set(child)) and set(child) < set(range(len(jobs)))
    order = sorted(range(len(jobs)), key=lambda j: -draws[j])
    assert (sum(draws[j] for j in order if j in child)
            <= sum(draws[j] for j in order if j not in child))


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_a_failing_job_of_the_child_raises_the_serial_error(capsys, monkeypatch, forks,
                                                            command):
    # at alpha = 1e-7 the absorption job fails on its phase budget.  The
    # worker holds it alone here, which the lighter share never does at
    # this alpha; the caller's phase jobs succeed, it reads no rows, and it
    # runs the worker's job again itself
    argv = [command, "--lambda", "1", "--mu", "2", "--h", "1", "--alpha", "1e-7",
            "--paths", "1000", "--seed", "1"]
    split_off(monkeypatch)
    assert cli.run(argv) == 2
    serial = capsys.readouterr()
    assert "max_phases" in serial.err and not forks
    split_on(monkeypatch)
    monkeypatch.setattr(montecarlo, "_child_share", lambda p, s, jobs: [0])
    assert cli.run(argv) == 2
    assert capsys.readouterr() == serial
    assert len(forks) == 1


@pytest.mark.parametrize("childs_first", [False, True], ids=["caller-first", "child-first"])
def test_the_first_failing_job_in_job_order_raises(monkeypatch, forks, childs_first):
    # one job fails in each share; the error is that of the earlier one in
    # job order, as in a serial run, whichever share ran it
    case = GATHER_CASES[-1]
    p, s, jobs = ModelParams(*case[:3]), SwitchingProb(case[3]), jobs_of(case[4])
    split_on(monkeypatch)
    child = montecarlo._child_share(p, s, jobs)
    mine = [j for j in range(len(jobs)) if j not in child]
    first = (child if childs_first else mine)[0]
    later = min(j for j in (mine if childs_first else child) if j > first)
    job_moments = montecarlo._job_moments

    def failing(p, s, seed, omega, job):
        if job in (jobs[first], jobs[later]):
            raise TelegraphBoxError(f"job {job}")
        return job_moments(p, s, seed, omega, job)

    monkeypatch.setattr(montecarlo, "_job_moments", failing)
    for split in (split_off, split_on):
        split(monkeypatch)
        with pytest.raises(TelegraphBoxError) as err:
            gather(case)
        assert str(err.value) == f"job {jobs[first]}"
    assert len(forks) == 1


def test_the_jobs_of_a_child_that_dies_run_in_the_caller(monkeypatch, forks):
    caller = os.getpid()
    job_moments = montecarlo._job_moments

    def dying(*args):
        if os.getpid() != caller:
            os._exit(1)
        return job_moments(*args)

    case = GATHER_CASES[-1]
    split_off(monkeypatch)
    serial = gather(case)
    split_on(monkeypatch)
    monkeypatch.setattr(montecarlo, "_job_moments", dying)
    assert gather(case) == serial
    assert len(forks) == 1


def test_a_call_that_cannot_fork_runs_every_job_itself(monkeypatch):
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    case = GATHER_CASES[-1]
    split_off(monkeypatch)
    serial = gather(case)
    split_on(monkeypatch)
    monkeypatch.setattr(os, "fork", fork)
    assert gather(case) == serial


def test_the_caller_runs_only_its_own_share(monkeypatch, forks):
    # the rows of a child that ends are taken, not computed again here
    case = GATHER_CASES[-1]
    p, s, jobs = ModelParams(*case[:3]), SwitchingProb(case[3]), jobs_of(case[4])
    split_on(monkeypatch)
    child = montecarlo._child_share(p, s, jobs)
    job_moments, ran = montecarlo._job_moments, []

    def counted(p, s, seed, omega, job):
        ran.append(job)
        return job_moments(p, s, seed, omega, job)

    monkeypatch.setattr(montecarlo, "_job_moments", counted)
    gather(case)
    assert ran == [job for j, job in enumerate(jobs) if j not in child]
    assert len(forks) == 1


@pytest.mark.parametrize("fails", ["pipe", "second-pipe", "fork", "pidfd"])
def test_a_call_without_a_pipe_or_a_process_runs_every_job_itself(monkeypatch, fails):
    # a process at its descriptor limit gets EMFILE from os.pipe or
    # os.pidfd_open; whether the first pipe, the second, the fork or the
    # pidfd fails, the call is serial, it leaves no descriptor open, and a
    # worker forked before its pidfd failed leaves and is reaped
    pipes = {"pipe": 0, "second-pipe": 1, "fork": 2, "pidfd": 2}[fails]
    pipe, opened = os.pipe, []

    def pipe_or_fail():
        if len(opened) == 2 * pipes:
            raise OSError(24, "Too many open files")
        fds = pipe()
        opened.extend(fds)
        return fds

    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    def pidfd_open(pid):
        raise OSError(24, "Too many open files")

    case = GATHER_CASES[-1]
    split_off(monkeypatch)
    serial = gather(case)
    split_on(monkeypatch)
    monkeypatch.setattr(os, "pipe", pipe_or_fail)
    if fails == "pidfd":
        monkeypatch.setattr(os, "pidfd_open", pidfd_open)
    else:
        monkeypatch.setattr(os, "fork", fork)
    assert gather(case) == serial
    assert len(opened) == 2 * pipes
    for fd in opened:
        with pytest.raises(OSError):
            os.fstat(fd)
    assert montecarlo._worker is None


@pytest.mark.parametrize("cut", [lambda n: 1, lambda n: 2, lambda n: n // 2,
                                 lambda n: n - 8, lambda n: n - 1],
                         ids=["first-byte", "header", "half", "all-but-8", "all-but-1"])
def test_a_child_that_writes_part_of_its_rows_is_not_trusted(monkeypatch, forks, cut):
    # the child leaves after writing the first `cut` bytes of its pickled
    # answer; the caller takes none of its rows and runs every job of the
    # child itself.  Cut after the two-byte protocol header, the answer
    # fails to load as EOFError, and at the other cuts as UnpicklingError
    caller, write = os.getpid(), os.write

    def partial(fd, data):
        if os.getpid() != caller:
            write(fd, bytes(data)[:cut(len(data))])
            os._exit(0)
        return write(fd, data)

    case = GATHER_CASES[-1]
    split_off(monkeypatch)
    serial = gather(case)
    split_on(monkeypatch)
    monkeypatch.setattr(os, "write", partial)
    assert gather(case) == serial
    assert len(forks) == 1


def test_a_child_reaped_by_the_system_is_not_an_error(monkeypatch, forks):
    # with SIGCHLD ignored, the system reaps the worker itself, and waiting
    # for it raises ChildProcessError once it has left
    case = GATHER_CASES[-1]
    split_off(monkeypatch)
    serial = gather(case)
    split_on(monkeypatch)
    handler = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert gather(case) == serial
        montecarlo._stop_worker()
    finally:
        signal.signal(signal.SIGCHLD, handler)
    assert len(forks) == 1


def test_a_worker_reaped_by_the_system_is_not_signalled_by_its_pid(monkeypatch):
    # with SIGCHLD ignored, a worker that leaves by itself is reaped by the
    # system and its pid is free for another process; stopping it then
    # signals nothing by pid
    split_on(monkeypatch)
    handler = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        gather(GATHER_CASES[1])
        pid = montecarlo._worker[0]
        os.kill(pid, signal.SIGTERM)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        killed = []
        monkeypatch.setattr(os, "kill", lambda *args: killed.append(args))
        montecarlo._stop_worker()
    finally:
        signal.signal(signal.SIGCHLD, handler)
    assert not killed and montecarlo._worker is None


def test_an_interrupted_caller_kills_its_child(monkeypatch, forks):
    # the child would run for a minute; the caller is interrupted in its
    # own first job, and the child is killed and reaped before it returns
    caller = os.getpid()

    def job_moments(*args):
        if os.getpid() != caller:
            time.sleep(60.0)
            os._exit(0)
        raise KeyboardInterrupt

    split_on(monkeypatch)
    monkeypatch.setattr(montecarlo, "_job_moments", job_moments)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        gather(GATHER_CASES[0])
    assert time.monotonic() - t0 < 30.0
    assert len(forks) == 1


def test_a_failing_caller_kills_its_child(monkeypatch, forks):
    # the child would run for a minute; the caller's own first job fails,
    # and the child is killed, not waited for, before the error is raised
    caller = os.getpid()

    def job_moments(*args):
        if os.getpid() != caller:
            time.sleep(60.0)
            os._exit(0)
        raise TelegraphBoxError("the caller's job")

    split_on(monkeypatch)
    monkeypatch.setattr(montecarlo, "_job_moments", job_moments)
    t0 = time.monotonic()
    with pytest.raises(TelegraphBoxError, match="the caller's job"):
        gather(GATHER_CASES[0])
    assert time.monotonic() - t0 < 30.0
    assert len(forks) == 1


def test_a_caller_with_a_second_thread_stays_serial(monkeypatch, forks):
    case = GATHER_CASES[0]
    split_off(monkeypatch)
    serial = gather(case)
    split_on(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert gather(case) == serial
    finally:
        release.set()
        other.join(timeout=10.0)
    assert not other.is_alive()
    assert not forks


def test_the_fork_warning_of_a_threaded_process_stays_inside(monkeypatch):
    # Python 3.12 and later warn when a process with native threads forks;
    # the warning is made here, since this process may have none
    fork, warned = os.fork, []

    def warning_fork():
        warned.append(os.getpid())
        warnings.warn("This process is multi-threaded, use of fork() may lead "
                      "to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return fork()

    split_on(monkeypatch)
    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gather(GATHER_CASES[1])
    assert len(warned) == 1


def test_split_validate_output_is_byte_identical(capsys, monkeypatch, forks):
    argv = ["validate", "--lambda", "5", "--mu", "5", "--h", "20", "--alpha", "1",
            "--paths", "2000", "--seed", "31", "--format", "json"]
    split_off(monkeypatch)
    assert cli.run(argv) == 0
    serial = capsys.readouterr().out
    split_on(monkeypatch)
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == serial
    assert len(forks) == 1


# ---------------------------------------------------------------------------
# the worker's lifetime


def test_split_calls_reuse_one_worker(monkeypatch, forks):
    split_off(monkeypatch)
    serial = [gather(case) for case in GATHER_CASES[:3]]
    split_on(monkeypatch)
    assert [gather(case) for case in GATHER_CASES[:3]] == serial
    assert len(forks) == 1


def test_a_killed_worker_is_dropped_and_forked_again(monkeypatch, forks):
    # the worker is killed between calls and waited for, unreaped, until
    # it is gone; the next call's request meets a closed pipe, that call
    # runs the worker's jobs itself, and the call after it forks again
    case = GATHER_CASES[-1]
    split_off(monkeypatch)
    serial = gather(case)
    split_on(monkeypatch)
    assert gather(case) == serial
    pid = montecarlo._worker[0]
    os.kill(pid, signal.SIGKILL)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    assert gather(case) == serial
    assert montecarlo._worker is None and len(forks) == 1
    assert gather(case) == serial
    assert montecarlo._worker is not None and len(forks) == 2


def test_a_call_that_does_not_split_forks_nothing_and_registers_no_hook(
        capsys, monkeypatch, forks):
    # the benchmark's warm-up call; the first call that splits registers
    # the exit hook and the fork hook, once
    import atexit

    hooks = []
    monkeypatch.setattr(montecarlo, "_hooked", False)
    monkeypatch.setattr(atexit, "register", hooks.append)
    monkeypatch.setattr(os, "register_at_fork", lambda **kw: hooks.append(kw))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert cli.run(["validate", "--lambda", "1", "--mu", "2", "--h", "1", "--alpha", "0.5",
                    "--paths", "1000", "--seed", "0", "--threads", "2",
                    "--format", "json"]) == 0
    capsys.readouterr()
    assert not forks and not hooks and montecarlo._worker is None
    split_on(monkeypatch)
    gather(GATHER_CASES[1])
    gather(GATHER_CASES[1])
    assert len(forks) == 1
    assert hooks == [montecarlo._stop_worker, {"after_in_child": montecarlo._forget_worker}]


def test_a_forked_process_forks_its_own_worker(monkeypatch, forks):
    # a process forked from the worker's owner, as a multiprocessing fork
    # child is, closes its copies of the worker's pipes at once and forks
    # a worker of its own when it splits; the owner keeps its worker
    case = GATHER_CASES[1]
    split_off(monkeypatch)
    serial = gather(case)
    split_on(monkeypatch)
    assert gather(case) == serial
    fds = montecarlo._worker[1:]
    pid = os.fork()
    if pid == 0:
        ok = False
        try:
            closed = []
            for fd in fds:
                try:
                    os.fstat(fd)
                except OSError:
                    closed.append(fd)
            ok = (montecarlo._worker is None and len(closed) == 3
                  and gather(case) == serial and len(forks) == 3)
            montecarlo._stop_worker()
        finally:
            os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert gather(case) == serial
    assert len(forks) == 2   # the worker, and this test's own fork


def test_the_worker_holds_no_descriptor_of_its_owner(monkeypatch):
    # a pipe the owner opened before its first split call, and closes
    # after it, reads its end while the worker still runs: the worker
    # holds no copy of the write end
    read, write = os.pipe()
    try:
        split_on(monkeypatch)
        gather(GATHER_CASES[1])
        pid = montecarlo._worker[0]
        os.close(write)
        write = None
        os.set_blocking(read, False)
        assert os.read(read, 1) == b""
        os.kill(pid, 0)   # the worker is still there
    finally:
        for fd in (read, write):
            if fd is not None:
                os.close(fd)


def test_a_worker_whose_owner_is_gone_leaves(monkeypatch, forks):
    # an owner that leaves through os._exit runs no exit hook, but its end
    # of the request pipe closes; the worker reads the end of its requests
    # and leaves by itself
    split_on(monkeypatch)
    gather(GATHER_CASES[1])
    pid, pidfd, request, reply = montecarlo._worker
    montecarlo._worker = None
    for fd in (pidfd, request, reply):
        os.close(fd)
    deadline = time.monotonic() + 30.0
    done, status = os.waitpid(pid, os.WNOHANG)
    while not done and time.monotonic() < deadline:
        time.sleep(0.01)
        done, status = os.waitpid(pid, os.WNOHANG)
    if not done:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done and os.waitstatus_to_exitcode(status) == 0


def test_importing_the_package_loads_no_process_machinery():
    # none of these is imported by numpy; the split imports signal when it
    # first stops a worker and the others never, so a process that imports
    # the package and stays serial pays for none of them
    code = ("import sys, numpy\n"
            "import telegraph_box, telegraph_box.cli\n"
            "print(sorted({'signal', 'socket', 'multiprocessing', 'concurrent.futures'}"
            " & set(sys.modules)))\n")
    assert python_c(code) == "[]\n"


def test_no_worker_outlives_the_interpreter():
    # the exit hook reaps the worker before the interpreter that forked
    # it leaves
    code = (
        "import os\n"
        "from telegraph_box import ModelParams, SwitchingProb, analytics, montecarlo\n"
        "montecarlo._SPLIT_MIN_DRAWS = 0\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "p, s = ModelParams(5.0, 5.0, 20.0), SwitchingProb(1.0)\n"
        "omega = montecarlo._clock_frequencies(analytics.expected_cycles(p))\n"
        "montecarlo._gather(p, s, 2000, 3, omega)\n"
        "print(montecarlo._worker[0])\n")
    pid = int(python_c(code))
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


# ---------------------------------------------------------------------------
# the work prediction that weighs the jobs


@pytest.mark.parametrize("case", SCALAR_CASES)
@pytest.mark.parametrize("start", [Boundary.ORIGIN, Boundary.LEVEL])
def test_predicted_draws_per_phase_match_the_kernel(case, start):
    # a phase draws n_switches + 1 exponentials
    p = ModelParams(*case)
    _, origin, level = montecarlo._predicted_draws(p, SwitchingProb(1.0))
    n_switches = _run_phases(start, p, RandomSource(5, 0), 2 ** 14, dual=False)[2]
    draws = n_switches + 1.0
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    want = origin if start is Boundary.ORIGIN else level
    assert abs(draws.mean() - want) < 4.0 * se, (case, start, draws.mean(), want)


@pytest.mark.parametrize("alpha, paths", [(0.5, 4000), (0.02, 400)])
def test_predicted_draws_per_path_match_a_counted_run(alpha, paths):
    p, s = ModelParams(1.0, 2.0, 1.0), SwitchingProb(alpha)
    rng = RandomSource(6, 0)
    draws = np.array([sum(len(ph.ups) + len(ph.downs)
                          for ph in simulate_until_absorption(p, s, rng).phases)
                      for _ in range(paths)], dtype=float)
    se = draws.std(ddof=1) / math.sqrt(paths)
    want = montecarlo._predicted_draws(p, s)[0]
    assert abs(draws.mean() - want) < 4.0 * se, (alpha, draws.mean(), want)
