"""Busybox-style dispatcher: ``python -m meterpipe <tool> [args...]``.

Lets a shell and the benchmark harness start any tool without relying on
installed console scripts being on PATH.  ``fork_stage`` starts the tools
of one pipeline stage as forks of the orchestrator: a lone tool runs its
main, and a run of row tools chains their cores, built from the row tools'
declarations (``tabular.ROW_TOOLS``), as generators in one fork.
"""

import gc
import os
import signal
import sys
from functools import partial
from itertools import accumulate, groupby

from .core import run_segment, stdin_fields

_TOOLS = {
    "xmldir": ("meterpipe.xmlflat", "main"),
    "self": ("meterpipe.tabular", "self_main"),
    "delf": ("meterpipe.tabular", "delf_main"),
    "delr": ("meterpipe.tabular", "delr_main"),
    "filter-tags": ("meterpipe.tabular", "filter_tags_main"),
    "group-number": ("meterpipe.tabular", "group_number_main"),
    "map": ("meterpipe.tabular", "map_main"),
    "cjoin1": ("meterpipe.join", "main"),
    "msort": ("meterpipe.sortagg", "msort_main"),
    "sm2": ("meterpipe.sortagg", "sm2_main"),
    "pipeline": ("meterpipe.pipeline", "main"),
    "bench": ("meterpipe.bench", "main"),
}

# The standard modules a tool imports on first use, on its normal path: sm2
# sums through core.exact_context (decimal).  fork_stage imports them just
# before it forks that tool, so the tool inherits them and no later stage
# pays for them again.  The parse stage's map takes --labels and runs in one
# pass, so it needs no spool and no tempfile (core.scratch_file).
_FIRST_USE = {"sm2": ("decimal",)}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help"):
        names = " ".join(sorted(_TOOLS))
        usage = f"usage: python -m meterpipe <tool> [args...]\ntools: {names}"
        print(usage, file=sys.stdout if argv else sys.stderr)
        return 0 if argv else 1
    name = argv[0]
    if name not in _TOOLS:
        print(f"meterpipe: unknown tool {name!r}", file=sys.stderr)
        return 1
    return _tool(name)(argv[1:])


def _tool(name):
    """The main function of the tool ``name``."""
    modname, funcname = _TOOLS[name]
    return getattr(__import__(modname, fromlist=[funcname]), funcname)


def fork_stage(commands, out_path, pids):
    """Fork one child per segment of ``commands`` (``_segments``), as a
    shell forks a pipeline's commands, and append each child's pid to
    ``pids``.  The first child reads /dev/null, each later one the previous
    one's pipe, and the last one writes ``out_path``.  Nothing execs: each
    child runs its tools on the modules this process has imported.  The
    caller holds SIGINT and SIGTERM, so that every pid is listed before a
    signal can stop the stage, and reaps the children.

    Returns a function of a child's place in ``pids`` that gives, once the
    child has been reaped, the index in ``commands`` of the command it
    failed in: the one whose core failed, in a fused child, as the child
    flagged it in memory shared with this process; otherwise, the first
    command of its segment."""
    import mmap  # on first use: a tool started alone forks nothing

    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # or a tool may write what it holds again
            stream.flush()
    segments = _segments(commands)
    starts = list(accumulate((len(argvs) for argvs, _ in segments), initial=0))
    failed = mmap.mmap(-1, len(commands))  # a fused child flags its failed command
    # Each child's stdin and stdout, in segment order.
    ends = [os.open(os.devnull, os.O_RDONLY)]
    try:
        for _ in segments[1:]:
            read_end, write_end = os.pipe()
            ends += (write_end, read_end)
        ends.append(os.open(out_path, os.O_WRONLY))
        for (argvs, cores), start, stdin, stdout in zip(segments, starts, ends[::2], ends[1::2]):
            for argv in argvs:
                for module in _FIRST_USE.get(argv[0], ()):
                    __import__(module)
            if cores is None:
                run = partial(main, argvs[0])
            else:
                run = partial(run_segment, cores, partial(_flag, failed, start))
            pid = os.fork()
            if pid == 0:
                _tool_process(run, stdin, stdout)
            pids.append(pid)
    finally:
        for fd in ends:
            os.close(fd)

    def failed_command(child):
        found = failed.find(b"\1", starts[child], starts[child + 1])
        return found if found >= 0 else starts[child]

    return failed_command


def _segments(commands):
    """The stage's commands grouped into the children that run them: a list
    of (argvs, cores), where ``cores`` chains the commands ``argvs`` as
    generators (``tabular.segment_core``), or is None for one command run
    alone.

    The first command runs alone: it reads the stage's files, and its
    process works beside the rest.  After it, each maximal run of row
    tools that each read stdin alone shares one child.  Every other
    command, and a run of one, runs alone.  Building a core parses its
    command and reads nothing."""
    from .tabular import segment_core  # the orchestrator has imported it

    cores = [None]  # each command's core, chained to the one before it
    for argv in commands[1:]:
        cores.append(segment_core(argv, cores[-1][1] if cores[-1] else stdin_fields()))
    segments = []
    for fused, run in groupby(zip(commands, cores), key=lambda pair: pair[1] is not None):
        run = list(run)
        if fused and len(run) > 1:
            segments.append(([argv for argv, _ in run], [core for _, core in run]))
        else:
            segments += (([argv], None) for argv, _ in run)
    return segments


def _flag(failed, start, index):
    """Flag the ``index``-th command of a fused child that starts at ``start``."""
    failed[start + index] = 1


def _tool_process(run, stdin, stdout):
    """The body of a forked child, which runs ``run()``; it exits and never
    returns."""
    code = 1
    try:  # a tool never returns into the orchestrator's code
        gc.freeze()  # the tool's collections skip the orchestrator's objects
        os.setsid()  # job-control signals reach the orchestrator alone
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, (signal.SIGINT, signal.SIGTERM))
        os.dup2(stdin, 0)
        os.dup2(stdout, 1)
        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
        code = _run_tool(run)
    finally:
        os._exit(code)


def _run_tool(run):
    """Run a tool, or a fused run of them, over fds 0 and 1: ``run()``
    returns the exit status it would have had as a process of its own."""
    # New streams: the old ones cached what fds 0 and 1 were when this
    # process started, whether they could seek included, sys.stderr may not
    # be fd 2 at all (a test's capture), and each is None if its fd was
    # closed then.  stderr is line-buffered, so an error line is written
    # before the tool exits.
    sys.stdin = _reopen(0, sys.stdin, "r")
    sys.stdout = _reopen(1, sys.stdout, "w")
    sys.stderr = _reopen(2, sys.stderr, "w", buffering=1)
    try:
        code = run()
    except BaseException:
        sys.excepthook(*sys.exc_info())
        code = 1
    try:  # the rows written before an exception go on too
        if not sys.stdout.closed:  # a tool closes it when its reader has gone
            sys.stdout.flush()
    except OSError:
        code = 120  # as the interpreter exits when its last flush fails
    return code


def _reopen(fd, stream, mode, **kwargs):
    """A new text stream on ``fd``, with ``stream``'s encoding and errors."""
    encoding, errors = (stream.encoding, stream.errors) if stream is not None else (None, None)
    return open(fd, mode, encoding=encoding, errors=errors, closefd=False, **kwargs)


if __name__ == "__main__":
    sys.exit(main())
