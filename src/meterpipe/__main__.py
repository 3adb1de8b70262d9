"""Busybox-style dispatcher: ``python -m meterpipe <tool> [args...]``.

Lets a shell and the benchmark harness start any tool without relying on
installed console scripts being on PATH.  ``fork_stage`` starts the tools
of one pipeline stage as forks of the orchestrator, which run them through
the same table.
"""

import gc
import os
import signal
import sys

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
    modname, funcname = _TOOLS[name]
    module = __import__(modname, fromlist=[funcname])
    return getattr(module, funcname)(argv[1:])


def fork_stage(commands, out_path, pids):
    """Fork one child per command, as a shell forks a pipeline's commands,
    and append each child's pid to ``pids``.  The first command reads
    /dev/null, each later one the previous one's pipe, and the last one
    writes ``out_path``.  Nothing execs: each child runs its tool on the
    modules this process has imported.  The caller holds SIGINT and SIGTERM,
    so that every pid is listed before a signal can stop the stage, and
    reaps the children."""
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # or a tool may write what it holds again
            stream.flush()
    # Each tool's stdin and stdout, in command order.
    ends = [os.open(os.devnull, os.O_RDONLY)]
    try:
        for _ in commands[1:]:
            read_end, write_end = os.pipe()
            ends += (write_end, read_end)
        ends.append(os.open(out_path, os.O_WRONLY))
        for command, stdin, stdout in zip(commands, ends[::2], ends[1::2]):
            for module in _FIRST_USE.get(command[0], ()):
                __import__(module)
            pid = os.fork()
            if pid == 0:
                _tool_process(command, stdin, stdout)
            pids.append(pid)
    finally:
        for fd in ends:
            os.close(fd)


def _tool_process(argv, stdin, stdout):
    """The body of a forked tool; it exits and never returns."""
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
        code = _run_tool(argv)
    finally:
        os._exit(code)


def _run_tool(argv):
    """Run one tool over fds 0 and 1; returns the exit status the tool
    would have had as a process of its own."""
    # New streams: the old ones cached what fds 0 and 1 were when this
    # process started, whether they could seek included, sys.stderr may not
    # be fd 2 at all (a test's capture), and each is None if its fd was
    # closed then.  stderr is line-buffered, so an error line is written
    # before the tool exits.
    sys.stdin = _reopen(0, sys.stdin, "r")
    sys.stdout = _reopen(1, sys.stdout, "w")
    sys.stderr = _reopen(2, sys.stderr, "w", buffering=1)
    try:
        code = main(argv)
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
