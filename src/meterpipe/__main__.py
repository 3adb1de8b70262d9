"""Busybox-style dispatcher: ``python -m meterpipe <tool> [args...]``.

Lets the orchestrator and the benchmark harness spawn any tool without
relying on installed console scripts being on PATH.  ``run_stage`` is the
stage runner the orchestrator starts once per pipeline stage.
"""

import _signal  # signal's functions without its enum import; already loaded
import os
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


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help"):
        names = " ".join(sorted(_TOOLS))
        print(f"usage: python -m meterpipe <tool> [args...]\ntools: {names}")
        return 0 if argv else 1
    name = argv[0]
    if name not in _TOOLS:
        print(f"meterpipe: unknown tool {name!r}", file=sys.stderr)
        return 1
    modname, funcname = _TOOLS[name]
    module = __import__(modname, fromlist=[funcname])
    return getattr(module, funcname)(argv[1:])


def run_stage(argv=None):
    """Run one pipeline stage: ``<status fd> (<n> <tool> <n-1 args>)...``.

    The tools' modules are imported once, here.  Then each tool but the
    last runs in a forked child, reading fd 0 and writing a pipe that
    becomes the next tool's fd 0; the last tool runs in this process and
    writes fd 1.  Once every child is reaped, one line of exit statuses,
    in command order (negative for a signal), goes to the status fd.
    SIGTERM stops the stage (see ``_stop``).
    """
    _signal.signal(_signal.SIGTERM, _stop)
    # Blocked by the orchestrator while it started this process.
    _signal.pthread_sigmask(_signal.SIG_UNBLOCK, (_signal.SIGINT, _signal.SIGTERM))
    argv = sys.argv[1:] if argv is None else argv
    status_fd = int(argv[0])
    commands = []
    rest = argv[1:]
    while rest:
        n = int(rest[0])
        commands.append(rest[1 : n + 1])
        rest = rest[n + 1 :]
    for name, *_ in commands:
        if name in _TOOLS:
            __import__(_TOOLS[name][0])
    # The tools import only standard modules from here on (tempfile,
    # decimal); those load from the standard library's own bytecode cache.
    sys.pycache_prefix = None
    pids = []
    for command in commands[:-1]:
        read_end, write_end = os.pipe()
        sys.stderr.flush()  # or the child writes it again
        pid = os.fork()
        if pid == 0:
            code = 1
            try:  # the child never returns into this loop
                _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
                os.dup2(write_end, 1)
                os.closerange(3, os.sysconf("SC_OPEN_MAX"))
                code = _run_tool(command)
            finally:
                os._exit(code)
        pids.append(pid)
        os.close(write_end)
        os.dup2(read_end, 0)  # the next tool's stdin; drops this one's
        os.close(read_end)
    last = _run_tool(commands[-1])
    os.close(0)  # an upstream tool still writing gets EPIPE, not a full pipe
    codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    os.write(status_fd, " ".join(map(str, [*codes, last])).encode() + b"\n")
    return 0


def _stop(signum, frame):
    """Stop every tool of the stage and reap it, then exit.  The orchestrator
    sends SIGTERM to the stage's process group and waits for this process
    alone, so no tool outlives the stage or leaves its usage unaccounted."""
    _signal.signal(signum, _signal.SIG_IGN)
    os.killpg(0, signum)  # again, for a tool forked as the first one came
    while True:
        try:
            os.wait()
        except ChildProcessError:
            os._exit(128 + signum)


def _run_tool(argv):
    """Run one tool over fds 0 and 1; returns the exit status the tool
    would have had as a process of its own."""
    # New streams: the old ones cached what fds 0 and 1 were when this
    # process started, whether they could seek included.
    sys.stdin = open(0, encoding=sys.stdin.encoding, errors=sys.stdin.errors, closefd=False)
    sys.stdout = open(1, "w", encoding=sys.stdout.encoding, errors=sys.stdout.errors, closefd=False)
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


if __name__ == "__main__":
    sys.exit(main())
