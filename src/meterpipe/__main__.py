"""Busybox-style dispatcher: ``python -m meterpipe <tool> [args...]``.

Lets the orchestrator and the benchmark harness spawn any tool without
relying on installed console scripts being on PATH.  ``serve`` is the
stage runner the orchestrator starts once per pipeline run.
"""

import _signal  # signal's functions without its enum import; already loaded
import marshal
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

# The standard modules a tool imports on first use, on its normal path:
# map spools stdin through core.scratch_file (tempfile), and sm2 sums
# through core._exact_context (decimal).  The stage runner imports them
# just before it forks that tool, so the tool inherits them and no later
# stage pays for them again.  msort imports tempfile only when it spills,
# so it is not listed.
_FIRST_USE = {"map": ("tempfile",), "sm2": ("decimal",)}


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


def serve():
    """The stage runner of one pipeline run.

    Each request on stdin is one stage, as one ``marshal``-ed tuple: its
    commands (a list of argv lists) and the path of the last command's
    stdout; the first command reads /dev/null.  The runner imports the
    stage's tool modules, caching their bytecode under the
    ``sys.pycache_prefix`` the launcher set, and forks one child per tool,
    as a shell forks the commands of a pipeline: each reads the previous
    tool's pipe and writes the next one's.  Before it forks a tool, it
    imports the standard modules that tool imports on first use
    (``_FIRST_USE``), while the tools before it run.  Once it has reaped
    every tool, it replies on stdout with the tools' exit statuses in
    command order, negative for a signal, ``marshal``-ed.  It exits at the
    end of its stdin.  SIGTERM stops the runner and the stage (see
    ``_stop``).
    """
    _signal.signal(_signal.SIGTERM, _stop)
    # Blocked by the orchestrator while it started this process.
    _signal.pthread_sigmask(_signal.SIG_UNBLOCK, (_signal.SIGINT, _signal.SIGTERM))
    prefix = sys.pycache_prefix
    while True:
        try:
            commands, out_path = marshal.load(sys.stdin.buffer)
        except EOFError:
            return 0
        # The prefix is set around meterpipe's own imports alone: the
        # standard modules load from the standard library's own cache.
        sys.pycache_prefix = prefix
        for name, *_ in commands:
            if name in _TOOLS:
                __import__(_TOOLS[name][0])
        sys.pycache_prefix = None
        sys.stderr.flush()  # or every tool writes it again
        stdin = os.open(os.devnull, os.O_RDONLY)
        stdout = os.open(out_path, os.O_WRONLY)
        pids = []
        for i, command in enumerate(commands):
            for module in _FIRST_USE.get(command[0], ()):
                __import__(module)
            read_end, write_end = os.pipe() if i < len(commands) - 1 else (None, stdout)
            pid = os.fork()
            if pid == 0:
                code = 1
                try:  # a tool never returns into this loop
                    _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
                    os.dup2(stdin, 0)
                    os.dup2(write_end, 1)
                    os.closerange(3, os.sysconf("SC_OPEN_MAX"))
                    code = _run_tool(command)
                finally:
                    os._exit(code)
            pids.append(pid)
            os.close(stdin)
            os.close(write_end)
            stdin = read_end
        codes = [os.waitstatus_to_exitcode(os.wait4(pid, 0)[1]) for pid in pids]
        try:
            marshal.dump(codes, sys.stdout.buffer)
            sys.stdout.buffer.flush()
        except OSError:
            return 1  # the orchestrator has gone


def _stop(signum, frame):
    """Stop every tool of the stage and reap it, then exit.  The
    orchestrator sends SIGTERM to the runner's process group and waits for
    the runner alone; the runner reaps its tools, so no tool outlives the
    run or leaves its usage unaccounted."""
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
