"""Command-line interface.

``python -m repro <experiment>`` (or the installed ``repro`` script) runs
one of the registered experiments from :mod:`repro.experiments`.  One
subparser per experiment is generated straight from its
:class:`~repro.experiments.api.ParamSpec` table, so every experiment
accepts exactly its own flags -- a flag that belongs to a different
experiment is a hard parse error, not a silently ignored namespace entry.
``python -m repro --list`` prints each experiment's name and one-line
summary from the registry.

Every subcommand also gains the uniform output surface for free:
``--format text|json|csv`` selects the rendering (JSON payloads follow
``docs/schemas/experiment-result.schema.json``), ``--output FILE`` writes
it to a file (``-`` keeps stdout), and ``--force`` allows overwriting.

Sweep-style experiments additionally accept ``--workers N`` to fan trials
out across the process-wide worker pool (default: ``$REPRO_WORKERS`` or
every usable CPU; ``--workers 1`` stays in-process) and ``--cache`` to
reuse previously computed trials from the content-addressed result cache
(see :mod:`repro.runtime`); ``lp`` takes ``--workers`` for its objective
solves.  Both leave the reported numbers bit-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.experiments.api import RESULT_FORMATS, Experiment, RuntimeOptions
from repro.experiments.registry import get_experiment, iter_experiments
from repro.runtime import ResultCache

#: Registered experiments by name (kept for backward compatibility; the
#: registry is the source of truth).
EXPERIMENTS: Dict[str, Experiment] = {
    experiment.name: experiment for experiment in iter_experiments()
}

#: Tool subcommands that are not experiments: the profiling harness
#: (see :mod:`repro.perf`), service mode --
#: the persistent experiment daemon plus its submission client
#: (see :mod:`repro.serve`) -- and the telemetry-stream inspector
#: (see :mod:`repro.obs`).
TOOL_COMMANDS = ("profile", "serve", "submit", "obs")


def _positive_int(value: str) -> int:
    workers = int(value)
    if workers < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return workers


def _add_runtime_flags(parser: argparse.ArgumentParser, cache: bool) -> None:
    """The parallel-runtime knobs: ``--workers``, plus the trial cache's
    flags when ``cache`` (the sweep experiments)."""
    group = parser.add_argument_group("runtime options")
    group.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="worker processes, shared by every run in this process (default: "
        "$REPRO_WORKERS, else every usable CPU; 1 runs in-process; results are "
        "identical for any value)",
    )
    if not cache:
        return
    group.add_argument(
        "--cache",
        action="store_true",
        help="reuse previously computed trials from the on-disk result cache",
    )
    group.add_argument(
        "--cache-dir",
        # SUPPRESS: when the flag is absent the subparser leaves the parent
        # namespace alone, so a pre-subcommand `repro --cache-dir X figure4`
        # is not clobbered back to None by the subparser's default.
        default=argparse.SUPPRESS,
        metavar="DIR",
        help="result-cache directory (implies --cache; default: $REPRO_CACHE_DIR "
        "or ~/.cache/repro-quantum)",
    )


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    """The uniform result-output surface every experiment gains for free."""
    group = parser.add_argument_group("output options")
    group.add_argument(
        "--format",
        choices=RESULT_FORMATS,
        default="text",
        help="result rendering: human-readable text report, machine-readable "
        "JSON (docs/schemas/experiment-result.schema.json), or CSV rows",
    )
    group.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the rendered result to FILE instead of stdout ('-' keeps stdout)",
    )
    group.add_argument(
        "--force",
        action="store_true",
        help="overwrite the --output file if it already exists",
    )


def _add_telemetry_flag(parser: argparse.ArgumentParser) -> None:
    """The observation-only telemetry sink every experiment gains for free."""
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="FILE",
        help="record spans and metrics for this run and write them to FILE as "
        "JSONL (docs/schemas/telemetry.schema.json); observation-only -- the "
        "result itself is byte-identical with or without this flag",
    )


def _add_payload_output_flags(parser: argparse.ArgumentParser) -> None:
    """Output surface for the tool subcommands (JSON payloads, not results)."""
    group = parser.add_argument_group("output options")
    group.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="stdout rendering: human-readable text report or the raw JSON payload",
    )
    group.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the JSON payload to FILE ('-' keeps stdout; the text "
        "report still prints)",
    )
    group.add_argument(
        "--force",
        action="store_true",
        help="overwrite the --output file if it already exists",
    )


class _DeferredParsers(dict):
    """Subcommand name -> parser, each parser built when first looked up.

    Every read that hands out parsers (``[]``, ``get``, ``values``,
    ``items``) builds them first, so callers only ever see real parsers.
    """

    def __init__(self) -> None:
        super().__init__()
        self._builders: Dict[str, Callable[[], argparse.ArgumentParser]] = {}

    def defer(self, name: str, build: Callable[[], argparse.ArgumentParser]) -> None:
        self._builders[name] = build
        dict.__setitem__(self, name, None)

    def __getitem__(self, name: str) -> argparse.ArgumentParser:
        build = self._builders.pop(name, None)
        if build is not None:
            dict.__setitem__(self, name, build())
        return dict.__getitem__(self, name)

    def get(self, name, default=None):
        return self[name] if name in self else default

    def values(self):
        return [self[name] for name in self]

    def items(self):
        return [(name, self[name]) for name in self]


class _DeferredSubcommands(argparse._SubParsersAction):
    """The subcommand action, building a subcommand's parser only when used.

    ``repro <name> ...`` parses the flags of one subcommand, and the listing
    in ``repro --help`` needs only names and summaries; building every
    subcommand's parser up front was most of the cost of a dispatch.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._name_parser_map = self.choices = _DeferredParsers()

    def add_deferred_parser(
        self,
        name: str,
        populate: Callable[[argparse.ArgumentParser], None],
        help: str,
        **kwargs: Any,
    ) -> None:
        """Register subcommand ``name``; ``populate`` adds its arguments on first use.

        ``kwargs`` are :class:`argparse.ArgumentParser` arguments, as for
        ``add_parser``.
        """
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), help))

        def build() -> argparse.ArgumentParser:
            parser = self._parser_class(prog=f"{self._prog_prefix} {name}", **kwargs)
            populate(parser)
            return parser

        self.choices.defer(name, build)


def _populate_experiment(experiment: Experiment, subparser: argparse.ArgumentParser) -> None:
    """An experiment's flags: its ParamSpec table plus the shared surfaces."""
    for spec in experiment.cli_specs():
        spec.add_to_parser(subparser)
    if experiment.supports_workers:
        _add_runtime_flags(subparser, cache=experiment.supports_runtime)
    _add_output_flags(subparser)
    _add_telemetry_flag(subparser)
    # `repro <name> --list` keeps the listing behaviour (distinct dest:
    # argparse copies the subparser namespace over the parent's, which
    # would otherwise clobber a pre-subcommand --list with the default).
    subparser.add_argument(
        "--list", dest="sub_list", action="store_true", help=argparse.SUPPRESS
    )


def _populate_profile(profile: argparse.ArgumentParser) -> None:
    profile.add_argument("target", metavar="experiment", help="registered experiment to profile")
    profile.add_argument(
        "--smoke",
        action="store_true",
        help="shrink the run to CI-sized smoke parameters (seconds, not minutes)",
    )
    profile.add_argument(
        "--top",
        type=_positive_int,
        default=25,
        metavar="N",
        help="how many hotspot functions to keep in the report (default: 25)",
    )
    _add_payload_output_flags(profile)


def _populate_serve(serve: argparse.ArgumentParser) -> None:
    endpoint = serve.add_mutually_exclusive_group(required=True)
    endpoint.add_argument(
        "--socket", metavar="PATH", help="listen on a Unix domain socket at PATH"
    )
    endpoint.add_argument(
        "--port",
        type=int,
        metavar="N",
        help="listen on TCP port N (0 picks a free port, printed at startup)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="ADDR",
        help="TCP bind address for --port (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        metavar="N",
        help="worker threads executing jobs concurrently (default: 2)",
    )
    serve.add_argument(
        "--queue-depth",
        type=_positive_int,
        default=64,
        metavar="N",
        help="maximum pending submissions before 429 rejections (default: 64)",
    )
    serve.add_argument(
        "--admission-rate",
        type=float,
        default=10.0,
        metavar="R",
        help="sustained submissions per second allowed per client (default: 10)",
    )
    serve.add_argument(
        "--admission-burst",
        type=float,
        default=20.0,
        metavar="B",
        help="instantaneous submission burst absorbed per client (default: 20)",
    )
    serve.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock budget per job in seconds, checked between units of "
        "work (default: unlimited)",
    )
    serve.add_argument(
        "--job-retries",
        type=int,
        default=1,
        metavar="K",
        help="re-attempts per crashed job before it parks as an error (default: 1)",
    )
    serve.add_argument(
        "--cache",
        action="store_true",
        help="share the on-disk trial result cache across jobs and clients",
    )
    serve.add_argument(
        "--cache-dir",
        default=argparse.SUPPRESS,
        metavar="DIR",
        help="trial-cache directory (implies --cache; default: $REPRO_CACHE_DIR "
        "or ~/.cache/repro-quantum)",
    )
    serve.add_argument(
        "--stats-file",
        default=None,
        metavar="FILE",
        help="flush the final stats snapshot to FILE on graceful shutdown",
    )


def _populate_submit(submit: argparse.ArgumentParser) -> None:
    submit.add_argument("target", metavar="experiment", help="registered experiment to submit")
    submit.add_argument(
        "--connect",
        required=True,
        metavar="ADDR",
        help="daemon address: a Unix socket path or host:port",
    )
    submit.add_argument(
        "--priority",
        type=int,
        default=0,
        metavar="P",
        help="queue priority (higher runs first; default: 0)",
    )
    submit.add_argument(
        "--client",
        default=None,
        metavar="NAME",
        help="client name for the daemon's per-client admission buckets "
        "(default: the connection id)",
    )
    submit.add_argument(
        "--stream",
        action="store_true",
        help="print a progress event per unit of work (trial, LP program, "
        "scaling cell) to stderr while the job runs",
    )
    submit.add_argument(
        "--wait-timeout",
        type=float,
        default=None,
        metavar="S",
        help="give up waiting for the result after S seconds (default: wait forever)",
    )
    _add_output_flags(submit)


def _populate_obs(obs: argparse.ArgumentParser) -> None:
    obs.add_argument(
        "action",
        choices=("render", "chrome"),
        help="render: human-readable summary; chrome: trace-event JSON",
    )
    obs.add_argument("file", metavar="FILE", help="telemetry JSONL stream to inspect")
    obs.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the rendering to FILE instead of stdout ('-' keeps stdout)",
    )
    obs.add_argument(
        "--force",
        action="store_true",
        help="overwrite the --output file if it already exists",
    )


def _add_tool_subcommands(subparsers) -> None:
    subparsers.add_deferred_parser(
        "profile",
        help="run a registered experiment under cProfile and report hotspots",
        description="Run a registered experiment under cProfile; the report "
        "aggregates cumulative time per function and per repro module and is "
        "validated against repro/perf schema 'profile' before delivery.",
        allow_abbrev=False,
        populate=_populate_profile,
    )
    subparsers.add_deferred_parser(
        "serve",
        help="run the persistent experiment daemon (newline-delimited JSON over a socket)",
        description="Start the long-running experiment service: accepts submit/"
        "status/result/cancel/list/health/stats requests over a Unix or TCP "
        "socket, executes jobs through a priority queue with token-bucket "
        "admission, streams progress to subscribers, and shares one result "
        "cache across all clients.  SIGTERM drains running jobs and exits 0.",
        allow_abbrev=False,
        populate=_populate_serve,
    )
    subparsers.add_deferred_parser(
        "submit",
        help="submit an experiment to a running serve daemon and print its result",
        description="Submit one experiment to a `repro serve` daemon.  The "
        "experiment's own flags follow its name exactly as in one-shot mode "
        "(e.g. `repro submit figure4 --smoke --connect /tmp/repro.sock`); "
        "results are bit-identical to a local run but shared through the "
        "daemon's cache.",
        allow_abbrev=False,
        populate=_populate_submit,
    )
    subparsers.add_deferred_parser(
        "obs",
        help="inspect a recorded telemetry stream (render a summary or a Chrome trace)",
        description="Inspect a telemetry JSONL stream recorded with "
        "`repro <experiment> --telemetry FILE`: `render` validates the stream "
        "and prints a human-readable summary; `chrome` converts it to a Chrome "
        "trace-event JSON loadable in chrome://tracing or Perfetto.",
        allow_abbrev=False,
        populate=_populate_obs,
    )


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: prefix matching would let a misplaced
    # flag (e.g. `repro --cache figure4`) silently rewrite itself into a
    # different option instead of being the hard error the subcommand
    # redesign promises.
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Path-oblivious entanglement swapping (HotNets 2025) reproduction",
        allow_abbrev=False,
    )
    parser.add_argument("--list", action="store_true", help="list available experiments and exit")
    parser.add_argument(
        "--clear-cache",
        action="store_true",
        help="delete every cached trial result and exit",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result-cache directory for --clear-cache (default: $REPRO_CACHE_DIR "
        "or ~/.cache/repro-quantum)",
    )
    subparsers = parser.add_subparsers(
        dest="experiment", metavar="experiment", action=_DeferredSubcommands
    )
    for experiment in iter_experiments():
        subparsers.add_deferred_parser(
            experiment.name,
            help=experiment.summary,
            description=experiment.summary,
            allow_abbrev=False,
            populate=functools.partial(_populate_experiment, experiment),
        )
    _add_tool_subcommands(subparsers)
    return parser


def _print_listing() -> None:
    print("available experiments:")
    width = max(len(experiment.name) for experiment in iter_experiments())
    for experiment in iter_experiments():
        print(f"  {experiment.name.ljust(width)}  {experiment.summary}")


def _cache_from(args: argparse.Namespace) -> Optional[ResultCache]:
    # --cache-dir implies caching: naming a location and then ignoring it
    # would silently recompute everything.
    if not (args.cache or args.cache_dir):
        return None
    return ResultCache(args.cache_dir)


def _deliver(result, args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Render per --format and write to --output (stdout by default)."""
    if args.output in (None, "-"):
        print(result.render(args.format))
        return
    try:
        target = result.write(args.output, format=args.format, force=args.force)
    except FileExistsError as error:
        parser.error(f"--output: {error}")
    print(f"wrote {args.format} result to {target}")


def _deliver_payload(
    payload: Dict[str, Any],
    text: str,
    args: argparse.Namespace,
    parser: argparse.ArgumentParser,
) -> None:
    """Print the chosen rendering; optionally persist the JSON payload."""
    if args.output not in (None, "-"):
        target = Path(args.output)
        if target.exists() and not args.force:
            parser.error(f"--output: {target} already exists (pass --force to overwrite)")
        target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote json payload to {target}")
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _run_serve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Run the experiment daemon until SIGTERM/SIGINT drains it."""
    import signal
    import threading

    from repro.serve.daemon import ServeDaemon

    cache_dir = getattr(args, "cache_dir", None)
    cache = ResultCache(cache_dir) if (args.cache or cache_dir) else None
    daemon = ServeDaemon(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        admission_rate=args.admission_rate,
        admission_burst=args.admission_burst,
        job_timeout=args.job_timeout,
        retries=args.job_retries,
        cache=cache,
        stats_file=args.stats_file,
    )
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda _signum, _frame: stop.set())
    daemon.start()
    print(
        f"repro serve: listening on {daemon.address} "
        f"({args.workers} worker(s), queue depth {args.queue_depth}, "
        f"trial cache {'off' if cache is None else 'on'}); SIGTERM drains",
        flush=True,
    )
    while not stop.wait(0.2):
        pass
    snapshot = daemon.shutdown()
    print(
        "repro serve: drained; final stats: "
        + json.dumps(snapshot, sort_keys=True, default=repr),
        flush=True,
    )
    return 0


def _given_params(
    experiment: Experiment, namespace: argparse.Namespace, argv: List[str]
) -> Dict[str, Any]:
    """The experiment parameters whose flags appear in ``argv``.

    Flags left out take their ParamSpec defaults in ``resolve_params``, so
    only values the user typed reach the experiment -- and only those can
    conflict with ``--smoke``.  Exact matching is sound because every
    parser here sets ``allow_abbrev=False``.
    """
    return {
        spec.name: getattr(namespace, spec.dest)
        for spec in experiment.cli_specs()
        if any(token == spec.cli_flag or token.startswith(spec.cli_flag + "=") for token in argv)
    }


def _render_served_payload(payload: Dict[str, Any], format: str) -> str:
    """Render a daemon result payload in the uniform output formats."""
    if format == "json":
        return json.dumps(payload, indent=2, sort_keys=False)
    from repro.analysis.reporting import format_table, render_csv

    if format == "csv":
        return render_csv(payload["columns"], payload["rows"])
    return format_table(
        payload["columns"],
        payload["rows"],
        title=f"{payload['experiment']} (served result)",
    )


def _run_submit(
    args: argparse.Namespace, extras: List[str], parser: argparse.ArgumentParser
) -> int:
    """Submit one experiment to a running daemon and deliver its result."""
    from repro.serve.client import ServeClient, ServeError

    try:
        experiment = get_experiment(args.target)
    except KeyError:
        parser.error(
            f"submit: unknown experiment {args.target!r} "
            f"(run 'repro --list' to see the registered experiments)"
        )
    spec_parser = argparse.ArgumentParser(
        prog=f"{parser.prog} submit {args.target}", allow_abbrev=False
    )
    for spec in experiment.cli_specs():
        spec.add_to_parser(spec_parser)
    params = _given_params(experiment, spec_parser.parse_args(extras), extras)

    try:
        client = ServeClient(args.connect, client=args.client)
    except (OSError, ValueError) as error:
        parser.error(f"submit: cannot reach serve daemon at {args.connect}: {error}")
    with client:
        try:
            submitted = client.submit(
                args.target, params, priority=args.priority, stream=args.stream
            )
            if args.stream and submitted["state"] != "done":
                for event in client.events():
                    if event["event"] == "progress":
                        print(
                            f"progress {submitted['job']}: "
                            f"{event['completed']}/{event['total']} unit(s) "
                            f"({event['cached_trials']} cached)",
                            file=sys.stderr,
                        )
            response = client.result(
                submitted["job"], wait=True, timeout=args.wait_timeout
            )
        except ServeError as error:
            hint = (
                f" (retry in {error.retry_after:.2f}s)"
                if error.retry_after is not None
                else ""
            )
            print(
                f"repro submit: {error.kind} ({error.code}): {error}{hint}",
                file=sys.stderr,
            )
            return 1
        except ConnectionError as error:
            print(f"repro submit: {error}", file=sys.stderr)
            return 1
    payload = response["result"]
    rendered = _render_served_payload(payload, args.format)
    if args.output in (None, "-"):
        print(rendered)
        return 0
    target_path = Path(args.output)
    if target_path.exists() and not args.force:
        parser.error(f"--output: {target_path} already exists (pass --force to overwrite)")
    target_path.write_text(
        rendered if rendered.endswith("\n") else rendered + "\n", encoding="utf-8"
    )
    print(f"wrote {args.format} result to {target_path}")
    return 0


def _run_obs(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Inspect a telemetry stream: validated summary or Chrome trace export."""
    from repro.obs.schemas import validate_stream
    from repro.obs.telemetry import chrome_trace_from_records, load_jsonl, render_text

    try:
        records = load_jsonl(args.file)
        validate_stream(records)
    except OSError as error:
        parser.error(f"obs: cannot read {args.file}: {error}")
    except ValueError as error:
        parser.error(f"obs: {args.file}: {error}")
    if args.action == "chrome":
        rendered = json.dumps(chrome_trace_from_records(records), sort_keys=True)
    else:
        rendered = render_text(records)
    if args.output in (None, "-"):
        try:
            print(rendered)
        except BrokenPipeError:
            # `repro obs render stream.jsonl | head` -- the consumer closing
            # the pipe early is a normal end, not an error.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    target = Path(args.output)
    if target.exists() and not args.force:
        parser.error(f"--output: {target} already exists (pass --force to overwrite)")
    target.write_text(rendered + "\n", encoding="utf-8")
    print(f"wrote {args.action} rendering to {target}")
    return 0


def _run_tool(
    args: argparse.Namespace,
    parser: argparse.ArgumentParser,
    extras: Optional[List[str]] = None,
) -> int:
    """Dispatch the non-experiment tool subcommands (``profile``, ``serve``,
    ``submit``, ``obs``)."""
    # Imported on demand: the tools pull in modules plain experiment runs
    # never need.
    if args.experiment == "serve":
        return _run_serve(args, parser)
    if args.experiment == "submit":
        return _run_submit(args, extras or [], parser)
    if args.experiment == "obs":
        return _run_obs(args, parser)
    from repro.perf import profiler

    if args.target not in EXPERIMENTS:
        parser.error(
            f"profile: unknown experiment {args.target!r} "
            f"(run 'repro --list' to see the registered experiments)"
        )
    report = profiler.profile_experiment(args.target, smoke=args.smoke, top=args.top)
    _deliver_payload(report, profiler.format_report(report), args, parser)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras and args.experiment != "submit":
        # `repro submit <experiment> ...` keeps its extras: they are the
        # target experiment's own flags, parsed against its ParamSpec table.
        if args.experiment is not None:
            parser.error(
                f"unknown flag(s) for the '{args.experiment}' experiment: "
                f"{' '.join(extras)} (run 'repro {args.experiment} --help' to see its flags)"
            )
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    if args.cache_dir is not None:
        if Path(args.cache_dir).exists() and not Path(args.cache_dir).is_dir():
            parser.error(f"--cache-dir: {args.cache_dir} exists and is not a directory")
    if args.clear_cache:
        cache = ResultCache(args.cache_dir)
        print(f"removed {cache.clear()} cached trial(s) from {cache.directory}")
        return 0
    if args.list or getattr(args, "sub_list", False) or args.experiment is None:
        _print_listing()
        return 0
    if args.experiment in TOOL_COMMANDS:
        return _run_tool(args, parser, extras)

    experiment = get_experiment(args.experiment)
    params = _given_params(experiment, args, sys.argv[1:] if argv is None else argv)
    try:
        # Pre-flight every input check (bad scenario spec, smoke conflict,
        # a grid cell ExperimentConfig rejects, ...) so it surfaces as a CLI
        # usage error; the actual run below plans the same params again, so
        # it cannot fail them, and any later exception is a real bug that
        # tracebacks normally.
        experiment.plan(params)
    except ValueError as error:
        parser.error(f"{args.experiment}: {error}")
    run_kwargs = {}
    if experiment.supports_workers:
        run_kwargs["runtime"] = RuntimeOptions(
            workers=args.workers,
            cache=_cache_from(args) if experiment.supports_runtime else None,
        )
    telemetry_file = getattr(args, "telemetry", None)
    if telemetry_file is None:
        result = experiment.run(**params, **run_kwargs)
        _deliver(result, args, parser)
        return 0

    # Telemetry is observation-only: spans and metrics are collected on the
    # side and the result delivered below is byte-identical to an untracked
    # run (the determinism tests pin this).  The notice goes to stderr so a
    # piped `--output -` stream stays clean.
    from repro.obs import TELEMETRY, enable, telemetry_enabled

    was_enabled = telemetry_enabled()
    TELEMETRY.reset()
    enable(True)
    try:
        result = experiment.run(**params, **run_kwargs)
    finally:
        enable(was_enabled)
    _deliver(result, args, parser)
    target = TELEMETRY.export_jsonl(telemetry_file, experiment=args.experiment)
    print(f"wrote telemetry stream to {target}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
