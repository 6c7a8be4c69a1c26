"""Command-line interface: run the attack and regenerate experiments.

Every registered experiment (``repro.analysis.engine`` registry) gets a
subcommand with common engine flags — ``--jobs N`` fans tasks across
worker processes, ``--checkpoint FILE`` streams per-task results to a
JSONL file, and ``--resume`` skips tasks that file already holds.
Rendered results go to stdout; progress (a TTY-aware live status line)
and the run summary go to stderr, so the rendered output is
byte-identical whatever ``--jobs`` is.

Attacks, experiments, and benchmarks record a run summary into the run
ledger (``.repro/runs/``, override with ``REPRO_LEDGER_DIR``) unless
``--no-record`` is given; ``repro runs list/show/diff`` inspects the
records and ``repro bench --record/--compare`` gates performance
against a named baseline.  See ``docs/RUN_LEDGER.md``.

Examples::

    python -m repro attack --machine t420-scaled
    python -m repro attack --machine tiny --defense catt --slots 1000
    python -m repro table1
    python -m repro figure3 --trials 60 --jobs 3
    python -m repro snapshot save machine.snap.json --machine tiny
    python -m repro snapshot info machine.snap.json
    python -m repro table2 --jobs 4 --checkpoint table2.jsonl
    python -m repro table2 --jobs 4 --checkpoint table2.jsonl --resume
    python -m repro figure5 --machine t420-scaled
    python -m repro defenses --jobs 5
    python -m repro mitigations
    python -m repro bench --record --baseline main
    python -m repro bench --compare main
    python -m repro runs list
    python -m repro runs list --all
    python -m repro runs diff 20260806T101500-ab 20260806T104200-cd
    python -m repro dash --once
    python -m repro runs watch --interval 2.0
    python -m repro trace --machine tiny --sample 0.05 --export-chrome trace.json
"""

import argparse
import contextlib
import sys
import time

from repro.analysis import profile_trace, write_chrome_trace, write_trace_jsonl
from repro.analysis.engine import experiment_names, get_experiment, run_experiment
from repro.analysis.telemetry import ProgressReporter
from repro.chaos import CHAOS_PROFILES, ChaosInjector, chaos_profile
from repro.core.pthammer import PThammerAttack, PThammerConfig
from repro.defenses import DEFENSE_PRESETS
from repro.errors import CampaignError, ConfigError, OutOfMemory, ReproError
from repro.machine import AttackerView, Inspector, Machine
from repro.machine.configs import MACHINE_PRESETS, tiny_test_config
from repro.observe import parse_budget_spec, parse_rate_spec
from repro.observe.ledger import (
    ATTACK_RUN,
    BENCHMARK_RUN,
    RunLedger,
    RunRecord,
    config_fingerprint,
    diff_records,
)
from repro.patterns import names as pattern_names
from repro.utils.cliargs import (
    non_negative_float,
    non_negative_int,
    positive_float,
    positive_int,
    regex,
)

#: Preset vocabularies (canonical homes: repro.machine.configs and
#: repro.defenses).  The aliases keep the CLI's historical import
#: surface — ``from repro.cli import MACHINES, DEFENSES`` — working.
MACHINES = MACHINE_PRESETS
DEFENSES = DEFENSE_PRESETS


def _machine_arg(parser, default="tiny"):
    parser.add_argument(
        "--machine",
        choices=sorted(MACHINES),
        default=default,
        help="machine preset (default: %(default)s)",
    )


def _engine_args(parser):
    group = parser.add_argument_group("engine")
    group.add_argument(
        "--jobs",
        type=positive_int,
        default=1,
        help="worker processes for independent tasks (default: 1)",
    )
    group.add_argument(
        "--checkpoint",
        metavar="FILE",
        default=None,
        help="stream per-task results to this JSONL file",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="skip tasks already recorded in --checkpoint",
    )
    group.add_argument(
        "--task-timeout",
        type=positive_float,
        metavar="SECONDS",
        default=None,
        help="per-task host-time limit; hung workers are detected and killed",
    )
    group.add_argument(
        "--retries",
        "--task-retries",
        type=non_negative_int,
        default=2,
        help="in-place retries of retryable task faults (default: 2)",
    )
    _telemetry_args(group)


def _telemetry_args(group):
    group.add_argument(
        "--quiet",
        action="store_true",
        help="suppress progress and summary output on stderr",
    )
    group.add_argument(
        "--no-progress",
        action="store_true",
        help="disable the live progress display (keep the run summary)",
    )
    group.add_argument(
        "--no-record",
        action="store_true",
        help="do not append this run to the run ledger",
    )
    group.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable the streaming telemetry spool (docs/TELEMETRY.md); "
        "results are byte-identical either way",
    )


def _cmd_experiment(args):
    """Dispatch one registered experiment through the engine."""
    from repro.observe.stream import TelemetrySession

    spec = get_experiment(args.command)
    reporter = None
    if not args.no_progress:
        reporter = ProgressReporter(stream=sys.stderr, quiet=args.quiet)
    session = None if args.no_telemetry else TelemetrySession()
    options = spec.cli_options(args) if spec.cli_options else {}
    run = run_experiment(
        spec,
        options,
        jobs=args.jobs,
        checkpoint=args.checkpoint,
        resume=args.resume,
        progress=reporter,
        ledger=None if args.no_record else RunLedger(),
        task_timeout=args.task_timeout,
        retries=args.retries,
        telemetry=session,
    )
    print(run.result.render())
    if not args.quiet:
        if reporter is None:  # reporter.end() already printed the summary
            print(run.summary(), file=sys.stderr)
        if run.telemetry:
            totals = run.telemetry["totals"]
            print(
                "telemetry: %.2f task/s, %d flip(s)%s (watch live with "
                "`repro dash`)"
                % (
                    totals["throughput_mean"],
                    totals["flips"],
                    ", hammer p50 %.0f cycles" % totals["latency_p50"]
                    if "latency_p50" in totals
                    else "",
                ),
                file=sys.stderr,
            )
        if run.run_id:
            print("run recorded: %s" % run.run_id, file=sys.stderr)
    return 0


def _dash_args(parser):
    """Shared flags of ``repro dash`` and ``repro runs watch``."""
    parser.add_argument(
        "--spool",
        metavar="DIR",
        default=None,
        help="spool directory (default: the newest under the telemetry root)",
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        default=None,
        help="telemetry root (default: .repro/telemetry, or REPRO_TELEMETRY_DIR)",
    )
    parser.add_argument(
        "--interval",
        type=positive_float,
        default=1.0,
        help="seconds between dashboard refreshes (default: 1.0)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="render a single plain-text frame and exit (no ANSI; CI-friendly)",
    )


def _cmd_dash(args):
    """``repro dash`` / ``repro runs watch`` — the live dashboard."""
    from repro.analysis.telemetry import Dashboard
    from repro.observe.stream import (
        TelemetryAggregator,
        default_spool_root,
        discover_spool,
    )

    spool = args.spool or discover_spool(args.root)
    if spool is None:
        raise ConfigError(
            "no telemetry spool under %s — run an experiment first "
            "(telemetry is on by default) or pass --spool"
            % (args.root or default_spool_root())
        )
    aggregator = TelemetryAggregator(spool)
    dashboard = Dashboard(
        aggregator, stream=sys.stdout, ansi=False if args.once else None
    )
    try:
        dashboard.run(interval=args.interval, once=args.once)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_attack(args):
    config = MACHINES[args.machine]()
    if args.seed is not None:
        config.seed = args.seed
    with _open_output(args.trace) as trace_file:
        machine = Machine(config, policy=DEFENSES[args.defense]())
        if args.chaos:
            machine.attach_chaos(ChaosInjector(chaos_profile(args.chaos)))
        attacker = AttackerView(machine, machine.boot_process())
        attack_config = PThammerConfig(
            superpages=not args.regular_pages,
            spray_slots=args.slots,
            pair_sample=args.pairs,
            max_pairs=args.pairs,
            cred_spray_processes=args.cred_spray,
            pattern=args.pattern,
        )
        if args.profile or args.trace:
            machine.trace.enable()
        print(
            "PThammer vs %s (defense: %s%s%s); attacker uid=%d"
            % (
                config.name,
                args.defense,
                ", chaos: %s" % args.chaos if args.chaos else "",
                ", pattern: %s" % args.pattern if args.pattern else "",
                attacker.getuid(),
            )
        )
        started = time.time()
        attack = PThammerAttack(attacker, attack_config)
        report = attack.run()
        print(report.summary())
        if report.outcome:
            for note in report.outcome.details:
                print("  - %s" % note)
        if args.chaos:
            resilience = ", ".join(
                "%s=%d" % item
                for item in sorted(machine.metrics.counters().items())
                if item[0].startswith(("chaos.", "recovery."))
            )
            print("chaos/recovery: %s" % (resilience or "none"))
        print(
            "uid after attack: %d | ground-truth flips: %d | host %.1fs"
            % (
                attacker.getuid(),
                Inspector(machine).flip_count(),
                time.time() - started,
            )
        )
        if args.profile:
            print()
            print(
                profile_trace(
                    machine.trace, machine=config.name, freq_ghz=config.cpu.freq_ghz
                ).render()
            )
        if trace_file is not None:
            lines = write_trace_jsonl(machine.trace, trace_file, machine=config.name)
            print("wrote %d trace lines to %s" % (lines, args.trace))
    code = 0 if report.escalated == (args.defense not in ("zebram",)) else 1
    if not args.no_record:
        record = RunRecord.new(
            ATTACK_RUN,
            "attack",
            machine=config.name,
            config_fingerprint=config_fingerprint(config),
            command="repro attack --machine %s --defense %s%s%s"
            % (
                args.machine,
                args.defense,
                " --chaos %s" % args.chaos if args.chaos else "",
                " --pattern %s" % args.pattern if args.pattern else "",
            ),
            timings={
                "host_seconds": round(time.time() - started, 6),
                "virtual_cycles": machine.cycles,
            },
            phases=[
                {"name": name, "start": start, "end": end, "cycles": end - start}
                for name, start, end in report.timeline
            ],
            metrics=machine.metrics.snapshot_values(),
            outcome={
                "escalated": report.escalated,
                "flips": Inspector(machine).flip_count(),
                "uid_after": attacker.getuid(),
                "exit_code": code,
                "chaos": args.chaos,
                "checkpoint": attack.checkpoint(),
                "degradations": list(report.degradations),
            },
        )
        RunLedger().record(record)
        print("run recorded: %s" % record.run_id, file=sys.stderr)
    return code


def _open_output(path):
    """Open an output file before any machine boots, so a bad path
    fails at once."""
    return open(path, "w") if path else contextlib.nullcontext()


def build_parser():
    """Construct the full argument parser (shared with check_docs).

    Kept separate from :func:`main` so tooling — notably
    ``repro.tools.check_docs``'s CLI-invocation validator — can
    introspect the real subcommand and flag surface without running
    anything.
    """
    parser = argparse.ArgumentParser(
        prog="repro", description="PThammer reproduction experiments"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    attack = commands.add_parser("attack", help="run the end-to-end attack")
    _machine_arg(attack)
    attack.add_argument("--defense", choices=sorted(DEFENSES), default="none")
    attack.add_argument("--slots", type=positive_int, default=256, help="spray slots")
    attack.add_argument(
        "--pairs", type=positive_int, default=12, help="pairs to hammer"
    )
    attack.add_argument("--seed", type=int, default=None)
    attack.add_argument("--cred-spray", type=non_negative_int, default=0)
    attack.add_argument(
        "--regular-pages",
        action="store_true",
        help="use the regular-page setting instead of superpages",
    )
    attack.add_argument(
        "--profile",
        action="store_true",
        help="enable tracing and print the per-phase cycle breakdown",
    )
    attack.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="enable tracing and write the JSONL trace to FILE",
    )
    attack.add_argument(
        "--chaos",
        metavar="PROFILE",
        choices=sorted(CHAOS_PROFILES),
        default=None,
        help="inject system noise from a chaos profile "
        "(see `repro chaos list`); enables the self-healing pipeline",
    )
    attack.add_argument(
        "--pattern",
        metavar="NAME",
        choices=pattern_names(),
        default=None,
        help="hammer with a registered pattern (see `repro patterns list`) "
        "instead of the default double_sided",
    )
    attack.add_argument(
        "--no-record",
        action="store_true",
        help="do not append this run to the run ledger",
    )

    patterns_cmd = commands.add_parser(
        "patterns", help="inspect the registered hammer patterns"
    )
    patterns_commands = patterns_cmd.add_subparsers(
        dest="patterns_command", required=True
    )
    patterns_commands.add_parser("list", help="list the registered patterns")
    patterns_show = patterns_commands.add_parser(
        "show", help="show one pattern's DSL text and unrolled ops"
    )
    patterns_show.add_argument(
        "name", help="pattern name (see `repro patterns list`)"
    )

    chaos_cmd = commands.add_parser(
        "chaos", help="inspect the built-in system-noise profiles"
    )
    chaos_commands = chaos_cmd.add_subparsers(dest="chaos_command", required=True)
    chaos_commands.add_parser("list", help="list the built-in chaos profiles")
    chaos_show = chaos_commands.add_parser(
        "show", help="show one profile's sources and parameters"
    )
    chaos_show.add_argument("profile", help="profile name (see `repro chaos list`)")

    trace_cmd = commands.add_parser(
        "trace", help="run the attack with tracing on; export and profile it"
    )
    _machine_arg(trace_cmd)
    trace_cmd.add_argument("--defense", choices=sorted(DEFENSES), default="none")
    trace_cmd.add_argument(
        "--slots", type=positive_int, default=256, help="spray slots"
    )
    trace_cmd.add_argument(
        "--pairs", type=positive_int, default=12, help="pairs to hammer"
    )
    trace_cmd.add_argument("--seed", type=int, default=None)
    trace_cmd.add_argument(
        "--out", metavar="FILE", default=None, help="JSONL trace destination"
    )
    trace_cmd.add_argument(
        "--export-chrome",
        metavar="FILE",
        default=None,
        help="also export the trace in Chrome trace-event JSON "
        "(open in Perfetto or chrome://tracing)",
    )
    trace_cmd.add_argument(
        "--sample",
        metavar="SPEC",
        type=parse_rate_spec,
        default=None,
        help="sample the event stream: a rate ('0.01') or per-category "
        "rates ('dram=0.1,tlb=0.5,*=0.01'); keeps traced runs cheap",
    )
    trace_cmd.add_argument(
        "--sample-budget",
        metavar="SPEC",
        type=parse_budget_spec,
        default=None,
        help="hard event budgets: a cap ('200000') or per-category caps "
        "('dram=50000,*=200000')",
    )

    # One subcommand per registered experiment; each spec contributes its
    # own flags, the engine contributes --jobs/--checkpoint/--resume.
    for name in experiment_names():
        spec = get_experiment(name)
        sub = commands.add_parser(name, help=spec.title)
        if spec.cli_configure:
            spec.cli_configure(sub)
        _engine_args(sub)

    snapshot_cmd = commands.add_parser(
        "snapshot", help="save, inspect, and validate machine snapshots"
    )
    snapshot_commands = snapshot_cmd.add_subparsers(
        dest="snapshot_command", required=True
    )
    snapshot_save = snapshot_commands.add_parser(
        "save", help="boot a preset machine and save its snapshot as JSON"
    )
    snapshot_save.add_argument("file", help="destination snapshot file")
    _machine_arg(snapshot_save)
    snapshot_save.add_argument("--seed", type=int, default=None)
    snapshot_save.add_argument(
        "--prepare",
        action="store_true",
        help="run the attack setup phases (spray/eviction/pairs) before "
        "snapshotting, capturing a warm post-prepare state",
    )
    snapshot_info = snapshot_commands.add_parser(
        "info", help="print a saved snapshot's header and state summary"
    )
    snapshot_info.add_argument("file", help="snapshot file to inspect")
    snapshot_load = snapshot_commands.add_parser(
        "load", help="restore a saved snapshot into a fresh machine to validate it"
    )
    snapshot_load.add_argument("file", help="snapshot file to restore")

    commands.add_parser("mitigations", help="Section V mitigation matrix")
    commands.add_parser(
        "validate", help="quick self-check: knees, pairs, and one escalation"
    )

    dash = commands.add_parser(
        "dash", help="live telemetry dashboard over an engine run's spool"
    )
    _dash_args(dash)

    runs = commands.add_parser("runs", help="inspect the run ledger")
    runs_commands = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_commands.add_parser("list", help="list recorded runs")
    runs_list.add_argument("--kind", default=None, help="filter by record kind")
    runs_list.add_argument("--name", default=None, help="filter by run name")
    runs_list.add_argument("--label", default=None, help="filter by baseline label")
    runs_list.add_argument(
        "--limit", type=non_negative_int, default=20, help="newest N (default 20)"
    )
    runs_list.add_argument(
        "--all",
        action="store_true",
        help="list every record (overrides --limit; loads the whole ledger)",
    )
    runs_show = runs_commands.add_parser("show", help="show one run record")
    runs_show.add_argument("run_id", help="run id (unique prefixes accepted)")
    runs_watch = runs_commands.add_parser(
        "watch", help="watch the newest run's telemetry (alias of `repro dash`)"
    )
    _dash_args(runs_watch)
    runs_diff = runs_commands.add_parser(
        "diff", help="per-metric comparison of two runs; exit 3 on regression"
    )
    runs_diff.add_argument("before", help="baseline run id")
    runs_diff.add_argument("after", help="candidate run id")
    runs_diff.add_argument(
        "--tolerance",
        type=non_negative_float,
        default=0.1,
        help="allowed fractional drift before a metric regresses (default 0.1)",
    )

    bench = commands.add_parser(
        "bench", help="quick performance suite with baseline regression gating"
    )
    bench.add_argument("--list", action="store_true", help="list suite benchmarks")
    bench.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        default=None,
        help="run only this benchmark (repeatable)",
    )
    bench.add_argument(
        "--record", action="store_true", help="append results to the run ledger"
    )
    bench.add_argument(
        "--baseline",
        metavar="NAME",
        default=None,
        help="label recorded results as baseline NAME (with --record)",
    )
    bench.add_argument(
        "--compare",
        metavar="BASELINE",
        default=None,
        help="diff results against baseline BASELINE; exit 3 on regression",
    )
    bench.add_argument(
        "--tolerance",
        type=non_negative_float,
        default=None,
        help="allowed fractional drift before a metric regresses (default 0.25)",
    )
    bench.add_argument(
        "--gate",
        metavar="REGEX",
        type=regex,
        default=None,
        help="with --compare, only gate metrics whose name matches REGEX "
        "(e.g. deterministic virtual-cycle metrics in CI)",
    )

    campaign = commands.add_parser(
        "campaign",
        help="durable, supervised campaign orchestration (docs/CAMPAIGNS.md)",
    )
    campaign_commands = campaign.add_subparsers(
        dest="campaign_command", required=True
    )

    def _campaign_run_args(sub):
        sub.add_argument(
            "--jobs",
            type=positive_int,
            default=None,
            help="override the spec's worker count for this run",
        )
        sub.add_argument(
            "--pause-after",
            type=non_negative_int,
            metavar="N",
            default=None,
            help="checkpoint-and-pause once N shards are done (deterministic "
            "pause point for tests and CI)",
        )
        sub.add_argument(
            "--no-record",
            action="store_true",
            help="do not append the finished campaign to the run ledger",
        )

    campaign_submit = campaign_commands.add_parser(
        "submit", help="register a campaign spec and start running it"
    )
    campaign_submit.add_argument("spec", help="campaign spec JSON file")
    campaign_submit.add_argument(
        "--id",
        dest="campaign_id",
        default=None,
        help="campaign id (default: the spec's name)",
    )
    campaign_submit.add_argument(
        "--no-run",
        action="store_true",
        help="journal the campaign without running it (start later with "
        "`repro campaign resume`)",
    )
    _campaign_run_args(campaign_submit)
    campaign_resume = campaign_commands.add_parser(
        "resume", help="take over a created, paused, or crashed campaign"
    )
    campaign_resume.add_argument("campaign_id", help="campaign id")
    _campaign_run_args(campaign_resume)
    campaign_status = campaign_commands.add_parser(
        "status", help="show a campaign's durable state"
    )
    campaign_status.add_argument("campaign_id", help="campaign id")
    campaign_commands.add_parser("list", help="list known campaigns")
    campaign_pause = campaign_commands.add_parser(
        "pause", help="ask the live supervisor to checkpoint and pause"
    )
    campaign_pause.add_argument("campaign_id", help="campaign id")
    campaign_cancel = campaign_commands.add_parser(
        "cancel", help="cancel a campaign (terminal; cannot be resumed)"
    )
    campaign_cancel.add_argument("campaign_id", help="campaign id")
    campaign_report = campaign_commands.add_parser(
        "report", help="print a finished campaign's results summary"
    )
    campaign_report.add_argument("campaign_id", help="campaign id")

    return parser


def main(argv=None):
    """CLI entry point; returns the exit code (README.md, "Exit codes").

    The CLI's one error boundary: a ``ReproError`` or ``OSError`` from a
    command ends it with one ``repro: <message>`` line and exit 2, as
    argparse already ends a malformed value.  Anything else is a bug and
    keeps its traceback.
    """
    args = build_parser().parse_args(argv)
    commands = {
        "attack": _cmd_attack,
        "bench": _cmd_bench,
        "campaign": _cmd_campaign,
        "chaos": _cmd_chaos,
        "dash": _cmd_dash,
        "mitigations": _cmd_mitigations,
        "patterns": _cmd_patterns,
        "runs": _cmd_runs,
        "snapshot": _cmd_snapshot,
        "trace": _cmd_trace,
        "validate": _cmd_validate,
    }
    try:  # any other command is a registered experiment
        return commands.get(args.command, _cmd_experiment)(args)
    except (ReproError, OSError) as exc:
        # Each spray slot costs the kernel a page table.
        oom = "the attack ran out of simulated memory (%s); try fewer --slots"
        print("repro: %s" % (oom % exc if isinstance(exc, OutOfMemory) else exc),
              file=sys.stderr)
        return 2


def _cmd_chaos(args):
    """``repro chaos list|show`` — inspect the noise profiles."""
    if args.chaos_command == "list":
        for name in sorted(CHAOS_PROFILES):
            profile = chaos_profile(name)
            print(
                "%-10s seed=0x%x, %d sources"
                % (name, profile.seed, len(profile.sources))
            )
        return 0
    print(chaos_profile(args.profile).describe())
    return 0


def _cmd_patterns(args):
    """``repro patterns list|show`` — inspect the pattern registry."""
    import repro.patterns as patterns

    if args.patterns_command == "list":
        for name in patterns.names():
            pattern = patterns.get(name)
            ops = patterns.unroll(pattern)
            print(
                "%-16s %d role(s), %d unrolled op(s)"
                % (name, len(pattern.roles), len(ops))
            )
        return 0
    pattern = patterns.get(args.name)
    print(pattern.unparse(), end="")
    ops = patterns.unroll(pattern)
    print("# unrolled: %d op(s)" % len(ops))
    for op in ops:
        print("#   %s" % " ".join(str(part) for part in op))
    return 0


def _cmd_snapshot(args):
    """``repro snapshot save|info|load`` — machine snapshot files."""
    from repro.machine import MachineSnapshot

    if args.snapshot_command == "save":
        config = MACHINES[args.machine]()
        if args.seed is not None:
            config.seed = args.seed
        machine = Machine(config)
        process = machine.boot_process()
        meta = {"boot_pid": process.pid}
        if args.prepare:
            from repro.core.pthammer import PThammerReport

            attack = PThammerAttack(
                AttackerView(machine, process),
                PThammerConfig(spray_slots=256, pair_sample=12, max_pairs=12),
            )
            attack.prepare(PThammerReport(machine_name=config.name, superpages=True))
            meta["prepared"] = True
        snap = machine.snapshot(meta=meta)
        snap.save(args.file)
        print(
            "saved %s snapshot %s (%d cycles) to %s"
            % (config.name, snap.fingerprint(), machine.cycles, args.file)
        )
        return 0
    snap = MachineSnapshot.load(args.file)
    if args.snapshot_command == "info":
        info = snap.info()
        for key in (
            "version",
            "machine",
            "fingerprint",
            "config_fingerprint",
            "cycles",
            "processes",
            "resident_frames",
            "chaos",
        ):
            print("%-18s %s" % (key, info[key]))
        for key in sorted(info["meta"]):
            print("meta.%-13s %s" % (key, info["meta"][key]))
        return 0
    # load: the full validation path — rebuild the config from the
    # snapshot, boot a fresh machine on the environment's tier, and
    # restore into it.
    machine = Machine(snap.config())
    machine.restore(snap)
    print(
        "restored %s snapshot %s: %d cycles, %d process(es)"
        % (
            snap.machine_name,
            snap.fingerprint(),
            machine.cycles,
            len(machine.kernel.processes),
        )
    )
    return 0


def _warn_skipped_record(run_id, error):
    print("repro: warning: skipping unreadable run record %s: %s"
          % (run_id, error), file=sys.stderr)


def _cmd_runs(args):
    """``repro runs list|show|diff|watch`` — inspect the run ledger."""
    from repro.observe import MetricsRegistry

    if args.runs_command == "watch":
        return _cmd_dash(args)
    ledger = RunLedger()
    if args.runs_command == "list":
        limit = None if args.all else args.limit
        records = ledger.list(
            kind=args.kind,
            name=args.name,
            label=args.label,
            limit=limit,
            on_skip=_warn_skipped_record,
        )
        if not records:
            print("no runs recorded in %s" % ledger.root)
            return 0
        print(
            "%-22s %-10s %-14s %-12s %-20s %8s %s"
            % ("run id", "kind", "name", "machine",
               "recorded (UTC)", "host", "label")
        )
        for record in records:
            print(record.summary_line())
        return 0
    if args.runs_command == "show":
        record = ledger.load(args.run_id)
        print("run      %s" % record.run_id)
        print("kind     %s  name %s" % (record.kind, record.name))
        print("recorded %s" % record.created_utc)
        for field_name in ("label", "git_rev", "machine", "config_fingerprint", "command"):
            value = getattr(record, field_name)
            if value:
                print("%-8s %s" % (field_name.replace("_", " "), value))
        for key in sorted(record.timings):
            print("timing   %-24s %s" % (key, record.timings[key]))
        for phase in record.phases:
            print(
                "phase    %-24s %12d cycles" % (phase["name"], phase["cycles"])
            )
        for key in sorted(record.outcome):
            print("outcome  %-24s %s" % (key, record.outcome[key]))
        if record.metrics:
            registry = MetricsRegistry()
            registry.merge_snapshot(record.metrics)
            print("metrics:")
            for line in registry.render().splitlines():
                print("  " + line)
        telemetry = (record.extra or {}).get("telemetry")
        if telemetry:
            from repro.analysis.telemetry import render_timeline

            print("timeline:")
            for line in render_timeline(telemetry).splitlines():
                print("  " + line)
        return 0
    if args.runs_command == "diff":
        diff = diff_records(
            ledger.load(args.before),
            ledger.load(args.after),
            tolerance=args.tolerance,
        )
        print(diff.render())
        return 3 if diff.regressions() else 0
    return 0


def _run_campaign_supervisor(campaign, args):
    """Drive a campaign and translate its final state to an exit code.

    0 — completed, paused, or a clean cancel; 4 — completed but
    ``degraded`` (quarantined shards; see the printed report path), so
    CI can tell "finished with casualties" from "fine" and from the
    configuration errors that exit 2.
    """
    from repro.campaign import DEGRADED, Supervisor

    supervisor = Supervisor(
        campaign, jobs=args.jobs, pause_after=args.pause_after
    )
    state = supervisor.run(no_record=args.no_record)
    print("campaign %s: %s" % (campaign.id, state))
    if state == DEGRADED:
        print(
            "quarantine report: %s" % campaign.quarantine_path, file=sys.stderr
        )
        return 4
    return 0


def _cmd_campaign(args):
    """``repro campaign ...`` — the durable orchestrator's control CLI."""
    import os

    from repro.campaign import Campaign, CampaignSpec, campaigns_root

    if args.campaign_command == "submit":
        spec = CampaignSpec.from_file(args.spec)
        campaign = Campaign.create(spec, campaign_id=args.campaign_id)
        print("campaign %s created (%d shard(s), fingerprint %s)"
              % (campaign.id, len(spec.compile_plan().shards),
                 spec.fingerprint()))
        if args.no_run:
            return 0
        return _run_campaign_supervisor(campaign, args)
    if args.campaign_command == "resume":
        campaign = Campaign.open(args.campaign_id)
        return _run_campaign_supervisor(campaign, args)
    if args.campaign_command == "status":
        status = Campaign.open(args.campaign_id).status()
        print("campaign %s: %s" % (status["id"], status["state"]))
        print("  shards   %d/%d done, %d quarantined, %d failed attempt(s)"
              % (status["shards_done"], status["shards_total"],
                 status["shards_quarantined"], status["failed_attempts"]))
        print("  cells    %d/%d done"
              % (status["cells_done"], status["cells_total"]))
        print("  jobs     %d" % status["jobs"])
        supervisor_note = "none"
        if status["supervisor_pid"]:
            supervisor_note = "pid %d (%s)" % (
                status["supervisor_pid"],
                "alive" if status["supervisor_alive"] else "gone",
            )
        print("  supervisor %s | journal events %d"
              % (supervisor_note, status["events"]))
        return 0
    if args.campaign_command == "list":
        ids = Campaign.list()
        if not ids:
            print("no campaigns under %s" % campaigns_root())
            return 0
        for campaign_id in ids:
            status = Campaign.open(campaign_id).status()
            print("%-24s %-10s %d/%d done, %d quarantined"
                  % (campaign_id, status["state"], status["shards_done"],
                     status["shards_total"], status["shards_quarantined"]))
        return 0
    if args.campaign_command in ("pause", "cancel"):
        campaign = Campaign.open(args.campaign_id)
        verdict = campaign.request(args.campaign_command)
        print("campaign %s: %s %s"
              % (campaign.id, args.campaign_command, verdict))
        return 0
    if args.campaign_command == "report":
        import json as _json

        campaign = Campaign.open(args.campaign_id)
        if not os.path.exists(campaign.results_path):
            raise CampaignError(
                "campaign %s has no results yet (state: %s)"
                % (campaign.id, campaign.status()["state"])
            )
        with open(campaign.results_path, "r", encoding="utf-8") as handle:
            document = _json.load(handle)
        totals = document["totals"]
        print("campaign %s: %s (fingerprint %s)"
              % (campaign.id, document["state"], document["fingerprint"]))
        print("  %d shard(s): %d done, %d quarantined, %d flip(s)"
              % (totals["shards"], totals["done"],
                 totals["quarantined"], totals["flips"]))
        for cell in document["cells"]:
            print("  %-40s %d done, %d quarantined"
                  % (cell["key"], cell["done"], cell["quarantined"]))
        if document["state"] == "degraded":
            print("quarantine report: %s"
                  % campaign.quarantine_path, file=sys.stderr)
        return 0
    return 0


def _cmd_bench(args):
    """``repro bench`` — run the quick suite; record and/or gate it."""
    from repro.analysis.bench import (
        DEFAULT_TOLERANCE,
        bench_names,
        compare_to_baseline,
        get_bench,
        run_bench,
    )

    if args.list:
        for name in bench_names():
            print("%-18s %s" % (name, get_bench(name).title))
        return 0
    names = list(args.only) if args.only else bench_names()
    for name in names:
        get_bench(name)  # unknown names fail before any work runs
    ledger = RunLedger()
    if args.compare is not None and not any(
        ledger.latest(kind=BENCHMARK_RUN, name=name, label=args.compare)
        for name in names
    ):
        # Comparing against nothing would otherwise "pass": make a
        # wholly absent baseline loud (CI typo, unseeded ledger).
        raise ConfigError(
            "no baseline %r: it has no record for any selected benchmark "
            "in %s — run `repro bench --record --baseline %s` first"
            % (args.compare, ledger.root, args.compare)
        )
    results = []
    for name in names:
        print("bench %s ..." % name, file=sys.stderr)
        result = run_bench(name)
        results.append(result)
        print(result.summary_line())
    if args.record:
        for result in results:
            record = result.to_record(label=args.baseline)
            ledger.record(record)
            print(
                "recorded %s as %s%s"
                % (
                    result.name,
                    record.run_id,
                    " (baseline %s)" % args.baseline if args.baseline else "",
                ),
                file=sys.stderr,
            )
    if args.compare is not None:
        tolerance = (
            args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
        )
        comparison = compare_to_baseline(
            ledger, args.compare, results, tolerance=tolerance, gate=args.gate
        )
        # Human-readable diff table on stderr; stdout carries only
        # the stable tab-separated rows a pipeline can parse.
        print(comparison.render(), file=sys.stderr)
        for line in comparison.machine_lines():
            print(line)
        if comparison.regressions():
            return 3
    return 0


def _cmd_trace(args):
    """Run one traced attack; print the profile, optionally export JSONL."""
    config = MACHINES[args.machine]()
    if args.seed is not None:
        config.seed = args.seed
    with _open_output(args.out) as out_file, \
            _open_output(args.export_chrome) as chrome_file:
        machine = Machine(config, policy=DEFENSES[args.defense]())
        attacker = AttackerView(machine, machine.boot_process())
        machine.trace.enable()
        machine.trace.set_sampling(rates=args.sample, budgets=args.sample_budget)
        print("tracing PThammer vs %s (defense: %s) ..." % (config.name, args.defense))
        attack = PThammerAttack(
            attacker,
            PThammerConfig(
                spray_slots=args.slots, pair_sample=args.pairs, max_pairs=args.pairs
            ),
        )
        report = attack.run()
        print(report.summary())
        print()
        print(
            profile_trace(
                machine.trace, machine=config.name, freq_ghz=config.cpu.freq_ghz
            ).render()
        )
        counts = machine.trace.counts_by_kind()
        print()
        print("events by kind:")
        for kind in sorted(counts):
            print("  %-16s %10d" % (kind, counts[kind]))
        if machine.trace.dropped:
            print(
                "  (%d events dropped beyond the buffer limit)" % machine.trace.dropped
            )
        if machine.trace.sampler is not None:
            stats = machine.trace.sampler.stats()
            print(
                "sampling: kept %d of %d event(s) (%d sampled out, %d over budget)"
                % (stats["kept"], stats["seen"], stats["sampled_out"],
                   stats["budget_dropped"])
            )
        if out_file is not None:
            lines = write_trace_jsonl(machine.trace, out_file, machine=config.name)
            print("wrote %d trace lines to %s" % (lines, args.out))
        if chrome_file is not None:
            events = write_chrome_trace(
                machine.trace,
                chrome_file,
                machine=config.name,
                freq_ghz=config.cpu.freq_ghz,
            )
            print("wrote %d chrome trace event(s) to %s" % (events, args.export_chrome))
    return 0


def _cmd_validate(args):
    """Fast end-to-end self-check of the reproduction's key shapes."""
    from repro.core.tlb_eviction import TLBEvictionSetBuilder, tlb_miss_rate_by_size
    from repro.core.llc_offline import llc_miss_rate_by_size
    from repro.core.uarch import UarchFacts

    failures = []

    def check(name, condition, detail=""):
        status = "ok" if condition else "FAIL"
        print("  [%4s] %s %s" % (status, name, detail))
        if not condition:
            failures.append(name)

    print("validating eviction-set knees ...")
    config = tiny_test_config()
    machine = Machine(config)
    attacker = AttackerView(machine, machine.boot_process())
    inspector = Inspector(machine)
    facts = UarchFacts.from_config(config)
    builder = TLBEvictionSetBuilder(attacker, facts)
    tlb = tlb_miss_rate_by_size(attacker, inspector, builder, (8, 12), trials=50)
    check("fig3: 12-page TLB sets evict", tlb[12] >= 0.85, "%.2f" % tlb[12])
    check("fig3: 8-page sets degrade", tlb[8] < tlb[12], "%.2f" % tlb[8])
    llc = llc_miss_rate_by_size(
        attacker, inspector, facts, (facts.llc_ways - 2, facts.llc_ways + 1), trials=50
    )
    check(
        "fig4: assoc+1 LLC sets evict",
        llc[facts.llc_ways + 1] >= 0.85,
        "%.2f" % llc[facts.llc_ways + 1],
    )

    print("validating pair construction ...")
    pairs = run_experiment(
        "sec4d",
        {"config_fn": lambda: tiny_test_config(), "sample": 10, "spray_slots": 256},
    ).result
    check("sec4d: slow pairs same-bank", pairs.slow_same_bank_rate >= 0.8)

    print("validating escalation (one seed) ...")
    machine = Machine(tiny_test_config(seed=1))
    attacker = AttackerView(machine, machine.boot_process())
    report = PThammerAttack(
        attacker, PThammerConfig(spray_slots=256, pair_sample=16, max_pairs=14)
    ).run()
    check("sec4f: flips observed", report.total_flips > 0)
    check("sec4f: escalated to root", report.escalated and attacker.getuid() == 0)

    print("%d checks failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


def _cmd_mitigations(args):
    """The Section-V mitigation matrix (ANVIL/TRR)."""
    from repro.analysis import mitigation_matrix, render_table

    print(render_table(["attack", "mitigation", "ground-truth flips"],
                       mitigation_matrix(), title="Section V mitigations"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
