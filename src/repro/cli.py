"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``stats``      parse a netlist file and print design statistics
``verify``     run RFN (or any registered engine, or a portfolio race)
               on a property
``coverage``   unreachable-coverage-state analysis (RFN or BFS method)
``simulate``   random simulation with a rendered waveform
``fuzz``       differential fuzzing of the verification engines
``batch``      verify many corpus netlists, sharded across processes
``serve``      crash-tolerant verification daemon (WAL queue, watchdog,
               per-engine circuit breakers)
``submit``     file-protocol client: enqueue one netlist on a serve queue
``status``     file-protocol client: show a serve queue's state
``engines``    list the registered verification engines (``--json``)
``trace``      validate/export an obs trace (Chrome JSON, folded stacks)
``report``     human-readable run report from an obs trace

Netlists use the text format of :mod:`repro.netlist.textio` (see
``examples/netlist_files.py``).  Exit codes come from one place --
:func:`repro.engine.verdict_to_exit` -- shared by ``verify``, ``batch``
and ``submit --wait``: 0 = verified, 1 = falsified, 2 = inconclusive,
3 = usage error, 4 = infrastructure failure (worker death / retries
exhausted -- never conflated with a property FAIL), 75 = RETRY_LATER
(admission control shed the job; back off and resubmit).  For ``fuzz``:
0 = all engines agreed and every certificate held, 1 = at least one
finding (reproducers are shrunk into the corpus).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.aig import aig_to_circuit, circuit_to_aig, parse_aiger, to_aiger
from repro.aig.convert import strash_circuit
from repro.core import RfnConfig, UnreachabilityProperty, rfn_verify
from repro.engine import (
    EXIT_USAGE,
    Limits,
    batch_exit,
    registry,
    result_exit,
    verdict_to_exit,
)
from repro.core.coverage import (
    CoverageAnalyzer,
    CoverageConfig,
    bfs_coverage_analysis,
)
from repro.netlist import (
    NetlistError,
    NetlistParseError,
    circuit_from_text,
    circuit_to_text,
    parse_verilog,
)
from repro.netlist.ops import coi_stats
from repro.obs import tracer as obs
from repro.runtime import Budget, ChaosMonkey, RfnCheckpoint
from repro.sim import RandomSimulator
from repro.trace import Trace
from repro.vcd import trace_to_vcd

#: live state of an in-flight ``verify`` run, so the KeyboardInterrupt
#: handler in :func:`main` can emit a partial report (iterations done,
#: budget spent, last checkpoint) before exiting with code 130
_PARTIAL: Dict[str, object] = {}


def _load(path: str):
    """Read a design file; the extension picks the frontend
    (.v -> Verilog subset, .aag -> AIGER, anything else -> netlist text).

    Malformed, truncated or binary input surfaces as a
    :class:`~repro.netlist.NetlistParseError` with file context (the
    CLI prints it cleanly and exits 2), never a raw traceback."""
    try:
        with open(path) as handle:
            text = handle.read()
    except UnicodeDecodeError as error:
        raise NetlistParseError(
            f"not a text netlist (binary or non-UTF-8 input): {error}",
            path=path,
        ) from error
    try:
        if path.endswith(".v"):
            return parse_verilog(text)
        if path.endswith(".aag"):
            return aig_to_circuit(parse_aiger(text))
        return circuit_from_text(text, path=path)
    except NetlistParseError:
        raise
    except (NetlistError, ValueError, IndexError, KeyError) as error:
        raise NetlistParseError(
            str(error) or type(error).__name__, path=path
        ) from error


def _parse_strategies(
    text: Optional[str], default: Optional[Tuple[str, ...]]
) -> Optional[Tuple[str, ...]]:
    """``--strategies``: comma-separated engine names, or ``default``
    when the flag is absent.  An unknown name is a usage error (exit 3)
    before anything runs."""
    if not text:
        return default
    return registry.require(
        name.strip() for name in text.split(",") if name.strip()
    )


def _parse_target(text: str) -> Dict[str, int]:
    cube: Dict[str, int] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"bad target literal {item!r}; use sig=0|1")
        name, _, value = item.partition("=")
        if value not in ("0", "1"):
            raise ValueError(f"bad target value in {item!r}")
        cube[name.strip()] = int(value)
    if not cube:
        raise ValueError("empty target cube")
    return cube


# ----------------------------------------------------------------------


def cmd_stats(args) -> int:
    circuit = _load(args.netlist)
    stats = circuit.stats()
    print(f"circuit {circuit.name}:")
    print(f"  inputs:    {stats['inputs']}")
    print(f"  gates:     {stats['gates']}")
    print(f"  registers: {stats['registers']}")
    if circuit.outputs:
        print(f"  outputs:   {', '.join(circuit.outputs)}")
        regs, gates = coi_stats(circuit, circuit.outputs)
        print(f"  output COI: {regs} registers, {gates} gates")
    if args.perf:
        _print_perf_profile(circuit, lanes=args.perf_lanes,
                            cycles=args.perf_cycles)
    return 0


def _print_perf_profile(circuit, lanes: int, cycles: int) -> None:
    """Measure bit-parallel simulation throughput on the loaded design
    and dump the kernel's perf counters."""
    import time as _time

    from repro.kernel import PERF, BitParallelSimulator, pack_bits

    rng = __import__("random").Random(0)
    PERF.reset()

    bitsim = BitParallelSimulator(circuit)
    packed = bitsim.initial_state(lanes, default=0)
    start = _time.perf_counter()
    for _ in range(cycles):
        inputs = {
            n: pack_bits(rng.getrandbits(lanes), lanes)
            for n in circuit.inputs
        }
        _, packed = bitsim.step(packed, inputs, lanes)
    kernel_s = _time.perf_counter() - start
    kernel_pps = lanes * cycles / kernel_s if kernel_s > 0 else float("inf")

    print(f"simulation throughput ({cycles} cycles):")
    print(f"  bit-parallel: {kernel_pps:,.0f} patterns/s ({lanes} lanes)")
    print(PERF.format())


def cmd_verify(args) -> int:
    circuit = _load(args.netlist)
    if args.engine != "rfn":
        for flag, value in (
            ("--resume", args.resume),
            ("--checkpoint", args.checkpoint),
        ):
            if value:
                raise ValueError(
                    f"{flag} only applies to the rfn engine"
                )
    if args.engine not in ("rfn", "portfolio"):
        for flag, value in (
            ("--chaos", args.chaos),
            ("--jobs", args.jobs),
        ):
            if value:
                raise ValueError(
                    f"{flag} only applies to the rfn and portfolio engines"
                )
    if args.strategies and args.engine != "portfolio":
        raise ValueError("--strategies only applies to the portfolio engine")
    from repro.parallel import STRATEGY_ORDER

    strategies = _parse_strategies(args.strategies, STRATEGY_ORDER)
    resume_ckpt = None
    if args.resume:
        resume_ckpt = RfnCheckpoint.load(args.resume)
    if args.watchdog:
        target = {args.watchdog: 1}
    elif args.target:
        target = _parse_target(args.target)
    elif resume_ckpt is not None:
        target = dict(resume_ckpt.target)
        if resume_ckpt.property_name:
            args.name = resume_ckpt.property_name
    else:
        raise ValueError(
            "one of --watchdog/--target is required "
            "(unless resuming from a checkpoint)"
        )
    prop = UnreachabilityProperty(args.name, target)
    log = print if args.verbose else None
    # --timeout is the one time flag: every branch runs under this budget.
    budget = (
        Budget(max_seconds=args.timeout) if args.timeout is not None else None
    )

    if args.engine == "portfolio":
        from repro.parallel import race

        chaos = ChaosMonkey.parse(args.chaos) if args.chaos else None
        outcome = race(
            circuit,
            prop,
            strategies=strategies,
            jobs=max(1, args.jobs),
            budget=budget,
            chaos=chaos,
            log=log,
        )
        print(f"portfolio: {outcome.verdict} "
              f"(winner: {outcome.winner or 'none'}, jobs: {outcome.jobs}) "
              f"in {outcome.seconds:.2f}s")
        for envelope in outcome.envelopes:
            print(f"  {envelope.strategy}: {envelope.verdict} "
                  f"({envelope.detail}) in {envelope.seconds:.2f}s")
        if outcome.disagreement:
            print(f"  DISAGREEMENT: {outcome.disagreement}")
        trace = outcome.trace
        status_code = verdict_to_exit(outcome.verdict)
    elif args.engine != "rfn":
        engine = registry.get(args.engine)
        result = engine.run(
            circuit,
            prop,
            Limits(max_depth=args.max_depth, budget=budget),
        )
        witness = f" [{result.witness}]" if result.witness else ""
        print(f"{engine.name}: {result.verdict} ({result.detail}) "
              f"in {result.seconds:.2f}s{witness}")
        trace = result.trace
        status_code = verdict_to_exit(result.verdict)
    else:
        chaos = ChaosMonkey.parse(args.chaos) if args.chaos else None
        checkpoint_path = args.checkpoint or args.resume
        config = RfnConfig(
            max_iterations=args.max_iterations,
            log=log,
            budget=budget,
            chaos=chaos,
            checkpoint_path=checkpoint_path,
            parallel=args.jobs,
        )
        _PARTIAL.update(
            budget=budget,
            checkpoint_path=checkpoint_path,
            start=time.monotonic(),
        )
        rfn_result = rfn_verify(
            circuit,
            prop,
            config,
            resume=resume_ckpt,
            observer=lambda rfn: _PARTIAL.__setitem__("rfn", rfn),
        )
        print(f"RFN: {rfn_result.status.value} in "
              f"{rfn_result.seconds:.2f}s, "
              f"{len(rfn_result.iterations)} iterations, abstract model "
              f"{rfn_result.abstract_model_registers}/"
              f"{circuit.num_registers} registers")
        if rfn_result.resumed_iterations:
            print(f"resumed from {args.resume}: "
                  f"{rfn_result.resumed_iterations} prior iteration(s)")
        fallbacks = sorted({
            name
            for record in rfn_result.iterations
            for name in record.fallbacks.split(",")
            if name
        })
        if fallbacks:
            print(f"fallback engines used: {', '.join(fallbacks)}")
        if rfn_result.failure is not None:
            print(f"resource out: {rfn_result.failure.describe()}")
        if rfn_result.checkpoint_path:
            print(f"checkpoint written to {rfn_result.checkpoint_path}")
        trace = rfn_result.trace
        status_code = verdict_to_exit(rfn_result.status)

    if trace is not None:
        if args.vcd:
            trace_to_vcd(trace, args.vcd)
            print(f"error trace written to {args.vcd}")
        else:
            print(trace.format())
    return status_code


def cmd_coverage(args) -> int:
    circuit = _load(args.netlist)
    signals = [s.strip() for s in args.signals.split(",") if s.strip()]
    if not signals:
        print("no coverage signals given", file=sys.stderr)
        return 3
    total = 1 << len(signals)
    if args.method == "bfs":
        result = bfs_coverage_analysis(circuit, signals, k=args.bfs_k)
        print(f"BFS (k={args.bfs_k}): {result.num_unreachable}/{total} "
              f"coverage states unreachable "
              f"({result.model_registers} model registers, "
              f"{result.seconds:.2f}s)")
    else:
        config = CoverageConfig(
            max_seconds=args.max_seconds,
            log=print if args.verbose else None,
        )
        result = CoverageAnalyzer(circuit, signals, config).run()
        print(f"RFN: {result.num_unreachable}/{total} unreachable, "
              f"{result.num_reachable_marked} marked reachable, "
              f"{result.num_undetermined} undetermined "
              f"({result.iterations} iterations, "
              f"{result.model_registers} model registers, "
              f"{result.seconds:.2f}s)")
    if len(signals) <= args.list_limit_bits:
        states = sorted(result.unreachable_states())
        rendered = ["".join(str(b) for b in s) for s in states]
        print("unreachable states:", ", ".join(rendered) or "(none)")
    return 0


def cmd_convert(args) -> int:
    circuit = _load(args.input)
    if args.strash:
        before = circuit.num_gates
        circuit = strash_circuit(circuit)
        print(f"strash: {before} -> {circuit.num_gates} gates")
    if args.output.endswith(".aag"):
        text = to_aiger(circuit_to_aig(circuit))
    else:
        text = circuit_to_text(circuit)
    with open(args.output, "w") as handle:
        handle.write(text)
    print(f"wrote {args.output} "
          f"({circuit.num_gates} gates, {circuit.num_registers} registers)")
    return 0


def cmd_simulate(args) -> int:
    circuit = _load(args.netlist)
    rs = RandomSimulator(circuit, seed=args.seed)
    frames = rs.random_run(args.cycles)
    signals = args.signals.split(",") if args.signals else (
        circuit.outputs or list(circuit.registers)[:8]
    )
    trace = Trace(
        states=[
            {s: f[s] for s in signals if s in f} for f in frames
        ],
        inputs=[{} for _ in frames],
        circuit_name=circuit.name,
    )
    print(trace.format(signals=[s for s in signals if s in frames[0]]))
    return 0


def cmd_fuzz(args) -> int:
    from repro.fuzz import GenConfig, run_campaign

    gen_config = GenConfig(
        max_registers=args.max_registers, max_gates=args.max_gates
    )
    result = run_campaign(
        seed=args.seed,
        iters=args.iters,
        budget_seconds=args.budget,
        instance_seconds=args.instance_budget,
        jobs=args.jobs,
        gen_config=gen_config,
        corpus_dir=args.corpus,
        shrink=not args.no_shrink,
        log=print if args.verbose else None,
    )
    payload = result.to_json()
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.report}")
    verdicts = ", ".join(
        f"{name}={count}"
        for name, count in sorted(result.verdict_counts.items())
    ) or "none"
    print(
        f"fuzz: {result.iterations_run}/{args.iters} iterations "
        f"(seed {args.seed}) in {result.seconds:.1f}s; "
        f"engine verdicts: {verdicts}"
    )
    if result.budget_exhausted:
        print(f"budget of {args.budget:.0f}s exhausted early")
    if result.resource_out_count:
        print(f"{result.resource_out_count} instance(s) hit the "
              f"per-instance budget (recorded, not findings)")
    if result.ok:
        print("no engine disagreements, no failed certificates")
        return 0
    print(f"{len(result.findings)} FINDING(S):")
    for finding in result.findings:
        report = finding.report_json()
        reasons = (
            report["disagreements"]
            + report["failed_certificates"]
            + report["errors"]
        )
        print(f"  seed {finding.seed}: {'; '.join(reasons)}")
        if finding.reproducer_path:
            print(f"    reproducer: {finding.reproducer_path}")
    return 1


def cmd_trace(args) -> int:
    from repro.obs import (
        load_records,
        to_chrome_json,
        to_folded,
        validate_records,
    )

    records = load_records(args.tracefile)
    problems = validate_records(records)
    if args.validate or not (args.chrome or args.flame):
        if problems:
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            print(f"{args.tracefile}: {len(problems)} schema problem(s)",
                  file=sys.stderr)
            return 1
        spans = sum(1 for r in records if r.get("type") == "span")
        events = sum(1 for r in records if r.get("type") == "event")
        print(f"{args.tracefile}: valid "
              f"({spans} spans, {events} events)")
        if not (args.chrome or args.flame):
            return 0

    if args.chrome:
        text = to_chrome_json(records)
        default = args.tracefile + ".chrome.json"
    else:
        text = "\n".join(to_folded(records))
        if text:
            text += "\n"
        default = args.tracefile + ".folded"
    out = args.output or default
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)
        kind = "chrome trace" if args.chrome else "folded stacks"
        print(f"{kind} written to {out}")
    return 0


def cmd_report(args) -> int:
    from repro.obs import load_records, render_report

    records = load_records(args.tracefile)
    print(render_report(records), end="")
    return 0


def _batch_serve(args, items, strategies) -> List[dict]:
    """Run the batch through an in-process :class:`repro.serve.Daemon`
    (durable queue, watchdog, breakers) instead of bare shards: worker
    death and hangs are retried with backoff instead of surfacing as
    one-shot errors."""
    import tempfile

    from repro.fuzz.shrink import instance_to_text
    from repro.serve import (
        Daemon,
        ServeConfig,
        make_job,
        read_result,
        submit_job,
    )

    queue_dir = args.queue_dir or tempfile.mkdtemp(prefix="repro-batch-")
    job_ids = []
    for path, instance in items:
        job = make_job(
            instance_to_text(instance),
            name=os.path.basename(path),
            strategies=list(strategies),
            timeout=args.timeout,
        )
        submit_job(queue_dir, job)
        job_ids.append(job.id)
    config = ServeConfig(
        queue_dir=queue_dir,
        workers=max(1, args.jobs),
        max_queue=max(len(items), 64),
        default_timeout=args.timeout,
        until_idle=True,
        log=print if args.verbose else None,
    )
    Daemon(config).run()
    records = []
    for (path, instance), job_id in zip(items, job_ids):
        result = read_result(queue_dir, job_id) or {
            "verdict": "error",
            "detail": "no result produced",
            "infrastructure": True,
        }
        record = {
            "path": path,
            "name": instance.name,
            "verdict": result.get("verdict") or "error",
            "winner": result.get("winner"),
            "seconds": result.get("seconds"),
            "detail": result.get("detail", ""),
            "attempts": result.get("attempt"),
            "infrastructure": bool(result.get("infrastructure")),
            "job": job_id,
        }
        records.append(record)
    return records


def _batch_shards(args, items, strategies) -> List[dict]:
    from repro.parallel import race
    from repro.parallel.shard import SKIPPED, ShardError, shard_map

    log = print if args.verbose else None

    def one_instance(item):
        path, instance = item
        budget = (
            Budget(
                max_seconds=args.timeout,
                name=f"batch/{os.path.basename(path)}",
            )
            if args.timeout is not None
            else None
        )
        # Each shard runs the *sequential* race: the batch parallelism
        # is across instances, not within one.
        outcome = race(
            instance.circuit,
            instance.prop,
            strategies=strategies,
            jobs=1,
            budget=budget,
        )
        record = outcome.to_json()
        record["path"] = path
        record["name"] = instance.name
        # A strategy ERROR envelope is an engine/worker failure, not a
        # statement about the property.
        envelopes = record.get("envelopes", [])
        record["infrastructure"] = record["verdict"] == "error" or (
            bool(envelopes)
            and all(e.get("verdict") == "error" for e in envelopes)
        )
        return record

    deadline = (
        None if args.budget is None else time.monotonic() + args.budget
    )
    outcomes = shard_map(
        one_instance, items, jobs=args.jobs, deadline=deadline, log=log
    )

    records = []
    for (path, instance), outcome in zip(items, outcomes):
        if outcome is SKIPPED:
            record = {
                "path": path,
                "name": instance.name,
                "verdict": "skipped",
                "winner": None,
                "seconds": None,
                "infrastructure": False,
            }
        elif isinstance(outcome, ShardError):
            # The shard process itself died: by definition not a
            # property verdict.
            record = {
                "path": path,
                "name": instance.name,
                "verdict": "error",
                "winner": None,
                "seconds": None,
                "detail": str(outcome),
                "infrastructure": True,
            }
        else:
            record = outcome
        records.append(record)
    return records


def cmd_batch(args) -> int:
    from repro.fuzz.shrink import load_corpus, load_instance
    from repro.parallel import STRATEGY_ORDER

    strategies = _parse_strategies(args.strategies, STRATEGY_ORDER)
    items = []
    for path in args.paths:
        if os.path.isdir(path):
            items.extend(load_corpus(path))
        else:
            items.append((path, load_instance(path)))
    if not items:
        raise ValueError("no corpus instances found in the given paths")

    if args.serve:
        records = _batch_serve(args, items, strategies)
    else:
        records = _batch_shards(args, items, strategies)

    counts: Dict[str, int] = {}
    infra = []
    for record in records:
        counts[record["verdict"]] = counts.get(record["verdict"], 0) + 1
        if record.get("infrastructure"):
            infra.append(
                {
                    "path": record["path"],
                    "detail": record.get("detail", ""),
                    "attempts": record.get("attempts"),
                }
            )
        winner = record.get("winner") or "-"
        seconds = record.get("seconds")
        timing = "     -" if seconds is None else f"{seconds:5.2f}s"
        flag = " [infra]" if record.get("infrastructure") else ""
        print(f"  {record['verdict']:<10} {winner:<10} {timing}  "
              f"{record['path']}{flag}")

    summary = ", ".join(
        f"{name}={count}" for name, count in sorted(counts.items())
    )
    print(f"batch: {len(records)} instance(s); {summary}")
    if infra:
        print(f"{len(infra)} infrastructure failure(s) "
              f"(worker death / retries exhausted), not property verdicts")
    if args.report:
        payload = {
            "instances": records,
            "verdict_counts": counts,
            "infrastructure_failures": infra,
            "jobs": args.jobs,
            "serve": bool(args.serve),
            "strategies": list(strategies),
        }
        with open(args.report, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.report}")
    # Exit-code ladder: a genuine property FAIL dominates; otherwise
    # infrastructure failure is its own code (4) so CI can tell "the
    # design is buggy" from "the farm is buggy"; otherwise inconclusive
    # verdicts (unknown/skipped) exit 2.
    return batch_exit(counts, infrastructure=len(infra))


def cmd_serve(args) -> int:
    from repro.parallel import STRATEGY_ORDER
    from repro.serve import Daemon, ServeConfig

    config = ServeConfig(
        queue_dir=args.queue_dir,
        workers=max(1, args.workers),
        max_queue=args.max_queue,
        default_timeout=args.timeout,
        default_strategies=_parse_strategies(
            args.strategies, STRATEGY_ORDER
        ),
        hang_seconds=args.hang_seconds,
        heartbeat_timeout=args.heartbeat_timeout,
        rss_limit_mb=args.rss_limit_mb,
        poll_seconds=args.poll,
        drain_grace=args.drain_grace,
        until_idle=args.until_idle,
        log=print if args.verbose else None,
    )
    return Daemon(config).run()


def cmd_submit(args) -> int:
    from repro.serve import RETRY_LATER, make_job, submit_job, wait_for

    strategies = _parse_strategies(args.strategies, None)
    with open(args.netlist) as handle:
        netlist_text = handle.read()
    target = _parse_target(args.target) if args.target else None
    if args.watchdog:
        target = {args.watchdog: 1}
    job = make_job(
        netlist_text,
        name=os.path.basename(args.netlist),
        target=target,
        prop_name=args.name,
        strategies=strategies,
        timeout=args.timeout,
        chaos=args.chaos,
    )
    submit_job(args.queue_dir, job)
    print(f"submitted {job.id} ({job.name})")
    if not args.wait:
        return 0
    results = wait_for(
        args.queue_dir, [job.id], timeout=args.wait_timeout
    )
    result = results[job.id]
    if result is None:
        print("error: timed out waiting for a result", file=sys.stderr)
    elif result.get("reply") == RETRY_LATER:
        print(f"{job.id}: {RETRY_LATER} ({result.get('detail', '')})",
              file=sys.stderr)
    else:
        verdict = result.get("verdict")
        infra = " [infrastructure]" if result.get("infrastructure") else ""
        print(f"{job.id}: {verdict}{infra} ({result.get('detail', '')})")
    return result_exit(result)


def cmd_engines(args) -> int:
    rows = registry.describe()
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    for row in rows:
        caps = ", ".join(row["capabilities"])
        print(f"{row['name']:<12} {row['description']}")
        print(f"{'':<12} capabilities: {caps}")
    return 0


def cmd_status(args) -> int:
    from repro.serve import queue_status, render_status

    status = queue_status(args.queue_dir)
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
    else:
        print(render_status(status), end="")
    return 0


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RFN: formal property verification by abstraction "
        "refinement (DAC 2001 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="print netlist statistics")
    p_stats.add_argument("netlist")
    p_stats.add_argument(
        "--perf", action="store_true",
        help="measure interpreted vs bit-parallel simulation throughput "
        "on this design and print the kernel perf counters",
    )
    p_stats.add_argument("--perf-lanes", type=int, default=256)
    p_stats.add_argument("--perf-cycles", type=int, default=64)
    p_stats.set_defaults(func=cmd_stats)

    p_verify = sub.add_parser("verify", help="verify an unreachability property")
    p_verify.add_argument("netlist")
    group = p_verify.add_mutually_exclusive_group()
    group.add_argument("--watchdog", help="watchdog register (target: =1)")
    group.add_argument("--target", help="target cube, e.g. 'bad=1,mode=0'")
    p_verify.add_argument("--name", default="property")
    p_verify.add_argument(
        "--engine",
        choices=(
            "rfn", "portfolio",
            "atpg", "bdd", "bmc", "kernel", "kinduction",
        ),
        default="rfn",
        help="rfn (the default) and portfolio keep their own reporting; "
        "every other registered engine (see 'repro engines') runs "
        "through the canonical repro.engine entrypoint and prints one "
        "'<engine>: <verdict> (<detail>)' line; bdd is the plain "
        "COI-reduced symbolic model checker of Table 1",
    )
    p_verify.add_argument(
        "--jobs", type=int, default=0,
        help="race engine strategies across this many worker processes "
        "(rfn: races the abstract-model check when >= 2; portfolio: "
        "races the whole obligation); 0/1 = sequential",
    )
    p_verify.add_argument(
        "--strategies",
        help="portfolio: comma-separated strategy subset, e.g. "
        "'bdd,kinduction' (default: bdd,rfn,kinduction,bmc)",
    )
    p_verify.add_argument(
        "--timeout", type=float, default=None,
        help="run budget in seconds (the one time limit), enforced "
        "cooperatively inside every engine's hot loop; running out is "
        "an inconclusive verdict (exit 2)",
    )
    p_verify.add_argument("--max-iterations", type=int, default=64,
                          help="rfn: CEGAR iteration cap")
    p_verify.add_argument(
        "--checkpoint", metavar="PATH",
        help="rfn: write the CEGAR state here after each iteration",
    )
    p_verify.add_argument(
        "--resume", metavar="PATH",
        help="rfn: resume from a checkpoint written by --checkpoint "
        "(the target cube defaults to the checkpoint's)",
    )
    p_verify.add_argument(
        "--chaos", metavar="SPEC",
        help="rfn: deterministic fault injection, e.g. "
        "'reach=timeout@0,hybrid=garbage' (testing aid)",
    )
    p_verify.add_argument("--max-depth", type=int, default=32,
                          help="bmc/kinduction/atpg: unrolling bound")
    p_verify.add_argument("--vcd", help="write the error trace as VCD")
    p_verify.add_argument(
        "--trace", metavar="PATH",
        help="write an obs span/event trace (schema-versioned JSONL) "
        "here; inspect it with 'repro trace' / 'repro report'",
    )
    p_verify.add_argument("--verbose", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_convert = sub.add_parser(
        "convert",
        help="convert between netlist text, Verilog subset and AIGER",
    )
    p_convert.add_argument("input")
    p_convert.add_argument("output", help="*.net or *.aag")
    p_convert.add_argument(
        "--strash", action="store_true",
        help="structurally optimize through an AIG round trip",
    )
    p_convert.set_defaults(func=cmd_convert)

    p_cov = sub.add_parser("coverage", help="unreachable-coverage-state analysis")
    p_cov.add_argument("netlist")
    p_cov.add_argument("--signals", required=True,
                       help="comma-separated register outputs")
    p_cov.add_argument("--method", choices=("rfn", "bfs"), default="rfn")
    p_cov.add_argument("--bfs-k", type=int, default=60)
    p_cov.add_argument("--max-seconds", type=float, default=None)
    p_cov.add_argument("--list-limit-bits", type=int, default=8)
    p_cov.add_argument("--verbose", action="store_true")
    p_cov.set_defaults(func=cmd_coverage)

    p_sim = sub.add_parser("simulate", help="random simulation waveform")
    p_sim.add_argument("netlist")
    p_sim.add_argument("--cycles", type=int, default=16)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--signals", help="comma-separated signals to show")
    p_sim.set_defaults(func=cmd_simulate)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random designs through every engine",
    )
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--iters", type=int, default=50,
                        help="number of generated instances")
    p_fuzz.add_argument("--budget", type=float, default=None,
                        help="wall-clock budget in seconds")
    p_fuzz.add_argument("--instance-budget", type=float, default=None,
                        help="per-instance wall-clock budget in seconds; "
                        "engines that exceed it are recorded as "
                        "resource-out, not findings")
    p_fuzz.add_argument("--corpus",
                        help="directory for shrunk reproducers "
                        "(e.g. tests/corpus)")
    p_fuzz.add_argument("--report", help="write a JSON run report here")
    p_fuzz.add_argument("--max-registers", type=int, default=4,
                        help="plain-register ceiling per instance")
    p_fuzz.add_argument("--max-gates", type=int, default=16)
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="skip delta-debugging of findings")
    p_fuzz.add_argument("--jobs", type=int, default=1,
                        help="shard instances across this many worker "
                        "processes (results merge in seed order, so the "
                        "report matches a sequential run)")
    p_fuzz.add_argument(
        "--trace", metavar="PATH",
        help="write an obs span/event trace (schema-versioned JSONL) "
        "here; inspect it with 'repro trace' / 'repro report'",
    )
    p_fuzz.add_argument("--verbose", action="store_true")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_batch = sub.add_parser(
        "batch",
        help="verify a batch of corpus netlists, sharded across processes",
    )
    p_batch.add_argument(
        "paths", nargs="+",
        help="*.net files with a '# !property' directive, or directories "
        "of them (e.g. tests/corpus)",
    )
    p_batch.add_argument("--jobs", type=int, default=1,
                         help="worker processes (forked once per batch, "
                         "each running one instance after another)")
    p_batch.add_argument(
        "--strategies",
        help="comma-separated portfolio strategies per instance "
        "(default: bdd,rfn,kinduction,bmc)",
    )
    p_batch.add_argument("--timeout", type=float, default=None,
                         help="per-instance budget in seconds")
    p_batch.add_argument("--budget", type=float, default=None,
                         help="whole-batch wall-clock budget; instances "
                         "past it are reported as skipped")
    p_batch.add_argument("--report", help="write a JSON batch report here")
    p_batch.add_argument(
        "--serve", action="store_true",
        help="run on the crash-tolerant service layer (durable queue, "
        "watchdog, per-engine breakers, bounded retries) instead of "
        "bare one-shot shards",
    )
    p_batch.add_argument(
        "--queue-dir",
        help="with --serve: queue directory (default: a fresh temp dir)",
    )
    p_batch.add_argument("--verbose", action="store_true")
    p_batch.set_defaults(func=cmd_batch)

    p_serve = sub.add_parser(
        "serve",
        help="run the supervised verification daemon over a durable "
        "job queue (crash-tolerant: WAL + watchdog + breakers)",
    )
    p_serve.add_argument("--queue-dir", required=True,
                         help="queue directory (created if missing)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="worker processes (one job each)")
    p_serve.add_argument(
        "--max-queue", type=int, default=64,
        help="admission bound: submissions past this many active jobs "
        "are shed with a RETRY_LATER reply",
    )
    p_serve.add_argument("--timeout", type=float, default=None,
                         help="default per-job budget in seconds")
    p_serve.add_argument(
        "--strategies",
        help="default engine strategies per job, comma-separated "
        "(default: bdd,rfn,kinduction,bmc)",
    )
    p_serve.add_argument(
        "--hang-seconds", type=float, default=300.0,
        help="watchdog: preempt a worker whose attempt runs longer "
        "than this lease",
    )
    p_serve.add_argument(
        "--heartbeat-timeout", type=float, default=15.0,
        help="watchdog: preempt a worker whose heartbeat goes stale",
    )
    p_serve.add_argument(
        "--rss-limit-mb", type=float, default=None,
        help="watchdog: preempt a worker whose RSS exceeds this "
        "(before the kernel OOM killer picks a victim at random)",
    )
    p_serve.add_argument(
        "--until-idle", action="store_true",
        help="exit 0 once every known job is terminal and the inbox "
        "is empty (batch/CI mode; default: serve until SIGTERM)",
    )
    p_serve.add_argument("--drain-grace", type=float, default=10.0,
                         help="SIGTERM: seconds in-flight jobs get to "
                         "finish before preempt-and-requeue")
    p_serve.add_argument("--poll", type=float, default=0.05,
                         help="main-loop poll interval in seconds")
    p_serve.add_argument(
        "--trace", metavar="PATH",
        help="write an obs span/event trace (schema-versioned JSONL) "
        "here; inspect it with 'repro trace' / 'repro report'",
    )
    p_serve.add_argument("--verbose", action="store_true")
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit",
        help="submit one netlist to a running (or future) repro serve "
        "queue via the file protocol",
    )
    p_submit.add_argument("queue_dir", help="the daemon's --queue-dir")
    p_submit.add_argument("netlist",
                          help="netlist text file; a '# !property' "
                          "directive supplies the property unless "
                          "--target/--watchdog is given")
    group = p_submit.add_mutually_exclusive_group()
    group.add_argument("--watchdog", help="watchdog register (target: =1)")
    group.add_argument("--target", help="target cube, e.g. 'bad=1,mode=0'")
    p_submit.add_argument("--name", default="property")
    p_submit.add_argument("--strategies",
                          help="comma-separated strategy subset")
    p_submit.add_argument("--timeout", type=float, default=None,
                          help="per-job budget in seconds")
    p_submit.add_argument(
        "--chaos", metavar="SPEC",
        help="deterministic fault injection inside this job's workers "
        "(testing aid), e.g. 'rfn=crash'",
    )
    p_submit.add_argument(
        "--wait", action="store_true",
        help="block until the job reaches a terminal verdict; exit "
        "0=verified 1=falsified 2=unknown 4=infrastructure "
        "75=RETRY_LATER (queue full)",
    )
    p_submit.add_argument("--wait-timeout", type=float, default=None)
    p_submit.set_defaults(func=cmd_submit)

    p_engines = sub.add_parser(
        "engines",
        help="list the registered verification engines and their "
        "capability tags",
    )
    p_engines.add_argument("--json", action="store_true")
    p_engines.set_defaults(func=cmd_engines)

    p_status = sub.add_parser(
        "status",
        help="show a repro serve queue: journal replay + inbox backlog "
        "(read-only; safe next to a live daemon)",
    )
    p_status.add_argument("queue_dir", help="the daemon's --queue-dir")
    p_status.add_argument("--json", action="store_true")
    p_status.set_defaults(func=cmd_status)

    p_trace = sub.add_parser(
        "trace",
        help="validate or export an obs trace written with --trace",
    )
    p_trace.add_argument("tracefile", help="JSONL trace from --trace")
    p_trace.add_argument(
        "--chrome", action="store_true",
        help="export Chrome tracing JSON (chrome://tracing, Perfetto)",
    )
    p_trace.add_argument(
        "--flame", action="store_true",
        help="export folded stacks (flamegraph.pl / speedscope input)",
    )
    p_trace.add_argument(
        "--validate", action="store_true",
        help="schema-validate even when exporting (the default action "
        "when no exporter is chosen)",
    )
    p_trace.add_argument(
        "-o", "--output",
        help="output path ('-' for stdout; default: <tracefile> plus "
        "'.chrome.json' or '.folded')",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_report = sub.add_parser(
        "report",
        help="summarize an obs trace: RFN iterations, fuzz rollups, "
        "worker lanes, counters",
    )
    p_report.add_argument("tracefile", help="JSONL trace from --trace")
    p_report.set_defaults(func=cmd_report)
    return parser


def _partial_report() -> Dict[str, object]:
    """Snapshot of an interrupted ``verify`` run: iterations completed,
    budget spent and the last checkpoint (written now if possible)."""
    report: Dict[str, object] = {
        "status": "interrupted",
        "iterations": 0,
        "budget_spent": None,
        "checkpoint": _PARTIAL.get("checkpoint_path"),
    }
    rfn = _PARTIAL.get("rfn")
    if rfn is not None:
        report["iterations"] = len(rfn.iterations)
        start = _PARTIAL.get("start")
        elapsed = (
            time.monotonic() - start if start is not None else 0.0
        )
        try:
            path = rfn.save_checkpoint("in_progress", elapsed)
        except OSError:
            path = None
        if path is not None:
            report["checkpoint"] = path
    budget = _PARTIAL.get("budget")
    if budget is not None:
        report["budget_spent"] = budget.spent()
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        # argparse exits 2 on a usage error, which the ladder reserves
        # for inconclusive verdicts; --help exits 0 and stays so.
        return EXIT_USAGE if exit_.code else 0
    _PARTIAL.clear()
    trace_path = getattr(args, "trace", None)
    try:
        if trace_path:
            obs.TRACER.enable(trace_path)
        return args.func(args)
    except KeyboardInterrupt:
        print(json.dumps(_partial_report(), indent=2, sort_keys=True))
        print("interrupted", file=sys.stderr)
        return 130
    except NetlistError as error:
        # Unparseable/invalid design input: one clean diagnostic with
        # file/line context, exit 2 (distinct from usage errors).
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    finally:
        if trace_path:
            obs.TRACER.close()
            print(f"obs trace written to {trace_path}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
