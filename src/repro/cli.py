"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``schedule``   run one algorithm on a generated mesh, print metrics
``figures``    regenerate one or all paper figures (Fig 2a–3c, headline)
``mesh``       generate a mesh and report/save it
``partition``  partition a mesh into blocks, report cut/balance
``transport``  run the S_n transport solve in schedule order
``fuzz``       differential fuzzing of every registered scheduler
``bench``      time the heap/vector scheduling engines, write JSON
``trace``      run a traced grid and export a Perfetto-loadable timeline
``campaign``   resumable declarative sweeps over a sqlite result store
``cache``      inspect/clear the content-addressed instance build cache
``lint``       AST invariant linter (RPL rules) over python sources
``serve``      resident scheduling daemon (batching, admission control)
``request``    send schedule/status/metrics requests to a running daemon
``doctor``     health probe: orphan shm segments + corrupt cache entries

All commands take ``--seed`` and print deterministic output.  The CLI is
a thin veneer over the library — every command body is a few calls into
the public API, and the functions return exit codes so tests can drive
them without subprocesses.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis import gantt_text, summarize_schedule
from repro.comm import CommModel, estimate_wall_clock
from repro.core import block_assignment
from repro.experiments.paper import FIGURES, run_figure
from repro.heuristics import algorithm_names, get_algorithm
from repro.mesh import MESH_GENERATORS, make_mesh, save_mesh
from repro.partition import balance, block_sizes, edge_cut, partition_mesh_blocks
from repro.sweeps import build_instance, directions_for_mesh
from repro.transport import Quadrature, TransportProblem, solve_with_schedule
from repro.util.errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel sweep scheduling on unstructured meshes (IPDPS 2005 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--mesh", default="tetonly", choices=sorted(MESH_GENERATORS))
        p.add_argument("--cells", type=int, default=2000, help="target cell count")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("schedule", help="schedule sweeps with one algorithm")
    common(p)
    p.add_argument("--algorithm", default="random_delay_priority",
                   choices=algorithm_names())
    p.add_argument("-k", "--directions", type=int, default=8)
    p.add_argument("-m", "--processors", type=int, default=16)
    p.add_argument("--block-size", type=int, default=1,
                   help="METIS-style block size (1 = per-cell assignment)")
    p.add_argument("--comm-cost", type=float, default=0.0,
                   help="per-message-round cost c for the wall-clock estimate")
    p.add_argument("--gantt", action="store_true", help="print an ASCII Gantt chart")

    p = sub.add_parser("figures", help="regenerate paper figures")
    p.add_argument("which", nargs="?", default="all",
                   choices=["all"] + sorted(FIGURES))
    p.add_argument("--scale", default="default", choices=["default", "paper"],
                   help="default: 2000-cell meshes; paper: the paper's "
                        "31k-118k-cell meshes and block sizes")
    p.add_argument("--cells", type=int, default=None,
                   help="target cell count (default: the scale's own)")
    p.add_argument("--workers", type=int, default=1,
                   help="processes per experiment grid (0 = one per CPU); "
                        "output is bit-identical for any value")
    p.add_argument("--chart", action="store_true",
                   help="also render each figure as an ASCII chart")
    p.add_argument("--trace", nargs="?", const="TRACE.json", default=None,
                   metavar="PATH",
                   help="record a runtime trace and write Chrome trace-event "
                        "JSON (default PATH: TRACE.json)")

    p = sub.add_parser("mesh", help="generate a mesh")
    common(p)
    p.add_argument("--out", default=None, help="save to this .npz path")

    p = sub.add_parser("partition", help="partition a mesh into blocks")
    common(p)
    p.add_argument("--block-size", type=int, default=64)

    p = sub.add_parser("transport", help="run an S_n transport solve")
    common(p)
    p.add_argument("-k", "--directions", type=int, default=8)
    p.add_argument("-m", "--processors", type=int, default=16)
    p.add_argument("--sigma-t", type=float, default=1.0)
    p.add_argument("--sigma-s", type=float, default=0.5)
    p.add_argument("--source", type=float, default=1.0)
    p.add_argument("--boundary", default="vacuum", choices=["vacuum", "white"])
    p.add_argument("--krylov", action="store_true",
                   help="GMRES acceleration (vacuum boundaries only)")

    p = sub.add_parser(
        "compare", help="seed-paired statistical comparison of two algorithms"
    )
    common(p)
    p.add_argument("algorithm_a", choices=algorithm_names())
    p.add_argument("algorithm_b", choices=algorithm_names())
    p.add_argument("-k", "--directions", type=int, default=8)
    p.add_argument("-m", "--processors", type=int, default=16)
    p.add_argument("--trials", type=int, default=10)

    p = sub.add_parser(
        "tournament", help="round-robin all (or chosen) algorithms with stats"
    )
    common(p)
    p.add_argument("algorithms", nargs="*", default=[],
                   help="registry names (default: the main contenders)")
    p.add_argument("-k", "--directions", type=int, default=8)
    p.add_argument("-m", "--processors", type=int, default=16)
    p.add_argument("--trials", type=int, default=8)

    p = sub.add_parser(
        "families", help="run the algorithms on non-geometric instance families"
    )
    p.add_argument("--size", type=int, default=128, help="cells per family")
    p.add_argument("-k", "--directions", type=int, default=8)
    p.add_argument("-m", "--processors", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing of every registered scheduler",
        description=(
            "Generate adversarial instances, run every registry algorithm "
            "on each, and check the invariant-oracle pack (feasibility, "
            "lower bounds, C1/C2 consistency, theory ratios).  Failures "
            "are shrunk and persisted to the corpus as reproducible JSON."
        ),
    )
    p.add_argument("--seeds", type=int, default=None,
                   help="number of fuzz cases (default 100 without a time budget)")
    p.add_argument("--time-budget", type=float, default=None,
                   help="stop generating after this many seconds")
    p.add_argument("--seed", type=int, default=0, help="campaign root seed")
    p.add_argument("--replay", action="store_true",
                   help="re-run the persisted corpus instead of fuzzing")
    p.add_argument("--corpus", default="corpus",
                   help="corpus directory (default ./corpus)")
    p.add_argument("--no-corpus", action="store_true",
                   help="do not persist failures")
    p.add_argument("--no-shrink", action="store_true",
                   help="persist failures without minimising them")
    p.add_argument("--algorithms", nargs="*", default=[],
                   choices=algorithm_names(), metavar="ALGO",
                   help="restrict to these registry algorithms")
    p.add_argument("--quiet", action="store_true",
                   help="only print the final summary")

    p = sub.add_parser(
        "bench",
        help="benchmark the heap/vector list-scheduling engines",
        description=(
            "Time both list-scheduling engines on the benchmark families "
            "(large/standard mesh, chains, wide layers), cross-check that "
            "they produce identical schedules, and write a schema-"
            "versioned JSON report."
        ),
    )
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes for CI schema validation (seconds)")
    p.add_argument("--cells", type=int, default=None,
                   help="mesh cell count (default $REPRO_BENCH_CELLS or 2000)")
    p.add_argument("--repeats", type=int, default=None,
                   help="timing repeats per engine (best-of; default 5, 1 in smoke)")
    p.add_argument("--families", default=None, metavar="FAM[,FAM...]",
                   help="comma-separated case-family subset (e.g. "
                        "'chain,mesh_large'); writes a partial report "
                        "without the construction section")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None,
                   help="output JSON path (default BENCH_<schema>.json; '-' for stdout)")
    p.add_argument("--trace", nargs="?", const="TRACE.json", default=None,
                   metavar="PATH",
                   help="record a runtime trace of the benchmark and write "
                        "Chrome trace-event JSON (default PATH: TRACE.json)")

    p = sub.add_parser(
        "trace",
        help="run a traced workload and export a Perfetto-loadable trace",
        description=(
            "Enable the repro.obs tracer, run one experiment grid "
            "(optionally over a worker pool, whose spans are shipped back "
            "and merged into a single pid/stream-tagged timeline), and "
            "export the result as Chrome trace-event JSON (loadable in "
            "Perfetto / chrome://tracing), flat JSON, or a terminal "
            "summary.  See docs/observability.md."
        ),
    )
    p.add_argument("--cells", type=int, default=300, help="target cell count")
    p.add_argument("-k", "--directions", type=int, default=4)
    p.add_argument("--workers", type=int, default=2,
                   help="processes for the traced grid (0 = one per CPU)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="TRACE.json",
                   help="output path (default TRACE.json; '-' for stdout)")
    p.add_argument("--format", dest="fmt", default="chrome",
                   choices=["chrome", "flat", "summary"],
                   help="chrome trace-event JSON (default), flat JSON, or "
                        "a terminal top-N summary")
    p.add_argument("--top", type=int, default=15,
                   help="span names in the summary table (default 15)")

    p = sub.add_parser(
        "campaign",
        help="declarative, resumable experiment campaigns",
        description=(
            "Compile a TOML/JSON campaign spec to a content-hashed cell "
            "universe, execute only the cells without a committed result "
            "(checkpointing each into a sqlite store, so a killed run "
            "resumes where it stopped), and rebuild grid summaries "
            "purely from the store — byte-identical to a fresh "
            "run_grid.  See docs/campaigns.md."
        ),
    )
    p.add_argument("action", choices=["run", "status", "report"],
                   help="run/resume the campaign, show progress, or "
                        "rebuild the report from the store")
    p.add_argument("spec", help="campaign spec path (.toml or .json)")
    p.add_argument("--store", default=None,
                   help="sqlite result store path "
                        "(default: <spec>.campaign.sqlite)")
    p.add_argument("--workers", type=int, default=1,
                   help="processes per instance group (0 = one per CPU); "
                        "results are bit-identical for any value")
    p.add_argument("--limit", type=int, default=None,
                   help="run at most N pending cells this call (canonical "
                        "order); the rest stay pending, like a resume")
    p.add_argument("--out", default="-",
                   help="report output path (default '-' for stdout)")
    p.add_argument("--trace", nargs="?", const="TRACE.json", default=None,
                   metavar="PATH",
                   help="record a runtime trace of the run and write Chrome "
                        "trace-event JSON (default PATH: TRACE.json)")
    p.add_argument("--serve", default=None, metavar="ADDR",
                   help="execute cells through a running repro-serve daemon "
                        "at this address (socket path or tcp:HOST:PORT) "
                        "instead of building instances locally; results and "
                        "the report stay byte-identical")

    p = sub.add_parser(
        "serve",
        help="resident scheduling daemon over a unix socket",
        description=(
            "Start the scheduling-as-a-service daemon: instances are "
            "published once into shared memory (hydrating from the build "
            "cache when possible) and kept in a byte-budgeted LRU, "
            "compatible schedule requests are coalesced into grid chunks "
            "and dispatched to a resident spawn-context worker pool, and "
            "an admission controller bounds the pending queue, enforces "
            "per-request deadlines, and sheds publishes when the resident "
            "budget is pinned.  SIGTERM drains gracefully: in-flight "
            "requests finish, new ones are refused, and every shared "
            "segment is unlinked (repro doctor must then report zero "
            "orphans).  See docs/serving.md."
        ),
    )
    p.add_argument("--socket", default="repro-serve.sock",
                   help="unix socket path to listen on "
                        "(default ./repro-serve.sock)")
    p.add_argument("--tcp", default=None, metavar="HOST:PORT",
                   help="listen on TCP instead of a unix socket")
    p.add_argument("--workers", type=int, default=2,
                   help="resident pool size (default 2)")
    p.add_argument("--max-pending", type=int, default=None,
                   help="admission bound on in-flight requests (default 128)")
    p.add_argument("--max-delay-ms", type=float, default=None,
                   help="batching coalescing window in ms (default 5)")
    p.add_argument("--max-batch", type=int, default=None,
                   help="max cells per coalesced chunk (default 64)")
    p.add_argument("--max-resident-mb", type=float, default=None,
                   help="resident instance byte budget in MiB (default 512)")
    p.add_argument("--trace", nargs="?", const="TRACE.json", default=None,
                   metavar="PATH",
                   help="enable tracing and write a merged Chrome trace "
                        "on drain (default PATH: TRACE.json)")

    p = sub.add_parser(
        "request",
        help="send one or more requests to a running repro-serve daemon",
        description=(
            "Client for the daemon: 'schedule' runs grid cells (with "
            "--count N, N seed-consecutive requests are pipelined on one "
            "connection so the daemon can coalesce them), 'publish' "
            "pre-publishes an instance into daemon shared memory, "
            "'status'/'metrics' print the daemon's JSON snapshots."
        ),
    )
    p.add_argument("kind", nargs="?", default="schedule",
                   choices=["schedule", "publish", "status", "metrics"])
    p.add_argument("--addr", default="repro-serve.sock",
                   help="daemon address: socket path or tcp:HOST:PORT")
    p.add_argument("--mesh", default="tetonly", choices=sorted(MESH_GENERATORS))
    p.add_argument("--cells", type=int, default=2000, help="target cell count")
    p.add_argument("--mesh-seed", type=int, default=0)
    p.add_argument("-k", "--directions", type=int, default=8)
    p.add_argument("--algorithm", default="random_delay_priority",
                   choices=algorithm_names())
    p.add_argument("-m", "--processors", type=int, default=16)
    p.add_argument("--block-size", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engine", default="auto")
    p.add_argument("--count", type=int, default=1,
                   help="pipeline this many schedule requests "
                        "(seeds seed..seed+count-1)")
    p.add_argument("--deadline", type=float, default=None, metavar="S",
                   help="per-request deadline in seconds")
    p.add_argument("--block-sizes", type=int, nargs="*", default=None,
                   metavar="B", help="labellings to publish alongside "
                                     "(publish kind only)")

    p = sub.add_parser(
        "doctor",
        help="health probe: orphan shm segments + corrupt cache entries",
        description=(
            "Scan for resources a crashed or misbehaving run may have "
            "leaked: shared-memory segments still present in /dev/shm "
            "(repro.parallel.list_orphan_segments) and corrupt or "
            "stray-tmp build-cache entries "
            "(repro.cache.list_corrupt_entries).  Exits 1 if anything is "
            "found, 0 when clean — CI runs this after the serve drain."
        ),
    )
    p.add_argument("--dir", default=None,
                   help="cache directory (default $REPRO_CACHE_DIR)")

    p = sub.add_parser(
        "cache",
        help="inspect or clear the content-addressed build cache",
        description=(
            "Operate on the instance build cache (repro.cache): 'stats' "
            "prints counts/bytes and probes for corrupt or stray-tmp "
            "entries (exit 1 if any — the cache's analogue of the shm "
            "orphan-segment leak check), 'ls' lists entries with their "
            "content keys, 'clear' deletes everything.  The directory "
            "comes from --dir or $REPRO_CACHE_DIR."
        ),
    )
    p.add_argument("action", choices=["stats", "ls", "clear"],
                   help="show stats (+corruption probe), list entries, "
                        "or delete all entries")
    p.add_argument("--dir", default=None,
                   help="cache directory (default $REPRO_CACHE_DIR)")

    p = sub.add_parser(
        "lint",
        help="AST invariant linter for the scheduling/parallel planes",
        description=(
            "Run the project's static invariant rules over python "
            "sources in one pass: file-local rules on each file, "
            "whole-program rules on the call graph built from the same "
            "parses.  `repro lint --list-rules` prints the rules.  "
            "Exits 0 when clean, 1 with file:line diagnostics, 2 on usage "
            "errors (unknown rule, missing/unreadable path, no python "
            "files).  "
            "See docs/linting.md for the rule pack and the pragma syntax."
        ),
    )
    p.add_argument("paths", nargs="*", default=[],
                   help="files/directories to lint (default: src/repro)")
    p.add_argument("--format", dest="fmt", default="text",
                   choices=["text", "json", "github"],
                   help="text (default), json (machine-readable report "
                        "with pragma counts), or github (PR annotations)")
    p.add_argument("--rule", action="append", default=None, metavar="RPLxxx",
                   help="restrict to these rule codes (repeatable)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the registered rules and exit")
    return parser


def _cmd_schedule(args) -> int:
    mesh = make_mesh(args.mesh, target_cells=args.cells, seed=args.seed)
    inst = build_instance(mesh, directions_for_mesh(mesh.dim, args.directions))
    algo = get_algorithm(args.algorithm)
    if args.block_size > 1:
        blocks = partition_mesh_blocks(
            mesh.n_cells, mesh.adjacency, args.block_size, seed=args.seed
        )
        assignment = block_assignment(blocks, args.processors, seed=args.seed)
        sched = algo(inst, args.processors, seed=args.seed, assignment=assignment)
    else:
        sched = algo(inst, args.processors, seed=args.seed)
    sched.validate()
    s = summarize_schedule(sched)
    print(f"mesh: {mesh.name} ({mesh.n_cells} cells), k={inst.k}, m={args.processors}")
    print(f"algorithm: {s.algorithm}")
    print(f"makespan: {s.makespan} (lower bound nk/m = {s.lower_bound}, "
          f"ratio {s.ratio:.3f})")
    print(f"C1 = {s.c1} ({s.c1_fraction:.1%} of DAG edges), C2 = {s.c2}, "
          f"idle = {s.idle_fraction:.1%}")
    if args.comm_cost > 0:
        est = estimate_wall_clock(sched, CommModel(c=args.comm_cost))
        print(f"wall-clock estimate (c={args.comm_cost}): {est.total:.1f} "
              f"({est.comm_fraction():.0%} communication)")
    if args.gantt:
        print()
        print(gantt_text(sched))
    return 0


def _start_trace(path: str | None) -> None:
    """Record from empty buffers when ``--trace`` was given."""
    if path:
        from repro import obs

        obs.enable_tracing()
        obs.reset()


def _write_trace(path: str | None) -> None:
    """Drain the obs buffers into a Chrome trace at ``path``, if given."""
    if not path:
        return
    from repro import obs

    spans = obs.merge_spans([obs.drain_spans()])
    metrics = obs.drain_metrics()
    obs.write_chrome_trace(path, spans, metrics=metrics)
    pids = {s.pid for s in spans}
    print(f"wrote trace {path} ({len(spans)} spans from {len(pids)} pids)")


def _cmd_figures(args) -> int:
    _start_trace(args.trace)
    names = sorted(FIGURES) if args.which == "all" else [args.which]
    cells = {} if args.cells is None else {"target_cells": args.cells}
    for name in names:
        rows, text = run_figure(name, args.scale, args.workers, **cells)
        print(text)
        if args.chart and rows and "series" in rows[0]:
            from repro.experiments import ascii_chart

            y = "ratio" if "ratio" in rows[0] else "makespan"
            print()
            print(ascii_chart(rows, x="m", y=y, group_by="series",
                              title=f"{name} — {y} vs m (shape view)"))
        print()
    _write_trace(args.trace)
    return 0


def _cmd_mesh(args) -> int:
    mesh = make_mesh(args.mesh, target_cells=args.cells, seed=args.seed)
    print(f"{mesh.name}: {mesh.n_cells} cells, {mesh.n_faces} interior faces, "
          f"dim {mesh.dim}")
    if mesh.cell_volumes is not None:
        print(f"total volume: {mesh.cell_volumes.sum():.4f}, "
              f"boundary faces: {mesh.boundary_cells.size}")
    if args.out:
        save_mesh(mesh, args.out)
        print(f"saved to {args.out}")
    return 0


def _cmd_partition(args) -> int:
    mesh = make_mesh(args.mesh, target_cells=args.cells, seed=args.seed)
    blocks = partition_mesh_blocks(
        mesh.n_cells, mesh.adjacency, args.block_size, seed=args.seed
    )
    sizes = block_sizes(blocks)
    print(f"{mesh.name}: {mesh.n_cells} cells -> {sizes.size} blocks "
          f"(target size {args.block_size})")
    print(f"edge cut: {edge_cut(blocks, mesh.adjacency)} of {mesh.n_faces} "
          f"({edge_cut(blocks, mesh.adjacency) / max(mesh.n_faces, 1):.1%})")
    print(f"balance (max/mean): {balance(blocks):.3f}")
    return 0


def _cmd_transport(args) -> int:
    mesh = make_mesh(args.mesh, target_cells=args.cells, seed=args.seed)
    if mesh.dim == 3:
        quad = Quadrature.equal_weight(directions_for_mesh(3, args.directions))
    else:
        quad = Quadrature.fan2d(args.directions)
    inst = build_instance(mesh, quad.directions)
    sched = get_algorithm("random_delay_priority")(
        inst, args.processors, seed=args.seed
    )
    problem = TransportProblem(
        mesh, quad, args.sigma_t, args.sigma_s, args.source, boundary=args.boundary
    )
    print(f"{mesh.name}: {mesh.n_cells} cells, k={quad.k}, "
          f"schedule makespan {sched.makespan}")
    if args.krylov:
        from repro.transport import solve_krylov_with_schedule

        res = solve_krylov_with_schedule(problem, sched)
        status = "converged" if res.converged else "NOT converged"
        print(f"GMRES {status} in {res.sweeps} full-mesh sweeps")
        phi = res.phi
    else:
        res = solve_with_schedule(problem, sched)
        status = "converged" if res.converged else "NOT converged"
        print(f"source iteration {status} in {res.iterations} iterations "
              f"(residual {res.final_residual:.2e})")
        phi = res.phi
    print(f"scalar flux: min {phi.min():.4f}, mean {phi.mean():.4f}, "
          f"max {phi.max():.4f}")
    if args.boundary == "white":
        exact = args.source / (args.sigma_t - args.sigma_s)
        print(f"infinite-medium exact value: {exact:.4f} "
              f"(max error {np.abs(phi - exact).max():.2e})")
    return 0


def _cmd_compare(args) -> int:
    from repro.analysis import compare_pair

    mesh = make_mesh(args.mesh, target_cells=args.cells, seed=args.seed)
    inst = build_instance(mesh, directions_for_mesh(mesh.dim, args.directions))
    result = compare_pair(
        inst, args.algorithm_a, args.algorithm_b,
        m=args.processors, n_seeds=args.trials, seed=args.seed,
    )
    print(f"{args.algorithm_a} vs {args.algorithm_b} on {mesh.name} "
          f"(m={args.processors}, {args.trials} paired trials)")
    print(f"mean makespans: {result['mean_a']:.1f} vs {result['mean_b']:.1f}")
    print(f"paired difference (a-b): {result['mean_diff']:+.1f}, "
          f"95% CI [{result['diff_ci_low']:+.1f}, {result['diff_ci_high']:+.1f}]")
    print(f"record: {result['a_wins']} wins / {result['ties']} ties / "
          f"{result['b_wins']} losses — "
          f"{'significant' if result['significant'] else 'not significant'}")
    return 0


def _cmd_tournament(args) -> int:
    from repro.analysis import format_tournament, tournament

    algos = list(args.algorithms) or [
        "random_delay", "random_delay_priority", "level", "descendant", "dfds",
    ]
    mesh = make_mesh(args.mesh, target_cells=args.cells, seed=args.seed)
    inst = build_instance(mesh, directions_for_mesh(mesh.dim, args.directions))
    print(f"tournament on {mesh.name} (m={args.processors}, "
          f"{args.trials} paired trials)\n")
    result = tournament(inst, algos, m=args.processors,
                        n_seeds=args.trials, seed=args.seed)
    print(format_tournament(result))
    return 0


def _cmd_families(args) -> int:
    from repro.core.lower_bounds import combined_lower_bound
    from repro.instances import INSTANCE_FAMILIES, make_instance

    algos = ("random_delay", "random_delay_priority", "level", "dfds")
    col = max(len(a) for a in algos) + 2
    print(f"ratio to combined LB (n={args.size}, k={args.directions}, "
          f"m={args.processors})\n")
    print(f"{'family':18s}" + "".join(f"{a:>{col}s}" for a in algos))
    for family in sorted(INSTANCE_FAMILIES):
        inst = make_instance(family, n=args.size, k=args.directions,
                             seed=args.seed)
        lb = combined_lower_bound(inst, args.processors)
        cells = []
        for name in algos:
            sched = get_algorithm(name)(inst, args.processors, seed=args.seed)
            cells.append(sched.makespan / lb)
        print(f"{family:18s}" + "".join(f"{c:>{col}.2f}" for c in cells))
    return 0


def _cmd_fuzz(args) -> int:
    from repro.fuzz import replay_corpus, run_fuzz
    from repro.heuristics import ALGORITHMS

    algorithms = (
        {name: ALGORITHMS[name] for name in args.algorithms}
        if args.algorithms
        else None
    )
    log = None if args.quiet else print
    if args.replay:
        report = replay_corpus(args.corpus, algorithms=algorithms, log=log)
        print(report.summary())
        if report.cases_run == 0:
            print(f"(no corpus entries under {args.corpus})")
        return 0 if report.ok else 1
    report = run_fuzz(
        n_seeds=args.seeds,
        time_budget=args.time_budget,
        seed=args.seed,
        corpus_dir=None if args.no_corpus else args.corpus,
        algorithms=algorithms,
        shrink=not args.no_shrink,
        log=log,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    import json

    from repro.experiments.bench import (
        BENCH_SCHEMA_VERSION,
        gate_table,
        run_bench,
        validate_bench,
        write_bench,
    )

    _start_trace(args.trace)
    families = args.families.split(",") if args.families else None
    try:
        report = run_bench(
            smoke=args.smoke, cells=args.cells, repeats=args.repeats,
            seed=args.seed, families=families,
        )
    except ValueError as exc:  # e.g. an unknown --families name
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for case in report["cases"]:
        cols = " ".join(
            f"{eng} {entry['wall_time_s'] * 1e3:8.1f}ms"
            for eng, entry in case["engines"].items()
        )
        build_ms = (
            case["phases"]["mesh_s"]
            + case["phases"]["build_s"]
            + case["phases"]["cache_s"]
        ) * 1e3
        print(
            f"{case['family']:14s} n={case['n_tasks']:8d} m={case['m']:4d} "
            f"build {build_ms:7.1f}ms {cols} "
            f"speedup x{case['speedup']:.2f} auto={case['auto_engine']}"
        )
    if report["construction"] is not None:
        c = report["construction"]
        ident = "ok" if c["byte_identical"] else "DIFFERS"
        print(
            f"construction {c['family']} cells={c['cells']} k={c['k']} "
            f"cold {c['cold_s'] * 1e3:8.1f}ms warm {c['warm_s'] * 1e3:8.1f}ms "
            f"x{c['speedup']:.1f} hits={c['cache_hits']} arrays {ident}"
        )
    print(gate_table(report))
    problems = validate_bench(report)
    out = args.out or f"BENCH_{BENCH_SCHEMA_VERSION}.json"
    if problems:
        print("error: invalid bench report: " + "; ".join(problems),
              file=sys.stderr)
    elif out == "-":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        write_bench(report, out)
        print(f"wrote {out}")
    _write_trace(args.trace)
    return 1 if problems else 0


def _cmd_trace(args) -> int:
    import json

    from repro import obs
    from repro.experiments.configs import ExperimentConfig
    from repro.experiments.runner import run_grid

    config = ExperimentConfig(
        mesh="tetonly",
        target_cells=args.cells,
        k=args.directions,
        m_values=(8,),
        block_sizes=(1,),
        algorithms=("random_delay_priority",),
        seeds=(args.seed, args.seed + 1),
    )
    obs.enable_tracing()
    obs.reset()
    try:
        run_grid(config, with_comm=True, workers=args.workers)
    finally:
        spans = obs.merge_spans([obs.drain_spans()])
        metrics = obs.drain_metrics()
        obs.disable_tracing()
    pids = sorted({s.pid for s in spans})
    print(f"{len(spans)} spans from {len(pids)} pids "
          f"(workers={args.workers}, cells={args.cells}, k={args.directions})")
    print(obs.summary_text(spans, metrics=metrics, top=args.top))
    if args.fmt == "summary":
        return 0
    if args.fmt == "flat":
        payload = obs.flat_json(spans, metrics=metrics)
        if args.out == "-":
            print(json.dumps(payload, indent=1, sort_keys=True))
        else:
            with open(args.out, "w") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.out}")
        return 0
    if args.out == "-":
        print(json.dumps(obs.chrome_trace(spans, metrics=metrics),
                         indent=1, sort_keys=True))
    else:
        obs.write_chrome_trace(args.out, spans, metrics=metrics)
        print(f"wrote {args.out} (load it in https://ui.perfetto.dev "
              "or chrome://tracing)")
    return 0


def _cmd_campaign(args) -> int:
    from pathlib import Path

    from repro.campaign import (
        ResultStore,
        load_spec,
        report_json,
        run_campaign,
        status_text,
    )

    spec = load_spec(args.spec)
    store_path = args.store or str(
        Path(args.spec).with_suffix(".campaign.sqlite")
    )
    if args.action == "run":
        _start_trace(args.trace)
        stats = run_campaign(
            spec, store_path, workers=args.workers, limit=args.limit,
            serve=args.serve,
        )
        deferred = (
            f"{stats.cells_deferred} deferred by --limit, "
            if stats.cells_deferred
            else ""
        )
        print(
            f"campaign {spec.name!r}: {stats.cells_executed} cells executed, "
            f"{stats.cells_skipped} already done, {deferred}"
            f"{stats.cells_total} total "
            f"({stats.groups} instance groups, workers={stats.workers})"
        )
        print(f"store: {store_path}")
        _write_trace(args.trace)
        return 0
    with ResultStore.open(store_path, spec) as store:
        if args.action == "status":
            print(status_text(spec, store))
            return 0
        text = report_json(spec, store)
        if args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as fh:
                fh.write(text)
            print(f"wrote {args.out}")
        return 0


def _cmd_serve(args) -> int:
    from repro.serve.client import parse_address
    from repro.serve.server import ServeConfig, run_server

    config = ServeConfig(workers=args.workers, trace_path=args.trace)
    if args.tcp:
        config.socket_path = None
        _, config.tcp = parse_address(f"tcp:{args.tcp}")
    else:
        config.socket_path = args.socket
    if args.max_pending is not None:
        config.max_pending = args.max_pending
    if args.max_delay_ms is not None:
        config.max_delay_s = args.max_delay_ms / 1e3
    if args.max_batch is not None:
        config.max_batch = args.max_batch
    if args.max_resident_mb is not None:
        config.max_resident_bytes = int(args.max_resident_mb * 1024 * 1024)
    return run_server(config)


def _cmd_request(args) -> int:
    import json

    from repro.serve.client import ServeClient

    instance = {
        "mesh": args.mesh,
        "target_cells": args.cells,
        "mesh_seed": args.mesh_seed,
        "k": args.directions,
    }
    with ServeClient(args.addr) as client:
        if args.kind in ("status", "metrics"):
            result = client.request(args.kind)
            print(json.dumps(result, indent=1, sort_keys=True))
            return 0
        if args.kind == "publish":
            result = client.publish(
                instance,
                block_sizes=args.block_sizes or (),
                algorithms=(args.algorithm,),
                engine=args.engine,
            )
            print(f"published {result['instance'][:16]} "
                  f"({result['bytes']} bytes, blocks {result['block_sizes']}); "
                  f"daemon resident: {result['resident_bytes']} bytes")
            return 0
        requests = [
            {
                "instance": instance,
                "algorithm": args.algorithm,
                "m": args.processors,
                "block_size": args.block_size,
                "seed": seed,
                "engine": args.engine,
                "with_comm": True,
                **({"deadline_s": args.deadline} if args.deadline else {}),
            }
            for seed in range(args.seed, args.seed + max(args.count, 1))
        ]
        for request, summary in zip(requests, client.schedule_many(requests)):
            print(f"{summary.algorithm} seed={request['seed']} m={summary.m} "
                  f"makespan={summary.makespan} ratio={summary.ratio:.3f} "
                  f"idle={summary.idle_fraction:.1%}")
    return 0


def _cmd_doctor(args) -> int:
    import contextlib

    from repro import cache as build_cache
    from repro.parallel.shm_store import list_orphan_segments

    sick = 0
    orphans = list_orphan_segments()
    if orphans:
        sick = 1
        for name in orphans:
            print(f"ORPHAN shm segment: /dev/shm/{name}")
    else:
        print("shm segments: clean (no orphans)")
    ctx = (
        build_cache.override_dir(args.dir)
        if args.dir is not None
        else contextlib.nullcontext()
    )
    with ctx:
        if build_cache.cache_dir() is None:
            print("build cache: disabled (nothing to check)")
        else:
            corrupt = build_cache.list_corrupt_entries()
            if corrupt:
                sick = 1
                for name in corrupt:
                    print(f"CORRUPT cache entry: {name}")
            else:
                print(f"build cache: clean ({build_cache.cache_dir()})")
    if sick:
        print("doctor: FOUND PROBLEMS (see above)")
    else:
        print("doctor: all clear")
    return sick


def _cmd_cache(args) -> int:
    import contextlib

    from repro import cache as build_cache

    ctx = (
        build_cache.override_dir(args.dir)
        if args.dir is not None
        else contextlib.nullcontext()
    )
    with ctx:
        if build_cache.cache_dir() is None:
            print("build cache disabled (set $REPRO_CACHE_DIR or pass --dir)",
                  file=sys.stderr)
            return 2
        if args.action == "clear":
            removed = build_cache.clear_cache()
            print(f"cleared {removed} entries from {build_cache.cache_dir()}")
            return 0
        if args.action == "ls":
            entries = build_cache.list_entries()
            for e in entries:
                if "error" in e:
                    print(f"{e['key']}  CORRUPT: {e['error']}")
                else:
                    what = (f"block={e['block_size']}" if "block_size" in e
                            else f"k={e.get('k', '?')}")
                    print(f"{e['key']}  {e['bytes']:12d}B  "
                          f"{e.get('name', '?')} n={e.get('n_cells', '?')} "
                          f"{what}")
            print(f"{len(entries)} entries in {build_cache.cache_dir()}")
            return 0
        stats = build_cache.cache_stats()
        print(f"cache dir: {stats['dir']}")
        print(f"entries: {stats['entries']} "
              f"({stats['total_bytes'] / 1e6:.1f} MB of "
              f"{stats['max_bytes'] / 1e6:.1f} MB)")
        if stats["corrupt"]:
            # The cache analogue of list_orphan_segments: corrupt entries
            # or stray tmp files mean a writer died outside the atomic
            # rename protocol — surface them loudly.
            print(f"CORRUPT/STRAY entries: {stats['corrupt']}")
            return 1
        print("no corrupt or stray entries")
        return 0


def _cmd_lint(args) -> int:
    import os

    from repro.lint import (
        all_rules,
        get_rule,
        iter_python_files,
        lint_paths,
    )

    if args.list_rules:
        for rule in all_rules():
            scope = "deep" if rule.deep else "file"
            print(f"{rule.code}  {rule.name} [{scope}]: {rule.description}")
        return 0
    if args.rule:
        try:
            rules = [get_rule(code) for code in args.rule]
        except KeyError as exc:
            print(f"error: unknown lint rule {exc.args[0]!r}", file=sys.stderr)
            return 2
    else:
        rules = None
    paths = list(args.paths)
    if not paths:
        default = os.path.join("src", "repro")
        if not os.path.isdir(default):
            # Installed (no src/ checkout): lint the imported package.
            default = os.path.dirname(os.path.abspath(__file__))
        paths = [default]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    files = iter_python_files(paths)
    if not files:
        print(
            f"error: no python files under: {', '.join(paths)}",
            file=sys.stderr,
        )
        return 2
    unreadable = [f for f in files if not os.access(f, os.R_OK)]
    if unreadable:
        print(
            f"error: unreadable: {', '.join(sorted(unreadable))}",
            file=sys.stderr,
        )
        return 2
    report = lint_paths(paths, rules=rules)
    if args.fmt == "json":
        print(report.format_json())
    elif args.fmt == "github":
        print(report.format_github())
    else:
        print(report.format_text())
    return 0 if report.ok else 1


_COMMANDS = {
    "schedule": _cmd_schedule,
    "figures": _cmd_figures,
    "mesh": _cmd_mesh,
    "partition": _cmd_partition,
    "transport": _cmd_transport,
    "compare": _cmd_compare,
    "tournament": _cmd_tournament,
    "families": _cmd_families,
    "fuzz": _cmd_fuzz,
    "bench": _cmd_bench,
    "trace": _cmd_trace,
    "campaign": _cmd_campaign,
    "serve": _cmd_serve,
    "request": _cmd_request,
    "doctor": _cmd_doctor,
    "cache": _cmd_cache,
    "lint": _cmd_lint,
}


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
