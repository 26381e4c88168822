"""Command-line front end: simulate scenarios, validate them, run the benchmark."""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .bench import run_benchmark, summarize_bench
from .errors import ParameterError, ScenarioError
from .scenario import load_scenario_file
from .simulation import CENTRALIZED, PARALLEL_ADMM, cycle_count, run_simulation


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fleetcoord",
        description="Multi-vehicle trajectory coordination via consensus ADMM MPC")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and write CSV + JSON output")
    sim.add_argument("scenario", help="scenario file (.scn YAML)")
    sim.add_argument("--mode", choices=[PARALLEL_ADMM, CENTRALIZED],
                     default=PARALLEL_ADMM)
    sim.add_argument("--out", default=".", help="output directory")
    sim.add_argument("--duration", type=float, default=None,
                     help="override sim_duration (seconds, multiple of Ts)")

    bench = sub.add_parser("bench", help="centralized-vs-parallel scaling benchmark")
    bench.add_argument("--sizes", default="4,8,16,32,64,100",
                       help="comma-separated fleet sizes")
    bench.add_argument("--out", default=".", help="output directory")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--cycles", type=int, default=10,
                       help="closed-loop cycles measured per size")

    val = sub.add_parser("validate", help="schema-check a scenario file")
    val.add_argument("scenario")
    return parser


def _load_named(path):
    """Load a scenario file, prefixing errors with the file name."""
    try:
        return load_scenario_file(path)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            scenario = _load_named(args.scenario)
            cycle_count(scenario.config.sim_duration, scenario.config.ts,
                        name=f"{args.scenario}: global.sim_duration")
            print(f"OK: {len(scenario.vehicles)} vehicle(s), "
                  f"Ts={scenario.config.ts:.9g}s, Np={scenario.config.horizon_steps}, "
                  f"d_safe={scenario.config.d_safe:.9g}m, "
                  f"d_perc={scenario.config.d_perc:.9g}m")
            return 0

        if args.command == "simulate":
            scenario = _load_named(args.scenario)
            run = run_simulation(scenario, args.mode, duration=args.duration)
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            csv_path = out / "trajectories.csv"
            json_path = out / "summary.json"
            run.to_csv(csv_path)
            run.write_summary(json_path)
            print(f"wrote {csv_path}")
            print(f"wrote {json_path}")
            if run.violations:
                print(f"warning: {len(run.violations)} safety-distance violation(s); "
                      "see summary.json", file=sys.stderr)
            return 0

        if args.command == "bench":
            try:
                sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
            except ValueError:
                parser.error(f"--sizes: expected comma-separated integers, got {args.sizes!r}")
            if not sizes or any(n < 1 for n in sizes):
                parser.error("--sizes: need positive integers")
            if args.cycles < 1:
                parser.error(f"--cycles: need a positive integer, got {args.cycles}")
            records = run_benchmark(sizes, seed=args.seed, cycles=args.cycles)
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            rec_path = out / "bench_records.csv"
            with open(rec_path, "w", encoding="utf-8") as fh:
                fh.write("n_vehicles,mode,cycle,accounted_time,wall_time,iterations\n")
                for rec in records:
                    for c, (ta, tw, it) in enumerate(zip(
                            rec.per_cycle_times, rec.per_cycle_wall,
                            rec.iterations_per_cycle)):
                        fh.write(f"{rec.n_vehicles},{rec.mode},{c},"
                                 f"{ta:.9g},{tw:.9g},{it}\n")
            summary = summarize_bench(records)
            sum_path = out / "bench_summary.csv"
            with open(sum_path, "w", encoding="utf-8") as fh:
                fh.write(summary.to_csv())
            print(summary.table(), end="")
            print(f"wrote {rec_path}")
            print(f"wrote {sum_path}")
            return 0
    except (ScenarioError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
