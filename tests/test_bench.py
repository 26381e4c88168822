import math

import numpy as np
import pytest
import yaml

from fleetcoord import (CENTRALIZED, PARALLEL_ADMM, BenchmarkRecord, ParameterError,
                        dump_scenario, generate_crossing_scenario, generate_scaled_scenario,
                        build_constraint_graph, load_scenario, run_benchmark, run_simulation,
                        summarize_bench)
from fleetcoord import bench as bench_mod
from fleetcoord.cli import main as cli_main

from oracles import brute_force_edges


def test_generation_deterministic():
    a = generate_scaled_scenario(4, seed=0)
    b = generate_scaled_scenario(4, seed=0)
    assert dump_scenario(a) == dump_scenario(b)
    c = generate_scaled_scenario(4, seed=1)
    assert dump_scenario(a) != dump_scenario(c)


@pytest.mark.parametrize("n_vehicles", [1, 4, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generation_matches_the_yaml_round_trip(monkeypatch, n_vehicles, seed):
    # the generator validates its own document; through YAML it must read the same
    docs = []
    parse = bench_mod.parse_scenario

    def parse_and_keep(doc):
        docs.append(doc)
        return parse(doc)

    monkeypatch.setattr(bench_mod, "parse_scenario", parse_and_keep)
    sc = generate_scaled_scenario(n_vehicles, seed)
    monkeypatch.undo()
    assert len(docs) == 1
    text = dump_scenario(sc)
    assert text == dump_scenario(load_scenario(yaml.safe_dump(docs[0])))
    assert text == dump_scenario(generate_scaled_scenario(n_vehicles, seed))


@pytest.mark.parametrize("n_vehicles", [0, -3, 2.5, 4.0, True, False, "4", None])
def test_generation_rejects_a_vehicle_count_that_is_not_a_positive_integer(n_vehicles):
    with pytest.raises(ParameterError, match="n_vehicles"):
        generate_scaled_scenario(n_vehicles, seed=0)


def test_generation_takes_a_numpy_integer_count():
    assert (dump_scenario(generate_scaled_scenario(np.int64(4), seed=0))
            == dump_scenario(generate_scaled_scenario(4, seed=0)))


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0", None])
def test_generation_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(ParameterError, match="seed"):
        generate_scaled_scenario(4, seed)


@pytest.mark.parametrize("sim_duration", [0.0, -1.0, math.nan, math.inf])
def test_generation_rejects_a_duration_that_is_not_finite_and_positive(sim_duration):
    with pytest.raises(ParameterError, match="sim_duration"):
        generate_scaled_scenario(4, 0, sim_duration=sim_duration)


def test_generation_takes_a_numpy_integer_seed():
    assert (dump_scenario(generate_scaled_scenario(4, seed=np.int64(3)))
            == dump_scenario(generate_scaled_scenario(4, seed=3)))


def test_generation_large_fleet_graph():
    sc = generate_scaled_scenario(100, seed=0)
    states = {v.id: v.initial_state for v in sc.vehicles}
    g = build_constraint_graph(states, sc.config.d_perc, sc.config.d_safe)
    assert g.num_edges > 0
    assert max(g.degree(i) for i in g.nodes) <= 2   # bounded by lane adjacency
    positions = {v.id: (v.initial_state.rx, v.initial_state.ry) for v in sc.vehicles}
    assert set(g.edges) == brute_force_edges(positions, sc.config.d_perc)


def test_generated_speeds_staggered_in_range():
    sc = generate_scaled_scenario(12, seed=3)
    speeds = [v.speed_kmh for v in sc.vehicles]
    assert all(40.0 <= s <= 50.0 for s in speeds)
    assert len(set(round(s, 6) for s in speeds)) > 1


def has_cycle(edges) -> bool:
    """Whether the undirected graph of ``edges`` holds a cycle (union-find)."""
    root = {}

    def find(v):
        while root.setdefault(v, v) != v:
            v = root[v]
        return v

    for i, j in edges:
        a, b = find(i), find(j)
        if a == b:
            return True
        root[a] = b
    return False


def test_crossing_platoons_couple_through_cyclic_graphs():
    sc = generate_crossing_scenario(4, seed=0)
    admm = run_simulation(sc, PARALLEL_ADMM)
    central = run_simulation(sc, CENTRALIZED)
    assert len(admm.cycles) == len(central.cycles) == 30
    assert any(has_cycle(c.graph_edges) for c in admm.cycles)
    assert any(c.iterations > 1 for c in admm.cycles)
    # a separation row activates: the batched edge pass hands edges over
    assert sum(c.admm_report.edge_handed for c in admm.cycles) > 0
    for run in (admm, central):
        assert math.isfinite(min(c.min_distance for c in run.cycles))


def test_crossing_8_converges_every_cycle_within_the_plain_admm_count():
    # eight vehicles through the crossing: plain ADMM took 188 iterations
    # with no cycle at the cap; acceleration must not take more
    run = run_simulation(generate_crossing_scenario(8, seed=0), PARALLEL_ADMM)
    assert len(run.cycles) == 30
    assert all(c.converged for c in run.cycles)
    assert sum(c.iterations for c in run.cycles) <= 188
    assert sum(c.admm_report.anderson_accepted for c in run.cycles) > 0


def test_crossing_generation_is_seeded():
    base = generate_crossing_scenario(6, seed=0)
    assert dump_scenario(base) == dump_scenario(generate_crossing_scenario(6, seed=0))
    for i, v in enumerate(base.vehicles):
        k = i // 2
        pose = (v.initial_state.rx, v.initial_state.ry, v.initial_state.theta)
        assert pose == ((-25.0 - 12.0 * k, 0.0, 0.0) if i % 2 == 0
                        else (3.0, -21.0 - 12.0 * k, math.pi / 2))
    moved = generate_crossing_scenario(6, seed=3)
    assert dump_scenario(moved) == dump_scenario(generate_crossing_scenario(6, seed=3))
    assert dump_scenario(moved) != dump_scenario(base)
    for i, (a, b) in enumerate(zip(base.vehicles, moved.vehicles)):
        along, across = ((b.initial_state.rx - a.initial_state.rx,
                          b.initial_state.ry - a.initial_state.ry) if i % 2 == 0 else
                         (b.initial_state.ry - a.initial_state.ry,
                          b.initial_state.rx - a.initial_state.rx))
        assert abs(along) <= 0.25 and across == 0.0
        assert (b.speed_kmh, b.initial_state.theta) == (a.speed_kmh, a.initial_state.theta)


@pytest.mark.parametrize("args, name", [((0, 0), "n_vehicles"), ((True, 0), "n_vehicles"),
                                        ((4, -1), "seed"), ((4, 1.5), "seed"),
                                        ((4, 0, math.nan), "sim_duration"),
                                        ((4, 0, 0.0), "sim_duration")])
def test_crossing_generation_rejects_bad_arguments(args, name):
    with pytest.raises(ParameterError, match=name):
        generate_crossing_scenario(*args)


def test_run_benchmark_small_sizes():
    records = run_benchmark([2, 3], seed=0, cycles=2)
    assert len(records) == 4    # two sizes, two modes
    for rec in records:
        assert len(rec.per_cycle_times) == 2
        assert all(t > 0 for t in rec.per_cycle_times)
        assert rec.nproc >= 1
        assert set(rec.blas_threads) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                         "MKL_NUM_THREADS"}
    summary = summarize_bench(records)
    assert summary.flatness_ratio is not None
    assert summary.growth_ratio is not None
    assert not summary.gaps
    assert "n_vehicles,mode" in summary.to_csv()


def test_summarize_single_size_flags_ratio():
    rec = BenchmarkRecord(n_vehicles=4, mode="parallel_admm",
                          per_cycle_times=[0.1, 0.2], per_cycle_wall=[0.1, 0.2],
                          iterations_per_cycle=[3, 4])
    summary = summarize_bench([rec])
    assert summary.flatness_ratio is None
    assert any("ratio undefined" in g for g in summary.gaps)
    assert any("centralized" in g for g in summary.gaps)   # missing mode flagged


def test_summarize_constant_parallel_time():
    recs = [BenchmarkRecord(4, "parallel_admm", [0.5, 0.5], [0.5, 0.5], [2, 2]),
            BenchmarkRecord(64, "parallel_admm", [0.5, 0.5], [0.5, 0.5], [2, 2])]
    summary = summarize_bench(recs)
    assert summary.flatness_ratio == pytest.approx(1.0)


# ---------------------------------------------------------------- CLI

def test_cli_validate_ok(capsys, overtake_path):
    assert cli_main(["validate", str(overtake_path)]) == 0
    out = capsys.readouterr().out
    assert "OK: 3 vehicle(s)" in out


def test_cli_validate_broken(tmp_path, capsys):
    bad = tmp_path / "broken.scn"
    bad.write_text("global:\n  ts: 0.1\nvehicles: []\n")
    assert cli_main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "broken.scn" in err             # file context
    assert "missing required field" in err  # field-level diagnostic


def test_cli_validate_missing_file(capsys):
    assert cli_main(["validate", "/nonexistent/file.scn"]) == 2


def test_cli_validate_not_utf8(tmp_path, capsys):
    bad = tmp_path / "not-utf8.scn"
    bad.write_bytes(b"\xff\xfebad")
    assert cli_main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "not-utf8.scn" in err and "not UTF-8 text" in err
    assert "Traceback" not in err


def test_cli_validate_rejects_what_simulate_rejects(tmp_path, overtake_path, capsys):
    # a scene whose sim_duration is no multiple of ts loads, but cannot be run
    text = overtake_path.read_text()
    assert "sim_duration: 20.0" in text and "ts: 0.1" in text
    scene = tmp_path / "off_grid.scn"
    scene.write_text(text.replace("sim_duration: 20.0", "sim_duration: 1.05"))
    assert cli_main(["validate", str(scene)]) == 2
    err = capsys.readouterr().err
    assert "off_grid.scn" in err and "sim_duration" in err
    assert cli_main(["simulate", str(scene), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "trajectories.csv").exists()


def test_cli_simulate_writes_outputs(tmp_path, overtake_path):
    code = cli_main(["simulate", str(overtake_path), "--mode", "parallel_admm",
                     "--out", str(tmp_path), "--duration", "1.0"])
    assert code == 0
    assert (tmp_path / "trajectories.csv").exists()
    assert (tmp_path / "summary.json").exists()
    header = (tmp_path / "trajectories.csv").read_text().splitlines()[0]
    assert header.startswith("time,vehicle_id")


def test_cli_simulate_bad_duration(tmp_path, overtake_path, capsys):
    for duration in ("0.55", "nan", "inf", "1e400"):
        code = cli_main(["simulate", str(overtake_path), "--out", str(tmp_path),
                         "--duration", duration])
        assert code == 2
        assert "duration" in capsys.readouterr().err
    assert not (tmp_path / "trajectories.csv").exists()


def test_cli_bench_writes_tables(tmp_path, capsys):
    code = cli_main(["bench", "--sizes", "2,3", "--cycles", "2",
                     "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "flatness ratio" in out
    records = (tmp_path / "bench_records.csv").read_text().splitlines()
    assert records[0] == "n_vehicles,mode,cycle,accounted_time,wall_time,iterations"
    assert len(records) == 1 + 2 * 2 * 2
    assert (tmp_path / "bench_summary.csv").exists()


def test_cli_bench_rejects_bad_sizes(tmp_path):
    with pytest.raises(SystemExit):
        cli_main(["bench", "--sizes", "4,foo", "--out", str(tmp_path)])


def test_cli_bench_rejects_a_negative_seed(tmp_path, capsys):
    code = cli_main(["bench", "--sizes", "2", "--cycles", "1", "--seed", "-1",
                     "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err
    assert not (tmp_path / "bench_records.csv").exists()


def test_cli_bench_rejected_leaves_no_output_directory(tmp_path, capsys):
    out = tmp_path / "new_dir"
    code = cli_main(["bench", "--sizes", "2", "--cycles", "1", "--seed", "-1",
                     "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_cli_simulate_rejected_leaves_no_output_directory(tmp_path, overtake_path, capsys):
    out = tmp_path / "new_dir"
    code = cli_main(["simulate", str(overtake_path), "--duration", "0.05", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_cli_rejects_nonpositive_workers(tmp_path, overtake_path, capsys):
    # every node is solved in the calling thread: no --workers value is accepted
    for workers in ("0", "-2", "1", "4"):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["simulate", str(overtake_path), "--out", str(tmp_path),
                      "--duration", "0.1", "--workers", workers])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "trajectories.csv").exists()


def test_cli_bench_rejects_nonpositive_cycles(tmp_path, capsys):
    for cycles in ("0", "-1"):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["bench", "--sizes", "2", "--cycles", cycles, "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "--cycles" in capsys.readouterr().err
    assert not (tmp_path / "bench_records.csv").exists()
