"""The decomposition at work: consensus iterations versus one big QP.

Runs the overtake fleet to the middle of the pass, freezes that cycle's
convexified problems, and solves them by consensus at a sweep of stopping
tolerances next to the one-shot centralized QP.  Loose tolerances stop while
the coupling forces are only partly resolved (the receding-horizon loop
reapplies them every cycle, so the closed loop is unaffected); tightening
the tolerance drives the consensus objective onto the centralized optimum.

Takes about a minute.  Run:  python demos/consensus_vs_centralized.py
"""

import numpy as np

from fleetcoord import (AdmmConfig, admm_solve, build_centralized,
                        build_constraint_graph, convexify_cycle, fleet_objective,
                        init_admm_state, load_scenario_file, make_seed, run_simulation,
                        solve_qp)
from fleetcoord.scenario import VehicleState

scenario = load_scenario_file("scenarios/overtake.scn")
cfg = scenario.config

# drive the closed loop into the middle of the pass, then freeze one cycle
t_mid = 7.0
warmup = run_simulation(scenario, "parallel_admm", duration=t_mid)
current = {vid: VehicleState(*warmup.states[vid][-1]) for vid in warmup.vehicle_ids}
graph = build_constraint_graph(current, cfg.d_perc, cfg.d_safe)
seeds = {vid: make_seed(warmup.predicted[vid][-1], current[vid],
                        scenario.vehicle(vid), cfg.horizon_steps, cfg.ts)
         for vid in warmup.vehicle_ids}
local_problems, edge_problems = convexify_cycle(scenario, current, seeds, graph,
                                                t=t_mid)
print(f"cycle frozen at t = {t_mid:.1f} s, graph edges: {graph.edges}")

central = build_centralized(local_problems, edge_problems)
sol = solve_qp(central.qp)
j_cent = fleet_objective(local_problems, central.controls(sol.u_star))
print(f"centralized QP optimum: {j_cent:.4f} (status {sol.status})\n")

print("  eps      iterations   consensus objective   relative gap")
for eps in (1e-2, 1e-3, 1e-4):
    # every solve starts cold at the seeds' steering
    start = init_admm_state(np.array([seeds[vid].controls for vid in local_problems.ids]),
                            edge_problems, cfg.rho0, ids=local_problems.ids)
    result = admm_solve(
        local_problems, edge_problems,
        AdmmConfig(eps_abs=eps, eps_rel=eps, max_iters=5000), start)
    j_admm = fleet_objective(local_problems, result.consensus)
    gap = abs(j_admm - j_cent) / (1 + abs(j_cent))
    print(f"  {eps:.0e}   {result.report.iterations_used:10d}   "
          f"{j_admm:19.4f}   {gap:12.2e}")

print("\nboth paths consumed identical convexified data; the gap is purely "
      "the stopping tolerance")
