"""Interacting particle simulation relaxing to the kinetic equilibrium.

Agents move at unit speed, steer by their curvature, and relax that
curvature toward alignment with neighbors inside a radius.  With global
coupling the empirical order parameter approaches the equilibrium value c1
and the curvature variance approaches alpha^2/lambda.
"""

from ptwa.equilibrium import ModelParams, c1_coefficient
from ptwa.particles import SimConfig, collect_stats, run_simulation

model = ModelParams(1.0, 1.0)
cfg = SimConfig(
    n_agents=800,
    box_size=10.0,
    radius=10.0,  # covers the box: mean-field coupling
    model=model,
    dt=0.01,
    seed=1,
)
print(f"global coupling: {cfg.global_coupling}")
print(f"predicted order parameter c1 = {c1_coefficient(model):.4f}")
print(f"predicted curvature variance = {model.kappa_variance:.4f}\n")

print("    t    order parameter   curvature variance")
for t, agents in run_simulation(cfg, t_final=60.0, every=1000):
    stats = collect_stats(agents)
    print(f"{t:6.1f}       {stats.order_parameter:.4f}            {stats.curvature_variance:.4f}")

# the last snapshot is taken at the final step
print(f"\nfinal order parameter   {stats.order_parameter:.4f}  (target {c1_coefficient(model):.4f})")
print(f"final curvature variance {stats.curvature_variance:.4f}  (target {model.kappa_variance:.4f})")
