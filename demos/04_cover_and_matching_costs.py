"""Combinatorial cost sharing: set cover, vertex cover and matching.

Players are universe elements or graph edges; serving a set of players costs
an exact optimum of the underlying problem. The max-bounded parameter of each
cost is at most a structural constant (max set size, max degree), which is
also the sequential mechanism's social-cost factor on these instances.
"""

from costshare import evaluate_run
from costshare.costs import (alpha_max_bounded, matching_cost, set_cover_cost,
                             vertex_cover_cost)
from costshare.cli.gen import generate

print("set cover: universe {0..5}, family of small sets")
sc = set_cover_cost(6, [0b000111, 0b011000, 0b100100, 0b110000])
print("  c(cover everyone) =", sc(0b111111))
print("  max set size = 3, max-bounded parameter =", alpha_max_bounded(sc).alpha)

print("\nvertex cover on a 3-arm star (edges are the players)")
vc = vertex_cover_cost([(0, 1), (0, 2), (0, 3)])
print("  c(all edges) =", vc(0b111), " (the hub covers everything)")
print("  max degree = 3, max-bounded parameter =", alpha_max_bounded(vc).alpha)

print("\nmatching on a triangle plus a pendant edge (odd cycle: subset recurrence)")
mc = matching_cost([(0, 1), (1, 2), (0, 2), (2, 3)])
print("  c(triangle) =", mc(0b0111), ", c(all four) =", mc(0b1111))
print("  max-bounded parameter =", alpha_max_bounded(mc).alpha)

print("\nsequential mechanism on seeded single-item cover instances:")
for kind, params in (("set-cover", {"n": "8", "s": "5", "d": "4"}),
                     ("vertex-cover", {"v": "7", "k": "4", "e": "9"}),
                     ("matching", {"shape": "general", "v": "7", "k": "3", "e": "8"})):
    inst = generate(kind, params, 7)
    fn = inst.cost_model.items[0]
    report = evaluate_run(inst, "sm")
    print(f"  {kind:<13} budget ratio {report.budget_ratio}, "
          f"approx ratio {report.approx_ratio} "
          f"(guarantee {alpha_max_bounded(fn).alpha})")
