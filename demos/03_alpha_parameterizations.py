"""Survey the three average-cost-share parameterizations on reference costs.

average-decreasing controls the ascending mechanism's budget and social-cost
factors; average min/max-bounded control the sequential mechanism's factors.
The sqrt-max cost escapes both classes as n grows, which is exactly why it
separates the two mechanisms' comfort zones.
"""

from costshare.costs import (alpha_average_decreasing, alpha_max_bounded,
                             alpha_min_bounded, capped_reciprocal_cost,
                             decreasing_average_table, public_good_cost,
                             sqrt_max_cost, two_tier_step_cost)


def reference_costs(n: int = 3, k=6):
    """Named catalog of the built-in cost functions at the given size."""
    return {
        "decreasing-average": decreasing_average_table(),
        "two-tier-step": two_tier_step_cost(n),
        "capped-reciprocal": capped_reciprocal_cost(n, k),
        "sqrt-max": sqrt_max_cost(n),
        "public-good": public_good_cost(n, k),
    }


print(f"{'cost':<22} {'avg-decreasing':>15} {'min-bounded':>12} {'max-bounded':>12}")
for name, fn in reference_costs(n=4, k=6).items():
    reports = (alpha_average_decreasing(fn), alpha_min_bounded(fn),
               alpha_max_bounded(fn))
    cells = [str(r.alpha) if r.alpha is not None else "unbounded" for r in reports]
    print(f"{name:<22} {cells[0]:>15} {cells[1]:>12} {cells[2]:>12}")

print("\nsqrt-max cost across growing player counts:")
for n in (4, 9, 16):
    fn = sqrt_max_cost(n)
    a = alpha_average_decreasing(fn).alpha
    b = alpha_min_bounded(fn).alpha
    print(f"  n={n:>2}: avg-decreasing = {a} (~{float(a):.3f}), "
          f"min-bounded = {b} (~{float(b):.3f})")
print("both parameters grow without bound, so neither mechanism keeps a"
      " constant guarantee here")
