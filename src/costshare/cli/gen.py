"""Seeded instance generators behind the ``gen`` subcommand.

All randomness flows through one ``random.Random(seed)``, so a (kind,
params, seed) triple always produces a byte-identical instance file.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ..core import Instance, SeparableCosts, mask_of
from ..costs import (capped_reciprocal_cost, decreasing_average_table,
                     matching_cost, set_cover_cost, sqrt_max_cost,
                     symmetric_submodular_cost, vertex_cover_cost)
from ..valuations import SymmetricSubmodularValuation, TableValuation

DEFAULT_GRID = "0,1/2,1,3/2,2,5/2,3,7/2,4"

GEN_KINDS = ("random-symmetric", "vertex-cover", "set-cover", "matching",
             "paper-tight", "paper-intersection", "paper-subadditivity")


class GenParamError(ValueError):
    pass


def _text(params: dict, key: str, default=None) -> str:
    """A parameter as text: a string, or a non-bool int written out."""
    if key not in params:
        if default is None:
            raise GenParamError(f"missing required parameter {key}")
        return str(default)
    val = params[key]
    if isinstance(val, bool) or not isinstance(val, (str, int)):
        raise GenParamError(f"parameter {key} must be a string or an integer, got {val!r}")
    return str(val)


def _grid(params: dict, key: str, default: str = DEFAULT_GRID) -> list[Fraction]:
    toks = _text(params, key, default).split(",")
    try:
        vals = [Fraction(t) for t in toks]
    except (ValueError, ZeroDivisionError) as exc:
        raise GenParamError(f"bad {key} grid: {exc}")
    if not vals or any(v < 0 for v in vals):
        raise GenParamError(f"{key} grid must be non-empty and non-negative")
    return vals


def _int_param(params: dict, key: str, default=None) -> int:
    text = _text(params, key, default)
    try:
        return int(text)
    except ValueError:
        raise GenParamError(f"parameter {key} must be an integer")


def _rat_param(params: dict, key: str, default=None) -> Fraction:
    text = _text(params, key, default)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise GenParamError(f"parameter {key} must be a rational p/q")


def _symmetric_marginals(rng: random.Random, count: int, grid) -> tuple:
    return tuple(sorted((rng.choice(grid) for _ in range(count)), reverse=True))


def _single_item_valuations(rng: random.Random, n: int, grid) -> tuple:
    return tuple(TableValuation.from_values([Fraction(0), rng.choice(grid)])
                 for _ in range(n))


def gen_random_symmetric(params: dict, seed: int) -> Instance:
    rng = random.Random(seed)
    n = _int_param(params, "n")
    m = _int_param(params, "m")
    vgrid = _grid(params, "vgrid")
    cgrid = _grid(params, "cgrid", default="0,1/2,1,3/2,2,3")
    vals = tuple(SymmetricSubmodularValuation(_symmetric_marginals(rng, m, vgrid))
                 for _ in range(n))
    costs = tuple(symmetric_submodular_cost(n, _symmetric_marginals(rng, n, cgrid))
                  for _ in range(m))
    return Instance(valuations=vals, cost_model=SeparableCosts(costs), m=m)


def _grow_graph(rng: random.Random, vertices: int, edges: int, degree_cap: int,
                bipartite: bool) -> list[tuple[int, int]]:
    if bipartite:
        side = [i % 2 for i in range(vertices)]
        rng.shuffle(side)
    else:
        side = None
    candidates = [(u, v) for u in range(vertices) for v in range(u + 1, vertices)
                  if not bipartite or side[u] != side[v]]
    rng.shuffle(candidates)
    degree = [0] * vertices
    out = []
    for u, v in candidates:
        if len(out) == edges:
            break
        if degree[u] < degree_cap and degree[v] < degree_cap:
            out.append((u, v))
            degree[u] += 1
            degree[v] += 1
    if not out:
        raise GenParamError("graph generation produced no edges; relax the parameters")
    return out


def gen_vertex_cover(params: dict, seed: int) -> Instance:
    rng = random.Random(seed)
    vgrid = _grid(params, "vgrid")
    if params.get("shape", "random") == "star":
        k = _int_param(params, "k", 3)
        edges = [(0, i + 1) for i in range(k)]
    else:
        vertices = _int_param(params, "v", 6)
        k = _int_param(params, "k", 3)
        e = _int_param(params, "e", 6)
        edges = _grow_graph(rng, vertices, e, k, bipartite=False)
    cost = vertex_cover_cost(edges)
    n = cost.ground_size
    return Instance(valuations=_single_item_valuations(rng, n, vgrid),
                    cost_model=SeparableCosts((cost,)), m=1)


def gen_matching(params: dict, seed: int) -> Instance:
    rng = random.Random(seed)
    vgrid = _grid(params, "vgrid")
    vertices = _int_param(params, "v", 6)
    k = _int_param(params, "k", 3)
    e = _int_param(params, "e", 6)
    bipartite = params.get("shape", "bipartite") == "bipartite"
    edges = _grow_graph(rng, vertices, e, k, bipartite=bipartite)
    cost = matching_cost(edges)
    n = cost.ground_size
    return Instance(valuations=_single_item_valuations(rng, n, vgrid),
                    cost_model=SeparableCosts((cost,)), m=1)


def gen_set_cover(params: dict, seed: int) -> Instance:
    rng = random.Random(seed)
    vgrid = _grid(params, "vgrid")
    n = _int_param(params, "n", 6)
    sets = _int_param(params, "s", 5)
    d = _int_param(params, "d", 3)
    family = []
    for _ in range(sets):
        size = rng.randint(1, d)
        family.append(mask_of(rng.sample(range(n), min(size, n))))
    covered = 0
    for s in family:
        covered |= s
    for e in range(n):
        if not (covered >> e) & 1:
            family.append(1 << e)
    cost = set_cover_cost(n, family)
    return Instance(valuations=_single_item_valuations(rng, n, vgrid),
                    cost_model=SeparableCosts((cost,)), m=1)


def gen_paper_tight(params: dict, seed: int) -> Instance:
    n = _int_param(params, "n", 3)
    k = _rat_param(params, "k", 6)
    eps = _rat_param(params, "eps", "1/10")
    if n < 1:
        raise GenParamError("n must be at least 1")
    if eps <= 0 or eps >= k / n:
        raise GenParamError("eps must satisfy 0 < eps < k/n")
    vals = tuple(SymmetricSubmodularValuation((k / (i + 1) - eps,)) for i in range(n))
    return Instance(valuations=vals,
                    cost_model=SeparableCosts((capped_reciprocal_cost(n, k),)), m=1)


def gen_paper_intersection(params: dict, seed: int) -> Instance:
    rng = random.Random(seed)
    n = _int_param(params, "n", 4)
    vgrid = _grid(params, "vgrid")
    return Instance(valuations=_single_item_valuations(rng, n, vgrid),
                    cost_model=SeparableCosts((sqrt_max_cost(n),)), m=1)


def gen_paper_subadditivity(params: dict, seed: int) -> Instance:
    rng = random.Random(seed)
    vgrid = _grid(params, "vgrid")
    cost = decreasing_average_table()
    return Instance(valuations=_single_item_valuations(rng, 3, vgrid),
                    cost_model=SeparableCosts((cost,)), m=1)


_GENERATORS = {
    "random-symmetric": gen_random_symmetric,
    "vertex-cover": gen_vertex_cover,
    "set-cover": gen_set_cover,
    "matching": gen_matching,
    "paper-tight": gen_paper_tight,
    "paper-intersection": gen_paper_intersection,
    "paper-subadditivity": gen_paper_subadditivity,
}


def generate(kind: str, params: dict, seed: int) -> Instance:
    if kind not in _GENERATORS:
        raise GenParamError(f"unknown generator kind {kind!r}; "
                            f"choose from {', '.join(GEN_KINDS)}")
    try:
        return _GENERATORS[kind](dict(params), seed)
    except GenParamError:
        raise
    except ValueError as exc:
        # parameters that parse but describe no instance, e.g. n=0
        raise GenParamError(f"bad parameters for {kind}: {exc}") from exc
