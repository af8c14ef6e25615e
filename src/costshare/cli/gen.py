"""Seeded instance generators behind the ``gen`` subcommand.

A generator reads its parameters and returns a builder; the builder's
randomness flows through one ``random.Random(seed)``, so a (kind, params,
seed) triple always produces a byte-identical instance file.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from operator import or_

from ..core import (GroundSetTooLargeError, Instance, SeparableCosts, SetFunction, mask_of,
                    require)
from ..costs import (capped_reciprocal_cost, decreasing_average_table,
                     matching_cost, set_cover_cost, sqrt_max_cost,
                     symmetric_submodular_cost, vertex_cover_cost)
from ..valuations import SymmetricSubmodularValuation, TableValuation, draw_marginals

DEFAULT_GRID = "0,1/2,1,3/2,2,5/2,3,7/2,4"
# the bound of a count that sizes no dense table; v = 512 lists 130,816 vertex pairs
MAX_COUNT = 512


class GenParamError(ValueError):
    pass


class _Params(dict):
    """Generator parameters that remember each key asked for and the first count too large."""

    def __init__(self, params):
        super().__init__(params)
        self.asked: set = set()
        self.too_large: str | None = None

    def __contains__(self, key) -> bool:
        self.asked.add(key)
        return super().__contains__(key)


def _text(params: dict, key: str, default=None) -> str:
    """A parameter as text: a string, or a non-bool int written out. Every
    generator reads its parameters through here."""
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


def _int_param(params: dict, key: str, default=None, least: int = 1) -> int:
    """A count: an integer parameter, refused below ``least``."""
    text = _text(params, key, default)
    try:
        val = int(text)
    except ValueError:
        raise GenParamError(f"parameter {key} must be an integer")
    if val < least:
        raise GenParamError(f"parameter {key} must be at least {least}, got {val}")
    return val


def _count(params: _Params, key: str, default=None, least: int = 1,
           dense: bool = False) -> int:
    """A generator's count, ``_int_param``. One past the ``dense`` limit, if
    it sizes a dense table, or else past ``MAX_COUNT``, is kept in
    ``too_large``; ``generate`` refuses it once every parameter is read."""
    val = _int_param(params, key, default, least)
    refusal = None
    if dense:
        try:
            require("dense", val)
        except GroundSetTooLargeError as exc:
            refusal = f"parameter {key}: {exc}"
    elif val > MAX_COUNT:
        refusal = f"parameter {key}: must be at most {MAX_COUNT}, got {val}"
    params.too_large = params.too_large or refusal
    return val


def _rat_param(params: dict, key: str, default=None) -> Fraction:
    text = _text(params, key, default)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise GenParamError(f"parameter {key} must be a rational p/q")


def _choice(params: dict, key: str, choices: tuple[str, ...]) -> str:
    """A parameter that names one of ``choices``; the first is the default."""
    val = _text(params, key, choices[0])
    if val not in choices:
        raise GenParamError(f"parameter {key} must be one of {', '.join(choices)}, got {val!r}")
    return val


def _single_item(cost_of, grid):
    """The builder of the one-item instance of the cost ``cost_of(rng)``: one
    value from ``grid`` per player, drawn after whatever the cost drew."""
    def build(rng: random.Random) -> Instance:
        cost = cost_of(rng)
        vals = tuple(TableValuation.from_values([Fraction(0), rng.choice(grid)])
                     for _ in range(cost.ground_size))
        return Instance(valuations=vals, cost_model=SeparableCosts((cost,)), m=1)
    return build


def gen_random_symmetric(params: dict):
    n = _count(params, "n", dense=True)
    m = _count(params, "m", dense=True)
    vgrid = _grid(params, "vgrid")
    cgrid = _grid(params, "cgrid", default="0,1/2,1,3/2,2,3")

    def build(rng: random.Random) -> Instance:
        vals = tuple(SymmetricSubmodularValuation(draw_marginals(rng, m, vgrid))
                     for _ in range(n))
        costs = tuple(symmetric_submodular_cost(n, draw_marginals(rng, n, cgrid))
                      for _ in range(m))
        return Instance(valuations=vals, cost_model=SeparableCosts(costs), m=m)
    return build


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


def gen_vertex_cover(params: dict):
    vgrid = _grid(params, "vgrid")
    if _choice(params, "shape", ("random", "star")) == "star":
        k = _count(params, "k", 3)
        return _single_item(lambda rng: vertex_cover_cost([(0, i + 1) for i in range(k)]), vgrid)
    vertices = _count(params, "v", 6)
    k = _count(params, "k", 3)
    e = _count(params, "e", 6)
    return _single_item(lambda rng: vertex_cover_cost(
        _grow_graph(rng, vertices, e, k, bipartite=False)), vgrid)


def gen_matching(params: dict):
    vgrid = _grid(params, "vgrid")
    vertices = _count(params, "v", 6)
    k = _count(params, "k", 3)
    e = _count(params, "e", 6)
    bipartite = _choice(params, "shape", ("bipartite", "general")) == "bipartite"
    return _single_item(lambda rng: matching_cost(
        _grow_graph(rng, vertices, e, k, bipartite=bipartite)), vgrid)


def gen_set_cover(params: dict):
    vgrid = _grid(params, "vgrid")
    n = _count(params, "n", 6)
    sets = _count(params, "s", 5, least=0)
    d = _count(params, "d", 3)

    def cover(rng: random.Random) -> SetFunction:
        family = [mask_of(rng.sample(range(n), min(rng.randint(1, d), n))) for _ in range(sets)]
        covered = reduce(or_, family, 0)
        return set_cover_cost(n, family + [1 << e for e in range(n) if not (covered >> e) & 1])
    return _single_item(cover, vgrid)


def gen_paper_tight(params: _Params):
    n = _count(params, "n", 3, dense=True)
    k = _rat_param(params, "k", 6)
    eps = _rat_param(params, "eps", "1/10")
    # a refused n is named first: the bound on eps is read from it
    if params.too_large is None and (eps <= 0 or eps >= k / n):
        raise GenParamError("eps must satisfy 0 < eps < k/n")
    return lambda rng: Instance(
        valuations=tuple(SymmetricSubmodularValuation((k / (i + 1) - eps,)) for i in range(n)),
        cost_model=SeparableCosts((capped_reciprocal_cost(n, k),)), m=1)


def gen_paper_intersection(params: dict):
    n = _count(params, "n", 4, dense=True)
    return _single_item(lambda rng: sqrt_max_cost(n), _grid(params, "vgrid"))


def gen_paper_subadditivity(params: dict):
    return _single_item(lambda rng: decreasing_average_table(), _grid(params, "vgrid"))


_GENERATORS = {
    "random-symmetric": gen_random_symmetric,
    "vertex-cover": gen_vertex_cover,
    "set-cover": gen_set_cover,
    "matching": gen_matching,
    "paper-tight": gen_paper_tight,
    "paper-intersection": gen_paper_intersection,
    "paper-subadditivity": gen_paper_subadditivity,
}
GEN_KINDS = tuple(_GENERATORS)


def generate(kind: str, params: dict, seed: int) -> Instance:
    """The instance of ``kind`` at ``seed``. Every parameter is read and
    checked, and an unread one refused, before anything is built."""
    if kind not in _GENERATORS:
        raise GenParamError(f"unknown generator kind {kind!r}; "
                            f"choose from {', '.join(GEN_KINDS)}")
    tracked = _Params(params)
    build = _GENERATORS[kind](tracked)
    unused = sorted(set(params) - tracked.asked)
    if unused:
        raise GenParamError(f"{kind} does not use parameter {unused[0]!r}; "
                            f"it reads {', '.join(sorted(tracked.asked))}")
    if tracked.too_large is not None:
        raise GenParamError(tracked.too_large)
    try:
        return build(random.Random(seed))
    except GenParamError:
        raise
    except ValueError as exc:
        # parameters that parse but describe no instance, e.g. n=0
        raise GenParamError(f"bad parameters for {kind}: {exc}") from exc
