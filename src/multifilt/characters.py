"""Character arithmetic: symmetric powers and highest-weight decomposition.

This is the independent verification route.  It never touches filtrations
or Hom solving: coordinate rings are decomposed degree by degree from raw
weight multisets, by building the symmetric powers' degree layers with the
one-term recurrence of the multiset generating function and greedily
subtracting highest weights.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, TYPE_CHECKING

from .gl2 import GROUP_FACTORS, Weight, label_factors, label_from_factors, weights_of_label

if TYPE_CHECKING:
    from .varieties import VarietySpec

WeightMultiset = dict[Weight, int]


class NegativeMultiplicity(ValueError):
    """Subtraction drove a weight multiplicity below zero: the input is not
    the character of an actual representation."""


class NotDominant(ValueError):
    """The maximal weight is not dominant: the input is not a character."""


def weight_multiset(weights: Iterable[Weight]) -> WeightMultiset:
    out: WeightMultiset = {}
    for w in weights:
        out[tuple(w)] = out.get(tuple(w), 0) + 1
    return out


def character_product(a: Mapping[Weight, int], b: Mapping[Weight, int]) -> WeightMultiset:
    """Character of a tensor product: all pairwise weight sums."""
    out: WeightMultiset = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = tuple(x + y for x, y in zip(wa, wb))
            out[w] = out.get(w, 0) + ca * cb
    return out


def sym_power_weights(w: Mapping[Weight, int], d: int) -> WeightMultiset:
    """Character of the d-th symmetric power of a module with character w.

    The symmetric algebra's character is the product, over every copy of
    every weight chi, of 1 / (1 - t x^chi) = sum_k t^k x^(k chi): the
    generating function of multisets (Stanley, Enumerative Combinatorics I,
    section 1.2).  Multiplying the degree layers 0..d by one such factor is
    the one-term recurrence layer[k] += x^chi layer[k - 1], run for k in
    increasing order so that layer k - 1 already carries the factor.
    """
    if d < 0:
        raise ValueError("symmetric-power degree must be nonnegative")
    items = sorted(w.items())
    if any(c < 1 for _, c in items):
        raise ValueError("weight multiplicities must be at least 1")
    if not items:
        if d == 0:
            return {(): 1}
        return {}
    zero = (0,) * len(items[0][0])
    layers: list[WeightMultiset] = [{zero: 1}] + [{} for _ in range(d)]
    for chi, c in items:
        for _ in range(c):
            for k in range(1, d + 1):
                layer = layers[k]
                for wt, mult in layers[k - 1].items():
                    key = tuple(x + y for x, y in zip(wt, chi))
                    layer[key] = layer.get(key, 0) + mult
    return layers[d]


def decompose(w: Mapping[Weight, int]) -> dict[object, int]:
    """Decompose a genuine character into irreducible labels by repeated
    subtraction at the lexicographically maximal weight.

    Two-component weights yield GL2 labels (n, m); four-component weights
    yield GL2 x GL2 labels ((n, m), (n', m')).  Raises NotDominant or
    NegativeMultiplicity on inputs that are not characters.
    """
    remaining = {tuple(k): v for k, v in w.items() if v != 0}
    if any(v < 0 for v in remaining.values()):
        raise NegativeMultiplicity("input has negative multiplicities")
    out: dict[object, int] = {}
    while remaining:
        top = max(remaining)
        mult = remaining[top]
        label = _label_of_highest(top)
        out[label] = out.get(label, 0) + mult
        for chi in weights_of_label(label):
            c = remaining.get(chi, 0) - mult
            if c < 0:
                raise NegativeMultiplicity(f"multiplicity of weight {chi} fell below zero")
            if c == 0:
                remaining.pop(chi, None)
            else:
                remaining[chi] = c
    return out


def _label_of_highest(top: Weight) -> object:
    if len(top) not in (2 * k for k in GROUP_FACTORS.values()):
        raise ValueError("decomposition handles 2- and 4-component weights only")
    pairs = [top[i : i + 2] for i in range(0, len(top), 2)]
    if any(a < b for a, b in pairs):
        raise NotDominant(f"maximal weight {top} is not dominant")
    return label_from_factors([(a - b, b) for a, b in pairs])


def label_weight_sum(label: object) -> int:
    """Common coordinate sum of all weights of the labeled irreducible."""
    return sum(n + 2 * m for n, m in label_factors(label))


@lru_cache(maxsize=None)
def _degree_decomposition(dual_weights: tuple[Weight, ...], d: int) -> dict[object, int]:
    return decompose(sym_power_weights(weight_multiset(dual_weights), d))


def coordinate_ring_character(spec: "VarietySpec", d: int) -> WeightMultiset:
    """Character of the degree-d part of the coordinate ring: the d-th
    symmetric power of the dual of the ambient module."""
    dual = [tuple(-c for c in w) for w in spec.x_module_weights]
    return sym_power_weights(weight_multiset(dual), d)


def oracle_degrees(spec: "VarietySpec", label: object, max_degree: int | None = None) -> range:
    """Coordinate-ring degrees that oracle_multiplicity decomposes for a label.

    When every generator weight has the same nonzero coordinate sum, a label
    can only appear in the single degree matching its own weight sum (or in
    none), so no bound is needed; a given max_degree still truncates.
    Otherwise every degree up to max_degree is scanned, which is then
    required.
    """
    return _degrees(spec, label_weight_sum(label), max_degree)


def _degrees(spec: "VarietySpec", target: int, max_degree: int | None) -> range:
    # oracle_degrees of a label whose weights sum to target
    sums = {-sum(w) for w in spec.x_module_weights}
    if len(sums) == 1 and 0 not in sums:
        s = sums.pop()
        d = target // s
        if target % s != 0 or d < 0 or (max_degree is not None and d > max_degree):
            return range(0)
        return range(d, d + 1)
    if max_degree is None:
        raise ValueError("generator weight sums do not determine the degree; pass max_degree")
    return range(max_degree + 1)


def oracle_multiplicity(spec: "VarietySpec", label: object, max_degree: int | None = None) -> int:
    """Multiplicity of a labeled irreducible in the coordinate ring, summed
    over the degrees that oracle_degrees names; exact with no bound when
    the generator weight sums determine the degree.  The label is checked
    once, by label_factors."""
    dual = tuple(sorted(tuple(-c for c in w) for w in spec.x_module_weights))
    factors = label_factors(label)
    if 2 * len(factors) != spec.rank:
        raise ValueError(f"label {label!r} does not fit torus rank {spec.rank}")
    # the key label_from_factors and the sum label_weight_sum would give,
    # without checking the factors again
    key = factors[0] if len(factors) == 1 else factors
    target = sum(n + 2 * m for n, m in factors)
    return sum(_degree_decomposition(dual, d).get(key, 0) for d in _degrees(spec, target, max_degree))
