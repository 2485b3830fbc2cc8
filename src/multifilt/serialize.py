"""JSON encoding of the domain types.

Rationals serialize as strings "p/q", or "p" when the denominator is one.
Decoders carry a breadcrumb path so malformed payloads are reported with
the offending location.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Callable, Iterator

from .filtration import FilteredSpace, GradedVectorSpace, make_filtered
from .gl2 import GROUP_FACTORS, GroupActionData, RepData, group_label_factors, label_dim, rep_from_label
from .homspaces import FiltObject, check_object_dims
from .linalg import Mat, Subspace, check_dim
from .rees import GradedFreeModule
from .varieties import VarietySpec, custom_variety


class InputError(ValueError):
    """Malformed or semantically invalid payload, with its location."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


def rat_to_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rat_from_json(value: Any, path: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise InputError(path, f"expected a rational as integer or 'p/q' string, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(path, f"bad rational {value!r}: {exc}") from None


def _expect_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise InputError(path, f"expected a list, got {type(value).__name__}")
    return value


def _expect_object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(path, f"expected an object, got {type(value).__name__}")
    return value


def _expect_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(path, f"expected an integer, got {value!r}")
    return value


def _expect_dim(value: Any, path: str) -> int:
    dim = _expect_int(value, path)
    try:
        check_dim(dim)
    except ValueError as exc:
        raise InputError(path, str(exc)) from None
    return dim


def vector_to_json(v) -> list[str]:
    return [rat_to_str(x) for x in v]


def vector_from_json(value: Any, path: str) -> tuple[Fraction, ...]:
    return tuple(rat_from_json(x, f"{path}[{i}]") for i, x in enumerate(_expect_list(value, path)))


def matrix_from_json(value: Any, path: str) -> Mat:
    rows = [vector_from_json(r, f"{path}[{i}]") for i, r in enumerate(_expect_list(value, path))]
    if not rows:
        raise InputError(path, "matrix needs at least one row")
    if len({len(r) for r in rows}) != 1:
        raise InputError(path, "matrix rows have unequal lengths")
    return Mat.from_rows(rows)


def _int_rows(value: Any, path: str) -> tuple[tuple[int, ...], ...]:
    """A JSON list of integer rows; an entry's fault is reported at its row."""
    return tuple(
        tuple(_expect_int(c, f"{path}[{i}]") for c in _expect_list(row, f"{path}[{i}]"))
        for i, row in enumerate(_expect_list(value, path))
    )


def _matrices(value: Any, path: str) -> tuple[Mat, ...]:
    return tuple(matrix_from_json(m, f"{path}[{i}]") for i, m in enumerate(_expect_list(value, path)))


def filtered_space_to_json(fs: FilteredSpace) -> dict:
    return {"dim": fs.dim, "steps": [_step_to_json(idx, sub) for idx, sub in fs.steps]}


def _step_to_json(idx: int, sub: Subspace) -> dict:
    return {"index": idx, "basis": [vector_to_json(v) for v in sub.basis]}


def filtered_space_chunks(fs: FilteredSpace) -> Iterator[str]:
    """The text of dumps(filtered_space_to_json(fs)) in pieces, one step
    after the opening one: joined, they are that text, and only one step
    is encoded at a time, so a caller writing each piece as it comes holds
    one step's JSON rather than the whole flag's."""
    yield f'{{"dim": {fs.dim}, "steps": ['
    for k, (idx, sub) in enumerate(fs.steps):
        yield (", " if k else "") + dumps(_step_to_json(idx, sub))
    yield "]}"


def filtered_space_from_json(value: Any, path: str = "$") -> FilteredSpace:
    obj = _expect_object(value, path)
    dim = _expect_dim(obj.get("dim"), f"{path}.dim")
    steps = {}
    for i, step in enumerate(_expect_list(obj.get("steps", []), f"{path}.steps")):
        sp = f"{path}.steps[{i}]"
        step = _expect_object(step, sp)
        idx = _expect_int(step.get("index"), f"{sp}.index")
        if idx in steps:
            raise InputError(f"{sp}.index", f"step index {idx} is repeated")
        basis = [vector_from_json(v, f"{sp}.basis[{j}]") for j, v in enumerate(_expect_list(step.get("basis"), f"{sp}.basis"))]
        try:
            steps[idx] = Subspace.span(dim, basis)
        except ValueError as exc:
            raise InputError(f"{sp}.basis", str(exc)) from None
    try:
        return make_filtered(dim, steps)
    except ValueError as exc:
        raise InputError(path, str(exc)) from None


def graded_module_to_json(m: GradedFreeModule) -> dict:
    return {
        "ambient_dim": m.ambient_dim,
        "generators": [{"vector": vector_to_json(v), "degree": d} for v, d in m.generators],
    }


def graded_module_from_json(value: Any, path: str = "$") -> GradedFreeModule:
    obj = _expect_object(value, path)
    ambient = _expect_dim(obj.get("ambient_dim"), f"{path}.ambient_dim")
    gens = []
    for i, gen in enumerate(_expect_list(obj.get("generators", []), f"{path}.generators")):
        gp = f"{path}.generators[{i}]"
        gen = _expect_object(gen, gp)
        v = vector_from_json(gen.get("vector"), f"{gp}.vector")
        if len(v) != ambient:
            raise InputError(f"{gp}.vector", f"length {len(v)} does not match ambient_dim {ambient}")
        gens.append((v, _expect_int(gen.get("degree"), f"{gp}.degree")))
    return GradedFreeModule(ambient, tuple(gens))


def graded_space_to_json(g: GradedVectorSpace) -> dict:
    return {str(n): d for n, d in g.pieces}


def _rep_reader(value: Any, path: str) -> tuple[int, Callable[[], RepData]]:
    """The dimension of a representation payload and a function that builds
    the representation, after every check: a labeled representation is
    built only when that function runs."""
    obj = _expect_object(value, path)
    if "group" in obj:
        group, label = obj["group"], obj.get("label")
        # list membership compares by equality, so an unhashable JSON value is
        # reported rather than raising TypeError
        if group not in list(GROUP_FACTORS):
            raise InputError(f"{path}.group", f"unknown group {group!r}")
        try:
            group_label_factors(group, label)
        except ValueError as exc:
            raise InputError(f"{path}.label", str(exc)) from None
        return label_dim(label), lambda: rep_from_label(group, label)
    dim = _expect_dim(obj.get("dim"), f"{path}.dim")
    weights = _int_rows(obj.get("weights"), f"{path}.weights")
    ops = _matrices(obj.get("ops", []), f"{path}.ops")
    try:
        rep = RepData(dim, weights, ops)
    except ValueError as exc:
        raise InputError(path, str(exc)) from None
    return dim, lambda: rep


def group_action_from_json(value: Any, path: str = "$") -> GroupActionData:
    obj = _expect_object(value, path)
    dim = _expect_dim(obj.get("dim"), f"{path}.dim")
    mats = _matrices(obj.get("intertwiner_constraints", []), f"{path}.intertwiner_constraints")
    try:
        return GroupActionData(dim, mats)
    except ValueError as exc:
        raise InputError(path, str(exc)) from None


def filt_object_reader(value: Any, path: str = "$") -> tuple[int, Callable[[], FiltObject]]:
    """The dimension of an object payload and a function that builds the
    object.  Every fault of the payload is raised here, but a labeled
    representation is built only when that function runs, so a caller can
    bound the dimension first: a label costs a few bytes of JSON and its
    representation can be arbitrarily large."""
    obj = _expect_object(value, path)
    dim, build_rep = _rep_reader(obj.get("rep"), f"{path}.rep")
    action = group_action_from_json(obj.get("h_action"), f"{path}.h_action")
    filts = tuple(
        filtered_space_from_json(f, f"{path}.filtrations[{i}]")
        for i, f in enumerate(_expect_list(obj.get("filtrations", []), f"{path}.filtrations"))
    )
    try:
        check_object_dims(dim, action, filts)
    except ValueError as exc:
        raise InputError(path, str(exc)) from None
    return dim, lambda: FiltObject(build_rep(), action, filts)


def custom_variety_from_json(value: Any, path: str = "$") -> VarietySpec:
    obj = _expect_object(value, path)
    rank_ = _expect_int(obj.get("group_rank"), f"{path}.group_rank")
    cochars = _int_rows(obj.get("cocharacters", []), f"{path}.cocharacters")
    weights = _int_rows(obj.get("x_module_weights", []), f"{path}.x_module_weights")
    ops_table = {
        key: _matrices(mats, f"{path}.stabilizer_ops[{key!r}]")
        for key, mats in _expect_object(obj.get("stabilizer_ops", {}), f"{path}.stabilizer_ops").items()
    }
    group = obj.get("group", "generic")
    if group not in ["generic", *GROUP_FACTORS]:
        raise InputError(f"{path}.group", f"unknown group {group!r}")
    try:
        return custom_variety(rank_, cochars, weights, ops_table, group=group)
    except ValueError as exc:
        raise InputError(path, str(exc)) from None


def dumps(payload: object) -> str:
    """Deterministic compact rendering used by all CLI output."""
    return json.dumps(payload, separators=(", ", ": "), sort_keys=False)
