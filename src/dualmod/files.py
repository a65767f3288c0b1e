"""The JSON instance file: reading and writing an instance and its specs."""

from __future__ import annotations

from .errors import SchemaError
from .instance import DualModularInstance, GroundSet
from .kinds import ComplementOf, ConcaveOfCardinality, EdgesInside, ExplicitTable, Linear, Perturbed, Scaled, SetFunctionSpec
from .rational import parse_rational


# ---------------------------------------------------------------------------
# JSON instance files
# ---------------------------------------------------------------------------


_SPEC_KINDS = {
    "explicit_table",
    "edges_inside",
    "linear",
    "concave_of_cardinality",
    "scaled",
    "perturbed",
    "complement_of",
}


def spec_from_json(obj, ground: GroundSet, field_name: str) -> SetFunctionSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError(field_name, "spec must be an object with a 'kind' tag")
    kind = obj["kind"]
    n = ground.n
    if kind == "explicit_table":
        raw = obj.get("values")
        if not isinstance(raw, dict):
            raise SchemaError(f"{field_name}.values", "expected a mask -> rational object")
        size = 1 << n
        if len(raw) != size:
            raise SchemaError(f"{field_name}.values", f"expected {size} entries, got {len(raw)}")
        values = [None] * size
        for key, v in raw.items():
            try:
                m = int(key)
            except ValueError:
                raise SchemaError(f"{field_name}.values", f"non-integer mask key {key!r}") from None
            if not 0 <= m < size:
                raise SchemaError(f"{field_name}.values", f"mask key {m} out of range")
            if values[m] is not None:
                raise SchemaError(f"{field_name}.values", f"mask {m} given twice (key {key!r})")
            values[m] = parse_rational(v, f"{field_name}.values[{key}]")
        make, args = ExplicitTable, (tuple(values),)
    elif kind == "edges_inside":
        raw = obj.get("edges", [])
        if not isinstance(raw, list):
            raise SchemaError(f"{field_name}.edges", "expected a list of [u, v, weight]")
        edges = []
        for i, e in enumerate(raw):
            if not isinstance(e, (list, tuple)) or len(e) != 3:
                raise SchemaError(f"{field_name}.edges[{i}]", "expected [u, v, weight]")
            try:
                u, v = ground.element(e[0]), ground.element(e[1])
            except SchemaError as exc:
                raise SchemaError(f"{field_name}.edges[{i}]", exc.message) from None
            edges.append((u, v, parse_rational(e[2], f"{field_name}.edges[{i}]")))
        make, args = EdgesInside, (tuple(edges),)
    elif kind == "linear":
        weights = obj.get("weights")
        if not isinstance(weights, list) or len(weights) != n:
            raise SchemaError(f"{field_name}.weights", f"expected {n} weights")
        make, args = Linear, (tuple(parse_rational(w, f"{field_name}.weights[{i}]") for i, w in enumerate(weights)),)
    elif kind == "concave_of_cardinality":
        phi = obj.get("phi")
        if not isinstance(phi, list) or len(phi) != n + 1:
            raise SchemaError(f"{field_name}.phi", f"expected {n + 1} values phi(0..n)")
        make, args = ConcaveOfCardinality, (tuple(parse_rational(v, f"{field_name}.phi[{i}]") for i, v in enumerate(phi)),)
    elif kind == "scaled":
        base = spec_from_json(obj.get("base"), ground, f"{field_name}.base")
        make, args = Scaled, (base, parse_rational(obj.get("factor"), f"{field_name}.factor"))
    elif kind == "perturbed":
        base = spec_from_json(obj.get("base"), ground, f"{field_name}.base")
        make, args = Perturbed, (base, parse_rational(obj.get("eta"), f"{field_name}.eta"))
    elif kind == "complement_of":
        make, args = ComplementOf, (spec_from_json(obj.get("base"), ground, f"{field_name}.base"), n)
    else:
        raise SchemaError(f"{field_name}.kind", f"unknown spec kind {kind!r} (expected one of {sorted(_SPEC_KINDS)})")
    # the constructor's checks name its own field; put it under this spec's path
    try:
        return make(*args)
    except SchemaError as exc:
        raise SchemaError(f"{field_name}.{exc.field}", exc.message) from None


def instance_from_json(obj: dict) -> DualModularInstance:
    if not isinstance(obj, dict):
        raise SchemaError("instance", "top level must be an object")
    labels = obj.get("labels")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise SchemaError("labels", "expected a list of strings")
    ground = GroundSet(tuple(labels))
    if "f" not in obj:
        raise SchemaError("f", "missing reward spec")
    if "g" not in obj:
        raise SchemaError("g", "missing cost spec")
    f = spec_from_json(obj["f"], ground, "f")
    g = spec_from_json(obj["g"], ground, "g")
    normalized = obj.get("normalized", False)
    if not isinstance(normalized, bool):
        raise SchemaError("normalized", "expected a boolean")
    return DualModularInstance(ground=ground, f=f, g=g, normalized=normalized)


def instance_to_json(inst: DualModularInstance) -> dict:
    return {
        "labels": list(inst.ground.labels),
        "f": inst.f.to_json(inst.n),
        "g": inst.g.to_json(inst.n),
        "normalized": inst.normalized,
    }


def load_instance(path) -> DualModularInstance:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return instance_from_json(json.load(fh))
        except json.JSONDecodeError as exc:
            raise SchemaError("instance", f"invalid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise SchemaError("instance", f"not UTF-8 text: {exc}") from None
        except RecursionError:
            raise SchemaError("instance", "nested too deeply to read") from None
