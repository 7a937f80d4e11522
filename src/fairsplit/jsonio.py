"""JSON codecs for instances, splits, and reports.

The wire format is plain on purpose: instances are objects with a
"kind" tag, rationals travel as {"num": p, "den": q} so exactness
survives serialization, and every structure emitted here re-parses
into an object the matching verifier accepts.  All malformed input is
reported as SchemaError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping

from .errors import SchemaError
from .necklace import ContinuousSplitting, DiscreteSplitting, Necklace
from .paths import ColoredPath, CycleSplit, PairSplit, StableSplit, check_coloring

KINDS = ("path", "cycle", "necklace")


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def _as_int(value: Any, where: str) -> int:
    # bool is an int subclass; JSON true/false must not pass as numbers
    _need(isinstance(value, int) and not isinstance(value, bool), f"{where} must be an integer")
    return value


def _as_int_list(value: Any, where: str) -> list[int]:
    _need(isinstance(value, list), f"{where} must be an array")
    # the check of a valid list builds no message; the loop runs only to
    # name the first bad element (bool fails type(v) is int, as it should)
    if all(type(v) is int for v in value):
        return list(value)
    return [_as_int(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _as_mapping(value: Any, where: str) -> Mapping[str, Any]:
    _need(isinstance(value, Mapping), f"{where} must be an object")
    return value


@dataclass(frozen=True)
class Instance:
    """A parsed problem instance: a colored path, cycle, or necklace."""

    kind: str
    colors: tuple[int, ...]
    q: int | None = None
    advantages: dict[int, tuple[int, ...]] | None = None

    def path(self) -> ColoredPath:
        return ColoredPath(self.colors)

    def necklace(self, q: int | None = None) -> Necklace:
        eff = self.q if q is None else q
        _need(eff is not None, "necklace instances need q (in the file or via --q)")
        return Necklace(self.colors, eff)


def load_instance(obj: Any) -> Instance:
    """Validate a decoded JSON value as an instance."""
    top = _as_mapping(obj, "instance")
    unknown = set(top) - {"kind", "colors", "q", "advantages"}
    _need(not unknown, f"unknown instance fields: {sorted(unknown)}")
    kind = top.get("kind")
    _need(kind in KINDS, f"kind must be one of {list(KINDS)}")

    colors = _as_int_list(top.get("colors"), "colors")
    check_coloring(colors)

    q = None
    if "q" in top:
        q = _as_int(top["q"], "q")
        _need(q >= 2, "q must be at least 2")

    advantages = None
    if "advantages" in top:
        _need(kind == "necklace", "advantages apply only to necklace instances")
        advantages = {
            j: tuple(_as_int_list(val, f"advantages[{j}]"))
            for j, val in _color_map_from_json(top["advantages"], "advantages").items()
        }

    return Instance(kind=kind, colors=tuple(colors), q=q, advantages=advantages)


def loads_instance(text: str) -> Instance:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"input is not valid JSON: {exc}") from None
    except ValueError as exc:
        # an integer literal past the interpreter's int-digit limit
        raise SchemaError(f"input holds a number too long to read: {exc}") from None
    except RecursionError:
        raise SchemaError("input nests arrays or objects too deeply") from None
    return load_instance(obj)


def instance_to_json(inst: Instance) -> dict[str, Any]:
    out: dict[str, Any] = {"kind": inst.kind, "colors": list(inst.colors)}
    if inst.q is not None:
        out["q"] = inst.q
    if inst.advantages is not None:
        out["advantages"] = {str(j): list(ts) for j, ts in sorted(inst.advantages.items())}
    return out


def fraction_to_json(x: Fraction | int) -> dict[str, int]:
    f = Fraction(x)
    return {"num": f.numerator, "den": f.denominator}


def fraction_from_json(obj: Any) -> Fraction:
    top = _as_mapping(obj, "rational")
    _need(set(top) == {"num", "den"}, 'rationals are {"num": p, "den": q} objects')
    num = _as_int(top["num"], "num")
    den = _as_int(top["den"], "den")
    _need(den >= 1, "rational denominators must be positive")
    return Fraction(num, den)


def _color_map_from_json(obj: Any, where: str) -> dict[int, Any]:
    out: dict[int, Any] = {}
    for key, val in _as_mapping(obj, where).items():
        try:
            j = int(key)
        except (TypeError, ValueError):
            raise SchemaError(f"{where} key {key!r} is not a color index") from None
        _need(j not in out, f"duplicate {where} key for color {j}")
        out[j] = val
    return out


def pair_split_to_json(split: PairSplit) -> dict[str, Any]:
    return {
        "removed": {str(j): v for j, v in sorted(split.removed.items())},
        "s1": sorted(split.s1),
        "s2": sorted(split.s2),
    }


def pair_split_from_json(obj: Any) -> PairSplit:
    top = _as_mapping(obj, "pair split")
    removed = {
        j: _as_int(v, f"removed[{j}]")
        for j, v in _color_map_from_json(top.get("removed"), "removed").items()
    }
    return PairSplit(
        removed=removed,
        s1=frozenset(_as_int_list(top.get("s1"), "s1")),
        s2=frozenset(_as_int_list(top.get("s2"), "s2")),
    )


def stable_split_to_json(split: StableSplit) -> dict[str, Any]:
    return {
        "q": split.q,
        "removed": {str(j): sorted(vs) for j, vs in sorted(split.removed.items())},
        "classes": [sorted(c) for c in split.classes],
    }


def stable_split_from_json(obj: Any) -> StableSplit:
    top = _as_mapping(obj, "stable split")
    q = _as_int(top.get("q"), "q")
    removed = {
        j: frozenset(_as_int_list(vs, f"removed[{j}]"))
        for j, vs in _color_map_from_json(top.get("removed"), "removed").items()
    }
    raw_classes = top.get("classes")
    _need(isinstance(raw_classes, list), "classes must be an array")
    classes = tuple(
        frozenset(_as_int_list(c, f"classes[{i}]")) for i, c in enumerate(raw_classes)
    )
    return StableSplit(q=q, removed=removed, classes=classes)


def cycle_split_to_json(split: CycleSplit) -> dict[str, Any]:
    return {
        "split": pair_split_to_json(split.split),
        "induced_edges": list(split.induced_edges),
        "max_extra_edges": split.max_extra_edges,
    }


def cycle_split_from_json(obj: Any) -> CycleSplit:
    top = _as_mapping(obj, "cycle split")
    induced = _as_int_list(top.get("induced_edges"), "induced_edges")
    _need(len(induced) == 2, "induced_edges must have two entries")
    return CycleSplit(
        split=pair_split_from_json(top.get("split")),
        induced_edges=tuple(induced),
        max_extra_edges=_as_int(top.get("max_extra_edges"), "max_extra_edges"),
    )


def discrete_splitting_to_json(split: DiscreteSplitting) -> dict[str, Any]:
    return {"owner": list(split.owner)}


def discrete_splitting_from_json(obj: Any) -> DiscreteSplitting:
    top = _as_mapping(obj, "discrete splitting")
    return DiscreteSplitting(owner=tuple(_as_int_list(top.get("owner"), "owner")))


def continuous_splitting_to_json(split: ContinuousSplitting) -> dict[str, Any]:
    return {
        "cuts": [fraction_to_json(c) for c in split.cuts],
        "owners": list(split.owners),
    }


def continuous_splitting_from_json(obj: Any) -> ContinuousSplitting:
    top = _as_mapping(obj, "continuous splitting")
    raw_cuts = top.get("cuts")
    _need(isinstance(raw_cuts, list), "cuts must be an array")
    return ContinuousSplitting(
        cuts=tuple(fraction_from_json(c) for c in raw_cuts),
        owners=tuple(_as_int_list(top.get("owners"), "owners")),
    )
