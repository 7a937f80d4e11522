"""Wire-format codecs: round trips and schema rejection.

Every to_json output must re-parse to an equal object, and malformed
input must surface as SchemaError rather than a stray KeyError or
TypeError.
"""

from fractions import Fraction

import pytest

from fairsplit.errors import SchemaError
from fairsplit.jsonio import (
    Instance,
    continuous_splitting_from_json,
    continuous_splitting_to_json,
    cycle_split_from_json,
    cycle_split_to_json,
    discrete_splitting_from_json,
    discrete_splitting_to_json,
    fraction_from_json,
    fraction_to_json,
    instance_to_json,
    load_instance,
    loads_instance,
    pair_split_from_json,
    pair_split_to_json,
    stable_split_from_json,
    stable_split_to_json,
)
from fairsplit.necklace import ContinuousSplitting, DiscreteSplitting
from fairsplit.paths import CycleSplit, PairSplit, StableSplit

F = Fraction


# === instances ===

def test_load_instance_path():
    inst = load_instance({"kind": "path", "colors": [1, 1, 2, 2]})
    assert inst.kind == "path"
    assert inst.colors == (1, 1, 2, 2)
    assert inst.q is None and inst.advantages is None
    assert inst.path().colors == (1, 1, 2, 2)


def test_load_instance_necklace_with_advantages():
    inst = load_instance(
        {
            "kind": "necklace",
            "colors": [1, 1, 1, 1],
            "q": 3,
            "advantages": {"1": [3]},
        }
    )
    assert inst.q == 3
    assert inst.advantages == {1: (3,)}
    assert inst.necklace().q == 3
    assert inst.necklace(q=2).q == 2  # explicit q wins over the file


def test_necklace_without_q_needs_override():
    inst = load_instance({"kind": "necklace", "colors": [1, 1]})
    with pytest.raises(SchemaError):
        inst.necklace()
    assert inst.necklace(q=2).q == 2


def test_instance_round_trip():
    for inst in (
        Instance("path", (1, 2, 1)),
        Instance("cycle", (1, 1, 2, 2, 1)),
        Instance("necklace", (1, 1, 1, 1), q=3, advantages={1: (3,)}),
    ):
        assert load_instance(instance_to_json(inst)) == inst


def test_instance_schema_rejections():
    good = {"kind": "path", "colors": [1, 2]}
    bad_cases = [
        [1, 2],  # not an object
        {**good, "extra": 1},
        {**good, "kind": "tree"},
        {"kind": "path"},  # no colors
        {**good, "colors": []},
        {**good, "colors": [1, 3]},  # gap
        {**good, "colors": [2, 3]},  # does not start at 1
        {**good, "colors": [1, True]},
        {**good, "q": 1},
        {**good, "q": 2.0},
        {**good, "advantages": {"1": [1]}},  # path cannot carry advantages
        {"kind": "necklace", "colors": [1], "advantages": {"x": [1]}},
        {"kind": "necklace", "colors": [1], "advantages": {"1": 1}},
    ]
    for case in bad_cases:
        with pytest.raises(SchemaError):
            load_instance(case)


def test_int_list_rejection_names_the_first_bad_element():
    colors = [1, 2, 3] * 100
    for bad in (True, 2.0, "3", None):
        with pytest.raises(SchemaError, match=r"^colors\[299\] must be an integer$"):
            load_instance({"kind": "path", "colors": colors[:299] + [bad]})
    with pytest.raises(SchemaError, match=r"^advantages\[1\]\[1\] must be an integer$"):
        load_instance({"kind": "necklace", "colors": [1], "advantages": {"1": [1, False]}})
    assert load_instance({"kind": "path", "colors": colors}).colors == tuple(colors)


def test_loads_instance_rejects_bad_json():
    with pytest.raises(SchemaError):
        loads_instance("{not json")
    inst = loads_instance('{"kind": "path", "colors": [1]}')
    assert inst.colors == (1,)


# === rationals ===

def test_fraction_round_trip():
    for x in (F(0), F(1), F(-7, 3), F(4, 6), 5):
        obj = fraction_to_json(x)
        assert set(obj) == {"num", "den"}
        assert fraction_from_json(obj) == F(x)
    assert fraction_to_json(F(4, 6)) == {"num": 2, "den": 3}


def test_fraction_schema_rejections():
    for case in (
        {"num": 1},
        {"num": 1, "den": 2, "sign": 1},
        {"num": 1, "den": 0},
        {"num": 1, "den": -2},
        {"num": 0.5, "den": 1},
        [1, 2],
    ):
        with pytest.raises(SchemaError):
            fraction_from_json(case)


# === splits ===

def test_pair_split_round_trip():
    split = PairSplit(removed={1: 1, 2: 3}, s1=frozenset({2}), s2=frozenset({4}))
    obj = pair_split_to_json(split)
    assert obj == {"removed": {"1": 1, "2": 3}, "s1": [2], "s2": [4]}
    assert pair_split_from_json(obj) == split
    with pytest.raises(SchemaError):
        pair_split_from_json({"removed": {"one": 1}, "s1": [], "s2": []})


def test_removed_maps_reject_duplicate_color_keys():
    with pytest.raises(SchemaError, match="^duplicate removed key for color 1$"):
        pair_split_from_json({"removed": {"1": 1, "01": 2}, "s1": [], "s2": []})
    with pytest.raises(SchemaError, match="^duplicate removed key for color 1$"):
        stable_split_from_json(
            {"q": 2, "removed": {"1": [1], "01": [2]}, "classes": [[], []]}
        )


def test_stable_split_round_trip():
    split = StableSplit(
        q=3,
        removed={1: frozenset({1, 5})},
        classes=(frozenset({2}), frozenset({3}), frozenset({4})),
    )
    obj = stable_split_to_json(split)
    assert stable_split_from_json(obj) == split
    short = {**obj, "classes": obj["classes"][:2]}
    with pytest.raises(SchemaError):
        stable_split_from_json(short)


def test_cycle_split_round_trip():
    split = CycleSplit(
        split=PairSplit(removed={1: 2}, s1=frozenset({1}), s2=frozenset({3})),
        induced_edges=(0, 0),
        max_extra_edges=1,
    )
    obj = cycle_split_to_json(split)
    assert cycle_split_from_json(obj) == split
    with pytest.raises(SchemaError):
        cycle_split_from_json({**obj, "induced_edges": [0]})


def test_discrete_splitting_round_trip():
    split = DiscreteSplitting((1, 2, 2, 3))
    obj = discrete_splitting_to_json(split)
    assert obj == {"owner": [1, 2, 2, 3]}
    assert discrete_splitting_from_json(obj) == split


def test_continuous_splitting_round_trip():
    split = ContinuousSplitting(cuts=(F(4, 3), F(8, 3)), owners=(1, 2, 3))
    obj = continuous_splitting_to_json(split)
    back = continuous_splitting_from_json(obj)
    assert back == split
    assert back.cuts[0] == F(4, 3)  # exact, not a float
    with pytest.raises(SchemaError):
        continuous_splitting_from_json({"cuts": obj["cuts"], "owners": [1, 2]})
