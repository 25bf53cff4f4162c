import json
import math

import pytest

from sopwl.network import CaseError, bundled_case_path, load_case


class TestBundledCase:
    def test_ieee33(self):
        case = load_case(bundled_case_path("ieee33_4dg"))
        assert len(case.buses) == 33
        assert len(case.branches) == 32
        assert len(case.generators) == 4
        assert {g.bus for g in case.generators} == {13, 21, 22, 30}
        assert all(g.p_max_pu == 0.05 and g.q_max_pu == 0.03 for g in case.generators)
        assert all(br.i_max_amps == 50.0 for br in case.branches)

    def test_bases(self):
        case = load_case(bundled_case_path("ieee33_4dg"))
        assert case.s_base_mva == 10.0
        assert case.v_base_kv == 12.66
        assert case.i_base_amps == pytest.approx(456.08, abs=0.5)

    def test_total_load(self):
        case = load_case(bundled_case_path("ieee33_4dg"))
        assert sum(l.p_pu for l in case.loads) == pytest.approx(0.3715)
        assert sum(l.q_pu for l in case.loads) == pytest.approx(0.2300)

    def test_surplus_case_triples_dg_limits(self):
        base = json.loads(bundled_case_path("ieee33_4dg").read_text())
        surplus = json.loads(bundled_case_path("ieee33_4dg_surplus").read_text())
        assert surplus.pop("name") == "ieee33_4dg_surplus"
        base.pop("name")
        for gen_s, gen_b in zip(surplus["generators"], base["generators"]):
            for key in ("p_max_pu", "q_max_pu"):
                assert gen_s[key] == 3 * gen_b[key]
                gen_s[key] = gen_b[key]
        assert surplus == base

    def test_unknown_bundled_name(self):
        with pytest.raises(FileNotFoundError):
            bundled_case_path("no_such_case")


class TestLoadCase:
    def test_twobus(self, cases_dir):
        case = load_case(cases_dir / "twobus.json")
        assert len(case.buses) == 2
        assert case.root == 1
        assert case.branches[0].r_pu == 0.01

    def test_cycle_rejected(self, cases_dir):
        with pytest.raises(CaseError):
            load_case(cases_dir / "cycle.json")

    def test_ohm_conversion(self):
        doc = {
            "bases": {"s_base_mva": 10.0, "v_base_kv": 12.66},
            "buses": [{"id": 1}, {"id": 2}],
            "branches": [
                {"from": 1, "to": 2, "r_ohm": 16.0276, "x_ohm": 0.0, "i_max_amps": 50}
            ],
        }
        case = load_case(doc)
        # z_base = 12.66^2 / 10
        assert case.branches[0].r_pu == pytest.approx(1.0, abs=1e-4)

    def test_missing_bases(self):
        with pytest.raises(CaseError):
            load_case({"buses": [{"id": 1}]})

    def test_nonpositive_bases(self):
        with pytest.raises(CaseError):
            load_case(
                {"bases": {"s_base_mva": 0.0, "v_base_kv": 12.66}, "buses": [{"id": 1}]}
            )

    def test_disconnected(self):
        doc = {
            "bases": {"s_base_mva": 10.0, "v_base_kv": 12.66},
            "buses": [{"id": 1}, {"id": 2}, {"id": 3}],
            "branches": [
                {"from": 1, "to": 2, "r_pu": 0.01, "x_pu": 0.01, "i_max_amps": 50},
                {"from": 2, "to": 1, "r_pu": 0.01, "x_pu": 0.01, "i_max_amps": 50},
            ],
        }
        with pytest.raises(CaseError):
            load_case(doc)

    def test_negative_impedance(self):
        doc = {
            "bases": {"s_base_mva": 10.0, "v_base_kv": 12.66},
            "buses": [{"id": 1}, {"id": 2}],
            "branches": [
                {"from": 1, "to": 2, "r_pu": -0.01, "x_pu": 0.01, "i_max_amps": 50}
            ],
        }
        with pytest.raises(CaseError):
            load_case(doc)


def _doc(branches, loads=(), generators=(), buses=3):
    return {
        "bases": {"s_base_mva": 10.0, "v_base_kv": 12.66},
        "buses": [{"id": b} for b in range(1, buses + 1)],
        "branches": [
            {"from": f, "to": t, "r_pu": 0.01, "x_pu": 0.01, "i_max_amps": 50}
            for f, t in branches
        ],
        "loads": list(loads),
        "generators": list(generators),
    }


class TestTreeRules:
    def test_branch_into_root(self):
        with pytest.raises(CaseError, match="oriented toward the root"):
            load_case(_doc([(1, 2), (3, 1)]))

    def test_bus_with_two_parents(self):
        # a connected tree, but bus 2 is fed from both 1 and 3
        with pytest.raises(CaseError, match="bus 2 is fed by two branches, 1-2 and 3-2"):
            load_case(_doc([(1, 2), (3, 2)]))

    def test_duplicated_branch(self):
        with pytest.raises(CaseError, match="bus 2 is fed by two branches, 1-2 and 1-2"):
            load_case(_doc([(1, 2), (1, 2)]))

    def test_cycle_away_from_root(self):
        # every non-root bus has one parent, but 3 and 4 feed each other
        doc = _doc([(1, 2), (3, 4), (4, 3)], buses=4)
        with pytest.raises(CaseError, match="disconnected"):
            load_case(doc)

    def test_order_is_parents_first(self, cases_dir):
        case = load_case(cases_dir / "branching6.json")
        assert [br.key for br in case.branches] == ["2-4", "4-6", "1-2", "3-5", "2-3"]
        assert [br.key for br in case.order] == ["1-2", "2-4", "2-3", "4-6", "3-5"]


def test_crossed_voltage_bounds_rejected():
    # caught here, not later as a bound error of the built model's V_2
    doc = _doc([(1, 2), (2, 3)])
    doc["buses"][1].update(v_sqr_min=1.2, v_sqr_max=0.9)
    with pytest.raises(CaseError, match=r"^bus 2: v_sqr_min 1\.2 > v_sqr_max 0\.9$"):
        load_case(doc)
    doc["buses"][1].update(v_sqr_min=1.0, v_sqr_max=1.0)
    assert load_case(doc).buses[1].v_sqr_min == 1.0  # a fixed voltage is allowed


_LOAD = {"bus": 2, "p_pu": 0.01, "q_pu": 0.005}
_GEN = {"bus": 2, "p_max_pu": 0.05, "q_max_pu": 0.03}


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda d: d["loads"].append(dict(_LOAD)), id="second-load"),
        pytest.param(lambda d: d["generators"].append(dict(_GEN)), id="second-generator"),
        pytest.param(lambda d: d["loads"].append({**_LOAD, "bus": 9}), id="load-unknown-bus"),
        pytest.param(lambda d: d["loads"][0].update(p_pu=-0.01), id="negative-load"),
        pytest.param(lambda d: d["generators"][0].update(q_max_pu=-0.1), id="negative-gen-limit"),
        pytest.param(lambda d: d["loads"][0].update(q_pu=float("nan")), id="nan-load"),
        pytest.param(lambda d: d["generators"][0].update(p_max_pu=float("inf")), id="inf-gen-limit"),
        pytest.param(lambda d: d["branches"][0].update(x_pu=float("inf")), id="inf-impedance"),
        pytest.param(lambda d: d["bases"].update(v_base_kv=float("nan")), id="nan-base"),
        pytest.param(lambda d: d["branches"][1].update(i_max_amps=0.0), id="zero-ampacity"),
        pytest.param(lambda d: d["branches"][1].update(i_max_amps=-5.0), id="negative-ampacity"),
        pytest.param(lambda d: d["buses"][1].pop("id"), id="bus-without-id"),
        pytest.param(lambda d: d["branches"][0].pop("from"), id="branch-without-from"),
        pytest.param(lambda d: d["branches"][1].pop("to"), id="branch-without-to"),
        pytest.param(lambda d: d["loads"][0].pop("bus"), id="load-without-bus"),
        pytest.param(lambda d: d["generators"][0].pop("bus"), id="generator-without-bus"),
        # the name becomes output file names and the LP's first line
        pytest.param(lambda d: d.update(name="../escaped"), id="name-with-slash"),
        pytest.param(lambda d: d.update(name="x\nMinimize"), id="name-with-newline"),
        pytest.param(lambda d: d.update(name="x\n"), id="name-with-trailing-newline"),
        pytest.param(lambda d: d.update(name=".hidden"), id="name-with-leading-dot"),
        pytest.param(lambda d: d.update(name=""), id="empty-name"),
        pytest.param(lambda d: d.update(name=7), id="name-not-a-string"),
    ],
)
def test_bad_per_bus_input_rejected(edit):
    doc = _doc([(1, 2), (2, 3)], loads=[dict(_LOAD)], generators=[dict(_GEN)])
    doc["name"] = "feeder-3.v1_a"
    load_case(doc)  # the unedited document is valid
    edit(doc)
    with pytest.raises(CaseError):
        load_case(doc)


@pytest.mark.parametrize("field", ["id", "from", "bus"])
def test_missing_bus_field_named(field):
    doc = _doc([(1, 2), (2, 3)], loads=[dict(_LOAD)])
    where = {"id": doc["buses"][0], "from": doc["branches"][0], "bus": doc["loads"][0]}
    del where[field][field]
    with pytest.raises(CaseError, match=f"missing required field '{field}'"):
        load_case(doc)


@pytest.mark.parametrize(
    "where, field, value",
    [
        ("buses", "id", 2.7),
        ("buses", "id", "2"),
        ("buses", "id", True),
        ("branches", "from", 1.0),
        ("branches", "to", "2"),
        ("loads", "bus", False),
        ("branches", "x_pu", True),
        ("branches", "r_pu", "0.01"),
        ("branches", "r_pu", "abc"),
        ("loads", "p_pu", [0.01]),
        ("generators", "q_max_pu", False),
    ],
)
def test_malformed_value_rejected_by_field(where, field, value):
    # a bus id must be a JSON integer and a quantity a JSON number; booleans,
    # strings and fractional ids are rejected, not converted
    doc = _doc([(1, 2), (2, 3)], loads=[dict(_LOAD)], generators=[dict(_GEN)])
    doc[where][1 if where == "buses" else 0][field] = value
    with pytest.raises(CaseError, match=f"^{field} = "):
        load_case(doc)


@pytest.mark.parametrize(
    "where, field",
    [("buses", "id"), ("branches", "to"), ("loads", "bus"), ("generators", "bus")],
)
def test_negative_bus_id_rejected_by_field(where, field):
    # a bus id is written into LP names, where "-" is not allowed
    doc = _doc([(1, 2), (2, 3)], loads=[dict(_LOAD)], generators=[dict(_GEN)])
    doc[where][1 if where == "buses" else 0][field] = -2
    with pytest.raises(CaseError, match=f"^{field} = -2 in .* must be a nonnegative bus id$"):
        load_case(doc)


def test_case_must_be_an_object():
    with pytest.raises(CaseError, match="JSON object, not a list"):
        load_case([1])


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("bases", 5, "'bases' must be an object, not a int"),
        ("buses", [1, 2], "'buses' must be a list of objects: 1 is not one"),
        ("buses", {"id": 1}, "'buses' must be a list of objects, not a dict"),
        ("loads", 3, "'loads' must be a list of objects, not a int"),
        ("branches", [[1, 2]], r"'branches' must be a list of objects: \[1, 2\] is not one"),
    ],
)
def test_malformed_document_rejected_by_field(field, value, message):
    doc = _doc([(1, 2), (2, 3)], loads=[dict(_LOAD)], generators=[dict(_GEN)])
    doc[field] = value
    with pytest.raises(CaseError, match=f"^{message}$"):
        load_case(doc)
