"""Benchmark inputs: a seeded synthetic radial feeder and the surplus-DG
variant of the bundled 33-bus case.

Both return the case as JSON text, so that a caller can check that the same
seed gives byte-identical input before handing the file to the program.
"""

from __future__ import annotations

import json
import random

# Bases of the bundled 33-bus case, reused so that the synthetic feeder's
# per-unit values sit on the same scale.
S_BASE_MVA = 10.0
V_BASE_KV = 12.66


def feeder_json(seed: int, num_buses: int) -> str:
    """A radial feeder of ``num_buses`` buses rooted at bus 1.

    Each bus attaches to a random bus among the 30 added just before it, which
    gives long laterals rather than a shallow random tree. Every non-root bus
    carries a load, and a random eighth of the non-root buses carry a DG.
    Impedances and loads are small enough that the exact sweep converges at
    full pickup with every DG at nameplate output.
    """
    if num_buses < 2:
        raise ValueError("a feeder needs at least two buses")
    rng = random.Random(seed)
    buses = [{"id": b} for b in range(1, num_buses + 1)]
    branches = []
    loads = []
    for b in range(2, num_buses + 1):
        r_ohm = rng.uniform(0.02, 0.2)
        branches.append({
            "from": rng.randint(max(1, b - 30), b - 1),
            "to": b,
            "r_ohm": round(r_ohm, 6),
            "x_ohm": round(r_ohm * rng.uniform(0.5, 1.2), 6),
            "i_max_amps": 400.0,
        })
        p = rng.uniform(0.0001, 0.0004)
        loads.append({"bus": b, "p_pu": round(p, 7), "q_pu": round(p * rng.uniform(0.3, 0.6), 7)})
    dg_buses = sorted(rng.sample(range(2, num_buses + 1), (num_buses - 1) // 8))
    generators = []
    for b in dg_buses:
        p_max = rng.uniform(0.0005, 0.002)
        generators.append({"bus": b, "p_max_pu": round(p_max, 7), "q_max_pu": round(0.6 * p_max, 7)})
    doc = {
        "name": f"feeder{num_buses}_s{seed}",
        "bases": {"s_base_mva": S_BASE_MVA, "v_base_kv": V_BASE_KV},
        "buses": buses,
        "branches": branches,
        "loads": loads,
        "generators": generators,
    }
    return json.dumps(doc, indent=1) + "\n"


def surplus_json(base_case_text: str, factor: float = 3.0) -> str:
    """The given case with every DG's ``p_max_pu`` and ``q_max_pu`` scaled by
    ``factor``; on the 33-bus case at x3 generation no longer binds, so the
    ordering constraints do."""
    doc = json.loads(base_case_text)
    doc["name"] = f"{doc.get('name', 'case')}_surplus"
    for gen in doc["generators"]:
        gen["p_max_pu"] *= factor
        gen["q_max_pu"] *= factor
    return json.dumps(doc, indent=1) + "\n"
