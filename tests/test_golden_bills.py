"""The array messaging path reproduces the frozen tuple-path bills exactly.

Every fixture under ``tests/golden/`` was recorded on the per-payload tuple
formulation of an exchange or algorithm before that formulation was
deleted (the commit is in each file's ``recorded_at``).  Here the same
seeded case is rebuilt (:mod:`tests.golden_cases`), run on the array path
that replaced it, and checked twice:

* its :meth:`CostMeter.to_dict` bill equals the frozen one field for field
  (phase, primitive, rounds, words, payloads, max send/recv words), in
  FAST and EXACT schedule modes (for three EXACT cases whose relay
  rounds depend on the order of the demand's pairs, the bill of the same
  exchanges with sorted demands, see
  :func:`test_sorted_demand_bills_differ_only_in_exact_relay_rounds`);
* its answer equals the frozen answer *and* the centralised reference
  (``s @ t``, the ``graphs.reference`` counts, a direct validation check).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import dolev_four_cycle_detect, dolev_triangle_count
from repro.clique.model import CongestedClique
from repro.graphs import (
    count_cycles_brute,
    four_cycle_count_reference,
    has_k_cycle_reference,
    triangle_count_reference,
)
from repro.matmul.bilinear_clique import bilinear_matmul
from repro.matmul.ringops import INTEGER_RING, POLYNOMIAL_RING
from repro.matmul.witnesses import _validate_candidates
from repro.subgraphs.colour_coding import detect_k_cycle
from repro.subgraphs.counting import (
    count_five_cycles,
    count_four_cycles,
    count_triangles,
)
from repro.subgraphs.four_cycle import detect_four_cycles
from tests import golden_cases as gc

WB = gc.PRIMITIVE_WORD_BITS


def _inbox_digest(inboxes) -> str:
    return gc.digest(*(arr for box in inboxes for arr in (box.sources, box.blocks)))


def _run_primitives(params, mode):
    if params["kind"] == "transpose":
        matrix = gc.transpose_input(params)
        clique = CongestedClique(matrix.shape[0], mode=mode)
        out = clique.transpose_array(
            matrix, words_per_entry=params["words"], phase="x"
        )
        assert np.array_equal(out, matrix.T)
        return clique.meter, {"value_sha256": gc.digest(out)}
    n, dests, blocks = gc.exchange_inputs(params)
    clique = CongestedClique(n, word_bits=WB, mode=mode)
    exchange = clique.route_array if params["kind"] == "route" else clique.send_array
    inboxes = exchange(dests, blocks, phase="x")
    # Reference delivery: every piece reaches its destination, in (sender,
    # emission) order.
    for u, box in enumerate(inboxes):
        want = [
            (v, blocks[v][i])
            for v in range(n)
            for i in range(dests[v].shape[0])
            if dests[v][i] == u
        ]
        assert box.sources.tolist() == [v for v, _ in want]
        assert all(np.array_equal(b, p) for b, (_v, p) in zip(box.blocks, want))
    return clique.meter, {"value_sha256": _inbox_digest(inboxes)}


def _run_allgather(params, mode):
    rows = gc.allgather_inputs(params)
    clique = CongestedClique(len(rows), word_bits=WB, mode=mode)
    got = clique.allgather_rows(
        rows, words_per_record=params["words_per_record"], phase="ag"
    )
    # Records come back in holder order; as a multiset they are the input.
    want = np.concatenate(rows).reshape(-1, 2)
    assert np.array_equal(
        got[np.lexsort(got.T[::-1])], want[np.lexsort(want.T[::-1])]
    )
    return clique.meter, {"value_sha256": gc.digest(got)}


def _run_bilinear(params, mode):
    s, t = gc.bilinear_inputs(params)
    ring = POLYNOMIAL_RING if params["entries"] == "poly" else INTEGER_RING
    clique = CongestedClique(params["n"], mode=mode)
    p = bilinear_matmul(
        clique, s, t, gc.bilinear_algorithm(params["algorithm"]), ring=ring
    )
    assert np.array_equal(p, ring.matmul(s, t))
    return clique.meter, {"value_sha256": gc.digest(p)}


def _run_witnesses(params, mode):
    s, t, p, candidates, needed = gc.witness_inputs(params)
    clique = CongestedClique(s.shape[0], mode=mode)
    ok = _validate_candidates(clique, s, t, p, candidates, needed, "v")
    assert np.array_equal(
        ok, gc.validation_reference(s, t, p, candidates, needed)
    )
    return clique.meter, {"value_sha256": gc.digest(ok)}


def _run_graph(family, params, mode):
    g = gc.build_graph(params["graph"])
    problem = params.get("problem")
    if family == "four_cycle":
        result = detect_four_cycles(g, mode=mode)
        want = four_cycle_count_reference(g) > 0
    elif problem == "triangles":
        run = dolev_triangle_count if family == "dolev" else count_triangles
        result = run(g, mode=mode)
        want = triangle_count_reference(g)
    elif family == "dolev":
        result = dolev_four_cycle_detect(g, mode=mode)
        want = four_cycle_count_reference(g) > 0
    elif problem == "four_cycles":
        result = count_four_cycles(g, mode=mode)
        want = four_cycle_count_reference(g)
    elif problem == "five_cycles":
        result = count_five_cycles(g, mode=mode)
        want = count_cycles_brute(g, 5)
    else:
        result = detect_k_cycle(
            g, params["k"], trials=params["trials"], mode=mode
        )
        # Colour coding is one-sided: a True verdict is always sound.
        want = result.value and has_k_cycle_reference(g, params["k"])
    assert result.value == want
    return result.meter, {"value": result.value}


def _run(family, params):
    mode = gc.MODES[params["mode"]]
    if family == "primitives":
        return _run_primitives(params, mode)
    if family == "allgather":
        return _run_allgather(params, mode)
    if family == "bilinear":
        return _run_bilinear(params, mode)
    if family == "witnesses":
        return _run_witnesses(params, mode)
    return _run_graph(family, params, mode)


def _golden_params():
    for family in gc.FAMILIES:
        for case in gc.load_fixture(family)["cases"]:
            yield pytest.param(family, case, id=f"{family}[{case['id']}]")


@pytest.mark.parametrize("family,case", list(_golden_params()))
def test_array_path_reproduces_golden_bill(family, case):
    params = case["params"]
    assert gc.input_digest(family, params) == case["input_sha256"], (
        "seeded inputs drifted from the recorded ones"
    )
    meter, value = _run(family, params)
    got = meter.to_dict()
    want = case.get("sorted_demand_meter", case["meter"])
    assert got["phases"] == want["phases"]
    assert got == want
    for key, frozen in value.items():
        assert case[key] == frozen, key


def test_sorted_demand_bills_differ_only_in_exact_relay_rounds():
    # EXACT mode charges the length of a materialised relay schedule, and
    # the Koenig colouring's count of non-empty matchings depends on the
    # order the demand's pairs are presented in.  The tuple path presented
    # them in emission order, the array path in sorted order, so where the
    # two orders colour differently the fixture also carries the bill of
    # the same tuple exchanges with sorted demands (recorded at the same
    # commit), and that is the bill the array path must reproduce.
    # Everything but the relay rounds of routed phases agrees.
    divergent = [
        (family, case)
        for family in gc.FAMILIES
        for case in gc.load_fixture(family)["cases"]
        if "sorted_demand_meter" in case
    ]
    assert [(f, c["id"]) for f, c in divergent] == [
        ("primitives", "kind=route,mode=exact,seed=3"),
        ("primitives", "kind=route,mode=exact,seed=9"),
        ("dolev", "graph=gnp-40-0.05-3,mode=exact,problem=four_cycles"),
    ]
    for _family, case in divergent:
        emitted = case["meter"]["phases"]
        ordered = case["sorted_demand_meter"]["phases"]
        assert len(emitted) == len(ordered)
        for tup, arr in zip(emitted, ordered):
            if tup != arr:
                assert tup["primitive"] == "route"
            assert {k: v for k, v in tup.items() if k != "rounds"} == {
                k: v for k, v in arr.items() if k != "rounds"
            }


@pytest.mark.parametrize("family", gc.FAMILIES)
def test_fixture_covers_the_grid_in_both_modes(family):
    fixture = gc.load_fixture(family)
    assert fixture["family"] == family
    assert len(fixture["recorded_at"]) == 40
    assert [c["params"] for c in fixture["cases"]] == gc.cases(family)
    assert [c["id"] for c in fixture["cases"]] == [
        gc.case_id(p) for p in gc.cases(family)
    ]
    assert {c["params"]["mode"] for c in fixture["cases"]} == set(gc.MODES)
