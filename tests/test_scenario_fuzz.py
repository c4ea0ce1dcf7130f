"""Input-contract fuzzing of scenario documents.

Valid documents, the builtins' ``to_document`` output and small random
timelines, are mutated: wrong node types, bools where numbers belong, NaN,
inf and huge numbers, ragged, non-square and non-unitary matrices, duplicate
labels, unknown keys, a wrong ``dim`` and a weak stage beside a strong one.
Each runs through ``twostate scenario --file PATH --mode analytic``, which
must end in a documented exit code with an ``error:`` line, never a
traceback; every document that loads must survive ``to_document`` and
``load_scenario`` unchanged.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twostate.algebra import LinearOperator, SpectralObservable, StateVector, Unitary
from twostate.cli import main
from twostate.errors import TwoStateError
from twostate.montecarlo import MeasureStage, UnitaryStage
from twostate.scenarios import ScenarioSpec, WeakStage, builtin, builtin_names, load_scenario, to_document

BUILTINS = [to_document(builtin(name)) for name in builtin_names()]


@st.composite
def random_documents(draw):
    """A small valid timeline: d 2–3, up to 3 stages, either strong measurements or weak stages."""
    dim = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def basis():
        return np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]

    def observable():
        b = basis()
        return SpectralObservable(np.arange(dim, dtype=float), [np.outer(b[:, j], b[:, j].conj()) for j in range(dim)])

    strong = draw(st.booleans())
    timeline = []
    for i, kind in enumerate(draw(st.lists(st.sampled_from(["unitary", "probe"]), max_size=3))):
        if kind == "unitary":
            timeline.append(UnitaryStage(Unitary(basis())))
        elif strong:
            timeline.append(MeasureStage(observable(), f"s{i}"))
        else:
            timeline.append(WeakStage(LinearOperator(observable().operator.matrix), draw(st.floats(0.01, 1)), f"w{i}"))
    pre = StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    spec = ScenarioSpec("fuzz", dim, pre, tuple(timeline), observable(), float(draw(st.integers(0, dim - 1))))
    return to_document(spec)


def _paths(node, path=()):
    """Every (path, node) of a JSON tree, the root included."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    """``doc`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    _node(doc, path[:-1])[path[-1]] = value
    return doc


def _matrices(doc):
    """Paths of the matrix nodes: lists of rows of [re, im] pairs."""
    return [path for path, node in _paths(doc)
            if isinstance(node, list) and node and all(isinstance(row, list) and row for row in node)
            and all(isinstance(x, list) and len(x) == 2 for row in node for x in row)]


@st.composite
def mutations(draw, doc):
    """``doc`` with one mutation applied, or none; a mutation the document has no node for adds a weak
    stage beside a strong one."""
    doc = copy.deepcopy(doc)
    nodes = list(_paths(doc))
    numbers = [path for path, node in nodes if isinstance(node, (int, float)) and not isinstance(node, bool)]
    kind = draw(st.sampled_from(["type", "bool", "number", "ragged", "non-square", "non-unitary",
                                 "duplicate-label", "unknown-key", "dim", "weak-beside-strong", "none"]))
    if kind == "none":
        return doc
    if kind == "type" or (kind in ("bool", "number") and not numbers):
        path, _ = draw(st.sampled_from(nodes))
        return _set(doc, path, draw(st.sampled_from(["x", [], {}, None, True, 1, [[1, 0]], {"pauli": "z"}])))
    if kind == "bool":
        return _set(doc, draw(st.sampled_from(numbers)), draw(st.booleans()))
    if kind == "number":
        value = draw(st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, -1e300, 1e-320, 2**70]))
        return _set(doc, draw(st.sampled_from(numbers)), value)
    if kind in ("ragged", "non-square", "non-unitary") and _matrices(doc):
        path = draw(st.sampled_from(_matrices(doc)))
        matrix = _node(doc, path)
        if kind == "ragged":
            matrix[draw(st.integers(0, len(matrix) - 1))].pop()
        elif kind == "non-square":
            matrix.pop()
        else:
            scale = draw(st.sampled_from([2.0, 1e308]))
            for row in matrix:
                for pair in row:
                    pair[0], pair[1] = scale * pair[0] + 0.25, scale * pair[1]
        return doc
    labeled = [entries for entries in (doc.get(key, []) for key in ("timeline", "counterfactuals", "products"))
               if any("unitary" not in entry for entry in entries)]
    if kind == "duplicate-label" and labeled:  # a copy of a labeled entry beside it
        entries = draw(st.sampled_from(labeled))
        entries.append(copy.deepcopy(draw(st.sampled_from([e for e in entries if "unitary" not in e]))))
        return doc
    bodies = [body for entry in doc.get("timeline", []) for stage, body in entry.items() if stage != "unitary"]
    if kind == "unknown-key":
        target = draw(st.sampled_from([doc, doc["post"], *bodies]))
        target[draw(st.sampled_from(["bogus", "Dim", "labels", "strenght"]))] = 1
        return doc
    if kind == "dim":
        doc["dim"] = draw(st.sampled_from([doc["dim"] + 1, doc["dim"] - 1, 0, -1, str(doc["dim"]), float(doc["dim"])]))
        return doc
    # a weak stage beside a strong stage: the post-selection's observable, weakly and strongly
    observable = doc["post"]["observable"]
    weak = {"weak_measure": {"operator": observable, "strength": 0.1, "label": "weak"}}
    strong = {"measure": {"observable": observable, "label": "strong"}}
    doc.setdefault("timeline", [])[0:0] = [weak, strong] if draw(st.booleans()) else [strong, weak]
    return doc


def _run(doc) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["scenario", "--file", str(path), "--mode", "analytic"])
    return code, err.getvalue()


def _assert_round_trip(doc) -> None:
    """A loaded document saves, loads and saves to the same document, with ``pre`` within one ulp of its unit norm.

    ``pre`` drifts because ``StateVector`` divides a unit vector by its norm again (CHANGES FOUND 17, open):
    each part of an amplitude by up to one ulp of 1.0, which is up to two ulps of a part below 0.5.
    """
    saved = to_document(load_scenario(doc))
    again = to_document(load_scenario(saved))
    first, second = (np.array(d.pop("pre"), dtype=float) for d in (saved, again))
    assert json.dumps(saved, sort_keys=True) == json.dumps(again, sort_keys=True)
    assert np.all(np.abs(second - first) <= np.spacing(1.0)), (first, second)


@given(doc=st.one_of(st.sampled_from(BUILTINS), random_documents()).flatmap(mutations))
@settings(max_examples=200, deadline=None)
def test_every_document_exits_with_a_documented_code(doc):
    code, err = _run(doc)
    assert code in (0, 2, 3, 4), (code, err)
    assert "Traceback" not in err
    if code:
        assert any(line.startswith("error: ") for line in err.splitlines()), (code, err)
    try:
        load_scenario(doc)
    except TwoStateError:
        return
    _assert_round_trip(doc)
