"""Scenario schema, builtin catalog, and the analytic/oracle runner."""

import copy
import dataclasses
import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twostate.algebra import (
    LinearOperator,
    SpectralObservable,
    StateVector,
    Unitary,
    basis_state,
    beamsplitter,
    bell_basis,
    pauli,
    spin_state,
    state_projector_observable,
    which_path,
)
from twostate import pointer as pointer_model
from twostate import rules
from twostate.errors import AllRejectedError, ScenarioFormatError, ZeroDenominatorError
from twostate.montecarlo import MeasureStage, OutcomeStat, UnitaryStage, derive_seed, simulate
from twostate.rules import ProductRuleReport, RealityEntry, RealityReport, TwoStateVector, abl_probabilities
from twostate.scenarios import (
    ScenarioReport,
    ScenarioSpec,
    StageReport,
    WeakValueReport,
    WeakStage,
    _sampled,
    analytic_predictions,
    builtin,
    builtin_names,
    load_scenario,
    run_scenario,
    to_document,
)

from test_benchmark_gates import WORKLOADS
from test_montecarlo import BOUNDARY_TIMELINES, random_timeline

MINIMAL = {
    "dim": 2,
    "pre": [1, 0],
    "timeline": [],
    "post": {"observable": {"pauli": "z"}, "select": 1},
}


def random_state(rng, dim):
    return StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def random_unitary(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(m)
    return Unitary(q)


def block_observable(basis: Unitary, ranks):
    """Eigenvalues 1, 2, ... on consecutive blocks of basis columns, one block per rank."""
    cols = np.split(basis.matrix, np.cumsum(ranks)[:-1], axis=1)
    projs = np.array([c @ c.conj().T for c in cols])
    return SpectralObservable(np.arange(1.0, len(ranks) + 1), projs)


class TestLoader:
    def test_minimal_document(self):
        spec = load_scenario(MINIMAL)
        assert spec.dim == 2 and spec.timeline == ()
        assert spec.post_select == 1.0

    def test_bare_and_paired_amplitudes(self):
        doc = dict(MINIMAL, pre=[[0.6, 0.0], [0.0, 0.8]])
        spec = load_scenario(doc)
        np.testing.assert_allclose(spec.pre.amps, [0.6, 0.8j])

    def test_malformed_projector_names_branch(self):
        doc = copy.deepcopy(MINIMAL)
        doc["post"] = {
            "observable": {
                "explicit": [
                    {"eigenvalue": 1.0, "projector": [[0.5, 0.0], [0.0, 0.5]]},
                    {"eigenvalue": -1.0, "projector": [[0.5, 0.0], [0.0, 0.5]]},
                ]
            },
            "select": 1.0,
        }
        with pytest.raises(ScenarioFormatError, match=r"post\.observable.*branch 0"):
            load_scenario(doc)

    def test_unknown_field_rejected(self):
        with pytest.raises(ScenarioFormatError, match="bogus"):
            load_scenario(dict(MINIMAL, bogus=1))

    @pytest.mark.parametrize("field", ["timeline", "counterfactuals", "products"])
    def test_non_list_entries_rejected(self, field):
        with pytest.raises(ScenarioFormatError, match=f"{field}: expected a list"):
            load_scenario(dict(MINIMAL, **{field: 5}))

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ScenarioFormatError, match="seed"):
            load_scenario(dict(MINIMAL, seed=seed))
        assert load_scenario(dict(MINIMAL, seed=2**64 - 1)).seed == 2**64 - 1

    def test_unnormalized_pre_rejected(self):
        with pytest.raises(ScenarioFormatError, match="pre"):
            load_scenario(dict(MINIMAL, pre=[1, 1]))

    def test_non_unitary_rejected(self):
        doc = dict(MINIMAL, timeline=[{"unitary": [[1, 1], [0, 1]]}])
        with pytest.raises(ScenarioFormatError, match=r"timeline\[0\]"):
            load_scenario(doc)

    def test_multiple_post_entries_rejected(self):
        doc = dict(MINIMAL, post=[MINIMAL["post"], MINIMAL["post"]])
        with pytest.raises(ScenarioFormatError, match="exactly one"):
            load_scenario(doc)

    def test_select_must_be_branch(self):
        doc = dict(MINIMAL, post={"observable": {"pauli": "z"}, "select": 0.5})
        with pytest.raises(ScenarioFormatError, match="select"):
            load_scenario(doc)

    def test_dimension_mismatch_path(self):
        doc = dict(MINIMAL, dim=4)
        with pytest.raises(ScenarioFormatError):
            load_scenario(doc)

    def test_json_text_accepted(self):
        import json

        spec = load_scenario(json.dumps(MINIMAL))
        assert spec.dim == 2

    def test_non_object_stage_body(self):
        doc = dict(MINIMAL, timeline=[{"measure": "oops"}])
        with pytest.raises(ScenarioFormatError, match=r"timeline\[0\]\.measure"):
            load_scenario(doc)

    def test_non_object_observable_body(self):
        doc = dict(MINIMAL, post={"observable": {"spin": "x"}, "select": 1})
        with pytest.raises(ScenarioFormatError, match=r"spin"):
            load_scenario(doc)

    def test_non_numeric_param(self):
        doc = dict(MINIMAL, params={"theta": "x"})
        with pytest.raises(ScenarioFormatError, match=r"params\.theta"):
            load_scenario(doc)

    def test_duplicate_stage_labels(self):
        doc = dict(
            MINIMAL,
            timeline=[
                {"measure": {"observable": {"pauli": "z"}, "label": "m"}},
                {"measure": {"observable": {"pauli": "x"}, "label": "m"}},
            ],
        )
        with pytest.raises(ScenarioFormatError, match="unique"):
            load_scenario(doc)

    @pytest.mark.parametrize("name", [None, 5, ["a"]])
    def test_non_string_name_rejected(self, name):
        with pytest.raises(ScenarioFormatError, match="name: expected a string"):
            load_scenario(dict(MINIMAL, name=name))

    @pytest.mark.parametrize("field, entry", [
        ("counterfactuals", {"label": "p", "observable": {"pauli": "x"}}),
        ("products", {"label": "p", "left": {"pauli": "x"}, "right": {"pauli": "z"}}),
    ])
    def test_duplicate_labels_rejected(self, field, entry):
        # report consumers key audits and reality entries by label
        load_scenario(dict(MINIMAL, **{field: [entry, dict(entry, label="q")]}))
        with pytest.raises(ScenarioFormatError, match=f"{field}: labels must be unique"):
            load_scenario(dict(MINIMAL, **{field: [entry, entry]}))

    def test_weak_measure_entry(self):
        doc = dict(
            MINIMAL,
            timeline=[
                {"weak_measure": {"operator": {"pauli": "z"}, "strength": 0.05, "label": "wz"}}
            ],
            post={"observable": {"pauli": "x"}, "select": 1},
        )
        spec = load_scenario(doc)
        assert isinstance(spec.timeline[0], WeakStage)

    @pytest.mark.parametrize("strength", [0, -0.1, float("nan")])
    def test_non_positive_or_nan_strength_rejected(self, strength):
        doc = dict(
            MINIMAL,
            timeline=[
                {"unitary": [[1, 0], [0, 1]]},
                {"weak_measure": {"operator": {"pauli": "z"}, "strength": strength, "label": "wz"}},
            ],
        )
        text = json.dumps(doc)  # a NaN strength travels as the JSON token NaN
        with pytest.raises(ScenarioFormatError, match=r"timeline\[1\]\.weak_measure\.strength"):
            load_scenario(text)

    def test_round_trip_builtin(self):
        for name in builtin_names():
            spec = builtin(name)
            doc = to_document(spec)
            again = to_document(load_scenario(doc))
            assert doc == again

    def test_round_trip_keeps_weak_stage(self):
        stage = WeakStage(LinearOperator([[0.5, 1j], [-1j, -0.5]]), 0.03, "wy")
        spec = ScenarioSpec(name="weak-doc", dim=2, pre=spin_state(1.0), timeline=(stage,),
                            post_observable=pauli("x"), post_select=1.0)
        loaded = load_scenario(to_document(spec)).timeline[0]
        assert isinstance(loaded, WeakStage)
        assert (loaded.label, loaded.strength) == ("wy", 0.03)
        assert loaded.operator.matrix.tobytes() == stage.operator.matrix.tobytes()

    def test_round_trip_preserves_semantics(self):
        spec = builtin("sharp-shanks")
        loaded = load_scenario(to_document(spec))
        np.testing.assert_allclose(loaded.pre.amps, spec.pre.amps)
        original = run_scenario(spec, mode="analytic")
        reloaded = run_scenario(loaded, mode="analytic")
        np.testing.assert_allclose(
            original.stages[0].analytic, reloaded.stages[0].analytic, atol=1e-14
        )

    NAN = float("nan")
    EYE3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    BELL_DIM = {"dim": 4, "pre": [1, 0, 0, 0]}

    @pytest.mark.parametrize("path, fields", [
        pytest.param("pre", {"pre": [NAN, 0]}, id="nan-pre"),
        pytest.param("pre", {"pre": [1, 1]}, id="unnormalized-pre"),
        pytest.param("pre", {"dim": 3}, id="pre-dimension"),
        pytest.param("timeline[0].unitary", {"timeline": [{"unitary": [[NAN, 0], [0, 1]]}]}, id="nan-unitary"),
        pytest.param("timeline[0].unitary", {"timeline": [{"unitary": [[1, 1], [0, 1]]}]}, id="non-unitary"),
        pytest.param("timeline[0].weak_measure.operator.matrix", {"timeline": [
            {"weak_measure": {"operator": {"matrix": [[NAN, 0], [0, 1]]}, "strength": 0.1, "label": "w"}}
        ]}, id="nan-weak-matrix"),
        pytest.param("timeline[0].weak_measure.operator.matrix", {"timeline": [
            {"weak_measure": {"operator": {"matrix": [[1, 0, 0], [0, 1, 0]]}, "strength": 0.1, "label": "w"}}
        ]}, id="non-square-weak-matrix"),
        pytest.param("timeline[0]", {"timeline": [
            {"weak_measure": {"operator": {"matrix": EYE3}, "strength": 0.1, "label": "w"}}
        ]}, id="weak-matrix-dimension"),
        pytest.param("timeline[0]", {"timeline": [
            {"measure": {"observable": {"bell_basis": {}}, "label": "b"}}
        ]}, id="measure-dimension"),
        pytest.param("timeline[0].weak_measure.label", {"timeline": [
            {"weak_measure": {"operator": {"pauli": "z"}, "strength": 0.1}}
        ]}, id="missing-weak-label"),
        pytest.param("timeline", {"timeline": [
            {"measure": {"observable": {"pauli": "z"}, "label": "m"}},
            {"weak_measure": {"operator": {"pauli": "x"}, "strength": 0.1, "label": "m"}},
        ]}, id="duplicate-stage-labels"),
        pytest.param("post.observable", {"post": {"observable": {"bell_basis": {}}, "select": 1}},
                     id="post-dimension"),
        pytest.param("post.observable", {"post": {"observable": {"spin": {"theta": NAN}}, "select": 1}},
                     id="nan-spin-angle"),
        pytest.param("post.observable", {"post": {"observable": {"detector_basis": {"unitary": [[1, 1], [0, 1]]}},
                                                  "select": 1}}, id="non-unitary-detector-network"),
        pytest.param("post.observable", {"post": {"observable": {"explicit": [
            {"eigenvalue": 1, "projector": [[1, 0], [0, 0]]}, {"eigenvalue": -1, "projector": [[1]]},
        ]}, "select": 1}}, id="ragged-explicit-projectors"),
        pytest.param("post.select", {"post": {"observable": {"pauli": "z"}, "select": 0.5}}, id="select"),
        pytest.param("params", {"params": 5}, id="params-not-object"),
        pytest.param("counterfactuals[0]", {"counterfactuals": [5]}, id="counterfactual-not-object"),
        pytest.param("counterfactuals[0].label", {"counterfactuals": [{"observable": {"pauli": "x"}}]},
                     id="missing-counterfactual-label"),
        pytest.param("counterfactuals[0].observable", {"counterfactuals": [
            {"label": "c", "observable": {"bell_basis": {}}}
        ]}, id="counterfactual-dimension"),
        pytest.param("products[0].right", {"products": [
            {"label": "p", "left": {"pauli": "x"}, "right": {"matrix": EYE3}}
        ]}, id="product-dimension"),
        pytest.param("products[0].left.matrix", {"products": [
            {"label": "p", "left": {"matrix": [[NAN, 0], [0, 1]]}, "right": {"pauli": "z"}}
        ]}, id="nan-product-matrix"),
        pytest.param("trials", {"trials": 0}, id="trials"),
        pytest.param("pre", {"pre": []}, id="empty-pre"),
        pytest.param("timeline[0].unitary", {"timeline": [{"unitary": []}]}, id="empty-matrix"),
        pytest.param("timeline[0].unitary", {"timeline": [{"unitary": [[1, 0], [0]]}]}, id="ragged-matrix-rows"),
        pytest.param("post.observable", {"post": {"observable": {"pauli": "z", "which_path": {}}, "select": 1}},
                     id="multi-key-observable"),
        pytest.param("post.observable.pauli", {"post": {"observable": {"pauli": "w"}, "select": 1}},
                     id="pauli-axis-w"),
        pytest.param("post.observable.explicit", {"post": {"observable": {"explicit": []}, "select": 1}},
                     id="empty-explicit"),
        pytest.param("post.observable", {"post": {"observable": {"sigma": {}}, "select": 1}},
                     id="unknown-observable-kind"),
        pytest.param("dim", {"dim": 0}, id="zero-dim"),
        pytest.param("dim", {"dim": True}, id="boolean-dim"),
        pytest.param("timeline[0]", {"timeline": [{"unitary": [[1, 0], [0, 1]], "measure": {}}]},
                     id="multi-key-stage"),
        pytest.param("timeline[0]", {"timeline": [{"rotate": {}}]}, id="unknown-stage-kind"),
        pytest.param("post", {"post": 5}, id="post-not-object"),
        pytest.param("trials", {"trials": 2.5}, id="fractional-trials"),
    ])
    def test_malformed_document_names_its_field(self, path, fields):
        with pytest.raises(ScenarioFormatError) as info:
            load_scenario(dict(MINIMAL, **fields))
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("fields, message", [
        pytest.param({"pre": [True, False]}, "pre[0]: expected a number or [re, im] pair, got True",
                     id="boolean-amplitude"),
        pytest.param({"pre": [[1, False], 0]}, "pre[0]: expected a number or [re, im] pair, got [1, False]",
                     id="boolean-imaginary-part"),
        pytest.param({"timeline": [{"unitary": [[1, 0], [0, True]]}]},
                     "timeline[0].unitary[1][1]: expected a number or [re, im] pair, got True",
                     id="boolean-unitary-entry"),
        pytest.param(dict(BELL_DIM, post={"observable": {"bell_basis": "anything"}, "select": 1}),
                     "post.observable.bell_basis: expected an object, got 'anything'", id="bell-basis-string"),
        pytest.param(dict(BELL_DIM, post={"observable": {"bell_basis": {"x": 1}}, "select": 1}),
                     "post.observable.bell_basis: expected an empty object, got {'x': 1}", id="bell-basis-body"),
        pytest.param({"post": {"observable": {"which_path": [1, 2, 3]}, "select": 1}},
                     "post.observable.which_path: expected an object, got [1, 2, 3]", id="which-path-list"),
        pytest.param({"timeline": [{"measure": {"observable": {"which_path": {"port": "u"}}, "label": "m"}}]},
                     "timeline[0].measure.observable.which_path: expected an empty object, got {'port': 'u'}",
                     id="which-path-body"),
    ])
    def test_rejects_values_it_used_to_ignore(self, fields, message):
        with pytest.raises(ScenarioFormatError) as info:
            load_scenario(dict(MINIMAL, **fields))
        assert str(info.value) == message

    @pytest.mark.parametrize("fields, message", [
        pytest.param({"pre": [1e308, 1e308]}, "pre: state norm is inf; expected 1 within 1e-10", id="pre"),
        pytest.param({"timeline": [{"unitary": [[1e308, 0], [0, 1]]}]},
                     "timeline[0].unitary: matrix is not unitary: max |U†U - 1| = inf", id="unitary"),
        pytest.param({"post": {"observable": {"explicit": [
            {"eigenvalue": 1, "projector": [[1e308, 0], [0, 0]]}, {"eigenvalue": -1, "projector": [[0, 0], [0, 1]]},
        ]}, "select": 1}}, "post.observable: branch 0: projector is not idempotent", id="projector"),
    ])
    def test_huge_entries_are_refused_without_a_warning(self, fields, message):
        # the constructor's check overflows, and it is the check's verdict, not numpy's warning, that is seen
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioFormatError) as info:
                load_scenario(dict(MINIMAL, **fields))
        assert str(info.value).startswith(message)

    def test_empty_which_path_and_bell_basis_bodies_load(self):
        spec = load_scenario(dict(MINIMAL, post={"observable": {"which_path": {}}, "select": -1}))
        assert spec.post_observable is which_path()
        doc = dict(MINIMAL, **self.BELL_DIM, post={"observable": {"bell_basis": {}}, "select": 1})
        assert load_scenario(doc).post_observable is bell_basis()

    def test_spec_rejects_select_outside_the_spectrum(self):
        with pytest.raises(ScenarioFormatError, match=r"^post\.select: eigenvalue 0\.5"):
            ScenarioSpec(name="bad", dim=2, pre=basis_state(2, 0), timeline=(),
                         post_observable=pauli("z"), post_select=0.5)

    def test_select_near_two_branches_is_refused(self):
        near = {"explicit": [{"eigenvalue": 1.0, "projector": [[1, 0], [0, 0]]},
                             {"eigenvalue": 1.0 + 5e-10, "projector": [[0, 0], [0, 1]]}]}
        with pytest.raises(ScenarioFormatError) as info:
            load_scenario(dict(MINIMAL, post={"observable": near, "select": 1.0}))
        assert str(info.value) == "post.select: eigenvalue 1.0 matches 2 branches of this observable within 1e-09"

    @pytest.mark.parametrize("field, value, message", [
        ("trials", True, "trials: expected a positive integer"),
        ("trials", 2.5, "trials: expected a positive integer"),
        ("seed", True, "seed: expected an integer in [0, 2**64)"),
        ("seed", 2**64, "seed: expected an integer in [0, 2**64)"),
    ])
    def test_spec_rejects_non_integer_trials_and_seed(self, field, value, message):
        with pytest.raises(ScenarioFormatError) as info:
            ScenarioSpec(name="bad", dim=2, pre=basis_state(2, 0), timeline=(),
                         post_observable=pauli("z"), post_select=1.0, **{field: value})
        assert str(info.value) == message

    @pytest.mark.parametrize("field", ["trials", "seed"])
    @pytest.mark.parametrize("integer", [np.int64, np.uint64])
    def test_spec_stores_numpy_integer_as_python_int(self, field, integer):
        spec = dataclasses.replace(builtin("spin-zz-xi"), **{field: integer(500)})
        assert getattr(spec, field) == 500 and type(getattr(spec, field)) is int
        assert json.loads(json.dumps(to_document(spec)))[field] == 500

    @pytest.mark.parametrize("call, error, message", [
        pytest.param(lambda: load_scenario("{"), ScenarioFormatError, "^not valid JSON: ", id="invalid-json"),
        pytest.param(lambda: load_scenario("[1, 2]"), ScenarioFormatError,
                     "^scenario document must be a JSON object$", id="non-object-document"),
        pytest.param(lambda: builtin("erasure", phi=float("inf")), ValueError, "^parameter phi must be finite$",
                     id="infinite-builtin-parameter"),
        pytest.param(lambda: run_scenario(builtin("spin-zz-xi"), mode="x"), ValueError, "^unknown mode 'x'$",
                     id="unknown-mode"),
    ])
    def test_rejects_input_outside_any_field(self, call, error, message):
        with pytest.raises(error, match=message):
            call()


    STRONG = {"measure": {"observable": {"pauli": "x"}, "label": "m"}}
    RANK_2_POST = {"dim": 3, "pre": [0.6, 0.8, 0], "post": {"observable": {"explicit": [
        {"eigenvalue": 1, "projector": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]},
        {"eigenvalue": 0, "projector": [[0, 0, 0], [0, 1, 0], [0, 0, 1]]},
    ]}, "select": 0}}
    EYE_3 = {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    NEED_STRONG_FREE = "require a timeline free of strong measurement stages"
    NEED_RANK_1 = "require a rank-1 post-selection branch; post.select picks one of rank 2"

    @pytest.mark.parametrize("fields, message", [
        ({"timeline": [STRONG, {"weak_measure": {"operator": {"pauli": "z"}, "strength": 0.05, "label": "w"}}]},
         f"timeline[1].weak_measure: weak stages {NEED_STRONG_FREE}; timeline[0] is one"),
        ({"timeline": [STRONG], "counterfactuals": [{"label": "c", "observable": {"pauli": "y"}}]},
         f"counterfactuals[0]: counterfactuals {NEED_STRONG_FREE}; timeline[0] is one"),
        ({"timeline": [{"unitary": [[1, 0], [0, 1]]}, STRONG],
          "products": [{"label": "p", "left": {"pauli": "x"}, "right": {"pauli": "z"}}]},
         f"products[0]: products {NEED_STRONG_FREE}; timeline[1] is one"),
        ({**RANK_2_POST, "timeline": [{"weak_measure": {"operator": EYE_3, "strength": 0.05, "label": "w"}}]},
         f"timeline[0].weak_measure: weak stages {NEED_RANK_1}"),
        ({**RANK_2_POST, "counterfactuals": [{"label": "c", "observable": RANK_2_POST["post"]["observable"]}]},
         f"counterfactuals[0]: counterfactuals {NEED_RANK_1}"),
        ({**RANK_2_POST, "products": [{"label": "p", "left": EYE_3, "right": EYE_3}]},
         f"products[0]: products {NEED_RANK_1}"),
    ], ids=["weak-strong", "counterfactual-strong", "product-strong",
            "weak-rank-2", "counterfactual-rank-2", "product-rank-2"])
    def test_pure_two_state_readers_checked_at_load(self, fields, message):
        with pytest.raises(ScenarioFormatError) as info:
            load_scenario(dict(MINIMAL, **fields))
        assert str(info.value) == message


class TestBuiltins:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin("not-a-scenario")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="parameter"):
            builtin("spin-zz-xi", angle=1.0)

    def test_out_of_range_parameter(self):
        with pytest.raises(ValueError, match="range"):
            builtin("spin-zz-xi", theta=7.0)

    @pytest.mark.parametrize("name", ["mach-zehnder", "tandem-mz"])
    @pytest.mark.parametrize("value", [0.5, "no", 2, float("nan")])
    def test_which_path_stage_is_a_bool_0_or_1(self, name, value):
        # it was read by truthiness: 0.5, "no" and 2 built the path detector
        with pytest.raises(ValueError) as info:
            builtin(name, which_path_stage=value)
        assert str(info.value) == f"parameter which_path_stage must be a bool, 0 or 1, got {value!r}"
        assert [builtin(name, which_path_stage=v).params["which_path"] for v in (0, 1, False, True)] == [0, 1, 0, 1]

    @pytest.mark.parametrize("name, parameter", [
        ("spin-zz-xi", "theta"), ("sharp-shanks", "theta_bc"), ("tandem-mz", "theta_1a"), ("erasure", "phi"),
    ])
    @pytest.mark.parametrize("value", [True, "0.5"])
    def test_angle_refuses_what_is_not_a_number(self, name, parameter, value):
        # theta=True reported theta: 1.0 and theta="0.5" theta: 0.5, where the
        # document loader refuses both for a number
        with pytest.raises(ValueError) as info:
            builtin(name, **{parameter: value})
        assert str(info.value) == f"parameter {parameter} must be a number, got {value!r}"

    def test_catalog_complete(self):
        assert set(builtin_names()) == {
            "spin-zz-xi",
            "sharp-shanks",
            "mach-zehnder",
            "tandem-mz",
            "erasure",
            "reality-pair",
        }

    @pytest.mark.pin
    def test_documents_are_pinned(self):
        """Every builtin's document and notes, byte for byte: the report
        digests see neither the order of ``params`` nor the serialized spec."""
        specs = [builtin(name) for name in builtin_names()] + [
            builtin("mach-zehnder", which_path_stage=False),
            builtin("tandem-mz", which_path_stage=False),
            builtin("tandem-mz", theta_1a=0.1, theta_2b=1.5),
        ]
        payload = json.dumps([[to_document(spec), list(spec.notes)] for spec in specs])
        assert hashlib.sha256(payload.encode()).hexdigest() == (
            "8bd307b64718e281de01499bc7ccdde3ed463da1b3bc7490bf0bcfef238e1c09"
        )

    def test_spin_zz_xi_aligned_probe(self):
        report = run_scenario(builtin("spin-zz-xi", theta=0.0), mode="analytic")
        assert report.stages[0].analytic[0] == pytest.approx(1.0, abs=1e-12)

    def test_sharp_shanks_values(self):
        report = run_scenario(
            builtin("sharp-shanks", theta_ab=np.pi / 3, theta_bc=np.pi / 2), mode="analytic"
        )
        assert report.acceptance_analytic == pytest.approx(0.5, abs=1e-12)
        assert report.stages[0].analytic[0] == pytest.approx(0.75, abs=1e-12)

    def test_mach_zehnder_dark_port(self):
        with_path = run_scenario(builtin("mach-zehnder"), mode="analytic")
        assert with_path.acceptance_analytic == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(with_path.stages[0].analytic, [0.5, 0.5], atol=1e-12)
        without = run_scenario(
            builtin("mach-zehnder", which_path_stage=False), mode="analytic"
        )
        assert without.acceptance_analytic == pytest.approx(1.0, abs=1e-12)

    def test_reality_pair_reports(self):
        report = run_scenario(builtin("reality-pair"), mode="analytic")
        entries = {e.label: e for e in report.reality.entries}
        assert entries["sz"].certain and entries["sz"].eigenvalue == 1.0
        assert entries["sx"].certain and entries["sx"].eigenvalue == 1.0
        audit = dict(report.product_audits)["sz*sx"]
        assert audit.ab_weak == pytest.approx(-1.0)
        assert audit.failed


class TestAnalyticEnumeration:
    def test_single_stage_reduces_to_conditional_rule(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            pre, post = random_state(rng, 2), random_state(rng, 2)
            if abs(np.vdot(post.amps, pre.amps)) < 0.05:
                continue
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            obs = SpectralObservable.from_hermitian((m + m.conj().T) / 2)
            spec = ScenarioSpec(
                name="reduction",
                dim=2,
                pre=pre,
                timeline=(MeasureStage(obs, "m"),),
                post_observable=state_projector_observable(post),
                post_select=1.0,
            )
            dists = analytic_predictions(spec).distributions
            expected = abl_probabilities(TwoStateVector(pre, post), obs)
            np.testing.assert_allclose(
                dists[0].probabilities, expected.probabilities, atol=1e-12
            )

    def test_unitary_transport_in_timeline(self):
        rng = np.random.default_rng(14)
        u1, u2 = random_unitary(rng, 2), random_unitary(rng, 2)
        pre, post = random_state(rng, 2), random_state(rng, 2)
        obs = pauli("z")
        spec = ScenarioSpec(
            name="transport",
            dim=2,
            pre=pre,
            timeline=(UnitaryStage(u1), MeasureStage(obs, "m"), UnitaryStage(u2)),
            post_observable=state_projector_observable(post),
            post_select=1.0,
        )
        dists = analytic_predictions(spec).distributions
        pre_t = StateVector(u1.matrix @ pre.amps)
        post_t = StateVector(u2.matrix.conj().T @ post.amps)
        expected = abl_probabilities(TwoStateVector(pre_t, post_t), obs)
        np.testing.assert_allclose(dists[0].probabilities, expected.probabilities, atol=1e-12)

    def test_multi_stage_chain_against_hand_enumeration(self):
        # chain: probe z then x, pre up-z, post up-x; amplitudes by hand
        spec = ScenarioSpec(
            name="chain",
            dim=2,
            pre=basis_state(2, 0),
            timeline=(MeasureStage(pauli("z"), "first"), MeasureStage(pauli("x"), "second")),
            post_observable=pauli("x"),
            post_select=1.0,
        )
        predictions = analytic_predictions(spec)
        dists, acceptance = predictions.distributions, predictions.acceptance
        # up-z collapses to itself on z (prob 1); then x outcomes 1/2 each; the
        # post-selection keeps only the +x branch
        assert acceptance == pytest.approx(0.5, abs=1e-12)
        first = dict(zip(dists[0].eigenvalues, dists[0].probabilities))
        second = dict(zip(dists[1].eigenvalues, dists[1].probabilities))
        assert first[1.0] == pytest.approx(1.0, abs=1e-12)
        assert second[1.0] == pytest.approx(1.0, abs=1e-12)

    def test_unreachable_post_selection(self):
        spec = ScenarioSpec(
            name="dead",
            dim=2,
            pre=basis_state(2, 0),
            timeline=(),
            post_observable=pauli("z"),
            post_select=-1.0,
        )
        with pytest.raises(ZeroDenominatorError, match="dead"):
            analytic_predictions(spec)


class TestTwoStatePass:
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([2, 3, 4]),
        kinds=st.tuples(st.integers(0, 4), st.integers(1, 3)).flatmap(
            lambda counts: st.permutations(["unitary"] * counts[0] + ["weak"] * counts[1])
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_weak_values_equal_direct_products(self, seed, dim, kinds):
        # ⟨φ_p|A|ψ_p⟩/⟨φ_p|ψ_p⟩ with ψ_p and φ_p from matrix products of the
        # unitaries before and after stage p
        rng = np.random.default_rng(seed)
        pre, post = random_state(rng, dim), random_state(rng, dim)
        timeline = []
        for i, kind in enumerate(kinds):
            if kind == "unitary":
                timeline.append(UnitaryStage(random_unitary(rng, dim)))
            else:
                matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                timeline.append(WeakStage(LinearOperator(matrix), 0.05, f"w{i}"))
        spec = ScenarioSpec(
            name="pass", dim=dim, pre=pre, timeline=tuple(timeline),
            post_observable=state_projector_observable(post), post_select=1.0,
        )

        def product(entries):
            matrix = np.eye(dim)
            for entry in entries:
                if isinstance(entry, UnitaryStage):
                    matrix = entry.unitary.matrix @ matrix
            return matrix

        assume(abs(np.vdot(post.amps, product(timeline) @ pre.amps)) >= 0.1)
        expected = []
        for p, entry in enumerate(timeline):
            if isinstance(entry, WeakStage):
                ket, bra = product(timeline[:p]) @ pre.amps, product(timeline[p:]).conj().T @ post.amps
                expected.append(np.vdot(bra, entry.operator.matrix @ ket) / np.vdot(bra, ket))
        values = [w.value for w in run_scenario(spec, mode="analytic").weak]
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12)


def time_reversed(spec: ScenarioSpec) -> ScenarioSpec:
    """The timeline run backward: prepared in the selected post ket, the
    stages in reverse order with every U replaced by U†, and post-selected on
    the prepared state."""
    vals, vecs = np.linalg.eigh(spec.post_observable.projectors[spec.post_observable.branch_index(spec.post_select)])
    timeline = tuple(UnitaryStage(Unitary(e.unitary.matrix.conj().T)) if isinstance(e, UnitaryStage) else e
                     for e in reversed(spec.timeline))
    return ScenarioSpec(f"{spec.name}-reversed", spec.dim, StateVector(vecs[:, np.argmax(vals)]), timeline,
                        state_projector_observable(spec.pre), 1.0)


class TestTimeReversal:
    """The two-state description is time symmetric (Aharonov, Bergmann &
    Lebowitz 1964): the reversed timeline yields the same conditionals and
    acceptance, and the conjugate of every weak value."""

    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3, 4]), n_stages=st.integers(1, 4),
           degenerate=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_reversed_timeline_has_the_same_marginals(self, seed, dim, n_stages, degenerate):
        pre, stages, (post, select) = random_timeline(seed, dim, n_stages, (dim - 1, 1) if degenerate else (1,) * dim)
        spec = ScenarioSpec("forward", dim, pre, tuple(stages), post, select)
        forward, backward = analytic_predictions(spec), analytic_predictions(time_reversed(spec))
        assert abs(forward.acceptance - backward.acceptance) <= 1e-12
        for ahead, behind in zip(forward.distributions, backward.distributions[::-1], strict=True):
            assert ahead.eigenvalues == behind.eigenvalues
            np.testing.assert_allclose(ahead.probabilities, behind.probabilities, rtol=0, atol=1e-12)

    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([2, 3, 4]),
        kinds=st.tuples(st.integers(0, 4), st.integers(1, 3)).flatmap(
            lambda counts: st.permutations(["unitary"] * counts[0] + ["weak"] * counts[1])
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_reversed_timeline_conjugates_weak_values(self, seed, dim, kinds):
        rng = np.random.default_rng(seed)
        pre, post = random_state(rng, dim), random_state(rng, dim)
        timeline = []
        for i, kind in enumerate(kinds):
            if kind == "unitary":
                timeline.append(UnitaryStage(random_unitary(rng, dim)))
            else:
                m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                timeline.append(WeakStage(LinearOperator((m + m.conj().T) / 2), 0.05, f"w{i}"))
        spec = ScenarioSpec("forward", dim, pre, tuple(timeline), state_projector_observable(post), 1.0)
        forward, backward = analytic_predictions(spec).two_state, analytic_predictions(time_reversed(spec)).two_state
        for p, entry in enumerate(timeline):
            if isinstance(entry, WeakStage):
                value = rules.weak_value(forward[p], entry.operator)
                mirrored = rules.weak_value(backward[len(timeline) - 1 - p], entry.operator)
                assert abs(value - mirrored.conjugate()) <= 1e-12 * max(1.0, abs(value))


class TestRunScenario:
    def test_both_mode_attaches_verdicts(self):
        report = run_scenario(builtin("spin-zz-xi"), mode="both", trials=40_000, seed=2)
        assert report.passed is True
        assert report.stages[0].z_scores is not None
        assert report.acceptance is not None

    def test_oracle_mode_has_no_analytic(self):
        report = run_scenario(builtin("spin-zz-xi"), mode="oracle", trials=5_000, seed=2)
        assert report.stages[0].analytic is None
        assert report.stages[0].frequencies is not None
        assert report.passed is None

    def test_every_builtin_passes_both_mode(self):
        for i, name in enumerate(builtin_names()):
            report = run_scenario(builtin(name), mode="both", trials=30_000, seed=50 + i)
            assert report.passed is True, name

    @pytest.mark.parametrize(
        "dim, ranks", [(2, (1, 1)), (8, (1,) * 8), (8, (4, 4))], ids=["qubit", "rank1-d8", "rank4-d8"]
    )
    def test_twenty_stage_timeline(self, dim, ranks):
        # 2**20 to 8**20 collapse paths: cost must grow with the stage count, not the path count
        rng = np.random.default_rng([20, dim, len(ranks)])
        timeline = []
        for k in range(20):
            timeline.append(UnitaryStage(random_unitary(rng, dim)))
            timeline.append(MeasureStage(block_observable(random_unitary(rng, dim), ranks), f"m{k}"))
        spec = ScenarioSpec(
            name=f"deep-{dim}-{len(ranks)}",
            dim=dim,
            pre=random_state(rng, dim),
            timeline=tuple(timeline),
            post_observable=block_observable(random_unitary(rng, dim), (1,) * dim),
            post_select=1.0,
        )
        report = run_scenario(spec, mode="both", trials=8192, seed=5)
        assert report.passed is True
        assert len(report.stages) == 20
        for st in report.stages:
            assert sum(st.analytic) == pytest.approx(1.0, abs=1e-12)

    def test_erasure_branch_conditionals(self):
        spec = builtin("erasure", theta=0.8, phi=0.3)
        report = run_scenario(spec, mode="both", trials=60_000, seed=3)
        assert report.passed is True
        sy = next(st for st in report.stages if st.label == "sy")
        np.testing.assert_allclose(sy.analytic, [0.5, 0.5], atol=1e-12)

    def test_csv_rows_schema(self):
        report = run_scenario(builtin("sharp-shanks"), mode="both", trials=20_000, seed=4)
        rows = report.csv_rows()
        assert {"scenario", "stage", "eigenvalue", "analytic", "frequency", "se", "z", "pass"} == set(
            rows[0]
        )
        assert len(rows) == 2

    def test_to_dict_serializes(self):
        import json

        report = run_scenario(builtin("reality-pair"), mode="analytic")
        text = json.dumps(report.to_dict())
        assert "product_audits" in text

    def test_weak_stage_report_and_validation(self):
        spec = ScenarioSpec(
            name="weak-probe",
            dim=2,
            pre=spin_state(2 * np.pi / 3),
            timeline=(WeakStage(pauli("z").operator, 0.05, "wz"),),
            post_observable=pauli("z"),
            post_select=1.0,
        )
        analytic = run_scenario(spec, mode="analytic")
        wv = analytic.weak[0].value
        assert analytic.weak[0].passed is None
        validated = run_scenario(spec, mode="both", trials=1_000, seed=5)
        weak = validated.weak[0]
        assert weak.passed is True
        assert weak.value == pytest.approx(wv)
        assert weak.grid_shift == pytest.approx(weak.exact_shift, rel=0, abs=1e-12)
        assert weak.grid_momentum == pytest.approx(weak.exact_momentum, rel=0, abs=1e-12)
        # λ = 0.05 is weak here: the shift per strength is Re(A_w) to O(λ²)
        assert weak.exact_shift / 0.05 == pytest.approx(wv.real, abs=1e-2)

    def test_weak_stage_couples_once_per_coupling(self, monkeypatch):
        # A_w = <+x|sy|up-z> / <+x|up-z> = i: the shift and the momentum read one joint, coupled at the stated λ
        spec = ScenarioSpec(name="weak-y", dim=2, pre=basis_state(2, 0),
                            timeline=(WeakStage(pauli("y").operator, 0.05, "wy"),),
                            post_observable=pauli("x"), post_select=1.0)
        calls = []
        couple = pointer_model.couple
        monkeypatch.setattr(pointer_model, "couple", lambda *args: calls.append(args) or couple(*args))
        weak = run_scenario(spec, mode="both", trials=1_000, seed=5).weak[0]
        assert weak.value == pytest.approx(1j) and weak.passed is True
        assert weak.grid_momentum == pytest.approx(weak.exact_momentum, rel=0, abs=1e-12)
        assert weak.exact_momentum == pytest.approx(0.05 / 2, rel=0.05**2)  # λ·Im(A_w)/(2σ²), to O(λ²)
        assert [coupling.strength for _, _, coupling in calls] == [0.05]

    def test_weak_stage_validation_survives_amplification(self):
        # near-orthogonal selections push the weak value far outside the
        # spectrum: λ·|A_w| = 0.7 is not weak, and the grid still matches the
        # exact pointer at the stated strength
        spec = ScenarioSpec(
            name="amplified",
            dim=2,
            pre=spin_state(3.0),
            timeline=(WeakStage(pauli("x").operator, 0.05, "wx"),),
            post_observable=pauli("z"),
            post_select=1.0,
        )
        report = run_scenario(spec, mode="analytic")
        assert abs(report.weak[0].value.real) > 10
        validated = run_scenario(spec, mode="both", trials=1_000, seed=5).weak[0]
        assert validated.passed is True
        assert validated.grid_shift == pytest.approx(validated.exact_shift, rel=0, abs=1e-12)
        # pre (cos 3/2, sin 3/2), post up-z, σx: shift/λ = sin 3 / (1 + cos 3·exp(-λ²/2)),
        # 12.55 against Re(A_w) = 14.10
        expected = np.sin(3) / (1 + np.cos(3) * np.exp(-0.05**2 / 2))
        assert validated.exact_shift / 0.05 == pytest.approx(expected, rel=1e-12)

    def test_non_hermitian_weak_operator_is_reported_unvalidated(self):
        # the pointer model couples Hermitian operators only: the value is
        # reported, with no pointer cross-check and no verdict
        raising = LinearOperator([[0, 1], [0, 0]])
        spec = ScenarioSpec(
            name="raising",
            dim=2,
            pre=spin_state(1.0),
            timeline=(WeakStage(raising, 0.05, "w+"),),
            post_observable=pauli("x"),
            post_select=1.0,
        )
        report = run_scenario(spec, mode="both", trials=1_000, seed=5)
        weak = report.weak[0]
        # <+x|σ+|pre> / <+x|pre> with pre = (cos 1/2, sin 1/2)
        assert weak.value == pytest.approx(np.sin(0.5) / (np.cos(0.5) + np.sin(0.5)), abs=1e-15)
        assert (weak.grid_shift, weak.exact_shift, weak.grid_momentum, weak.exact_momentum, weak.passed) == (None,) * 5
        assert report.passed is None

    def test_weak_stage_rejects_strong_company(self):
        with pytest.raises(ScenarioFormatError, match="weak"):
            ScenarioSpec(
                name="mixed",
                dim=2,
                pre=basis_state(2, 0),
                timeline=(
                    MeasureStage(pauli("x"), "strong"),
                    WeakStage(pauli("z").operator, 0.05, "wz"),
                ),
                post_observable=pauli("z"),
                post_select=1.0,
            )

    def test_counterfactuals_require_unitary_timeline(self):
        with pytest.raises(ScenarioFormatError, match="counterfactual"):
            ScenarioSpec(
                name="bad-cf",
                dim=2,
                pre=basis_state(2, 0),
                timeline=(MeasureStage(pauli("x"), "strong"),),
                post_observable=pauli("x"),
                post_select=1.0,
                counterfactuals=(("sz", pauli("z")),),
            )

    def test_dimension_guard_in_spec(self):
        with pytest.raises(ScenarioFormatError):
            ScenarioSpec(
                name="bad",
                dim=3,
                pre=basis_state(2, 0),
                timeline=(),
                post_observable=pauli("z"),
                post_select=1.0,
            )

    def test_counterfactual_conditionals_are_evaluated_once(self, monkeypatch):
        # the reality report and the oracle rows read one ABL distribution per counterfactual
        spec = builtin("reality-pair")
        calls = []
        evaluate = rules._abl_distribution
        monkeypatch.setattr(rules, "_abl_distribution", lambda tsv, obs: calls.append(obs) or evaluate(tsv, obs))
        report = run_scenario(spec, mode="both", trials=1000, seed=3)
        assert [id(obs) for obs in calls] == [id(obs) for _, obs in spec.counterfactuals]
        rows = [r for r in report.stages if r.label.startswith("counterfactual:")]
        assert [max(r.analytic) for r in rows] == [e.probability for e in report.reality.entries]

    def test_an_all_rejected_counterfactual_run_names_the_scenario(self):
        # at seed 3 the main run accepts its one trial and a counterfactual run does not
        with pytest.raises(AllRejectedError) as info:
            run_scenario(builtin("reality-pair"), trials=1, seed=3)
        assert str(info.value).startswith("scenario 'reality-pair': ")

    def test_a_run_samples_the_strong_timeline_then_the_counterfactual(self):
        # the weak stage is left out of every oracle run, and a counterfactual is measured last
        spec = weak_probe_spec()
        strong = [e for e in spec.timeline if not isinstance(e, WeakStage)]
        post = (spec.post_observable, spec.post_select)
        stage = MeasureStage(pauli("z"), "counterfactual:sz")
        assert _sampled(spec, 5000, 11) == simulate(spec.pre, strong, post, 5000, 11)
        expected = simulate(spec.pre, [*strong, stage], post, 5000, derive_seed(11, 1))
        assert _sampled(spec, 5000, derive_seed(11, 1), stage) == expected
        row = run_scenario(spec, mode="oracle", trials=5000, seed=11).stages[-1]
        assert row.label == "counterfactual:sz"
        assert row.frequencies == tuple(s.frequency for s in expected.conditional())

    def test_numpy_integer_seed_reaches_the_counterfactual_runs(self):
        # the counterfactual runs derive their seeds from the given one
        report = run_scenario(builtin("reality-pair"), trials=1000, seed=np.int64(3))
        assert report.to_dict() == run_scenario(builtin("reality-pair"), trials=1000, seed=3).to_dict()
        assert type(report.seed) is int

    def test_numpy_integer_trials_report_serializes(self):
        report = run_scenario(builtin("spin-zz-xi"), trials=np.int64(1000))
        assert type(report.trials) is int
        assert json.dumps(report.to_dict()) == json.dumps(run_scenario(builtin("spin-zz-xi"), trials=1000).to_dict())

    @pytest.mark.parametrize("field, value", [("trials", True), ("trials", 2.5), ("seed", True), ("seed", 2.5)])
    def test_non_integer_override_is_named_as_given(self, field, value):
        with pytest.raises(ValueError) as info:
            run_scenario(builtin("spin-zz-xi"), **{field: value})
        assert str(info.value) == f"{field} must be an integer, got {value!r}"

    @pytest.mark.parametrize("z", [float("nan"), float("inf"), -1.0, 0, True, "4"])
    def test_z_must_be_finite_and_positive(self, z):
        # nan or -1 used to turn every stage verdict to FAIL
        with pytest.raises(ValueError) as info:
            run_scenario(builtin("spin-zz-xi"), trials=1000, z=z)
        assert str(info.value) == f"z must be a finite number > 0, got {z!r}"

    @pytest.mark.parametrize("field, value", [("trials", -5), ("seed", -9), ("z", 4.0)])
    def test_analytic_mode_refuses_oracle_override(self, field, value):
        with pytest.raises(ValueError) as info:
            run_scenario(builtin("spin-zz-xi"), mode="analytic", **{field: value})
        assert str(info.value) == f"{field} overrides the Monte-Carlo oracle, which mode 'analytic' does not run"


def _type_skeleton(value):
    """The Python type of every node, so a digest also pins list vs tuple
    and float vs numpy scalar."""
    if isinstance(value, dict):
        return {k: _type_skeleton(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [type(value).__name__, [_type_skeleton(v) for v in value]]
    return type(value).__name__


def _report_digest(reports) -> str:
    payload = []
    for report in reports:
        doc, rows = report.to_dict(), report.csv_rows()
        payload += [doc, _type_skeleton(doc), rows, _type_skeleton(rows)]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def weak_probe_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="weak-probe",
        dim=2,
        pre=spin_state(2 * np.pi / 3, 0.4),
        timeline=(
            UnitaryStage(Unitary(pauli("x").operator.matrix)),
            WeakStage(pauli("y").operator, 0.05, "wy"),
        ),
        post_observable=pauli("x"),
        post_select=1.0,
        counterfactuals=(("sz", pauli("z")),),
        products=(("sz*sy", pauli("z").operator, pauli("y").operator),),
    )


def two_weak_probes_spec() -> ScenarioSpec:
    phase = Unitary(np.diag([1.0, np.exp(0.5j)]))
    return ScenarioSpec(
        name="two-weak-probes",
        dim=2,
        pre=spin_state(1.1, 0.3),
        timeline=(
            UnitaryStage(beamsplitter(0.7)),
            WeakStage(pauli("z").operator, 0.05, "wz"),
            UnitaryStage(phase),
            UnitaryStage(beamsplitter(0.2)),
            WeakStage(pauli("y").operator, 0.04, "wy"),
            UnitaryStage(phase),
        ),
        post_observable=pauli("x"),
        post_select=1.0,
        counterfactuals=(("sz", pauli("z")), ("sy", pauli("y"))),
        products=(("sz*sy", pauli("z").operator, pauli("y").operator),),
    )


@pytest.mark.pin
class TestReportDigests:
    """Byte-level pins of ``to_dict`` and ``csv_rows``, values and types;
    any change to a number, a field or a container type moves them."""

    PINNED = {
        "spin-zz-xi": "a03365f27fd1b505b494c82826767d9d7eb3517e6a68678cf478e3f769005534",
        "sharp-shanks": "723027ac948679ad31dd80179868d0a5db1daad20e6f0fac9c96effe92ecc81c",
        "mach-zehnder": "5e851e187292dea71b0272367b257f3ad83848cb6ea203737bf6ae28e98de238",
        "tandem-mz": "613c36eadcdda1ceb00703cefe1617186960f8e2b993ea10294673be7c0ebb91",
        "erasure": "9a478e1cd5bf0dc5a4a30fbcef5cad62996be726200083f074344d657a5a1067",
        "reality-pair": "0cf117d0c726d6e452663ebbe6b353b892967c0858f7e9bee2d83da901838ce8",
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_builtin_in_every_mode(self, name):
        reports = [run_scenario(builtin(name), mode="analytic")] + [
            run_scenario(builtin(name), mode=mode, trials=20_000, seed=3) for mode in ("oracle", "both")
        ]
        assert _report_digest(reports) == self.PINNED[name]

    def test_weak_stage(self):
        spec = weak_probe_spec()
        reports = [run_scenario(spec, mode="analytic"), run_scenario(spec, mode="both", trials=5_000, seed=3)]
        assert _report_digest(reports) == (
            "d033620fc5697cae13faa6645630d634cfdb8a585fa773e014cf56eb04a3a94a"
        )

    def test_two_weak_stages_between_unitaries(self):
        spec = two_weak_probes_spec()
        reports = [run_scenario(spec, mode="analytic"), run_scenario(spec, mode="both", trials=5_000, seed=3)]
        assert _report_digest(reports) == (
            "2467f5f486ce351a3576a0d6f959344955d603d61a8484f4a17075940523e66f"
        )


def _analytic_bytes(spec: ScenarioSpec) -> bytes:
    """The raw bytes of every number ``analytic_predictions`` returns for ``spec``."""
    predictions = analytic_predictions(spec)
    parts = [np.array(d.probabilities).tobytes() for d in predictions.distributions]
    parts.append(np.float64(predictions.acceptance).tobytes())
    for position, tsv in predictions.two_state.items():
        parts += [np.int64(position).tobytes(), tsv.pre.amps.tobytes(), tsv.post.amps.tobytes(),
                  np.complex128(tsv.overlap).tobytes()]
    return b"".join(parts)


def _analytic_inputs(group: str) -> list[ScenarioSpec]:
    if group == "builtins":
        return [builtin(name) for name in builtin_names()] + [
            builtin(name, which_path_stage=False) for name in ("mach-zehnder", "tandem-mz")]
    if group == "deep-timeline":
        return [load_scenario(WORKLOADS.scenario_document(shape, entry))
                for shape in range(len(WORKLOADS.SHAPES)) for entry in range(8)]
    if group == "boundary":
        specs = []
        for name, shape in BOUNDARY_TIMELINES.items():
            pre, stages, (post_obs, select) = random_timeline(*shape)
            specs.append(ScenarioSpec(name, pre.dim, pre, tuple(stages), post_obs, select))
        return specs
    return [weak_probe_spec(), two_weak_probes_spec()]


@pytest.mark.pin
class TestAnalyticPin:
    """The bits of the analytic pass on inputs whose analytic numbers no
    report pin holds: deep and degenerate timelines and the two-state
    amplitudes, beside the builtins and the weak-stage documents."""

    PINNED = {
        "builtins": "5609a7e16a38488673d6cddc6dfbe4623c8e913abc6090e8e222fc4dd4cbbdd6",
        "deep-timeline": "a57259e67218f8056cf22daaae548166e00fdd96ed409468e9b56e29d7f0bf39",
        "boundary": "45f70b5ec806d7871e17396ba51b55e1a277e19f6acade2dcee66fbb01232b28",
        "weak": "1283c7ded65893acabbda2801daa79cf6ee4280a19712ddd2e85147f299e9aab",
    }

    @pytest.mark.parametrize("group", sorted(PINNED))
    def test_analytic_predictions_are_pinned(self, group):
        digest = hashlib.sha256(b"".join(_analytic_bytes(spec) for spec in _analytic_inputs(group))).hexdigest()
        assert digest == self.PINNED[group]


class TestToText:
    def test_every_line_of_a_hand_built_report(self):
        # failed verdicts and an undefined reality entry, which no builtin reaches
        report = ScenarioReport(
            scenario="hand-built",
            mode="both",
            trials=1000,
            seed=3,
            acceptance_analytic=0.25,
            acceptance=OutcomeStat(1.0, 260, 0.26, 0.0138708),
            stages=(StageReport("m", (1.0, -1.0), (0.5, 0.5), (0.7, 0.3), (0.02, 0.02), (10.0, -10.0), False),
                    StageReport("n", (1.0,), analytic=(1.0,))),
            weak=(WeakValueReport("w", 0.05, complex(2, -0.5), 0.0995, 0.0996, -0.0125, -0.0124, False),
                  WeakValueReport("v", 0.1, complex(0, 1))),
            reality=RealityReport((RealityEntry("a", 1.0, 1.0, True),
                                   RealityEntry("b", None, None, False, error="post-selection unreachable"))),
            product_audits=(("ab", ProductRuleReport(1j, 1j, 1 + 0j, 2 + 0j, True)),),
            notes=("a note",),
            passed=False,
        )
        assert report.to_text() == (
            "scenario: hand-built  (mode=both)\n"
            "  note: a note\n"
            "  acceptance probability: 0.25\n"
            "  acceptance sampled: 0.260000±0.013871 (260 accepted)\n"
            "  stage m:\n"
            "    1: analytic 0.5 sampled 0.700000±0.020000 z 10.00\n"
            "    -1: analytic 0.5 sampled 0.300000±0.020000 z -10.00\n"
            "    verdict: FAIL\n"
            "  stage n:\n"
            "    1: analytic 1\n"
            "  weak probe w (strength 0.05): 2 - 0.5i\n"
            "    pointer shift 0.0995 (exact 0.0996), momentum -0.0125 (exact -0.0124), verdict: FAIL\n"
            "  weak probe v (strength 0.1): 0 + 1i\n"
            "  reality a: eigenvalue 1 with p = 1  [element of reality]\n"
            "  reality b: undefined (post-selection unreachable)\n"
            "  product ab: (1 + 0i) vs (-1 + 0i)  [product rule fails]\n"
            "verdict: FAIL\n"
        )
