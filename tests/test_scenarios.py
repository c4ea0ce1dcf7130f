"""Scenario schema, builtin catalog, and the analytic/oracle runner."""

import copy
import dataclasses
import hashlib
import json

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
from twostate.errors import ScenarioFormatError, ZeroDenominatorError
from twostate.montecarlo import MeasureStage, OutcomeStat, UnitaryStage
from twostate.rules import ProductRuleReport, RealityEntry, RealityReport, TwoStateVector, abl_probabilities
from twostate.scenarios import (
    ScenarioReport,
    ScenarioSpec,
    StageReport,
    WeakValueReport,
    WeakStage,
    analytic_predictions,
    builtin,
    builtin_names,
    load_scenario,
    run_scenario,
    to_document,
)

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

    def test_catalog_complete(self):
        assert set(builtin_names()) == {
            "spin-zz-xi",
            "sharp-shanks",
            "mach-zehnder",
            "tandem-mz",
            "erasure",
            "reality-pair",
        }

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
            dists, _, _ = analytic_predictions(spec)
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
        dists, _, _ = analytic_predictions(spec)
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
        dists, acceptance, _ = analytic_predictions(spec)
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
        assert validated.weak[0].passed is True
        assert validated.weak[0].value == pytest.approx(wv)
        assert validated.weak[0].extrapolated == pytest.approx(wv.real, abs=1e-5)

    def test_weak_stage_couples_once_per_coupling(self, monkeypatch):
        # A_w = <+x|sy|up-z> / <+x|up-z> = i: the momentum reading shares the λ joint with the λ shift
        spec = ScenarioSpec(name="weak-y", dim=2, pre=basis_state(2, 0),
                            timeline=(WeakStage(pauli("y").operator, 0.05, "wy"),),
                            post_observable=pauli("x"), post_select=1.0)
        calls = []
        couple = pointer_model.couple
        monkeypatch.setattr(pointer_model, "couple", lambda *args: calls.append(args) or couple(*args))
        weak = run_scenario(spec, mode="both", trials=1_000, seed=5).weak[0]
        assert weak.value == pytest.approx(1j) and weak.momentum_sign_ok is True
        assert [coupling.strength for _, _, coupling in calls] == [0.05, 0.025]

    def test_weak_stage_validation_survives_amplification(self):
        # near-orthogonal selections push the weak value far outside the
        # spectrum; the pointer cross-check must still land on it
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
        assert validated.extrapolated == pytest.approx(
            validated.value.real, rel=1e-5
        )

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
        assert (weak.shift_per_strength, weak.extrapolated, weak.passed) == (None, None, None)
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

    @pytest.mark.parametrize("field, value", [("trials", -5), ("seed", -9)])
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
        spec = ScenarioSpec(
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
        reports = [run_scenario(spec, mode="analytic"), run_scenario(spec, mode="both", trials=5_000, seed=3)]
        assert _report_digest(reports) == (
            "65b17c9112681a278f65c77f1a617fe63ea9f034d185ffc35fd50bec9d2a68e8"
        )

    def test_two_weak_stages_between_unitaries(self):
        phase = Unitary(np.diag([1.0, np.exp(0.5j)]))
        spec = ScenarioSpec(
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
        reports = [run_scenario(spec, mode="analytic"), run_scenario(spec, mode="both", trials=5_000, seed=3)]
        assert _report_digest(reports) == (
            "e7bb6920be340129a043d42c6cb583553a4c578ea91d95a000d518c0e1c85391"
        )


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
            weak=(WeakValueReport("w", 0.05, complex(2, -0.5), 1.9, 2.0000001, False, False),
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
            "    pointer shift/strength 1.9, extrapolated 2.0000001, verdict: FAIL\n"
            "  weak probe v (strength 0.1): 0 + 1i\n"
            "  reality a: eigenvalue 1 with p = 1  [element of reality]\n"
            "  reality b: undefined (post-selection unreachable)\n"
            "  product ab: (1 + 0i) vs (-1 + 0i)  [product rule fails]\n"
            "verdict: FAIL\n"
        )
