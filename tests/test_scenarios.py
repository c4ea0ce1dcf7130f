"""Scenario schema, builtin catalog, and the analytic/oracle runner."""

import copy
import hashlib
import json

import numpy as np
import pytest

from twostate.algebra import (
    SpectralObservable,
    StateVector,
    Unitary,
    basis_state,
    pauli,
    spin_state,
    state_projector_observable,
)
from twostate.errors import ScenarioFormatError, ZeroDenominatorError
from twostate.montecarlo import MeasureStage, UnitaryStage
from twostate.rules import TwoStateVector, abl_probabilities
from twostate.scenarios import (
    ScenarioSpec,
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
    ])
    def test_malformed_document_names_its_field(self, path, fields):
        with pytest.raises(ScenarioFormatError) as info:
            load_scenario(dict(MINIMAL, **fields))
        assert str(info.value).startswith(f"{path}: ")

    def test_spec_rejects_select_outside_the_spectrum(self):
        with pytest.raises(ScenarioFormatError, match=r"^post\.select: eigenvalue 0\.5"):
            ScenarioSpec(name="bad", dim=2, pre=basis_state(2, 0), timeline=(),
                         post_observable=pauli("z"), post_select=0.5)


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
            dists, _ = analytic_predictions(spec)
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
        dists, _ = analytic_predictions(spec)
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
        dists, acceptance = analytic_predictions(spec)
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
        from twostate.scenarios import _weak_reports

        validated = _weak_reports(spec, validate=True)[0]
        assert validated.passed is True
        assert validated.extrapolated == pytest.approx(
            validated.value.real, rel=1e-5
        )

    def test_weak_stage_rejects_strong_company(self):
        spec = ScenarioSpec(
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
        with pytest.raises(ScenarioFormatError, match="weak"):
            run_scenario(spec, mode="analytic")

    def test_counterfactuals_require_unitary_timeline(self):
        spec = ScenarioSpec(
            name="bad-cf",
            dim=2,
            pre=basis_state(2, 0),
            timeline=(MeasureStage(pauli("x"), "strong"),),
            post_observable=pauli("x"),
            post_select=1.0,
            counterfactuals=(("sz", pauli("z")),),
        )
        with pytest.raises(ScenarioFormatError, match="counterfactual"):
            run_scenario(spec, mode="analytic")

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
        reports = [
            run_scenario(builtin(name), mode=mode, trials=20_000, seed=3)
            for mode in ("analytic", "oracle", "both")
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
        reports = [run_scenario(spec, mode=mode, trials=5_000, seed=3) for mode in ("analytic", "both")]
        assert _report_digest(reports) == (
            "65b17c9112681a278f65c77f1a617fe63ea9f034d185ffc35fd50bec9d2a68e8"
        )
