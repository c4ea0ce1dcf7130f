"""Declarative pre/post-selection scenarios: schema, loader, catalog, runner.

A scenario names a preparation, an ordered timeline of unitary segments and
measurement stages, and a single post-selection outcome.  Each scenario can
run in analytic mode (conditional probabilities from one walk, run forward
from the prepared state and backward, over the reversed timeline with U† for
every U, from the post-selection, every other measurement dephased), oracle
mode (the seeded Monte-Carlo sampler), or both, in which case the report
carries per-outcome agreement verdicts.

Document format (JSON object)::

    {
      "name": str,                  # optional
      "dim": int,
      "pre": [amp, ...],            # amp = number or [re, im]
      "timeline": [
        {"unitary": [[amp, ...], ...]},
        {"measure": {"observable": <obs>, "label": str}},
        {"weak_measure": {"operator": <obs> | {"matrix": [[amp,...],...]},
                          "strength": float > 0, "label": str}}
      ],
      "post": {"observable": <obs>, "select": eigenvalue},
      "params": {str: float},      # optional
      "trials": int, "seed": int,  # optional
      "counterfactuals": [{"observable": <obs>, "label": str}],          # optional
      "products": [{"label": str, "left": <op>, "right": <op>}]          # optional
    }

where ``<obs>`` is one of ``{"pauli": "x"|"y"|"z"}``,
``{"spin": {"theta": r, "phi": r}}``,
``{"explicit": [{"eigenvalue": r, "projector": [[amp,...],...]}, ...]}``,
``{"which_path": {}}``, ``{"bell_basis": {}}``, or
``{"detector_basis": {"unitary": [[amp,...],...]}}``.

Counterfactuals are alternative measurements considered one at a time at the
end of the timeline (several incompatible ones may be listed together); they
power the element-of-reality report.  Weak stages, counterfactuals and
products read the pure two-state vector, so ``ScenarioSpec`` rejects each of
them when the spec is built unless the timeline is free of strong measurement
stages and the selected post branch has rank 1.  Angles are radians everywhere.
The 50/50 beamsplitter convention used by the interferometer builtins is
(1/sqrt2)[[1, i], [i, 1]], which makes the dark output port explicit.
"""

from __future__ import annotations

import inspect
import json
import numbers
from dataclasses import dataclass, field, fields
from typing import Any, Mapping, Union

import numpy as np

from . import pointer as pointer_model
from .algebra import (
    LinearOperator,
    SpectralObservable,
    StateVector,
    Unitary,
    basis_state,
    beamsplitter,
    bell_basis,
    detector_basis,
    expand_observable,
    pauli,
    pauli_operator,
    spin_observable,
    spin_state,
    tensor,
    which_path,
)
from .errors import (
    AllRejectedError,
    InsufficientAcceptedTrialsError,
    ObservableError,
    NormalizationError,
    PointerGridError,
    ScenarioFormatError,
    ZeroDenominatorError,
)
from .montecarlo import (
    EnsembleStats,
    MeasureStage,
    OutcomeStat,
    UnitaryStage,
    Z_THRESHOLD,
    _integer,
    _threshold,
    compare_to_abl,
    derive_seed,
    simulate,
)
from .rules import (
    DENOMINATOR_FLOOR,
    OutcomeDistribution,
    ProductRuleReport,
    RealityReport,
    TwoStateVector,
    _rank_one_vector,
    abl_probabilities,
    elements_of_reality,
    product_rule_audit,
    weak_value,
)

DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 7


@dataclass(frozen=True)
class WeakStage:
    """A weakly coupled probe of an operator at a point in the timeline."""

    operator: LinearOperator
    strength: float
    label: str

    @property
    def dim(self) -> int:
        return self.operator.dim


TimelineEntry = Union[UnitaryStage, MeasureStage, WeakStage]


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    dim: int
    pre: StateVector
    timeline: tuple[TimelineEntry, ...]
    post_observable: SpectralObservable
    post_select: float
    params: Mapping[str, float] = field(default_factory=dict)
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    counterfactuals: tuple[tuple[str, SpectralObservable], ...] = ()
    products: tuple[tuple[str, LinearOperator, LinearOperator], ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        """Every check that spans fields, and those of trials and seed, each naming its part by document path."""
        for name, low, high, expected in (("trials", 1, np.inf, "a positive integer"),
                                          ("seed", 0, 2**64, "an integer in [0, 2**64)")):
            try:
                value = _integer(name, getattr(self, name))
                if not low <= value < high:
                    raise ValueError
            except ValueError:
                raise ScenarioFormatError(f"{name}: expected {expected}") from None
            object.__setattr__(self, name, value)  # a Python int, so that the document serializes
        parts = [("pre", self.pre), *((f"timeline[{i}]", e) for i, e in enumerate(self.timeline)),
                 ("post.observable", self.post_observable)]
        parts += [(f"counterfactuals[{i}].observable", obs) for i, (_, obs) in enumerate(self.counterfactuals)]
        for i, (_, left, right) in enumerate(self.products):
            parts += [(f"products[{i}].left", left), (f"products[{i}].right", right)]
        for path, part in parts:
            if part.dim != self.dim:
                raise ScenarioFormatError(f"{path}: dimension {part.dim} != dim {self.dim}")
        for i, entry in enumerate(self.timeline):
            if isinstance(entry, WeakStage) and not (entry.strength > 0 and np.isfinite(entry.strength)):
                raise ScenarioFormatError(f"timeline[{i}].weak_measure.strength: expected a finite number > 0")
        for path, labels in (
            ("timeline", [e.label for e in self.timeline if isinstance(e, (MeasureStage, WeakStage))]),
            ("counterfactuals", [label for label, _ in self.counterfactuals]),
            ("products", [label for label, _, _ in self.products]),
        ):
            if len(set(labels)) != len(labels):
                raise ScenarioFormatError(f"{path}: labels must be unique, got {labels}")
        selected = _built("post.select", self.post_observable.branch_index, self.post_select)
        # weak stages, counterfactuals and products read the pure two-state vector
        readers = [(f"timeline[{i}].weak_measure", "weak stages")
                   for i, e in enumerate(self.timeline) if isinstance(e, WeakStage)]
        readers += [(f"counterfactuals[{i}]", "counterfactuals") for i in range(len(self.counterfactuals))]
        readers += [(f"products[{i}]", "products") for i in range(len(self.products))]
        if readers:
            path, what = readers[0]
            strong = [i for i, e in enumerate(self.timeline) if isinstance(e, MeasureStage)]
            if strong:
                raise ScenarioFormatError(f"{path}: {what} require a timeline free of strong measurement stages; "
                                          f"timeline[{strong[0]}] is one")
            rank = round(np.trace(self.post_observable.projectors[selected]).real)
            if rank != 1:
                raise ScenarioFormatError(f"{path}: {what} require a rank-1 post-selection branch; "
                                          f"post.select picks one of rank {rank}")


# ---------------------------------------------------------------------------
# document parsing


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)  # JSON true/false are not numbers


def _complex_from(value, path: str, i: int) -> complex:
    if _is_number(value):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 and _is_number(value[0]) and _is_number(value[1]):
        return complex(value[0], value[1])
    raise ScenarioFormatError(f"{path}[{i}]: expected a number or [re, im] pair, got {value!r}")


def _vector_from(values, path: str) -> np.ndarray:
    if not isinstance(values, (list, tuple)) or not values:
        raise ScenarioFormatError(f"{path}: expected a nonempty amplitude list")
    return np.array([_complex_from(v, path, i) for i, v in enumerate(values)])


def _matrix_from(values, path: str) -> np.ndarray:
    if not isinstance(values, (list, tuple)) or not values:
        raise ScenarioFormatError(f"{path}: expected a nonempty matrix")
    rows = [_vector_from(row, f"{path}[{i}]") for i, row in enumerate(values)]
    if len({r.size for r in rows}) != 1:
        raise ScenarioFormatError(f"{path}: ragged matrix rows")
    return np.array(rows)


def _number_from(value, path: str) -> float:
    if not _is_number(value):
        raise ScenarioFormatError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _mapping_from(value, path: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ScenarioFormatError(f"{path}: expected an object, got {value!r}")
    return value


def _list_from(value, path: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise ScenarioFormatError(f"{path}: expected a list, got {value!r}")
    return value


def _label_from(body: Mapping, path: str) -> str:
    label = body.get("label")
    if not isinstance(label, str) or not label:
        raise ScenarioFormatError(f"{path}.label: expected a nonempty string")
    return label


def _built(path: str, build, *args):
    """``build(*args)``, with a rejected value raised as a ScenarioFormatError
    naming ``path``: the one place a library error becomes a format error.
    A huge entry overflows the constructor's checks, which then refuse it; numpy
    is not to warn about that on the way."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return build(*args)
    except (ObservableError, NormalizationError, ValueError) as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from exc


def resolve_observable(spec, path: str) -> SpectralObservable:
    """Expand an observable document node into a SpectralObservable."""
    if not isinstance(spec, Mapping) or len(spec) != 1:
        raise ScenarioFormatError(f"{path}: expected a single-key observable object")
    (kind, body), = spec.items()
    if kind == "pauli":
        if body not in ("x", "y", "z"):
            raise ScenarioFormatError(f"{path}.pauli: expected 'x', 'y' or 'z'")
        return pauli(body)
    if kind == "spin":
        body = _mapping_from(body, f"{path}.spin")
        theta = _number_from(body.get("theta"), f"{path}.spin.theta")
        phi = _number_from(body.get("phi", 0.0), f"{path}.spin.phi")
        return _built(path, spin_observable, theta, phi)
    if kind in ("which_path", "bell_basis"):
        if _mapping_from(body, f"{path}.{kind}"):
            raise ScenarioFormatError(f"{path}.{kind}: expected an empty object, got {body!r}")
        return which_path() if kind == "which_path" else bell_basis()
    if kind == "detector_basis":
        body = _mapping_from(body, f"{path}.detector_basis")
        mat = _matrix_from(body.get("unitary"), f"{path}.detector_basis.unitary")
        return _built(path, lambda: detector_basis(Unitary(mat)))
    if kind == "explicit":
        if not isinstance(body, (list, tuple)) or not body:
            raise ScenarioFormatError(f"{path}.explicit: expected a branch list")
        eigs, projs = [], []
        for i, branch in enumerate(body):
            branch = _mapping_from(branch, f"{path}.explicit[{i}]")
            eigs.append(_number_from(branch.get("eigenvalue"), f"{path}.explicit[{i}].eigenvalue"))
            projs.append(_matrix_from(branch.get("projector"), f"{path}.explicit[{i}].projector"))
        return _built(path, SpectralObservable, eigs, projs)
    raise ScenarioFormatError(f"{path}: unknown observable kind {kind!r}")


def _resolve_operator(spec, path: str) -> LinearOperator:
    if isinstance(spec, Mapping) and set(spec) == {"matrix"}:
        return _built(f"{path}.matrix", LinearOperator, _matrix_from(spec["matrix"], f"{path}.matrix"))
    return resolve_observable(spec, path).operator


def _entries(document: Mapping, key: str):
    """``(path, entry)`` for each entry of the optional list ``document[key]``, checked to be an object."""
    for i, entry in enumerate(_list_from(document.get(key, []), key)):
        path = f"{key}[{i}]"
        yield path, _mapping_from(entry, path)


def load_scenario(document) -> ScenarioSpec:
    """Validate a scenario document (dict or JSON text) into a ScenarioSpec."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(document, Mapping):
        raise ScenarioFormatError("scenario document must be a JSON object")
    known = {
        "name", "dim", "pre", "timeline", "post",
        "params", "trials", "seed", "counterfactuals", "products",
    }
    for key in document:
        if key not in known:
            raise ScenarioFormatError(f"{key}: unknown field")

    name = document.get("name", "unnamed")
    if not isinstance(name, str):
        raise ScenarioFormatError(f"name: expected a string, got {name!r}")
    dim = document.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ScenarioFormatError("dim: expected a positive integer")
    pre = _built("pre", StateVector, _vector_from(document.get("pre"), "pre"))

    timeline: list[TimelineEntry] = []
    for i, entry in enumerate(_list_from(document.get("timeline", []), "timeline")):
        path = f"timeline[{i}]"
        if not isinstance(entry, Mapping) or len(entry) != 1:
            raise ScenarioFormatError(f"{path}: expected a single-key stage object")
        (kind, body), = entry.items()
        path = f"{path}.{kind}"
        if kind == "unitary":
            timeline.append(UnitaryStage(_built(path, Unitary, _matrix_from(body, path))))
        elif kind == "measure":
            body = _mapping_from(body, path)
            obs = resolve_observable(body.get("observable"), f"{path}.observable")
            timeline.append(MeasureStage(obs, _label_from(body, path)))
        elif kind == "weak_measure":
            body = _mapping_from(body, path)
            op = _resolve_operator(body.get("operator"), f"{path}.operator")
            strength = _number_from(body.get("strength"), f"{path}.strength")
            timeline.append(WeakStage(op, strength, _label_from(body, path)))
        else:
            raise ScenarioFormatError(f"timeline[{i}]: unknown stage kind {kind!r}")

    post = document.get("post")
    if isinstance(post, (list, tuple)):
        raise ScenarioFormatError("post: exactly one post-selection entry is allowed")
    if not isinstance(post, Mapping):
        raise ScenarioFormatError("post: expected an object with observable and select")
    post_obs = resolve_observable(post.get("observable"), "post.observable")
    select = _number_from(post.get("select"), "post.select")

    params = _mapping_from(document.get("params", {}), "params")
    params = {str(k): _number_from(v, f"params.{k}") for k, v in params.items()}
    counterfactuals = [(_label_from(entry, path), resolve_observable(entry.get("observable"), f"{path}.observable"))
                       for path, entry in _entries(document, "counterfactuals")]
    products = [(_label_from(entry, path), _resolve_operator(entry.get("left"), f"{path}.left"),
                 _resolve_operator(entry.get("right"), f"{path}.right"))
                for path, entry in _entries(document, "products")]

    return ScenarioSpec(
        name=name,
        dim=dim,
        pre=pre,
        timeline=tuple(timeline),
        post_observable=post_obs,
        post_select=select,
        params=params,
        trials=document.get("trials", DEFAULT_TRIALS),
        seed=document.get("seed", DEFAULT_SEED),
        counterfactuals=tuple(counterfactuals),
        products=tuple(products),
    )


def _encode_complex(z: complex):
    return [float(z.real), float(z.imag)]


def _encode_matrix(mat: np.ndarray):
    return [[_encode_complex(z) for z in row] for row in mat]


def _encode_observable(obs: SpectralObservable):
    return {
        "explicit": [
            {"eigenvalue": float(e), "projector": _encode_matrix(p)}
            for e, p in obs.branches()
        ]
    }


def to_document(spec: ScenarioSpec) -> dict[str, Any]:
    """Serialize a ScenarioSpec back to the JSON document schema."""
    timeline = []
    for entry in spec.timeline:
        if isinstance(entry, UnitaryStage):
            timeline.append({"unitary": _encode_matrix(entry.unitary.matrix)})
        elif isinstance(entry, MeasureStage):
            timeline.append({"measure": {"observable": _encode_observable(entry.observable),
                                         "label": entry.label}})
        else:
            timeline.append({"weak_measure": {"operator": {"matrix": _encode_matrix(entry.operator.matrix)},
                                              "strength": entry.strength,
                                              "label": entry.label}})
    doc: dict[str, Any] = {
        "name": spec.name,
        "dim": spec.dim,
        "pre": [_encode_complex(a) for a in spec.pre.amps],
        "timeline": timeline,
        "post": {"observable": _encode_observable(spec.post_observable),
                 "select": float(spec.post_select)},
        "params": dict(spec.params),
        "trials": spec.trials,
        "seed": spec.seed,
    }
    if spec.counterfactuals:
        doc["counterfactuals"] = [
            {"label": label, "observable": _encode_observable(obs)}
            for label, obs in spec.counterfactuals
        ]
    if spec.products:
        doc["products"] = [
            {"label": label,
             "left": {"matrix": _encode_matrix(left.matrix)},
             "right": {"matrix": _encode_matrix(right.matrix)}}
            for label, left, right in spec.products
        ]
    return doc


# ---------------------------------------------------------------------------
# builtin catalog


def _parameter(name: str, value: float) -> float:
    """A catalog parameter as a float; ValueError unless it is a real number (a bool is not), as in the loader."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"parameter {name} must be a number, got {value!r}")
    return float(value)


def _check_angle(name: str, value: float, low: float, high: float) -> float:
    value = _parameter(name, value)
    if not np.isfinite(value) or not (low <= value <= high):
        raise ValueError(f"parameter {name}={value!r} outside documented range [{low}, {high}]")
    return value


def _interferometer(name: str, before: list[Unitary], after: list[Unitary], which_path_stage: bool,
                    params: dict[str, float], notes: str) -> ScenarioSpec:
    """Light in at port u through the splitters ``before``, the optional path
    detector, the splitters ``after``, and post-selected at detector D1."""
    if which_path_stage not in (True, False):
        raise ValueError(f"parameter which_path_stage must be a bool, 0 or 1, got {which_path_stage!r}")
    path = (MeasureStage(which_path(), "path"),) if which_path_stage else ()
    return ScenarioSpec(
        name=name,
        dim=2,
        pre=basis_state(2, 0),
        timeline=(*map(UnitaryStage, before), *path, *map(UnitaryStage, after)),
        # D1 <-> port d (index 1), D2 <-> port u (index 0); for the balanced
        # interferometer fed through port u, all amplitude exits at D1.
        post_observable=detector_basis(Unitary([[0, 1], [1, 0]])),
        post_select=1.0,
        params={**params, "which_path": 1.0 if which_path_stage else 0.0},
        notes=(notes,),
    )


def _builtin_spin_zz_xi(theta: float = np.pi / 3) -> ScenarioSpec:
    theta = _check_angle("theta", theta, 0.0, np.pi)
    up_z = basis_state(2, 0)
    return ScenarioSpec(
        name="spin-zz-xi",
        dim=2,
        pre=up_z,
        timeline=(MeasureStage(spin_observable(theta), "probe"),),
        post_observable=pauli("z"),
        post_select=1.0,
        params={"theta": theta},
        notes=(
            "pre- and post-select spin-up along z; probe the spin component "
            "tilted by theta in between",
        ),
    )


def _builtin_sharp_shanks(theta_ab: float = np.pi / 3, theta_bc: float = np.pi / 2) -> ScenarioSpec:
    theta_ab = _check_angle("theta_ab", theta_ab, 0.0, np.pi)
    theta_bc = _check_angle("theta_bc", theta_bc, 0.0, np.pi)
    return ScenarioSpec(
        name="sharp-shanks",
        dim=2,
        pre=basis_state(2, 0),
        timeline=(MeasureStage(spin_observable(theta_ab), "middle"),),
        post_observable=spin_observable(theta_ab + theta_bc),
        post_select=1.0,
        params={"theta_ab": theta_ab, "theta_bc": theta_bc},
        notes=(
            "three consecutive spin-component measurements along coplanar axes "
            "a, b, c with relative angles theta_ab and theta_bc; prepared up "
            "along a, post-selected up along c",
        ),
    )


def _builtin_mach_zehnder(which_path_stage: bool = True) -> ScenarioSpec:
    return _interferometer(
        "mach-zehnder", [beamsplitter()], [beamsplitter()], which_path_stage, {},
        "balanced interferometer reconstruction: input port u, 50/50 "
        "splitters (1/sqrt2)[[1,i],[i,1]], optional path detector between "
        "them; detector D1 sits on the bright output port",
    )


def _builtin_tandem_mz(
    theta_1a: float = 0.6,
    theta_1b: float = 1.1,
    theta_2a: float = 0.8,
    theta_2b: float = 0.5,
    which_path_stage: bool = True,
) -> ScenarioSpec:
    given = {"theta_1a": theta_1a, "theta_1b": theta_1b, "theta_2a": theta_2a, "theta_2b": theta_2b}
    angles = {name: _check_angle(name, value, 0.0, np.pi / 2) for name, value in given.items()}
    splitters = [beamsplitter(angle) for angle in angles.values()]
    return _interferometer(
        "tandem-mz", splitters[:2], splitters[2:], which_path_stage, angles,
        "two cascaded two-mode interferometers on one path space with an "
        "optional which-path detector between them; generic reconstruction "
        "parameterized by both splitter-angle pairs",
    )


def _builtin_erasure(theta: float = 0.7, phi: float = 1.1) -> ScenarioSpec:
    theta = _check_angle("theta", theta, 0.0, np.pi)
    phi = _parameter("phi", phi)
    if not np.isfinite(phi):
        raise ValueError("parameter phi must be finite")
    particle = spin_state(theta, phi)
    ancilla = basis_state(2, 0)
    return ScenarioSpec(
        name="erasure",
        dim=4,
        pre=tensor(particle, ancilla),
        timeline=(
            MeasureStage(bell_basis(), "bell"),
            MeasureStage(expand_observable(pauli("y"), after=2), "sy"),
        ),
        post_observable=expand_observable(pauli("x"), after=2),
        post_select=1.0,
        params={"theta": theta, "phi": phi},
        notes=(
            "particle (slow factor) plus ancilla: an entangling Bell-basis "
            "measurement erases the particle's prepared past, so retrodiction "
            "of the in-between spin-y from the later spin-x outcome becomes "
            "symmetric: 50/50 in every Bell branch",
        ),
    )


def _builtin_reality_pair() -> ScenarioSpec:
    return ScenarioSpec(
        name="reality-pair",
        dim=2,
        pre=basis_state(2, 0),
        timeline=(),
        post_observable=pauli("x"),
        post_select=1.0,
        counterfactuals=(("sz", pauli("z")), ("sx", pauli("x"))),
        products=(("sz*sx", pauli_operator("z"), pauli_operator("x")),),
        notes=(
            "prepared up along z and post-selected up along x, both sz=+1 and "
            "sx=+1 are certain (elements of reality), yet the weak value of "
            "the product sz*sx is -1, breaking the product rule",
        ),
    )


_BUILTINS = {
    "spin-zz-xi": _builtin_spin_zz_xi,
    "sharp-shanks": _builtin_sharp_shanks,
    "mach-zehnder": _builtin_mach_zehnder,
    "tandem-mz": _builtin_tandem_mz,
    "erasure": _builtin_erasure,
    "reality-pair": _builtin_reality_pair,
}


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def builtin_parameters(name: str) -> tuple[str, ...]:
    """The keyword parameters of a named catalog scenario, in order."""
    return tuple(inspect.signature(_BUILTINS[name]).parameters)


def builtin(name: str, **params) -> ScenarioSpec:
    """Instantiate a named catalog scenario; see builtin_names()."""
    if name not in _BUILTINS:
        raise ValueError(
            f"unknown builtin {name!r}; available: {', '.join(sorted(_BUILTINS))}"
        )
    allowed = builtin_parameters(name)
    for key in params:
        if key not in allowed:
            raise ValueError(f"builtin {name!r} takes no parameter {key!r}; allowed: {allowed}")
    return _BUILTINS[name](**params)


# ---------------------------------------------------------------------------
# runner


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.12g} {sign} {abs(z.imag):.12g}i"


def _record(report) -> dict[str, Any]:
    """A flat report dataclass as a JSON-ready dict, field by field: tuples
    become lists and complex values [re, im]."""
    out = {}
    for f in fields(report):
        value = getattr(report, f.name)
        if isinstance(value, complex):
            value = _encode_complex(value)
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


@dataclass(frozen=True)
class StageReport:
    label: str
    eigenvalues: tuple[float, ...]
    analytic: tuple[float, ...] | None = None
    frequencies: tuple[float, ...] | None = None
    std_errors: tuple[float, ...] | None = None
    z_scores: tuple[float, ...] | None = None
    passed: bool | None = None


@dataclass(frozen=True)
class WeakValueReport:
    label: str
    strength: float
    value: complex
    grid_shift: float | None = None
    exact_shift: float | None = None
    grid_momentum: float | None = None
    exact_momentum: float | None = None
    passed: bool | None = None


@dataclass(frozen=True)
class ScenarioReport:
    scenario: str
    mode: str
    trials: int | None
    seed: int | None
    acceptance_analytic: float | None
    acceptance: OutcomeStat | None
    stages: tuple[StageReport, ...]
    weak: tuple[WeakValueReport, ...] = ()
    reality: RealityReport | None = None
    product_audits: tuple[tuple[str, ProductRuleReport], ...] = ()
    notes: tuple[str, ...] = ()
    passed: bool | None = None

    def to_dict(self) -> dict[str, Any]:
        """Every field in declaration order; nested reports as dicts too."""
        a = self.acceptance
        return {
            **_record(self),
            "acceptance": None if a is None else {
                "frequency": a.frequency, "std_error": a.std_error, "count": a.count
            },
            "stages": [_record(st) for st in self.stages],
            "weak": [_record(w) for w in self.weak],
            "reality": None if self.reality is None else [_record(e) for e in self.reality.entries],
            "product_audits": [{"label": label, **_record(r)} for label, r in self.product_audits],
        }

    def csv_rows(self) -> list[dict[str, Any]]:
        """One row per (stage, eigenvalue) for plot-ready output."""
        def at(values, i):
            return None if values is None else values[i]

        return [{"scenario": self.scenario, "stage": st.label, "eigenvalue": eig, "analytic": at(st.analytic, i),
                 "frequency": at(st.frequencies, i), "se": at(st.std_errors, i), "z": at(st.z_scores, i),
                 "pass": st.passed}
                for st in self.stages for i, eig in enumerate(st.eigenvalues)]

    def to_text(self) -> str:
        """The human-readable report: acceptance, each stage's outcomes,
        weak probes, elements of reality, product audits and the verdict."""
        lines = [f"scenario: {self.scenario}  (mode={self.mode})"]
        for note in self.notes:
            lines.append(f"  note: {note}")
        if self.acceptance_analytic is not None:
            lines.append(f"  acceptance probability: {_fmt(self.acceptance_analytic)}")
        if self.acceptance is not None:
            a = self.acceptance
            lines.append(
                f"  acceptance sampled: {a.frequency:.6f}±{a.std_error:.6f} ({a.count} accepted)"
            )
        for st in self.stages:
            lines.append(f"  stage {st.label}:")
            for i, eig in enumerate(st.eigenvalues):
                parts = [f"    {_fmt(eig)}:"]
                if st.analytic is not None:
                    parts.append(f"analytic {_fmt(st.analytic[i])}")
                if st.frequencies is not None:
                    parts.append(f"sampled {st.frequencies[i]:.6f}±{st.std_errors[i]:.6f}")
                if st.z_scores is not None:
                    parts.append(f"z {st.z_scores[i]:.2f}")
                lines.append(" ".join(parts))
            if st.passed is not None:
                lines.append(f"    verdict: {'pass' if st.passed else 'FAIL'}")
        for w in self.weak:
            lines.append(f"  weak probe {w.label} (strength {_fmt(w.strength)}): {_fmt_complex(w.value)}")
            if w.passed is not None:
                lines.append(
                    f"    pointer shift {_fmt(w.grid_shift)} (exact {_fmt(w.exact_shift)}), "
                    f"momentum {_fmt(w.grid_momentum)} (exact {_fmt(w.exact_momentum)}), "
                    f"verdict: {'pass' if w.passed else 'FAIL'}"
                )
        if self.reality is not None:
            for e in self.reality.entries:
                if e.error is not None:
                    lines.append(f"  reality {e.label}: undefined ({e.error})")
                else:
                    lines.append(
                        f"  reality {e.label}: eigenvalue {_fmt(e.eigenvalue)} with "
                        f"p = {_fmt(e.probability)}"
                        + ("  [element of reality]" if e.certain else "")
                    )
        for label, audit in self.product_audits:
            lines.append(
                f"  product {label}: ({_fmt_complex(audit.ab_weak)}) vs "
                f"({_fmt_complex(audit.a_weak * audit.b_weak)})"
                + ("  [product rule fails]" if audit.failed else "")
            )
        if self.passed is not None:
            lines.append(f"verdict: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AnalyticPredictions:
    """What the one analytic pass yields; see ``analytic_predictions``."""

    distributions: list[OutcomeDistribution]  # one per measurement stage, in timeline order
    acceptance: float  # Tr(Qρ) at the end
    two_state: dict[int, TwoStateVector]  # by timeline position


def _walk(rho: np.ndarray, ket: np.ndarray | None, timeline, adjoint: bool = False) -> list[tuple]:
    """(ρ, ket, stack) arriving at each entry of ``timeline``, then past its
    end: ρ → UρU† and ket → U ket at a unitary, with U† for U when ``adjoint``;
    ρ → Σ_j P_j ρ P_j at a measurement, whose stack P_j ρ P_j is kept (else
    None); a weak stage leaves both unchanged.  A None ket is not walked."""
    walked = []
    for entry in timeline:
        stack = None
        if isinstance(entry, MeasureStage):
            projs = entry.observable.projectors
            stack = projs @ rho @ projs
        walked.append((rho, ket, stack))
        if isinstance(entry, UnitaryStage):
            pair = (entry.unitary.matrix, entry.unitary.matrix.conj().T)
            u, u_dagger = pair[::-1] if adjoint else pair
            rho, ket = u @ rho @ u_dagger, None if ket is None else u @ ket
        elif stack is not None:
            rho = stack.sum(axis=0)
    return walked + [(rho, ket, None)]


def analytic_predictions(spec: ScenarioSpec) -> AnalyticPredictions:
    """Conditional outcome distributions per measurement stage, the acceptance
    probability, and the two-state vector wherever the spec reads it.

    One walk, run in each time direction (the two-state, or past-quantum-state,
    form): forward, the prepared ρ through the unitaries with every
    measurement dephased, ρ → Σ_j P_j ρ P_j; backward, the selected post
    projector Q as an effect E by the same walk over the reversed timeline
    with every U replaced by U†.  At a stage, with ρ from the stages before
    it and E from those after it,

        Prob(a_j | post) = Tr(P_j ρ P_j E) / Σ_k Tr(P_k ρ P_k E),

    the two-state conditional rule when the stage is the only one.  The
    acceptance probability is Tr(Q ρ) at the end.

    The walks also carry the pure factors of ρ and E, the prepared and the
    selected kets.  ``two_state`` maps each weak stage's position, and the
    end's when the spec has counterfactuals or products, to the
    ``TwoStateVector`` at that position, where ``ScenarioSpec`` guarantees
    that ρ and E are pure.  A spec that reads no two-state vector walks no
    kets, and its selected ket is never built.
    """
    q_sel = spec.post_observable.projectors[spec.post_observable.branch_index(spec.post_select)]
    end = len(spec.timeline)
    # the positions whose two-state vector is read; with none, no ket is walked
    reads = [position for position, entry in enumerate(spec.timeline) if isinstance(entry, WeakStage)]
    if spec.counterfactuals or spec.products:
        reads.append(end)
    forward = _walk(np.outer(spec.pre.amps, spec.pre.amps.conj()), spec.pre.amps if reads else None, spec.timeline)
    acceptance = float(np.trace(q_sel @ forward[end][0]).real)
    if acceptance <= DENOMINATOR_FLOOR:
        raise ZeroDenominatorError(f"scenario {spec.name!r}: post-selection unreachable through every branch")
    post_ket = _rank_one_vector(q_sel).amps if reads else None
    backward = _walk(q_sel, post_ket, reversed(spec.timeline), adjoint=True)[::-1]
    distributions = []
    # ρ arriving at each stage, E leaving it: backward[position + 1] has walked back through the later stages
    for (_, _, stack), (effect, _, _), entry in zip(forward, backward[1:], spec.timeline):
        if stack is not None:
            weights = np.einsum("kab,ba->k", stack, effect).real
            distributions.append(OutcomeDistribution(tuple(entry.observable.eigenvalues),
                                                     tuple(weights / weights.sum())))
    # a weak stage leaves both kets as they are, so backward[position] holds the ket leaving it too
    two_state = {position: TwoStateVector(StateVector(forward[position][1]), StateVector(backward[position][1]))
                 for position in reads}
    return AnalyticPredictions(distributions, acceptance, two_state)


def _weak_report(position: int, stage: WeakStage, tsv: TwoStateVector, validate: bool) -> WeakValueReport:
    """The weak value of the stage at ``timeline[position]``; when ``validate``
    is set, a Hermitian operator couples a Gaussian pointer once, at the
    stated strength λ, and the grid's post-selected mean shift and momentum
    must equal ``gaussian_pointer_means`` within 1e-12·max(1, λ·max|a_j|)/N:
    the grid's rounding grows as the pointer's post-selection probability N
    shrinks.  A λ beyond the grid raises ScenarioFormatError naming it.
    """
    value = weak_value(tsv, stage.operator)
    if not (validate and stage.operator.is_hermitian()):
        return WeakValueReport(stage.label, stage.strength, value)
    coupling = pointer_model.CouplingSpec(stage.strength, SpectralObservable.from_hermitian(stage.operator.matrix))
    pointer = pointer_model.make_gaussian_pointer()
    try:
        joint = pointer_model.couple(tsv.pre, pointer, coupling)
    except PointerGridError as exc:
        raise ScenarioFormatError(f"timeline[{position}].weak_measure.strength: {exc}") from None
    shift = pointer_model.post_selected_mean_shift(joint, tsv.post)
    momentum = pointer_model.post_selected_momentum_mean(joint, tsv.post)
    exact_shift, exact_momentum, norm = pointer_model.gaussian_pointer_means(tsv.pre, tsv.post, coupling,
                                                                             pointer.sigma)
    tol = 1e-12 * max(1.0, stage.strength * float(np.max(np.abs(coupling.observable.eigenvalues)))) / norm
    passed = abs(shift - exact_shift) <= tol and abs(momentum - exact_momentum) <= tol
    return WeakValueReport(stage.label, stage.strength, value, shift, exact_shift, momentum, exact_momentum, passed)


def _stage_report(
    scenario: str,
    stage: MeasureStage,
    predicted: OutcomeDistribution | None,
    stats: EnsembleStats | None,
    z: float,
) -> StageReport:
    """The report of one measurement of ``scenario``, labelled as its stage: its analytic
    distribution, its sampled conditional frequencies in ``stats``, and their comparison at
    ``z``, each when there is something to report; one below the floor names both."""
    analytic = freqs = errs = zs = passed = None
    if predicted is not None:
        analytic = tuple(predicted.probabilities)
    if stats is not None:
        cond = stats.conditional(stage.label)
        freqs = tuple(s.frequency for s in cond)
        errs = tuple(s.std_error for s in cond)
        if predicted is not None:
            try:
                comparison = compare_to_abl(stats, predicted, z=z, stage_label=stage.label)
            except InsufficientAcceptedTrialsError as exc:
                raise InsufficientAcceptedTrialsError(f"scenario {scenario!r}, stage {stage.label!r}: {exc}") from exc
            zs = tuple(o.z_score for o in comparison.outcomes)
            passed = comparison.passed
    eigenvalues = tuple(float(e) for e in stage.observable.eigenvalues)
    return StageReport(stage.label, eigenvalues, analytic, freqs, errs, zs, passed)


def _sampled(spec: ScenarioSpec, trials: int, seed: int, *extra: MeasureStage) -> EnsembleStats:
    """The oracle's run of the timeline without its weak stages, then ``extra``: every run
    a scenario makes goes through here, and one that rejects every trial names the scenario."""
    stages = [e for e in spec.timeline if not isinstance(e, WeakStage)]
    try:
        return simulate(spec.pre, [*stages, *extra], (spec.post_observable, spec.post_select), trials, seed)
    except AllRejectedError as exc:
        raise AllRejectedError(f"scenario {spec.name!r}: {exc}") from exc


def run_scenario(
    spec: ScenarioSpec,
    mode: str = "both",
    trials: int | None = None,
    seed: int | None = None,
    z: float | None = None,
) -> ScenarioReport:
    """Run one scenario in 'analytic', 'oracle', or 'both' mode; ``z`` defaults to ``Z_THRESHOLD``."""
    if mode not in ("analytic", "oracle", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    for name, value in (("trials", trials), ("seed", seed), ("z", z)):
        if mode == "analytic" and value is not None:
            raise ValueError(f"{name} overrides the Monte-Carlo oracle, which mode 'analytic' does not run")
    trials = spec.trials if trials is None else _integer("trials", trials)
    seed = spec.seed if seed is None else _integer("seed", seed)
    z = Z_THRESHOLD if z is None else _threshold(z)
    want_analytic = mode in ("analytic", "both")
    want_oracle = mode in ("oracle", "both")

    predictions = analytic_predictions(spec)
    weak = tuple(_weak_report(i, stage, predictions.two_state[i], validate=want_oracle)
                 for i, stage in enumerate(spec.timeline) if isinstance(stage, WeakStage))
    tsv_end = predictions.two_state.get(len(spec.timeline))
    reality = elements_of_reality(tsv_end, spec.counterfactuals) if spec.counterfactuals else None
    audits = tuple((label, product_rule_audit(tsv_end, left, right)) for label, left, right in spec.products)

    stats = _sampled(spec, trials, seed) if want_oracle else None
    stage_reports = [_stage_report(spec.name, stage, predictions.distributions[i] if want_analytic else None, stats, z)
                     for i, stage in enumerate(e for e in spec.timeline if isinstance(e, MeasureStage))]
    # counterfactual observables are validated one at a time by appending the
    # alternative measurement at the end of the (unitary-only) timeline
    if want_oracle:
        for j, (label, obs) in enumerate(spec.counterfactuals):
            stage = MeasureStage(obs, f"counterfactual:{label}")
            alt_stats = _sampled(spec, trials, derive_seed(seed, 1 + j), stage)
            predicted = abl_probabilities(tsv_end, obs) if want_analytic else None
            stage_reports.append(_stage_report(spec.name, stage, predicted, alt_stats, z))

    verdicts = [r.passed for r in (*stage_reports, *weak) if r.passed is not None]
    return ScenarioReport(
        scenario=spec.name,
        mode=mode,
        trials=trials if want_oracle else None,
        seed=seed if want_oracle else None,
        acceptance_analytic=predictions.acceptance if want_analytic else None,
        acceptance=stats.acceptance if stats is not None else None,
        stages=tuple(stage_reports),
        weak=weak,
        reality=reality,
        product_audits=audits,
        notes=spec.notes,
        passed=all(verdicts) if verdicts else None,
    )
