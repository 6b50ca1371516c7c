"""Problem-file ingestion, and the [re, im] encoding that reports share.

A problem is a single JSON document. Complex scalars are encoded as
[re, im] pairs and matrices as row-major arrays of such pairs, so fixtures
are bit-exact and diff-friendly. Channels (and channel families) are given
either as a named preset with parameters or as an explicit Kraus list;
a list of such specs denotes composition, applied in order.

Every value is read one way: arrays of [re, im] pairs by `_array`, numbers
by `_number` and objects, whose keys are fixed, by `_object`. A malformed
value raises ValidationError before any arithmetic touches it.
"""

from __future__ import annotations

import gc
import json
import sys
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import channels as ch_presets
from .errors import ValidationError
from .operators import (
    DerivativeChannel,
    HermitianOperator,
    Povm,
    PureState,
    QuantumChannel,
    commuting_derivative,
    finite_difference_derivative,
    require_valid,
)
from .optimizer import OptimizerConfig
from .oracles import GaussianPrior

POVM_PRESETS = {
    "computational": ch_presets.basis_povm,
    "sigma_x": lambda dim: ch_presets.pauli_basis_povm("x"),
    "sigma_y": lambda dim: ch_presets.pauli_basis_povm("y"),
    "sigma_z": lambda dim: ch_presets.pauli_basis_povm("z"),
}

# the OptimizerConfig fields a problem file sets, and reports echo
OPTIMIZER_FIELDS = ("tol", "max_iters", "eps_rank", "eps_deg", "restarts", "seed", "init_mode")

_KINDS = ("a vector", "a square matrix", "a list of square matrices", "a list of matrix pairs")


@dataclass(frozen=True)
class BayesSpec:
    delta_prior: float = 1e-3
    grid_halfwidth: float = 6.0
    grid_points: int = 201
    sweep: tuple = (0.3, 0.1, 0.03)


@dataclass(frozen=True)
class ProblemFile:
    dim: int
    generator: HermitianOperator
    channel: QuantumChannel
    povm: Povm | None
    derivative_channel: DerivativeChannel | None
    input_state: PureState | None
    optimizer: OptimizerConfig
    bayes: BayesSpec | None
    text: str | bytes  # as given to parse_problem; reports echo its SHA-256


def _array(x, what: str, ndim: int) -> np.ndarray:
    """The non-empty complex array with `ndim` axes, the last two equal if
    ndim >= 2, that x encodes as nested [re, im] pairs of finite numbers.
    Checked before any arithmetic; the bits are those of complex(re, im)."""
    try:
        a = np.array(x)
    except ValueError:  # ragged rows
        a = np.array(None)
    # strings, null, objects and integers beyond 64 bits give other kinds
    if a.dtype.kind not in "iuf":
        raise ValidationError(f"{what}: expected nested arrays of [re, im] number pairs")
    shape = a.shape[:-1]
    if (a.ndim != ndim + 1 or a.shape[-1] != 2 or 0 in shape
            or (ndim > 1 and shape[-1] != shape[-2])):
        raise ValidationError(f"{what}: expected {_KINDS[ndim - 1]} of [re, im] pairs, "
                              f"got shape {a.shape}")
    a = a.astype(float, copy=False)
    if not np.isfinite(a).all():
        raise ValidationError(f"{what}: entries must be finite numbers")
    return a.view(complex)[..., 0]


def _number(x, what: str, integer: bool = False):
    """x if it is a JSON number (an integer if `integer`) within float range."""
    if (isinstance(x, bool) or not isinstance(x, int if integer else (int, float))
            or not abs(x) <= sys.float_info.max):
        raise ValidationError(f"{what} must be a finite {'integer' if integer else 'number'}, "
                              f"got {x!r}")
    return x


def _object(spec, what: str, required=(), optional=()) -> dict:
    """spec if it is a JSON object with every `required` key and no other outside `optional`."""
    if not isinstance(spec, dict):
        raise ValidationError(f"{what} must be a JSON object")
    unknown = set(spec) - set(required) - set(optional)
    if unknown:
        raise ValidationError(f"unknown {what} fields: {sorted(unknown)}")
    for key in required:
        if key not in spec:
            raise ValidationError(f"missing required field '{key}' in {what}")
    return spec


def _preset(name, table: dict, what: str):
    if not isinstance(name, str) or name not in table:
        raise ValidationError(f"unknown {what} preset {name!r}")
    return table[name]


def decode_matrix(rows, what="matrix"):
    return _array(rows, what, 2)


def encode_array(a) -> list:
    """Nested [re, im] pairs of a complex array."""
    return np.stack((a.real, a.imag), -1).tolist()


# name -> (channel constructor, reader of each param, the params it needs)
CHANNEL_PRESETS = {
    "identity": (ch_presets.identity_channel, {"dim": partial(_number, integer=True)}, ()),
    "unitary": (ch_presets.unitary_channel, {"exponent": decode_matrix, "angle": _number},
                ("exponent",)),
    "dephasing": (ch_presets.dephasing_channel, {"eta": _number}, ("eta",)),
    "depolarizing": (ch_presets.depolarizing_channel, {"p": _number}, ("p",)),
    "amplitude-damping": (ch_presets.amplitude_damping_channel, {"gamma": _number}, ("gamma",)),
}


def _decode_one_channel(spec, dim: int, phi: dict | None = None) -> QuantumChannel:
    """One channel stage. In a finite-difference family, phi maps the varied
    param to its value, which stages marked "phi": true take."""
    if not isinstance(spec, dict):
        raise ValidationError("channel spec must be an object or a list of objects")
    forms = [k for k in ("preset", "kraus") if k in spec]
    if len(forms) != 1:
        raise ValidationError(
            "exactly one channel form ('preset' or 'kraus') must be present, "
            f"found {forms or 'none'}"
        )
    if "kraus" in spec:
        _object(spec, "Kraus channel", ("kraus",))
        return QuantumChannel(tuple(_array(spec["kraus"], "Kraus operators", 3)))
    _object(spec, "preset channel", ("preset",), ("params", "phi") if phi else ("params",))
    name = spec["preset"]
    build, readers, needed = _preset(name, CHANNEL_PRESETS, "channel")
    params = spec.get("params", {})
    if not isinstance(spec.get("phi", False), bool):
        raise ValidationError("'phi' must be true or false")
    if spec.get("phi") and isinstance(params, dict):
        params = {**params, **phi}
    what = f"channel preset '{name}'"
    kwargs = {k: readers[k](v, f"{what} param '{k}'")
              for k, v in _object(params, f"{what} params", needed, readers).items()}
    # every stage maps the problem's space to itself: checked before building
    if "dim" in readers and kwargs.setdefault("dim", dim) != dim:
        raise ValidationError(f"{what} has dim {kwargs['dim']}, declared dim is {dim}")
    return build(**kwargs)


def decode_channel(spec, dim: int, phi: dict | None = None) -> QuantumChannel:
    stages = spec if isinstance(spec, list) else [spec]
    return ch_presets.compose_channels(*(_decode_one_channel(s, dim, phi) for s in stages))


def decode_povm(spec, dim: int) -> Povm:
    if isinstance(spec, dict) and "preset" in spec:
        _object(spec, "POVM", ("preset",))
        return _preset(spec["preset"], POVM_PRESETS, "POVM")(dim)
    spec = _object(spec, "POVM", ("elements",), ("labels",))
    labels = spec.get("labels", [])
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise ValidationError("POVM labels must be a list of strings")
    return Povm(_array(spec["elements"], "POVM elements", 3), tuple(labels))


def decode_derivative_channel(spec, dim: int, channel: QuantumChannel,
                              generator: HermitianOperator) -> DerivativeChannel:
    spec = _object(spec, "derivative_channel", (), ("terms", "commuting", "finite_difference"))
    if len(spec) != 1:
        raise ValidationError(
            "exactly one derivative form ('terms', 'commuting' or 'finite_difference') "
            f"must be present, found {list(spec) or 'none'}"
        )
    if "terms" in spec:
        return DerivativeChannel(tuple(_array(spec["terms"], "derivative terms", 4)))
    if "commuting" in spec:
        if spec["commuting"] is not True:
            raise ValidationError("'commuting' must be true when present")
        return commuting_derivative(channel, generator)
    fd = _object(spec["finite_difference"], "finite_difference", ("family",),
                 ("delta", "phi0", "phi_param"))
    phi_param = fd.get("phi_param", "angle")
    if not isinstance(phi_param, str):
        raise ValidationError(f"finite_difference phi_param must be a string, got {phi_param!r}")
    return finite_difference_derivative(
        lambda phi: decode_channel(fd["family"], dim, {phi_param: phi}),
        phi0=_number(fd.get("phi0", 0.0), "finite_difference phi0"),
        delta=_number(fd.get("delta", 1e-5), "finite_difference delta"))


def decode_bayes(spec) -> BayesSpec:
    spec = _object(spec, "bayes", (), [f.name for f in fields(BayesSpec)])
    kwargs = {k: _number(v, f"bayes {k}", k == "grid_points")
              for k, v in spec.items() if k != "sweep"}
    if "sweep" in spec:
        if not isinstance(spec["sweep"], list):
            raise ValidationError("bayes sweep must be a list of numbers")
        kwargs["sweep"] = tuple(_number(x, "bayes sweep entry") for x in spec["sweep"])
    bayes = BayesSpec(**kwargs)
    for delta in dict.fromkeys(bayes.sweep + (bayes.delta_prior,)):
        GaussianPrior(delta, bayes.grid_halfwidth, bayes.grid_points)  # the prior's own checks
    return bayes


def decode_optimizer(spec, input_state) -> OptimizerConfig:
    kwargs = dict(_object(spec, "optimizer", (), OPTIMIZER_FIELDS))
    if kwargs.get("init_mode") == "user_supplied":
        if input_state is None:
            raise ValidationError("init_mode 'user_supplied' requires an input_state")
        kwargs["initial_state"] = input_state
    return OptimizerConfig(**kwargs)


def parse_problem(text: str | bytes) -> ProblemFile:
    """Parse and fully validate a problem document, given as text or as the
    bytes of a file (UTF-8, or UTF-16/32 as JSON allows)."""
    # json.loads and the array decoding make millions of small objects and
    # no reference cycles; cyclic collection passes over them would take a
    # quarter of the parse of a large file
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_problem(text)
    finally:
        if enabled:
            gc.enable()


def _parse_problem(text: str | bytes) -> ProblemFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"problem text is not valid Unicode: {exc}")
    except RecursionError:
        raise ValidationError("problem document nests too deeply")
    _object(doc, "problem", ("dim", "generator", "channel"),
            ("povm", "derivative_channel", "input_state", "optimizer", "bayes"))
    dim = _number(doc["dim"], "'dim'", integer=True)  # the generator's dim must match it

    generator = HermitianOperator(decode_matrix(doc["generator"], "generator"))
    if generator.dim != dim:
        raise ValidationError(f"generator has dim {generator.dim}, declared dim is {dim}")
    require_valid(generator, "generator")

    channel = decode_channel(doc["channel"], dim)
    if channel.dim_in != dim or channel.dim_out != dim:
        raise ValidationError(
            f"channel acts on dim {channel.dim_in}->{channel.dim_out}, declared dim is {dim}"
        )
    require_valid(channel, "channel")

    povm = None
    if "povm" in doc:
        povm = decode_povm(doc["povm"], dim)
        if povm.dim != dim:
            raise ValidationError(f"POVM has dim {povm.dim}, declared dim is {dim}")
        require_valid(povm, "POVM")

    input_state = None
    if "input_state" in doc:
        input_state = PureState(_array(doc["input_state"], "input_state", 1))
        if input_state.dim != dim:
            raise ValidationError(f"input_state has dim {input_state.dim}, declared dim is {dim}")
        require_valid(input_state, "input_state")

    dch = None
    if "derivative_channel" in doc:
        dch = decode_derivative_channel(doc["derivative_channel"], dim, channel, generator)
        if dch.dim_in != dim or dch.dim_out != dim:
            raise ValidationError("derivative channel dimension does not match declared dim")
        require_valid(dch, "derivative channel")

    optimizer = decode_optimizer(doc.get("optimizer", {}), input_state)
    bayes = decode_bayes(doc["bayes"]) if "bayes" in doc else None
    return ProblemFile(dim, generator, channel, povm, dch, input_state, optimizer, bayes, text)
