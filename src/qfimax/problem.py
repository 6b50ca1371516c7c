"""Problem-file ingestion and emission.

A problem is a single JSON document. Complex scalars are encoded as
[re, im] pairs and matrices as row-major arrays of such pairs, so fixtures
are bit-exact and diff-friendly. Channels (and channel families) are given
either as a named preset with parameters or as an explicit Kraus list;
a list of such specs denotes composition, applied in order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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

CHANNEL_PRESETS = {
    "identity": lambda dim=2, **kw: ch_presets.identity_channel(int(dim)),
    "unitary": lambda exponent, angle=1.0, **kw: ch_presets.unitary_channel(
        decode_matrix(exponent, "unitary exponent"), float(angle)
    ),
    "dephasing": lambda eta, **kw: ch_presets.dephasing_channel(float(eta)),
    "depolarizing": lambda p, **kw: ch_presets.depolarizing_channel(float(p)),
    "amplitude-damping": lambda gamma, **kw: ch_presets.amplitude_damping_channel(float(gamma)),
}

POVM_PRESETS = {
    "computational": lambda dim=2: ch_presets.basis_povm(int(dim)),
    "sigma_x": lambda dim=2: ch_presets.pauli_basis_povm("x"),
    "sigma_y": lambda dim=2: ch_presets.pauli_basis_povm("y"),
    "sigma_z": lambda dim=2: ch_presets.pauli_basis_povm("z"),
}


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


def decode_complex(pair, what="complex entry"):
    if (not isinstance(pair, (list, tuple))) or len(pair) != 2:
        raise ValidationError(f"{what}: expected a [re, im] pair, got {pair!r}")
    re, im = pair
    if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
        raise ValidationError(f"{what}: [re, im] entries must be numbers")
    return complex(re, im)


def decode_matrix(rows, what="matrix"):
    if not isinstance(rows, list) or not rows:
        raise ValidationError(f"{what}: expected a non-empty array of rows")
    m = np.array([[decode_complex(c, what) for c in row] for row in rows])
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{what}: expected a square matrix, got shape {m.shape}")
    return _require_finite(m, what)


def decode_vector(entries, what="vector"):
    if not isinstance(entries, list) or not entries:
        raise ValidationError(f"{what}: expected a non-empty array")
    return _require_finite(np.array([decode_complex(c, what) for c in entries]), what)


def _require_finite(a: np.ndarray, what: str) -> np.ndarray:
    # before any arithmetic, so that NaN or infinite input raises no numpy warning
    if not np.isfinite(a).all():
        raise ValidationError(f"{what}: entries must be finite numbers")
    return a


def encode_complex(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def encode_matrix(m) -> list:
    return [[encode_complex(z) for z in row] for row in np.asarray(m)]


def encode_vector(v) -> list:
    return [encode_complex(z) for z in np.asarray(v)]


def _decode_one_channel(spec, dim: int) -> QuantumChannel:
    if not isinstance(spec, dict):
        raise ValidationError("channel spec must be an object or a list of objects")
    forms = [k for k in ("preset", "kraus") if k in spec]
    if len(forms) != 1:
        raise ValidationError(
            "exactly one channel form ('preset' or 'kraus') must be present, "
            f"found {forms or 'none'}"
        )
    if "preset" in spec:
        name = spec["preset"]
        if name not in CHANNEL_PRESETS:
            raise ValidationError(f"unknown channel preset '{name}'")
        params = dict(spec.get("params", {}))
        params.setdefault("dim", dim)
        try:
            return CHANNEL_PRESETS[name](**params)
        except TypeError as exc:
            raise ValidationError(f"channel preset '{name}': {exc}") from exc
    kraus = spec["kraus"]
    if not isinstance(kraus, list) or not kraus:
        raise ValidationError("explicit channel needs a non-empty Kraus list")
    return QuantumChannel(tuple(decode_matrix(k, "Kraus operator") for k in kraus))


def decode_channel(spec, dim: int) -> QuantumChannel:
    stages = spec if isinstance(spec, list) else [spec]
    built = [_decode_one_channel(s, dim) for s in stages]
    return ch_presets.compose_channels(*built)


def decode_povm(spec, dim: int) -> Povm:
    if isinstance(spec, dict) and "preset" in spec:
        name = spec["preset"]
        if name not in POVM_PRESETS:
            raise ValidationError(f"unknown POVM preset '{name}'")
        return POVM_PRESETS[name](dim)
    if isinstance(spec, dict) and "elements" in spec:
        els = tuple(decode_matrix(e, "POVM element") for e in spec["elements"])
        labels = tuple(spec.get("labels", ()))
        return Povm(els, labels)
    raise ValidationError("POVM spec needs either 'preset' or 'elements'")


def decode_derivative_channel(spec, dim: int, channel: QuantumChannel,
                              generator: HermitianOperator) -> DerivativeChannel:
    if not isinstance(spec, dict):
        raise ValidationError("derivative_channel spec must be an object")
    forms = [k for k in ("terms", "commuting", "finite_difference") if k in spec]
    if len(forms) != 1:
        raise ValidationError(
            "exactly one derivative form ('terms', 'commuting' or 'finite_difference') "
            f"must be present, found {forms or 'none'}"
        )
    if "terms" in spec:
        pairs = spec["terms"]
        if not isinstance(pairs, list) or not pairs:
            raise ValidationError("derivative 'terms' must be a non-empty list of matrix pairs")
        terms = []
        for pair in pairs:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValidationError("each derivative term must be a [A, B] matrix pair")
            terms.append((decode_matrix(pair[0], "derivative term A"),
                          decode_matrix(pair[1], "derivative term B")))
        return DerivativeChannel(tuple(terms))
    if "commuting" in spec:
        if spec["commuting"] is not True:
            raise ValidationError("'commuting' must be true when present")
        return commuting_derivative(channel, generator)
    fd = spec["finite_difference"]
    if not isinstance(fd, dict) or "family" not in fd:
        raise ValidationError("'finite_difference' needs a 'family' channel spec")
    delta = float(fd.get("delta", 1e-5))
    phi0 = float(fd.get("phi0", 0.0))
    phi_param = fd.get("phi_param", "angle")
    family_spec = fd["family"]
    stages = family_spec if isinstance(family_spec, list) else [family_spec]

    def family(phi):
        built = []
        for s in stages:
            s = dict(s)
            if s.pop("phi", False):
                params = dict(s.get("params", {}))
                params[phi_param] = phi
                s["params"] = params
            built.append(_decode_one_channel(s, dim))
        return ch_presets.compose_channels(*built)

    return finite_difference_derivative(family, phi0=phi0, delta=delta)


def decode_bayes(spec) -> BayesSpec:
    if not isinstance(spec, dict):
        raise ValidationError("bayes spec must be an object")
    return BayesSpec(
        delta_prior=float(spec.get("delta_prior", 1e-3)),
        grid_halfwidth=float(spec.get("grid_halfwidth", 6.0)),
        grid_points=int(spec.get("grid_points", 201)),
        sweep=tuple(float(x) for x in spec.get("sweep", (0.3, 0.1, 0.03))),
    )


def decode_optimizer(spec, input_state) -> OptimizerConfig:
    if not isinstance(spec, dict):
        raise ValidationError("optimizer spec must be an object")
    known = {"tol", "max_iters", "eps_rank", "eps_deg", "restarts", "seed", "init_mode"}
    unknown = set(spec) - known
    if unknown:
        raise ValidationError(f"unknown optimizer fields: {sorted(unknown)}")
    kwargs = dict(spec)
    if kwargs.get("init_mode") == "user_supplied":
        if input_state is None:
            raise ValidationError("init_mode 'user_supplied' requires an input_state")
        kwargs["initial_state"] = input_state
    return OptimizerConfig(**kwargs)


def parse_problem(text: str | bytes) -> ProblemFile:
    """Parse and fully validate a problem document, given as text or as the
    bytes of a file (UTF-8, or UTF-16/32 as JSON allows)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"problem text is not valid Unicode: {exc}")
    if not isinstance(doc, dict):
        raise ValidationError("problem document must be a JSON object")
    known = {"dim", "generator", "channel", "povm", "derivative_channel",
             "input_state", "optimizer", "bayes"}
    unknown = set(doc) - known
    if unknown:
        raise ValidationError(f"unknown problem fields: {sorted(unknown)}")
    for required in ("dim", "generator", "channel"):
        if required not in doc:
            raise ValidationError(f"missing required field '{required}'")
    dim = doc["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise ValidationError(f"'dim' must be a positive integer, got {dim!r}")

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
        input_state = PureState(decode_vector(doc["input_state"], "input_state"))
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


def emit_problem(pf: ProblemFile) -> str:
    """Serialize a problem back to canonical JSON with every operator resolved
    to explicit matrices; re-parsing the output yields the same structure."""
    doc = {
        "dim": pf.dim,
        "generator": encode_matrix(pf.generator.matrix),
        "channel": {"kraus": [encode_matrix(k) for k in pf.channel.kraus]},
    }
    if pf.povm is not None:
        doc["povm"] = {
            "elements": [encode_matrix(e) for e in pf.povm.elements],
            "labels": list(pf.povm.labels),
        }
    if pf.input_state is not None:
        doc["input_state"] = encode_vector(pf.input_state.amplitudes)
    if pf.derivative_channel is not None:
        doc["derivative_channel"] = {
            "terms": [[encode_matrix(a), encode_matrix(b)] for a, b in pf.derivative_channel.terms]
        }
    cfg = pf.optimizer
    doc["optimizer"] = {
        "tol": cfg.tol, "max_iters": cfg.max_iters, "eps_rank": cfg.eps_rank,
        "eps_deg": cfg.eps_deg, "restarts": cfg.restarts, "seed": cfg.seed,
        "init_mode": cfg.init_mode,
    }
    if pf.bayes is not None:
        doc["bayes"] = {
            "delta_prior": pf.bayes.delta_prior,
            "grid_halfwidth": pf.bayes.grid_halfwidth,
            "grid_points": pf.bayes.grid_points,
            "sweep": list(pf.bayes.sweep),
        }
    return json.dumps(doc, indent=2, sort_keys=True)
