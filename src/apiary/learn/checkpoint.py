"""Binary policy checkpoint: self-describing, little-endian, float64.

Layout (all integers u32 LE, floats f64 LE):

    magic   b"APRY"
    version u32                  (currently 1)
    n_actor_sizes u32, sizes...  (layer widths incl. input/output)
    n_critic_sizes u32, sizes...
    obs_dim u32, obs_scales f64 x obs_dim
    log_std_min f64, log_std_max f64
    env_hash 32 bytes            (sha256 of the canonical env-config string)
    parameter arrays f64, flat, in nets.param_list order
    (end of file; trailing bytes are an error)

Loading rebuilds the exact PolicyNet: save -> load -> save is
byte-identical. It refuses a file whose nets do not map OBS_DIM
observations to ACT_DIM actions and 1 value, with a width below 1, an
obs scale that is not positive and finite, or a non-finite parameter.
The env hash lets callers detect a checkpoint replayed under a different
environment configuration without blocking it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import struct

import numpy as np

from ..env import ACT_DIM, OBS_DIM, EnvConfig
from .nets import LOG_STD_MAX, LOG_STD_MIN, MlpParams, PolicyNet, param_list

MAGIC = b"APRY"
VERSION = 1


class CheckpointError(ValueError):
    """Malformed, truncated or wrong-format checkpoint data."""


# the hash's spelling of the nested fields whose names it shortens
_HASH_NAMES = {
    "free_translation": "tmask",
    "free_rotation": "rmask",
    "inertia_diag": "inertia",
    "com_offset": "com",
}


def _hash_value(v) -> str:
    if isinstance(v, (tuple, np.ndarray)):
        return ",".join(_hash_value(x) for x in v)
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(v)
    return f"{v:.17g}"


def _hash_lines(obj) -> list[str]:
    """`name=value` per leaf field, in declaration order, recursing into
    nested dataclasses (the DOF mask, the body and the actuation limits)."""
    lines = []
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        if dataclasses.is_dataclass(v):
            lines.extend(_hash_lines(v))
        else:
            lines.append(f"{_HASH_NAMES.get(f.name, f.name)}={_hash_value(v)}")
    return lines


def env_config_hash(config: EnvConfig) -> bytes:
    """sha256 over a canonical text form of every `EnvConfig` field, nested
    ones included: bools as 0/1, ints in decimal, floats as .17g, and
    sequences comma-joined."""
    return hashlib.sha256("\n".join(_hash_lines(config)).encode("ascii")).digest()


def _pack_u32_list(values: list[int]) -> bytes:
    return struct.pack(f"<I{len(values)}I", len(values), *values)


def save_policy(path, net: PolicyNet, config: EnvConfig) -> None:
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", VERSION))
    buf.write(_pack_u32_list(net.actor.sizes))
    buf.write(_pack_u32_list(net.critic.sizes))
    scales = np.asarray(net.obs_scales, dtype="<f8")
    buf.write(struct.pack("<I", scales.shape[0]))
    buf.write(scales.tobytes())
    buf.write(struct.pack("<dd", LOG_STD_MIN, LOG_STD_MAX))
    buf.write(env_config_hash(config))
    for arr in param_list(net):
        buf.write(np.asarray(arr, dtype="<f8").tobytes())
    with open(path, "wb") as f:
        f.write(buf.getvalue())


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError(
                f"truncated checkpoint: needed {n} bytes at offset {self.pos}, "
                f"file has {len(self.data)}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def f64_array(self, shape) -> np.ndarray:
        n = int(np.prod(shape)) if shape else 1
        raw = self.take(8 * n)
        return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def load_policy(path) -> tuple[PolicyNet, dict]:
    """Read a checkpoint; returns (net, meta) with version/sizes/env_hash in meta.

    A malformed file raises CheckpointError with the path in its message.
    """
    with open(path, "rb") as f:
        data = f.read()
    try:
        return _decode_policy(data)
    except CheckpointError as e:
        raise CheckpointError(f"{path}: {e}") from None


def _decode_policy(data: bytes) -> tuple[PolicyNet, dict]:
    r = _Reader(data)
    if r.take(4) != MAGIC:
        raise CheckpointError("bad magic: not a policy checkpoint")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    n = r.u32()
    if not (2 <= n <= 64):
        raise CheckpointError(f"implausible actor layer count {n}")
    actor_sizes = [r.u32() for _ in range(n)]
    n = r.u32()
    if not (2 <= n <= 64):
        raise CheckpointError(f"implausible critic layer count {n}")
    critic_sizes = [r.u32() for _ in range(n)]
    if (actor_sizes[0], actor_sizes[-1]) != (OBS_DIM, ACT_DIM):
        raise CheckpointError(
            f"actor maps {actor_sizes[0]} inputs to {actor_sizes[-1]} outputs; "
            f"a policy maps {OBS_DIM} observations to {ACT_DIM} actions"
        )
    if (critic_sizes[0], critic_sizes[-1]) != (OBS_DIM, 1):
        raise CheckpointError(
            f"critic maps {critic_sizes[0]} inputs to {critic_sizes[-1]} outputs; "
            f"a value function maps {OBS_DIM} observations to 1 output"
        )
    if min(actor_sizes + critic_sizes) < 1:
        raise CheckpointError(
            f"layer widths must be >= 1, got actor {actor_sizes}, critic {critic_sizes}"
        )
    obs_dim = r.u32()
    if obs_dim != OBS_DIM:
        raise CheckpointError("obs_scales length disagrees with network input size")
    obs_scales = r.f64_array((obs_dim,))
    if not np.all((0.0 < obs_scales) & (obs_scales < np.inf)):
        raise CheckpointError(f"obs scales must be positive and finite: {obs_scales.tolist()}")
    log_std_min = r.f64()
    log_std_max = r.f64()
    if (log_std_min, log_std_max) != (LOG_STD_MIN, LOG_STD_MAX):
        raise CheckpointError("checkpoint built with different log-std clamp bounds")
    env_hash = r.take(32)

    def read_mlp(sizes: list[int]) -> MlpParams:
        ws, bs = [], []
        for k in range(len(sizes) - 1):
            ws.append(r.f64_array((sizes[k], sizes[k + 1])))
            bs.append(r.f64_array((sizes[k + 1],)))
        return MlpParams(ws, bs)

    # arrays appear in param_list order: actor pairs, log_std, critic pairs
    actor = read_mlp(actor_sizes)
    log_std = r.f64_array((actor_sizes[-1],))
    critic = read_mlp(critic_sizes)
    if r.pos != len(data):
        raise CheckpointError(f"{len(data) - r.pos} trailing bytes after parameters")
    net = PolicyNet(actor, log_std, critic, obs_scales)
    for k, arr in enumerate(param_list(net)):
        if not np.isfinite(arr).all():
            raise CheckpointError(f"non-finite value in parameter array {k} (param_list order)")
    meta = {
        "version": version,
        "actor_sizes": actor_sizes,
        "critic_sizes": critic_sizes,
        "env_hash": env_hash,
    }
    return net, meta
