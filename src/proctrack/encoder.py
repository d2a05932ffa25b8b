"""Micro transformer encoder with token + position + time-id embeddings.

Pre-norm residual blocks, one fused q/k/v projection split into heads, GELU
feedforward, and a final layer norm. The time-id table starts at zero so a
fresh model is step-agnostic until training moves it.

Every function takes one input, (T, d_model), or a batch of inputs with any
leading axes, (..., T, d_model), through the same code.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, asdict, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .inputs import TimestampedInput

N_TIMESTAMPS = 4


@dataclass
class EncoderConfig:
    d_model: int = 32
    n_heads: int = 2
    n_layers: int = 2
    d_ff: int = 64
    vocab_size: int = 0
    max_len: int = 256
    n_timestamps: int = N_TIMESTAMPS
    dropout: float = 0.0

    def __post_init__(self):
        sizes = {"d_model": 1, "n_heads": 1, "n_layers": 1, "d_ff": 1,
                 "vocab_size": 0, "max_len": 1}
        for name, least in sizes.items():
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, "
                                 f"got {value!r}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )
        if self.n_timestamps != N_TIMESTAMPS:
            raise ValueError("time-id table must have exactly 4 rows")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(asdict(self), f, indent=2)

    @classmethod
    def load(cls, path) -> "EncoderConfig":
        with open(path, encoding="utf-8") as f:
            return cls(**json.load(f))


@dataclass
class EncoderOutput:
    hidden: Tensor  # (..., T, d_model)
    # Per layer, the (T, T) array of each head for one input, or the
    # (H, T, T) array of each input for a batch.
    attn_probs: list = field(default_factory=list)

    @property
    def cls(self) -> Tensor:
        """The [CLS] row of each input, (..., 1, d_model)."""
        return ad.slice_rows(self.hidden, 0, 1, axis=-2)


def init_encoder_params(config: EncoderConfig, rng: np.random.Generator) -> dict:
    """Parameter dict for embeddings and all encoder layers.

    The time-id embedding table is zero-initialized on purpose.
    """
    d, dh, ff = config.d_model, config.d_model // config.n_heads, config.d_ff

    def normal(*shape):
        return rng.normal(0.0, 0.02, size=shape)

    params = {
        "token_emb": normal(config.vocab_size, d),
        "pos_emb": normal(config.max_len, d),
        "ts_emb": np.zeros((N_TIMESTAMPS, d)),
    }
    for l in range(config.n_layers):
        p = f"layer{l}."
        params[p + "ln1.gain"] = np.ones(d)
        params[p + "ln1.bias"] = np.zeros(d)
        # Columns are head-major: q0 k0 v0 q1 k1 v1 ...
        params[p + "attn.qkv"] = np.concatenate(
            [normal(d, dh) for _ in range(3 * config.n_heads)], axis=1)
        params[p + "attn.out"] = normal(d, d)
        params[p + "attn.out_bias"] = np.zeros(d)
        params[p + "ln2.gain"] = np.ones(d)
        params[p + "ln2.bias"] = np.zeros(d)
        params[p + "ff.w1"] = normal(d, ff)
        params[p + "ff.b1"] = np.zeros(ff)
        params[p + "ff.w2"] = normal(ff, d)
        params[p + "ff.b2"] = np.zeros(d)
    params["final_ln.gain"] = np.ones(d)
    params["final_ln.bias"] = np.zeros(d)
    return {k: Tensor(v, requires_grad=True, name=k) for k, v in params.items()}


def embed(inp: TimestampedInput | Sequence[TimestampedInput],
          params: dict) -> Tensor:
    """Sum of token, position, and time-id embeddings, one row per token.

    One input gives (T, d_model). A sequence of inputs stamped on one layout
    gives (B, T, d_model): the token and position rows are looked up once
    and broadcast over the B rows of time ids.
    """
    if isinstance(inp, TimestampedInput):
        layout, ts_ids = inp.layout, inp.timestamp_ids
    else:
        layout = inp[0].layout
        if any(i.layout != layout for i in inp):
            raise ValueError("a batch of inputs must share one layout")
        ts_ids = [i.timestamp_ids for i in inp]
    tok = ad.embedding(params["token_emb"], layout.token_ids)
    pos = ad.embedding(params["pos_emb"], layout.position_ids)
    ts = ad.embedding(params["ts_emb"], ts_ids)
    return ad.add(ad.add(tok, pos), ts)


def _dropout(x: Tensor, rate: float, rng) -> Tensor:
    if rate <= 0.0 or rng is None:
        return x
    mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    return ad.scale(x, mask)


def encode(embedded: Tensor, params: dict, config: EncoderConfig,
           train: bool = False, rng: np.random.Generator | None = None,
           collect_attn: bool = False) -> EncoderOutput:
    *lead, T, _ = embedded.data.shape
    if T > config.max_len:
        raise ValueError(f"sequence length {T} exceeds max length {config.max_len}")
    H, dh, L = config.n_heads, config.d_model // config.n_heads, len(lead)
    drop_rng = rng if train else None
    x = embedded
    attn_probs = []
    for l in range(config.n_layers):
        p = f"layer{l}."
        h = ad.layer_norm(x, params[p + "ln1.gain"], params[p + "ln1.bias"])
        # (..., T, 3d) -> (..., T, H, 3, dh) -> (3, ..., H, T, dh): q, k, v
        # with a head axis.
        qkv = ad.transpose(
            ad.reshape(ad.matmul(h, params[p + "attn.qkv"]), (*lead, T, H, 3, dh)),
            (L + 2, *range(L), L + 1, L, L + 3))
        attended, probs = ad.attention(qkv, 1.0 / np.sqrt(dh))  # (..., H, T, dh)
        if collect_attn:
            attn_probs.extend(probs.copy())
        # (..., H, T, dh) -> (..., T, H, dh) -> (..., T, d)
        merged = ad.reshape(ad.transpose(attended, (*range(L), L + 1, L, L + 2)),
                            (*lead, T, config.d_model))
        attn_out = ad.add(ad.matmul(merged, params[p + "attn.out"]),
                          params[p + "attn.out_bias"])
        x = ad.add(x, _dropout(attn_out, config.dropout, drop_rng))
        h = ad.layer_norm(x, params[p + "ln2.gain"], params[p + "ln2.bias"])
        ff = ad.add(ad.matmul(ad.gelu(
            ad.add(ad.matmul(h, params[p + "ff.w1"]), params[p + "ff.b1"])
        ), params[p + "ff.w2"]), params[p + "ff.b2"])
        x = ad.add(x, _dropout(ff, config.dropout, drop_rng))
    x = ad.layer_norm(x, params["final_ln.gain"], params["final_ln.bias"])
    return EncoderOutput(hidden=x, attn_probs=attn_probs)
