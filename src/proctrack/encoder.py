"""Micro transformer encoder with token + position + time-id embeddings.

Pre-norm residual blocks, one fused q/k/v projection split into heads, GELU
feedforward, and a final layer norm. The time-id table starts at zero so a
fresh model is step-agnostic until training moves it.

Every function takes one input, (T, d_model), or a batch of inputs with any
leading axes, (..., T, d_model), through the same code.
"""

from __future__ import annotations

import json
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


def _shape_groups(config: EncoderConfig) -> tuple[dict, dict, dict]:
    """Shapes of the tensors before the layers, in each layer (unprefixed)
    and after the layers."""
    d, ff = config.d_model, config.d_ff
    before = {"token_emb": (config.vocab_size, d), "pos_emb": (config.max_len, d),
              "ts_emb": (N_TIMESTAMPS, d)}
    # attn.qkv columns are head-major: q0 k0 v0 q1 k1 v1 ...
    layer = {"ln1.gain": (d,), "ln1.bias": (d,), "attn.qkv": (d, 3 * d),
             "attn.out": (d, d), "attn.out_bias": (d,), "ln2.gain": (d,),
             "ln2.bias": (d,), "ff.w1": (d, ff), "ff.b1": (ff,), "ff.w2": (ff, d),
             "ff.b2": (d,)}
    after = {"final_ln.gain": (d,), "final_ln.bias": (d,),
             "head.status": (d, 3), "head.start": (d, 1), "head.end": (d, 1)}
    return before, layer, after


def param_count(config: EncoderConfig) -> int:
    """How many tensors `param_shapes(config)` lists, without listing them."""
    before, layer, after = _shape_groups(config)
    return len(before) + config.n_layers * len(layer) + len(after)


def param_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every tensor of a model with this config (encoder,
    then heads), in the order a fresh model draws and saves them."""
    before, layer, after = _shape_groups(config)
    shapes = dict(before)
    for l in range(config.n_layers):
        shapes.update((f"layer{l}.{k}", v) for k, v in layer.items())
    shapes.update(after)
    return shapes


def init_params(config: EncoderConfig, rng: np.random.Generator,
                heads: bool) -> dict:
    """The encoder's tensors of `param_shapes`, or with `heads` the heads'.

    Gains start at one, biases and the time-id table at zero (so a fresh
    model is step-agnostic), every other matrix from N(0, 0.02), drawn in
    `param_shapes` order; attn.qkv is drawn one (d_model, d_head) block at a
    time.
    """
    dh = config.d_model // config.n_heads
    params = {}
    for name, shape in param_shapes(config).items():
        if name.startswith("head.") != heads:
            continue
        if name.endswith(".gain"):
            value = np.ones(shape)
        elif len(shape) == 1 or name == "ts_emb":
            value = np.zeros(shape)
        elif name.endswith("attn.qkv"):
            value = np.concatenate([rng.normal(0.0, 0.02, (shape[0], dh))
                                    for _ in range(3 * config.n_heads)], axis=1)
        else:
            value = rng.normal(0.0, 0.02, shape)
        params[name] = Tensor(value, requires_grad=True, name=name)
    return params


def init_encoder_params(config: EncoderConfig, rng: np.random.Generator) -> dict:
    """Parameter dict for embeddings and all encoder layers."""
    return init_params(config, rng, heads=False)


def embed(inp: TimestampedInput, params: dict) -> Tensor:
    """Sum of token, position, and time-id embeddings, one row per token.

    One step's time ids, (T,), give (T, d_model); a batch of them, (B, T),
    gives (B, T, d_model): the token and position rows are looked up once
    and broadcast over the B rows of time ids.
    """
    layout = inp.layout
    tok = ad.embedding(params["token_emb"], layout.token_ids)
    pos = ad.embedding(params["pos_emb"], layout.position_ids)
    ts = ad.embedding(params["ts_emb"], inp.timestamp_ids)
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
        attn_out = ad.affine(merged, params[p + "attn.out"],
                             params[p + "attn.out_bias"])
        x = ad.add(x, _dropout(attn_out, config.dropout, drop_rng))
        h = ad.layer_norm(x, params[p + "ln2.gain"], params[p + "ln2.bias"])
        ff = ad.affine(ad.gelu(ad.affine(h, params[p + "ff.w1"], params[p + "ff.b1"])),
                       params[p + "ff.w2"], params[p + "ff.b2"])
        x = ad.add(x, _dropout(ff, config.dropout, drop_rng))
    x = ad.layer_norm(x, params["final_ln.gain"], params["final_ln.bias"])
    return EncoderOutput(hidden=x, attn_probs=attn_probs)
