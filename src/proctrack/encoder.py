"""Micro transformer encoder with token + position + time-id embeddings.

Pre-norm residual blocks, one fused q/k/v projection split into heads, GELU
feedforward, and a final layer norm. The time-id table starts at zero so a
fresh model is step-agnostic until training moves it.

Every function takes one input, (T, d_model), or a batch of inputs with any
leading axes, (..., T, d_model), through the same code.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

N_TIMESTAMPS = 4


@dataclass
class EncoderConfig:
    d_model: int = 32
    n_heads: int = 2
    n_layers: int = 2
    d_ff: int = 64
    vocab_size: int = 0
    max_len: int = 256
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
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


@dataclass
class EncoderOutput:
    hidden: Tensor  # (..., T, d_model), or (rows, T, d_model) with `select`


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


def init_encoder_params(config: EncoderConfig, rng: np.random.Generator) -> dict:
    """Every tensor of `param_shapes`, the heads' last.

    Gains start at one, biases and the time-id table at zero (so a fresh
    model is step-agnostic), every other matrix from N(0, 0.02), drawn in
    `param_shapes` order; attn.qkv is drawn one (d_model, d_head) block at a
    time.
    """
    dh = config.d_model // config.n_heads
    params = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".gain"):
            value = np.ones(shape)
        elif len(shape) == 1 or name == "ts_emb":
            value = np.zeros(shape)
        elif name.endswith("attn.qkv"):
            value = np.concatenate([rng.normal(0.0, 0.02, (shape[0], dh))
                                    for _ in range(3 * config.n_heads)], axis=1)
        else:
            value = rng.normal(0.0, 0.02, shape)
        params[name] = Tensor(value, requires_grad=True)
    return params


def embed(inp, params: dict) -> Tensor:
    """Sum of token, position, and time-id embeddings of an
    `inputs.TimestampedInput`, one row per token, as one `add` node.

    (T,) token ids with one step's (T,) time ids give (T, d_model); (B, T)
    time ids give (B, T, d_model), and (E, 1, T) token ids (E, B, T,
    d_model): each table's rows are looked up once and broadcast.
    """
    tok = ad.embedding(params["token_emb"], inp.token_ids)
    pos = ad.embedding(params["pos_emb"], np.arange(inp.timestamp_ids.shape[-1]))
    ts = ad.embedding(params["ts_emb"], inp.timestamp_ids)
    return ad.add(tok, pos, ts)


def _dropout(x: Tensor, rate: float, rng) -> Tensor:
    if rate <= 0.0 or rng is None:
        return x
    mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    return ad.scale(x, mask)


def _final_norm(x: Tensor, params: dict) -> Tensor:
    return ad.layer_norm(x, params["final_ln.gain"], params["final_ln.bias"])


def _finish(x: Tensor, merged: Tensor, params: dict, p: str,
            config: EncoderConfig, rng) -> Tensor:
    """The rest of layer `p` after attention: the output projection, both
    residuals and the feed-forward."""
    attn_out = ad.matmul(merged, params[p + "attn.out"], params[p + "attn.out_bias"])
    x = ad.add(x, _dropout(attn_out, config.dropout, rng))
    h = ad.layer_norm(x, params[p + "ln2.gain"], params[p + "ln2.bias"])
    ff = ad.matmul(ad.gelu(ad.matmul(h, params[p + "ff.w1"], params[p + "ff.b1"])),
                   params[p + "ff.w2"], params[p + "ff.b2"])
    return ad.add(x, _dropout(ff, config.dropout, rng))


def _block(x: Tensor, params: dict, p: str, config: EncoderConfig, rng,
           select) -> Tensor:
    """One pre-norm residual layer, its tensors named `p` + "ln1.gain" and so
    on, finishing only the inputs `select` picks (see `encode`)."""
    qkv = ad.matmul(ad.layer_norm(x, params[p + "ln1.gain"], params[p + "ln1.bias"]),
                    params[p + "attn.qkv"])
    if select is not None:
        cls, _ = ad.attention(qkv, config.n_heads, cls_only=True)
        rows = select(_final_norm(_finish(ad.slice_rows(x, np.s_[..., :1, :]), cls,
                                          params, p, config, rng), params))
        idx = np.unravel_index(rows, x.data.shape[:-2])
        x, qkv = ad.slice_rows(x, idx), ad.slice_rows(qkv, idx)
    merged, _ = ad.attention(qkv, config.n_heads)
    return _finish(x, merged, params, p, config, rng)


def encode(embedded: Tensor, params: dict, config: EncoderConfig,
           rng: np.random.Generator | None = None,
           select: Callable[[Tensor], np.ndarray] | None = None) -> EncoderOutput:
    """The encoder's output for `embedded`, with dropout when `rng` is given.

    With no `select`, every layer runs at every position of every input.
    `select` asks for less, on a taped pass or a tape-free one, of inputs
    with at least one leading axis. The last layer projects every input
    once, then finishes the [CLS] query alone, and the final layer norm
    gives (..., 1, d_model) rows, on the tape when the pass is taped, that
    go to `select`. It returns the flat indices, over the inputs' leading
    axes in C order and each at most once, of the inputs to finish: only
    those go on through full attention and the rest of the layer, and
    `hidden` is their (rows, T, d_model). Those rows are the same to the bit
    as in the full pass, because each matrix product keeps its per-input
    shape; the [CLS] rows are within rounding of it (see
    `autodiff.attention`).
    """
    x = embedded
    for l in range(config.n_layers):
        x = _block(x, params, f"layer{l}.", config, rng,
                   select if l == config.n_layers - 1 else None)
    return EncoderOutput(hidden=_final_norm(x, params))
