"""Full encoder-decoder model: construction, checkpoint I/O, decode protocol.

Randomness is derived, never carried: every consumer builds a fresh
numpy Generator from SeedSequence((seed, purpose, *indices)), so any
draw can be reproduced from the checkpoint seed plus integer coordinates
(no RNG state needs to be saved).
"""
from __future__ import annotations

from dataclasses import asdict

import numpy as np

from . import tensor as T
from .checkpoint import CheckpointError, check_arrays, load_checkpoint, save_checkpoint
from .config import ModelConfig
from .data import DataError, Vocabulary
from .decoder import Decoder, DecoderState
from .encoder import Encoder
from .tensor import Tensor

# purpose tags for seed derivation
RNG_INIT = 0
RNG_SHUFFLE = 1
RNG_DROPOUT = 2
RNG_SAMPLE = 3
RNG_NOISE = 4


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic generator for (seed, purpose, index...) coordinates."""
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(p) for p in path)))


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise log softmax over the last axis, numerically stable."""
    m, _, s = T.softmax_terms(z)
    return z - (m + np.log(s))


class Model:
    """CNN encoder + attentional LSTM decoder over a fixed vocabulary.

    A parameter is a Tensor with requires_grad=True, named by its key in
    `params`; `buffers` holds the batch-norm running statistics.
    """

    def __init__(self, config: ModelConfig, vocab: list[str]):
        if config.vocab_size != len(vocab):
            raise ValueError(
                f"config.vocab_size={config.vocab_size} but vocab has {len(vocab)} tokens")
        self.config = config
        self.vocab = list(vocab)
        rng = derive_rng(config.seed, RNG_INIT)
        self.encoder = Encoder(config, rng)
        self.decoder = Decoder(config, rng)
        self.params: dict[str, Tensor] = {**self.encoder.params, **self.decoder.params}
        self.buffers: dict[str, np.ndarray] = self.encoder.buffers

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    # -- forward pieces used by training --------------------------------
    def encode(self, images, train: bool = False) -> Tensor:
        return self.encoder.encode(images, train=train)

    def init_state(self, entries: Tensor) -> DecoderState:
        return self.decoder.init_state(entries)

    def step(self, state, tokens, train: bool = False, rng=None):
        return self.decoder.step(state, tokens, train=train, rng=rng)

    def keep_rows(self, state: DecoderState, rows) -> DecoderState:
        """state restricted to batch rows `rows` (indices, or an int n for
        the first n rows); see Decoder.keep_rows."""
        return self.decoder.keep_rows(state, rows)

    # -- single-image decode protocol ------------------------------------
    def decode_start(self, image: np.ndarray) -> DecoderState:
        """Encode one (H, W) image and return the initial decode state."""
        with T.no_grad():
            return self.init_state(self.encode(image, train=False))

    def decode_step(self, state: DecoderState, token: int):
        """Feed one token id; returns (logp over vocab, next state, alpha).

        logp has shape (V,), alpha shape (L,) over memory entries.
        """
        with T.no_grad():
            out = self.decoder.step(state, np.array([int(token)]))
        logp = log_softmax(out.logits.data.astype(np.float64))[0]
        return logp, out.state, out.alpha.data[0]

    # -- persistence ------------------------------------------------------
    def save(self, path, run: dict | None = None, optimizer: dict | None = None) -> None:
        """Write the model; `run` (a training run's state) joins the
        config and vocab in the meta, and `optimizer` is Adam's state."""
        meta = {"config": asdict(self.config), "vocab": self.vocab, **(run or {})}
        params = {name: p.data for name, p in self.params.items()}
        save_checkpoint(path, meta, params, self.buffers, optimizer)

    @classmethod
    def load(cls, path):
        """Rebuild a model from a checkpoint; returns (model, checkpoint).
        The meta's config must meet the config rules and its vocab those
        of `data.Vocabulary`, and the parameters and buffers must meet
        `check_arrays` (a running variance non-negative) before any is
        copied, else CheckpointError."""
        ckpt = load_checkpoint(path)
        try:
            vocab = Vocabulary(ckpt.meta["vocab"])
            model = cls(ModelConfig(**ckpt.meta["config"]), vocab.tokens)
        except (KeyError, TypeError, ValueError, DataError) as exc:
            raise CheckpointError(f"{path}: meta does not describe a model: {exc!r}") from None
        check_arrays(f"{path}: parameter", ckpt.params, model.params)
        check_arrays(f"{path}: buffer", ckpt.buffers, model.buffers,
                     non_negative=[n for n in model.buffers if n.endswith(".running_var")])
        dt = model.config.np_dtype()
        for name, p in model.params.items():
            p.data = np.ascontiguousarray(ckpt.params[name], dtype=dt)
        for name, buf in model.buffers.items():
            np.copyto(buf, ckpt.buffers[name])
        return model, ckpt
