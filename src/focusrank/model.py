"""The full retrieval model: both encoders, the fusion network and the
learnable contrastive temperature, sharing one parameter set."""

from __future__ import annotations

import numpy as np

from .checkpoint import load_parameters, save_parameters
from .config import RunConfig
from .encoders import EncodedItem, TextEncoder, TextSequence, VideoClip, VideoEncoder
from .ops import ParameterSet
from .pipeline import FusionNetwork
from .rng import RandomStream
from .tensor import Tensor, no_grad


class RetrievalModel:
    def __init__(self, cfg: RunConfig):
        cfg.validate()
        self.cfg = cfg
        self.params = ParameterSet()
        rng = RandomStream(cfg.seed).child("init")
        self.text_encoder = TextEncoder(self.params, cfg, rng.child("text"))
        self.video_encoder = VideoEncoder(self.params, cfg, rng.child("video"))
        self.fusion = FusionNetwork(self.params, cfg, rng.child("fusion"))
        self.params.add("log_temperature", np.log(cfg.temperature))

    @property
    def temperature(self) -> Tensor:
        return self.params["log_temperature"].exp()

    def encode_text_batch(self, tokens: np.ndarray):
        return self.text_encoder.forward(tokens)

    def encode_video_batch(self, clips: np.ndarray):
        return self.video_encoder.forward(clips)

    def encode_text(self, seq: TextSequence) -> EncodedItem:
        """Inference encoding of a single sequence (numpy outputs)."""
        return self._encode_one(self.encode_text_batch, seq.tokens)

    def encode_video(self, clip: VideoClip) -> EncodedItem:
        """Inference encoding of a single clip (numpy outputs)."""
        return self._encode_one(self.encode_video_batch, clip.frames)

    def _encode_one(self, encode_batch, item: np.ndarray) -> EncodedItem:
        with no_grad():
            g, focus, _ = encode_batch(item[None])
        return EncodedItem(g.data[0].copy(), focus.data[0].copy())

    def save(self, path) -> None:
        save_parameters(self.params.state(), path)

    def load(self, path) -> None:
        self.params.load_state(load_parameters(path))
