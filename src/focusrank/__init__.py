"""Two-stage text-video retrieval with focused cross-attention re-ranking."""

from . import config, data, encoders, errors, metrics, model, pipeline, pool, rng, tensor, training
from .encoders import TextSequence, VideoClip
from .model import RetrievalModel

__version__ = "0.1.0"
