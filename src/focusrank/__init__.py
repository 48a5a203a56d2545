"""Two-stage text-video retrieval with focused cross-attention re-ranking."""

from .config import RunConfig, default_config, load_config
from .data import PairedDataset, SyntheticSpec, generate_synthetic_pairs
from .encoders import EncodedItem, TextSequence, VideoClip
from .losses import LossReport, combined_loss, contrastive_loss, focused_ce_loss
from .metrics import MetricsReport, compute_ranks, evaluate_two_stage, summarize
from .model import RetrievalModel
from .ops import ParameterSet, mlp_forward, scaled_dot_attention
from .pipeline import (
    CandidateSet,
    FinalScores,
    FusionNetwork,
    Gallery,
    broad_view_scores,
    compose_scores,
    rank_full,
    select_top_k,
)
from .rng import RandomStream
from .tensor import Tensor, no_grad
from .training import AdamW, Batch, train_loop, train_step

__version__ = "0.1.0"
