"""Knowledge-base completion with box embeddings and translational bumps."""

from .geometry import Box, center, contains, contains_box, grow_to_cover, intersect, width_plus_one
from .kb import Fact, KnowledgeBase, Vocabulary, augment_inverses, corrupt, parse_kb
from .model import (ModelParams, dist, final_embedding, init_params,
                    load_checkpoint, save_checkpoint, score, score_gradient)
from .training import TrainConfig, OptimizerState, adam_update, loss, sample_negatives, train_epoch
from .rules import (Rule, apply_projection, box_stats, check_capture,
                    check_consistency, deductive_closure, inject, parse_rules)
from .exact_fit import TruthTable, build_all_true, classify, dim_index, fit, flip_fact
from .evaluation import evaluate, rank_fact

__version__ = "0.1.0"

__all__ = [
    "Box", "center", "contains", "contains_box", "grow_to_cover", "intersect",
    "width_plus_one",
    "Fact", "KnowledgeBase", "Vocabulary", "augment_inverses", "corrupt", "parse_kb",
    "ModelParams", "dist", "final_embedding", "init_params", "load_checkpoint",
    "save_checkpoint", "score", "score_gradient",
    "TrainConfig", "OptimizerState", "adam_update", "loss", "sample_negatives",
    "train_epoch",
    "Rule", "apply_projection", "box_stats", "check_capture",
    "check_consistency", "deductive_closure", "inject", "parse_rules",
    "TruthTable", "build_all_true", "classify", "dim_index", "fit", "flip_fact",
    "evaluate", "rank_fact",
    "__version__",
]
