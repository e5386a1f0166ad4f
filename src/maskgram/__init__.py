"""Masked generative modeling of multi-level token grids ("codegrams").

Training, guided iterative sampling, beam selection, and objective evaluation
for grid-shaped discrete sequences conditioned on feature streams, with
synthetic stand-ins for every pretrained component.
"""

from .codegram import (
    Codegram,
    CodebookSpec,
    MaskTensor,
    load_codegram,
    save_codegram,
)
from .features import resample_nn
from .model import MaskedGridTransformer, ModelConfig, StreamSpec
from .sampler import SamplerConfig, guided_logits, sample_batch
from .scheduler import SampleSchedule, TrainMaskDraw, build_sample_schedule, draw_train_mask
from .train import TrainConfig, masked_token_accuracy

__version__ = "0.1.0"

__all__ = [
    "Codegram",
    "CodebookSpec",
    "MaskTensor",
    "MaskedGridTransformer",
    "ModelConfig",
    "SampleSchedule",
    "SamplerConfig",
    "StreamSpec",
    "TrainConfig",
    "TrainMaskDraw",
    "build_sample_schedule",
    "draw_train_mask",
    "guided_logits",
    "load_codegram",
    "masked_token_accuracy",
    "resample_nn",
    "sample_batch",
    "save_codegram",
    "__version__",
]
