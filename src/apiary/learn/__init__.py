"""Policy learning: networks, clipped-surrogate updates, training, checkpoints."""

from .ppo import PpoConfig
from .train import evaluate_policy, train
