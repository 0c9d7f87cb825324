"""Numpy RL stack: LSTM controller, sequential policy, REINFORCE."""

from repro.rl.functional import entropy, log_softmax, sigmoid, softmax, xavier_uniform
from repro.rl.gradcheck import max_relative_error, numeric_gradients, policy_loss
from repro.rl.lstm import LSTMCache, LSTMCell, LSTMState
from repro.rl.optim import Adam, clip_grad_norm
from repro.rl.policy import PolicyBatch, SequencePolicy
from repro.rl.reinforce import ReinforceConfig, ReinforceTrainer

__all__ = [
    "entropy",
    "log_softmax",
    "sigmoid",
    "softmax",
    "xavier_uniform",
    "max_relative_error",
    "numeric_gradients",
    "policy_loss",
    "LSTMCache",
    "LSTMCell",
    "LSTMState",
    "Adam",
    "clip_grad_norm",
    "PolicyBatch",
    "SequencePolicy",
    "ReinforceConfig",
    "ReinforceTrainer",
]
