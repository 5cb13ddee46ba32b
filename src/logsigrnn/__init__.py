"""Truncated log-signatures of piecewise-linear paths, a differentiable
log-signature sequence layer, and recurrent stream classifiers built on it."""

from .tensor_algebra import (
    TruncatedTensor,
    Word,
    shuffle,
    tensor_exp,
    tensor_log,
    tensor_mul,
    word_index,
)
from .lyndon import (
    LyndonBasis,
    enumerate_lyndon,
    expand_from_basis,
    logsig_dim,
    lyndon_words,
    project_to_basis,
    sig_dim,
    witt_number,
)
from .paths import (
    TimedPath,
    evaluate,
    insert_sample_times,
    log_signature,
    reparameterize,
    restrict,
    reverse_path,
    signature,
)
from .logsig_layer import (
    SegmentPartition,
    logsig_sequence,
    logsig_sequence_forward,
    logsig_stack_forward,
    backward_from_state,
)
from .neural import (
    ModelConfig,
    StreamClassifier,
    TrainSettings,
    TrainResult,
    accumulative_layer,
    evaluate_model,
    time_incorporated_layer,
    train,
)
from .datasets import (
    LabeledStreamSet,
    StreamParseError,
    digit_polyline,
    gen_synthetic,
    load_streams,
    mape,
    mape_drop_study,
    perturb_drop,
    perturb_insert,
    save_streams,
    upsample_linear,
)

__version__ = "0.1.0"
