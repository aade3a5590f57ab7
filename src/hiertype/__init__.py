"""Hierarchy-aware fine-grained entity typing.

Core pieces: a validated type DAG with ancestor closure (`TypeHierarchy`),
distant supervision over mention corpora (`corpus`), a CNN + span-mean
mention encoder with order/bilinear/dot membership scoring (`model`),
hand-derived gradients with Adam (`training`), MAP evaluation
(`evaluation`), and a batch CLI (`cli`).  The finite-difference checker
that verifies the gradients lives with the tests, in `tests/oracles.py`.

Importing the package pins BLAS to one thread unless the environment sets
it: the lane pool of `model` is the package's one source of parallelism,
and checkpoint bytes depend on the BLAS thread count.  The pin only takes
effect when numpy has not been imported yet.
"""

import os as _os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from .corpus import (
    CorpusError,
    CorpusRecord,
    EmbeddingError,
    EmbeddingTable,
    LabeledExample,
    Mention,
    batch_iter,
    distant_label,
    examples_to_records,
    label_records,
    read_corpus,
    write_corpus,
)
from .errors import HiertypeError
from .evaluation import EvalError, EvalReport, average_precision, evaluate_model
from .hierarchy import (
    CycleError,
    EntityTypeTable,
    HierarchyError,
    HierarchyParseError,
    HierarchyStats,
    Link,
    LinkKind,
    TypeHierarchy,
    TypeId,
    UnknownTypeError,
    derive_cooccurrence_links,
    load_hierarchy,
    write_links,
)
from .model import (
    SIGMOID_CLAMP,
    Checkpoint,
    CheckpointError,
    DropoutMasks,
    EncoderMode,
    ModelError,
    ModelParams,
    ScoreKind,
    encode_mention,
    load_checkpoint,
    log_sigmoid,
    neg_log_one_minus_sigmoid,
    rank_types,
    sample_dropout_masks,
    save_checkpoint,
    sigmoid,
    score_all_types,
    surface_average,
)
from .training import (
    AdamState,
    ConfigError,
    EpochMetrics,
    GradientError,
    TrainConfig,
    TrainResult,
    TrainingError,
    adam_step,
    config_from_strings,
    glorot_init,
    init_model,
    load_train_config,
    loss,
    make_checkpoint,
    prepare_typing_batch,
    structure_pool,
    train,
    write_history,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
