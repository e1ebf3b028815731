"""Multilingual topic modeling with document links, soft links, and
vocabulary links, trained by collapsed Gibbs sampling."""

from .corpus import (
    BilingualCorpus,
    Corpus,
    Document,
    LoaderOptions,
    Vocabulary,
    load_corpus,
    pair_corpora,
)
from .dictionary import BilingualDictionary, Concept, load_dictionary, subsample
from .errors import ConfigError, DataError
from .evaluate import (
    EvalReport,
    ReferenceCorpus,
    classify_crosslingual,
    cnpmi_model,
    cnpmi_topic,
    generate_reference,
    generate_synthetic,
    top_words,
)
from .models import (
    Hyperparams,
    SideState,
    TopicModel,
    infer_heldout,
    load_model,
    save_model,
    token_conditional,
    train,
)
from .schedule import LisHistory, compute_lis, should_anneal
from .transfer import (
    AnnealConfig,
    FocusConfig,
    TransferMatrix,
    anneal_matrix,
    build_transfer_matrix,
    static_focus,
)
from .tree import DirichletTree, build_tree

__version__ = "0.1.0"
