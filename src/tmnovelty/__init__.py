"""Word-level novelty scoring for text from Tsetlin machine clauses.

Train a two-class clause machine on booleanized known/novel documents,
harvest the learned clauses into word bags, score each word by how much it
pulls a document toward the novel group, and benchmark the scores against a
TF-IDF baseline.
"""

from .baseline import TfidfTable, tfidf_scores
from .corpus import (
    BoolDoc,
    CorpusStats,
    Label,
    Vocabulary,
    booleanize,
    build_vocabulary,
    corpus_stats,
    load_stopwords,
    normalize,
    tokenize,
)
from .evaluation import (
    WordCategory,
    categorize_words,
    cfd,
    fit_logistic,
    roc_pr,
    score_discrimination,
    summary_stats,
)
from .novelty import (
    Aggregator,
    ClauseCooccurrence,
    ScoreTable,
    WordBags,
    build_word_bags,
    contextual_score,
    cooccurrence,
    novelty_scores,
    score_document,
)
from .tsetlin import (
    ClauseBank,
    EvalMode,
    ExtractedClause,
    Polarity,
    TMModel,
    TMParams,
    extract_clauses,
    fit,
)

__version__ = "0.1.0"

__all__ = [
    "Aggregator",
    "BoolDoc",
    "ClauseBank",
    "ClauseCooccurrence",
    "CorpusStats",
    "EvalMode",
    "ExtractedClause",
    "Label",
    "Polarity",
    "ScoreTable",
    "TMModel",
    "TMParams",
    "TfidfTable",
    "Vocabulary",
    "WordBags",
    "WordCategory",
    "booleanize",
    "build_vocabulary",
    "build_word_bags",
    "categorize_words",
    "cfd",
    "contextual_score",
    "cooccurrence",
    "corpus_stats",
    "extract_clauses",
    "fit",
    "fit_logistic",
    "load_stopwords",
    "normalize",
    "novelty_scores",
    "roc_pr",
    "score_discrimination",
    "score_document",
    "summary_stats",
    "tfidf_scores",
    "tokenize",
]
