"""Corpus ingestion: tokenized JSON-lines documents, vocabulary building
with stopword and frequency filtering, and hard-link resolution.

Input documents are assumed pre-tokenized and pre-stemmed; no text
normalization happens here.

The package's one JSON layer lives here too: every JSON and JSON-lines
file is read by `read_json` or `read_jsonl` and written by `write_json`,
`write_jsonl` or `write_text` from `json_text`.
"""

from __future__ import annotations

import heapq
import json
import logging
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .settings import Settings, setting

logger = logging.getLogger(__name__)


class Vocabulary:
    """Bijection between word strings and dense integer ids for one language."""

    def __init__(self, language: str, words: list[str]):
        self.language = language
        self.word_of_id: list[str] = list(words)
        self.id_of_word: dict[str, int] = {w: i for i, w in enumerate(words)}
        if len(self.id_of_word) != len(self.word_of_id):
            raise DataError(f"vocabulary for {language!r} contains duplicate words")

    @property
    def size(self) -> int:
        return len(self.word_of_id)

    def __len__(self) -> int:
        return len(self.word_of_id)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Vocabulary)
            and self.language == other.language
            and self.word_of_id == other.word_of_id
        )

    def __repr__(self) -> str:
        return f"Vocabulary({self.language!r}, {self.size} types)"


@dataclass
class Document:
    doc_id: str
    language: str
    tokens: list[int]
    labels: frozenset[str] | None = None
    link_id: str | None = None

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class Corpus:
    """Immutable-by-convention id-encoded documents and their token table:
    document d's word ids are `tokens[doc_start[d]:doc_start[d + 1]]`."""

    language: str
    vocabulary: Vocabulary
    documents: list[Document]
    tokens: np.ndarray = field(init=False, repr=False, compare=False)
    doc_start: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.doc_start = np.cumsum([0, *map(len, self.documents)], dtype=np.int64)
        self.tokens = np.fromiter(
            chain.from_iterable(d.tokens for d in self.documents), np.int64, self.doc_start[-1]
        )
        self.tokens.flags.writeable = self.doc_start.flags.writeable = False

    @property
    def token_total(self) -> int:
        return len(self.tokens)

    def __len__(self) -> int:
        return len(self.documents)


@dataclass
class BilingualCorpus:
    side1: Corpus
    side2: Corpus
    # (doc index in side1, doc index in side2), sorted; each doc in at most one pair
    hard_links: list[tuple[int, int]] = field(default_factory=list)

    @property
    def languages(self) -> tuple[str, str]:
        return (self.side1.language, self.side2.language)


@dataclass
class LoaderOptions(Settings):
    """Knobs for `load_corpus`. top_frequent removes the N most frequent
    remaining word types after stopword removal (token frequency, ties
    broken by word string, so the cut is deterministic); keep_empty keeps
    the documents that filtering empties. Both are `train` settings,
    declared here and checked on construction (`ConfigError` naming the
    key)."""

    stopwords: frozenset[str] = frozenset()
    top_frequent: int = setting(100, "int", "[0, inf)")
    keep_empty: bool = setting(False, "bool")


@contextmanager
def open_text(path: str | Path, what: str, error: type = DataError):
    """Open a UTF-8 text input for reading. A file that cannot be opened
    or read (missing, a directory, unreadable) or is not UTF-8 raises
    `error` with a one-line message, also when that happens while the
    caller reads it."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 text: {exc.reason}") from None


# The escape of a UTF-16 surrogate. Only a high one followed by a low one
# makes a character; a lone one decodes to a string UTF-8 cannot encode.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_unescaped = json.JSONEncoder(ensure_ascii=False).encode


def _parse_object(text: str, where: str, item: str, error: type) -> dict:
    """`text` decoded as a JSON object. Text that is not JSON (a BOM, an
    integer past the interpreter's digit limit, a lone surrogate escape),
    nests too deeply for the decoder or holds another value raises
    `error`, one line that starts with `where`."""
    try:
        value = json.loads(text)
        if _SURROGATE_ESCAPE.search(text):
            _unescaped(value).encode("utf-8")
    except ValueError as exc:  # JSONDecodeError, too many digits, UnicodeEncodeError
        raise error(f"{where}: invalid JSON ({exc})") from None
    except RecursionError:
        raise error(f"{where}: JSON nested too deeply") from None
    if not isinstance(value, dict):
        raise error(f"{where}: {item} must be a JSON object")
    return value


def read_json(path: str | Path, what: str, error: type = DataError) -> dict:
    """The object held by the JSON file `path`, a `what` ("model file").
    Any failure of `open_text` or `_parse_object` raises `error`."""
    with open_text(path, what, error) as fh:
        return _parse_object(fh.read(), f"{what} {path}", "the file", error)


def read_jsonl(path: str | Path, what: str, item: str):
    """Yield (where, record) for each non-blank line of the JSON-lines
    file `path` (a `what`), each record an object (an `item`) and `where`
    "path:line". A failure raises `DataError`, as in `read_json`."""
    with open_text(path, what) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                where = f"{path}:{lineno}"
                yield where, _parse_object(line, where, item, DataError)


# The encoders of every JSON output: sorted keys, and a NaN or infinity
# refused (ValueError), since JSON has no such number.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode
_indented = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False).encode


def json_text(value, what: str, indent: bool = False) -> str:
    """`value` as compact JSON with sorted keys, or indented by 2; a NaN
    or infinity raises `DataError` ("cannot write {what}")."""
    try:
        return (_indented if indent else _dumps)(value)
    except ValueError as exc:
        raise DataError(f"cannot write {what}: {exc}") from None


def write_text(path: str | Path, pieces) -> None:
    """Write the strings `pieces` yields to `path`. A NaN or infinity that
    the encoder meets on the way raises `DataError` and leaves no file."""
    with open(path, "w", encoding="utf-8") as fh:
        try:
            fh.writelines(pieces)
        except ValueError as exc:
            fh.close()
            Path(path).unlink()
            raise DataError(f"cannot write {path}: {exc}") from None


def _table_pieces(table: np.ndarray):
    """Yield `_dumps(table.tolist())` for a 2-D float64 or int64 table,
    one row at a time. Each distinct value is formatted once: `np.unique`
    on the raw bits (so -0.0 and 0.0 keep their own text) gives one
    `repr` per value, the text the encoder writes for a float or a Python
    int, and every row is joined from those strings."""
    if not np.isfinite(table).all():
        raise ValueError("Out of range float values are not JSON compliant")
    n_rows, n_cols = table.shape
    bits = np.ascontiguousarray(table).view(np.uint64).ravel()
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array([repr(v) for v in distinct.view(table.dtype).tolist()], dtype=object)
    sep = "["
    for row in text[inverse.reshape(n_rows, n_cols)].tolist():
        yield sep + "[" + ",".join(row) + "]"
        sep = ","
    yield "]" if n_rows else "[]"


def _pieces(value):
    """Yield `_dumps(value)` one innermost row at a time, so a string per
    number is never held for the whole payload: objects with string keys
    and lists of lists or objects are opened here, a numpy array (a 2-D
    float64 or int64 table) goes to `_table_pieces`, and every other value
    goes to the C encoder whole."""
    if isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        sep = "{"
        for key in sorted(value):
            yield sep + _dumps(key) + ":"
            yield from _pieces(value[key])
            sep = ","
        yield "}"
    elif isinstance(value, np.ndarray):
        yield from _table_pieces(value)
    elif isinstance(value, list) and value and isinstance(value[0], (list, dict, np.ndarray)):
        sep = "["
        for item in value:
            yield sep
            yield from _pieces(item)
            sep = ","
        yield "]"
    else:
        yield _dumps(value)


def write_json(payload, path: str | Path) -> None:
    """Write `payload` as one line of compact JSON with sorted keys: the
    bytes of `json.dumps(payload, sort_keys=True, separators=(",", ":"))`
    plus a newline, with each numpy array in it (a 2-D float64 or int64
    table) written as its `tolist()`. A NaN or infinity raises
    `DataError` and leaves no file behind."""
    write_text(path, chain(_pieces(payload), ("\n",)))


def write_jsonl(records, path: str | Path) -> None:
    """Write each record as one line of compact JSON with sorted keys. A
    NaN or infinity raises `DataError` and leaves no file behind."""
    write_text(path, (_dumps(record) + "\n" for record in records))


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a one-word-per-line stopword file."""
    words = set()
    with open_text(path, "stopword file") as fh:
        for line in fh:
            word = line.strip()
            if word:
                words.add(word)
    return frozenset(words)


def _labels(value, where: str) -> frozenset[str] | None:
    """A record's `labels`: absent/null or a list of strings; an empty
    list means no labels, like an absent one."""
    if value is None:
        return None
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise DataError(f"{where}: 'labels' must be a list of strings")
    return frozenset(value) or None


def _link(value, where: str) -> str | None:
    """A record's `link`: absent/null or a string."""
    if value is not None and not isinstance(value, str):
        raise DataError(f"{where}: 'link' must be a string or null")
    return value


def _doc_id(rec: dict, seen: set[str], where: str) -> str:
    """A record's `id`: a non-empty string that no earlier record used."""
    doc_id = rec.get("id")
    if not isinstance(doc_id, str) or not doc_id:
        raise DataError(f"{where}: 'id' must be a non-empty string")
    if doc_id in seen:
        raise DataError(f"{where}: duplicate doc_id {doc_id!r}")
    seen.add(doc_id)
    return doc_id


def _parse_records(path: str | Path, language: str) -> list[dict]:
    records = []
    seen_ids: set[str] = set()
    for where, rec in read_jsonl(path, "corpus file", "a corpus record"):
        for key in ("id", "lang", "tokens"):
            if key not in rec:
                raise DataError(f"{where}: missing field {key!r}")
        if rec["lang"] != language:
            raise DataError(
                f"{where}: language {rec['lang']!r} does not match expected {language!r}"
            )
        if not isinstance(rec["tokens"], list) or not {str}.issuperset(map(type, rec["tokens"])):
            raise DataError(f"{where}: 'tokens' must be a list of strings")
        _doc_id(rec, seen_ids, where)
        rec["labels"] = _labels(rec.get("labels"), where)
        rec["link"] = _link(rec.get("link"), where)
        records.append(rec)
    return records


def load_corpus(
    path: str | Path,
    language: str,
    options: LoaderOptions | None = None,
    vocabulary: Vocabulary | None = None,
) -> Corpus:
    """Load a JSON-lines corpus and encode it against a vocabulary.

    Without `vocabulary`, the vocabulary is built from this file: stopwords
    are removed first, then the `options.top_frequent` most frequent
    remaining word types (ties broken by word string); ids follow first
    occurrence among the kept types.
    With `vocabulary` (held-out encoding), no frequency filtering happens
    and out-of-vocabulary tokens are silently dropped.
    """
    opts = options or LoaderOptions()
    records = _parse_records(path, language)
    if not records:
        raise DataError(f"{path}: empty corpus")

    if vocabulary is None:
        # a Counter keeps its keys in first-occurrence order, the id order
        counts = Counter(chain.from_iterable(rec["tokens"] for rec in records))
        words = [w for w in counts if w not in opts.stopwords]
        removed = set(heapq.nsmallest(opts.top_frequent, words, key=lambda w: (-counts[w], w)))
        vocabulary = Vocabulary(language, [w for w in words if w not in removed])
    else:
        if vocabulary.language != language:
            raise ConfigError(
                f"vocabulary language {vocabulary.language!r} does not match {language!r}"
            )

    id_of_word = vocabulary.id_of_word
    documents: list[Document] = []
    dropped_docs = 0
    for rec in records:
        tokens = [id_of_word[t] for t in rec["tokens"] if t in id_of_word]
        if not tokens and not opts.keep_empty:
            dropped_docs += 1
            continue
        documents.append(
            Document(
                doc_id=rec["id"],
                language=language,
                tokens=tokens,
                labels=rec["labels"],
                link_id=rec["link"] or None,
            )
        )
    if dropped_docs:
        logger.warning("%s: dropped %d documents empty after filtering", path, dropped_docs)
    if not documents:
        raise DataError(f"{path}: no documents left after filtering")
    return Corpus(language=language, vocabulary=vocabulary, documents=documents)


def check_languages(language1: str, language2: str) -> None:
    """Refuse two corpora in one language."""
    if language1 == language2:
        raise ConfigError(f"both corpora have language {language1!r}")


def pair_corpora(c1: Corpus, c2: Corpus) -> BilingualCorpus:
    """Join two corpora on matching link ids.

    Unmatched link ids are logged as warnings; a link id appearing on two
    documents of the same side is an error.
    """
    check_languages(c1.language, c2.language)

    def link_index(corpus: Corpus) -> dict[str, int]:
        index: dict[str, int] = {}
        for i, doc in enumerate(corpus.documents):
            if doc.link_id is None:
                continue
            if doc.link_id in index:
                raise DataError(
                    f"duplicate link id {doc.link_id!r} in corpus {corpus.language!r}"
                )
            index[doc.link_id] = i
        return index

    links1 = link_index(c1)
    links2 = link_index(c2)
    matched = sorted(set(links1) & set(links2))
    for side, unmatched in ((c1.language, set(links1) - set(links2)),
                            (c2.language, set(links2) - set(links1))):
        if unmatched:
            logger.warning(
                "%d link ids on side %s have no partner (e.g. %s)",
                len(unmatched), side, sorted(unmatched)[0],
            )
    hard_links = sorted((links1[key], links2[key]) for key in matched)
    return BilingualCorpus(side1=c1, side2=c2, hard_links=hard_links)


def write_corpus_jsonl(corpus: Corpus, path: str | Path) -> None:
    """Write documents back out in the loader's JSON-lines input format."""
    words = corpus.vocabulary.word_of_id
    records = (
        {"id": doc.doc_id, "lang": corpus.language, "tokens": [words[t] for t in doc.tokens]}
        | ({"labels": sorted(doc.labels)} if doc.labels else {})
        | ({"link": doc.link_id} if doc.link_id else {})
        for doc in corpus.documents
    )
    write_jsonl(records, path)
