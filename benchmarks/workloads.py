"""Benchmark workloads and their seeded input generation.

Every workload draws one synthetic bilingual corpus with
`multitopic.generate_synthetic` (the generator acceptance criteria c05 and
c06 use), splits each language into training and held-out documents of the
same draw, and writes the files the CLI reads: two training corpora, two
held-out corpora, a dictionary, a CNPMI reference corpus and one `train`
config per model that the workload trains. The program only ever sees
these files; the seed stays with the benchmark.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from multitopic import corpus as corpus_io
from multitopic.dictionary import write_dictionary_tsv
from multitopic.evaluate import generate_reference, generate_synthetic, write_reference

DICT_COVERAGE = 0.3
SHARPNESS = 8.0
REFERENCE_PAIRS = 1000
REFERENCE_TYPES = 50
FOCUS = {"threshold": 0.6, "scope": "doc_wise"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    k: int  # topics of the trained models
    topics: int  # topics, hence document labels, of the synthetic draw
    vocab: int
    train_docs: int  # per language
    heldout_docs: int  # per language
    doc_len: int
    train_iterations: int
    infer_iterations: int
    # one `train` call per entry, run in this order; eval scores the last
    models: tuple[dict, ...]
    # share of training documents that carry a `link` id on both sides
    linked_share: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small_adaptive",
            why="c05 shape, softlink K=5 with adaptive annealing: LIS/logreg dominate training",
            k=5, topics=5, vocab=500, train_docs=200, heldout_docs=50, doc_len=50,
            train_iterations=12, infer_iterations=20,
            models=({
                "model": "softlink", "focus": FOCUS,
                "anneal": {"schedule": "adaptive", "interval": 4, "lis_every": 1,
                           "temperature": 0.9, "stop_iteration": 400},
            },),
        ),
        Workload(
            name="medium_softlink",
            why="softlink K=25, fixed annealing: sweep, prior refresh, transfer build and inference dominate",
            k=25, topics=25, vocab=2000, train_docs=500, heldout_docs=100, doc_len=80,
            train_iterations=4, infer_iterations=10,
            models=({
                "model": "softlink", "focus": FOCUS,
                "anneal": {"schedule": "fixed", "interval": 2, "temperature": 0.9,
                           "stop_iteration": 400},
            },),
        ),
        Workload(
            name="kinds_k50",
            why="every sweep variant (plain, linked, pooled, tree) at K=50, where per-topic cost dominates",
            # ten labels keep eval's one-vs-rest classifier small: this
            # workload measures the sweeps, and sweep cost depends on K only
            k=50, topics=10, vocab=500, train_docs=200, heldout_docs=50, doc_len=50,
            train_iterations=2, infer_iterations=5, linked_share=0.5,
            models=(
                {"model": "lda"},
                {"model": "hardlink", "hardlink_formulation": "conditional"},
                {"model": "hardlink", "hardlink_formulation": "joint"},
                {"model": "voclink"},
                {"model": "softlink_voclink", "focus": FOCUS},
            ),
        ),
    )
}


def model_label(model: dict) -> str:
    """Name of one `train` call: the model kind, plus the formulation for hard links."""
    if model["model"] == "hardlink":
        return f"hardlink_{model['hardlink_formulation']}"
    return model["model"]


@dataclass
class Inputs:
    """Paths and facts of one generated input set."""

    directory: Path
    configs: list[Path]  # one per `train` call, in workload order
    outputs: list[Path]  # the matching output directories
    labels: list[str]  # the matching `model_label`s
    test1: Path
    test2: Path
    dictionary: Path
    reference: Path
    doc_len: int
    train_docs: int


def make_inputs(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Draw the workload's corpus from `seed` and write every input file."""
    directory.mkdir(parents=True, exist_ok=True)
    data = generate_synthetic(
        k=workload.topics,
        vocab_per_lang=workload.vocab,
        docs_per_lang=workload.train_docs + workload.heldout_docs,
        doc_len=workload.doc_len,
        dict_coverage=DICT_COVERAGE,
        topic_sharpness=SHARPNESS,
        seed=seed,
    )
    n_linked = int(workload.linked_share * workload.train_docs)
    paths = {}
    for side, corpus in enumerate((data.corpus.side1, data.corpus.side2), start=1):
        docs = corpus.documents
        # synthetic data has no hard links; pair document d of both sides
        train_docs = [
            dataclasses.replace(doc, link_id=f"pair{d:05d}") if d < n_linked else doc
            for d, doc in enumerate(docs[: workload.train_docs])
        ]
        for split, split_docs in (("corpus", train_docs), ("test", docs[workload.train_docs:])):
            path = directory / f"{split}{side}.jsonl"
            corpus_io.write_corpus_jsonl(dataclasses.replace(corpus, documents=split_docs), path)
            paths[f"{split}{side}"] = path
    v1, v2 = data.corpus.side1.vocabulary, data.corpus.side2.vocabulary
    write_dictionary_tsv(data.dictionary, v1, v2, directory / "dictionary.tsv")
    reference = generate_reference(data.phi, REFERENCE_PAIRS, REFERENCE_TYPES, seed=seed + 1)
    write_reference(reference, v1, v2, directory / "reference.jsonl")

    configs, outputs = [], []
    for i, model in enumerate(workload.models):
        output = directory / f"run{i}_{model_label(model)}"
        config = {
            "seed": seed,
            "k": workload.k,
            "train_iterations": workload.train_iterations,
            "infer_iterations": workload.infer_iterations,
            "top_frequent": 0,
            "threads": 1,
            **model,
            "paths": {
                "corpus1": str(paths["corpus1"]),
                "corpus2": str(paths["corpus2"]),
                "language1": "l1",
                "language2": "l2",
                "dictionary": str(directory / "dictionary.tsv"),
                "output_dir": str(output),
            },
        }
        path = directory / f"config{i}.json"
        path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        configs.append(path)
        outputs.append(output)
    return Inputs(
        directory=directory,
        configs=configs,
        outputs=outputs,
        labels=[model_label(m) for m in workload.models],
        test1=paths["test1"],
        test2=paths["test2"],
        dictionary=directory / "dictionary.tsv",
        reference=directory / "reference.jsonl",
        doc_len=workload.doc_len,
        train_docs=workload.train_docs,
    )
