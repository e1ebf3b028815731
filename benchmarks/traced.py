"""In-process replay of `multitopic train` and `multitopic eval` with spans.

The functions here call each module's public functions in the order
`cli.cmd_train` and `cli.cmd_eval` call them, and record one span (name,
start, end, parent, run id) around each call. Spans live in memory until
the caller writes them out at the end of a run.

Run as a script, `python3 benchmarks/traced.py setup CONFIG` does in a
fresh interpreter everything `train` does before its first sweep (import,
corpus and dictionary load, transfer build and focus, tree build): this
is what the benchmark times as `setup_s`.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from multitopic import cli
from multitopic import corpus as corpus_io
from multitopic.cli import load_config
from multitopic.dictionary import load_dictionary, subsample
from multitopic.evaluate import classify_crosslingual, cnpmi_model, load_reference
from multitopic.logreg import LogisticRegression
from multitopic.models import infer_heldout, load_model, save_model, train
from multitopic.schedule import compute_lis, concept_features, write_event_log
from multitopic.transfer import AnnealConfig, FocusConfig, anneal_matrix, build_transfer_matrix, static_focus
from multitopic.tree import build_tree

SOFT_KINDS = ("softlink", "softlink_voclink")
TREE_KINDS = ("voclink", "softlink_voclink")
DICT_KINDS = ("softlink", "voclink", "softlink_voclink")


class Tracer:
    """Collects spans in memory; `span` nests by the order of entry."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def write_spans(spans: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in spans:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


class NoTracer:
    """The same calls with no spans recorded: the untraced side of the overhead."""

    @contextmanager
    def span(self, name: str, **attrs):
        yield {}


def prepare(config: dict, tracer=NoTracer()) -> dict:
    """Everything `cmd_train` does before `train()`, as a dict of its results."""
    kind = config["model"]
    with tracer.span("corpus.load") as span:
        bicorpus = cli._load_bilingual(config)
    c1, c2 = bicorpus.side1, bicorpus.side2
    span["tokens"] = c1.token_total + c2.token_total
    hp = cli._hyperparams(config)
    out = {"bicorpus": bicorpus, "hp": hp, "dictionary": None, "matrices": (None, None), "tree": None}
    if kind in DICT_KINDS:
        with tracer.span("dictionary.load") as span:
            dictionary = load_dictionary(cli._require_path(config, "dictionary"), c1.vocabulary, c2.vocabulary)
            fraction = float(config["dictionary_fraction"])
            if fraction < 1.0:
                dictionary = subsample(dictionary, fraction, int(config["seed"]))
        out["dictionary"] = dictionary
        span["concepts"] = len(dictionary.concepts)
    if kind in SOFT_KINDS:
        focus = FocusConfig(threshold=float(config["focus"]["threshold"]), scope=config["focus"]["scope"])
        with tracer.span("transfer.build") as span:
            out["matrices"] = (
                static_focus(build_transfer_matrix(c1, c2, out["dictionary"], config["numerator"]), focus),
                static_focus(build_transfer_matrix(c2, c1, out["dictionary"], config["numerator"]), focus),
            )
        span["nnz"] = sum(len(idx) for m in out["matrices"] for idx, _ in m.rows)
    if kind in TREE_KINDS:
        with tracer.span("tree.build"):
            out["tree"] = build_tree(out["dictionary"], c1.vocabulary, c2.vocabulary, hp.k)
    return out


def _anneal_config(config: dict) -> AnnealConfig | None:
    cfg = config["anneal"]
    anneal = AnnealConfig(
        temperature=float(cfg["temperature"]),
        interval=int(cfg["interval"]),
        stop_iteration=int(cfg["stop_iteration"]),
        schedule=cfg["schedule"],
        lis_every=int(cfg["lis_every"]),
    )
    return anneal if anneal.schedule != "none" else None


def train_pipeline(config_path: Path, output_dir: Path, tracer: Tracer, label: str) -> Path:
    """Replay `multitopic train --config config_path`, writing to `output_dir`."""
    config = load_config(config_path)
    output_dir.mkdir(parents=True, exist_ok=True)
    with tracer.span("train", label=label):
        prep = prepare(config, tracer)
        hp = prep["hp"]
        t1, t2 = prep["matrices"]
        if t1 is not None:
            # one annealing step on both matrices; the CLI anneals inside
            # train(), so this is a separate probe and leaves t1/t2 intact
            with tracer.span("transfer.anneal"):
                anneal_matrix(t1, float(config["anneal"]["temperature"]))
                anneal_matrix(t2, float(config["anneal"]["temperature"]))
        with tracer.span("models.train", label=label) as span:
            model = train(
                config["model"],
                prep["bicorpus"],
                hp,
                transfer_to_side1=t1,
                transfer_to_side2=t2,
                tree=prep["tree"],
                dictionary=prep["dictionary"],
                anneal=_anneal_config(config),
                hardlink_formulation=config["hardlink_formulation"],
            )
        span["tokens"] = (prep["bicorpus"].side1.token_total + prep["bicorpus"].side2.token_total) * hp.train_iterations
        span["lis_calls"] = len(model.provenance.get("lis_history", []))
        span["anneal_events"] = len(model.provenance.get("anneal_events", []))
        model_path = output_dir / "model.json"
        with tracer.span("models.save") as span:
            save_model(model, model_path)
        span["bytes"] = model_path.stat().st_size
        write_event_log(model.provenance.get("anneal_events", []), output_dir / "anneal_log.jsonl")
    return model_path


def eval_pipeline(model_path: Path, inputs, seed: int, tracer: Tracer) -> dict:
    """Replay `multitopic eval --which cnpmi,classify,lis`; returns the report fields."""
    report = {}
    with tracer.span("eval"):
        with tracer.span("models.load"):
            model = load_model(model_path)
        with tracer.span("evaluate.cnpmi"):
            ref = load_reference(inputs.reference, *model.vocabularies)
            _, report["cnpmi_mean"] = cnpmi_model(model, ref, c=20)
        thetas, labels = [], []
        for side, path in enumerate((inputs.test1, inputs.test2)):
            language = model.languages[side]
            with tracer.span("corpus.load_heldout"):
                heldout = corpus_io.load_corpus(
                    path, language,
                    corpus_io.LoaderOptions(top_frequent=0, keep_empty=True),
                    vocabulary=model.vocabularies[side],
                )
            with tracer.span("models.infer") as span:
                thetas.append(infer_heldout(model, heldout, seed=seed))
            span["tokens"] = heldout.token_total * model.hyperparams.infer_iterations
            labels.append([sorted(d.labels) if d.labels else [] for d in heldout.documents])
        with tracer.span("evaluate.classify"):
            report["f1_side1_to_side2"] = classify_crosslingual(
                thetas[0], labels[0], thetas[1], labels[1], seed=seed
            )
            report["f1_side2_to_side1"] = classify_crosslingual(
                thetas[1], labels[1], thetas[0], labels[0], seed=seed
            )
        with tracer.span("dictionary.load_eval"):
            dictionary = load_dictionary(inputs.dictionary, *model.vocabularies)
        tables = tuple(np.array(t, dtype=np.int64) for t in model.counts["word_topic"])
        with tracer.span("schedule.lis"):
            report["lis_final"] = compute_lis(tables, dictionary, model.hyperparams.beta, seed=seed)
    # one logistic-regression fit on the features LIS classifies; not a
    # step of `eval` itself, so it sits outside the eval span
    x, y = concept_features(tables, dictionary, model.hyperparams.beta)
    with tracer.span("logreg.fit"):
        LogisticRegression().fit(x, y)
    return report


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] != "setup":
        print("usage: traced.py setup CONFIG", file=sys.stderr)
        return 2
    prepare(load_config(argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
