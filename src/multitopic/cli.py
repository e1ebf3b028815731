"""Command-line surface: train, infer, eval, transfer-build, synth, inspect.

Training is driven by a JSON config file; command-line flags override
config values. Every command is deterministic given (config, seed), and a
manifest capturing the resolved config and its hash is written next to
the outputs. Exit codes: 2 for configuration errors (including `train`
finding no C compiler to build its sweeps), 3 for data errors, 1 for a
closed output pipe or anything unexpected.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import _native
from . import corpus as corpus_io
from . import evaluate as ev
from .dictionary import load_dictionary, subsample, write_dictionary_tsv
from .errors import ConfigError, DataError
from .models import (
    Hyperparams,
    MODEL_KINDS,
    SOFT_KINDS,
    TREE_KINDS,
    infer_heldout,
    load_model,
    save_model,
    train,
    write_json,
)
from .schedule import compute_lis, write_event_log
from .transfer import (
    AnnealConfig,
    FocusConfig,
    build_transfer_matrix,
    static_focus,
    write_matrix_tsv,
)

logger = logging.getLogger("multitopic")

MANIFEST_FORMAT_VERSION = 1

DEFAULT_CONFIG = {
    "model": "lda",
    "seed": 0,
    "k": 25,
    "alpha": 0.1,
    "beta": 0.01,
    "beta_root": 0.01,
    "beta_internal": 100.0,
    "train_iterations": 1000,
    "infer_iterations": 500,
    "top_frequent": 100,
    "keep_empty": False,
    "dictionary_fraction": 1.0,
    "numerator": "pairs",
    "hardlink_formulation": "conditional",
    "threads": 1,
    "paths": {
        "corpus1": None,
        "corpus2": None,
        "language1": None,
        "language2": None,
        "dictionary": None,
        "stopwords1": None,
        "stopwords2": None,
        "output_dir": ".",
    },
    "focus": {"threshold": 0.0, "scope": "doc_wise"},
    "anneal": {
        "schedule": "none",
        "temperature": 0.9,
        "interval": 10,
        "stop_iteration": 400,
        "lis_every": 1,
    },
}


def _merge(base: dict, override: dict, prefix: str = "") -> dict:
    """`base` with `override` merged in; a section that is an object in
    `base` must be an object in `override` too."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        name = prefix + key
        if key not in out:
            raise ConfigError(f"unknown config key {name!r}")
        if isinstance(out[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {name!r} must be an object, got {value!r}")
            out[key] = _merge(out[key], value, f"{name}.")
        else:
            out[key] = value
    return out


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def load_config(path: str | Path) -> dict:
    try:
        with corpus_io.open_text(path, "config file", ConfigError) as fh:
            user = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc.msg}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return _merge(DEFAULT_CONFIG, user)


def _require_path(config: dict, key: str) -> Path:
    value = config["paths"].get(key)
    if not value:
        raise ConfigError(f"config paths.{key} is required for this command")
    path = Path(value)
    if not path.exists():
        raise ConfigError(f"paths.{key}: {path} does not exist")
    return path


def _number(value, name: str, kind: type = float):
    """`value` converted by `kind` (float or int). A value that is not a
    number, a boolean, or for an int a number with a fractional part, is
    a configuration error, not an internal one."""
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if not isinstance(value, bool):
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"{name} must be a number, got {value!r}")


def _seed_flag(text: str) -> int:
    """Type of every `--seed` flag: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _loader_options(config: dict, side: int) -> corpus_io.LoaderOptions:
    stopword_key = f"stopwords{side}"
    stopwords = frozenset()
    if config["paths"].get(stopword_key):
        stopwords = corpus_io.load_stopwords(_require_path(config, stopword_key))
    if not isinstance(config["keep_empty"], bool):
        raise ConfigError(f"keep_empty must be true or false, got {config['keep_empty']!r}")
    return corpus_io.LoaderOptions(
        stopwords=stopwords,
        top_frequent=_number(config["top_frequent"], "top_frequent", int),
        keep_empty=config["keep_empty"],
    )


def _hyperparams(config: dict) -> Hyperparams:
    return Hyperparams(
        k=_number(config["k"], "k", int),
        alpha=_number(config["alpha"], "alpha"),
        beta=_number(config["beta"], "beta"),
        beta_root=_number(config["beta_root"], "beta_root"),
        beta_internal=_number(config["beta_internal"], "beta_internal"),
        train_iterations=_number(config["train_iterations"], "train_iterations", int),
        infer_iterations=_number(config["infer_iterations"], "infer_iterations", int),
        seed=_number(config["seed"], "seed", int),
    )


def _write_manifest(config: dict, command: str, output_dir: Path) -> None:
    canonical = _canonical_json(config)
    manifest = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "command": command,
        "config": config,
        "config_hash": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "seed": config["seed"],
    }
    try:
        text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # a NaN or infinity in the config
        raise DataError(f"cannot write the manifest: {exc}") from None
    with open(output_dir / "manifest.json", "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _load_bilingual(config: dict):
    path1 = _require_path(config, "corpus1")
    path2 = _require_path(config, "corpus2")
    lang1 = config["paths"].get("language1")
    lang2 = config["paths"].get("language2")
    if not lang1 or not lang2:
        raise ConfigError("config paths.language1 and paths.language2 are required")
    c1 = corpus_io.load_corpus(path1, lang1, _loader_options(config, 1))
    c2 = corpus_io.load_corpus(path2, lang2, _loader_options(config, 2))
    return corpus_io.pair_corpora(c1, c2)


def cmd_train(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    if args.output_dir is not None:
        config["paths"]["output_dir"] = args.output_dir
    if args.threads is not None:
        config["threads"] = args.threads
    if _number(config["threads"], "threads", int) < 1:
        raise ConfigError("threads must be >= 1")
    kind = config["model"]
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model {kind!r}; choose from {MODEL_KINDS}")
    _native.load()  # no compiler: stop before any output or loading

    output_dir = Path(config["paths"]["output_dir"])
    output_dir.mkdir(parents=True, exist_ok=True)

    bicorpus = _load_bilingual(config)
    hp = _hyperparams(config)

    dictionary = None
    if kind in SOFT_KINDS or kind in TREE_KINDS:
        dictionary = load_dictionary(
            _require_path(config, "dictionary"),
            bicorpus.side1.vocabulary,
            bicorpus.side2.vocabulary,
        )
        fraction = _number(config["dictionary_fraction"], "dictionary_fraction")
        if fraction < 1.0:
            dictionary = subsample(dictionary, fraction, hp.seed)

    transfer_to_side1 = transfer_to_side2 = None
    if kind in SOFT_KINDS:
        focus = FocusConfig(
            threshold=_number(config["focus"]["threshold"], "focus.threshold"),
            scope=config["focus"]["scope"],
        )
        transfer_to_side1 = static_focus(
            build_transfer_matrix(
                bicorpus.side1, bicorpus.side2, dictionary, config["numerator"]
            ),
            focus,
        )
        transfer_to_side2 = static_focus(
            build_transfer_matrix(
                bicorpus.side2, bicorpus.side1, dictionary, config["numerator"]
            ),
            focus,
        )

    anneal = config["anneal"]
    anneal_cfg = AnnealConfig(
        temperature=_number(anneal["temperature"], "anneal.temperature"),
        interval=_number(anneal["interval"], "anneal.interval", int),
        stop_iteration=_number(anneal["stop_iteration"], "anneal.stop_iteration", int),
        schedule=anneal["schedule"],
        lis_every=_number(anneal["lis_every"], "anneal.lis_every", int),
    )
    model = train(
        kind,
        bicorpus,
        hp,
        transfer_to_side1=transfer_to_side1,
        transfer_to_side2=transfer_to_side2,
        dictionary=dictionary,
        anneal=anneal_cfg if anneal_cfg.schedule != "none" else None,
        hardlink_formulation=config["hardlink_formulation"],
    )
    save_model(model, output_dir / "model.json")
    write_event_log(model.provenance.get("anneal_events", []), output_dir / "anneal_log.jsonl")
    _write_manifest(config, "train", output_dir)
    print(f"model written to {output_dir / 'model.json'}")
    return 0


def _check_threads(args: argparse.Namespace) -> None:
    if getattr(args, "threads", 1) < 1:
        raise ConfigError("threads must be >= 1")


def _load_heldout(model, path: str, language: str) -> corpus_io.Corpus:
    """A held-out corpus encoded against the model's vocabulary for
    `language`, empty documents kept, so every document gets a theta row."""
    return corpus_io.load_corpus(
        path,
        language,
        corpus_io.LoaderOptions(top_frequent=0, keep_empty=True),
        vocabulary=model.vocabularies[model.side_of_language(language)],
    )


def cmd_infer(args: argparse.Namespace) -> int:
    _check_threads(args)
    model = load_model(args.model)
    heldout = _load_heldout(model, args.corpus, args.language)
    theta = infer_heldout(model, heldout, seed=args.seed)
    payload = {
        "format_version": 1,
        "language": args.language,
        "doc_ids": [d.doc_id for d in heldout.documents],
        "labels": [sorted(d.labels) if d.labels else None for d in heldout.documents],
        "theta": theta,
    }
    write_json(payload, args.output)
    print(f"theta written to {args.output}")
    return 0


def _infer_for_eval(model, path: str, language: str, seed: int):
    heldout = _load_heldout(model, path, language)
    theta = infer_heldout(model, heldout, seed=seed)
    labels = [sorted(d.labels) if d.labels else [] for d in heldout.documents]
    return theta, labels


def cmd_eval(args: argparse.Namespace) -> int:
    _check_threads(args)
    model = load_model(args.model)
    which = {w.strip() for w in args.which.split(",") if w.strip()}
    unknown = which - {"cnpmi", "classify", "lis"}
    if unknown:
        raise ConfigError(f"unknown evaluations: {sorted(unknown)}")
    report = ev.EvalReport()
    if "cnpmi" in which:
        if not args.reference:
            raise ConfigError("--reference is required for cnpmi")
        ref = ev.load_reference(args.reference, *model.vocabularies)
        report.cnpmi_per_topic, report.cnpmi_mean = ev.cnpmi_model(
            model, ref, c=args.top_words
        )
    if "classify" in which:
        if not args.test_corpus1 or not args.test_corpus2:
            raise ConfigError("--test-corpus1 and --test-corpus2 are required for classify")
        lang1, lang2 = model.languages
        theta1, labels1 = _infer_for_eval(model, args.test_corpus1, lang1, args.seed)
        theta2, labels2 = _infer_for_eval(model, args.test_corpus2, lang2, args.seed)
        report.f1_side1_to_side2 = ev.classify_crosslingual(
            theta1, labels1, theta2, labels2, seed=args.seed
        )
        report.f1_side2_to_side1 = ev.classify_crosslingual(
            theta2, labels2, theta1, labels1, seed=args.seed
        )
    if "lis" in which:
        if not args.dictionary:
            raise ConfigError("--dictionary is required for lis")
        if not model.counts:
            raise DataError("model file does not carry count tables needed for LIS")
        dictionary = load_dictionary(args.dictionary, *model.vocabularies)
        tables = (
            np.array(model.counts["word_topic"][0], dtype=np.int64),
            np.array(model.counts["word_topic"][1], dtype=np.int64),
        )
        report.lis_final = compute_lis(
            tables, dictionary, model.hyperparams.beta, seed=args.seed
        )
    # saved first, so the report is written even when stdout is gone
    if args.output:
        report.save(args.output)
    print(report.to_text())
    return 0


def cmd_transfer_build(args: argparse.Namespace) -> int:
    options = corpus_io.LoaderOptions(top_frequent=args.top_frequent)
    c1 = corpus_io.load_corpus(args.corpus1, args.language1, options)
    c2 = corpus_io.load_corpus(args.corpus2, args.language2, options)
    dictionary = load_dictionary(args.dictionary, c1.vocabulary, c2.vocabulary)
    target, source = (c2, c1) if args.target_side == 2 else (c1, c2)
    matrix = build_transfer_matrix(target, source, dictionary, args.numerator)
    if args.focus_threshold > 0.0:
        matrix = static_focus(
            matrix, FocusConfig(threshold=args.focus_threshold, scope=args.focus_scope)
        )
    write_matrix_tsv(matrix, target, source, args.output)
    print(f"transfer matrix written to {args.output}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    if args.reference_pairs < 1:
        raise ConfigError(f"--reference-pairs must be at least 1, got {args.reference_pairs}")
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    data = ev.generate_synthetic(
        k=args.k,
        vocab_per_lang=args.vocab,
        docs_per_lang=args.docs,
        doc_len=args.doc_len,
        dict_coverage=args.dict_coverage,
        topic_sharpness=args.sharpness,
        seed=args.seed,
    )
    corpus_io.write_corpus_jsonl(data.corpus.side1, output_dir / "corpus1.jsonl")
    corpus_io.write_corpus_jsonl(data.corpus.side2, output_dir / "corpus2.jsonl")
    write_dictionary_tsv(
        data.dictionary,
        data.corpus.side1.vocabulary,
        data.corpus.side2.vocabulary,
        output_dir / "dictionary.tsv",
    )
    reference = ev.generate_reference(
        data.phi, args.reference_pairs, args.doc_len, seed=args.seed + 1
    )
    ev.write_reference(
        reference,
        data.corpus.side1.vocabulary,
        data.corpus.side2.vocabulary,
        output_dir / "reference.jsonl",
    )
    truth = {
        "phi": [p.tolist() for p in data.phi],
        "theta": [t.tolist() for t in data.theta],
    }
    with open(output_dir / "truth.json", "w", encoding="utf-8") as fh:
        json.dump(truth, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"synthetic data written to {output_dir}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    # built whole before printing, so a bad --top-words prints nothing
    lines = [
        f"model_kind: {model.model_kind}",
        f"languages: {model.languages[0]}, {model.languages[1]}",
        f"topics: {model.hyperparams.k}",
    ]
    for side in (0, 1):
        vocab = model.vocabularies[side]
        lines.append(f"--- {vocab.language} ---")
        for k in range(model.hyperparams.k):
            ids = ev.top_words(model.phi[side][k], min(args.top_words, vocab.size))
            words = " ".join(vocab.word_of_id[w] for w in ids)
            lines.append(f"topic {k:>3}: {words}")
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multitopic",
        description="Multilingual topic models with document, soft, and vocabulary links",
    )
    parser.add_argument("--log-level", default="WARNING")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a JSON config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=_seed_flag, default=None)
    p_train.add_argument("--output-dir", default=None)
    p_train.add_argument("--threads", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_infer = sub.add_parser("infer", help="infer topic mixtures for held-out documents")
    p_infer.add_argument("--model", required=True)
    p_infer.add_argument("--corpus", required=True)
    p_infer.add_argument("--language", required=True)
    p_infer.add_argument("--output", required=True)
    p_infer.add_argument("--seed", type=_seed_flag, default=0)
    p_infer.add_argument("--threads", type=int, default=1)
    p_infer.set_defaults(func=cmd_infer)

    p_eval = sub.add_parser("eval", help="evaluate a trained model")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--which", default="cnpmi", help="comma list: cnpmi,classify,lis")
    p_eval.add_argument("--reference", default=None)
    p_eval.add_argument("--test-corpus1", default=None)
    p_eval.add_argument("--test-corpus2", default=None)
    p_eval.add_argument("--dictionary", default=None)
    p_eval.add_argument("--top-words", type=int, default=20)
    p_eval.add_argument("--output", default=None)
    p_eval.add_argument("--seed", type=_seed_flag, default=0)
    p_eval.add_argument("--threads", type=int, default=1)
    p_eval.set_defaults(func=cmd_eval)

    p_tb = sub.add_parser("transfer-build", help="build and dump a transfer matrix")
    p_tb.add_argument("--corpus1", required=True)
    p_tb.add_argument("--corpus2", required=True)
    p_tb.add_argument("--language1", required=True)
    p_tb.add_argument("--language2", required=True)
    p_tb.add_argument("--dictionary", required=True)
    p_tb.add_argument("--target-side", type=int, choices=(1, 2), default=2)
    p_tb.add_argument("--numerator", choices=("pairs", "covered_types"), default="pairs")
    p_tb.add_argument("--focus-threshold", type=float, default=0.0)
    p_tb.add_argument("--focus-scope", choices=("doc_wise", "corpus_wise"), default="doc_wise")
    p_tb.add_argument("--top-frequent", type=int, default=100)
    p_tb.add_argument("--output", required=True)
    p_tb.set_defaults(func=cmd_transfer_build)

    p_synth = sub.add_parser("synth", help="generate a synthetic bilingual corpus")
    p_synth.add_argument("--k", type=int, default=5)
    p_synth.add_argument("--vocab", type=int, default=500)
    p_synth.add_argument("--docs", type=int, default=200)
    p_synth.add_argument("--doc-len", type=int, default=50)
    p_synth.add_argument("--dict-coverage", type=float, default=0.3)
    p_synth.add_argument("--sharpness", type=float, default=8.0)
    p_synth.add_argument("--reference-pairs", type=int, default=1000)
    p_synth.add_argument("--seed", type=_seed_flag, default=0)
    p_synth.add_argument("--output-dir", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_inspect = sub.add_parser("inspect", help="print a model's top words")
    p_inspect.add_argument("--model", required=True)
    p_inspect.add_argument("--top-words", type=int, default=10)
    p_inspect.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level.upper(), logging.WARNING))
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away (`multitopic inspect ... | head -1`): send
        # what is still buffered to devnull so the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - unexpected failures
        logger.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
