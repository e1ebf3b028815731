"""Command-line surface: train, infer, eval, transfer-build, synth, inspect.

Training is driven by a JSON config file; command-line flags override
config values. Every command is deterministic given (config, seed), and a
manifest capturing the resolved config and its hash is written next to
the outputs. Exit codes: 2 for configuration errors (including `train`,
`infer` or `eval --which classify` finding no C compiler to build the
compiled sampler, and an output path that cannot be written), 3 for data
errors, 1 for a closed output pipe or anything unexpected.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import _native
from . import corpus as corpus_io
from . import evaluate as ev
from .dictionary import load_dictionary, subsample, write_dictionary_tsv
from .errors import ConfigError, DataError
from .models import (
    HARDLINK_FORMULATIONS,
    MODEL_KINDS,
    Hyperparams,
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
    FOCUS_SCOPES,
    NUMERATORS,
    SCHEDULES,
    AnnealConfig,
    FocusConfig,
    build_transfer_matrix,
    static_focus,
    write_matrix_tsv,
)

logger = logging.getLogger("multitopic")

MANIFEST_FORMAT_VERSION = 1
EVALUATIONS = ("cnpmi", "classify", "lis")  # what `eval --which` may list


@dataclass(frozen=True)
class Key:
    """One `train` config key. `kind` is "int", "float", "bool", "enum"
    (one of `choices`), "str" or "path" (a file path, given as a string).
    A number must lie in `bounds`, an interval such as "(0, 1]" whose ends
    are open or closed: an open end at inf keeps infinity out, and NaN
    lies in no interval. A key whose default is null may be null."""

    default: object
    kind: str
    bounds: str = ""
    choices: tuple = ()

    def check(self, name: str, value):
        """`value` converted to this key's kind; a value of another kind or
        outside the bounds is a configuration error."""
        if value is None and self.default is None:
            return None
        if self.kind in ("int", "float"):
            number = _number(value, name, int if self.kind == "int" else float)
            if not _within(number, self.bounds):
                wanted = _describe(self.bounds) if math.isfinite(number) else "finite"
                raise ConfigError(f"{name} must be {wanted}, got {value!r}")
            return number
        if self.kind == "bool":
            valid, wanted = isinstance(value, bool), "true or false"
        elif self.kind == "enum":
            valid = isinstance(value, str) and value in self.choices
            wanted = "one of " + ", ".join(self.choices)
        else:
            valid, wanted = isinstance(value, str), "a string"
        if not valid:
            raise ConfigError(f"{name} must be {wanted}, got {value!r}")
        return value


# every `train` config key by its path, in README order: `load_config`
# takes the defaults from here and `_train_plan` checks a config against it
CONFIG_KEYS = {
    "model": Key("lda", "enum", choices=MODEL_KINDS),
    "seed": Key(0, "int", "[0, inf)"),
    "k": Key(25, "int", "[2, inf)"),
    "alpha": Key(0.1, "float", "(0, inf)"),
    "beta": Key(0.01, "float", "(0, inf)"),
    "beta_root": Key(0.01, "float", "(0, inf)"),
    "beta_internal": Key(100.0, "float", "(0, inf)"),
    "train_iterations": Key(1000, "int", "[1, inf)"),
    "infer_iterations": Key(500, "int", "[1, inf)"),
    "top_frequent": Key(100, "int", "[0, inf)"),
    "keep_empty": Key(False, "bool"),
    "dictionary_fraction": Key(1.0, "float", "(0, 1]"),
    "numerator": Key("pairs", "enum", choices=NUMERATORS),
    "hardlink_formulation": Key("conditional", "enum", choices=HARDLINK_FORMULATIONS),
    "threads": Key(1, "int", "[1, inf)"),  # accepted; the sweeps run on one thread
    "paths.corpus1": Key(None, "path"),
    "paths.corpus2": Key(None, "path"),
    "paths.language1": Key(None, "str"),
    "paths.language2": Key(None, "str"),
    "paths.dictionary": Key(None, "path"),
    "paths.stopwords1": Key(None, "path"),
    "paths.stopwords2": Key(None, "path"),
    "paths.output_dir": Key(".", "path"),
    "focus.threshold": Key(0.0, "float", "[0, 1]"),
    "focus.scope": Key("doc_wise", "enum", choices=FOCUS_SCOPES),
    "anneal.schedule": Key("none", "enum", choices=SCHEDULES),
    "anneal.temperature": Key(0.9, "float", "(0, 1]"),
    "anneal.interval": Key(10, "int", "[1, inf)"),
    "anneal.stop_iteration": Key(400, "int", "[0, inf)"),
    "anneal.lis_every": Key(1, "int", "[1, inf)"),
}


def _within(number, bounds: str) -> bool:
    low, high = (float(end) for end in bounds[1:-1].split(","))
    above = low < number if bounds[0] == "(" else low <= number
    below = number < high if bounds[-1] == ")" else number <= high
    return above and below


def _describe(bounds: str) -> str:
    """"(0, inf)" as "positive", "[0, inf)" as "non-negative", "[2, inf)"
    as "at least 2"; an interval with a finite upper end as itself."""
    low, high = bounds[1:-1].split(", ")
    if high != "inf":
        return f"in {bounds}"
    if low == "0":
        return "positive" if bounds[0] == "(" else "non-negative"
    return f"{'above' if bounds[0] == '(' else 'at least'} {low}"


def _defaults() -> dict:
    """A fresh default config, nested by section."""
    config: dict = {}
    for path, key in CONFIG_KEYS.items():
        section, _, name = path.rpartition(".")
        (config.setdefault(section, {}) if section else config)[name] = key.default
    return config


def _merge(config: dict, user: dict, prefix: str = "") -> None:
    """Merge `user` into `config`; a section that is an object in
    `config` must be an object in `user` too."""
    for key, value in user.items():
        name = prefix + key
        if key not in config:
            raise ConfigError(f"unknown config key {name!r}")
        if isinstance(config[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {name!r} must be an object, got {value!r}")
            _merge(config[key], value, f"{name}.")
        else:
            config[key] = value


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
    config = _defaults()
    _merge(config, user)
    return config


def _setting(config: dict, path: str):
    """The merged config's value at key path `path`, checked against its
    row of CONFIG_KEYS and converted to the row's kind."""
    section, _, name = path.rpartition(".")
    return CONFIG_KEYS[path].check(path, (config[section] if section else config)[name])


def _required(config: dict, key: str) -> str:
    value = _setting(config, f"paths.{key}")
    if not value:
        raise ConfigError(f"config paths.{key} is required for this command")
    return value


def _require_path(config: dict, key: str) -> Path:
    path = Path(_required(config, key))
    if not path.exists():
        raise ConfigError(f"paths.{key}: {path} does not exist")
    return path


def _number(value, name: str, kind: type = float):
    """`value` converted by `kind` (float or int). A value that is not a
    JSON number (a boolean or a string, say), or for an int a number with
    a fractional part, is a configuration error, not an internal one."""
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return kind(value)
        except OverflowError:
            pass
    raise ConfigError(f"{name} must be a number, got {value!r}")


def _check_output_dir(path: Path, name: str) -> None:
    """Refuse an output directory that cannot be created: it, or the
    nearest of its ancestors that exists, is not a writable directory.
    Creates nothing."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"{name}: cannot create {path}: {existing} is not a directory")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise ConfigError(f"{name}: cannot create {path}: {existing} is not writable")


def _make_dir(path: Path, name: str) -> None:
    """Create the output directory `path`, which `name` gave."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{name}: cannot create {path}: {exc.strerror or exc}") from None


def _check_output_file(path: str, flag: str) -> None:
    """Refuse an output file that cannot be created: `path` is a
    directory, or its directory does not exist."""
    target = Path(path)
    if target.is_dir():
        raise ConfigError(f"{flag} {path} is a directory")
    if not target.parent.is_dir():
        raise ConfigError(f"{flag} {path}: directory {target.parent} does not exist")


def _seed_flag(text: str) -> int:
    """Type of every `--seed` flag: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _loader_options(config: dict, side: int) -> corpus_io.LoaderOptions:
    stopwords = frozenset()
    if _setting(config, f"paths.stopwords{side}"):
        stopwords = corpus_io.load_stopwords(_require_path(config, f"stopwords{side}"))
    return corpus_io.LoaderOptions(
        stopwords=stopwords,
        top_frequent=_setting(config, "top_frequent"),
        keep_empty=_setting(config, "keep_empty"),
    )


def _hyperparams(config: dict) -> Hyperparams:
    return Hyperparams(**{f.name: _setting(config, f.name) for f in fields(Hyperparams)})


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
    c1, c2 = (
        corpus_io.load_corpus(
            _require_path(config, f"corpus{side}"),
            _required(config, f"language{side}"),
            _loader_options(config, side),
        )
        for side in (1, 2)
    )
    return corpus_io.pair_corpora(c1, c2)


@dataclass(frozen=True)
class TrainPlan:
    """What `cmd_train` passes on, built from a checked config."""

    kind: str
    hp: Hyperparams
    focus: FocusConfig
    anneal: AnnealConfig | None  # None for the "none" schedule
    numerator: str
    hardlink_formulation: str
    dictionary_fraction: float
    output_dir: Path


def _train_plan(config: dict) -> TrainPlan:
    """Check every key of the merged config against CONFIG_KEYS, whichever
    model is chosen, then the rules the config alone decides: both
    languages are set, the files the model reads exist, and only soft-link
    models anneal. Reads no input and creates nothing."""
    value = {path: _setting(config, path) for path in CONFIG_KEYS}
    kind = value["model"]
    for side in (1, 2):
        _required(config, f"language{side}")
        _require_path(config, f"corpus{side}")
        if value[f"paths.stopwords{side}"]:
            _require_path(config, f"stopwords{side}")
    if kind in SOFT_KINDS or kind in TREE_KINDS:
        _require_path(config, "dictionary")
    if value["anneal.schedule"] != "none" and kind not in SOFT_KINDS:
        raise ConfigError("annealing schedules only apply to soft-link models")
    anneal = AnnealConfig(**{f.name: value[f"anneal.{f.name}"] for f in fields(AnnealConfig)})
    return TrainPlan(
        kind=kind,
        hp=_hyperparams(config),
        focus=FocusConfig(**{f.name: value[f"focus.{f.name}"] for f in fields(FocusConfig)}),
        anneal=anneal if anneal.schedule != "none" else None,
        numerator=value["numerator"],
        hardlink_formulation=value["hardlink_formulation"],
        dictionary_fraction=value["dictionary_fraction"],
        output_dir=Path(value["paths.output_dir"]),
    )


def cmd_train(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    if args.output_dir is not None:
        config["paths"]["output_dir"] = args.output_dir
    if args.threads is not None:
        config["threads"] = args.threads
    plan = _train_plan(config)
    _native.load()  # no compiler: stop before any output or loading
    # created only once the model is trained, so a failed run leaves none
    _check_output_dir(plan.output_dir, "paths.output_dir")

    bicorpus = _load_bilingual(config)

    dictionary = None
    if plan.kind in SOFT_KINDS or plan.kind in TREE_KINDS:
        dictionary = load_dictionary(
            _require_path(config, "dictionary"),
            bicorpus.side1.vocabulary,
            bicorpus.side2.vocabulary,
        )
        if plan.dictionary_fraction < 1.0:
            dictionary = subsample(dictionary, plan.dictionary_fraction, plan.hp.seed)

    transfer_to_side1 = transfer_to_side2 = None
    if plan.kind in SOFT_KINDS:
        transfer_to_side1, transfer_to_side2 = (
            static_focus(build_transfer_matrix(target, source, dictionary, plan.numerator), plan.focus)
            for target, source in (
                (bicorpus.side1, bicorpus.side2),
                (bicorpus.side2, bicorpus.side1),
            )
        )

    model = train(
        plan.kind,
        bicorpus,
        plan.hp,
        transfer_to_side1=transfer_to_side1,
        transfer_to_side2=transfer_to_side2,
        dictionary=dictionary,
        anneal=plan.anneal,
        hardlink_formulation=plan.hardlink_formulation,
    )
    _make_dir(plan.output_dir, "paths.output_dir")
    save_model(model, plan.output_dir / "model.json")
    write_event_log(model.provenance.get("anneal_events", []), plan.output_dir / "anneal_log.jsonl")
    _write_manifest(config, "train", plan.output_dir)
    print(f"model written to {plan.output_dir / 'model.json'}")
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
    _check_output_file(args.output, "--output")
    _native.load()  # no compiler: stop before any input is read
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
    which = {w.strip() for w in args.which.split(",") if w.strip()}
    if not which or which - set(EVALUATIONS):
        raise ConfigError(
            f"--which must list one or more of {', '.join(EVALUATIONS)}, got {args.which!r}"
        )
    if "cnpmi" in which and not args.reference:
        raise ConfigError("--reference is required for cnpmi")
    if "classify" in which and not (args.test_corpus1 and args.test_corpus2):
        raise ConfigError("--test-corpus1 and --test-corpus2 are required for classify")
    if "lis" in which and not args.dictionary:
        raise ConfigError("--dictionary is required for lis")
    if args.output:
        _check_output_file(args.output, "--output")
    if "classify" in which:
        _native.load()  # no compiler: stop before any input is read
    model = load_model(args.model)
    report = ev.EvalReport()
    if "cnpmi" in which:
        ref = ev.load_reference(args.reference, *model.vocabularies)
        report.cnpmi_per_topic, report.cnpmi_mean = ev.cnpmi_model(
            model, ref, c=args.top_words
        )
    if "classify" in which:
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
    _check_output_file(args.output, "--output")
    focus = FocusConfig(threshold=args.focus_threshold, scope=args.focus_scope)
    options = corpus_io.LoaderOptions(top_frequent=args.top_frequent)
    c1 = corpus_io.load_corpus(args.corpus1, args.language1, options)
    c2 = corpus_io.load_corpus(args.corpus2, args.language2, options)
    dictionary = load_dictionary(args.dictionary, c1.vocabulary, c2.vocabulary)
    target, source = (c2, c1) if args.target_side == 2 else (c1, c2)
    matrix = build_transfer_matrix(target, source, dictionary, args.numerator)
    if focus.threshold > 0.0:
        matrix = static_focus(matrix, focus)
    write_matrix_tsv(matrix, target, source, args.output)
    print(f"transfer matrix written to {args.output}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    for flag, value in (
        ("--k", args.k), ("--vocab", args.vocab), ("--docs", args.docs),
        ("--doc-len", args.doc_len), ("--reference-pairs", args.reference_pairs),
    ):
        if value < 1:
            raise ConfigError(f"{flag} must be at least 1, got {value}")
    if args.vocab < args.k:  # every topic's block needs a word
        raise ConfigError(f"--vocab must be at least --k ({args.k}), got {args.vocab}")
    if not args.sharpness > 0:
        raise ConfigError(f"--sharpness must be positive, got {args.sharpness}")
    data = ev.generate_synthetic(
        k=args.k,
        vocab_per_lang=args.vocab,
        docs_per_lang=args.docs,
        doc_len=args.doc_len,
        dict_coverage=args.dict_coverage,
        topic_sharpness=args.sharpness,
        seed=args.seed,
    )
    reference = ev.generate_reference(
        data.phi, args.reference_pairs, args.doc_len, seed=args.seed + 1
    )
    output_dir = Path(args.output_dir)  # created once generation has succeeded
    _make_dir(output_dir, "--output-dir")
    corpus_io.write_corpus_jsonl(data.corpus.side1, output_dir / "corpus1.jsonl")
    corpus_io.write_corpus_jsonl(data.corpus.side2, output_dir / "corpus2.jsonl")
    write_dictionary_tsv(
        data.dictionary,
        data.corpus.side1.vocabulary,
        data.corpus.side2.vocabulary,
        output_dir / "dictionary.tsv",
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
    p_tb.add_argument("--numerator", choices=NUMERATORS, default="pairs")
    p_tb.add_argument("--focus-threshold", type=float, default=0.0)
    p_tb.add_argument("--focus-scope", choices=FOCUS_SCOPES, default="doc_wise")
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
