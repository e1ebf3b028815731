"""Command-line surface: train, infer, eval, transfer-build, synth, inspect.

Training is driven by a JSON config file; command-line flags override
config values. Every command is deterministic given (config, seed), and a
manifest capturing the resolved config and its hash is written next to
the outputs. Exit codes: 2 for configuration errors (including `train`,
`infer` or `eval --which classify` finding no C compiler to build the
compiled sampler, an output path that cannot be written, and a size the
machine cannot shape), 3 for data errors, 1 for a closed output pipe or
anything unexpected.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import _native
from . import corpus as corpus_io
from . import evaluate as ev
from .dictionary import DICTIONARY_FRACTION, load_dictionary, subsample, write_dictionary_tsv
from .errors import ConfigError, DataError
from .models import (
    HARDLINK_FORMULATION,
    MODEL,
    Hyperparams,
    SOFT_KINDS,
    TREE_KINDS,
    infer_heldout,
    load_model,
    save_model,
    train,
)
from .schedule import compute_lis, write_event_log
from .settings import Key, declared
from .transfer import (
    NUMERATOR,
    AnnealConfig,
    FocusConfig,
    build_transfer_matrix,
    static_focus,
    write_matrix_tsv,
)

logger = logging.getLogger("multitopic")

MANIFEST_FORMAT_VERSION = 1
EVALUATIONS = ("cnpmi", "classify", "lis")  # what `eval --which` may list
LOG_LEVEL = Key("WARNING", "enum", choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"))


# every `train` config key by its path, in README order: `load_config`
# takes the defaults from here and `_train_plan` checks a config against
# it. The rows written out are the settings no library object carries.
CONFIG_KEYS = {
    "model": MODEL,
    **declared(Hyperparams),
    **declared(corpus_io.LoaderOptions),
    "dictionary_fraction": DICTIONARY_FRACTION,
    "numerator": NUMERATOR,
    "hardlink_formulation": HARDLINK_FORMULATION,
    "threads": Key(1, "int", "[1, inf)"),  # accepted; the sweeps run on one thread
    "paths.corpus1": Key(None, "path"),
    "paths.corpus2": Key(None, "path"),
    "paths.language1": Key(None, "str"),
    "paths.language2": Key(None, "str"),
    "paths.dictionary": Key(None, "path"),
    "paths.stopwords1": Key(None, "path"),
    "paths.stopwords2": Key(None, "path"),
    "paths.output_dir": Key(".", "path"),
    **declared(FocusConfig),
    **declared(AnnealConfig),
}


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


def load_config(path: str | Path) -> dict:
    config = _defaults()
    _merge(config, corpus_io.read_json(path, "config file", ConfigError))
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


def _stat(path: Path, name: str, test=Path.exists) -> bool:
    """`test(path)`, refusing an OS error (a name too long, say) under `name`."""
    try:
        return test(path)
    except OSError as exc:
        raise ConfigError(f"{name}: {path}: {exc.strerror or exc}") from None


def _require_path(config: dict, key: str) -> Path:
    path = Path(_required(config, key))
    if not _stat(path, f"paths.{key}"):
        raise ConfigError(f"paths.{key}: {path} does not exist")
    return path


def _check_output_dir(path: Path, name: str) -> None:
    """Refuse an output directory that cannot be created: it, or the
    nearest of its ancestors that exists, is not a writable directory.
    Creates nothing."""
    existing = next(p for p in (path, *path.parents) if _stat(p, name))
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
    if _stat(target, flag, Path.is_dir):
        raise ConfigError(f"{flag} {path} is a directory")
    if not _stat(target.parent, flag, Path.is_dir):
        raise ConfigError(f"{flag} {path}: directory {target.parent} does not exist")


# how numpy refuses an array size before allocating anything
_TOO_LARGE = ("Maximum allowed size exceeded", "Maximum allowed dimension exceeded", "array is too big")


@contextmanager
def _sized(names: str):
    """Run a step whose sizes `names` set: numpy refusing a size past
    `np.intp`, an integer too large for C, or memory running out is a
    configuration error naming them."""
    try:
        yield
    except (MemoryError, OverflowError, ValueError) as exc:
        if isinstance(exc, ValueError) and not str(exc).startswith(_TOO_LARGE):
            raise
        raise ConfigError(f"{names} too large for this machine: {str(exc) or 'out of memory'}") from None


def _from_config(cls, config: dict, **others):
    """`cls` built from the merged config's values for its setting fields."""
    settings = {path.removeprefix(cls.SECTION): _setting(config, path) for path in declared(cls)}
    return cls(**settings, **others)


def _loader_options(config: dict, side: int) -> corpus_io.LoaderOptions:
    stopwords = frozenset()
    if _setting(config, f"paths.stopwords{side}"):
        stopwords = corpus_io.load_stopwords(_require_path(config, f"stopwords{side}"))
    return _from_config(corpus_io.LoaderOptions, config, stopwords=stopwords)


def _hyperparams(config: dict) -> Hyperparams:
    return _from_config(Hyperparams, config)


def _write_manifest(config: dict, command: str, output_dir: Path) -> None:
    canonical = corpus_io.json_text(config, "the manifest")
    manifest = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "command": command,
        "config": config,
        "config_hash": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "seed": config["seed"],
    }
    text = corpus_io.json_text(manifest, "the manifest", indent=True)
    corpus_io.write_text(output_dir / "manifest.json", (text, "\n"))


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


def _train_plan(config: dict) -> dict:
    """Every key of the merged config by path, checked against CONFIG_KEYS
    whichever model is chosen; then the rules the config alone decides:
    both languages are set and differ, the files the model reads exist, only
    soft-link models anneal, and the anneal settings agree. Reads no input
    and creates nothing."""
    value = {path: _setting(config, path) for path in CONFIG_KEYS}
    kind = value["model"]
    corpus_io.check_languages(*(_required(config, f"language{side}") for side in (1, 2)))
    for side in (1, 2):
        _require_path(config, f"corpus{side}")
        if value[f"paths.stopwords{side}"]:
            _require_path(config, f"stopwords{side}")
    if kind in SOFT_KINDS or kind in TREE_KINDS:
        _require_path(config, "dictionary")
    if value["anneal.schedule"] != "none" and kind not in SOFT_KINDS:
        raise ConfigError("annealing schedules only apply to soft-link models")
    _from_config(AnnealConfig, config)
    return value


def cmd_train(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    if args.output_dir is not None:
        config["paths"]["output_dir"] = args.output_dir
    if args.threads is not None:
        config["threads"] = args.threads
    value = _train_plan(config)
    kind, output_dir = value["model"], Path(value["paths.output_dir"])
    _native.load()  # no compiler: stop before any output or loading
    # created only once the model is trained, so a failed run leaves none
    _check_output_dir(output_dir, "paths.output_dir")

    bicorpus = _load_bilingual(config)
    hp = _hyperparams(config)

    dictionary = None
    if kind in SOFT_KINDS or kind in TREE_KINDS:
        dictionary = load_dictionary(
            _require_path(config, "dictionary"),
            bicorpus.side1.vocabulary,
            bicorpus.side2.vocabulary,
        )
        dictionary = subsample(dictionary, value["dictionary_fraction"], hp.seed)

    transfer_to_side1 = transfer_to_side2 = None
    if kind in SOFT_KINDS:
        focus = _from_config(FocusConfig, config)
        transfer_to_side1, transfer_to_side2 = (
            static_focus(build_transfer_matrix(target, source, dictionary, value["numerator"]), focus)
            for target, source in (
                (bicorpus.side1, bicorpus.side2),
                (bicorpus.side2, bicorpus.side1),
            )
        )

    with _sized("k, with the corpora and dictionary,"):
        model = train(
            kind, bicorpus, hp, transfer_to_side1=transfer_to_side1,
            transfer_to_side2=transfer_to_side2, dictionary=dictionary,
            anneal=_from_config(AnnealConfig, config),
            hardlink_formulation=value["hardlink_formulation"],
        )
    _make_dir(output_dir, "paths.output_dir")
    save_model(model, output_dir / "model.json")
    write_event_log(model.provenance.get("anneal_events", []), output_dir / "anneal_log.jsonl")
    _write_manifest(config, "train", output_dir)
    print(f"model written to {output_dir / 'model.json'}")
    return 0


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
    corpus_io.write_json(payload, args.output)
    print(f"theta written to {args.output}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
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
    size = min(vocab.size for vocab in model.vocabularies)
    if "cnpmi" in which and args.top_words > size:  # before the reference is read
        raise ConfigError(f"--top-words {args.top_words} exceeds the {size}-word vocabulary")
    report = ev.EvalReport()
    if "cnpmi" in which:
        ref = ev.load_reference(args.reference, *model.vocabularies)
        report.cnpmi_per_topic, report.cnpmi_mean = ev.cnpmi_model(
            model, ref, c=args.top_words
        )
    if "classify" in which:
        heldout = []  # both checked before either is inferred
        for side, path in enumerate((args.test_corpus1, args.test_corpus2), start=1):
            heldout.append(_load_heldout(model, path, model.languages[side - 1]))
            # with no label at all, every label is dropped and F1 reads a vacuous 1
            if not any(d.labels for d in heldout[-1].documents):
                raise DataError(f"--test-corpus{side} {path}: no document carries a label to classify")
        theta1, theta2 = (infer_heldout(model, c, seed=args.seed) for c in heldout)
        labels1, labels2 = ([d.labels for d in c.documents] for c in heldout)
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
        report.lis_final = compute_lis(
            model.counts["word_topic"], dictionary, model.hyperparams.beta, seed=args.seed
        )
    # saved first, so the report is written even when stdout is gone
    if args.output:
        report.save(args.output)
    print(report.to_text())
    return 0


def cmd_transfer_build(args: argparse.Namespace) -> int:
    corpus_io.check_languages(args.language1, args.language2)
    _check_output_file(args.output, "--output")
    focus = FocusConfig(threshold=args.focus_threshold, scope=args.focus_scope)
    options = corpus_io.LoaderOptions(top_frequent=args.top_frequent)
    c1 = corpus_io.load_corpus(args.corpus1, args.language1, options)
    c2 = corpus_io.load_corpus(args.corpus2, args.language2, options)
    dictionary = load_dictionary(args.dictionary, c1.vocabulary, c2.vocabulary)
    target, source = ((c1, c2), (c2, c1))[args.target_side - 1]
    matrix = static_focus(build_transfer_matrix(target, source, dictionary, args.numerator), focus)
    write_matrix_tsv(matrix, target, source, args.output)
    print(f"transfer matrix written to {args.output}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    if args.vocab < args.k:  # every topic's block needs a word
        raise ConfigError(f"--vocab must be at least --k ({args.k}), got {args.vocab}")
    with _sized("--k, --vocab, --docs, --doc-len or --reference-pairs"):
        data = ev.generate_synthetic(
            k=args.k, vocab_per_lang=args.vocab, docs_per_lang=args.docs, doc_len=args.doc_len,
            dict_coverage=args.dict_coverage, topic_sharpness=args.sharpness, seed=args.seed,
        )
        reference = ev.generate_reference(data.phi, args.reference_pairs, args.doc_len, seed=args.seed + 1)
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
    truth = {"phi": list(data.phi), "theta": list(data.theta)}
    corpus_io.write_json(truth, output_dir / "truth.json")
    print(f"synthetic data written to {output_dir}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    model = load_model(args.model)
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


class _Flag(argparse.Action):
    """A value flag, read by the `Key` of the setting it sets under the
    flag's name (a bad value raises `ConfigError` from `parse_args`). Its
    default is the key's unless `add_argument` gives one."""

    def __init__(self, option_strings, dest, key: Key, **kwargs):
        super().__init__(option_strings, dest, **{"default": key.default, **kwargs})
        self.key = key

    def __call__(self, parser, namespace, text, option_string=None):
        setattr(namespace, self.dest, self.key.read(self.option_strings[0], text))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multitopic",
        description="Multilingual topic models with document, soft, and vocabulary links",
    )
    parser.add_argument("--log-level", action=_Flag, key=LOG_LEVEL, type=str.upper)  # any case
    sub = parser.add_subparsers(dest="command", required=True)
    seed, threads = CONFIG_KEYS["seed"], CONFIG_KEYS["threads"]

    p_train = sub.add_parser("train", help="train a model from a JSON config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", action=_Flag, key=seed, default=None)  # None: the config's
    p_train.add_argument("--output-dir", default=None)
    p_train.add_argument("--threads", action=_Flag, key=threads, default=None)
    p_train.set_defaults(func=cmd_train)

    p_infer = sub.add_parser("infer", help="infer topic mixtures for held-out documents")
    p_infer.add_argument("--model", required=True)
    p_infer.add_argument("--corpus", required=True)
    p_infer.add_argument("--language", required=True)
    p_infer.add_argument("--output", required=True)
    p_infer.add_argument("--seed", action=_Flag, key=seed)
    p_infer.add_argument("--threads", action=_Flag, key=threads)
    p_infer.set_defaults(func=cmd_infer)

    p_eval = sub.add_parser("eval", help="evaluate a trained model")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--which", default="cnpmi", help="comma list: cnpmi,classify,lis")
    p_eval.add_argument("--reference", default=None)
    p_eval.add_argument("--test-corpus1", default=None)
    p_eval.add_argument("--test-corpus2", default=None)
    p_eval.add_argument("--dictionary", default=None)
    p_eval.add_argument("--top-words", action=_Flag, key=ev.TOP_WORDS)
    p_eval.add_argument("--output", default=None)
    p_eval.add_argument("--seed", action=_Flag, key=seed)
    p_eval.add_argument("--threads", action=_Flag, key=threads)
    p_eval.set_defaults(func=cmd_eval)

    p_tb = sub.add_parser("transfer-build", help="build and dump a transfer matrix")
    p_tb.add_argument("--corpus1", required=True)
    p_tb.add_argument("--corpus2", required=True)
    p_tb.add_argument("--language1", required=True)
    p_tb.add_argument("--language2", required=True)
    p_tb.add_argument("--dictionary", required=True)
    p_tb.add_argument("--target-side", action=_Flag, key=Key(2, "int", "[1, 2]"))
    p_tb.add_argument("--numerator", action=_Flag, key=CONFIG_KEYS["numerator"])
    p_tb.add_argument("--focus-threshold", action=_Flag, key=CONFIG_KEYS["focus.threshold"])
    p_tb.add_argument("--focus-scope", action=_Flag, key=CONFIG_KEYS["focus.scope"])
    p_tb.add_argument("--top-frequent", action=_Flag, key=CONFIG_KEYS["top_frequent"])
    p_tb.add_argument("--output", required=True)
    p_tb.set_defaults(func=cmd_transfer_build)

    p_synth = sub.add_parser("synth", help="generate a synthetic bilingual corpus")
    p_synth.add_argument("--k", action=_Flag, key=ev.SYNTHETIC["k"])
    p_synth.add_argument("--vocab", action=_Flag, key=ev.SYNTHETIC["vocab_per_lang"])
    p_synth.add_argument("--docs", action=_Flag, key=ev.SYNTHETIC["docs_per_lang"])
    p_synth.add_argument("--doc-len", action=_Flag, key=ev.SYNTHETIC["doc_len"])
    p_synth.add_argument("--dict-coverage", action=_Flag, key=ev.SYNTHETIC["dict_coverage"])
    p_synth.add_argument("--sharpness", action=_Flag, key=ev.SYNTHETIC["topic_sharpness"])
    p_synth.add_argument("--reference-pairs", action=_Flag, key=ev.REFERENCE_PAIRS)
    p_synth.add_argument("--seed", action=_Flag, key=seed)
    p_synth.add_argument("--output-dir", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_inspect = sub.add_parser("inspect", help="print a model's top words")
    p_inspect.add_argument("--model", required=True)
    p_inspect.add_argument("--top-words", action=_Flag, key=ev.TOP_WORDS, default=10)
    p_inspect.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        # a value flag is checked here, before any input is read
        args = build_parser().parse_args(argv)
        logging.basicConfig(level=args.log_level)
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
