"""Command-line value flags: each is read by the `Key` of the setting it
sets, under the flag's name, while the command line is parsed. A refused
value exits 2 with one stderr line before any input is read."""

import argparse
import contextlib
import io
import json
import math
import string
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multitopic import _native, cli, corpus, transfer
from multitopic import evaluate as ev
from multitopic.cli import CONFIG_KEYS, build_parser, main
from multitopic.corpus import LoaderOptions
from multitopic.models import Hyperparams
from multitopic.settings import Key, declared
from multitopic.transfer import FocusConfig
from test_cli import _bad_values

README = Path(__file__).resolve().parent.parent / "README.md"
TARGET_SIDE = Key(2, "int", "[1, 2]")  # transfer-build's own: which corpus is the target

# the Key each value flag reads: that of the setting or parameter it sets
FLAG_KEYS = {
    "--log-level": cli.LOG_LEVEL,
    "--seed": declared(Hyperparams)["seed"],
    "--threads": CONFIG_KEYS["threads"],
    "--top-words": ev.TOP_WORDS,
    "--target-side": TARGET_SIDE,
    "--numerator": transfer.NUMERATOR,
    "--focus-threshold": declared(FocusConfig)["focus.threshold"],
    "--focus-scope": declared(FocusConfig)["focus.scope"],
    "--top-frequent": declared(LoaderOptions)["top_frequent"],
    "--k": ev.SYNTHETIC["k"],
    "--vocab": ev.SYNTHETIC["vocab_per_lang"],
    "--docs": ev.SYNTHETIC["docs_per_lang"],
    "--doc-len": ev.SYNTHETIC["doc_len"],
    "--dict-coverage": ev.SYNTHETIC["dict_coverage"],
    "--sharpness": ev.SYNTHETIC["topic_sharpness"],
    "--reference-pairs": ev.REFERENCE_PAIRS,
}


def value_flags():
    """(command, flag, action) for every value flag, in parser order;
    command "any" is the main parser, whose flags precede the command."""
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (command, action.option_strings[0], action)
        for command, p in [("any", parser), *commands.choices.items()]
        for action in p._actions
        if isinstance(action, cli._Flag)
    ]


VALUE_FLAGS = [(command, flag, action.key) for command, flag, action in value_flags()]


def command_argv(command: str, directory: Path) -> list[str]:
    """`command` with its required flags; none of the files exists."""
    d = str(directory)
    return {
        "any": ["inspect", "--model", f"{d}/model.json"],
        "train": ["train", "--config", f"{d}/config.json"],
        "infer": ["infer", "--model", f"{d}/model.json", "--corpus", f"{d}/c1.jsonl",
                  "--language", "l1", "--output", f"{d}/theta.json"],
        "eval": ["eval", "--model", f"{d}/model.json", "--reference", f"{d}/ref.jsonl"],
        "transfer-build": ["transfer-build", "--corpus1", f"{d}/c1.jsonl",
                           "--corpus2", f"{d}/c2.jsonl", "--language1", "l1",
                           "--language2", "l2", "--dictionary", f"{d}/dict.tsv",
                           "--output", f"{d}/matrix.tsv"],
        "synth": ["synth", "--output-dir", f"{d}/synth"],
        "inspect": ["inspect", "--model", f"{d}/model.json"],
    }[command]


def with_flags(command: str, directory: Path, flags: list[str]) -> list[str]:
    """`command_argv` with `flags` ("--name=value") where they belong."""
    argv = command_argv(command, directory)
    return [*flags, *argv] if command == "any" else [*argv, *flags]


def _past_the_flags(*args, **kwargs):
    raise AssertionError("a command ran past its flags")


def run_refused(argv: list[str], directory: Path) -> str:
    """`main(argv)` must exit 2 having read and created nothing: every
    loader and the compiled-sweep build are replaced by a failure, which
    `main` would report as exit 1. Returns the one stderr line."""
    before = sorted(directory.iterdir())
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stderr(err):
        for owner, name in ((_native, "load"), (cli, "load_config"), (cli, "load_model"),
                            (cli, "load_dictionary"), (corpus, "load_corpus")):
            patch.setattr(owner, name, _past_the_flags)
        code = main(argv)
    assert code == 2, err.getvalue()
    (line,) = err.getvalue().splitlines()
    assert sorted(directory.iterdir()) == before
    return line


def bad_flag_texts(key: Key) -> list[str]:
    """Command-line text that `key` refuses: no number of its kind, a
    number outside its range, or none of its choices."""
    if key.kind == "enum":
        return ["", "nope", "basic_format", "[1]"]
    texts = ["", "x", "True", "None", "[1]", "nan", "-inf", "-1e400"]
    if not key.bounds.endswith("inf]"):  # infinity lies outside the range
        texts += ["inf", "1e400", "9" * 5000]
    if key.kind == "int":
        texts += ["1e3", "0x10"]
    for value in _bad_values(key):
        if type(value) in (int, float) and math.isfinite(value):
            whole = key.kind == "int" and float(value).is_integer()
            texts.append(repr(int(value) if whole else value))
    return texts


def test_every_value_flag_reads_the_key_of_the_setting_it_sets():
    flags = value_flags()
    assert len(flags) == 22
    for command, flag, action in flags:
        assert action.key is FLAG_KEYS[flag] or action.key == TARGET_SIDE, (command, flag)
    # each flag takes its key's default: train's defer to the config
    assert {(c, f): a.default for c, f, a in flags if a.default != a.key.default} == {
        ("train", "--seed"): None, ("train", "--threads"): None, ("inspect", "--top-words"): 10,
    }
    # argparse itself converts and checks no value
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for p in (parser, *commands.choices.values()):
        for action in p._actions:
            if action is not commands and not isinstance(action, cli._Flag):
                assert action.type is None and action.choices is None, action.dest


@pytest.mark.parametrize("command, flag, text", [
    pytest.param(command, flag, text, id=f"{command} {flag}={text[:12]!r}")
    for command, flag, key in VALUE_FLAGS
    for text in bad_flag_texts(key)
])
def test_flag_refuses_what_its_key_refuses(tmp_path, command, flag, text):
    line = run_refused(with_flags(command, tmp_path, [f"{flag}={text}"]), tmp_path)
    assert line.startswith(f"configuration error: {flag} must be "), line


@pytest.mark.parametrize("command, flag, text, message", [
    ("synth", "--seed", "-1", "--seed must be non-negative, got -1"),
    ("train", "--seed", "1.5", "--seed must be an integer, got '1.5'"),
    ("eval", "--seed", "", "--seed must be an integer, got ''"),
    ("infer", "--threads", "0", "--threads must be at least 1, got 0"),
    ("train", "--threads", "x", "--threads must be an integer, got 'x'"),
    ("eval", "--top-words", "0", "--top-words must be positive, got 0"),
    ("inspect", "--top-words", "-3", "--top-words must be positive, got -3"),
    ("transfer-build", "--target-side", "3", "--target-side must be in [1, 2], got 3"),
    ("transfer-build", "--numerator", "PAIRS",
     "--numerator must be one of pairs, covered_types, got 'PAIRS'"),
    ("transfer-build", "--focus-threshold", "2", "--focus-threshold must be in [0, 1], got 2.0"),
    ("transfer-build", "--focus-threshold", "nan", "--focus-threshold must be finite, got nan"),
    ("transfer-build", "--focus-scope", "row",
     "--focus-scope must be one of doc_wise, corpus_wise, got 'row'"),
    ("transfer-build", "--top-frequent", "-4", "--top-frequent must be non-negative, got -4"),
    ("synth", "--k", "1.5", "--k must be an integer, got '1.5'"),
    ("synth", "--vocab", "1e400", "--vocab must be an integer, got '1e400'"),
    ("synth", "--docs", "0", "--docs must be at least 1, got 0"),
    ("synth", "--doc-len", "-2", "--doc-len must be at least 1, got -2"),
    ("synth", "--dict-coverage", "2", "--dict-coverage must be in [0, 1], got 2.0"),
    ("synth", "--dict-coverage", "1e400", "--dict-coverage must be finite, got inf"),
    # the range (0, inf] admits infinity, so NaN is out of range, not "not finite"
    ("synth", "--sharpness", "nan", "--sharpness must be positive, got nan"),
    ("synth", "--sharpness", "-inf", "--sharpness must be positive, got -inf"),
    ("synth", "--sharpness", "0", "--sharpness must be positive, got 0.0"),
    ("synth", "--reference-pairs", "x", "--reference-pairs must be an integer, got 'x'"),
    ("any", "--log-level", "nonsense",
     "--log-level must be one of DEBUG, INFO, WARNING, ERROR, CRITICAL, got 'NONSENSE'"),
    ("any", "--log-level", "basic_format",
     "--log-level must be one of DEBUG, INFO, WARNING, ERROR, CRITICAL, got 'BASIC_FORMAT'"),
])
def test_refused_flag_message(tmp_path, command, flag, text, message):
    line = run_refused(with_flags(command, tmp_path, [f"{flag}={text}"]), tmp_path)
    assert line == f"configuration error: {message}"


def test_log_level_takes_a_level_name_in_any_case(tmp_path):
    # a level name, not any attribute of `logging`; the model is then missing
    for level in ("debug", "Warning", "CRITICAL"):
        assert main(["--log-level", level, *command_argv("inspect", tmp_path)]) == 3


def test_infinite_sharpness_is_still_accepted(tmp_path):
    out_dir = tmp_path / "synth"
    assert main([
        "synth", "--k", "3", "--vocab", "6", "--docs", "4", "--doc-len", "5",
        "--sharpness", "inf", "--reference-pairs", "2", "--output-dir", str(out_dir),
    ]) == 0
    # each document takes its argmax topic
    for theta in json.loads((out_dir / "truth.json").read_text())["theta"]:
        assert all(sorted(row) == [0.0, 0.0, 1.0] for row in theta)


def test_readme_lists_every_value_flag_with_its_commands_default_and_range():
    block = README.read_text(encoding="utf-8").split("### Flags")[1].split("```")[1]
    rows = {line.split()[0]: line for line in block.splitlines() if line.startswith("--")}
    uses: dict[str, list] = {}
    for command, flag, action in value_flags():
        uses.setdefault(flag, []).append((command, action))
    assert list(rows) == list(uses)
    for flag, commands in uses.items():
        words, n = rows[flag].split(), len(commands)
        key = commands[0][1].key
        assert words[1:1 + n] == [command for command, _ in commands], flag
        assert words[1 + n:3 + n] == [json.dumps(key.default), key.kind], flag
        assert (key.bounds or "|".join(key.choices)) in rows[flag], flag
        for _, action in commands:
            assert action.default is None or str(action.default) in rows[flag], flag


# -- fuzzing: one refused value among valid ones, in any order -------------

def valid_texts(key: Key):
    """Text `key` takes; sizes stay small, so that a run that got past a
    refused flag would not allocate much."""
    if key.kind == "enum":
        return st.sampled_from(key.choices)
    low, high = (float(end) for end in key.bounds[1:-1].split(","))
    high = min(high, 20.0)
    if key.kind == "int":
        return st.integers(int(low) + (key.bounds[0] == "("), int(high)).map(str)
    return st.floats(low, high, exclude_min=key.bounds[0] == "(").map(repr)


def refused_texts(key: Key):
    listed = st.sampled_from(bad_flag_texts(key))
    words = st.text(string.ascii_letters + "_- ", max_size=12)
    if key.kind == "enum":
        choices = {choice.upper() for choice in key.choices}
        return st.one_of(listed, words.filter(lambda t: t.upper() not in choices))
    low, high = (float(end) for end in key.bounds[1:-1].split(","))
    below = (st.integers(max_value=int(low) - (key.bounds[0] == "[")).map(str)
             if key.kind == "int" else st.floats(max_value=low, exclude_max=key.bounds[0] == "[",
                                                 allow_nan=False).map(repr))
    return st.one_of(
        listed, below,
        words.filter(lambda t: t.strip().lstrip("+-").lower() not in ("inf", "infinity")),
        st.integers(4301, 5000).map(lambda n: "9" * n) if key.kind == "int" else st.nothing(),
        st.integers(int(high) + 1).map(str) if math.isfinite(high) else st.nothing(),
    )


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_flag_values_exit_2_naming_the_flag(tmp_path, data):
    command = data.draw(st.sampled_from(sorted({c for c, _, _ in VALUE_FLAGS})), label="command")
    keys = {flag: key for c, flag, key in VALUE_FLAGS if c == command}
    bad = data.draw(st.sampled_from(sorted(keys)), label="refused flag")
    others = data.draw(st.sets(st.sampled_from(sorted(keys))), label="valid flags") - {bad}
    flags = [f"{bad}={data.draw(refused_texts(keys[bad]), label='refused value')}"]
    flags += [f"{flag}={data.draw(valid_texts(keys[flag]))}" for flag in sorted(others)]
    argv = with_flags(command, tmp_path, data.draw(st.permutations(flags), label="flags"))
    line = run_refused(argv, tmp_path)
    assert line.startswith(f"configuration error: {bad} must be "), line
