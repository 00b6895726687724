"""Command-line interface: config files, subcommands, exit codes."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from boxkb import cli
from boxkb.cli import (ConfigError, DataConfig, RunConfig, build_parser,
                       load_run_config, main, parse_config_file,
                       write_config_file)
from boxkb.exact_fit import ExactFitError
from boxkb.kb import Vocabulary, parse_kb
from boxkb.model import init_params, load_checkpoint, save_checkpoint
from boxkb.training import STREAM_INIT, stream_rng

TRAIN_LINES = [
    "ada\tknows\tbob",
    "bob\tknows\tcara",
    "cara\tknows\tdan",
    "dan\tknows\tada",
    "ada\tlikes\tcara",
    "bob\tlikes\tdan",
    "cara\tlikes\tada",
    "dan\tlikes\tbob",
]

VALID_LINES = ["ada\tknows\tcara", "bob\tlikes\tada"]


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def data(tmp_path):
    train = write_lines(tmp_path / "train.tsv", TRAIN_LINES)
    valid = write_lines(tmp_path / "valid.tsv", VALID_LINES)
    return {"train": train, "valid": valid, "tmp": tmp_path}


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- config files --


# one valid, non-default value per RunConfig field
NON_DEFAULT = dict(train="a.tsv", valid="b.tsv", test="c.tsv",
                   format="tsv-nary", d=17, norm_order=1, bounded=False,
                   rules="r.txt", outdir="out", workers=3,
                   augment_inverses=True, learning_rate=0.25, margin=5.0,
                   negatives=4, adversarial_temperature=0.5, batch_size=32,
                   epochs=9, seed=11, checkpoint_every=2,
                   filter_train_negatives=True)


def test_config_file_round_trip(tmp_path):
    cfg = RunConfig(**NON_DEFAULT)
    path = tmp_path / "run.cfg"
    write_config_file(cfg, path)
    values = parse_config_file(path)
    for f in dataclasses.fields(RunConfig):
        assert values[f.name] == getattr(cfg, f.name)


def test_config_file_comments_quotes_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# full-line comment\n"
        "\n"
        "train = 'data/train.tsv'  # trailing comment\n"
        'outdir = "runs/demo"\n'
        "bounded = FALSE\n"
        "epochs=3\n",
        encoding="utf-8")
    values = parse_config_file(path)
    assert values == {"train": "data/train.tsv", "outdir": "runs/demo",
                      "bounded": False, "epochs": 3}


def test_config_file_quoted_values_keep_hashes(tmp_path):
    cfg = RunConfig(train="tr#1.tsv", valid='say "hi" #2.tsv', outdir="o # p")
    path = tmp_path / "run.cfg"
    write_config_file(cfg, path)
    assert RunConfig(**parse_config_file(path)) == cfg
    path.write_text('train = "a#b.tsv"  # the "real" path\n'
                    "outdir = 'x#y'\n", encoding="utf-8")
    assert parse_config_file(path) == {"train": "a#b.tsv", "outdir": "x#y"}


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("learning_rte = 0.1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_file(path)


def test_config_file_bad_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("bounded = maybe\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="boolean"):
        parse_config_file(path)
    path.write_text("epochs = soon\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="epochs"):
        parse_config_file(path)
    path.write_text("just a line\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=":1:"):
        parse_config_file(path)
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file(tmp_path / "missing.cfg")


def test_run_config_validation():
    with pytest.raises(ConfigError, match="training data"):
        RunConfig().validate()
    with pytest.raises(ConfigError, match="format"):
        RunConfig(train="x", format="csv").validate()
    with pytest.raises(ConfigError, match="d must"):
        RunConfig(train="x", d=0).validate()
    with pytest.raises(ConfigError, match="norm_order"):
        RunConfig(train="x", norm_order=3).validate()
    with pytest.raises(ConfigError, match="workers"):
        RunConfig(train="x", workers=0).validate()
    # TrainConfig problems surface as ConfigError too
    with pytest.raises(ConfigError):
        RunConfig(train="x", negatives=0).validate()
    for key in ("learning_rate", "margin", "adversarial_temperature"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError, match="finite"):
                RunConfig(train="x", **{key: value}).validate()
    RunConfig(train="x").validate()


def test_cli_flags_override_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("train = from_file.tsv\nepochs = 7\nd = 12\n"
                    "bounded = false\n", encoding="utf-8")
    args = build_parser().parse_args(
        ["train", "--config", str(path), "--epochs", "9", "--bounded"])
    cfg = load_run_config(args)
    assert cfg.train == "from_file.tsv"  # from file
    assert cfg.d == 12                   # from file
    assert cfg.epochs == 9               # flag wins
    assert cfg.bounded is True           # flag wins over file


def _option_actions(subcommand):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[subcommand]._actions if a.option_strings]


def test_flags_come_from_the_settings_fields(tmp_path):
    fields = [f.name for f in dataclasses.fields(RunConfig)]
    # each field has exactly one train flag: --name with _ spelled -
    train_actions = _option_actions("train")
    for name in fields:
        flag = "--" + name.replace("_", "-")
        owners = [a for a in train_actions if flag in a.option_strings]
        assert len(owners) == 1 and owners[0].dest == name, name
    assert {a.dest for a in train_actions} == {"help", "config", *fields}
    # eval exposes the data fields and its own four options, nothing else
    data_fields = {f.name for f in dataclasses.fields(DataConfig)}
    assert data_fields < set(fields)
    assert ({a.dest for a in _option_actions("eval")}
            == {"help", "config", "checkpoint", "split", "ks", *data_fields})
    # a non-default value for each field reaches the loaded RunConfig
    defaults = RunConfig()
    argv = ["train"]
    for name, value in NON_DEFAULT.items():
        assert value != getattr(defaults, name), name
        flag = name.replace("_", "-")
        if isinstance(value, bool):
            argv.append(f"--{flag}" if value else f"--no-{flag}")
        else:
            argv += [f"--{flag}", str(value)]
    assert set(NON_DEFAULT) == set(fields)
    cfg = load_run_config(build_parser().parse_args(argv))
    assert cfg == RunConfig(**NON_DEFAULT)
    # and survives a config.txt round trip
    path = tmp_path / "config.txt"
    write_config_file(cfg, path)
    assert RunConfig(**parse_config_file(path)) == cfg


def test_boolean_optional_action():
    args = build_parser().parse_args(["train", "--no-bounded",
                                      "--filter-train-negatives"])
    assert args.bounded is False
    assert args.filter_train_negatives is True
    args = build_parser().parse_args(["train"])
    assert args.bounded is None  # unset: config file / default decides


# -- train subcommand --


def train_argv(data, outdir, extra=()):
    return ["train", "--train", data["train"], "--valid", data["valid"],
            "--outdir", str(outdir), "--d", "6", "--epochs", "4",
            "--checkpoint-every", "2", "--batch-size", "8",
            "--negatives", "2", "--learning-rate", "0.05",
            "--seed", "3", *extra]


def test_train_end_to_end(capsys, data):
    outdir = data["tmp"] / "run"
    code, out, _ = run_main(capsys, train_argv(data, outdir))
    assert code == 0
    summary = json.loads(out)
    assert summary["epochs"] == 4
    assert summary["final"]["epoch"] == 3
    assert summary["final"]["mean_loss"] > 0
    assert summary["best"]["epoch"] is not None
    assert 0.0 <= summary["best"]["mrr"] <= 1.0
    assert summary["best_checkpoint"] == str(outdir / "best.json")
    for name in ("best.json", "checkpoint.json", "config.txt", "metrics.jsonl"):
        assert (outdir / name).exists()
    # config.txt round-trips through the parser and pins the run settings
    saved = parse_config_file(outdir / "config.txt")
    assert saved["d"] == 6 and saved["epochs"] == 4 and saved["seed"] == 3
    lines = (outdir / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 4
    rec = json.loads(lines[0])
    assert rec["epoch"] == 0 and np.isfinite(rec["mean_loss"])
    params = load_checkpoint(outdir / "best.json")
    assert params.vocab.n_relations == 2


def test_train_replays_from_config_txt_with_hash_in_paths(capsys, tmp_path):
    train = write_lines(tmp_path / "tr#1.tsv", TRAIN_LINES)
    valid = write_lines(tmp_path / "va # 2.tsv", VALID_LINES)
    first = tmp_path / "first#run"
    data = {"train": train, "valid": valid}
    assert run_main(capsys, train_argv(data, first))[0] == 0
    replay = tmp_path / "replay"
    code, out, err = run_main(capsys, [
        "train", "--config", str(first / "config.txt"), "--outdir", str(replay)])
    assert code == 0, err
    assert json.loads(out)["epochs"] == 4
    saved = parse_config_file(replay / "config.txt")
    assert saved["train"] == train and saved["valid"] == valid
    assert ((first / "best.json").read_bytes()
            == (replay / "best.json").read_bytes())


def test_train_zero_epochs_names_no_checkpoint(capsys, data):
    outdir = data["tmp"] / "none"
    code, out, _ = run_main(capsys, train_argv(data, outdir, extra=["--epochs", "0"]))
    assert code == 0
    summary = json.loads(out)
    assert summary["epochs"] == 0 and summary["final"] is None
    assert summary["best"] == {"mrr": None, "epoch": None}
    assert summary["best_checkpoint"] is None
    assert not (outdir / "best.json").exists()
    assert not (outdir / "checkpoint.json").exists()


def test_train_without_outdir_fails(capsys, data):
    code, _, err = run_main(capsys, ["train", "--train", data["train"]])
    assert code == 1
    assert "error:" in err and "output directory" in err


def test_train_missing_data_file(capsys, data, tmp_path):
    code, _, err = run_main(capsys, [
        "train", "--train", str(tmp_path / "nope.tsv"),
        "--outdir", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in err


def test_train_runs_are_byte_identical(capsys, data):
    paths = []
    for name in ("a", "b"):
        outdir = data["tmp"] / name
        code, _, _ = run_main(capsys, train_argv(data, outdir))
        assert code == 0
        paths.append(outdir / "best.json")
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_train_with_rules_and_nary_format(capsys, tmp_path):
    train = write_lines(tmp_path / "train.tsv", [
        "r\ta\tb", "r\tb\tc", "s\ta\tc", "s\tc\ta", "r\tc\ta"])
    rules = write_lines(tmp_path / "rules.txt",
                        ["symmetry s", "hierarchy s r"])
    outdir = tmp_path / "run"
    code, out, _ = run_main(capsys, [
        "train", "--train", train, "--format", "tsv-nary",
        "--rules", rules, "--outdir", str(outdir),
        "--d", "5", "--epochs", "3", "--batch-size", "8",
        "--negatives", "2"])
    assert code == 0
    summary = json.loads(out)
    # no valid split: best is simply the latest checkpoint
    assert summary["best"]["mrr"] is None
    assert (outdir / "best.json").exists()


def test_train_abort_exits_2_with_diagnostic(capsys, data):
    outdir = data["tmp"] / "boom"
    with pytest.warns(RuntimeWarning):
        code, _, err = run_main(capsys, train_argv(
            data, outdir, extra=["--no-bounded", "--learning-rate", "1e200",
                                 "--batch-size", "4"]))
    assert code == 2
    diag = json.loads(err.splitlines()[-1])
    assert diag["epoch"] == 0
    assert diag["facts"]


# -- eval subcommand --


def test_eval_from_checkpoint(capsys, data):
    outdir = data["tmp"] / "run"
    assert run_main(capsys, train_argv(data, outdir))[0] == 0
    code, out, _ = run_main(capsys, [
        "eval", "--checkpoint", str(outdir / "best.json"),
        "--train", data["train"], "--valid", data["valid"],
        "--split", "valid", "--ks", "1,3"])
    assert code == 0
    report = json.loads(out)
    assert report["split"] == "valid"
    assert report["n_facts"] == len(VALID_LINES)
    assert report["mr"] >= 1.0
    assert set(report["hits"]) == {"1", "3"}
    assert report["raw"]["mr"] >= report["mr"]


def test_eval_reports_wall_time_and_rankings_per_second(capsys, data):
    outdir = data["tmp"] / "run"
    assert run_main(capsys, train_argv(data, outdir))[0] == 0
    code, out, _ = run_main(capsys, [
        "eval", "--checkpoint", str(outdir / "best.json"),
        "--train", data["train"], "--valid", data["valid"], "--split", "valid"])
    assert code == 0
    report = json.loads(out)
    assert report["wall_ms"] > 0.0
    assert report["rankings_per_s"] > 0.0


def test_eval_rankings_per_second_counts_rankings_not_queries(capsys, data):
    # six (fact, position) rankings, but "? knows dan" and "bob knows ?" are
    # each asked twice, so only four distinct queries
    test = write_lines(data["tmp"] / "test.tsv",
                       ["ada\tknows\tdan", "bob\tknows\tdan", "bob\tknows\tada"])
    outdir = data["tmp"] / "run"
    assert run_main(capsys, train_argv(data, outdir))[0] == 0
    code, out, _ = run_main(capsys, [
        "eval", "--checkpoint", str(outdir / "best.json"),
        "--train", data["train"], "--valid", data["valid"], "--test", test,
        "--split", "test"])
    assert code == 0
    report = json.loads(out)
    assert report["rankings_per_s"] * report["wall_ms"] / 1000 == pytest.approx(6, rel=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eval_of_entities_past_float32_range_writes_no_warning(capsys, data):
    # a finite checkpoint whose entity 2 has base and bump past float32's
    # range: both round to inf in the ranking screen
    params = init_params(parse_kb(data["train"], data["valid"]).vocab, 3,
                         stream_rng(0, STREAM_INIT), bounded=False)
    params.entity_base[2] = params.entity_bump[2] = 1e39
    ckpt = data["tmp"] / "model.json"
    save_checkpoint(params, ckpt)
    code, out, err = run_main(capsys, [
        "eval", "--checkpoint", str(ckpt), "--train", data["train"],
        "--valid", data["valid"], "--split", "valid"])
    assert code == 0 and err == ""
    assert json.loads(out)["n_facts"] == len(VALID_LINES)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eval_of_distances_whose_squares_overflow_writes_no_warning(capsys, data):
    # a finite, unbounded checkpoint whose entity 2's base is 1e160: the
    # float64 re-score's squared distances pass float64's range
    params = init_params(parse_kb(data["train"], data["valid"]).vocab, 3,
                         stream_rng(0, STREAM_INIT), bounded=False)
    params.entity_base[2] = 1e160
    ckpt = data["tmp"] / "model.json"
    save_checkpoint(params, ckpt)
    code, out, err = run_main(capsys, [
        "eval", "--checkpoint", str(ckpt), "--train", data["train"],
        "--valid", data["valid"], "--split", "valid"])
    assert code == 0 and err == ""
    assert json.loads(out)["n_facts"] == len(VALID_LINES)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eval_of_boxes_with_huge_corners_writes_no_warning(capsys, tmp_path):
    # a finite checkpoint whose box widths overflow kappa and the screen's
    # error bounds: every row is re-scored in float64
    triples = write_lines(tmp_path / "kb.tsv", ["a\tr\tb", "b\tr\tc"])
    params = init_params(parse_kb(triples).vocab, 3, stream_rng(0, STREAM_INIT),
                         bounded=False)
    params.box_a[:] = -1e200
    params.box_b[:] = 1e200
    ckpt = tmp_path / "model.json"
    save_checkpoint(params, ckpt)
    code, out, err = run_main(capsys, ["eval", "--checkpoint", str(ckpt),
                                       "--train", triples, "--split", "train"])
    assert code == 0 and err == ""
    assert json.loads(out)["n_facts"] == 2


def test_eval_with_inverse_augmentation_ranks_original_relations(capsys, data):
    outdir = data["tmp"] / "run"
    assert run_main(capsys, train_argv(data, outdir, ["--augment-inverses"]))[0] == 0
    assert load_checkpoint(outdir / "best.json").vocab.n_relations == 4
    code, out, _ = run_main(capsys, [
        "eval", "--checkpoint", str(outdir / "best.json"),
        "--train", data["train"], "--valid", data["valid"],
        "--split", "valid", "--augment-inverses"])
    assert code == 0
    # the inverse helper facts of the split are not ranked
    assert json.loads(out)["n_facts"] == len(VALID_LINES)


def test_eval_with_inverse_augmentation_ranks_relations_by_checkpoint_id(
        capsys, data):
    # the data names only "likes": id 0 in the data, id 1 in the checkpoint
    outdir = data["tmp"] / "run"
    assert run_main(capsys, train_argv(data, outdir, ["--augment-inverses"]))[0] == 0
    likes = write_lines(data["tmp"] / "likes.tsv", TRAIN_LINES[4:])
    valid = write_lines(data["tmp"] / "likes_valid.tsv", ["bob\tlikes\tada"])
    code, out, err = run_main(capsys, [
        "eval", "--checkpoint", str(outdir / "best.json"), "--train", likes,
        "--valid", valid, "--split", "valid", "--augment-inverses"])
    assert (code, err) == (0, "")
    assert json.loads(out)["n_facts"] == 1


def test_eval_ranks_the_same_with_or_without_augment_inverses(capsys, data):
    # inverse helper facts are never ranked and filter no ranked query, so
    # the flag changes nothing for eval, on checkpoints trained with and
    # without it, and n-ary data, which augmentation rejects, is ranked
    def report(argv):
        code, out, err = run_main(capsys, argv)
        assert (code, err) == (0, ""), err
        out = json.loads(out)
        del out["wall_ms"], out["rankings_per_s"]
        return out

    for train_extra in ([], ["--augment-inverses"]):
        outdir = data["tmp"] / f"run{len(train_extra)}"
        assert run_main(capsys, train_argv(data, outdir, train_extra))[0] == 0
        for split in ("train", "valid"):
            argv = ["eval", "--checkpoint", str(outdir / "best.json"),
                    "--train", data["train"], "--valid", data["valid"],
                    "--split", split]
            assert report(argv + ["--augment-inverses"]) == report(argv)
    nary = write_lines(data["tmp"] / "nary.tsv", ["r\ta\tb\tc", "r\tb\tc\ta"])
    ckpt = data["tmp"] / "nary.json"
    vocab = parse_kb(nary, fmt="tsv-nary").vocab
    save_checkpoint(init_params(vocab, 3, stream_rng(0, STREAM_INIT)), ckpt)
    argv = ["eval", "--checkpoint", str(ckpt), "--train", nary,
            "--format", "tsv-nary", "--split", "train"]
    ranked = report(argv + ["--augment-inverses"])
    assert ranked == report(argv) and ranked["n_facts"] == 2


def test_eval_rejects_a_name_the_checkpoint_lacks(capsys, data):
    test = write_lines(data["tmp"] / "test.tsv", ["ada\tknows\tzed"])
    outdir = data["tmp"] / "run"
    assert run_main(capsys, train_argv(data, outdir))[0] == 0
    code, out, err = run_main(capsys, [
        "eval", "--checkpoint", str(outdir / "best.json"),
        "--train", data["train"], "--valid", data["valid"], "--test", test,
        "--split", "test"])
    assert code == 1 and out == ""
    assert "dataset name missing from checkpoint vocabulary" in err


def test_eval_missing_checkpoint(capsys, data, tmp_path):
    code, _, err = run_main(capsys, [
        "eval", "--checkpoint", str(tmp_path / "nope.json"),
        "--train", data["train"], "--split", "train"])
    assert code == 1
    assert "checkpoint not found" in err


def test_eval_corrupted_checkpoint(capsys, data, tmp_path):
    outdir = data["tmp"] / "run"
    assert run_main(capsys, train_argv(data, outdir))[0] == 0
    ckpt = outdir / "best.json"
    payload = json.loads(ckpt.read_text())
    assert payload["version"] == 2
    payload["box_a"] = payload["box_a"][:-4]  # a table cut short
    ckpt.write_text(json.dumps(payload))
    code, _, err = run_main(capsys, [
        "eval", "--checkpoint", str(ckpt),
        "--train", data["train"], "--split", "train"])
    assert code == 1
    assert "cannot load checkpoint" in err


def test_eval_bad_ks(capsys, data):
    outdir = data["tmp"] / "run"
    assert run_main(capsys, train_argv(data, outdir))[0] == 0
    code, _, err = run_main(capsys, [
        "eval", "--checkpoint", str(outdir / "best.json"),
        "--train", data["train"], "--split", "train", "--ks", "1,zero"])
    assert code == 1
    assert "error:" in err


def test_eval_rejects_a_zero_hits_cutoff(capsys, data):
    outdir = data["tmp"] / "run"
    assert run_main(capsys, train_argv(data, outdir))[0] == 0
    code, out, err = run_main(capsys, [
        "eval", "--checkpoint", str(outdir / "best.json"),
        "--train", data["train"], "--split", "train", "--ks", "0"])
    assert code == 1 and out == ""
    assert "error: Hits@K values must be positive integers\n" in err


# a version 1 checkpoint of one binary relation over one entity, d = 1
V1_PAYLOAD = {"version": 1, "entities": ["a"], "relations": ["r"], "arities": [2],
              "d": 1, "norm_order": 2, "bounded": True, "per_dim_branch": False,
              "entity_base": [[0.0]], "entity_bump": [[0.0]],
              "relation_boxes": [{"corner_a": [[-0.5], [-0.5]],
                                  "corner_b": [[0.5], [0.5]]}]}


@pytest.mark.parametrize("key,value", [
    ("relation_boxes", 5), ("relation_boxes", [1]),
    ("relation_boxes", [{"corner_a": 3, "corner_b": 4}]),
    ("norm_order", True), ("norm_order", 2.0)])
@pytest.mark.parametrize("command", [["box-stats"], ["eval"], ["rules", "verify"]])
def test_malformed_v1_checkpoint_is_an_error_line(capsys, data, key, value, command):
    rules = write_lines(data["tmp"] / "rules.txt", ["symmetry r"])
    extra = {"eval": ["--train", data["train"]], "rules": ["--rules", rules]}
    ckpt = data["tmp"] / "v1.json"
    ckpt.write_text(json.dumps(V1_PAYLOAD))
    assert run_main(capsys, ["box-stats", "--checkpoint", str(ckpt)])[0] == 0
    ckpt.write_text(json.dumps({**V1_PAYLOAD, key: value}))
    code, out, err = run_main(
        capsys, [*command, "--checkpoint", str(ckpt), *extra.get(command[0], [])])
    assert code == 1 and out == ""
    assert "error: cannot load checkpoint: " in err


def _v2_payload(tmp_path):
    v = Vocabulary(["a", "b"], ["r"], [2])
    save_checkpoint(init_params(v, 2, np.random.default_rng(0)), tmp_path / "v2.json")
    return json.loads((tmp_path / "v2.json").read_text())


# every field but the version and the optional per_dim_branch, per version
MISSING_FIELDS = [
    *((1, key) for key in V1_PAYLOAD if key not in ("version", "per_dim_branch")),
    *((2, key) for key in ("entities", "relations", "arities", "d", "n_slots",
                           "norm_order", "bounded", "slot_of", "entity_base",
                           "entity_bump", "box_a", "box_b"))]


@pytest.mark.parametrize("version,key", MISSING_FIELDS)
def test_a_checkpoint_missing_a_field_names_it(capsys, tmp_path, version, key):
    payload = V1_PAYLOAD if version == 1 else _v2_payload(tmp_path)
    assert key in payload
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps({k: v for k, v in payload.items() if k != key}))
    message = f"checkpoint has no {key} field"
    with pytest.raises(ValueError) as exc:
        load_checkpoint(ckpt)
    assert str(exc.value) == message
    code, out, err = run_main(capsys, ["box-stats", "--checkpoint", str(ckpt)])
    assert code == 1 and out == ""
    assert err == f"error: cannot load checkpoint: {message}\n"


# -- fit-exact subcommand --


def test_fit_exact_cli(capsys, tmp_path):
    table = write_lines(tmp_path / "table.txt", [
        "entities a b", "relation r 2",
        "r a a 1", "r a b 0", "r b a 1", "r b b 0"])
    out_path = tmp_path / "fitted.json"
    code, out, _ = run_main(
        capsys, ["fit-exact", table, "--out", str(out_path)])
    assert code == 0
    report = json.loads(out)
    assert report == {"table_bits": 4, "flips": 2, "exact": True}
    fitted = load_checkpoint(out_path)
    assert fitted.vocab.n_relations == 1


def test_fit_exact_bad_table(capsys, tmp_path):
    table = write_lines(tmp_path / "table.txt",
                        ["entities a", "relation r 1", "r a 2"])
    code, _, err = run_main(capsys, ["fit-exact", table])
    assert code == 1
    assert "error:" in err
    code, _, err = run_main(
        capsys, ["fit-exact", str(tmp_path / "missing.txt")])
    assert code == 1
    assert "error:" in err


def test_fit_exact_failure_exits_1_with_an_error_line(capsys, tmp_path, monkeypatch):
    def no_flip(table):
        raise ExactFitError("no exit placement found for fact (0, 0, 1)")

    monkeypatch.setattr(cli, "fit", no_flip)
    table = write_lines(tmp_path / "table.txt", [
        "entities a b", "relation r 2",
        "r a a 1", "r a b 0", "r b a 1", "r b b 0"])
    code, out, err = run_main(capsys, ["fit-exact", table])
    assert code == 1 and out == ""
    assert "error: no exit placement found for fact (0, 0, 1)\n" in err


def test_fit_exact_rejects_a_repeated_entity_name(capsys, tmp_path):
    table = write_lines(tmp_path / "table.txt", [
        "entities a b a", "relation r 2",
        "r a a 1", "r a b 0", "r b a 1", "r b b 0"])
    code, out, err = run_main(capsys, ["fit-exact", table])
    assert code == 1 and out == ""
    assert "table.txt:1: duplicate entity 'a'" in err


def test_fit_exact_rejects_a_unary_only_table(capsys, tmp_path):
    table = write_lines(tmp_path / "table.txt",
                        ["entities a b", "relation r 1", "r a 1", "r b 0"])
    code, out, err = run_main(capsys, ["fit-exact", table])
    assert code == 1 and out == ""
    assert "error: exact fitting requires at least one relation of arity > 1\n" in err


# -- rules subcommands --


def test_rules_closure_missing_rule_file(capsys, tmp_path):
    missing = tmp_path / "missing.txt"
    code, out, err = run_main(capsys, ["rules", "closure", "--rules", str(missing)])
    assert code == 1 and out == ""
    assert f"error: rule file not found: {missing}\n" in err


def test_rules_closure_cli(capsys, tmp_path):
    rules = write_lines(tmp_path / "rules.txt",
                        ["hierarchy r s", "hierarchy s t"])
    code, out, _ = run_main(capsys, ["rules", "closure", "--rules", rules])
    assert code == 0
    report = json.loads(out)
    assert "hierarchy r t" in report["closure"]
    assert set(report["rules"]) <= set(report["closure"])


def test_rules_inject_check_consistent(capsys, tmp_path):
    rules = write_lines(tmp_path / "rules.txt",
                        ["symmetry r", "hierarchy r s"])
    code, out, _ = run_main(capsys, ["rules", "inject-check", "--rules",
                                     rules, "--d", "4", "--seed", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["consistent"] is True
    assert report["rules"] == 2
    # r head/tail merged by symmetry; s head and tail stay separate
    assert report["sharing_classes"] == 3
    assert report["containment_constraints"] >= 2
    assert report["initial_growth"] >= 0


def test_rules_inject_check_conflict(capsys, tmp_path):
    rules = write_lines(tmp_path / "rules.txt",
                        ["symmetry r", "antisymmetry r"])
    code, out, _ = run_main(capsys, ["rules", "inject-check", "--rules", rules])
    assert code == 1
    report = json.loads(out)
    assert report["consistent"] is False
    assert report["conflict"]["kind"] == "symmetry-vs-antisymmetry"
    assert "r" in report["conflict"]["message"]


def test_rules_verify_cli(capsys, tmp_path):
    vocab = Vocabulary()
    for name in ("r", "s"):
        vocab.relation_id(name, arity=2, create=True)
    for name in ("a", "b"):
        vocab.entity_id(name, create=True)
    params = init_params(vocab, 3, stream_rng(0, STREAM_INIT))
    ckpt = tmp_path / "model.json"
    save_checkpoint(params, ckpt)
    rules = write_lines(tmp_path / "rules.txt",
                        ["symmetry r", "composition r s r"])
    code, out, _ = run_main(capsys, [
        "rules", "verify", "--rules", rules, "--checkpoint", str(ckpt)])
    assert code == 0
    results = json.loads(out)["results"]
    assert results[0]["rule"] == "symmetry r"
    assert results[0]["captured"] is False  # random boxes differ
    assert "dimension" in results[0]["witness"]
    assert "error" in results[1]  # composition has no box-shape test


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1e-9"])
def test_rules_verify_cli_rejects_a_tolerance_outside_zero_to_infinity(
        capsys, tmp_path, tolerance):
    vocab = Vocabulary()
    for name in ("r", "s"):
        vocab.relation_id(name, arity=2, create=True)
    vocab.entity_id("a", create=True)
    ckpt = tmp_path / "model.json"
    save_checkpoint(init_params(vocab, 3, stream_rng(0, STREAM_INIT)), ckpt)
    rules = write_lines(tmp_path / "rules.txt", ["hierarchy r s"])
    code, out, err = run_main(capsys, [
        "rules", "verify", "--rules", rules, "--checkpoint", str(ckpt),
        f"--tolerance={tolerance}"])
    assert code == 1
    assert out == ""
    assert "error:" in err and "tolerance" in err


def test_rules_unknown_relation_name(capsys, data, tmp_path):
    outdir = data["tmp"] / "run"
    assert run_main(capsys, train_argv(data, outdir))[0] == 0
    rules = write_lines(tmp_path / "rules.txt", ["symmetry nosuchrel"])
    code, _, err = run_main(capsys, [
        "rules", "verify", "--rules", rules,
        "--checkpoint", str(outdir / "best.json")])
    assert code == 1
    assert "error:" in err and "rules.txt:1" in err


# -- box-stats subcommand --


def test_box_stats_cli(capsys, tmp_path):
    vocab = Vocabulary()
    vocab.relation_id("r", arity=2, create=True)
    vocab.entity_id("a", create=True)
    params = init_params(vocab, 3, stream_rng(0, STREAM_INIT))
    ckpt = tmp_path / "model.json"
    save_checkpoint(params, ckpt)
    code, out, _ = run_main(capsys, ["box-stats", "--checkpoint", str(ckpt)])
    assert code == 0
    report = json.loads(out)
    assert report["relations"][0]["relation"] == "r"
    assert len(report["relations"][0]["positions"]) == 2
    assert report["pairs"] == []


# -- parser-level behavior --


def test_help_and_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# -- one error contract --


@pytest.fixture
def inputs(data):
    """One valid input file of each kind, plus a path that does not exist."""
    tmp = data["tmp"]
    vocab = parse_kb(data["train"]).vocab
    ckpt = tmp / "model.json"
    save_checkpoint(init_params(vocab, 3, stream_rng(0, STREAM_INIT)), ckpt)
    bad_ckpt = tmp / "bad_header.json"
    bad_ckpt.write_text(json.dumps({**json.loads(ckpt.read_text()),
                                    "norm_order": 3}))
    return {**data, "ckpt": str(ckpt), "bad_ckpt": str(bad_ckpt),
            "missing": str(tmp / "missing.txt"),
            "rules": write_lines(tmp / "rules.txt", ["symmetry knows"]),
            "bad_rules": write_lines(tmp / "bad.rules", ["hierarchy knows"]),
            "bad_table": write_lines(tmp / "bad.table", [
                "entities a b", "relation r 2", "r a 1"]),
            "bad_config": write_lines(tmp / "bad.cfg", ["bogus = 1"]),
            "unknown_rules": write_lines(tmp / "z.rules", ["symmetry zz"]),
            "stranger": write_lines(tmp / "stranger.tsv", ["ada\tknows\tzed"]),
            "outdir": str(tmp / "out")}


# (argv template, the start of the error message); {name} is an inputs entry
BAD_INPUTS = {
    "train data file": (
        "train --train {missing} --outdir {outdir}", "data file not found: "),
    "eval data file": (
        "eval --checkpoint {ckpt} --train {train} --test {missing}",
        "data file not found: "),
    "checkpoint": ("box-stats --checkpoint {missing}", "checkpoint not found: "),
    "train rule file": (
        "train --train {train} --rules {missing} --outdir {outdir}",
        "rule file not found: "),
    "rules closure rule file": ("rules closure --rules {missing}",
                                "rule file not found: "),
    "rules verify rule file": (
        "rules verify --rules {missing} --checkpoint {ckpt}",
        "rule file not found: "),
    "rules inject-check rule file": ("rules inject-check --rules {missing}",
                                     "rule file not found: "),
    "truth table": ("fit-exact {missing}", "truth table not found: "),
    "checkpoint header": ("box-stats --checkpoint {bad_ckpt}",
                          "cannot load checkpoint: "),
    "rule line": ("rules closure --rules {bad_rules}",
                  "{bad_rules}:1: hierarchy takes 2 relation(s), got 1"),
    "table line": ("fit-exact {bad_table}",
                   "{bad_table}:3: expected 2 entities and a label"),
    "config key": ("train --config {bad_config} --train {train} "
                   "--outdir {outdir}", "unknown config key 'bogus'"),
    "Hits@K list": ("eval --checkpoint {ckpt} --train {train} --ks 1,zero",
                    "bad Hits@K list"),
    "empty split": ("eval --checkpoint {ckpt} --train {train} --split test",
                    "the test split has no facts to rank"),
    "inject-check dimension": ("rules inject-check --rules {rules} --d 0",
                               "d must be at least 1"),
    "rule relation name": (
        "rules verify --rules {unknown_rules} --checkpoint {ckpt}",
        "{unknown_rules}:1: unknown relation 'zz'\n"),
    "eval entity name": (
        "eval --checkpoint {ckpt} --train {train} --test {stranger}",
        "dataset name missing from checkpoint vocabulary: unknown entity 'zed'\n"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_each_bad_input_is_exactly_one_error_line(capsys, inputs, case):
    template, message = BAD_INPUTS[case]
    argv = [word.format(**inputs) for word in template.split()]
    message = message.format(**inputs)
    code, out, err = run_main(capsys, argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error: " + message), err
    if "not found" in message:
        assert err == f"error: {message}{inputs['missing']}\n"
    # no input error leaves an output directory behind
    assert not (inputs["tmp"] / "out").exists()


def test_train_with_conflicting_rules_leaves_no_output_directory(capsys, data):
    rules = write_lines(data["tmp"] / "rules.txt",
                        ["symmetry knows", "antisymmetry knows"])
    outdir = data["tmp"] / "out"
    code, out, err = run_main(capsys, train_argv(data, outdir,
                                                 extra=["--rules", rules]))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not outdir.exists()


def test_train_conflict_names_its_chain_by_relation_name(capsys, data):
    rules = write_lines(data["tmp"] / "rules.txt",
                        ["symmetry knows", "antisymmetry knows"])
    code, out, err = run_main(capsys, train_argv(data, data["tmp"] / "out",
                                                 extra=["--rules", rules]))
    assert (code, out) == (1, "")
    assert err.startswith("error: inconsistent rules (symmetry-vs-antisymmetry): ")
    assert err.endswith("; via symmetry knows; via antisymmetry knows\n"), err


def test_eval_rejects_data_facts_of_another_arity(capsys, tmp_path):
    ckpt = tmp_path / "ternary.json"
    vocab = Vocabulary(["a", "b", "c"], ["r"], [3])
    save_checkpoint(init_params(vocab, 3, stream_rng(0, STREAM_INIT)), ckpt)
    binary = write_lines(tmp_path / "binary.tsv", ["a\tr\tb", "b\tr\tc"])
    code, out, err = run_main(capsys, ["eval", "--checkpoint", str(ckpt),
                                       "--train", binary, "--split", "train"])
    assert (code, out) == (1, "")
    assert err == (f"error: {binary}:1: relation 'r' used with arity 2, "
                   "previously seen with arity 3\n")


def test_train_abort_is_one_error_line_then_the_diagnostic(capsys, data):
    with pytest.warns(RuntimeWarning):
        code, out, err = run_main(capsys, train_argv(
            data, data["tmp"] / "boom",
            extra=["--no-bounded", "--learning-rate", "1e200",
                   "--batch-size", "4"]))
    assert code == 2 and out == ""
    first, last = err.splitlines()
    assert first == "error: non-finite loss; training aborted"
    assert json.loads(last)["epoch"] == 0


@pytest.mark.parametrize("argv,message", [
    ("train --train {train} --outdir {outdir} --margin -1e-3",
     "error: margin must be positive\n"),
    ("rules verify --rules {rules} --checkpoint {ckpt} --tolerance -1e-9",
     "error: tolerance is -1e-09, not a finite number >= 0\n"),
    ("rules verify --rules {rules} --checkpoint {ckpt} --tolerance -2.5E+3",
     "error: tolerance is -2500.0, not a finite number >= 0\n"),
], ids=["margin", "tolerance", "tolerance-capital-e"])
def test_negative_numbers_in_scientific_notation_are_values(
        capsys, inputs, argv, message):
    code, out, err = run_main(capsys, [w.format(**inputs) for w in argv.split()])
    assert (code, out, err) == (1, "", message)


def test_rules_verify_checks_the_tolerance_with_no_rules(capsys, inputs):
    empty = write_lines(inputs["tmp"] / "empty.rules", ["# no rules"])
    code, out, err = run_main(capsys, [
        "rules", "verify", "--rules", empty, "--checkpoint", inputs["ckpt"],
        "--tolerance", "nan"])
    assert (code, out) == (1, "")
    assert err == "error: tolerance is nan, not a finite number >= 0\n"


def test_error_line_is_all_of_stderr_from_a_fresh_process(inputs):
    # in process, the test runner captures log records before they reach
    # stderr; a fresh interpreter shows any log echo of the error
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "boxkb.cli", "box-stats",
         "--checkpoint", inputs["missing"]],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"error: checkpoint not found: {inputs['missing']}\n"
