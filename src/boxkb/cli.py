"""Command-line interface.

Subcommands: ``train``, ``eval``, ``fit-exact``, ``rules closure|verify|
inject-check``, ``box-stats``.  Structured output is JSON on stdout; logs go
to stderr at the level named by the BOXKB_LOG environment variable.  Train
options come from defaults, then a flat ``key = value`` config file, then
command-line flags (later wins); the effective config is echoed into the
output directory so a run can be reproduced from it alone.

Exit codes: 0 success; 1 configuration or input error, reported as exactly
one ``error: <message>`` line on stderr; 2 training abort (an ``error:``
line, then the diagnostic JSON as the last stderr line) or a usage error
(unknown command or flag, unparsable flag value), which argparse reports.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import re
import sys
import time
import typing
from dataclasses import dataclass
from pathlib import Path

from .evaluation import evaluate, ranked_facts
from .exact_fit import ExactFitError, TableFormatError, fit, parse_table
from .kb import (FORMAT_TRIPLE, FORMATS, SPLITS, Fact, KBFormatError,
                 KnowledgeBase, Vocabulary, augment_inverses, parse_kb)
from .model import init_params, load_checkpoint, save_checkpoint
from .rules import (InconsistentRulesError, RuleError, UnsupportedRuleError,
                    box_stats, check_capture, check_tolerance,
                    deductive_closure, inject, parse_rules)
from .training import (STREAM_INIT, TrainConfig, TrainingAbort, setting,
                       stream_rng, train_model)

log = logging.getLogger("boxkb")


class ConfigError(ValueError):
    pass


@dataclass
class DataConfig:
    """The data settings ``eval`` shares with ``train``."""
    train: str = setting("", "training split path")
    valid: str = setting("", "validation split path")
    test: str = setting("", "test split path")
    format: str = setting(FORMAT_TRIPLE, "data file format", choices=FORMATS)
    workers: int = setting(
        1, "parallel evaluation workers; they change only evaluation speed")
    augment_inverses: bool = setting(
        False, "add an inverse relation and reversed fact per fact")


@dataclass
class RunConfig(TrainConfig, DataConfig):
    """Every ``train`` setting; each field is a flag, a config-file key and a
    ``config.txt`` line."""
    d: int = setting(50, "embedding dimensionality")
    norm_order: int = setting(2, "distance norm (1 or 2)")
    bounded: bool = setting(True, "squash points and corners through tanh")
    rules: str = setting("", "rule file to inject before training")
    outdir: str = setting("", "output directory")

    def validate(self) -> None:
        if not self.train:
            raise ConfigError("a training data path is required")
        if self.format not in FORMATS:
            raise ConfigError(f"unknown data format {self.format!r}")
        if self.d < 1:
            raise ConfigError("d must be at least 1")
        if self.norm_order not in (1, 2):
            raise ConfigError("norm_order must be 1 or 2")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        try:
            super().validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


_SETTING_TYPES = typing.get_type_hints(RunConfig)


def _coerce(key: str, raw: str):
    kind = _SETTING_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown config key {key!r}")
    if kind is bool:
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"config key {key!r} expects a boolean, got {raw!r}")
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r} expects {kind.__name__}, got {raw!r}")


# key = "value" or 'value', then an optional comment: a quoted value may hold '#'
_QUOTED_LINE = re.compile(r"""\s*([^#=]*?)\s*=\s*(["'])(.*?)\2\s*(?:#.*)?""")


def parse_config_file(path) -> dict:
    """Flat ``key = value`` lines; # comments; quotes around strings optional
    (a value that holds ``#`` must be quoted)."""
    values = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            quoted = _QUOTED_LINE.fullmatch(line.rstrip("\n"))
            if quoted:
                key, raw = quoted[1], quoted[3]
            else:
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, raw = text.partition("=")
                key, raw = key.strip(), raw.strip().strip("\"'")
            values[key] = _coerce(key, raw)
    return values


def write_config_file(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in dataclasses.fields(RunConfig):
            value = getattr(cfg, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, str):
                quote = "'" if '"' in value else '"'
                value = f"{quote}{value}{quote}"
            fh.write(f"{f.name} = {value}\n")


def load_run_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in parse_config_file(args.config).items():
            setattr(cfg, key, value)
    for f in dataclasses.fields(RunConfig):
        override = getattr(args, f.name, None)
        if override is not None:
            setattr(cfg, f.name, override)
    cfg.validate()
    return cfg


def _require(what: str, *paths: str) -> None:
    """ConfigError naming the first of ``paths`` (empty ones skipped) that
    does not exist."""
    for path in paths:
        if path and not os.path.exists(path):
            raise ConfigError(f"{what} not found: {path}")


def _read_rules(path: str, vocab: Vocabulary, create_binary: bool = False):
    _require("rule file", path)
    return parse_rules(path, vocab, create_binary)


def _load_kb(cfg: RunConfig) -> KnowledgeBase:
    _require("data file", cfg.train, cfg.valid, cfg.test)
    kb = parse_kb(cfg.train, cfg.valid or None, cfg.test or None, fmt=cfg.format)
    if cfg.augment_inverses:
        kb = augment_inverses(kb)
    return kb


def _remap_kb(kb: KnowledgeBase, vocab: Vocabulary) -> KnowledgeBase:
    """Re-index into a checkpoint's vocabulary, by name, the facts that
    evaluation ranks; inverse helper facts are dropped first, as they are
    never ranked and filter only their own relations' queries."""
    def remap(fact: Fact) -> Fact:
        try:
            rel = vocab.relation_id(kb.vocab.relation_names[fact.relation],
                                    arity=fact.arity)
            ents = tuple(vocab.entity_id(kb.vocab.entity_names[e])
                         for e in fact.entities)
        except KeyError as exc:  # str() of a KeyError quotes its message
            raise ConfigError(
                f"dataset name missing from checkpoint vocabulary: {exc.args[0]}")
        return Fact(rel, ents)

    splits = {name: tuple(map(remap, ranked_facts(kb, name))) for name in SPLITS}
    return KnowledgeBase(vocab, **splits, n_scored_relations=vocab.n_relations)


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


def cmd_train(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    if not cfg.outdir:
        raise ConfigError("an output directory is required for training")
    kb = _load_kb(cfg)
    params = init_params(kb.vocab, cfg.d, stream_rng(cfg.seed, STREAM_INIT),
                         norm_order=cfg.norm_order, bounded=cfg.bounded)
    plan = None
    if cfg.rules:
        rules = _read_rules(cfg.rules, kb.vocab)
        plan = inject(rules, params)
        log.info("injected %d rules (%d containments, initial growth %d)",
                 len(rules), len(plan.containments), plan.initial_growth)
    # made only once every input is read and checked, so that a run which
    # fails on its inputs leaves no directory behind
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_config_file(cfg, outdir / "config.txt")
    best = {"mrr": None, "epoch": None}
    best_path = outdir / "best.json"
    stats: dict = {}

    def on_checkpoint(epoch: int, params, metrics: dict) -> None:
        save_checkpoint(params, outdir / "checkpoint.json")
        mrr = None
        if kb.valid:
            mrr = evaluate(params, kb, "valid", workers=cfg.workers)["mrr"]
            log.info("epoch %d: valid filtered MRR %.4f", epoch, mrr)
        # with no valid split, best is simply the latest checkpoint
        if mrr is None or best["mrr"] is None or mrr > best["mrr"]:
            best.update(mrr=mrr, epoch=epoch)
            save_checkpoint(params, best_path)

    with open(outdir / "metrics.jsonl", "w", encoding="utf-8") as metrics_fh:
        history = train_model(params, kb, cfg,
                              projection_plan=plan, metrics_fh=metrics_fh,
                              on_checkpoint=on_checkpoint, stats=stats)
    _emit({
        "epochs": len(history),
        "final": history[-1] if history else None,
        "best": best,
        "best_checkpoint": None if best["epoch"] is None else str(best_path),
        "stats": stats,
    })
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    params = _load_params(args.checkpoint)
    kb = _remap_kb(_load_kb(cfg), params.vocab)
    ks = _parse_ks(args.ks)
    facts = ranked_facts(kb, args.split)
    if not facts:
        raise ConfigError(f"the {args.split} split has no facts to rank")
    rankings = sum(f.arity for f in facts)
    start = time.perf_counter()
    report = evaluate(params, kb, args.split, ks=ks, workers=cfg.workers)
    wall_s = time.perf_counter() - start
    report.update(wall_ms=wall_s * 1e3, rankings_per_s=rankings / wall_s)
    _emit(report)
    return 0


def _load_params(path: str):
    _require("checkpoint", path)
    try:
        return load_checkpoint(path)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"cannot load checkpoint: {exc}") from exc


def _parse_ks(text: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(k) for k in text.split(","))
    except ValueError:
        raise ConfigError(f"bad Hits@K list {text!r}")
    if not ks or any(k < 1 for k in ks):
        raise ConfigError("Hits@K values must be positive integers")
    return ks


def cmd_fit_exact(args: argparse.Namespace) -> int:
    _require("truth table", args.table)
    table = parse_table(args.table)
    model = fit(table)
    if args.out:
        save_checkpoint(model.params, args.out)
    _emit({"table_bits": table.n_facts, "flips": model.flips,
           "exact": bool(model.exact)})
    return 0 if model.exact else 1


def cmd_rules_closure(args: argparse.Namespace) -> int:
    vocab = Vocabulary()
    rules = _read_rules(args.rules, vocab, create_binary=True)
    closed = deductive_closure(rules)
    _emit({"rules": [r.format(vocab) for r in rules],
           "closure": [r.format(vocab) for r in closed]})
    return 0


def cmd_rules_verify(args: argparse.Namespace) -> int:
    check_tolerance(args.tolerance)
    params = _load_params(args.checkpoint)
    rules = _read_rules(args.rules, params.vocab)
    results = []
    for rule in rules:
        entry = {"rule": rule.format(params.vocab)}
        try:
            entry.update(check_capture(params, rule, args.tolerance)._asdict())
        except UnsupportedRuleError as exc:
            entry["error"] = str(exc)
        results.append(entry)
    _emit({"results": results})
    return 0


def cmd_rules_inject_check(args: argparse.Namespace) -> int:
    if args.d < 1:
        raise ConfigError("d must be at least 1")
    vocab = Vocabulary()
    rules = _read_rules(args.rules, vocab, create_binary=True)
    params = init_params(vocab, args.d, stream_rng(args.seed, STREAM_INIT))
    try:
        plan = inject(rules, params)
    except InconsistentRulesError as exc:
        _emit({"consistent": False, "conflict": {
            "kind": exc.report.kind,
            "message": exc.report.message,
            "chain": [r.format(vocab) for r in exc.report.chain]}})
        return 1
    _emit({"consistent": True,
           "rules": len(rules),
           "closure_size": len(deductive_closure(rules)),
           "sharing_classes": len(set(plan.sharing.values())),
           "containment_constraints": len(plan.containments),
           "initial_growth": plan.initial_growth})
    return 0


def cmd_box_stats(args: argparse.Namespace) -> int:
    params = _load_params(args.checkpoint)
    _emit(box_stats(params))
    return 0


def _add_setting_flags(p: argparse.ArgumentParser, cls) -> None:
    """One ``--kebab-name`` flag per field of the settings dataclass ``cls``,
    typed by its annotation, with the field metadata as ``argparse`` keywords.
    An unset flag stays None, so the config file and defaults show through."""
    p.add_argument("--config", help="flat key = value config file")
    for f in dataclasses.fields(cls):
        kind = _SETTING_TYPES[f.name]
        typed = ({"action": argparse.BooleanOptionalAction} if kind is bool
                 else {"type": kind})
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                       **typed, **f.metadata)


class _Parser(argparse.ArgumentParser):
    """Reads a negative number in scientific notation, such as ``-1e-3``, as
    a value rather than an option; ``add_subparsers`` builds every
    subparser with its parent's class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="boxkb",
        description="Knowledge-base completion with box embeddings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model")
    _add_setting_flags(p, RunConfig)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=SPLITS)
    p.add_argument("--ks", default="1,3,10", help="comma-separated Hits@K cutoffs")
    _add_setting_flags(p, DataConfig)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fit-exact", help="exactly fit a truth table")
    p.add_argument("table", help="truth table file")
    p.add_argument("--out", help="write the fitted checkpoint here")
    p.set_defaults(func=cmd_fit_exact)

    p = sub.add_parser("rules", help="rule tooling")
    rsub = p.add_subparsers(dest="rules_command", required=True)
    pc = rsub.add_parser("closure", help="print the deductive closure")
    pc.add_argument("--rules", required=True)
    pc.set_defaults(func=cmd_rules_closure)
    pv = rsub.add_parser("verify", help="check capture of each rule")
    pv.add_argument("--rules", required=True)
    pv.add_argument("--checkpoint", required=True)
    pv.add_argument("--tolerance", type=float, default=1e-6)
    pv.set_defaults(func=cmd_rules_verify)
    pi = rsub.add_parser("inject-check",
                         help="consistency check plus dry-run injection")
    pi.add_argument("--rules", required=True)
    pi.add_argument("--d", type=int, default=RunConfig.d)
    pi.add_argument("--seed", type=int, default=RunConfig.seed)
    pi.set_defaults(func=cmd_rules_inject_check)

    p = sub.add_parser("box-stats", help="box shape report for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_box_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("BOXKB_LOG", "WARNING").upper()
    logging.basicConfig(stream=sys.stderr,
                        level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps(exc.diagnostic), file=sys.stderr)
        return 2
    except (ConfigError, KBFormatError, RuleError, TableFormatError,
            ExactFitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
