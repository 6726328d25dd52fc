"""Command-line entry point.

Subcommands: sample, split-tiles, pretrain-toy, grad-check, eval-retrieval,
flops. Exit codes: 0 success, 1 usage error, 2 data/format error. A single
--seed funnels every random stream.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, CsmoeError, DataError, DimensionError, ParameterError, open_utf8
from .evaluation import dataset_retrieval_f1, profile, retrieve
from .fileio import atomic_write, load_tnsr, save_tnsr
from .losses import LossSettings, loss_total
from .model import (
    EMBEDDING_STRATEGIES,
    MODALITIES,
    CsmoeConfig,
    build_embedding,
    check_image,
    encode,
    forward,
    init_model,
    load_checkpoint,
    load_section,
    truncated_normal,
)
from .numerics import check_gradients
from .sampler import GaConfig, load_archive, load_grid, sample_archive, write_selection
from .tokenizer import MaskPair, split_tile
from .trainer import TrainerConfig, load_pairs, run_pretraining, synthesize_pairs


@dataclass
class PathSettings:
    data_dir: str = ""
    checkpoint: str = ""
    log: str = ""


@dataclass
class RunConfig:
    model: CsmoeConfig = field(default_factory=CsmoeConfig)
    loss: LossSettings = field(default_factory=LossSettings)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    ga: GaConfig = field(default_factory=GaConfig)
    paths: PathSettings = field(default_factory=PathSettings)


_SECTIONS = {f.name: f.default_factory for f in fields(RunConfig)}


def load_run_config(path=None, overrides=()) -> RunConfig:
    """The run configuration: the JSON file at ``path`` (every default when
    None) with ``overrides`` merged over its sections before any section is
    built. An override is a (flag, "section.key", value) triple from the
    command line, so a flag's value meets the same checks as the file's and
    an error names the flag as well as the key."""
    data = {}
    if path is not None:
        try:
            with open_utf8(path, ConfigError) as fh:
                data = json.load(fh)
        except FileNotFoundError as exc:
            raise DataError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        unknown = set(data) - set(_SECTIONS)
        if unknown:
            raise ConfigError(f"{path}: unknown config sections: {sorted(unknown)}")
    flags = {name: [] for name in _SECTIONS}
    for flag, dotted, value in overrides:
        name, key = dotted.split(".")
        section = data.setdefault(name, {})
        if isinstance(section, dict):  # otherwise load_section rejects the section
            section[key] = value
        flags[name].append(flag)
    source = "" if path is None else f"{path}: "
    return RunConfig(**{
        name: load_section(cls, data.get(name, {}), f"{source}section '{name}'"
                           + (f" with {', '.join(flags[name])}" if flags[name] else ""))
        for name, cls in _SECTIONS.items()})


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    # --config may come before or after the subcommand: no parser sets a
    # default for it (main starts from config=None), so a subcommand never
    # overwrites the top-level value
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=argparse.SUPPRESS, help="JSON run configuration file")
    parser = _Parser(prog="csmoe", description=__doc__, parents=[config])
    parser.add_argument("--dump-config", action="store_true",
                        help="print the fully resolved run configuration and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("sample", parents=[config], help="descriptor-driven archive sampling")
    p.add_argument("--archive", required=True, help="CSV id,lon_min,lat_min,lon_max,lat_max")
    p.add_argument("--climate", required=True, help="GRID1 climate raster")
    p.add_argument("--thematic", required=True, help="GRID1 thematic raster")
    p.add_argument("--out", required=True, help="selection CSV to write")
    p.add_argument("--report", help="sampling report JSON to write")
    p.add_argument("--target", type=int, dest="ga.target_size", metavar="TARGET",
                   help="samples to keep per stratum")
    p.add_argument("--iters", type=int, dest="ga.generations", metavar="ITERS", help="GA generations")
    p.add_argument("--pop", type=int, dest="ga.population_size", metavar="POP", help="GA population size")
    p.add_argument("--rc", type=float, dest="ga.crossover_rate", metavar="RC",
                   help="per-gene crossover swap probability")
    p.add_argument("--baseline", action="store_true",
                   help="also report an equal-size random selection per stratum")
    p.add_argument("--seed", type=int, dest="model.seed,ga.seed", metavar="SEED")

    p = sub.add_parser("split-tiles", help="cut TNSR1 tiles into training patches")
    p.add_argument("--input", required=True, help="directory of *.tnsr tiles")
    p.add_argument("--output", required=True, help="directory for kept patches and reports")
    p.add_argument("--patch", type=int, default=120)
    p.add_argument("--sentinel", type=float, default="nan", help="invalid-pixel value (default NaN)")

    p = sub.add_parser("pretrain-toy", parents=[config],
                       help="mini-batch pretraining on paired TNSR1 images")
    p.add_argument("--data-dir", dest="paths.data_dir", metavar="DATA_DIR",
                   help="directory of <id>_x.tnsr/<id>_y.tnsr pairs")
    p.add_argument("--checkpoint", dest="paths.checkpoint", metavar="CHECKPOINT",
                   help="checkpoint path to write")
    p.add_argument("--log", dest="paths.log", metavar="LOG", help="JSON-lines loss log to write")
    p.add_argument("--synthesize", type=int, metavar="N",
                   help="generate N synthetic pairs into --data-dir first")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--epochs", type=int, dest="trainer.epochs", metavar="EPOCHS")
    p.add_argument("--norm-pix", action="store_true", dest="loss.norm_pix",
                   help="normalize reconstruction targets per token")
    p.add_argument("--mi-include-positive", action="store_true", dest="loss.mi_include_positive",
                   help="include the positive pair in the contrastive denominator")
    p.add_argument("--seed", type=int, dest="model.seed,ga.seed", metavar="SEED")

    p = sub.add_parser("grad-check", parents=[config], help="finite-difference check of the total loss")
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--max-checked", type=int, default=1024)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--out", help="JSON report path")
    p.add_argument("--seed", type=int, dest="model.seed,ga.seed", metavar="SEED")

    p = sub.add_parser("eval-retrieval", help="uni/cross-modal retrieval F1")
    p.add_argument("--checkpoint", help="model checkpoint (needed for image inputs)")
    p.add_argument("--queries", required=True, help="directory of <id>.tnsr embeddings or images")
    p.add_argument("--gallery", required=True, help="directory of <id>.tnsr embeddings or images")
    p.add_argument("--labels", required=True, help="CSV id,labels with ;-joined class codes")
    p.add_argument("--task", required=True, choices=["S1>S1", "S1>S2", "S2>S1", "S2>S2"])
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--strategy", default="only_cls", choices=EMBEDDING_STRATEGIES,
                   help="embedding strategy for image inputs (default only_cls)")
    p.add_argument("--out", help="JSON result path")

    p = sub.add_parser("flops", parents=[config], help="parameter/FLOP/C2C profile of a configuration")
    p.add_argument("--out", help="JSON profile path")

    # a config-backed flag's dest names the comma-separated "section.key" fields it sets
    for p in sub.choices.values():
        p.set_defaults(config_flags={a.dest: a.option_strings[0] for a in p._actions if "." in a.dest})
    return parser


def _run_config(args) -> RunConfig:
    """``--config`` with every config-backed flag that was given merged over
    it; a flag left unset holds None (a store_true flag False)."""
    overrides = [(flag, dotted, value) for dest, flag in getattr(args, "config_flags", {}).items()
                 if (value := getattr(args, dest)) is not None and value is not False
                 for dotted in dest.split(",")]
    return load_run_config(args.config, overrides)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _write_json(payload, out, indent=2, echo=False):
    """``payload`` as JSON with sorted keys and a closing newline, written
    atomically to ``out`` when given, then to stdout when ``echo``."""
    def dump(fh):
        json.dump(payload, fh, indent=indent, sort_keys=True)
        fh.write("\n")

    if out:
        with atomic_write(out, "w") as fh:
            dump(fh)
    if echo:
        dump(sys.stdout)


def _check_outputs(*outputs, inputs=()):
    """Refuse (flag, path) outputs that could not be written, or that would
    overwrite each other or one of the (flag, path) ``inputs``: checked
    before any input is read, so a typo costs no GA run, training, gradient
    check or embedding."""
    seen = {Path(path).resolve(): f"{flag} {path}" for flag, path in inputs}
    for flag, out in outputs:
        if not out:
            continue
        path = Path(out)
        if not path.parent.is_dir():
            raise DataError(f"{flag} {out}: {path.parent} is not a directory")
        if path.is_dir():
            raise DataError(f"{flag} {out} is a directory")
        real = path.resolve()
        if real in seen:
            raise DataError(f"{flag} {out} names the same file as {seen[real]}")
        seen[real] = f"{flag} {out}"


def _cmd_sample(args) -> int:
    _check_outputs(("--out", args.out), ("--report", args.report))
    ga = _run_config(args).ga
    archive = load_archive(args.archive)
    climate = load_grid(args.climate)
    thematic = load_grid(args.thematic)
    selection, report = sample_archive(archive, climate, thematic, ga, baseline=args.baseline)
    write_selection(args.out, selection)
    _write_json(asdict(report), args.report)
    print(f"selected {report.total_selected} of {report.total_described} described entries "
          f"across {len(report.strata)} strata -> {args.out}")
    return 0


def _cmd_split_tiles(args) -> int:
    if args.patch < 1:
        raise ParameterError(f"--patch must be >= 1, got {args.patch}")
    in_dir, out_dir = Path(args.input), Path(args.output)
    if not in_dir.is_dir():
        raise DataError(f"--input {in_dir} is not a directory")
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())  # "." or "/" at the latest
    if not existing.is_dir():
        raise DataError(f"--output {out_dir} is not a directory" if existing == out_dir
                        else f"--output {out_dir}: {existing} is not a directory")
    tiles = sorted(in_dir.glob("*.tnsr"))
    if not tiles:
        raise DataError(f"no *.tnsr tiles under {in_dir}")
    # every tile is read and split before anything is written: a bad tile leaves no output behind
    splits = [split_tile(load_tnsr(tile_path), args.patch, args.sentinel) for tile_path in tiles]
    out_dir.mkdir(parents=True, exist_ok=True)
    for tile_path, (patches, report) in zip(tiles, splits):
        for i, patch in enumerate(patches):
            save_tnsr(out_dir / f"{tile_path.stem}_p{i:04d}.tnsr", patch)
        _write_json(asdict(report), out_dir / f"{tile_path.stem}_report.json")
    print(f"kept {sum(report.kept for _, report in splits)} patches from {len(tiles)} tiles -> {out_dir}")
    return 0


def _cmd_pretrain(args) -> int:
    if args.synthesize is not None and args.synthesize < 0:
        raise ParameterError(f"--synthesize must be >= 0, got {args.synthesize}")
    run = _run_config(args)
    seed, paths = run.model.seed, run.paths
    for name, value in zip(("--data-dir", "--checkpoint", "--log"), astuple(paths)):
        if not value:
            raise DataError(f"{name} is required (flag or paths section of the config)")
    if args.resume == "":
        raise DataError("--resume needs a checkpoint path, got an empty string")
    # no output may name the resumed checkpoint or its .opt; --checkpoint may, to resume in place
    resumed = ()
    if args.resume is not None and Path(args.resume).resolve() != Path(paths.checkpoint).resolve():
        resumed = (("--resume", args.resume), ("--resume", f"{args.resume}.opt"))
    _check_outputs(("--checkpoint", paths.checkpoint), ("--checkpoint", f"{paths.checkpoint}.opt"),
                   ("--log", paths.log), inputs=resumed)
    if args.synthesize:
        synthesize_pairs(paths.data_dir, args.synthesize, run.model, seed)
    model = init_model(run.model) if args.resume is None else load_checkpoint(args.resume)
    records = run_pretraining(model, load_pairs(paths.data_dir, model.cfg), run.trainer, seed,
                              checkpoint_path=paths.checkpoint, log_path=paths.log,
                              loss=run.loss, resume_from=args.resume)
    train_records = [r for r in records if "step" in r]
    if train_records:
        print(f"trained {len(train_records)} steps: total {train_records[0]['total']:.6f} "
              f"-> {train_records[-1]['total']:.6f}; checkpoint {paths.checkpoint}")
    else:
        print(f"no training steps run; checkpoint {paths.checkpoint}")
    return 0


# grad-check re-randomizes parameters at this scale: at the 0.02 init scale
# some gradient elements sit below the f64 central-difference noise floor
GRAD_CHECK_STD = 0.3


def _cmd_grad_check(args) -> int:
    _check_outputs(("--out", args.out))
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ParameterError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    run = _run_config(args)
    cfg, seed = run.model, run.model.seed
    model = init_model(cfg)
    rng = np.random.default_rng(seed + 1)
    for p in model.params.values():
        p.data = truncated_normal(rng, p.shape, GRAD_CHECK_STD)
    data_rng = np.random.default_rng(seed + 2)
    draws = [[data_rng.standard_normal(cfg.image_shape(m)) for m in MODALITIES] for _ in range(2)]
    xs, ys = (np.stack(images) for images in zip(*draws))

    def loss_fn(params):
        art = forward(model, xs, ys, seed=[seed + 10, seed + 11])
        return loss_total(model, art, run.loss).total_tensor

    report = check_gradients(loss_fn, model.params, step=args.step,
                             max_checked=args.max_checked, sample_seed=seed)
    _write_json({**asdict(report), "tolerance": args.tolerance, "passed": report.passed(args.tolerance)},
                args.out, echo=True)
    return 0 if report.passed(args.tolerance) else 2


_TASK_MODALITY = {"S1": "x", "S2": "y"}


def _load_labels(path) -> dict:
    labels = {}
    with open_utf8(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["id", "labels"]:
            raise DataError(f"{path}: expected header id,labels")
        for row in reader:
            if row["labels"] is None:
                raise DataError(f"{path}: row {reader.line_num} has no labels field")
            if None in row:
                raise DataError(f"{path}: row {reader.line_num} has {2 + len(row[None])} fields, "
                                f"not 2: join labels with ';'")
            parts = [s for s in row["labels"].split(";") if s]
            if not parts:
                raise DataError(f"{path}: empty label set for id {row['id']}")
            if row["id"] in labels:
                raise DataError(f"{path}: repeated id {row['id']}")
            labels[row["id"]] = set(parts)
    return labels


#: files read and images embedded per pass: one full-mask ``encode`` of a
#: stacked [B, C, H, W] chunk turns every per-image GEMV into a GEMM, and
#: only the chunk's activations are held at once
_EMBED_CHUNK = 16


def _is_image(path, arr, model, modality: str) -> bool:
    """True for a rank-3 image the checkpoint can embed (``check_image``),
    False for a finite rank-1 embedding; anything else is a DataError naming
    the file."""
    if arr.ndim == 1:
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: embedding has non-finite values")
        return False
    if arr.ndim != 3:
        raise DataError(f"{path}: expected rank-1 embedding or rank-3 image, got rank {arr.ndim}")
    if model is None:
        raise DataError(f"{path} holds an image; pass --checkpoint to embed it")
    check_image(path, arr, model.cfg, modality)
    return True


def _load_embeddings(directory, modality: str, model, strategy: str):
    root = Path(directory)
    files = sorted(root.glob("*.tnsr"))
    if not files:
        raise DataError(f"no *.tnsr files under {root}")
    rows = []
    for lo in range(0, len(files), _EMBED_CHUNK):
        chunk = [load_tnsr(path) for path in files[lo:lo + _EMBED_CHUNK]]
        images = [i for i, arr in enumerate(chunk) if _is_image(files[lo + i], arr, model, modality)]
        if images:
            cfg = model.cfg
            full = MaskPair(masked=np.array([], dtype=np.int64),
                            unmasked=np.arange(cfg.num_patches), ratio=cfg.mask_ratio, seed=0)
            seq = encode(model, np.stack([chunk[i] for i in images]), full, modality)
            try:
                vectors = build_embedding(seq, strategy, projection=model.proj)
            except DimensionError as exc:  # name the first image that fails on its own
                for i, one in zip(images, seq.data):
                    try:
                        build_embedding(one, strategy, projection=model.proj)
                    except DimensionError:
                        raise DataError(f"{files[lo + i]}: {exc}") from exc
                raise
            for i, vec in zip(images, vectors):
                chunk[i] = vec
            del seq  # one chunk's activations at a time
        rows += chunk
    width = {r.shape[0] for r in rows}
    if len(width) != 1:
        raise DataError(f"{root}: embeddings have mixed widths {sorted(width)}")
    return [path.stem for path in files], np.stack(rows)


def _cmd_eval_retrieval(args) -> int:
    _check_outputs(("--out", args.out))
    if args.k < 1:
        raise ParameterError(f"--k must be >= 1, got {args.k}")
    q_name, g_name = args.task.split(">")
    model = load_checkpoint(args.checkpoint) if args.checkpoint else None
    if model is not None:
        for p in model.params.values():
            p.requires_grad = False  # nothing here trains: encode records no tape
    labels = _load_labels(args.labels)
    q_ids, q_emb = _load_embeddings(args.queries, _TASK_MODALITY[q_name], model, args.strategy)
    g_ids, g_emb = _load_embeddings(args.gallery, _TASK_MODALITY[g_name], model, args.strategy)
    missing = [i for i in q_ids + g_ids if i not in labels]
    if missing:
        raise DataError(f"{args.labels}: no labels for ids: {', '.join(sorted(set(missing))[:5])}")
    ranked = retrieve(q_emb, g_emb, args.k, query_ids=q_ids, gallery_ids=g_ids)
    for qid, row in zip(q_ids, ranked):
        if not row:
            raise DataError(f"query {qid} has no gallery candidates left: "
                            f"every gallery item shares its id")
    query_labels = [labels[i] for i in q_ids]
    retrieved_labels = [[labels[g_ids[j]] for j in row] for row in ranked]
    f1 = dataset_retrieval_f1(query_labels, retrieved_labels, min(args.k, min(len(r) for r in ranked)))
    payload = {
        "task": f"{q_name}→{g_name}",
        "f1_percent": f1,
        "n_queries": len(q_ids),
        "k": args.k,
    }
    _write_json(payload, args.out, indent=None, echo=True)
    return 0


def _cmd_flops(args) -> int:
    _check_outputs(("--out", args.out))
    prof = profile(_run_config(args).model)
    _write_json(asdict(prof), args.out, echo=True)
    print()
    print(f"{'component':<16}{'params':>14}{'flops':>16}")
    for row in prof.breakdown:
        print(f"{row['component']:<16}{row['params']:>14}{row['flops']:>16}")
    print(f"{'total':<16}{prof.params:>14}{prof.flops:>16}")
    return 0


_COMMANDS = {
    "sample": _cmd_sample,
    "split-tiles": _cmd_split_tiles,
    "pretrain-toy": _cmd_pretrain,
    "grad-check": _cmd_grad_check,
    "eval-retrieval": _cmd_eval_retrieval,
    "flops": _cmd_flops,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv, argparse.Namespace(config=None))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.dump_config:
            _write_json(asdict(_run_config(args)), None, echo=True)
            return 0
        if not args.command:
            parser.print_usage(sys.stderr)
            return 1
        return _COMMANDS[args.command](args)
    except (CsmoeError, OSError) as exc:
        print(f"csmoe: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"csmoe: error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
