"""Run one fixed set of csmoe CLI commands against a git revision's src/ and
against the working tree's src/, and print every difference between them.

    python tools/same_bytes.py REV

REV's src/ is exported with ``git archive`` into a temporary directory. Both
trees run the same 19 commands, from the same generated inputs, each tree in
a fresh temporary directory, with ``OPENBLAS_NUM_THREADS=1`` and
``PYTHONDONTWRITEBYTECODE=1``:

- ``--dump-config`` and ``flops`` on two model configs;
- five ``pretrain-toy`` runs: one epoch and a resume in place on a 2 px
  config, and on a 16 px, patch-4, 2/3-channel config with ``--norm-pix``
  and a validation split, one epoch and two resumes;
- ``grad-check`` on both configs;
- ``eval-retrieval`` on embeddings, and on images with ``only_cls``,
  ``norm_proj_cls`` and ``avg_all`` (S1>S2) and ``only_cls`` (S2>S1);
- ``split-tiles`` twice, once with a NaN cell;
- ``sample`` on 4 strata, at target 20 without and 140 with ``--baseline``.

For each command it compares the exit code, stdout and stderr, with the run
directory's path replaced by ``<run>``, and every file the command wrote.
A differing JSON file is shown key by key, floats with their distance in
ulps; a differing block file (checkpoint or ``.opt``) shows its header keys
and whether the bytes after the header line are the same. Exits 1 if
anything differs, else 0. Writes nothing inside the repository.
"""

from __future__ import annotations

import difflib
import hashlib
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # no __pycache__ inside the repository
sys.path.insert(0, str(REPO / "benchmark"))
from bench_inputs import write_archive, write_grid, write_tnsr  # noqa: E402

TINY = {
    "model": {"patch_size": 1, "image_side": 2, "channels_x": 1, "channels_y": 1, "enc_dim": 4,
              "dec_dim": 4, "heads": 1, "dec_heads": 1, "enc_layers_modality": 1,
              "enc_layers_shared": 1, "dec_layers": 1, "num_slots": 2, "proj_dim": 4, "seed": 0},
    "trainer": {"epochs": 1, "batch_size": 2, "lr": 0.001, "val_fraction": 0.0},
}
PX16 = {
    "model": {"patch_size": 4, "image_side": 16, "channels_x": 2, "channels_y": 3, "enc_dim": 16,
              "dec_dim": 8, "heads": 2, "dec_heads": 2, "enc_layers_modality": 1,
              "enc_layers_shared": 1, "dec_layers": 1, "num_slots": 2, "proj_dim": 8, "seed": 1},
    "trainer": {"epochs": 1, "schedule_epochs": 3, "batch_size": 2, "lr": 0.001, "val_fraction": 0.34},
}

PX16_RUN = ["pretrain-toy", "--config", "px16.json", "--data-dir", "d16", "--norm-pix", "--seed", "1"]
COMMANDS = [
    ["--config", "tiny.json", "--dump-config"],
    ["flops", "--config", "tiny.json", "--out", "flops_tiny.json"],
    ["flops", "--config", "px16.json", "--out", "flops_px16.json"],
    ["pretrain-toy", "--config", "tiny.json", "--data-dir", "d_tiny", "--synthesize", "4",
     "--checkpoint", "t.ckpt", "--log", "t.jsonl", "--seed", "0"],
    ["pretrain-toy", "--config", "tiny.json", "--data-dir", "d_tiny", "--resume", "t.ckpt",
     "--epochs", "2", "--checkpoint", "t.ckpt", "--log", "t.jsonl", "--seed", "0"],
    PX16_RUN + ["--synthesize", "6", "--checkpoint", "a.ckpt", "--log", "a.jsonl"],
    PX16_RUN + ["--resume", "a.ckpt", "--epochs", "2", "--checkpoint", "b.ckpt", "--log", "b.jsonl"],
    PX16_RUN + ["--resume", "b.ckpt", "--epochs", "3", "--checkpoint", "b.ckpt", "--log", "b.jsonl"],
    ["grad-check", "--config", "tiny.json", "--out", "gc_tiny.json"],
    ["grad-check", "--config", "px16.json", "--max-checked", "256", "--out", "gc_px16.json"],
    ["eval-retrieval", "--queries", "emb_q", "--gallery", "emb_g", "--labels", "labels.csv",
     "--task", "S1>S1", "--k", "3", "--out", "er_emb.json"],
    *[["eval-retrieval", "--checkpoint", "b.ckpt", "--queries", "img_x", "--gallery", "img_y",
       "--labels", "labels.csv", "--task", "S1>S2", "--k", "3", "--strategy", strategy,
       "--out", f"er_{strategy}.json"] for strategy in ("only_cls", "norm_proj_cls", "avg_all")],
    ["eval-retrieval", "--checkpoint", "b.ckpt", "--queries", "img_y", "--gallery", "img_x",
     "--labels", "labels.csv", "--task", "S2>S1", "--k", "3", "--out", "er_s2s1.json"],
    ["split-tiles", "--input", "tiles", "--output", "patches", "--patch", "4"],
    ["split-tiles", "--input", "tiles_nan", "--output", "patches_nan", "--patch", "4"],
    ["sample", "--archive", "archive.csv", "--climate", "climate.grid", "--thematic", "thematic.grid",
     "--target", "20", "--iters", "40", "--seed", "1", "--out", "sel20.csv", "--report", "rep20.json"],
    ["sample", "--archive", "archive.csv", "--climate", "climate.grid", "--thematic", "thematic.grid",
     "--target", "140", "--iters", "40", "--seed", "2", "--baseline",
     "--out", "sel140.csv", "--report", "rep140.json"],
]


# ---------------------------------------------------------------------------
# Inputs, written with the benchmark's writers, which never import csmoe, so
# both trees read the same bytes
# ---------------------------------------------------------------------------


def make_inputs(root: Path):
    root.mkdir()
    rng = np.random.default_rng(2024)
    for name, cfg in (("tiny.json", TINY), ("px16.json", PX16)):
        (root / name).write_text(json.dumps(cfg))
    ids = [f"e{i}" for i in range(8)]
    for side, names in (("emb_q", ids[:4]), ("emb_g", ids)):
        (root / side).mkdir()
        for name in names:
            write_tnsr(root / side / f"{name}.tnsr", rng.standard_normal(6))
    images = [f"im{i}" for i in range(5)]
    for side, channels in (("img_x", 2), ("img_y", 3)):
        (root / side).mkdir()
        for name in images:
            write_tnsr(root / side / f"{name}.tnsr", rng.standard_normal((channels, 16, 16)))
    (root / "labels.csv").write_text("id,labels\n" + "".join(
        f"{name},{'ABC'[i % 3]};{'DE'[i % 2]}\n" for i, name in enumerate(ids + images)))
    for directory, nan in (("tiles", False), ("tiles_nan", True)):
        (root / directory).mkdir()
        for i in range(2):
            tile = rng.standard_normal((2, 10, 13))
            if nan and i == 1:
                tile[1, 5, 2] = np.nan
            write_tnsr(root / directory / f"tile{i}.tnsr", tile)
    # 4 climate columns of 40, 120, 180 and 260 entries; one thematic class
    rows = []
    for column, count in enumerate((40, 120, 180, 260)):
        for _ in range(count):
            lon, lat = 10.0 * column + rng.uniform(0.1, 9.9), rng.uniform(-39.9, 39.9)
            rows.append((f"t{len(rows):04d}", lon, lat, lon + 0.05, lat + 0.05))
    write_archive(root / "archive.csv", rows)
    grid = {"lat_max": 40.0, "lon_min": 0.0, "dlat": 80.0, "rows": 1, "nodata": 0}
    write_grid(root / "climate.grid", {**grid, "dlon": 10.0, "cols": 4}, np.array([[1, 2, 3, 4]]))
    write_grid(root / "thematic.grid", {**grid, "dlon": 40.0, "cols": 1}, np.array([[7]]))


# ---------------------------------------------------------------------------
# Running one tree
# ---------------------------------------------------------------------------


def snapshot(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_tree(src: Path, inputs: Path, run_dir: Path) -> list:
    """[(exit code, stdout, stderr, {written path: bytes})] of every command."""
    shutil.copytree(inputs, run_dir)
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    results, before = [], snapshot(run_dir)
    for argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "csmoe.cli", *argv], cwd=run_dir, env=env,
                              capture_output=True, text=True, timeout=600)
        after = snapshot(run_dir)
        written = {rel: (run_dir / rel).read_bytes() for rel, sha in after.items() if before.get(rel) != sha}
        results.append((proc.returncode, *(s.replace(str(run_dir), "<run>") for s in (proc.stdout, proc.stderr)),
                        written))
        before = after
    return results


# ---------------------------------------------------------------------------
# Differences
# ---------------------------------------------------------------------------


def ulps(a: float, b: float) -> int:
    """Representable doubles between ``a`` and ``b`` (finite, same sign)."""
    bits = [struct.unpack("<q", struct.pack("<d", abs(x)))[0] for x in (a, b)]
    return abs(bits[0] - bits[1])


def json_diff(a, b, where="") -> list:
    if isinstance(a, dict) and isinstance(b, dict):
        return [line for key in sorted(set(a) | set(b), key=str)
                for line in (json_diff(a[key], b[key], f"{where}.{key}") if key in a and key in b
                             else [f"{where}.{key}: only in {'REV' if key in a else 'the tree'}"])]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [line for i, (x, y) in enumerate(zip(a, b)) for line in json_diff(x, y, f"{where}[{i}]")]
    if a == b or (isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)):
        return []
    note = ""
    if (isinstance(a, float) and isinstance(b, float) and math.isfinite(a) and math.isfinite(b)
            and (a < 0) == (b < 0)):
        note = f" ({ulps(a, b)} ulp)"
    return [f"{where or '.'}: {a!r} -> {b!r}{note}"]


def file_diff(old: bytes, new: bytes) -> list:
    """JSON key by key, text line by line, a block file by header and body."""
    try:
        return json_diff(json.loads(old), json.loads(new))
    except (UnicodeDecodeError, ValueError):
        pass
    try:
        return list(difflib.unified_diff(old.decode().splitlines(), new.decode().splitlines(),
                                         "REV", "tree", lineterm="", n=0))[:40]
    except UnicodeDecodeError:
        pass
    head_old, _, body_old = old.partition(b"\n")
    head_new, _, body_new = new.partition(b"\n")
    try:
        lines = [f"header {line}" for line in json_diff(json.loads(head_old), json.loads(head_new))]
        return lines + [f"bytes after the header {'same' if body_old == body_new else 'differ'}"]
    except (UnicodeDecodeError, ValueError):
        return [f"binary, {len(old)} -> {len(new)} bytes"]


def differences(rev_results: list, tree_results: list) -> list:
    lines = []
    for argv, (code_a, out_a, err_a, files_a), (code_b, out_b, err_b, files_b) in zip(
            COMMANDS, rev_results, tree_results):
        found = [f"exit code {code_a} -> {code_b}"] if code_a != code_b else []
        for name, a, b in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
            if a != b:
                found += [f"{name}:"] + list(difflib.unified_diff(
                    a.splitlines(), b.splitlines(), "REV", "tree", lineterm="", n=0))[:40]
        for rel in sorted(set(files_a) | set(files_b)):
            if rel not in files_a or rel not in files_b:
                found.append(f"{rel}: written only by {'REV' if rel in files_a else 'the tree'}")
            elif files_a[rel] != files_b[rel]:
                sha = [hashlib.sha256(files[rel]).hexdigest()[:16] for files in (files_a, files_b)]
                found += [f"{rel}: sha256 {sha[0]} -> {sha[1]}"]
                found += [f"  {line}" for line in file_diff(files_a[rel], files_b[rel])]
        if found:
            lines += [f"csmoe {' '.join(argv)}"] + [f"  {line}" for line in found]
    return lines


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", argv[0], "src"],
                                 capture_output=True)
        if archive.returncode != 0:
            print(archive.stderr.decode(errors="replace"), end="", file=sys.stderr)
            return 2
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "rev")
        make_inputs(inputs := tmp / "inputs")
        rev = run_tree(tmp / "rev" / "src", inputs, tmp / "run_rev")
        tree = run_tree(REPO / "src", inputs, tmp / "run_tree")
    written = sum(len(files) for *_, files in tree)
    lines = differences(rev, tree)
    print("\n".join(lines) if lines else "no differences")
    print(f"{len(COMMANDS)} commands, {written} files written by the tree; "
          f"{sum(not line.startswith(' ') for line in lines)} commands differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
