"""The three workloads, their output checks and their metrics.

Each workload is a closed loop with one client: the next op starts when the
previous one has finished and been checked. Every csmoe function is looked
up on its module at call time, so the tracer's rebinding applies and a later
rename shows up as a failed op rather than an import error.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import importlib
import io
import json
import math
import resource
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import bench_inputs as inputs
import bench_oracle as oracle
from bench_stats import median, tail
from bench_trace import (END, FLOPS0, FLOPS1, LAYERS, NAME, OP, START, TAG, Tracer, enclosing, numerics_op_spec,
                         summarize)

REFERENCE_FILE = Path(__file__).resolve().parent / "reference_losses.json"


def _mod(name):
    return importlib.import_module(f"csmoe.{name}")


def perf():
    return time.perf_counter()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Trace specification: the public functions of every layer
# ---------------------------------------------------------------------------


def _arg(index, key):
    def get(args, kwargs):
        return args[index] if len(args) > index else kwargs.get(key)
    return get


def _size_of_first(args, kwargs):
    return len(args[0]) if args else len(next(iter(kwargs.values())))


def ga_spec(traces):
    """Spans that split GA time from the stratum distance matrix; each
    evolve_stratum call appends its best-fitness trace to ``traces``."""
    def keep_trace(result, args, kwargs):
        traces.append(list(result[2]) if isinstance(result, tuple) and len(result) > 2 else [])

    return [
        ("csmoe.sampler", "evolve_stratum", "span", {"tagger": _size_of_first, "on_return": keep_trace}),
        ("csmoe.sampler", "pairwise_haversine", "span",
         {"name": "sampler.distance_matrix", "tagger": _size_of_first}),
    ]


def full_spec(block_tags, traces):
    """Spans and counts at every layer boundary. ``block_tags`` maps the id of
    an encoder block's parameters to its component name."""
    block = _arg(1, "params")
    spans = [
        ("tokenizer", "patchify", {}),
        ("tokenizer", "sample_masks", {}),
        ("softmoe", "route", {}),
        ("softmoe", "moe_forward", {}),
        ("softmoe", "attention_forward", {}),
        ("softmoe", "block_forward", {"tagger": lambda a, k: block_tags.get(id(block(a, k)))}),
        ("softmoe", "plain_block_forward", {"name": "softmoe.decoder_block"}),
        ("model", "init_model", {}),
        ("model", "forward", {}),
        ("model", "encode", {"tagger": _arg(3, "modality")}),
        ("model", "decode", {"tagger": _arg(3, "target")}),
        ("model", "build_embedding", {}),
        ("model", "save_checkpoint", {}),
        ("model", "load_checkpoint", {}),
        ("losses", "loss_total", {}),
        ("losses", "loss_umr", {}),
        ("losses", "loss_cmr", {}),
        ("losses", "rec_loss", {}),
        ("losses", "loss_mi", {}),
        ("losses", "loss_rep", {}),
        ("losses", "loss_ent", {}),
        ("trainer", "train", {}),
        ("trainer", "AdamW.step", {"name": "trainer.adamw_step"}),
        ("trainer", "save_optimizer_state", {}),
        ("evaluation", "retrieve", {}),
        ("evaluation", "dataset_retrieval_f1", {"name": "evaluation.f1"}),
        ("sampler", "load_archive", {}),
        ("sampler", "load_grid", {}),
        ("sampler", "generate_descriptors", {"name": "sampler.descriptors"}),
        ("sampler", "stratify", {}),
        ("sampler", "sample_archive", {}),
        ("sampler", "selection_fitness", {"name": "sampler.fitness"}),
        ("sampler", "repair", {}),
        ("sampler", "write_selection", {}),
        ("cli", "main", {}),
    ]
    return (numerics_op_spec()
            + [(f"csmoe.{mod}", attr, "span", opts) for mod, attr, opts in spans]
            + ga_spec(traces))


def tag_blocks(model, tags):
    """Map each encoder block of ``model`` to its forward_flops component."""
    tags.clear()
    for modality, blocks in getattr(model, "enc_modality", {}).items():
        for blk in blocks:
            tags[id(blk)] = f"enc_{modality}"
    for blk in getattr(model, "enc_shared", ()):
        tags[id(blk)] = "enc_shared"


# ---------------------------------------------------------------------------
# Shared workload machinery
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    setup_repeats = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.checks = {}
        self.setup_samples = []
        self.warmup_s = 0.0
        self.block_tags = {}
        self.detail = {}

    def fail(self, message: str):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def op(self, what: str, fn):
        """Run one op; ``fn`` returns (seconds, problem or None). Returns the
        seconds, or None when the op raised."""
        self.attempted += 1
        try:
            seconds, problem = fn()
        except Exception as exc:  # a failed op is counted, the loop goes on
            self.fail(f"{what}: {type(exc).__name__}: {exc}")
            return None
        if problem:
            self.fail(f"{what}: {problem}")
        return seconds

    def check(self, name: str, fn):
        """A whole-run output check; ``fn`` returns (ok, message)."""
        self.attempted += 1
        try:
            ok, message = fn()
        except Exception as exc:
            ok, message = False, f"{type(exc).__name__}: {exc}"
        self.checks[name] = "ok" if ok else f"failed: {message}"
        if not ok:
            self.fail(f"{name}: {message}")

    # hooks
    def make_inputs(self):
        pass

    def release(self):
        """Drop what the previous setup built, before the next is timed."""

    def setup_once(self):
        pass

    def warm_up(self):
        pass

    def drop_setup_files(self):
        """Delete input files that only set-up reads, once it is done."""

    def window(self, seconds: float, tracer: Tracer) -> dict:
        raise NotImplementedError

    def final_checks(self):
        pass

    def light_spec(self, traces):
        return []


class StepLog:
    """The ``log_fh`` given to ``trainer.train``: timestamps each complete
    JSON line as it is written and advances the tracer's op index."""

    def __init__(self, tracer: Tracer = None):
        self.times, self.lines, self.tracer = [], [], tracer
        self._buf = ""

    def write(self, text):
        self._buf += text
        while "\n" in self._buf:
            line, self._buf = self._buf.split("\n", 1)
            if line.strip():
                self.times.append(perf())
                self.lines.append(line)
                if self.tracer is not None:
                    self.tracer.op += 1
        return len(text)

    def flush(self):
        pass

    def step_records(self):
        """(timestamp, record) for each logged optimizer step."""
        out = []
        for t, line in zip(self.times, self.lines):
            rec = json.loads(line)
            if isinstance(rec, dict) and "step" in rec:
                out.append((t, rec))
        return out


# ---------------------------------------------------------------------------
# pretrain_small
# ---------------------------------------------------------------------------

SMALL = dict(patch_size=8, image_side=32, channels_x=2, channels_y=10, enc_dim=64, dec_dim=32,
             enc_layers_modality=2, enc_layers_shared=1, dec_layers=2, num_slots=4, heads=4,
             dec_heads=4, proj_dim=32)
PAIRS, BATCH, EPOCHS, LR = 64, 8, 2, 5e-4
REFERENCE_SEED, REFERENCE_PAIRS = 1009, 16


def small_pairs(seed: int, count: int):
    return inputs.paired_images(seed, count, SMALL["image_side"], SMALL["channels_x"], SMALL["channels_y"])


def trainer_config(epochs: int = EPOCHS):
    return _mod("trainer").TrainerConfig(epochs=epochs, batch_size=BATCH, lr=LR, val_fraction=0.0)


def reference_trajectory():
    """Loss records of a short fixed-seed run; compared with the recorded
    reference in ``reference_losses.json``."""
    M, T = _mod("model"), _mod("trainer")
    model = M.init_model(M.CsmoeConfig(**SMALL, seed=REFERENCE_SEED))
    log = StepLog()
    T.train(model, small_pairs(REFERENCE_SEED, REFERENCE_PAIRS), trainer_config(), REFERENCE_SEED, log_fh=log)
    return [rec for _, rec in log.step_records()]


class PretrainSmall(Workload):
    name = "pretrain_small"

    def make_inputs(self):
        self.cfg = _mod("model").CsmoeConfig(**SMALL, seed=self.seed)
        self.pairs = small_pairs(self.seed, PAIRS)
        self.tcfg = trainer_config()
        self.steps_per_run = EPOCHS * (PAIRS // BATCH)
        self.ckpt = str(self.workdir / "small.ckpt")

    def setup_once(self):
        self.model = _mod("model").init_model(self.cfg)

    def warm_up(self):
        T = _mod("trainer")
        def step():
            start = perf()
            T.train(self.model, self.pairs[:BATCH], trainer_config(1), self.seed)
            return perf() - start, None
        self.op("warm-up step", step)

    def window(self, seconds, tracer):
        M, T = _mod("model"), _mod("trainer")
        deadline = perf() + seconds
        step_s, run_rates = [], []
        while perf() < deadline:
            model = M.init_model(self.cfg)
            tag_blocks(model, self.block_tags)
            log = StepLog(tracer)
            start = perf()
            error = None
            try:
                optimizer, _ = T.train(model, self.pairs, self.tcfg, self.seed, log_fh=log)
                M.save_checkpoint(model, self.ckpt)
                T.save_optimizer_state(self.ckpt + ".opt", optimizer, self.tcfg.epochs, model)
            except Exception as exc:
                error = f"training run: {type(exc).__name__}: {exc}"
            end = perf()
            prev = start
            steps = log.step_records()
            for t, rec in steps:
                self.attempted += 1
                step_s.append(t - prev)
                prev = t
                bad = sorted(k for k, v in rec.items()
                             if isinstance(v, (int, float)) and not math.isfinite(v))
                if bad:
                    self.fail(f"step {rec.get('step')}: non-finite {bad}")
            if error or len(steps) != self.steps_per_run:
                self.attempted += 1
                self.fail(error or f"{len(steps)} steps logged, expected {self.steps_per_run}")
                break
            run_rates.append(BATCH * len(steps) / (end - start))
            self.model = model
        return {"op_s": step_s, "ops": len(step_s), "steps": len(step_s),
                "throughput": median(run_rates) if run_rates else 0.0}

    def final_checks(self):
        M, E, N, T = _mod("model"), _mod("evaluation"), _mod("numerics"), _mod("trainer")
        counter = getattr(N, "FlopCounter", None)
        if counter is None:
            self.checks["forward_flops_exact"] = "absent: numerics.FlopCounter"
        else:
            def flops():
                model = M.init_model(self.cfg)
                _, x, y = self.pairs[0]
                with counter() as fc:
                    M.forward(model, x, y, seed=self.seed)
                total, breakdown = E.forward_flops(self.cfg)
                self.detail["forward_flops_per_sample"] = fc.total
                self.detail["forward_flops_breakdown"] = dict(breakdown)
                return fc.total == total, f"tape count {fc.total} != analytic {total}"
            self.check("forward_flops_exact", flops)

        def trajectory():
            ref = json.loads(REFERENCE_FILE.read_text())
            got = reference_trajectory()
            if [r.get("step") for r in got] != [r["step"] for r in ref["steps"]]:
                return False, f"logged steps {[r.get('step') for r in got]} differ from the reference"
            worst = max(abs(g[k] - want) / max(abs(want), 1e-12)
                        for g, r in zip(got, ref["steps"]) for k, want in r.items() if k != "step")
            self.detail["loss_trajectory_max_rel_err"] = worst
            return worst <= ref["rtol"], f"max relative error {worst:.3e} > {ref['rtol']}"
        self.check("loss_trajectory_matches_reference", trajectory)

        def roundtrip():
            loaded = M.load_checkpoint(self.ckpt)
            same = loaded.params.keys() == self.model.params.keys() and all(
                np.array_equal(loaded.params[k].data, p.data) for k, p in self.model.params.items())
            opt = T.AdamW(loaded.params, lr=LR)
            epoch = T.load_optimizer_state(self.ckpt + ".opt", opt, loaded)
            ok = same and epoch == EPOCHS and opt.step_count == self.steps_per_run
            return ok, f"params equal {same}, epoch {epoch}, step {opt.step_count}"
        self.check("checkpoint_roundtrip", roundtrip)

    def named_metrics(self, e2e, win):
        return {"train_samples_per_s": (e2e["throughput_per_s"], "samples/s"),
                "train_step_p50_ms": (e2e["op_p50_ms"], "ms"),
                "train_step_tail_ms": (e2e["op_tail_ms"], "ms")}


# ---------------------------------------------------------------------------
# eval_retrieval
# ---------------------------------------------------------------------------

GALLERY, QUERIES, CHUNK, TOP_K, IMAGES = 10_000, 512, 32, 10, 8
#: the paper's image geometry, depth and routing (224 px, patch 32, 4+2
#: encoder blocks, 8 slots and experts, head dim 64) at half its width:
#: 44.1 M parameters, so the float64 checkpoint each run writes and loads is
#: 352 MB rather than the full config's 1.1 GB
EVAL_MODEL = dict(enc_dim=384, heads=6)
#: share of the window spent embedding. The collector pauses every 22nd
#: embed for about one op's time; about 480 embeds in a 30 s run put the tail
#: percentile (p97-p98) inside those pauses instead of on their edge.
EMBED_SHARE = 0.75


class EvalRetrieval(Workload):
    name = "eval_retrieval"

    def make_inputs(self):
        M, Tk = _mod("model"), _mod("tokenizer")
        self.cfg = M.CsmoeConfig(**EVAL_MODEL, seed=self.seed)
        self.ckpt = str(self.workdir / "eval.ckpt")
        model = M.init_model(self.cfg)
        M.save_checkpoint(model, self.ckpt)
        del model
        gallery, self.gallery_ids, self.queries, self.query_ids, self.labels = inputs.retrieval_set(
            self.seed, GALLERY, self.cfg.enc_dim, QUERIES)
        self.gallery_path = self.workdir / "gallery.tnsr"
        inputs.write_tnsr(self.gallery_path, gallery)
        self.expected_gallery = gallery
        self.images = inputs.query_images(self.seed, IMAGES, self.cfg.channels_x, self.cfg.image_side)
        self.full_mask = Tk.MaskPair(masked=np.array([], dtype=np.int64),
                                     unmasked=np.arange(self.cfg.num_patches),
                                     ratio=self.cfg.mask_ratio, seed=0)
        self.model = self.gallery = None
        self.oracle = {}  # chunk offset -> (ranking, F1)

    def release(self):
        self.model = self.gallery = None

    def setup_once(self):
        self.model = _mod("model").load_checkpoint(self.ckpt)
        self.gallery = _mod("numerics").load_tnsr(self.gallery_path)
        tag_blocks(self.model, self.block_tags)

    def drop_setup_files(self):
        Path(self.ckpt).unlink()
        self.gallery_path.unlink()

    def warm_up(self):
        self.op("warm-up embed", lambda: self.embed(0))
        self.op("warm-up retrieve", lambda: self.rank(0))
        self.check("gallery_loaded_exactly",
                   lambda: (np.array_equal(self.gallery, self.expected_gallery), "load_tnsr differs"))

    def embed(self, i):
        M = _mod("model")
        image = self.images[i % IMAGES]
        start = perf()
        seq = M.encode(self.model, image, self.full_mask, "x")
        emb = M.build_embedding(seq, "only_cls")
        seconds = perf() - start
        emb = np.asarray(emb)
        if emb.shape != (self.cfg.enc_dim,) or not np.isfinite(emb).all():
            return seconds, f"embedding shape {emb.shape} or non-finite values"
        return seconds, None

    def rank(self, j):
        E = _mod("evaluation")
        lo = (j * CHUNK) % QUERIES
        queries, ids = self.queries[lo:lo + CHUNK], self.query_ids[lo:lo + CHUNK]
        query_labels = [self.labels[i] for i in ids]
        start = perf()
        ranked = E.retrieve(queries, self.gallery, TOP_K, query_ids=ids, gallery_ids=self.gallery_ids)
        retrieved = [[self.labels[self.gallery_ids[g]] for g in row] for row in ranked]
        f1 = E.dataset_retrieval_f1(query_labels, retrieved, TOP_K)
        seconds = perf() - start
        if lo not in self.oracle:  # the chunks repeat; each oracle answer is computed once
            want = oracle.retrieve(queries, self.gallery, TOP_K, ids, self.gallery_ids)
            self.oracle[lo] = want, oracle.retrieval_f1_percent(
                query_labels, [[self.labels[self.gallery_ids[g]] for g in row] for row in want])
        want, want_f1 = self.oracle[lo]
        if [[int(g) for g in row] for row in ranked] != want:
            return seconds, "ranking differs from the brute-force oracle"
        if not math.isclose(f1, want_f1, rel_tol=1e-12, abs_tol=1e-12):
            return seconds, f"F1 {f1!r} != oracle {want_f1!r}"
        return seconds, None

    def window(self, seconds, tracer):
        # The two kinds of op are interleaved, so that each median spans the
        # whole window; the next op is of the kind furthest below its share.
        embed_s, rank_s = [], []
        spent = {"embed": 0.0, "retrieve": 0.0}
        deadline = perf() + seconds
        while perf() < deadline:
            embedding = spent["embed"] <= EMBED_SHARE * (spent["embed"] + spent["retrieve"])
            phase, fn, out = ("embed", self.embed, embed_s) if embedding else ("retrieve", self.rank, rank_s)
            tracer.op += 1
            start = perf()
            dt = self.op(f"{phase} {len(out)}", lambda: fn(len(out)))
            spent[phase] += perf() - start
            if dt is not None:
                out.append(dt)
        queries = CHUNK * len(rank_s)
        self.detail["retrieve_ms"] = [round(1000 * t, 3) for t in rank_s]
        return {"op_s": embed_s, "ops": len(embed_s) + len(rank_s), "images": len(embed_s),
                "queries": queries,
                "embed_images_per_s": len(embed_s) / sum(embed_s) if embed_s else 0.0,
                "throughput": CHUNK / median(rank_s) if rank_s else 0.0}

    def named_metrics(self, e2e, win):
        return {"embed_images_per_s": (win["embed_images_per_s"], "images/s"),
                "embed_p50_ms": (e2e["op_p50_ms"], "ms"),
                "retrieval_queries_per_s": (e2e["throughput_per_s"], "queries/s")}


# ---------------------------------------------------------------------------
# sample_archive
# ---------------------------------------------------------------------------

#: stratum sizes; two are at or below the target and are kept whole
STRATA = (40, 100, 250, 600, 1500, 6000)
UNCOVERED, TARGET, GENERATIONS = 150, 100, 60


class SampleArchive(Workload):
    name = "sample_archive"
    setup_repeats = 0

    def make_inputs(self):
        rows, self.truth = inputs.archive(self.seed, STRATA, UNCOVERED)
        d = self.workdir
        inputs.write_archive(d / "archive.csv", rows)
        (climate_header, climate), (thematic_header, thematic) = inputs.band_rasters()
        inputs.write_grid(d / "climate.grid", climate_header, climate)
        inputs.write_grid(d / "thematic.grid", thematic_header, thematic)
        config = {"ga": {"target_size": TARGET, "generations": GENERATIONS, "stagnation_limit": 0}}
        (d / "run.json").write_text(json.dumps(config))
        self.out, self.report = d / "selection.csv", d / "report.json"
        self.argv = ["sample", "--archive", str(d / "archive.csv"), "--climate", str(d / "climate.grid"),
                     "--thematic", str(d / "thematic.grid"), "--out", str(self.out),
                     "--report", str(self.report), "--config", str(d / "run.json"),
                     "--seed", str(self.seed), "--baseline"]
        self.stratum_sizes = Counter(t[:2] for t in self.truth.values() if t is not None)
        self.first_digest = None

    def light_spec(self, traces):
        return ga_spec(traces)

    def sample(self):
        cli = _mod("cli")
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf()
            code = cli.main(list(self.argv))
            seconds = perf() - start
        if code != 0:
            return seconds, f"exit code {code}"
        return seconds, self.check_outputs()

    def check_outputs(self):
        """Verify the first good outputs in full; later ops must match them byte for byte."""
        selection, report_bytes = self.out.read_bytes(), self.report.read_bytes()
        digest = hashlib.sha256(selection + b"\0" + report_bytes).hexdigest()
        if self.first_digest is not None:
            return None if digest == self.first_digest else "outputs differ from the first op's"
        problem = self.verify(selection, json.loads(report_bytes))
        if problem is None:
            self.first_digest = digest
        return problem

    def verify(self, selection: bytes, report: dict):
        rows = list(csv.reader(io.StringIO(selection.decode("utf-8"))))
        if rows[0][:3] != ["id", "u", "v"]:
            return f"selection header {rows[0]}"
        body = rows[1:]
        ids = [r[0] for r in body]
        if len(set(ids)) != len(ids):
            return "duplicate ids in the selection"
        chosen = defaultdict(list)
        for r in body:
            truth = self.truth.get(r[0])
            if truth is None or (int(r[1]), int(r[2])) != truth[:2]:
                return f"id {r[0]} does not belong to stratum ({r[1]}, {r[2]})"
            chosen[truth[:2]].append(truth)
        lower, upper = math.ceil(0.9 * TARGET), math.floor(1.1 * TARGET)
        for key, size in self.stratum_sizes.items():
            n = len(chosen.get(key, ()))
            if (size > TARGET and not lower <= n <= upper) or (size <= TARGET and n != size):
                return f"stratum {key} of {size} entries selected {n}"
        if len(body) != report["total_selected"]:
            return f"{len(body)} rows but total_selected {report['total_selected']}"
        if len(report["strata"]) != len(self.stratum_sizes):
            return f"{len(report['strata'])} strata reported, {len(self.stratum_sizes)} expected"
        for s in report["strata"]:
            if s["stratum_size"] <= TARGET:
                continue
            pts = chosen[(s["climate"], s["thematic"])]
            km = oracle.mean_pairwise_km([p[2] for p in pts], [p[3] for p in pts])
            if not math.isclose(km, s["mean_pairwise_km"], rel_tol=1e-9):
                return f"stratum mean pairwise km {s['mean_pairwise_km']} != recomputed {km}"
            if km < s["baseline_mean_pairwise_km"]:
                return f"selection {km:.1f} km below random baseline {s['baseline_mean_pairwise_km']:.1f} km"
        return None

    def window(self, seconds, tracer):
        deadline = perf() + seconds
        op_s = []
        while perf() < deadline:
            tracer.op += 1
            dt = self.op(f"sampling {len(op_s)}", self.sample)
            if dt is not None:
                op_s.append(dt)
        ga_ns, generations = Counter(), Counter()
        spans = tracer.spans
        evolves = [i for i, r in enumerate(spans) if r[NAME] == "sampler.evolve_stratum"]
        for i, trace in zip(evolves, tracer.traces):
            if spans[i][TAG] > TARGET:
                ga_ns[spans[i][OP]] += spans[i][END] - spans[i][START]
                generations[spans[i][OP]] += len(trace)
        for i, r in enumerate(spans):
            outer = enclosing(spans, i, "sampler.evolve_stratum") if r[NAME] == "sampler.distance_matrix" else -1
            if outer >= 0 and spans[outer][TAG] == r[TAG] > TARGET:
                ga_ns[r[OP]] -= r[END] - r[START]
        rates = [generations[op] / (ga_ns[op] / 1e9) for op in ga_ns if ga_ns[op] > 0]
        if not rates:  # evolve_stratum is gone: fall back to whole sampling time
            evolved = sum(1 for size in self.stratum_sizes.values() if size > TARGET)
            rates = [GENERATIONS * evolved / t for t in op_s]
        self.detail["ga_time_source"] = "evolve_stratum" if ga_ns else "whole sampling"
        return {"op_s": op_s, "ops": len(op_s), "throughput": median(rates) if rates else 0.0}

    def named_metrics(self, e2e, win):
        return {"sample_s": (e2e["op_p50_ms"] / 1000.0, "s"),
                "ga_ms_per_generation": (1000.0 / e2e["throughput_per_s"] if e2e["throughput_per_s"] else 0.0,
                                         "ms")}


WORKLOADS = {w.name: w for w in (PretrainSmall, EvalRetrieval, SampleArchive)}


# ---------------------------------------------------------------------------
# Orchestration and metrics
# ---------------------------------------------------------------------------


class GcClock:
    """A ``gc.callbacks`` hook that sums collector pauses."""

    def __init__(self):
        self.seconds = 0.0
        self.full_collections = 0
        self._start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = perf()
        else:
            self.seconds += perf() - self._start
            self.full_collections += info["generation"] == 2


def _measure(w: Workload, seconds: float, spec_fn, count_flops: bool):
    """One measuring window with the given instrumentation installed."""
    tracer = Tracer()
    tracer.install(spec_fn(tracer.traces))
    counter = getattr(_mod("numerics"), "FlopCounter", None) if count_flops else None
    clock = GcClock()
    gc.callbacks.append(clock)
    try:
        with (counter() if counter else contextlib.nullcontext()) as fc:
            tracer.flop_counter = fc
            win = w.window(seconds, tracer)
    finally:
        gc.callbacks.remove(clock)
        tracer.uninstall()
    win["flops"] = fc.total if fc is not None else 0
    win["gc"] = clock
    return win, tracer


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path, import_s: float):
    """Run one workload; returns (workload, end-to-end metrics, per-layer
    metrics or None, the traced window's tracer or None)."""
    w = WORKLOADS[name](seed, workdir)
    w.make_inputs()
    setup_tracer = Tracer()
    if trace:
        setup_tracer.install(full_spec(w.block_tags, setup_tracer.traces))
    try:
        def setup():
            start = perf()
            w.setup_once()
            return perf() - start, None

        for _ in range(w.setup_repeats):
            w.release()
            gc.collect()
            took = w.op("setup", setup)
            if took is None:
                break
            w.setup_samples.append(took)
    finally:
        setup_tracer.uninstall()
    start = perf()
    w.warm_up()
    w.warmup_s = perf() - start
    w.drop_setup_files()

    base, _ = _measure(w, seconds / 2 if trace else seconds, w.light_spec, False)
    e2e = end_to_end(w, base, import_s)
    layers = tracer = None
    if trace:
        win, tracer = _measure(w, seconds / 2, lambda traces: full_spec(w.block_tags, traces), True)
    w.final_checks()
    if trace:
        layers = layer_metrics(w, win, tracer, setup_tracer, base)
        w.detail["absent_functions"] = sorted(set(tracer.absent))
    w.detail["named_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in w.named_metrics(e2e, base).items()}
    w.detail["failed_ratio"] = w.failed / w.attempted if w.attempted else 1.0
    return w, e2e, layers, tracer


END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "throughput_per_s": "1/s"}


def end_to_end(w: Workload, win: dict, import_s: float) -> dict:
    op_s = win["op_s"] or [0.0]
    tail_s, pct, count = tail(op_s)
    w.detail.update(op_ms=[round(1000 * t, 3) for t in win["op_s"]],
                    tail_percentile=pct, tail_count=count, ops_measured=len(win["op_s"]),
                    import_s=import_s, setup_samples_s=w.setup_samples, warmup_s=w.warmup_s)
    setup = import_s + (median(w.setup_samples) if w.setup_samples else 0.0) + w.warmup_s
    return {"setup_s": setup, "peak_rss_mb": peak_rss_mb(), "op_p50_ms": 1000.0 * median(op_s),
            "op_tail_ms": 1000.0 * tail_s, "throughput_per_s": win["throughput"]}


def component_times(spans):
    """Per forward_flops component: (ns, flops) of the encode/decode spans."""
    ns, flops = Counter(), Counter()
    for i, r in enumerate(spans):
        dur, fl = r[END] - r[START], r[FLOPS1] - r[FLOPS0]
        if r[NAME] == "model.encode" and r[TAG]:
            key = f"embed_{r[TAG]}"
        elif r[NAME] == "model.decode" and r[TAG]:
            key = f"dec_{r[TAG]}"
        elif r[NAME] == "softmoe.block_forward" and r[TAG]:
            key = r[TAG]
            outer = enclosing(spans, i, "model.encode")
            if outer >= 0:  # the embed part of an encode is what its blocks leave
                ns[f"embed_{spans[outer][TAG]}"] -= dur
                flops[f"embed_{spans[outer][TAG]}"] -= fl
        else:
            continue
        ns[key] += dur
        flops[key] += fl
    return ns, flops


def layer_metrics(w: Workload, win: dict, tracer: Tracer, setup_tracer: Tracer, base: dict) -> dict:
    by_name, by_layer = summarize(tracer.spans)
    setup_names, _ = summarize(setup_tracer.spans)
    counts = tracer.counts
    ops = win["ops"] or 1

    def incl(name):
        return by_name.get(name, {}).get("incl_ns", 0) / 1e6

    def own(name):
        return by_name.get(name, {}).get("self_ns", 0) / 1e6

    def per_call(name, table):
        entry = table.get(name)
        return entry["incl_ns"] / 1e6 / entry["calls"] if entry else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    steps, images = win.get("steps", 0), win.get("images", 0)
    flops_per_op = win["flops"] / (steps or images) if (steps or images) else 0
    base_p50 = median(base["op_s"]) if base["op_s"] else 0.0
    traced_p50 = median(win["op_s"]) if win["op_s"] else 0.0

    put("numerics.backward_ms", incl("numerics.backward") / ops, "ms")
    put("numerics.op_calls_per_step", counts["numerics.op_calls"] / steps if steps else 0, "count")
    put("numerics.op_calls_per_image", counts["numerics.op_calls"] / images if images else 0, "count")
    put("numerics.matmul_calls", counts["numerics.matmul"] / ops, "count")
    put("numerics.matmul_ms", incl("numerics.matmul") / ops, "ms")
    put("numerics.forward_flops_per_sample",
        w.detail.get("forward_flops_per_sample", win["flops"] / images if images else 0), "count")
    put("numerics.achieved_gflops", flops_per_op / base_p50 / 1e9 if base_p50 else 0.0, "GFLOP/s")
    # collector pauses, from the untraced half: span records would shift them
    base_ops = base["ops"] or 1
    put("numerics.gc_ms", 1000 * base["gc"].seconds / base_ops, "ms")
    put("numerics.gc_full_collections", base["gc"].full_collections / base_ops, "count")
    put("tokenizer.patchify_ms", incl("tokenizer.patchify") / ops, "ms")
    put("tokenizer.sample_masks_ms", incl("tokenizer.sample_masks") / ops, "ms")
    for short, full in (("attention", "attention_forward"), ("moe", "moe_forward"), ("route", "route"),
                        ("decoder_block", "decoder_block")):
        put(f"softmoe.{short}_ms", incl(f"softmoe.{full}") / ops, "ms")
    put("softmoe.attention_calls", counts["softmoe.attention_forward"] / ops, "count")
    put("softmoe.moe_calls", counts["softmoe.moe_forward"] / ops, "count")
    put("model.encode_ms", own("model.encode") / ops, "ms")
    put("model.decode_ms", own("model.decode") / ops, "ms")
    put("model.load_checkpoint_ms", per_call("model.load_checkpoint", setup_names), "ms")
    put("model.save_checkpoint_ms", per_call("model.save_checkpoint", by_name), "ms")
    put("losses.loss_total_ms", own("losses.loss_total") / ops, "ms")
    for term in ("rec_loss", "loss_mi", "loss_ent"):
        put(f"losses.{term}_ms", incl(f"losses.{term}") / ops, "ms")
    put("trainer.adamw_step_ms", incl("trainer.adamw_step") / ops, "ms")
    put("trainer.train_self_ms", own("trainer.train") / ops, "ms")
    put("trainer.save_optimizer_state_ms", per_call("trainer.save_optimizer_state", by_name), "ms")
    queries = win.get("queries", 0)
    put("evaluation.retrieve_ms_per_query", incl("evaluation.retrieve") / queries if queries else 0.0, "ms")
    put("evaluation.f1_ms", per_call("evaluation.f1", by_name), "ms")
    for short in ("load_archive", "load_grid", "descriptors", "write_selection", "distance_matrix"):
        put(f"sampler.{short}_ms", incl(f"sampler.{short}") / ops, "ms")
    matrix_bytes = sum(8 * r[TAG] ** 2 for r in tracer.spans if r[NAME] == "sampler.distance_matrix")
    put("sampler.distance_matrix_bytes", matrix_bytes / ops, "bytes")
    put("sampler.fitness_calls", counts["sampler.fitness"] / ops, "count")
    put("sampler.fitness_ms", incl("sampler.fitness") / ops, "ms")
    put("sampler.repair_ms", incl("sampler.repair") / ops, "ms")
    generations = sum(len(t) for t in tracer.traces)
    improving = sum(b > a for t in tracer.traces for a, b in zip(t, t[1:]))
    put("sampler.improving_generation_ratio", improving / generations if generations else 0.0, "ratio")
    put("cli.self_ms", own("cli.main") / ops, "ms")
    for layer in LAYERS:
        put(f"{layer}.self_ms", by_layer.get(layer, 0) / 1e6 / ops, "ms")

    ns, flops = component_times(tracer.spans)
    groups = {"embed": ("embed_x", "embed_y"), "enc_modality": ("enc_x", "enc_y"),
              "enc_shared": ("enc_shared",), "dec": ("dec_x", "dec_y")}
    for group, keys in groups.items():
        t = sum(ns[k] for k in keys)
        put(f"model.gflops_{group}", sum(flops[k] for k in keys) / t if t > 0 else 0.0, "GFLOP/s")
    w.detail["components"] = {k: {"ms": ns[k] / 1e6, "flops": flops[k],
                                  "gflops": flops[k] / ns[k] if ns[k] > 0 else 0.0} for k in sorted(ns)}
    analytic = w.detail.get("forward_flops_breakdown")
    if analytic and steps:
        forwards = steps * BATCH
        w.detail["component_flops_match_analytic"] = all(
            flops[k] == forwards * analytic.get(k, -1) for k in ns)
    put("trace.overhead_pct", 100.0 * (traced_p50 / base_p50 - 1.0) if base_p50 else 0.0, "%")
    w.detail["trace_ops"] = {"untraced_p50_ms": 1000 * base_p50, "traced_p50_ms": 1000 * traced_p50}
    return m

