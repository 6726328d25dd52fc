import argparse
import contextlib
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import types
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import csmoe.cli as cli_module
import csmoe.sampler as sampler_module
from csmoe.cli import _SECTIONS, _build_parser, _load_embeddings, _run_config, main
from csmoe.fileio import load_tnsr, read_tnsr, save_tnsr, write_tnsr
from csmoe.model import build_embedding, encode, init_model, load_checkpoint, save_checkpoint
from csmoe.sampler import GaConfig
from csmoe.tokenizer import MaskPair

from util import mini_config, write_sampling_inputs


def write_mini_run_config(path, **trainer_overrides):
    trainer = {"epochs": 8, "batch_size": 2, "lr": 1e-3, "warmup_frac": 0.05,
               "val_fraction": 0.05}
    trainer.update(trainer_overrides)
    cfg = {
        "model": {
            "patch_size": 8, "image_side": 16, "channels_x": 2, "channels_y": 3,
            "enc_dim": 16, "dec_dim": 8, "enc_layers_modality": 1,
            "enc_layers_shared": 1, "dec_layers": 1, "num_slots": 2,
            "heads": 2, "dec_heads": 2, "proj_dim": 8, "seed": 0,
        },
        "trainer": trainer,
    }
    Path(path).write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------------------
# global behavior
# ---------------------------------------------------------------------------


def test_dump_config_prints_defaults(capsys):
    assert main(["--dump-config"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["model"]["enc_dim"] == 768
    assert data["trainer"]["lr"] == 1e-4
    assert data["loss"]["tau_mi"] == 0.5
    assert data["ga"]["generations"] == 2500


def test_unknown_config_key_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"bogus_key": 1}}))
    assert main(["--dump-config", "--config", str(bad)]) == 2
    assert "bogus_key" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["flops"], ["--dump-config"]])
def test_config_may_come_before_or_after_the_subcommand(tmp_path, capsys, argv):
    cfg = str(write_mini_run_config(tmp_path / "cfg.json"))
    outputs = []
    for args in (["--config", cfg, *argv], [*argv, "--config", cfg]):
        assert main(args) == 0
        outputs.append(capsys.readouterr().out)
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert outputs[0] == outputs[1] != default


def test_usage_error_exits_one(capsys):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


def test_missing_data_exits_two(tmp_path, capsys):
    assert main(["flops", "--config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("section, values, key", [
    ("model", {"num_slots": 3, "num_experts": 2}, "num_experts"),  # experts share the slots evenly
    ("model", {"expert_hidden": -4}, "expert_hidden"),
    ("model", {"dec_hidden": -1}, "dec_hidden"),
    ("model", {"seed": -1}, "seed"),
    ("ga", {"seed": -1}, "seed"),
    ("trainer", {"val_fraction": 2.0}, "val_fraction"),
    ("trainer", {"epochs": -1}, "epochs"),
    ("trainer", {"lr": -1.0}, "lr"),
    ("trainer", {"lr": float("inf")}, "lr"),  # written as Infinity
    ("trainer", {"batch_size": 1}, "batch_size"),
    ("loss", {"tau_mi": 0.0}, "tau_mi"),
    ("loss", {"tau_mi": float("nan")}, "tau_mi"),  # written as NaN
])
@pytest.mark.parametrize("command", ["flops", "pretrain-toy", "grad-check"])
def test_run_config_the_model_cannot_use_exits_two_naming_the_key(tmp_path, capsys, command, section,
                                                                  values, key):
    cfg = write_mini_run_config(tmp_path / "cfg.json")
    run = json.loads(cfg.read_text())
    run.setdefault(section, {}).update(values)
    cfg.write_text(json.dumps(run))
    extra = {"pretrain-toy": ["--data-dir", str(tmp_path / "data"), "--synthesize", "4",
                              "--checkpoint", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "l.jsonl")]}
    assert main([command, "--config", str(cfg), *extra.get(command, [])]) == 2
    err = capsys.readouterr().err
    assert f"section '{section}'" in err and key in err, err
    assert not (tmp_path / "m.ckpt").exists()


#: (section, key) of every config field, and (section, None) for a section replaced whole
_CONFIG_KEYS = [(name, key) for name, cls in _SECTIONS.items() for key in [None, *(f.name for f in fields(cls))]]
#: JSON value texts: wrong types, out-of-range numbers (1e400 reads as inf), zeros, negatives, and
#: small counts, some of which no head count divides
_CONFIG_VALUES = (st.sampled_from(["1e400", "-1e400", "0", "0.0", "-1", "-0.5", "0.5", "1.5", "3", "5", "7",
                                   "true", "null", '"8"', "[]", "{}"])
                  | st.integers(-2, 1024).map(str))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(edits=st.lists(st.tuples(st.sampled_from(_CONFIG_KEYS), _CONFIG_VALUES), min_size=1, max_size=3))
def test_fuzzed_config_exits_0_or_2_naming_the_section_and_key(tmp_path_factory, edits):
    sections = {}
    for (name, key), value in edits:
        if key is None:
            sections[name] = value
        else:
            if not isinstance(sections.get(name), dict):
                sections[name] = {}
            sections[name][key] = value
    cfg = tmp_path_factory.getbasetemp() / "fuzz_config.json"
    cfg.write_text("{" + ", ".join(
        f'"{name}": ' + (body if isinstance(body, str) else
                         "{" + ", ".join(f'"{key}": {value}' for key, value in body.items()) + "}")
        for name, body in sections.items()) + "}")
    # the config loader alone: neither command builds a model
    results = [_exit_and_stderr(argv) for argv in (["--dump-config", "--config", str(cfg)],
                                                    ["flops", "--config", str(cfg)])]
    assert results[0] == results[1]
    code, err = results[0]
    if code == 0:
        return
    assert code == 2, err
    named = [name for name in sections if err.startswith(f"csmoe: error: {cfg}: section '{name}'")]
    assert named, err
    body = sections[named[0]]
    assert isinstance(body, str) or any(key in err for key in body), err


@pytest.mark.parametrize("command, flag, value, message", [
    pytest.param("pretrain-toy", "--seed", "-1", "seed must be >= 0, got -1", id="pretrain-toy"),
    pytest.param("grad-check", "--seed", "-1", "seed must be >= 0, got -1", id="grad-check"),
    pytest.param("sample", "--seed", "-1", "seed must be >= 0, got -1", id="sample"),
    pytest.param("sample", "--pop", "1", "population_size must be >= 2, got 1", id="sample-pop"),
    pytest.param("sample", "--rc", "0", "crossover_rate 0.0 outside (0, 1]", id="sample-rc"),
    pytest.param("sample", "--rc", "nan", "key 'crossover_rate' must be finite, got nan", id="sample-rc-nan"),
    pytest.param("pretrain-toy", "--epochs", "-1", "epochs must be >= 0, got -1", id="pretrain-toy-epochs"),
])
def test_negative_seed_exits_two(tmp_path, capsys, command, flag, value, message):
    # every config-backed flag meets its field's checks; the error names the flag and the key
    cfg = write_mini_run_config(tmp_path / "cfg.json")
    archive, climate, thematic = write_sampling_inputs(tmp_path)
    extra = {
        "pretrain-toy": ["--data-dir", str(tmp_path / "data"), "--synthesize", "4",
                         "--checkpoint", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "l.jsonl")],
        "sample": ["--archive", str(archive), "--climate", str(climate), "--thematic", str(thematic),
                   "--out", str(tmp_path / "sel.csv")],
    }
    assert main([command, "--config", str(cfg), *extra.get(command, []), flag, value]) == 2
    err = capsys.readouterr().err
    assert f"with {flag}" in err and message in err, err
    assert not (tmp_path / "m.ckpt").exists() and not (tmp_path / "sel.csv").exists()


def test_every_config_flag_overrides_the_field_its_dest_names(tmp_path):
    # a config-backed flag's dest names the "section.key" fields it sets;
    # parse each such flag with a value off its default and resolve the run;
    # a flag left unset keeps the file's value, even a store_true flag
    def parse(command, argv):
        return _run_config(_build_parser().parse_args([command, *argv], argparse.Namespace(config=None)))

    sub = next(a for a in _build_parser()._actions if a.choices and "sample" in a.choices)
    wants, cfg = {}, tmp_path / "cfg.json"
    for command, parser in sub.choices.items():
        required = [arg for a in parser._actions if a.required for arg in (a.option_strings[0], "x")]
        actions = [a for a in parser._actions if "." in a.dest]
        if not actions:
            continue
        for action in actions:
            flag, targets = action.option_strings[0], [d.split(".") for d in action.dest.split(",")]
            for section, key in targets:
                assert key in {f.name for f in fields(_SECTIONS[section])}, f"{command} {flag}: {section}.{key}"
            default = getattr(_SECTIONS[targets[0][0]](), targets[0][1])
            if isinstance(default, bool):
                argv, want = [flag], not default
            elif isinstance(default, str):
                argv, want = [flag, str(tmp_path)], str(tmp_path)
            else:
                want = default + 1 if isinstance(default, int) else default / 2
                argv = [flag, str(want)]
            run = parse(command, [*required, *argv])
            for section, key in targets:
                assert getattr(getattr(run, section), key) == want, (command, flag, section, key)
                wants.setdefault(section, {})[key] = want
        cfg.write_text(json.dumps(wants))
        run = parse(command, [*required, "--config", str(cfg)])
        assert {name: {key: getattr(getattr(run, name), key) for key in keys}
                for name, keys in wants.items()} == wants, command
    assert sorted(f"{section}.{key}" for section, keys in wants.items() for key in keys) == [
        "ga.crossover_rate", "ga.generations", "ga.population_size", "ga.seed", "ga.target_size",
        "loss.mi_include_positive", "loss.norm_pix", "model.seed", "paths.checkpoint",
        "paths.data_dir", "paths.log", "trainer.epochs"]


# ---------------------------------------------------------------------------
# flops
# ---------------------------------------------------------------------------


def test_flops_profile_json(tmp_path, capsys):
    cfg = write_mini_run_config(tmp_path / "cfg.json")
    out = tmp_path / "profile.json"
    assert main(["flops", "--config", str(cfg), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["c2c"] > 0
    assert data["params"] > 0
    table = capsys.readouterr().out
    assert "component" in table and "total" in table


def test_flops_byte_reproducible(tmp_path):
    cfg = write_mini_run_config(tmp_path / "cfg.json")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["flops", "--config", str(cfg), "--out", str(a)])
    main(["flops", "--config", str(cfg), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# grad-check
# ---------------------------------------------------------------------------


def test_grad_check_passes_on_mini_config(tmp_path, capsys):
    cfg = write_mini_run_config(tmp_path / "cfg.json")
    out = tmp_path / "report.json"
    code = main(["grad-check", "--config", str(cfg), "--seed", "7",
                 "--max-checked", "250", "--out", str(out)])
    report = json.loads(out.read_text())
    assert code == 0
    assert report["passed"] is True
    assert report["max_relative_error"] <= 1e-4
    assert report["checked_elements"] == 250


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def test_sample_deterministic_outputs(tmp_path):
    archive, climate, thematic = write_sampling_inputs(tmp_path)
    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        rep = tmp_path / (name + ".json")
        code = main(["sample", "--archive", str(archive), "--climate", str(climate),
                     "--thematic", str(thematic), "--out", str(out), "--report", str(rep),
                     "--target", "100", "--iters", "20", "--pop", "4", "--seed", "7"])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    report = json.loads((tmp_path / "s1.csv.json").read_text())
    assert report["total_described"] == 160
    assert 90 <= report["total_selected"] <= 110
    assert "tournament" in report["operators"]


def test_sample_report_records_every_ga_setting(tmp_path):
    # two runs that differ only in stagnation_limit must say so in their reports
    archive, climate, thematic = write_sampling_inputs(tmp_path)
    settings_of = []
    for limit in (0, 3):
        run = tmp_path / f"run{limit}.json"
        run.write_text(json.dumps({"ga": {"stagnation_limit": limit}}))
        rep = tmp_path / f"rep{limit}.json"
        assert main(["sample", "--config", str(run), "--archive", str(archive), "--climate", str(climate),
                     "--thematic", str(thematic), "--out", str(tmp_path / "sel.csv"), "--report", str(rep),
                     "--target", "100", "--iters", "5", "--pop", "3", "--seed", "1"]) == 0
        report = json.loads(rep.read_text())
        settings_of.append({k: v for k, v in report.items()
                            if k not in ("strata", "total_selected", "total_described")})
    assert {f.name for f in fields(GaConfig)} | {"operators"} == set(settings_of[0])
    assert settings_of[0] == {**settings_of[1], "stagnation_limit": 0} != settings_of[1]


def _exit_and_stderr(argv):
    """``main(argv)``'s exit code and stderr, stdout discarded; any other
    exception escapes."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


_CSV_EDITS = dict(cut=st.none() | st.integers(0, 400),
                  edits=st.lists(st.tuples(st.integers(0, 400), st.integers(0, 255)), max_size=4))


def _mutated(blob: bytes, cut, edits) -> bytes:
    blob = bytearray(blob)
    if cut is not None:
        del blob[cut:]
    for at, value in edits:
        if blob:
            blob[at % len(blob)] = value
    return bytes(blob)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(**_CSV_EDITS)
def test_sample_on_mutated_archive_exits_0_or_2_naming_it(tmp_path_factory, cut, edits):
    root = tmp_path_factory.getbasetemp() / "fuzz_archive"
    root.mkdir(exist_ok=True)
    archive, climate, thematic = write_sampling_inputs(root, n_entries=12)
    archive.write_bytes(_mutated(archive.read_bytes(), cut, edits))
    code, err = _exit_and_stderr(["sample", "--archive", str(archive), "--climate", str(climate),
                                  "--thematic", str(thematic), "--out", str(root / "sel.csv"),
                                  "--target", "4", "--iters", "2", "--pop", "2"])
    assert code == 0 or (code == 2 and err.startswith(f"csmoe: error: {archive}")), err


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(**_CSV_EDITS)
def test_eval_retrieval_on_mutated_labels_exits_0_or_2_naming_them(tmp_path_factory, cut, edits):
    root = tmp_path_factory.getbasetemp() / "fuzz_labels"
    if not root.exists():
        write_embedding_dir(root, {"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [1.0, 1.0]})
    labels = root / "labels.csv"
    labels.write_bytes(_mutated(b"id,labels\na,A;B\nb,B\nc,C;A\n", cut, edits))
    code, err = _exit_and_stderr(["eval-retrieval", "--queries", str(root), "--gallery", str(root),
                                  "--labels", str(labels), "--task", "S1>S1", "--k", "2"])
    assert code == 0 or (code == 2 and err.startswith(f"csmoe: error: {labels}")), err


def test_sample_baseline_flag(tmp_path):
    archive, climate, thematic = write_sampling_inputs(tmp_path)
    out, rep = tmp_path / "sel.csv", tmp_path / "rep.json"
    main(["sample", "--archive", str(archive), "--climate", str(climate),
          "--thematic", str(thematic), "--out", str(out), "--report", str(rep),
          "--target", "100", "--iters", "15", "--seed", "3", "--baseline"])
    report = json.loads(rep.read_text())
    assert all("baseline_mean_pairwise_km" in s for s in report["strata"])


@pytest.mark.parametrize("key, value", [
    ("rows", -2), ("rows", "x"), ("cols", 1.5), ("nodata", -1), ("dlat", float("nan")),
    ("dlat", 0), ("dlon", -0.5),
])
def test_sample_rejects_bad_grid_header(tmp_path, capsys, key, value):
    archive, climate, thematic = write_sampling_inputs(tmp_path, n_entries=4)
    header, payload = climate.read_bytes().split(b"\n", 1)
    fields = json.loads(header)
    fields[key] = value
    climate.write_bytes(json.dumps(fields).encode("utf-8") + b"\n" + payload)
    code = main(["sample", "--archive", str(archive), "--climate", str(climate),
                 "--thematic", str(thematic), "--out", str(tmp_path / "sel.csv"), "--seed", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert str(climate) in err and f"GRID1 header {key} " in err


@pytest.mark.parametrize("row, problem", [
    ("t900,nan,1.0,2.0,2.0", "coordinates must be finite"),
    ("t900,1.0,1.0,inf,2.0", "coordinates must be finite"),
    ("t900,-181.0,1.0,2.0,2.0", "outside [-180, 180]"),
    ("t900,1.0,1.0,2.0,90.5", "outside [-90, 90]"),
    ("t900,5.0,1.0,2.0,2.0", "lon_min 5.0 > lon_max 2.0"),
    ("t900,1.0,3.0,2.0,2.0", "lat_min 3.0 > lat_max 2.0"),
    ("t001,1.0,1.0,1.0,1.0", "repeated id 't001'"),
    ("t900,1.0,1.0,2.0,2.0,99", "6 fields, not 5"),
    ("t900,1.0,1.0,2.0", "4 fields, not 5"),
], ids=["nan", "inf", "lon-range", "lat-range", "lon-inverted", "lat-inverted", "repeated-id",
        "extra-field", "missing-field"])
def test_sample_rejects_bad_archive_row(tmp_path, capsys, row, problem):
    archive, climate, thematic = write_sampling_inputs(tmp_path, n_entries=4)
    archive.write_text(archive.read_text() + row + "\n")  # header is row 1, so this is row 6
    code = main(["sample", "--archive", str(archive), "--climate", str(climate),
                 "--thematic", str(thematic), "--out", str(tmp_path / "sel.csv"), "--seed", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{archive}: bad row 6: " in err and problem in err and "Traceback" not in err
    assert not (tmp_path / "sel.csv").exists()


def _pool_argv(tmp_path, *extra):
    """``sample`` over three strata of about 80 entries, each above the target
    of 20, so that two or more usable CPUs evolve them in worker processes."""
    archive, climate, thematic = write_sampling_inputs(tmp_path, n_entries=240, strata=3)
    return ["sample", "--archive", str(archive), "--climate", str(climate), "--thematic", str(thematic),
            "--out", str(tmp_path / "sel.csv"), "--report", str(tmp_path / "rep.json"),
            "--target", "20", "--iters", "6", "--pop", "4", "--seed", "5", "--baseline", *extra]


def _sample_recording_evolvers(tmp_path, monkeypatch, usable_cpus, *extra):
    """``main(_pool_argv(tmp_path, *extra))`` with ``usable_cpus`` in place of
    ``sampler._usable_cpus``: (selection, report and stdout, [pid, stratum
    size] of each ``evolve_stratum`` call in the order they began). Every
    patch on ``monkeypatch`` is undone on return."""
    pids = tmp_path / "pids"
    pids.unlink(missing_ok=True)
    evolve = sampler_module.evolve_stratum

    def recorded(centers, *args, **kwargs):  # notes which process evolves each stratum
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()} {len(centers)}\n")
        return evolve(centers, *args, **kwargs)

    monkeypatch.setattr(sampler_module, "_usable_cpus", usable_cpus)
    monkeypatch.setattr(sampler_module, "evolve_stratum", recorded)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(_pool_argv(tmp_path, *extra)) == 0
    monkeypatch.undo()
    outputs = (tmp_path / "sel.csv").read_bytes(), (tmp_path / "rep.json").read_bytes(), stdout.getvalue()
    return outputs, [line.split() for line in pids.read_text().splitlines()]


def test_sample_output_is_independent_of_the_worker_count(tmp_path, monkeypatch):
    outputs, evolving = zip(*(_sample_recording_evolvers(tmp_path, monkeypatch, lambda: cpus)
                              for cpus in (1, 2)))
    assert outputs[0] == outputs[1]
    assert {pid for pid, _ in evolving[0]} == {str(os.getpid())}  # one CPU: every stratum evolves here
    assert len({pid for pid, _ in evolving[1]} - {str(os.getpid())}) == 3  # two: each in its own worker
    assert {size for _, size in evolving[1][:2]} == {"94", "80"}  # the two largest go first
    report = json.loads(outputs[0][1])
    assert [s["stratum_size"] > 20 for s in report["strata"]] == [True, True, True]
    assert multiprocessing.active_children() == []


def test_sample_keeps_small_strata_whole_in_its_own_process(tmp_path, monkeypatch):
    # at a target of 70 the west stratum of 66 entries is kept whole; 80 and 94 evolve
    outputs, evolving = zip(*(_sample_recording_evolvers(tmp_path, monkeypatch, lambda: cpus, "--target", "70")
                              for cpus in (1, 2)))
    assert outputs[0] == outputs[1]
    here = str(os.getpid())
    assert [pid for pid, _ in evolving[0]] == [here] * 3
    assert {size: pid == here for pid, size in evolving[1]} == {"66": True, "80": False, "94": False}
    report = json.loads(outputs[0][1])
    assert [s["stratum_size"] > 70 for s in report["strata"]] == [False, True, True]
    assert multiprocessing.active_children() == []


def test_sample_off_linux_evolves_every_stratum_in_its_own_process(tmp_path, monkeypatch):
    expected, _ = _sample_recording_evolvers(tmp_path, monkeypatch, lambda: 1)

    def unusable():
        raise AssertionError("the CPU affinity was read off Linux")

    monkeypatch.setattr(sampler_module, "sys", types.SimpleNamespace(platform="darwin"))
    outputs, evolving = _sample_recording_evolvers(tmp_path, monkeypatch, unusable)
    assert outputs == expected
    assert [pid for pid, _ in evolving] == [str(os.getpid())] * 3


def test_sample_leaves_no_worker_process_after_a_worker_raises(tmp_path, monkeypatch):
    monkeypatch.setattr(sampler_module, "_usable_cpus", lambda: 2)
    # 10^14 x ~80 bools is about 7 PiB, far above the 47-bit user address space
    code, err = _exit_and_stderr(_pool_argv(tmp_path, "--pop", "100000000000000"))
    assert code == 2 and err.startswith("csmoe: error: out of memory: Unable to allocate"), err
    assert multiprocessing.active_children() == []

    def interrupted(*args, **kwargs):  # in every worker, as Ctrl-C reaches the whole process group
        with open(tmp_path / "started", "a") as fh:
            fh.write("stratum\n")
        raise KeyboardInterrupt

    monkeypatch.setattr(sampler_module, "evolve_stratum", interrupted)
    with pytest.raises(KeyboardInterrupt), contextlib.redirect_stdout(io.StringIO()):
        main(_pool_argv(tmp_path))
    assert multiprocessing.active_children() == []
    assert len((tmp_path / "started").read_text().split()) <= 2  # no third stratum starts after it
    assert not (tmp_path / "sel.csv").exists() and not (tmp_path / "rep.json").exists()


def test_sample_worker_that_dies_exits_two_with_a_message(tmp_path, monkeypatch):
    monkeypatch.setattr(sampler_module, "_usable_cpus", lambda: 2)
    parent = os.getpid()

    def die(*args, **kwargs):
        assert os.getpid() != parent, "a stratum evolved in the test process"
        os._exit(3)

    monkeypatch.setattr(sampler_module, "evolve_stratum", die)
    code, err = _exit_and_stderr(_pool_argv(tmp_path))
    assert code == 2 and err.startswith("csmoe: error: a sampling worker process died"), err
    assert "stratum (1, 1): exit code 3" in err and "Traceback" not in err
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "sel.csv").exists() and not (tmp_path / "rep.json").exists()


@pytest.mark.parametrize("largest", ["fails_first", "runs_on", "kept_whole_first"])
def test_sample_reports_the_first_failing_stratum_for_any_worker_count(tmp_path, monkeypatch, largest):
    # strata 0, 1, 2 are the west, middle and east columns of 66, 80 and 94
    # entries; two workers start 2 and 1, then 0 once one of them is done;
    # at a target of 70, stratum 0 is kept whole and fails in this process
    def evolve(centers, cfg, rng):
        column = int(centers[:, 0].mean() // (10.0 / 3))
        time.sleep({0: 0.0, 1: 0.15, 2: 30.0 if largest == "runs_on" else 0.0}[column])
        raise sampler_module.DataError(f"stratum {column} failed")

    extra = ("--target", "70") if largest == "kept_whole_first" else ()
    outcomes = []
    for cpus in (1, 2):
        monkeypatch.setattr(sampler_module, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(sampler_module, "evolve_stratum", evolve)
        start = time.monotonic()
        outcomes.append(_exit_and_stderr(_pool_argv(tmp_path, *extra)))
        assert time.monotonic() - start < 10
    assert outcomes[0] == outcomes[1] == (2, "csmoe: error: stratum 0 failed\n"), outcomes
    assert multiprocessing.active_children() == []


def _gone(pid):
    """Whether ``pid`` has exited; a zombie that its new parent has yet to reap counts."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(sys.platform != "linux", reason="workers run on Linux only, and this reads /proc")
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT, signal.SIGKILL], ids=["term", "int", "kill"])
def test_sample_leaves_no_worker_when_only_its_process_is_signalled(tmp_path, sig):
    pids = tmp_path / "pids"
    code = (f"import os, sys, time\n"
            f"import csmoe.sampler as sampler\n"
            f"from csmoe.cli import main\n"
            f"sampler._usable_cpus = lambda: 2\n"
            f"def evolve(*args, **kwargs):  # a stratum that would run for a minute\n"
            f"    with open({str(pids)!r}, 'a') as fh:\n"
            f"        fh.write(f'{{os.getpid()}}\\n')\n"
            f"    time.sleep(60)\n"
            f"sampler.evolve_stratum = evolve\n"
            f"sys.exit(main({_pool_argv(tmp_path)!r}))\n")
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    workers = []
    try:
        deadline = time.monotonic() + 30
        while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.02)
            workers = pids.read_text().split() if pids.exists() else []
        assert len(workers) == 2, proc.stderr.read() if proc.poll() is not None else "no workers"
        os.kill(proc.pid, sig)  # the parent alone, not its process group
        proc.wait(timeout=10)
        assert proc.returncode == -sig
        deadline = time.monotonic() + 10
        while not all(_gone(int(pid)) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert all(_gone(int(pid)) for pid in workers)
    finally:
        proc.kill()
        proc.communicate()
        for pid in workers:
            if not _gone(int(pid)):
                os.kill(int(pid), signal.SIGKILL)
    assert not (tmp_path / "sel.csv").exists()


# ---------------------------------------------------------------------------
# split-tiles
# ---------------------------------------------------------------------------


def test_split_tiles_outputs_patches_and_reports(tmp_path):
    in_dir = tmp_path / "tiles"
    out_dir = tmp_path / "patches"
    in_dir.mkdir()
    rng = np.random.default_rng(1)
    tile = rng.standard_normal((2, 250, 130))
    tile[0, 5, 5] = np.nan  # poisons the first cell
    save_tnsr(in_dir / "tile_a.tnsr", tile)
    before = (in_dir / "tile_a.tnsr").read_bytes()
    assert main(["split-tiles", "--input", str(in_dir), "--output", str(out_dir),
                 "--patch", "120"]) == 0
    assert (in_dir / "tile_a.tnsr").read_bytes() == before  # inputs untouched
    report = json.loads((out_dir / "tile_a_report.json").read_text())
    assert report["kept"] == 1
    assert report["discarded_invalid"] == 1
    patches = sorted(out_dir.glob("tile_a_p*.tnsr"))
    assert len(patches) == 1
    assert load_tnsr(patches[0]).shape == (2, 120, 120)


def test_split_tiles_numeric_sentinel(tmp_path):
    in_dir = tmp_path / "tiles"
    out_dir = tmp_path / "out"
    in_dir.mkdir()
    tile = np.zeros((1, 240, 120))
    tile[0, 10, 10] = -9999.0
    save_tnsr(in_dir / "t.tnsr", tile)
    main(["split-tiles", "--input", str(in_dir), "--output", str(out_dir),
          "--patch", "120", "--sentinel", "-9999"])
    report = json.loads((out_dir / "t_report.json").read_text())
    assert report["kept"] == 1 and report["discarded_invalid"] == 1


# ---------------------------------------------------------------------------
# pretrain-toy
# ---------------------------------------------------------------------------


def read_steps(log_path):
    records = [json.loads(line) for line in Path(log_path).read_text().splitlines()]
    return [r for r in records if "step" in r]


def test_pretrain_smoke_loss_decreases(tmp_path):
    cfg = write_mini_run_config(tmp_path / "cfg.json")
    data = tmp_path / "data"
    ckpt = tmp_path / "model.ckpt"
    log = tmp_path / "loss.jsonl"
    code = main(["pretrain-toy", "--config", str(cfg), "--data-dir", str(data),
                 "--checkpoint", str(ckpt), "--log", str(log),
                 "--synthesize", "8", "--seed", "0"])
    assert code == 0
    steps = read_steps(log)
    assert len(steps) >= 30
    assert steps[29]["total"] < steps[0]["total"]
    assert ckpt.exists() and Path(str(ckpt) + ".opt").exists()


def test_pretrain_zero_epochs_keeps_init(tmp_path):
    cfg = write_mini_run_config(tmp_path / "cfg.json", epochs=0)
    data = tmp_path / "data"
    ckpt = tmp_path / "model.ckpt"
    main(["pretrain-toy", "--config", str(cfg), "--data-dir", str(data),
          "--checkpoint", str(ckpt), "--log", str(tmp_path / "l.jsonl"),
          "--synthesize", "4", "--seed", "0"])
    from csmoe.model import init_model

    trained = load_checkpoint(ckpt)
    fresh = init_model(mini_config())
    for name in fresh.params:
        assert np.array_equal(trained.params[name].data, fresh.params[name].data), name


def test_pretrain_resume_bit_exact(tmp_path):
    data = tmp_path / "data"
    # straight run: 4 epochs
    full_cfg = write_mini_run_config(tmp_path / "full.json", epochs=4, schedule_epochs=4)
    ckpt_full = tmp_path / "full.ckpt"
    main(["pretrain-toy", "--config", str(full_cfg), "--data-dir", str(data),
          "--checkpoint", str(ckpt_full), "--log", str(tmp_path / "full.jsonl"),
          "--synthesize", "6", "--seed", "0"])
    # interrupted run: first 2 epochs of the same 4-epoch schedule, then resume
    half_cfg = write_mini_run_config(tmp_path / "half.json", epochs=2, schedule_epochs=4)
    ckpt_half = tmp_path / "half.ckpt"
    main(["pretrain-toy", "--config", str(half_cfg), "--data-dir", str(data),
          "--checkpoint", str(ckpt_half), "--log", str(tmp_path / "half.jsonl"),
          "--seed", "0"])
    resumed_cfg = write_mini_run_config(tmp_path / "resume.json", epochs=4, schedule_epochs=4)
    ckpt_resumed = tmp_path / "resumed.ckpt"
    main(["pretrain-toy", "--config", str(resumed_cfg), "--data-dir", str(data),
          "--checkpoint", str(ckpt_resumed), "--log", str(tmp_path / "resumed.jsonl"),
          "--resume", str(ckpt_half), "--seed", "0"])
    assert ckpt_resumed.read_bytes() == ckpt_full.read_bytes()
    # --checkpoint may name the resumed checkpoint: training continues in place
    assert main(["pretrain-toy", "--config", str(resumed_cfg), "--data-dir", str(data),
                 "--checkpoint", str(ckpt_half), "--log", str(tmp_path / "half.jsonl"),
                 "--resume", str(ckpt_half), "--seed", "0"]) == 0
    assert ckpt_half.read_bytes() == ckpt_full.read_bytes()
    assert Path(f"{ckpt_half}.opt").read_bytes() == Path(f"{ckpt_full}.opt").read_bytes()


def test_resume_cuts_the_loss_log_back_to_the_checkpoint(tmp_path):
    tiny = json.loads((DATA / "tiny.json").read_text())

    def run(epochs, name, log, *extra):
        tiny["trainer"].update(epochs=epochs, schedule_epochs=4, val_fraction=0.34)
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(tiny))
        assert main(["pretrain-toy", "--config", str(cfg), "--data-dir", str(tmp_path / "data"),
                     "--checkpoint", str(tmp_path / f"{name}.ckpt"), "--log", str(log),
                     "--seed", "0", *extra]) == 0

    full_log, log = tmp_path / "full.jsonl", tmp_path / "half.jsonl"
    run(4, "full", full_log, "--synthesize", "6")
    run(2, "half", log)
    # 4 training pairs in batches of 2 and a validation record per epoch
    lines = full_log.read_text().splitlines(keepends=True)
    assert len(lines) == 12 and log.read_text() == "".join(lines[:6])
    # a killed resume left two step records and a torn one behind
    with open(log, "a") as fh:
        fh.write("".join(lines[6:8]) + lines[8][:len(lines[8]) // 2])
    run(4, "resumed", log, "--resume", str(tmp_path / "half.ckpt"))
    assert log.read_bytes() == full_log.read_bytes()
    assert (tmp_path / "resumed.ckpt").read_bytes() == (tmp_path / "full.ckpt").read_bytes()


@pytest.mark.parametrize("corruption", ["moment_shape", "trailing_bytes", "truncated", "no_step"])
def test_pretrain_resume_rejects_corrupt_optimizer_state(tmp_path, capsys, corruption):
    cfg = write_mini_run_config(tmp_path / "cfg.json", epochs=1)
    data, ckpt = tmp_path / "data", tmp_path / "m.ckpt"
    assert main(["pretrain-toy", "--config", str(cfg), "--data-dir", str(data),
                 "--checkpoint", str(ckpt), "--log", str(tmp_path / "l.jsonl"),
                 "--synthesize", "4", "--seed", "0"]) == 0
    opt = Path(str(ckpt) + ".opt")
    with open(opt, "rb") as fh:
        header = json.loads(fh.readline())
        names = header["names"]
        blocks = [read_tnsr(fh) for _ in range(2 * len(names))]
    culprit = names[-1]
    if corruption == "moment_shape":  # a [1, d] moment for a [d] parameter
        i = next(i for i, b in enumerate(blocks) if b.ndim == 1)
        blocks[i] = blocks[i].reshape(1, -1)
        culprit = names[i // 2]
    elif corruption == "no_step":
        del header["step"]
        culprit = "step"
    body = io.BytesIO()
    for b in blocks:
        write_tnsr(body, b)
    payload = body.getvalue()
    if corruption == "trailing_bytes":
        payload += b"\0"
    elif corruption == "truncated":
        payload = payload[:-8]
    opt.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)
    code = main(["pretrain-toy", "--config", str(cfg), "--data-dir", str(data),
                 "--checkpoint", str(tmp_path / "r.ckpt"), "--log", str(tmp_path / "r.jsonl"),
                 "--resume", str(ckpt), "--seed", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert str(opt) in err and culprit in err


# tiny.ckpt, tiny.ckpt.opt: one epoch of pretrain-toy on tiny.json (seed 0,
# --synthesize 4), written in the version 1 layout (one tensor per expert and
# per q/k/v projection) by the code before the block-file reader/writer
DATA = Path(__file__).resolve().parent / "data"


def _version(path) -> int:
    with open(path, "rb") as fh:
        return json.loads(fh.readline())["version"]


def test_committed_checkpoint_and_optimizer_state_load_resave_and_resume(tmp_path):
    from csmoe.trainer import AdamW, load_optimizer_state, save_optimizer_state

    assert _version(DATA / "tiny.ckpt") == _version(DATA / "tiny.ckpt.opt") == 1
    model = load_checkpoint(DATA / "tiny.ckpt")
    optimizer = AdamW(model.params)
    epoch = load_optimizer_state(DATA / "tiny.ckpt.opt", optimizer, model)
    assert (epoch, optimizer.step_count) == (1, 2)
    again = tmp_path / "again.ckpt"
    save_checkpoint(model, again)
    save_optimizer_state(f"{again}.opt", optimizer, epoch, model)
    assert _version(again) == _version(f"{again}.opt") == 2
    reloaded = load_checkpoint(again)
    moments = AdamW(reloaded.params)
    assert load_optimizer_state(f"{again}.opt", moments, reloaded) == 1 and moments.step_count == 2
    assert reloaded.params.keys() == model.params.keys()
    for name, p in model.params.items():
        assert np.array_equal(reloaded.params[name].data, p.data), name
        assert np.array_equal(moments.m[name], optimizer.m[name]), name
        assert np.array_equal(moments.v[name], optimizer.v[name]), name
    outputs = []
    for source in (DATA / "tiny.ckpt", again):
        out, log = tmp_path / f"r_{source.name}", tmp_path / f"l_{source.name}.jsonl"
        assert main(["pretrain-toy", "--config", str(DATA / "tiny.json"), "--data-dir", str(tmp_path / "data"),
                     "--synthesize", "4", "--resume", str(source), "--epochs", "2",
                     "--checkpoint", str(out), "--log", str(log), "--seed", "0"]) == 0
        assert [r["step"] for r in read_steps(log)] == [3, 4]
        outputs.append((out.read_bytes(), Path(f"{out}.opt").read_bytes(), log.read_bytes()))
    assert outputs[0] == outputs[1]  # resuming from v1 and from its v2 re-save is the same run


def _edit_checkpoint_header(src, dst, edit):
    with open(src, "rb") as fh:
        header = json.loads(fh.readline())
        body = fh.read()
    dst.write_bytes(json.dumps(edit(header)).encode("utf-8") + b"\n" + body)


def _set_config(header, key, value):
    header["config"][key] = value
    return header


@pytest.mark.parametrize("case, key", [
    ("header_not_object", None),
    ("header_without_config", "config"),
    ("config_not_object", "config"),
    ("checkpoint_patch_size_str", "patch_size"),
    ("checkpoint_patch_size_bool", "patch_size"),
    ("run_config_patch_size_str", "patch_size"),
    ("run_config_epochs_str", "epochs"),
    ("run_config_lr_str", "lr"),
    ("run_config_section_not_object", "trainer"),
])
def test_malformed_checkpoint_header_or_config_exits_two(tmp_path, capsys, case, key):
    cfg = write_mini_run_config(tmp_path / "cfg.json", epochs=1)
    data, ckpt = tmp_path / "data", tmp_path / "m.ckpt"
    assert main(["pretrain-toy", "--config", str(cfg), "--data-dir", str(data),
                 "--checkpoint", str(ckpt), "--log", str(tmp_path / "l.jsonl"),
                 "--synthesize", "4", "--seed", "0"]) == 0
    capsys.readouterr()
    bad, resume = tmp_path / "bad.ckpt", []
    edits = {
        "header_not_object": lambda h: [1],
        "header_without_config": lambda h: {k: v for k, v in h.items() if k != "config"},
        "config_not_object": lambda h: {**h, "config": []},
        "checkpoint_patch_size_str": lambda h: _set_config(h, "patch_size", "x"),
        "checkpoint_patch_size_bool": lambda h: _set_config(h, "patch_size", True),
    }
    if case in edits:
        _edit_checkpoint_header(ckpt, bad, edits[case])
        resume = ["--resume", str(bad)]
    else:
        run = json.loads(cfg.read_text())
        if case == "run_config_patch_size_str":
            run["model"]["patch_size"] = "x"
        elif case == "run_config_section_not_object":
            run["trainer"] = [1]
        else:
            run["trainer"][key] = "x"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(run))
        cfg = bad
    code = main(["pretrain-toy", "--config", str(cfg), "--data-dir", str(data),
                 "--checkpoint", str(tmp_path / "r.ckpt"), "--log", str(tmp_path / "r.jsonl"),
                 *resume, "--seed", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert str(bad) in err and (key is None or key in err), err
    assert not (tmp_path / "r.ckpt").exists()


@pytest.mark.parametrize("name, term", [("proj.weight", "mi"), ("head_x_from_x.bias", "umr")])
def test_pretrain_resume_stops_at_non_finite_loss_term(tmp_path, capsys, name, term):
    cfg = write_mini_run_config(tmp_path / "cfg.json", epochs=1, val_fraction=0.0)
    data, ckpt = tmp_path / "data", tmp_path / "m.ckpt"
    assert main(["pretrain-toy", "--config", str(cfg), "--data-dir", str(data),
                 "--checkpoint", str(ckpt), "--log", str(tmp_path / "l.jsonl"),
                 "--synthesize", "4", "--seed", "0"]) == 0
    model = load_checkpoint(ckpt)
    model.params[name].data[0] = np.nan
    save_checkpoint(model, ckpt)
    more = write_mini_run_config(tmp_path / "more.json", epochs=2, val_fraction=0.0)
    out, log = tmp_path / "r.ckpt", tmp_path / "r.jsonl"
    code = main(["pretrain-toy", "--config", str(more), "--data-dir", str(data),
                 "--checkpoint", str(out), "--log", str(log), "--resume", str(ckpt), "--seed", "0"])
    assert code == 2
    err = capsys.readouterr().err
    # 4 pairs in batches of 2: epoch 1 took steps 1-2, so the resumed run fails at step 3
    assert f"step 3: loss term {term} is not finite" in err and "Traceback" not in err
    assert not out.exists() and not Path(str(out) + ".opt").exists()
    assert log.read_text() == ""


def test_pretrain_unpaired_files_error(tmp_path, capsys):
    cfg = write_mini_run_config(tmp_path / "cfg.json")
    data = tmp_path / "data"
    data.mkdir()
    save_tnsr(data / "lonely_x.tnsr", np.zeros((2, 16, 16)))
    code = main(["pretrain-toy", "--config", str(cfg), "--data-dir", str(data),
                 "--checkpoint", str(tmp_path / "c.ckpt"), "--log", str(tmp_path / "l.jsonl")])
    assert code == 2
    assert "lonely" in capsys.readouterr().err


@pytest.mark.parametrize("resume", [False, True])
@pytest.mark.parametrize("defect", ["nan_pixel", "wrong_shape"])
def test_pretrain_rejects_bad_image_before_writing(tmp_path, capsys, defect, resume):
    cfg = write_mini_run_config(tmp_path / "cfg.json", epochs=1)
    data, ckpt, log = tmp_path / "data", tmp_path / "r.ckpt", tmp_path / "r.jsonl"
    assert main(["pretrain-toy", "--config", str(cfg), "--data-dir", str(data),
                 "--checkpoint", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "l.jsonl"),
                 "--synthesize", "4", "--seed", "0"]) == 0
    bad = data / "synt0001_y.tnsr"
    if defect == "nan_pixel":
        image = load_tnsr(bad)
        image[1, 3, 5] = np.nan
        save_tnsr(bad, image)
    else:
        save_tnsr(bad, np.zeros((3, 8, 8)))
    resume_args = []
    if resume:  # images are checked against the checkpoint's config, not the run config's
        run = json.loads(cfg.read_text())
        run["model"]["image_side"] = 32
        cfg.write_text(json.dumps(run))
        resume_args = ["--resume", str(tmp_path / "m.ckpt")]
    code = main(["pretrain-toy", "--config", str(cfg), "--data-dir", str(data),
                 "--checkpoint", str(ckpt), "--log", str(log), "--seed", "0"] + resume_args)
    assert code == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "Traceback" not in err
    if defect == "wrong_shape":
        assert "expected [3, 16, 16]" in err
    assert not ckpt.exists() and not log.exists()


# ---------------------------------------------------------------------------
# eval-retrieval
# ---------------------------------------------------------------------------


def write_embedding_dir(path, vectors):
    path.mkdir()
    for name, vec in vectors.items():
        save_tnsr(path / f"{name}.tnsr", np.asarray(vec, dtype=float))


def test_eval_retrieval_on_embeddings(tmp_path, capsys):
    queries = {"q1": [1.0, 0.0]}
    gallery = {"g1": [1.0, 0.05], "g2": [0.0, 1.0]}
    write_embedding_dir(tmp_path / "q", queries)
    write_embedding_dir(tmp_path / "g", gallery)
    labels = tmp_path / "labels.csv"
    labels.write_text("id,labels\nq1,A;B\ng1,A;B\ng2,C\n")
    out = tmp_path / "result.json"
    code = main(["eval-retrieval", "--queries", str(tmp_path / "q"),
                 "--gallery", str(tmp_path / "g"), "--labels", str(labels),
                 "--task", "S2>S2", "--k", "2", "--out", str(out)])
    assert code == 0
    result = json.loads(out.read_text())
    # ranked [g1, g2]: pair F1s are 1.0 and 0.0 -> mean 0.5 -> 50%
    assert result["f1_percent"] == 50.0
    assert result["task"] == "S2→S2"
    assert result["n_queries"] == 1


def test_eval_retrieval_with_images_and_checkpoint(tmp_path):
    cfg = write_mini_run_config(tmp_path / "cfg.json", epochs=0)
    data = tmp_path / "data"
    ckpt = tmp_path / "model.ckpt"
    main(["pretrain-toy", "--config", str(cfg), "--data-dir", str(data),
          "--checkpoint", str(ckpt), "--log", str(tmp_path / "l.jsonl"),
          "--synthesize", "4", "--seed", "0"])
    rng = np.random.default_rng(5)
    qdir, gdir = tmp_path / "qi", tmp_path / "gi"
    qdir.mkdir(), gdir.mkdir()
    for i in range(2):
        save_tnsr(qdir / f"img{i}.tnsr", rng.standard_normal((2, 16, 16)))
        save_tnsr(gdir / f"gal{i}.tnsr", rng.standard_normal((2, 16, 16)))
    labels = tmp_path / "labels.csv"
    labels.write_text("id,labels\n" + "\n".join(
        f"{name},A" for name in ("img0", "img1", "gal0", "gal1")) + "\n")
    out = tmp_path / "res.json"
    code = main(["eval-retrieval", "--checkpoint", str(ckpt),
                 "--queries", str(qdir), "--gallery", str(gdir),
                 "--labels", str(labels), "--task", "S1>S1", "--k", "2",
                 "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["f1_percent"] == 100.0


@pytest.mark.parametrize("strategy", ["avg_wo_cls", "avg_all", "only_cls", "norm_cls", "norm_proj_cls"])
def test_eval_retrieval_embeds_chunks_like_single_images(tmp_path, strategy):
    # 20 files span two chunks; rank-1 embeddings sit between the images and
    # every file keeps its sorted place
    model = init_model(mini_config())
    full = MaskPair(masked=np.array([], dtype=np.int64), unmasked=np.arange(model.cfg.num_patches),
                    ratio=model.cfg.mask_ratio, seed=0)

    def one_image(image):
        return build_embedding(encode(model, image, full, "y"), strategy, projection=model.proj)

    rng = np.random.default_rng(8)
    width = one_image(rng.standard_normal((3, 16, 16))).shape[0]
    directory = tmp_path / "mixed"
    directory.mkdir()
    files = {f"f{i:02d}": rng.standard_normal(width if i % 3 == 1 else (3, 16, 16)) for i in range(20)}
    for name, arr in files.items():
        save_tnsr(directory / f"{name}.tnsr", arr)
    ids, emb = _load_embeddings(directory, "y", model, strategy)
    assert ids == sorted(files)
    for row, arr in zip(emb, files.values()):
        if arr.ndim == 1:
            assert np.array_equal(row, arr)
        else:
            np.testing.assert_allclose(row, one_image(arr), rtol=0, atol=1e-12)


def test_eval_retrieval_embeds_without_recording_a_tape(tmp_path, monkeypatch):
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(init_model(mini_config()), ckpt)
    qdir = tmp_path / "q"
    qdir.mkdir()
    rng = np.random.default_rng(3)
    for name in "ab":
        save_tnsr(qdir / f"{name}.tnsr", rng.standard_normal((2, 16, 16)))
    labels = tmp_path / "labels.csv"
    labels.write_text("id,labels\na,A\nb,A\n")
    real_encode, encoded = cli_module.encode, []

    def recording_encode(*args):
        encoded.append(real_encode(*args))
        return encoded[-1]

    monkeypatch.setattr(cli_module, "encode", recording_encode)
    assert main(["eval-retrieval", "--checkpoint", str(ckpt), "--queries", str(qdir),
                 "--gallery", str(qdir), "--labels", str(labels), "--task", "S1>S1",
                 "--out", str(tmp_path / "r.json")]) == 0
    assert len(encoded) == 2  # queries, then gallery
    assert all(not seq.requires_grad and seq._parents == () for seq in encoded)


def test_eval_retrieval_image_of_another_shape_exits_two(tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(init_model(mini_config()), ckpt)
    qdir = tmp_path / "q"
    qdir.mkdir()
    save_tnsr(qdir / "a.tnsr", np.zeros((2, 16, 16)))
    save_tnsr(qdir / "b.tnsr", np.zeros((3, 16, 16)))  # an S2 image in an S1 directory
    labels = tmp_path / "labels.csv"
    labels.write_text("id,labels\na,A\nb,A\n")
    assert main(["eval-retrieval", "--checkpoint", str(ckpt), "--queries", str(qdir),
                 "--gallery", str(qdir), "--labels", str(labels), "--task", "S1>S1"]) == 2
    err = capsys.readouterr().err
    assert f"{qdir / 'b.tnsr'}: image shape [3, 16, 16], expected [2, 16, 16] for modality 'x'" in err


def test_pretrain_and_eval_report_a_wrong_shape_image_alike(tmp_path, capsys):
    cfg = write_mini_run_config(tmp_path / "cfg.json", epochs=0)
    data, ckpt = tmp_path / "data", tmp_path / "m.ckpt"
    run = ["pretrain-toy", "--config", str(cfg), "--data-dir", str(data), "--checkpoint", str(ckpt),
           "--log", str(tmp_path / "l.jsonl"), "--seed", "0"]
    assert main(run + ["--synthesize", "2"]) == 0
    bad = data / "synt0000_x.tnsr"
    save_tnsr(bad, np.zeros((3, 16, 16)))
    labels = tmp_path / "labels.csv"
    labels.write_text("id,labels\nz,A\n")
    capsys.readouterr()
    message = f"{bad}: image shape [3, 16, 16], expected [2, 16, 16] for modality 'x'"
    for argv in (run, ["eval-retrieval", "--checkpoint", str(ckpt), "--queries", str(data),
                       "--gallery", str(data), "--labels", str(labels), "--task", "S1>S1"]):
        assert main(argv) == 2
        assert f"csmoe: error: {message}\n" == capsys.readouterr().err


def test_eval_retrieval_query_without_candidates_exits_two(tmp_path, capsys):
    # the query's only gallery item is its own id: no F1 exists (it used to
    # print NaN with two numpy warnings and exit 0)
    write_embedding_dir(tmp_path / "q", {"a": [1.0, 0.0]})
    write_embedding_dir(tmp_path / "g", {"a": [1.0, 0.0]})
    labels = tmp_path / "labels.csv"
    labels.write_text("id,labels\na,A\n")
    out = tmp_path / "res.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eval-retrieval", "--queries", str(tmp_path / "q"),
                     "--gallery", str(tmp_path / "g"), "--labels", str(labels),
                     "--task", "S1>S1", "--out", str(out)]) == 2
    assert "query a has no gallery candidates left" in capsys.readouterr().err
    assert not out.exists()


def test_eval_retrieval_missing_labels(tmp_path, capsys):
    write_embedding_dir(tmp_path / "q", {"q1": [1.0, 0.0]})
    write_embedding_dir(tmp_path / "g", {"g1": [1.0, 0.0]})
    labels = tmp_path / "labels.csv"
    labels.write_text("id,labels\nq1,A\n")
    assert main(["eval-retrieval", "--queries", str(tmp_path / "q"),
                 "--gallery", str(tmp_path / "g"), "--labels", str(labels),
                 "--task", "S1>S1"]) == 2


def test_eval_retrieval_rejects_repeated_label_id(tmp_path, capsys):
    write_embedding_dir(tmp_path / "q", {"q1": [1.0, 0.0]})
    write_embedding_dir(tmp_path / "g", {"g1": [1.0, 0.0]})
    labels = tmp_path / "labels.csv"
    for text, message in [("id,labels\nq1,A\ng1,B\nq1,C\n", "repeated id q1"),
                          ("id,labels\nq1,A\ng1\n", "row 3 has no labels field"),
                          ("id,labels\nq1,A,B\ng1,B\n", "row 2 has 3 fields, not 2: join labels with ';'")]:
        labels.write_text(text)
        assert main(["eval-retrieval", "--queries", str(tmp_path / "q"),
                     "--gallery", str(tmp_path / "g"), "--labels", str(labels),
                     "--task", "S1>S1"]) == 2
        assert f"{labels}: {message}" in capsys.readouterr().err


def test_sample_with_no_covered_entries(tmp_path):
    archive = tmp_path / "archive.csv"
    archive.write_text("id,lon_min,lat_min,lon_max,lat_max\nfar,100.0,50.0,100.0,50.0\n")
    from csmoe.sampler import ClassRaster, save_grid

    raster = ClassRaster(lat_max=10.0, lon_min=0.0, dlat=10.0, dlon=10.0,
                         grid=np.array([[1]], dtype=np.uint16), nodata=0)
    save_grid(tmp_path / "c.grid", raster)
    save_grid(tmp_path / "t.grid", raster)
    out, rep = tmp_path / "sel.csv", tmp_path / "rep.json"
    code = main(["sample", "--archive", str(archive), "--climate", str(tmp_path / "c.grid"),
                 "--thematic", str(tmp_path / "t.grid"), "--out", str(out),
                 "--report", str(rep), "--seed", "0"])
    assert code == 0
    assert out.read_text().splitlines() == ["id,u,v,stratum_fitness"]
    report = json.loads(rep.read_text())
    assert report["total_described"] == 0 and report["total_selected"] == 0


# ---------------------------------------------------------------------------
# BLAS thread count
# ---------------------------------------------------------------------------


def test_outputs_do_not_depend_on_blas_thread_count(tmp_path):
    # batches of 8 make the embedding and decoder GEMMs large enough for
    # OpenBLAS to split them across both threads
    run = {
        "model": {"patch_size": 8, "image_side": 32, "channels_x": 2, "channels_y": 10,
                  "enc_dim": 64, "dec_dim": 32, "enc_layers_modality": 1, "enc_layers_shared": 1,
                  "dec_layers": 1, "num_slots": 4, "heads": 4, "dec_heads": 4, "proj_dim": 16},
        "trainer": {"epochs": 2, "batch_size": 8, "lr": 1e-3, "val_fraction": 0.25},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(run))
    root = Path(__file__).resolve().parent.parent
    outputs = {}
    for threads in ("1", "2"):
        work = tmp_path / f"threads{threads}"
        work.mkdir()
        # strata of about 150 entries: about 140 picks make 10^4 pairs, where OpenBLAS splits a ddot
        archive, climate, thematic = write_sampling_inputs(work, n_entries=600, strata=4)
        env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        commands = [
            ["pretrain-toy", "--config", str(cfg), "--data-dir", str(work / "data"),
             "--checkpoint", str(work / "m.ckpt"), "--log", str(work / "log.jsonl"),
             "--synthesize", "20", "--seed", "3"],
            ["grad-check", "--config", str(cfg), "--seed", "3", "--max-checked", "40",
             "--out", str(work / "report.json")],
            ["sample", "--archive", str(archive), "--climate", str(climate), "--thematic", str(thematic),
             "--out", str(work / "sel.csv"), "--report", str(work / "rep.json"),
             "--target", "140", "--iters", "40", "--seed", "3", "--baseline"],
        ]
        codes = []
        for argv in commands:
            proc = subprocess.run([sys.executable, "-m", "csmoe.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert "Traceback" not in proc.stderr, proc.stderr
            codes.append(proc.returncode)
        assert codes == [0, 0, 0]
        outputs[threads] = {name: (work / name).read_bytes() for name in
                            ("m.ckpt", "m.ckpt.opt", "log.jsonl", "report.json", "sel.csv", "rep.json")}
    assert outputs["1"] == outputs["2"]


# ---------------------------------------------------------------------------
# malformed inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", ["label_row_without_labels", "sentinel_not_a_number",
                                  "grad_check_step_zero", "grad_check_step_nan",
                                  "grad_check_max_checked_zero", "resume_empty",
                                  "grad_check_tolerance_nan", "grad_check_tolerance_negative",
                                  "synthesize_negative", "split_tiles_patch_zero",
                                  "split_tiles_patch_negative", "eval_retrieval_k_zero",
                                  "eval_retrieval_nan_embedding", "eval_retrieval_inf_pixel",
                                  "eval_retrieval_strategy_misspelled", "split_tiles_bad_magic",
                                  "eval_retrieval_bad_magic", "eval_retrieval_tnsr_count_overflows",
                                  "sample_grid_payload_overflows", "sample_grid_empty_yet_too_large",
                                  "sample_grid_trailing_bytes",
                                  "eval_retrieval_zero_projection", "split_tiles_good_then_bad",
                                  "pretrain_mask_hides_no_patch", "grad_check_mask_hides_no_patch",
                                  "flops_mask_hides_no_patch", "sample_archive_not_utf8",
                                  "eval_retrieval_labels_not_utf8", "config_not_utf8",
                                  "sample_population_out_of_memory", "grad_check_enc_dim_out_of_memory",
                                  "sample_out_dir_missing", "sample_report_dir_missing",
                                  "sample_out_is_a_directory", "sample_report_is_a_directory",
                                  "sample_out_is_the_report", "pretrain_checkpoint_is_a_directory",
                                  "pretrain_log_is_the_optimizer_state", "grad_check_out_is_a_directory",
                                  "flops_out_is_a_directory", "eval_retrieval_out_is_a_directory",
                                  "pretrain_log_is_the_resumed_checkpoint",
                                  "pretrain_log_is_the_resumed_optimizer_state", "split_tiles_output_is_a_file"])
def test_malformed_input_exits_with_a_message_not_a_traceback(tmp_path, case):
    emb = tmp_path / "emb"
    write_embedding_dir(emb, {"a": [1.0, 0.0], "b": [0.0, 1.0]})
    labels = tmp_path / "labels.csv"
    labels.write_text("id,labels\na,A\nb\n")
    cfg = str(write_mini_run_config(tmp_path / "cfg.json"))
    good_labels = tmp_path / "good_labels.csv"
    good_labels.write_text("id,labels\na,A\nb,B\n")
    if case == "eval_retrieval_nan_embedding":
        write_embedding_dir(tmp_path / "nan", {"a": [1.0, np.nan], "b": [0.0, 1.0]})
    if case == "eval_retrieval_inf_pixel":
        save_checkpoint(init_model(mini_config()), tmp_path / "m.ckpt")
        image = np.zeros((2, 16, 16))
        image[1, 2, 3] = np.inf
        write_embedding_dir(tmp_path / "inf", {"a": image, "b": np.ones((2, 16, 16))})
    bad_magic = tmp_path / "bad" / "a.tnsr"
    huge = tmp_path / "huge" / "a.tnsr"  # 2^31 x 2^31 x 4 elements: an int64 product wraps to 0
    for path, head in ((bad_magic, b"XXXX\x01\x01" + (2).to_bytes(4, "little")),
                       (huge, b"TNSR\x01\x03" + b"".join(d.to_bytes(4, "little") for d in (2**31, 2**31, 4)))):
        path.parent.mkdir()
        path.write_bytes(head + bytes(16))
    mixed = tmp_path / "mixed"  # a good tile, then a bad one: neither may leave a file behind
    mixed.mkdir()
    save_tnsr(mixed / "a.tnsr", np.zeros((2, 4, 4)))
    (mixed / "b.tnsr").write_bytes(bad_magic.read_bytes())
    one_patch = tmp_path / "one_patch.json"  # 0.4 x 1 patch rounds to no masked patch
    one_patch.write_text(json.dumps({"model": {**json.loads(Path(cfg).read_text())["model"],
                                               "image_side": 8, "mask_ratio": 0.4}}))
    no_mask = f"{one_patch}: section 'model': mask_ratio 0.4 masks none of the 1 patches"
    archive, climate, _ = write_sampling_inputs(tmp_path)
    huge_grid = tmp_path / "huge.grid"
    huge_grid.write_bytes(climate.read_bytes().replace(b'"cols": 1', b'"cols": 10000000000')
                          .replace(b'"rows": 1', b'"rows": 10000000000'))
    empty_grid = tmp_path / "empty.grid"  # no codes to read, yet too large to shape
    empty_grid.write_bytes(climate.read_bytes().replace(b'"cols": 1', b'"cols": 1' + b"0" * 30)
                           .replace(b'"rows": 1', b'"rows": 0'))
    trailing_grid = tmp_path / "trailing.grid"  # the 1 x 1 raster with a second row appended
    trailing_grid.write_bytes(climate.read_bytes() + (1).to_bytes(2, "little"))
    latin1_archive = tmp_path / "latin1.csv"  # the id on line 4 holds a byte that is not UTF-8
    latin1_archive.write_bytes(archive.read_bytes().replace(b"\nt002,", b"\nt\xe902,"))
    latin1_labels = tmp_path / "latin1_labels.csv"
    latin1_labels.write_bytes(b"id,labels\na,A\nb,\xffB\n")
    latin1_cfg = tmp_path / "latin1.json"
    latin1_cfg.write_bytes(b'{"model": {"seed": 1}}\xff')
    # 1 PiB or more: above the 47-bit user address space, so the allocation
    # fails before any byte is touched, whatever the overcommit mode
    huge_model = tmp_path / "huge_model.json"
    taken = tmp_path / "taken"  # a directory where an output file should go
    taken.mkdir()
    resumed = tmp_path / "a.ckpt"  # not a checkpoint: reading it would fail first
    resumed.write_bytes(b"junk\n")
    Path(f"{resumed}.opt").write_bytes(b"junk\n")
    resume_argv = ["pretrain-toy", "--config", cfg, "--data-dir", str(tmp_path / "out"),
                   "--resume", str(resumed), "--checkpoint", str(tmp_path / "m.ckpt")]
    huge_model.write_text(json.dumps({"model": {**json.loads(Path(cfg).read_text())["model"],
                                                "enc_dim": 2**40}}))
    if case == "eval_retrieval_zero_projection":  # every projected CLS row is zero: NaN once normalized
        model = init_model(mini_config())
        model.params["proj.weight"].data[...] = 0.0
        save_checkpoint(model, tmp_path / "m.ckpt")
        write_embedding_dir(tmp_path / "images", {"a": np.ones((2, 16, 16)), "b": np.ones((2, 16, 16))})
    argv, code, message = {
        "label_row_without_labels": (
            ["eval-retrieval", "--queries", str(emb), "--gallery", str(emb),
             "--labels", str(labels), "--task", "S1>S1"], 2, f"{labels}: row 3 has no labels field"),
        "sentinel_not_a_number": (
            ["split-tiles", "--input", str(emb), "--output", str(tmp_path / "out"), "--sentinel", "abc"],
            1, "argument --sentinel: invalid float value: 'abc'"),
        "grad_check_step_zero": (["grad-check", "--config", cfg, "--step", "0"], 2,
                                 "step must be finite and > 0, got 0.0"),
        "grad_check_step_nan": (["grad-check", "--config", cfg, "--step", "nan"], 2,
                                "step must be finite and > 0, got nan"),
        "grad_check_max_checked_zero": (["grad-check", "--config", cfg, "--max-checked", "0"], 2,
                                        "max_checked must be >= 1, got 0"),
        "resume_empty": (["pretrain-toy", "--config", cfg, "--data-dir", str(emb), "--resume", "",
                          "--checkpoint", str(tmp_path / "out"), "--log", str(tmp_path / "l.jsonl")], 2,
                         "--resume needs a checkpoint path, got an empty string"),
        "grad_check_tolerance_nan": (["grad-check", "--config", cfg, "--tolerance", "nan",
                                      "--out", str(tmp_path / "out")], 2,
                                     "--tolerance must be finite and >= 0, got nan"),
        "grad_check_tolerance_negative": (["grad-check", "--config", cfg, "--tolerance", "-1",
                                           "--out", str(tmp_path / "out")], 2,
                                          "--tolerance must be finite and >= 0, got -1.0"),
        "synthesize_negative": (["pretrain-toy", "--config", cfg, "--data-dir", str(tmp_path / "out"),
                                 "--synthesize", "-2", "--checkpoint", str(tmp_path / "m.ckpt"),
                                 "--log", str(tmp_path / "l.jsonl")], 2, "--synthesize must be >= 0, got -2"),
        "split_tiles_patch_zero": (["split-tiles", "--input", str(emb), "--output", str(tmp_path / "out"),
                                    "--patch", "0"], 2, "--patch must be >= 1, got 0"),
        "split_tiles_patch_negative": (["split-tiles", "--input", str(emb), "--output", str(tmp_path / "out"),
                                        "--patch", "-3"], 2, "--patch must be >= 1, got -3"),
        # checked before the (missing) checkpoint, the labels or any embedding is read
        "eval_retrieval_k_zero": (["eval-retrieval", "--checkpoint", str(tmp_path / "missing.ckpt"),
                                   "--queries", str(emb), "--gallery", str(emb), "--labels", str(labels),
                                   "--task", "S1>S1", "--k", "0"], 2, "--k must be >= 1, got 0"),
        "eval_retrieval_nan_embedding": (["eval-retrieval", "--queries", str(tmp_path / "nan"),
                                          "--gallery", str(emb), "--labels", str(good_labels),
                                          "--task", "S1>S1", "--out", str(tmp_path / "out")], 2,
                                         f"{tmp_path / 'nan' / 'a.tnsr'}: embedding has non-finite values"),
        "eval_retrieval_inf_pixel": (["eval-retrieval", "--checkpoint", str(tmp_path / "m.ckpt"),
                                      "--queries", str(tmp_path / "inf"), "--gallery", str(tmp_path / "inf"),
                                      "--labels", str(good_labels), "--task", "S1>S1",
                                      "--out", str(tmp_path / "out")], 2,
                                     f"{tmp_path / 'inf' / 'a.tnsr'}: image has non-finite pixels"),
        # a usage error: rejected before the (missing) checkpoint or any input is read
        "eval_retrieval_strategy_misspelled": (["eval-retrieval", "--checkpoint", str(tmp_path / "missing.ckpt"),
                                                "--queries", str(emb), "--gallery", str(emb),
                                                "--labels", str(labels), "--task", "S1>S1",
                                                "--strategy", "onlycls"], 1,
                                               "argument --strategy: invalid choice: 'onlycls'"),
        "split_tiles_bad_magic": (["split-tiles", "--input", str(bad_magic.parent), "--output", str(tmp_path / "out")],
                                  2, f"{bad_magic}: not a TNSR1 block (bad magic)"),
        "split_tiles_good_then_bad": (["split-tiles", "--input", str(mixed), "--output", str(tmp_path / "out"),
                                       "--patch", "2"], 2, f"{mixed / 'b.tnsr'}: not a TNSR1 block (bad magic)"),
        "pretrain_mask_hides_no_patch": (["pretrain-toy", "--config", str(one_patch), "--data-dir", str(tmp_path / "out"),
                                          "--synthesize", "2", "--checkpoint", str(tmp_path / "out" / "m.ckpt"),
                                          "--log", str(tmp_path / "out" / "l.jsonl")], 2, no_mask),
        "grad_check_mask_hides_no_patch": (["grad-check", "--config", str(one_patch), "--out", str(tmp_path / "out")],
                                           2, no_mask),
        "flops_mask_hides_no_patch": (["flops", "--config", str(one_patch), "--out", str(tmp_path / "out")], 2, no_mask),
        "eval_retrieval_bad_magic": (["eval-retrieval", "--queries", str(bad_magic.parent), "--gallery", str(emb),
                                      "--labels", str(good_labels), "--task", "S1>S1", "--out", str(tmp_path / "out")],
                                     2, f"{bad_magic}: not a TNSR1 block (bad magic)"),
        "eval_retrieval_tnsr_count_overflows": (["eval-retrieval", "--queries", str(huge.parent), "--gallery", str(emb),
                                                 "--labels", str(good_labels), "--task", "S1>S1",
                                                 "--out", str(tmp_path / "out")], 2, f"{huge}: truncated TNSR1 payload"),
        "sample_grid_payload_overflows": (["sample", "--archive", str(archive), "--climate", str(huge_grid),
                                           "--thematic", str(huge_grid), "--out", str(tmp_path / "out")],
                                          2, f"{huge_grid}: truncated GRID1 payload"),
        "sample_grid_empty_yet_too_large": (["sample", "--archive", str(archive), "--climate", str(empty_grid),
                                             "--thematic", str(climate), "--out", str(tmp_path / "out")],
                                            2, f"{empty_grid}: GRID1 payload shape (0, 1{'0' * 30}) is too large"),
        "sample_grid_trailing_bytes": (["sample", "--archive", str(archive), "--climate", str(trailing_grid),
                                        "--thematic", str(climate), "--out", str(tmp_path / "out")],
                                       2, f"{trailing_grid}: trailing bytes after the GRID1 payload"),
        "eval_retrieval_zero_projection": (["eval-retrieval", "--checkpoint", str(tmp_path / "m.ckpt"),
                                            "--queries", str(tmp_path / "images"),
                                            "--gallery", str(tmp_path / "images"), "--labels", str(good_labels),
                                            "--task", "S1>S1", "--strategy", "norm_proj_cls",
                                            "--out", str(tmp_path / "out")], 2,
                                           f"{tmp_path / 'images' / 'a.tnsr'}: projected CLS row has zero norm"),
        "sample_archive_not_utf8": (["sample", "--archive", str(latin1_archive), "--climate", str(climate),
                                     "--thematic", str(climate), "--out", str(tmp_path / "out")], 2,
                                    f"{latin1_archive}: line 4 is not UTF-8 text"),
        "eval_retrieval_labels_not_utf8": (["eval-retrieval", "--queries", str(emb), "--gallery", str(emb),
                                            "--labels", str(latin1_labels), "--task", "S1>S1",
                                            "--out", str(tmp_path / "out")], 2,
                                           f"{latin1_labels}: line 3 is not UTF-8 text"),
        "config_not_utf8": (["flops", "--config", str(latin1_cfg), "--out", str(tmp_path / "out")], 2,
                            f"{latin1_cfg}: line 1 is not UTF-8 text"),
        "sample_population_out_of_memory": (["sample", "--archive", str(archive), "--climate", str(climate),
                                             "--thematic", str(climate), "--out", str(tmp_path / "out"),
                                             "--pop", "10000000000000"], 2,
                                            "csmoe: error: out of memory: Unable to allocate 1.42 PiB"),
        "grad_check_enc_dim_out_of_memory": (["grad-check", "--config", str(huge_model),
                                              "--out", str(tmp_path / "out")], 2,
                                             "csmoe: error: out of memory: Unable to allocate 1.00 PiB"),
        # rejected before any input is read, so the GA never runs; "out" is the other output
        "sample_out_dir_missing": (["sample", "--archive", str(archive), "--climate", str(climate),
                                    "--thematic", str(climate), "--out", str(tmp_path / "missing" / "sel.csv"),
                                    "--report", str(tmp_path / "out")], 2,
                                   f"csmoe: error: --out {tmp_path / 'missing' / 'sel.csv'}: "
                                   f"{tmp_path / 'missing'} is not a directory"),
        "sample_report_dir_missing": (["sample", "--archive", str(archive), "--climate", str(climate),
                                       "--thematic", str(climate), "--out", str(tmp_path / "out"),
                                       "--report", str(tmp_path / "missing" / "rep.json")], 2,
                                      f"csmoe: error: --report {tmp_path / 'missing' / 'rep.json'}: "
                                      f"{tmp_path / 'missing'} is not a directory"),
        # output paths that cannot be written, or overwrite each other, are refused up front
        "sample_out_is_a_directory": (["sample", "--archive", str(archive), "--climate", str(climate),
                                       "--thematic", str(climate), "--out", str(taken),
                                       "--report", str(tmp_path / "out")], 2,
                                      f"csmoe: error: --out {taken} is a directory"),
        "sample_report_is_a_directory": (["sample", "--archive", str(archive), "--climate", str(climate),
                                          "--thematic", str(climate), "--out", str(tmp_path / "out"),
                                          "--report", str(taken)], 2,
                                         f"csmoe: error: --report {taken} is a directory"),
        "sample_out_is_the_report": (["sample", "--archive", str(archive), "--climate", str(climate),
                                      "--thematic", str(climate), "--out", str(tmp_path / "out"),
                                      "--report", str(taken / ".." / "out")], 2,
                                     f"csmoe: error: --report {taken / '..' / 'out'} names the same file "
                                     f"as --out {tmp_path / 'out'}"),
        "pretrain_checkpoint_is_a_directory": (["pretrain-toy", "--config", cfg, "--data-dir", str(tmp_path / "out"),
                                                "--synthesize", "6", "--epochs", "2", "--checkpoint", str(taken),
                                                "--log", str(tmp_path / "l.jsonl")], 2,
                                               f"csmoe: error: --checkpoint {taken} is a directory"),
        "pretrain_log_is_the_optimizer_state": (["pretrain-toy", "--config", cfg, "--data-dir", str(tmp_path / "out"),
                                                 "--synthesize", "6", "--epochs", "2",
                                                 "--checkpoint", str(tmp_path / "m.ckpt"),
                                                 "--log", str(tmp_path / "m.ckpt.opt")], 2,
                                                f"csmoe: error: --log {tmp_path / 'm.ckpt.opt'} names the same "
                                                f"file as --checkpoint {tmp_path / 'm.ckpt.opt'}"),
        # refused before the config is read, a model is built or the (missing) checkpoint is loaded
        "grad_check_out_is_a_directory": (["grad-check", "--config", cfg, "--out", str(taken)], 2,
                                          f"csmoe: error: --out {taken} is a directory"),
        "flops_out_is_a_directory": (["flops", "--config", str(latin1_cfg), "--out", str(taken)], 2,
                                     f"csmoe: error: --out {taken} is a directory"),
        "eval_retrieval_out_is_a_directory": (["eval-retrieval", "--checkpoint", str(tmp_path / "missing.ckpt"),
                                               "--queries", str(emb), "--gallery", str(emb),
                                               "--labels", str(good_labels), "--task", "S1>S1",
                                               "--out", str(taken)], 2,
                                              f"csmoe: error: --out {taken} is a directory"),
        # a log that names what the resume reads would be cut back to that file's first line
        "pretrain_log_is_the_resumed_checkpoint": (resume_argv + ["--log", str(resumed)], 2,
                                                   f"csmoe: error: --log {resumed} names the same file "
                                                   f"as --resume {resumed}"),
        "pretrain_log_is_the_resumed_optimizer_state": (resume_argv + ["--log", f"{resumed}.opt"], 2,
                                                        f"csmoe: error: --log {resumed}.opt names the same file "
                                                        f"as --resume {resumed}.opt"),
        # refused before the (bad) tile is read
        "split_tiles_output_is_a_file": (["split-tiles", "--input", str(bad_magic.parent), "--output", str(labels)],
                                         2, f"csmoe: error: --output {labels} is not a directory"),
    }[case]

    def tree():
        return {path: path.is_file() and path.read_bytes() for path in sorted(tmp_path.rglob("*"))}

    before = tree()
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "csmoe.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code and "Traceback" not in proc.stderr, proc.stderr
    assert message in proc.stderr and proc.stdout == ""
    assert not (tmp_path / "out").exists()
    assert tree() == before  # no file written or changed, nor any left behind
