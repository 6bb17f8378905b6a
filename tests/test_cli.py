"""The command-line surface: configs, reports, exit codes, digests."""

import json
import re
from pathlib import Path

import pytest

from rcnet import checks as checks_mod
from rcnet.checks import CheckResult
from rcnet.cli import main
from rcnet.counting import CountReport
from rcnet.fixtures import synth_backbone
from rcnet.params import ParamStore
from rcnet.pyramid import (
    ContainerError,
    FeaturePyramid,
    HeaderError,
    load_pyramid,
    save_pyramid,
)

DESK_JSON = Path(__file__).parent.parent / "desk.json"


@pytest.fixture
def mini_cfg_file(tmp_path, mini_cfg):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(mini_cfg.to_dict()))
    return str(path)


def read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_invariants_subset_passes(mini_cfg_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "invariants",
            "--config", mini_cfg_file,
            "--out", str(out),
            "--checks", "boundary_rules,shift_routing,container_roundtrip",
        ]
    )
    assert code == 0
    report = read_report(out)
    assert report["schema"] == "rcnet-report/1"
    assert set(report["checks"]) == {"boundary_rules", "shift_routing", "container_roundtrip"}
    assert all(c["pass"] for c in report["checks"].values())


def test_unknown_check_rejected(mini_cfg_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["invariants", "--config", mini_cfg_file, "--out", str(out), "--checks", "no_such_check"]
    )
    assert code == 2
    report = read_report(out)
    assert report["schema"] == "rcnet-report/1"
    assert report["checks"] == {}
    assert "unknown checks" in report["error"]


def test_unknown_flag_exits_with_usage(mini_cfg, tmp_path, capsys):
    # a flag the subcommand does not read, and a bad config or seed, are
    # usage errors too: exit 2 with a usage message, never a traceback
    bad = tmp_path / "d63.json"
    bad.write_text(json.dumps({**mini_cfg.to_dict(), "d": 63}))
    for argv in [
        ["invariants", "--bogus"],
        ["invariants", "--reps", "10"],
        ["count", "--reps", "10"],
        ["forward", "rcnet", "--checks", "x"],
        ["gen-fixtures", "--checks", "x"],
        ["invariants", "--config", str(tmp_path / "missing.json")],
        ["invariants", "--config", str(bad)],
        ["invariants", "--seed", "-1"],
    ]:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        assert "usage" in capsys.readouterr().err, argv


def test_failed_check_still_writes_report(mini_cfg_file, tmp_path, monkeypatch):
    def doomed(cfg):
        return CheckResult("doomed", False, 1.0, 0.0)

    monkeypatch.setitem(checks_mod.INVARIANT_CHECKS, "doomed", doomed)
    out = tmp_path / "report.json"
    code = main(["invariants", "--config", mini_cfg_file, "--out", str(out), "--checks", "doomed"])
    assert code == 1
    assert read_report(out)["checks"]["doomed"]["pass"] is False


def test_a_check_named_twice_runs_once(mini_cfg_file, tmp_path, monkeypatch):
    ran = []
    for name in ("spy_a", "spy_b"):
        spy = lambda cfg, name=name: ran.append(name) or CheckResult(name, True, 0.0, 0.0)
        monkeypatch.setitem(checks_mod.INVARIANT_CHECKS, name, spy)
    out = tmp_path / "report.json"
    code = main(
        ["invariants", "--config", mini_cfg_file, "--out", str(out), "--checks", "spy_b,spy_a,spy_b"]
    )
    assert code == 0 and ran == ["spy_b", "spy_a"]
    assert list(read_report(out)["checks"]) == ["spy_b", "spy_a"]


def test_forward_same_seed_same_digest(mini_cfg_file, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(
            ["forward", "rcnet", "--config", mini_cfg_file, "--seed", "7", "--out", str(out)]
        ) == 0
        outs.append(read_report(out))
    assert outs[0]["digests"]["output"] == outs[1]["digests"]["output"]
    assert outs[0]["digests"] == outs[1]["digests"]


def test_forward_seed_changes_digest(mini_cfg_file, tmp_path):
    digests = []
    for seed in ("7", "8"):
        out = tmp_path / f"s{seed}.json"
        main(["forward", "rcnet", "--config", mini_cfg_file, "--seed", seed, "--out", str(out)])
        digests.append(read_report(out)["digests"]["output"])
    assert digests[0] != digests[1]


def test_forward_models_differ(mini_cfg_file, tmp_path):
    digests = {}
    for model in ("fpn", "revfp", "rcnet"):
        out = tmp_path / f"{model}.json"
        assert main(["forward", model, "--config", mini_cfg_file, "--out", str(out)]) == 0
        digests[model] = read_report(out)["digests"]["output"]
    assert len(set(digests.values())) == 3


def test_gen_fixtures_writes_loadable_container(mini_cfg_file, tmp_path, capsys):
    fpz = tmp_path / "backbone.fpz"
    code = main(["gen-fixtures", "--config", mini_cfg_file, "--fixtures", str(fpz)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"]["fixtures_roundtrip"]["pass"]
    pyr = load_pyramid(str(fpz))
    assert pyr.levels == [3, 4, 5]


def test_gen_fixtures_reports_a_failed_roundtrip(mini_cfg_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(FeaturePyramid, "equal_bitwise", lambda self, other: False)
    code = main(["gen-fixtures", "--config", mini_cfg_file, "--fixtures", str(tmp_path / "b.fpz")])
    assert code == 1
    check = json.loads(capsys.readouterr().out)["checks"]["fixtures_roundtrip"]
    assert check == {"pass": False, "measured": "mismatch", "tolerance": "bitwise"}


def test_missing_fixtures_path_is_a_usage_error(mini_cfg_file, tmp_path, capsys):
    # exit 1 would claim a failed check; an unopenable path is a usage error
    for argv, path in [
        (["forward", "fpn"], tmp_path / "does-not-exist.fpz"),
        (["gen-fixtures"], tmp_path / "missing_dir" / "b.fpz"),
    ]:
        with pytest.raises(SystemExit) as err:
            main(argv + ["--config", mini_cfg_file, "--fixtures", str(path)])
        assert err.value.code == 2, argv
        captured = capsys.readouterr()
        assert "usage" in captured.err and str(path) in captured.err, argv
        assert captured.out == "", argv


def test_unopenable_out_path_is_a_usage_error_before_any_check_runs(
    mini_cfg_file, tmp_path, monkeypatch, capsys
):
    # exit 1 would claim a failed check, and no check may run on a report it cannot write
    ran = []
    monkeypatch.setitem(checks_mod.INVARIANT_CHECKS, "spy", lambda cfg: ran.append(cfg))
    path = tmp_path / "missing_dir" / "r.json"
    with pytest.raises(SystemExit) as err:
        main(["invariants", "--config", mini_cfg_file, "--checks", "spy", "--out", str(path)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "usage" in captured.err and str(path) in captured.err
    assert captured.out == "" and ran == []


def test_config_the_forward_cannot_run_is_a_usage_error(tmp_path, capsys):
    # desk.json at a 16x16 base leaves a 1x1 top level at batch 1: one value
    # per channel for channel_norm, so no command may start on it
    raw = json.loads(DESK_JSON.read_text(encoding="utf-8"))
    raw["base_resolution"] = [16, 16]
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(raw))
    for argv in (["invariants"], ["count"], ["forward", "rcnet"], ["gen-fixtures"]):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--config", str(path), "--out", str(tmp_path / "r.json")])
        assert err.value.code == 2, argv
        captured = capsys.readouterr()
        assert "usage" in captured.err and "values per channel" in captured.err, argv
        assert not (tmp_path / "r.json").exists(), argv


def test_config_that_is_not_a_valid_config_file_is_a_usage_error(tmp_path, capsys):
    # a nesting past the recursion limit once escaped as a RecursionError,
    # and one width per level (levels 3..7) asks for a stemless backbone
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200000)
    raw = json.loads(DESK_JSON.read_text(encoding="utf-8"))
    raw["backbone_channels"] = [16, 32, 64, 64, 64]
    per_level = tmp_path / "per_level.json"
    per_level.write_text(json.dumps(raw))
    for path, fragment in [(nested, f"config {nested} is not valid JSON"), (per_level, "backbone_channels")]:
        for command in ("invariants", "count"):
            with pytest.raises(SystemExit) as err:
                main([command, "--config", str(path)])
            assert err.value.code == 2, (path, command)
            captured = capsys.readouterr().err
            assert "usage" in captured and fragment in captured, captured[-300:]


@pytest.mark.parametrize(
    "field, value",
    [("r", 0), ("seed", 7.5), ("d", 64.0), ("batch", True), ("base_resolution", [64.0, 64])],
)
def test_config_field_of_the_wrong_type_is_a_usage_error(field, value, tmp_path, capsys):
    # r = 0 once divided by zero; a float or bool passed validation and then
    # crashed later or ran as batch 1. Each is a usage error naming its field
    raw = json.loads(DESK_JSON.read_text(encoding="utf-8"))
    raw[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as err:
        main(["invariants", "--config", str(path), "--checks", "softmax_simplex", "--out", str(out)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "usage" in captured.err
    assert re.search(rf"[:;] {field}=[^;]* must be", captured.err), captured.err
    assert not out.exists()


def fixtures_usage_error(argv, capsys, message):
    """Run `argv`; require exit 2, no report, and `--fixtures: ` plus `message` on stderr."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage" in captured.err and f"--fixtures: {message}" in captured.err, captured.err


def test_bad_fixtures_container_raises_the_loader_error(mini_cfg_file, tmp_path, capsys):
    # a file that opens but is no container is a usage error that quotes the loader
    bad = tmp_path / "bad.fpz"
    bad.write_bytes(b"XXXX")
    with pytest.raises(ContainerError) as loader:
        load_pyramid(str(bad))
    argv = ["forward", "fpn", "--config", mini_cfg_file, "--fixtures", str(bad)]
    fixtures_usage_error(argv, capsys, str(loader.value))


def test_a_run_that_ends_in_an_error_leaves_out_as_it_was(mini_cfg_file, tmp_path):
    # --out was truncated before the run: an unopenable --fixtures path left
    # an empty file, and a container the loader rejects emptied an existing report
    out = tmp_path / "r.json"
    argv = ["forward", "fpn", "--config", mini_cfg_file, "--out", str(out), "--fixtures"]
    with pytest.raises(SystemExit) as err:
        main(argv + [str(tmp_path / "nope.fpz")])
    assert err.value.code == 2 and not out.exists()
    out.write_text("an earlier report")
    bad = tmp_path / "bad.fpz"
    bad.write_bytes(b"FPZ1" + (8).to_bytes(4, "little") + b"not json")
    with pytest.raises(HeaderError):
        load_pyramid(str(bad))
    with pytest.raises(SystemExit) as err:
        main(argv + [str(bad)])
    assert err.value.code == 2
    assert out.read_text() == "an earlier report"


def test_forward_accepts_saved_fixtures(mini_cfg_file, tmp_path, capsys):
    fpz = tmp_path / "backbone.fpz"
    main(["gen-fixtures", "--config", mini_cfg_file, "--fixtures", str(fpz)])
    capsys.readouterr()
    out = tmp_path / "fwd.json"
    assert main(
        ["forward", "revfp", "--config", mini_cfg_file, "--fixtures", str(fpz), "--out", str(out)]
    ) == 0
    direct = tmp_path / "fwd2.json"
    main(["forward", "revfp", "--config", mini_cfg_file, "--out", str(direct)])
    assert read_report(out)["digests"] == read_report(direct)["digests"]


def test_forward_rejects_fixtures_of_another_width(tmp_path, monkeypatch, capsys):
    # a desk-width container under --paper-width used to die inside a conv
    # with "input channels 64 != weight in-channels 2048"
    fpz = tmp_path / "b.fpz"
    assert main(["gen-fixtures", "--fixtures", str(fpz)]) == 0
    capsys.readouterr()

    def no_params(*args):
        raise AssertionError("a parameter was built before the container was checked")

    monkeypatch.setattr(ParamStore, "_add", no_params)
    out = tmp_path / "r.json"
    argv = ["forward", "rcnet", "--paper-width", "--fixtures", str(fpz), "--out", str(out)]
    fixtures_usage_error(argv, capsys, f"{fpz} level 3: input (1, 16, 64, 64), config (1, 512, 64, 64)")
    assert not out.exists()


def test_forward_rejects_fixtures_missing_a_stage(mini_cfg_file, mini_cfg, tmp_path, capsys):
    full = synth_backbone(mini_cfg)
    short = tmp_path / "short.fpz"
    save_pyramid(str(short), FeaturePyramid({i: full[i] for i in (3, 4)}))
    argv = ["forward", "fpn", "--config", mini_cfg_file, "--fixtures", str(short)]
    fixtures_usage_error(argv, capsys, f"{short} level 5: input absent, config (1, 16, 8, 8)")


def test_count_reports_zero_cost_shift(mini_cfg_file, tmp_path):
    out = tmp_path / "count.json"
    assert main(["count", "--config", mini_cfg_file, "--out", str(out)]) == 0
    report = read_report(out)
    row = report["counts"]["rows"]["csn/scale_shift"]
    assert row == {"params": 0, "macs": 0}
    assert report["checks"]["shift_zero_cost"]["pass"]
    assert set(report["counts"]["totals"]) == {"fpn", "revfp", "csn"}


def test_count_totals_check_catches_a_wrong_total(mini_cfg_file, tmp_path, monkeypatch):
    # the check must compare the totals with the rows, not with themselves
    total = CountReport.total

    def off_by_one(self, prefix=""):
        params, macs = total(self, prefix)
        return params + 1, macs

    monkeypatch.setattr(CountReport, "total", off_by_one)
    out = tmp_path / "count.json"
    assert main(["count", "--config", mini_cfg_file, "--out", str(out)]) == 1
    report = read_report(out)
    assert not report["checks"]["count_totals_consistent"]["pass"]
    assert report["checks"]["shift_zero_cost"]["pass"]


def test_bench_shift_report(mini_cfg_file, tmp_path):
    out = tmp_path / "bench.json"
    assert main(
        ["bench-shift", "--config", mini_cfg_file, "--reps", "10", "--out", str(out)]
    ) == 0
    report = read_report(out)
    assert report["checks"]["shift_dense_equal"]["pass"]
    assert report["bench"]["reps"] == 10


def test_grad_check_subset(mini_cfg_file, tmp_path):
    out = tmp_path / "grad.json"
    code = main(
        [
            "grad-check",
            "--config", mini_cfg_file,
            "--out", str(out),
            "--checks", "grad/conv2d,grad/softmax,grad/channel_norm",
        ]
    )
    assert code == 0
    report = read_report(out)
    assert set(report["checks"]) == {"grad/conv2d", "grad/softmax", "grad/channel_norm"}


def test_report_prints_to_stdout_by_default(mini_cfg_file, capsys):
    code = main(["invariants", "--config", mini_cfg_file, "--checks", "softmax_simplex"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "invariants"


def test_grad_check_runs_only_the_named_checks(mini_cfg_file, tmp_path, monkeypatch):
    calls = []
    real = checks_mod.check_gradients

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    def not_named(seed):
        raise AssertionError("end-to-end check ran without being named")

    monkeypatch.setattr(checks_mod, "check_gradients", counted)
    monkeypatch.setattr(checks_mod, "gradient_end_to_end_check", not_named)
    out = tmp_path / "grad.json"
    code = main(["grad-check", "--config", mini_cfg_file, "--out", str(out), "--checks", "grad/add"])
    assert code == 0
    assert set(read_report(out)["checks"]) == {"grad/add"}
    assert len(calls) == 1


def test_selected_op_check_matches_full_sweep():
    full = {c.name: c.measured for c in checks_mod.gradient_op_checks(seed=3)}
    (one,) = checks_mod.run_gradient_suite(3, ["grad/conv2d_stride2"])
    assert one.measured == full["grad/conv2d_stride2"]


@pytest.mark.parametrize("command", ["grad-check", "count", "invariants", "bench-shift"])
@pytest.mark.parametrize("selection", ["typo", ",", ""])
def test_unknown_or_empty_selection_rejected(mini_cfg_file, command, selection, capsys):
    assert main([command, "--config", mini_cfg_file, "--checks", selection]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "rcnet-report/1"
    assert report["command"] == command
    assert report["checks"] == {}
    assert re.search("unknown checks|empty check selection", report["error"])


@pytest.mark.parametrize("reps", ["3", "0", "-1", "x"])
def test_bench_shift_too_few_reps_is_a_usage_error(mini_cfg_file, reps, capsys):
    with pytest.raises(SystemExit) as err:
        main(["bench-shift", "--config", mini_cfg_file, "--reps", reps])
    assert err.value.code == 2
    assert "--reps" in capsys.readouterr().err


def test_forward_times_init_inputs_and_forward_apart(mini_cfg_file, tmp_path):
    out = tmp_path / "fwd.json"
    assert main(["forward", "rcnet", "--config", mini_cfg_file, "--out", str(out)]) == 0
    timings = read_report(out)["timings_ns"]
    assert set(timings) == {"init", "inputs", "forward"}
    assert all(v > 0 for v in timings.values())
