"""Bad command-line input is refused in one line before any work starts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.obs import profile
from repro.parallel import RetryPolicy
from repro.obs.trace import read_events
from repro.resilience.checkpoint import CHECKPOINT_SCHEMA_VERSION

SEARCH = ["search", "--scale", "unit", "--no-final-training", "--quiet",
          "--trace-dir", "run", "--checkpoint-dir", "ckpt",
          "--out", "out.json"]
SERVE = ["serve", "--run-dir", "run"]
INFER = ["infer", "model.bomp"]
REPORT = ["report", "fig2", "--scale", "unit"]
SRC = str(Path(repro.__file__).resolve().parents[1])

BAD_ARGS = [
    (INFER, "--limit", "-1"),
    (INFER, "--limit", "0"),
    (INFER, "--batch-size", "0"),
    (SERVE, "--timeout-ms", "0"),
    (SERVE, "--timeout-ms", "inf"),
    (SERVE, "--slo-p99-ms", "nan"),
    (SERVE, "--max-wait-ms", "-1"),
    (SERVE, "--max-batch", "0"),
    (SERVE, "--queue-depth", "0"),
    (SERVE, "--workers-per-model", "0"),
    (SERVE, "--port", "70000"),
    (SERVE, "--port", "-1"),
    (SEARCH, "--ref-acc", "nan"),
    (SEARCH, "--ref-acc", "0"),
    (SEARCH, "--ref-size", "inf"),
    (SEARCH, "--policies-per-trial", "0"),
    (SEARCH, "--seed", "-1"),
    (SEARCH, "--trial-batch", "0"),
    (SEARCH, "--workers", "0"),
    (SEARCH, "--trial-timeout", "nan"),
    (REPORT, "--workers", "0"),
    (REPORT, "--seed", "-1"),
]


@pytest.fixture
def no_work(monkeypatch, tmp_path):
    """Run in an empty directory; fail fast should a command start work."""
    def started(*args, **kwargs):
        raise AssertionError("the command started work")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.BOMPNAS, "run", started)
    monkeypatch.setattr(cli, "ExperimentContext", started)
    monkeypatch.setattr("repro.serve.ServeDaemon", started)
    return tmp_path


class TestBadNumbers:
    @pytest.mark.parametrize(
        "command, flag, value", BAD_ARGS,
        ids=[f"{c[0]}{f}={v}" for c, f, v in BAD_ARGS])
    def test_refused_with_usage(self, command, flag, value, no_work,
                                capsys):
        with pytest.raises(SystemExit) as info:
            cli.main([*command, flag, value])
        assert info.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert error.startswith(f"repro {command[0]}: error: argument "
                                f"{flag}: "), error
        assert repr(value) in error
        assert list(no_work.iterdir()) == []

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_trial_timeout_at_or_below_zero_disables(self, value, no_work,
                                                     monkeypatch):
        class Stop(Exception):
            pass

        policies = []

        def run(nas, **kwargs):
            policies.append(kwargs["retry_policy"])
            raise Stop

        monkeypatch.setattr(cli.BOMPNAS, "run", run)
        with pytest.raises(Stop):
            cli.main([*SEARCH, "--trial-timeout", value])
        assert policies == [RetryPolicy(trial_timeout_s=None)]


class TestExportUnreadableSource:
    def test_missing_file_is_one_line(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(SystemExit) as info:
            cli.main(["export", str(missing)])
        message = str(info.value.code)
        assert message.startswith("export failed: ")
        assert str(missing) in message and "\n" not in message

    def test_non_json_file_is_one_line(self, tmp_path):
        garbage = tmp_path / "result.json"
        garbage.write_bytes(b"\xff\x00 not json")
        with pytest.raises(SystemExit, match="export failed: cannot read"):
            cli.main(["export", str(garbage)])


class TestNotARun:
    """A JSON file that is not a run, or no file at all, is refused with
    one line naming the file: ``inspect`` exits 1, ``export`` keeps its
    ``export failed:`` prefix."""

    @pytest.mark.parametrize("command", ["export", "inspect"])
    @pytest.mark.parametrize("payload", ["[]", '{"a": 1}'],
                             ids=["list", "object"])
    def test_json_that_is_not_a_run(self, command, payload, tmp_path):
        path = tmp_path / "result.json"
        path.write_text(payload)
        with pytest.raises(SystemExit) as info:
            cli.main([command, str(path)])
        message = info.value.code
        assert isinstance(message, str), message     # exit status 1
        assert message.startswith(f"{command} failed: ")
        assert str(path) in message and "\n" not in message
        assert "not a search result" in message

    @pytest.mark.parametrize("payload", [
        {"optimizer": 1},
        {"schema": CHECKPOINT_SCHEMA_VERSION, "config": {}, "batch_size": 1,
         "total_trials": 1, "batch_index": 0, "trials": [],
         "optimizer": {"seed_given": True, "rng_state": None},
         "dataset_spec": {"name": "x"}},
    ], ids=["fields-missing", "config-empty"])
    def test_export_of_a_checkpoint_that_is_not_one(self, payload,
                                                    tmp_path):
        """A payload with an ``optimizer`` key is read as a checkpoint;
        whatever it lacks, export names the file in one line."""
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SystemExit) as info:
            cli.main(["export", str(path)])
        message = info.value.code
        assert isinstance(message, str), message     # exit status 1
        assert message.startswith(
            f"export failed: {path}: invalid checkpoint")
        assert "\n" not in message

    def test_inspect_of_a_missing_file(self, tmp_path):
        missing = tmp_path / "missing.json"
        done = subprocess.run(
            [sys.executable, "-m", "repro", "inspect", str(missing)],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": SRC})
        assert done.returncode == 1
        lines = done.stderr.strip().splitlines()
        assert len(lines) == 1, done.stderr
        assert lines[0].startswith("inspect failed: ")
        assert str(missing) in lines[0]


class TestSearchProfileFlag:
    """``--profile`` installs a profiler; it never writes BOMP_PROFILE."""

    @pytest.mark.parametrize("environ", [None, "banana"])
    def test_profiles_without_touching_environment(self, environ, tmp_path,
                                                   monkeypatch):
        if environ is None:
            monkeypatch.delenv(profile.PROFILE_ENV, raising=False)
        else:
            monkeypatch.setenv(profile.PROFILE_ENV, environ)
        seen = []
        run = cli.BOMPNAS.run

        def spying_run(nas, *args, **kwargs):
            seen.append(os.environ.get(profile.PROFILE_ENV))
            return run(nas, *args, **kwargs)

        monkeypatch.setattr(cli.BOMPNAS, "run", spying_run)
        assert cli.main(["search", "--scale", "unit", "--workers", "1",
                         "--no-final-training", "--quiet", "--profile",
                         "--trace-dir", str(tmp_path / "run")]) == 0
        assert seen == [environ]
        assert os.environ.get(profile.PROFILE_ENV) == environ
        assert profile.current() is None
        kernels = [e for e in read_events(tmp_path / "run")
                   if e["type"] == "profile" and e["scope"] == "kernel"]
        assert {e.get("trial") for e in kernels} >= {0, 1, 2, 3}
