"""``BOMP_*`` environment variables: bad values are refused in one line.

A variable that takes a value is parsed where it is read, and a value it
does not accept raises :class:`~repro.env.EnvVarError` (a ``ValueError``)
naming the variable and the value; ``python -m repro`` prints that as a
single line.  The four retry-policy variables are gone: setting them
changes nothing.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.env import EnvVarError
from repro.experiments import ExperimentContext
from repro.nas import get_scale
from repro.parallel import RetryPolicy, TrialEngine

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(args, tmp_path, **env_vars):
    env = dict(os.environ, **env_vars, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "repro", *args],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=env, timeout=300)


class TestWorkers:
    @pytest.mark.parametrize("value", ["two", "0", "-1", "", "1.5"])
    def test_bad_value_refused(self, value, monkeypatch, tmp_path):
        monkeypatch.setenv("BOMP_WORKERS", value)
        with pytest.raises(ValueError) as info:
            ExperimentContext("unit", cache_dir=tmp_path)
        assert isinstance(info.value, EnvVarError)
        assert f"BOMP_WORKERS={value!r}" in str(info.value)

    def test_positive_integer_and_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("BOMP_WORKERS", "3")
        assert ExperimentContext("unit", cache_dir=tmp_path).workers == 3
        monkeypatch.delenv("BOMP_WORKERS")
        assert ExperimentContext("unit", cache_dir=tmp_path).workers == 1

    def test_cli_prints_one_line(self, tmp_path):
        proc = run_cli(["report", "fig2", "--scale", "unit"], tmp_path,
                       BOMP_WORKERS="two")
        assert proc.returncode == 1
        lines = proc.stderr.strip().splitlines()
        assert lines == ["repro: BOMP_WORKERS='two': expected a positive "
                         "integer"], proc.stderr


class TestProfile:
    def test_cli_prints_one_line(self, tmp_path):
        proc = run_cli(["search", "--scale", "unit", "--no-final-training",
                        "--trace-dir", str(tmp_path / "run"), "--quiet"],
                       tmp_path, BOMP_PROFILE="banana")
        assert proc.returncode == 1
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("repro: BOMP_PROFILE='banana'")


class TestScale:
    def test_cli_prints_one_line(self, tmp_path):
        proc = run_cli(["search", "--no-final-training", "--quiet"],
                       tmp_path, BOMP_SCALE="banana")
        assert proc.returncode == 1
        lines = proc.stderr.strip().splitlines()
        assert lines == ["repro: BOMP_SCALE='banana': expected one of "
                         "medium, paper, smoke, unit"], proc.stderr

    def test_only_the_environment_value_is_an_env_error(self, monkeypatch):
        monkeypatch.setenv("BOMP_SCALE", "banana")
        with pytest.raises(EnvVarError, match="BOMP_SCALE='banana'"):
            get_scale()
        with pytest.raises(ValueError) as info:
            get_scale("banana")      # an argument, not the variable
        assert not isinstance(info.value, EnvVarError)


class TestRetryVariablesRemoved:
    def test_no_environment_constructor(self):
        assert not hasattr(RetryPolicy, "from_env")

    def test_engine_ignores_old_variables(self, unit_config, tiny_dataset,
                                          monkeypatch):
        for name, value in (("BOMP_TRIAL_TIMEOUT", "abc"),
                            ("BOMP_MAX_RETRIES", "lots"),
                            ("BOMP_RETRY_BACKOFF", "-"),
                            ("BOMP_MAX_POOL_RESPAWNS", "x")):
            monkeypatch.setenv(name, value)
        engine = TrialEngine(unit_config, tiny_dataset, workers=1)
        assert engine.retry_policy == RetryPolicy()
