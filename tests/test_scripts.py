"""The scripts under scripts/, run as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


class TestCompareOracle:
    def test_small_run_prints_the_table(self):
        # three cases draw one instance for each beta
        res = run_script("compare_oracle.py", "--cases", "3", "--max-T", "3")
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert lines[0].startswith("3 instances in ")
        assert lines[1].split() == ["beta", "cases", "mean", "dev", "%",
                                    "max", "dev", "%"]
        assert [line.split()[:2] for line in lines[2:]] == [
            ["0.0", "1"], ["0.1", "1"], ["0.5", "1"]]

    def test_beta_without_cases_is_left_out(self):
        res = run_script("compare_oracle.py", "--cases", "2", "--max-T", "3")
        assert res.returncode == 0, res.stderr
        assert [line.split()[0] for line in res.stdout.splitlines()[2:]] == [
            "0.0", "0.1"]

    def test_zero_cases_is_a_usage_error(self):
        res = run_script("compare_oracle.py", "--cases", "0")
        assert res.returncode == 2
        assert "--cases must be at least 1" in res.stderr
