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


class TestAnswerDigest:
    def test_draws_only_run_repeats_itself(self):
        res = run_script("answer_digest.py", "--seeds", "", "--draws", "4")
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        # the heuristic on every draw, the oracle on all four (T <= 5)
        assert [line.split()[0] for line in lines[:-1]] == [
            f"random/{6000 + i}/T{2 + i}/{engine}"
            for i in range(4) for engine in ("frh", "oracle")]
        for line in lines[:-1]:
            _, objective, lp_count, plan_hash, adjustments, degenerate = line.split()
            float(objective)
            assert int(lp_count) > 0
            assert len(plan_hash) == 16
            assert adjustments.startswith("[")
            assert degenerate in ("0", "1")
        assert lines[-1].split()[0] == "digest"
        again = run_script("answer_digest.py", "--seeds", "", "--draws", "4")
        assert again.stdout == res.stdout
