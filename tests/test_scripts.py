import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_canonical_suite_script(tmp_path):
    proc = run_script(
        "run_canonical_suite.py", "--seeds", "2", "--out", str(tmp_path / "canon")
    )
    assert proc.returncode == 0, proc.stderr
    assert "exit status 0" in proc.stdout
    assert (tmp_path / "canon" / "report.json").exists()


def test_margin_survey_script():
    proc = run_script(
        "margin_survey.py", "--seeds", "3", "--checks",
        "est:f0-Norm_SPid,qi:neumann_relation",
    )
    assert proc.returncode == 0, proc.stderr
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    assert len(lines) == 2
    assert all("min" in l and "median" in l for l in lines)


def test_same_bytes_fixture_under_six_dispatch_environments():
    # OpenBLAS kernels, glibc's libm variants and numpy's SIMD dispatch,
    # each forced through the child's environment, give one run_id
    proc = run_script("same_bytes.py", "--fixture-only")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line.split("\t") for line in proc.stdout.splitlines()]
    assert len(rows) == 6 and {r[0] for r in rows} == {"fixture"}
    assert len({r[2] for r in rows}) == 1


def test_bench_pairs_rejects_a_single_pair(tmp_path):
    # the checkouts do not exist: the count is rejected before they are read
    out = tmp_path / "BENCH_x.json"
    proc = run_script(
        "bench_pairs.py", "--before", str(tmp_path / "a"), "--after",
        str(tmp_path / "b"), "--pairs", "1", "--out", str(out),
    )
    assert proc.returncode == 2
    assert "--pairs" in proc.stderr
    assert not out.exists()


def test_bench_pairs_source_hash_names_the_code(tmp_path):
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    files = {"src/pkg/__init__.py": b"", "src/pkg/core.py": b"X = 1\n",
             "src/pkg/sub/more.py": b"def f():\n    return 2\n"}
    for tree in ("a", "b"):
        for rel, data in files.items():
            path = tmp_path / tree / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
    digest = bench_pairs.source_sha256(tmp_path / "a")
    assert len(digest) == 64
    assert bench_pairs.source_sha256(tmp_path / "b") == digest
    (tmp_path / "b" / "src/pkg/core.py").write_bytes(b"X = 2\n")
    assert bench_pairs.source_sha256(tmp_path / "b") != digest
