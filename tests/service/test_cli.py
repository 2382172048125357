"""``repro-serve`` CLI smoke: argument handling and end-to-end output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service.cli import build_parser, generate_requests, main

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def test_main_runs_a_small_load(capsys):
    code = main(
        [
            "--requests", "12",
            "--unique", "4",
            "--cycles", "25",
            "--seed", "7",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "drained 12 results" in out
    assert "requests/s" in out
    assert "coalesce factor" in out
    assert "hit rate" in out


def test_generator_is_deterministic_and_pool_bounded():
    a = generate_requests(20, 5, 30, seed=3, device_model="exact")
    b = generate_requests(20, 5, 30, seed=3, device_model="exact")
    assert [r.cache_key() for r in a] == [r.cache_key() for r in b]
    assert len({r.cache_key() for r in a}) <= 5


def test_invalid_arguments_fail_fast(capsys):
    assert main(["--requests", "0"]) == 2
    for execution in ("warp", "thread"):
        with pytest.raises(SystemExit) as exit_info:
            main(["--execution", execution])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
    parser = build_parser()
    assert parser.prog == "repro-serve"


def test_module_entry_point_subprocess():
    """`python -m repro.service.cli` is the uninstalled spelling of the
    repro-serve console script; one tiny end-to-end run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.service.cli",
            "--requests", "8", "--unique", "3", "--cycles", "20",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "drained 8 results" in proc.stdout
    assert "coalesce factor" in proc.stdout


def test_listen_and_drive_validation(capsys):
    assert main(["--listen", "nonsense"]) == 2
    assert main(["--drive", "ftp://x:1"]) == 2
    assert main(["--listen", "127.0.0.1:0", "--drive", "http://x:1"]) == 2
    assert main(["--tenants", "0"]) == 2
    assert main(["--client-threads", "0"]) == 2


def test_generator_spreads_tenants_round_robin():
    requests = generate_requests(
        9, 3, 20, seed=5, device_model="exact", tenants=3
    )
    assert [r.tenant for r in requests[:4]] == [
        "tenant-0", "tenant-1", "tenant-2", "tenant-0",
    ]


def test_listen_serve_drive_end_to_end():
    """The CI smoke, in miniature: launch `repro-serve --listen` on an
    ephemeral port, drive open-loop HTTP load against it with
    `repro-serve --drive`, and require a clean drain."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service.cli",
            "--listen", "127.0.0.1:0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        banner = server.stdout.readline()
        assert "listening on http://" in banner, banner
        url = banner.split("listening on ")[1].split()[0]
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.service.cli",
                "--drive", url,
                "--requests", "24", "--unique", "6",
                "--cycles", "25", "--tenants", "2",
                "--client-threads", "4",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "drained 24 responses" in proc.stdout
        assert "p99" in proc.stdout
        assert "http_errors=0" in proc.stdout
    finally:
        server.terminate()
        server.wait(timeout=30)
