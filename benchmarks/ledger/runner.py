"""Spawn one worker process per run and collect its result."""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys

#: Checkout root: ``benchmarks/ledger/runner.py`` is two levels below it.
ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Hard cap on one worker; the slowest run (counted ``template_forks``)
#: takes well under a minute on the reference box.
WORKER_TIMEOUT_S = 170.0


class WorkerFailed(RuntimeError):
    """The worker crashed or printed no result."""


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` so a terminated front end unwinds
    through ``subprocess.run``, which kills and reaps the worker, instead
    of leaving it running."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def run_worker(
    workload: str,
    seed: int,
    mode: str = "plain",
    *,
    smoke: bool = False,
    hash_seed: int = 0,
    dump_dir: str | None = None,
    timeout_s: float = WORKER_TIMEOUT_S,
) -> dict:
    """Run one workload once in a fresh single-threaded interpreter.

    A worker that fails its correctness gate still returns its result
    (``gate.correct`` is false); only a crash, or no result within
    ``timeout_s``, raises.
    """
    if not (ROOT / "src" / "repro").is_dir():
        raise WorkerFailed(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    command = [
        sys.executable,
        "-m",
        "benchmarks.ledger.worker",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--mode",
        mode,
    ]
    if smoke:
        command.append("--smoke")
    if dump_dir is not None:
        command += ["--dump-dir", dump_dir]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    env["PYTHONHASHSEED"] = str(hash_seed)
    # One thread: BLAS/OpenMP pools would add cross-run noise for nothing.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(timeout_s, 0.0),
            check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload}/{mode}: no result in {timeout_s:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise WorkerFailed(
            f"{workload}/{mode}: worker exited {done.returncode}\n{done.stderr[-2000:]}"
        )
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise WorkerFailed(
            f"{workload}/{mode}: unreadable result\n{done.stderr[-2000:]}"
        ) from exc
