"""One repetition of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json

The job names the CLI argument lists to pass to ``stochvi.cli.main`` in
order with their subcommands, whether to trace, and where to write the
result (and the spans, when tracing).  Import time is measured here because
every CLI invocation pays it.

An untraced repetition also measures the speed of the processor it runs on
(``HostSpeed``), so that run.py can state its times at a fixed reference
speed; see the README.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import signal
import sys
import time
import traceback
from pathlib import Path


# Calibration kernels and their durations at the reference speed.  The
# pure-Python one runs while ``stochvi.cli`` is imported, before numpy is
# loaded; the numpy one, which tracks the CLI calls' mix of interpreter work
# and small array operations more closely, runs during the calls.
# REFERENCE_S only fixes the scale: the kernels' fastest times on the 2-vCPU
# VM the README describes.
SAMPLE_INTERVAL_S = 0.01
REFERENCE_S = {"python": 125e-6, "numpy": 103e-6}


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y

    def step(self, h):
        return _Point(self.x - h * self.y, self.y + h * self.x)


def python_kernel():
    p, out = _Point(1.0, 0.5), []
    for _ in range(400):
        p = p.step(0.01)
        out.append(p.x)
    return sum({i: v for i, v in enumerate(out)}.values())


def numpy_kernel_factory():
    import numpy

    a, v0 = numpy.eye(20) * 0.5, numpy.ones(20)

    def kernel():
        v = v0.copy()
        for _ in range(60):
            v = v - 0.1 * (a @ v)
        return float(v[0])

    return kernel


class HostSpeed:
    """Runs a fixed calibration kernel from a SIGALRM handler every
    SAMPLE_INTERVAL_S, between the bytecodes of whatever is being timed, so
    that the kernel sees the same processor speed as the timed work.  A
    section's time, less the kernel time spent inside it, is divided by its
    kernel's mean duration over REFERENCE_S: the time the section would have
    taken at the reference speed."""

    def __init__(self):
        self.kernel, self.samples = None, []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - start)

    def start(self, kind: str, kernel) -> None:
        self.kind, self.kernel, self.samples = kind, kernel, []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self, elapsed: float) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        spent = sum(self.samples)
        # a section shorter than the interval takes one sample after it ends
        if not self.samples:
            self._sample(None, None)
        mean = sum(self.samples) / len(self.samples)
        measured = elapsed - spent
        return {"measured_s": measured, "samples": len(self.samples), "kernel_s": mean,
                "s": measured * REFERENCE_S[self.kind] / mean}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    trace = job["trace"]
    result: dict = {"rep": job["rep"], "trace": trace}

    speed = None if trace else HostSpeed()
    if speed:
        speed.start("python", python_kernel)
    t0 = time.perf_counter()
    if trace:
        import scipy.optimize  # noqa: F401  (timed on its own for cli.import_scipy_s)

        result["import_scipy_s"] = time.perf_counter() - t0
    import stochvi.cli

    elapsed = time.perf_counter() - t0
    if speed:
        result["setup"] = speed.stop(elapsed)
        elapsed = result["setup"]["measured_s"]
    result["setup_s"] = elapsed

    tracer = None
    if trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer(job["rep"])
        tracer.install()

    calls = []
    if speed:
        speed.start("numpy", numpy_kernel_factory())
    t0 = time.perf_counter()
    for argv, sub in zip(job["steps"], job["subcommands"]):
        out, err = io.StringIO(), io.StringIO()
        span = (tracer.timed(f"cli.main[{sub}]") if tracer
                else contextlib.nullcontext())
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                code = stochvi.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = -1
            err.write(traceback.format_exc())
        calls.append({"argv": argv, "code": code, "s": time.perf_counter() - start,
                      "stdout": out.getvalue(), "stderr": err.getvalue()})
    elapsed = time.perf_counter() - t0
    result["calls"] = calls
    if speed:
        result["wall"] = speed.stop(elapsed)
        elapsed = result["wall"]["measured_s"]
    result["wall_s"] = elapsed
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.summary()
        result["counters"] = tracer.counters
        tracer.save(job["spans_path"])
    result["env"] = environment()
    Path(job["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
