"""One benchmark client: a fresh process issuing hmmposterior CLI calls.

    python client.py SPEC.json     run the calls of SPEC in a closed loop
    python client.py --probe       time the package import and exit

The client calls ``hmmposterior.cli.main`` in-process, one call after the
other, and repeats the workload's call sequence while another iteration is
predicted to finish within the spec's ``seconds`` (always at least once).
A call still running when the spec's ``budget`` of seconds is spent is
stopped and counted as failed.  Each finished call is appended to the
spec's ``calls_log`` as it ends.  After every pass, untimed, the client
reads the pass's outputs into a compact record (``checks.py``).  At the end
it writes the spec's ``result`` file: import time, peak RSS, versions, the
record and invariant checks of each pass, and the spans when traced.

Only ``sys`` and ``time`` are imported before the package import is timed,
because that import is what every CLI user pays on every call, starting from
a bare interpreter.
"""

import sys
import time


def _import_package() -> float:
    start = time.perf_counter()
    import hmmposterior  # noqa: F401
    import hmmposterior.cli  # noqa: F401

    return time.perf_counter() - start


class CallTimeout(BaseException):
    """Raised by the alarm handler; not an Exception, so the CLI cannot map it."""


def _on_alarm(signum, frame):
    raise CallTimeout()


def _call(argv: list[str], timeout: float) -> dict:
    import contextlib
    import io
    import signal

    import hmmposterior.cli

    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    signal.setitimer(signal.ITIMER_REAL, timeout)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = hmmposterior.cli.main(argv)
    except CallTimeout:
        code, error = None, f"timed out after {timeout:g} s"
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # noqa: BLE001 - a raising call is a failed call
        code, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {
        "command": argv[0],
        "code": code,
        "seconds": seconds,
        "error": error,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue()[-2000:],
    }


def _versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def run(spec: dict, setup_s: float) -> dict:
    import json
    import resource
    import shutil
    import signal
    import statistics
    from pathlib import Path

    import hmmposterior

    import checks

    package = Path(hmmposterior.__file__).resolve()
    if not package.is_relative_to(Path(spec["src"]).resolve()):
        raise SystemExit(f"imported hmmposterior from {package}, not from {spec['src']}")
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()

    signal.signal(signal.SIGALRM, _on_alarm)
    out = Path(spec["out"])
    times: list[float] = []
    passes: list[dict] = []
    start = time.perf_counter()
    deadline = start + spec["budget"]
    with open(spec["calls_log"], "a") as log:
        for iteration in range(spec["max_iterations"]):
            shutil.rmtree(out, ignore_errors=True)
            elapsed = 0.0
            ok = True
            stdouts = []
            for argv in spec["calls"]:
                record = _call(argv, max(deadline - time.perf_counter(), 0.1))
                record["iteration"] = iteration
                log.write(json.dumps(record) + "\n")
                log.flush()
                elapsed += record["seconds"]
                ok = ok and record["code"] == 0
                stdouts.append(record["stdout"])
            if ok:
                times.append(elapsed)
            outputs, found = checks.inspect_outputs(spec["workload"], out, stdouts)
            passes.append({"iteration": iteration, "record": outputs, "checks": found})
            predicted = statistics.median(times) if times else elapsed
            if time.perf_counter() - start + predicted > spec["seconds"]:
                break

    result = {
        "setup_s": setup_s,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": _versions(),
        "passes": passes,
    }
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.spans
        result["absent"] = tracer.absent
    return result


def main() -> int:
    setup_s = _import_package()
    import json
    from pathlib import Path

    if sys.argv[1:] == ["--probe"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    spec = json.loads(Path(sys.argv[1]).read_text())
    result = run(spec, setup_s)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
