"""Feed the CLI inputs that are wrong on purpose and check how each run ends.

Usage::

    PYTHONPATH=src python tools/mutate_inputs.py

Every run goes through ``wavesaliency.cli.main`` in this process, with a
20 s alarm, on ``bench1_ci`` and the cube it simulates:

* each ``key = value`` line of ``bench1_ci.cfg`` set in turn to each of
  ``BAD_VALUES``, through ``detect``, ``sweep`` and ``simulate`` (the plate
  is square, so no one-line edit grows its grid past 129 nodes);
* each option of ``FLAGS`` set to each of ``BAD_VALUES``;
* cube files from ``cube_edits``: truncated, with trailing bytes, a bad
  magic or version, ``n1`` or ``t_len`` of 0, a ``dx`` or ``dt`` that is
  NaN, negative, infinite, 5e-324 or 1.7e308, ``dx = 1e-200`` with ``dt =
  1e200`` (a probe speed that underflows), a NaN sample, and the payload
  scaled by 2**600 and 2**-600, each through ``detect``, ``sweep`` and
  ``spectrum``;
* ``spectrum`` on the good cube with ``WAVESALIENCY_THREADS`` set to each
  of ``THREAD_VALUES``.  The variable and the pool variables it sets are
  restored after each run.  A value that is accepted, however large,
  starts no thread: numpy's pools already exist in this process, so no
  such run may move to a child process.

One line per run gives its verdict, exit code, stderr line count, warning
count and command.  A run passes when it exits with a documented code (0 to
5), raises no exception, emits no ``RuntimeWarning`` (numpy's
floating-point warnings among them) and prints at most one stderr line;
argparse's usage error, exit 2 after a ``usage:`` line, passes too.  The
script exits 1 if any run fails, else 0.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import signal
import struct
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

from wavesaliency.cli import POOL_ENV_VARS, THREAD_ENV_VAR, main
from wavesaliency.config import bundled_config_path

BAD_VALUES = ("0", "-1", "1e308", "1e-308", "0.5", "2.5", "1e999", "nan",
              "1234567890123456789012", "3", "abc", "", "1e-5", "-0")
# Digits that ``str.isdigit`` passes but that are not ASCII: a superscript
# two, and an Arabic-Indic three that C's ``atoi`` reads as 0.
THREAD_VALUES = (*BAD_VALUES, "\u00b2", "\u0663")

ALARM_SECONDS = 20
DOCUMENTED = {0, 1, 2, 3, 4, 5}

# The fixed arguments of each command beside the inputs under test.
SWEEP = ("--trials", "1")

# Each option with the command line it is added to; {cube}, {cfg} and
# {out} are filled in per run.
FLAGS = {
    "--rank": ("detect", "{cube}", "{cfg}", "{out}"),
    "--tw": ("detect", "{cube}", "{cfg}", "{out}"),
    "--ratio": ("detect", "{cube}", "{cfg}", "{out}"),
    "--theta": ("detect", "{cube}", "{cfg}", "{out}"),
    "--ratios": ("sweep", "{cube}", "{cfg}", "{out}.csv", *SWEEP),
    "--trials": ("sweep", "{cube}", "{cfg}", "{out}.csv", "--ratios", "0.5"),
    "--stride": ("sweep", "{cube}", "{cfg}", "{out}.csv", *SWEEP, "--pattern", "cross"),
    "--snapshot": ("spectrum", "{cube}", "{out}"),
    "--floor-db": ("spectrum", "{cube}", "{out}"),
    "--compare-ratio": ("spectrum", "{cube}", "{out}"),
}

_HEADER = struct.Struct("<4sIIIIdd")  # magic, version, n1, n2, t_len, dx, dt


class _Timeout(BaseException):
    """Raised by the alarm; a BaseException, so no ``except Exception`` eats it."""


def _on_alarm(signum, frame):
    raise _Timeout


def run(argv: list[str]) -> tuple[object, list[str], list[str]]:
    """(exit code or what ended the run, stderr lines, RuntimeWarning texts)."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        signal.alarm(ALARM_SECONDS)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
        except _Timeout:
            code = "timeout"
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.alarm(0)
    found = [f"{w.filename}:{w.lineno}: {w.message}" for w in caught
             if issubclass(w.category, RuntimeWarning)]
    return code, err.getvalue().splitlines(), found


def problems(code, err: list[str], found: list[str]) -> list[str]:
    """What breaks the rule of the module docstring; empty when the run passes."""
    out = [f"warning {w}" for w in found]
    if code == 2 and err and err[0].startswith("usage:"):
        return out
    if code not in DOCUMENTED:
        out.append(f"exit {code}")
    if len(err) > 1:
        out.append(f"{len(err)} stderr lines")
    return out


@contextlib.contextmanager
def thread_setting(value: str):
    """``THREAD_ENV_VAR`` set to ``value``; it and ``POOL_ENV_VARS`` restored after."""
    saved = {name: os.environ.get(name) for name in (THREAD_ENV_VAR, *POOL_ENV_VARS)}
    os.environ[THREAD_ENV_VAR] = value
    try:
        yield
    finally:
        for name, old in saved.items():
            if old is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = old


def config_mutations(text: str):
    """(key, value, text) for each key line of ``text`` set to each bad value."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        match = re.match(r"(\w+) = ", line)
        if not match:
            continue
        for value in BAD_VALUES:
            edited = f"{match.group(1)} = {value}".rstrip()
            yield match.group(1), value, "\n".join(lines[:i] + [edited] + lines[i + 1:])


def cube_edits(blob: bytes):
    """(name, bytes) of every broken copy of a WVC1 file."""
    head = _HEADER.size
    fields = dict(zip(("magic", "version", "n1", "n2", "t_len", "dx", "dt"),
                      _HEADER.unpack(blob[:head])))

    def header(**changes):
        return _HEADER.pack(*{**fields, **changes}.values()) + blob[head:]

    def payload(values):
        return blob[:head] + values.astype("<f8").tobytes()

    yield "truncated payload", blob[:-8]
    yield "truncated header", blob[:head - 1]
    yield "trailing bytes", blob + bytes(8)
    yield "bad magic", header(magic=b"WVC2")
    yield "bad version", header(version=2)
    yield "n1 = 0", header(n1=0)
    yield "t_len = 0", header(t_len=0)
    for name in ("dx", "dt"):
        for value in (float("nan"), -1.0, float("inf"), 5e-324, 1.7e308):
            yield f"{name} = {value!r}", header(**{name: value})
    yield "dx = 1e-200 and dt = 1e200", header(dx=1e-200, dt=1e200)
    values = np.frombuffer(blob[head:], dtype="<f8")
    with_nan = values.copy()
    with_nan[with_nan.size // 2] = np.nan
    yield "NaN sample", payload(with_nan)
    for power in (600, -600):
        yield f"payload x 2**{power}", payload(np.ldexp(values, power))


def main_sweep() -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    verdicts = Counter()
    codes = Counter()
    with tempfile.TemporaryDirectory(prefix="mutate_inputs_") as tmp:
        work = Path(tmp)
        good_cfg, cube = bundled_config_path("bench1_ci"), work / "bench1_ci.wvc"
        base = good_cfg.read_text()
        if run(["simulate", str(good_cfg), str(cube)])[0] != 0:
            print("error: bench1_ci does not simulate", file=sys.stderr)
            return 1
        out = str(work / "out")

        def check(label: str, argv: list[str]) -> None:
            code, err, found = run(argv)
            bad = problems(code, err, found)
            verdict = "FAIL" if bad else "ok"
            verdicts[verdict] += 1
            codes[code if isinstance(code, int) else "other"] += 1
            print(f"{verdict:5} exit={code} stderr={len(err)} warnings={len(found)} {label}")
            if bad:
                for line in [*err, *bad]:
                    print(f"      {line}")

        cfg = work / "mutated.cfg"
        for key, value, text in config_mutations(base):
            cfg.write_text(text)
            where = f"with {key} = {value!r}"
            check(f"detect {where}", ["detect", str(cube), str(cfg), out])
            check(f"sweep {where}", ["sweep", str(cube), str(cfg), f"{out}.csv", *SWEEP])
            check(f"simulate {where}", ["simulate", str(cfg), str(work / "sim.wvc")])

        names = {"cube": str(cube), "cfg": str(good_cfg), "out": out}
        for flag, command in FLAGS.items():
            for value in BAD_VALUES:
                argv = [part.format(**names) for part in command] + [flag, value]
                check(f"{command[0]} {flag} {value}", argv)

        broken = work / "broken.wvc"
        for name, blob in cube_edits(cube.read_bytes()):
            broken.write_bytes(blob)
            for argv in (["detect", str(broken), str(good_cfg), out],
                         ["sweep", str(broken), str(good_cfg), f"{out}.csv", *SWEEP],
                         ["spectrum", str(broken), out]):
                check(f"{argv[0]} on a cube with {name}", argv)

        for value in THREAD_VALUES:
            with thread_setting(value):
                check(f"spectrum with {THREAD_ENV_VAR}={value!r}", ["spectrum", str(cube), out])

    print(f"{sum(verdicts.values())} runs: {verdicts['ok']} ok, "
          f"{verdicts['FAIL']} failed; exit codes "
          + ", ".join(f"{code}: {n}" for code, n in sorted(codes.items(), key=str)))
    return 1 if verdicts["FAIL"] else 0


if __name__ == "__main__":
    sys.exit(main_sweep())
