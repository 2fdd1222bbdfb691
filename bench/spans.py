"""In-memory spans for the traced benchmark run.

A span has a name, a start, an end and the id of the span that was open
when it began (its parent).  Untraced runs use a tracer whose ``span``
returns a shared null context, so end-to-end timings carry no tracing cost.

In a traced run, ``instrument`` replaces public functions of the program's
modules with thin wrappers that open a span around each call.  This reaches
the calls one layer makes into another (the sweep's masked detections, the
pipeline's windowing and scoring stages) without editing the program; the
original functions are put back by ``restore``.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

_NULL = contextlib.nullcontext()


class Tracer:
    """Span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._paused = False

    def span(self, name: str, **attrs):
        if not self.enabled:
            return _NULL
        return self._span(name, attrs)

    @contextlib.contextmanager
    def paused(self):
        """Record no spans inside: the checks call the program too."""
        was, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = was

    @contextlib.contextmanager
    def _span(self, name: str, attrs: dict):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        rec.update(attrs)
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Open span ``name`` around every call of ``owner.attr``.

        ``describe(args, kwargs, result)`` returns extra attributes for the
        span once the call has returned.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            if self._paused:
                return original(*args, **kwargs)
            with self._span(name, {}) as rec:
                result = original(*args, **kwargs)
                if describe is not None:
                    rec.update(describe(args, kwargs, result))
                return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- queries ---------------------------------------------------------

    def named(self, name: str, before: int | None = None, **match) -> list[dict]:
        """Spans called ``name`` with matching attributes, ids below ``before``."""
        return [
            s for s in self.spans[:before]
            if s["name"] == name and all(s.get(k) == v for k, v in match.items())
        ]

    def under(self, span: dict, name: str) -> list[dict]:
        """Spans called ``name`` anywhere below ``span``."""
        below = {span["id"]}
        out = []
        for s in self.spans[span["id"] + 1:]:
            if s["parent"] in below:
                below.add(s["id"])
                if s["name"] == name:
                    out.append(s)
        return out

    def dump(self, path) -> None:
        origin = self.spans[0]["start"] if self.spans else 0.0
        rows = []
        for s in self.spans:
            row = dict(s)
            row["start"] = s["start"] - origin
            row["end"] = s["end"] - origin
            rows.append(row)
        path.write_text(json.dumps({"spans": rows}, indent=0, default=str) + "\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def median_duration(spans: list[dict]) -> float:
    if not spans:
        raise ValueError("no spans to take a median of")
    return statistics.median(duration(s) for s in spans)


def instrument(tracer: Tracer, ws) -> None:
    """Put spans around the calls into each layer of the program.

    ``ws`` is the imported ``wavesaliency`` package namespace with its
    submodules loaded.  The names patched are the module attributes the
    program itself looks up at call time.
    """
    cube, config, pipeline = ws.cube, ws.config, ws.pipeline
    sampling, sim, spectrum = ws.sampling, ws.sim, ws.spectrum

    def sim_attrs(args, kwargs, result):
        return {"n1": result.n1, "steps": args[5] if len(args) > 5 else kwargs["step_count"]}

    def cube_attrs(args, kwargs, result):
        c = args[0] if isinstance(result, int) else result
        return {"n1": c.n1, "bytes": c.values.nbytes}

    def windows_attrs(args, kwargs, result):
        return {"n1": result.partition.n1, "active": result.active_count}

    def saliency_attrs(args, kwargs, result):
        mask = kwargs.get("mask")
        return {
            "n1": args[0].partition.n1,
            "masked": mask is not None,
            "window_len": result.window_len,
        }

    def masked_attrs(args, kwargs, result):
        mask = kwargs.get("mask")
        if mask is None:
            return {"n1": args[0].n1, "mask": None}
        return {
            "n1": args[0].n1,
            "mask": _mask_label(mask),
            "mask_key": mask.grid.tobytes().hex() + mask.sharing + str(mask.seed),
        }

    def sweep_attrs(args, kwargs, result):
        pattern = kwargs.get("pattern", "random")
        if pattern == "random" and kwargs.get("sharing", "shared") != "shared":
            pattern = "per_region"
        return {"n1": args[0].n1, "pattern": pattern, "trials": args[4]}

    def rows_attrs(args, kwargs, result):
        return {"sharing": args[0].sharing}

    tracer.wrap(sim, "simulate", "sim.simulate", sim_attrs)
    tracer.wrap(cube, "write_cube", "cube.write", cube_attrs)
    tracer.wrap(cube, "read_cube", "cube.read", cube_attrs)
    tracer.wrap(config, "load_scenario", "config.load_scenario")
    tracer.wrap(pipeline, "estimate_group_velocity", "windowing.estimate_group_velocity",
                lambda args, kwargs, result: {"n1": args[0].n1})
    tracer.wrap(pipeline, "extract_windows", "windowing.extract_windows", windows_attrs)
    tracer.wrap(pipeline, "saliency_map", "saliency.saliency_map", saliency_attrs)
    tracer.wrap(pipeline, "run_detection", "pipeline.run_detection")
    tracer.wrap(sampling, "run_detection", "pipeline.masked_detection", masked_attrs)
    tracer.wrap(sampling, "random_mask", "sampling.mask_build")
    tracer.wrap(sampling, "double_cross_mask", "sampling.mask_build")
    tracer.wrap(sampling.Mask, "row_indices", "sampling.row_indices", rows_attrs)
    tracer.wrap(sampling, "monte_carlo_sweep", "sampling.sweep", sweep_attrs)
    tracer.wrap(spectrum, "dft2_magnitude", "spectrum.dft2_magnitude")
    tracer.wrap(spectrum, "occupied_fraction", "spectrum.occupied_fraction")


def _mask_label(mask) -> str:
    if mask.kind == "double_cross":
        return f"cross_{mask.stride}"
    ratio = round(mask.retained_count / mask.grid.size, 2)
    return f"{'per_region' if mask.sharing != 'shared' else 'random'}_{ratio:g}"
