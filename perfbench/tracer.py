"""Per-layer tracing of polymf from outside the library.

The tracer wraps the public functions named in spec.json and rebinds
every alias of each one in every loaded ``polymf`` module (``tensor``
imports ``kron`` from ``matrix`` and ``mat_mul`` via ``factorization``,
``cli`` imports ``verify_exact``, and so on), so a call is counted
whichever module makes it.  Methods are wrapped on their class.

For each wrapped layer it counts calls, inclusive time and self time
(inclusive time minus the time of wrapped calls made inside it).  Layers
marked ``"spans": true`` also record a span (name, start, end, parent
span, job id) kept in memory and written out as JSON lines at the end;
the hot ``Polynomial`` methods and the parser are counted only, since a
span per call would cost more than the call.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from polymf.factorization import DEFAULT_TRIALS, MatrixFactorization

_VERIFY_LAYERS = ("factorization.verify_exact", "factorization.verify_randomized")


@dataclass
class LayerStats:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    trials: int = 0


def _nnz(m) -> int:
    return sum(1 for row in m.entries for e in row if e)


class Tracer:
    def __init__(self, layers: list[dict]):
        self.layers = [spec for spec in layers if "wraps" in spec]
        self.stats = {spec["layer"]: LayerStats() for spec in self.layers}
        self.spans: list[dict] = []
        self.active = False
        self._t0 = perf_counter()
        self._stack: list[list[float]] = []  # child time of each open wrapped call
        self._span: int | None = None  # innermost open span
        self._job: int | None = None
        self._next_span = 0
        self._restore: list[tuple[object, str, object]] = []
        # Stage accounting: verification done inside pipeline calls.
        self._pipeline_depth = 0
        self._verified: list[MatrixFactorization] = []
        self.pipeline_s = 0.0
        self.pipeline_verify_s = 0.0
        self.pipeline_verifications = 0
        self.useful_verifications = 0
        self.densities: list[float] = []
        # Pairs seen during the current job, measured by settle() once the
        # job's timed call is over and then dropped.
        self._pending_spans: list[tuple[dict, MatrixFactorization]] = []
        self._pending_results: list[MatrixFactorization] = []

    # -- installing the wrappers ------------------------------------------

    @contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._restore):
                setattr(owner, attr, original)
            self._restore.clear()

    def _install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "polymf" or name.startswith("polymf.")]
        for spec in self.layers:
            module_name, target = spec["wraps"].split(":")
            module = importlib.import_module(f"polymf.{module_name}")
            if "." in target:
                cls_name, attr = target.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(spec, raw.__func__))
                else:
                    wrapped = self._wrap(spec, raw)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(module, target)
            wrapper = self._wrap(spec, original)
            rebound = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
                        rebound += 1
            if rebound == 0:
                raise RuntimeError(f"{spec['wraps']}: no binding found to wrap")

    def _wrap(self, spec: dict, fn):
        if spec.get("spans"):
            return self._span_wrapper(spec, fn)
        stats = self.stats[spec["layer"]]
        tracer = self

        def counted(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stats.calls += 1
                stats.incl_s += dt
                stats.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        return counted

    def _span_wrapper(self, spec: dict, fn):
        name = spec["layer"]
        stats = self.stats[name]
        is_verify = name in _VERIFY_LAYERS
        is_pipeline = bool(spec.get("pipeline"))
        tracer = self

        def spanned(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id, parent = tracer._next_span, tracer._span
            tracer._next_span += 1
            tracer._span = span_id
            if is_pipeline:
                tracer._pipeline_depth += 1
                if tracer._pipeline_depth == 1:
                    tracer._verified = []
            stack = tracer._stack
            frame = [0.0]
            stack.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stack.pop()
                tracer._span = parent
                stats.calls += 1
                stats.incl_s += dt
                stats.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if name == "factorization.verify_randomized":
                    stats.trials += kwargs.get("trials", args[1] if len(args) > 1 else DEFAULT_TRIALS)
                if is_verify and tracer._pipeline_depth > 0:
                    tracer.pipeline_verify_s += dt
                    tracer.pipeline_verifications += 1
                    tracer._verified.append(args[0])
                if is_pipeline:
                    tracer._pipeline_depth -= 1
                    if tracer._pipeline_depth == 0 and isinstance(result, MatrixFactorization):
                        tracer.pipeline_s += dt
                        tracer._pending_results.append(result)
                        if any(result is mf for mf in tracer._verified):
                            tracer.useful_verifications += 1
                span = {
                    "id": span_id, "name": name, "start": t0 - tracer._t0, "end": t1 - tracer._t0,
                    "parent": parent, "job": tracer._job,
                }
                tracer.spans.append(span)
                # The pair is measured in settle(), so that counting its
                # nonzeros costs nothing inside the timed calls.
                pair = result if isinstance(result, MatrixFactorization) else (
                    args[0] if args and isinstance(args[0], MatrixFactorization) else None
                )
                if pair is not None:
                    tracer._pending_spans.append((span, pair))

        return spanned

    # -- jobs ---------------------------------------------------------------

    @contextmanager
    def job(self, job_id: int, kind: str):
        """Trace one benchmark operation as a root span."""
        span_id = self._next_span
        self._next_span += 1
        self._job, self._span = job_id, span_id
        self.active = True
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self.active = False
            self._job = self._span = None
            self.spans.append({
                "id": span_id, "name": f"job.{kind}", "start": t0 - self._t0, "end": t1 - self._t0,
                "parent": None, "job": job_id,
            })

    def settle(self) -> None:
        """Record size and nonzeros of the pairs the last job produced or
        verified, and drop the references; call it outside the timed call."""
        for span, mf in self._pending_spans:
            span["size"] = mf.size
            span["nnz"] = [_nnz(mf.phi), _nnz(mf.psi)]
        for mf in self._pending_results:
            self.densities.append((_nnz(mf.phi) + _nnz(mf.psi)) / (2 * mf.size * mf.size))
        self._pending_spans.clear()
        self._pending_results.clear()
        self._verified = []

    # -- results ------------------------------------------------------------

    def summary(self, jobs: int) -> dict[str, float]:
        """Per-layer metrics, with counts and times per traced job."""
        out: dict[str, float] = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls / jobs
            out[f"{name}.incl_s"] = st.incl_s / jobs
            out[f"{name}.self_s"] = st.self_s / jobs
        out["factorization.verify_randomized.trials"] = (
            self.stats["factorization.verify_randomized"].trials / jobs
        )
        verify_s = self.pipeline_verify_s
        out["stage.construct_s"] = (self.pipeline_s - verify_s) / jobs
        out["stage.verify_s"] = verify_s / jobs
        out["stage.verify_share"] = verify_s / self.pipeline_s if self.pipeline_s else 0.0
        out["factorization.verify.useful_ratio"] = (
            self.useful_verifications / self.pipeline_verifications
            if self.pipeline_verifications else 0.0
        )
        out["matrix.density"] = statistics.fmean(self.densities) if self.densities else 0.0
        return out

    def alias_check(self, workload: str) -> list[str]:
        """Layers whose call count contradicts spec.json for this workload."""
        problems = []
        for spec in self.layers:
            calls = self.stats[spec["layer"]].calls
            if workload in spec["called_on"] and calls == 0:
                problems.append(f"{spec['layer']} recorded no calls on {workload}")
            if workload in spec["idle_on"] and calls > 0:
                problems.append(f"{spec['layer']} recorded {calls} calls on {workload}, expected none")
        return problems

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
