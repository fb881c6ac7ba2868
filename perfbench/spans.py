"""In-memory span recorder for the traced run.

The recorder measures each layer from outside: `install` rebinds the
public entry points of qsim, adversary, protocol, harness and cli (module
functions, class methods and methods) to wrappers that record a span per
call, and `restore` puts the originals back.  Nothing under src/ changes.
Spans live in flat arrays until the run ends.
"""
from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

# Public entry points wrapped in the traced run, named `<module>.<attribute>`
# or `<module>.<Class>.<method>`.
LAYERS = (
    "qsim.apply_gate",
    "qsim.measure_z",
    "qsim.measure_x",
    "qsim.measure_bell",
    "qsim.x_probabilities",
    "adversary.attack_p1",
    "adversary.attack_p2",
    "adversary.honest_p1_announcement",
    "protocol.round_distribution",
    "protocol.SessionPlan.build",
    "protocol.run_session",
    "protocol.run_round",
    "protocol.run_round_statevector",
    "harness.run_experiment",
    "harness.RunReport.to_csv",
    "harness.RunReport.to_json",
    "harness.verify_identities",
    "harness.emit_tables",
    "cli.main",
)

# Counts taken from a layer's return value: layer -> (counter, function).
COUNTERS = {
    "harness.run_experiment": ("harness.sessions", lambda report: len(report.sessions)),
    "harness.RunReport.to_csv": ("harness.RunReport.to_csv.bytes", lambda text: len(text.encode())),
}

# The span the benchmark opens around each call; its self time is the
# benchmark's own share of the traced call time.
ROOT = "bench.call"
# Call id of spans opened outside any benchmark call.
NO_CALL = -(2**31)


class Recorder:
    """Spans as parallel arrays: name id, start and end (ns), parent index
    (-1 for none) and the benchmark call id the span belongs to."""

    def __init__(self):
        self.names: list[str] = [ROOT]
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.call = array("i")
        self.counters = {counter: 0 for counter, _ in COUNTERS.values()}
        self.call_id = NO_CALL
        self._open = [-1]

    @contextmanager
    def root(self, call_id: int):
        """The root span of one benchmark call; spans inside it carry `call_id`."""
        self.call_id = call_id
        index = self.open(0)
        try:
            yield
        finally:
            self.close(index)
            self.call_id = NO_CALL

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._open[-1])
        self.call.append(self.call_id)
        self.end.append(0)
        self._open.append(index)
        self.start.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self._open.pop()

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counter, count = COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter is not None:
                self.counters[counter] += count(result)
            return result

        return traced


def _owners():
    from qsdc import adversary, cli, harness, protocol, qsim

    return {
        "qsim": qsim,
        "adversary": adversary,
        "protocol": protocol,
        "protocol.SessionPlan": protocol.SessionPlan,
        "harness": harness,
        "harness.RunReport": harness.RunReport,
        "cli": cli,
    }


def install(recorder: Recorder):
    """Wrap every layer in LAYERS; returns the originals for `restore`."""
    owners = _owners()
    saved = []
    for layer in LAYERS:
        owner_name, _, attr = layer.rpartition(".")
        owner = owners[owner_name]
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(recorder.wrap(layer, raw.__func__))
        else:
            wrapped = recorder.wrap(layer, raw)
        setattr(owner, attr, wrapped)
        saved.append((owner, attr, raw))
    return saved


def restore(saved) -> None:
    for owner, attr, raw in saved:
        setattr(owner, attr, raw)


def self_times(start, end, parent):
    """Each span's duration minus the union of its children's intervals,
    clipped to the span.  Inputs are equal-length sequences; the result is
    a float64 array in the unit of `start` and `end`."""
    import numpy as np

    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = (end - start).astype(np.float64)
    child = np.flatnonzero(parent >= 0)
    if child.size == 0:
        return duration
    p = parent[child]
    lo = np.maximum(start[child], start[p])
    hi = np.minimum(end[child], end[p])
    order = np.lexsort((lo, p))
    p, lo, hi = p[order], lo[order], hi[order]
    # Running maximum of earlier siblings' ends, reset at each parent: shift
    # each parent's group above the previous one so the maximum cannot leak.
    base = min(lo.min(), hi.min())
    span = int(max(lo.max(), hi.max()) - base) + 1
    group = np.cumsum(np.r_[0, p[1:] != p[:-1]])
    shifted = np.maximum.accumulate(hi - base + group * span)
    reach = np.r_[np.int64(-1), shifted[:-1]] - group * span + base
    first = np.r_[True, p[1:] != p[:-1]]
    reach[first] = lo[first]
    covered = np.maximum(hi - np.maximum(lo, reach), 0)
    return duration - np.bincount(p, weights=covered, minlength=start.size)


def summarize(recorder: Recorder, call_ids) -> dict:
    """Per-call `.calls`, `.self_s` and `.share` of each layer and of the
    benchmark's root span, over the spans of the given calls."""
    import numpy as np

    selected = np.isin(np.asarray(recorder.call), list(call_ids))
    self_ns = self_times(recorder.start, recorder.end, recorder.parent)[selected]
    name_id = np.asarray(recorder.name_id)[selected]
    n_names = len(recorder.names)
    calls = np.bincount(name_id, minlength=n_names)
    self_s = np.bincount(name_id, weights=self_ns, minlength=n_names) / 1e9
    n_calls = int(calls[0])
    duration = np.asarray(recorder.end)[selected] - np.asarray(recorder.start)[selected]
    call_s = float(duration[name_id == 0].sum()) / 1e9
    metrics = {"trace.call_s": call_s / n_calls}
    for name_index, name in enumerate(recorder.names):
        key = "bench" if name == ROOT else name
        if name != ROOT:
            metrics[f"{key}.calls"] = int(calls[name_index]) / n_calls
        metrics[f"{key}.self_s"] = float(self_s[name_index]) / n_calls
        metrics[f"{key}.share"] = float(self_s[name_index]) / call_s
    metrics["trace.share_sum"] = float(self_s.sum()) / call_s
    return metrics


def save(recorder: Recorder, path) -> None:
    """Write every span to a compressed .npz file."""
    import numpy as np

    np.savez_compressed(
        path,
        names=np.array(recorder.names),
        name_id=np.asarray(recorder.name_id),
        start_ns=np.asarray(recorder.start),
        end_ns=np.asarray(recorder.end),
        parent=np.asarray(recorder.parent),
        call=np.asarray(recorder.call),
    )
