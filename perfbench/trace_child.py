"""One traced in-process run of a spinbath CLI command.

    PYTHONPATH=src python3 perfbench/trace_child.py SPANS_JSON CLI_ARG...

Imports spinbath, replaces the module attributes the pipeline calls with
span recorders (the package source is not edited), runs
``spinbath.cli.main(CLI_ARG...)`` and, when it returns, writes the spans,
the per-layer metrics derived from them and the exit code to SPANS_JSON.
Spans are kept in memory until then.  ``perfbench/run.py --trace 1`` starts
this script as a child process and puts the ``time.time()`` at which it
started it in $PERFBENCH_LAUNCH; the interpreter's start-up before the
first line here becomes the span ``interpreter.start``.  The parent times
the rest (writing the spans and the interpreter's exit) from ``end_wall``
to the moment the process ended.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter, time

T0, T0_WALL = perf_counter(), time()

# Layers wrapped wherever a spinbath module (or numpy.linalg) holds them:
# (defining module, attribute, span name).
LAYERS = [
    ("spinbath.bathgen", "generate_bath", "bathgen.generate_bath"),
    ("spinbath.bathgen", "cluster_bath", "bathgen.cluster_bath"),
    ("spinbath.hamiltonians", "build_system_hamiltonian",
     "hamiltonians.build_system_hamiltonian"),
    ("numpy.linalg", "eigh", "linalg.eigh"),
    ("spinbath.pulses", "compile_schedule", "pulses.compile_schedule"),
    ("spinbath.dynamics", "ensemble_signal", "dynamics"),
    ("spinbath.dynamics", "field_scan", "dynamics"),
]
MAX_GROUP = 3  # the workloads cluster with the default g = 3


class Tracer:
    """Spans as [name, start, end, parent index], times from T0."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.groups = {size: 0 for size in range(1, MAX_GROUP + 1)}
        self.pairs = 0
        self.max_dim = 0
        self.rotations_per_schedule = 0
        self.points_per_group = 0  # taus x fields x m_I variants

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter() - T0, None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter() - T0

    def wrap(self, name: str, fn):
        observe = getattr(self, "_observe_" + fn.__name__, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        return traced

    # counts read from the arguments and results at each boundary

    def _observe_cluster_bath(self, partition, *args, **kwargs):
        n = partition.n_spins
        if partition.g > 1:
            self.pairs += n * (n - 1) // 2
        for group in partition:
            if len(group) not in self.groups:
                raise ValueError(f"group of size {len(group)} exceeds "
                                 f"{MAX_GROUP}")
            self.groups[len(group)] += 1

    def _observe_build_system_hamiltonian(self, h, *args, **kwargs):
        self.max_dim = max(self.max_dim, h.shape[0])

    def _observe_compile_schedule(self, schedule, *args, **kwargs):
        self.rotations_per_schedule = max(self.rotations_per_schedule,
                                          len(schedule.rotations()))

    def _observe_run(self, config, fields: int):
        thermal = getattr(config.central, "m_i", 0) is None
        self.points_per_group = len(config.tau_grid) * fields * (
            3 if thermal else 1)

    def _observe_ensemble_signal(self, curve, config, *args, **kwargs):
        self._observe_run(config, 1)

    def _observe_field_scan(self, curves, config, *args, **kwargs):
        self._observe_run(config, len(curves))

    def install(self):
        """Replace every reference to each layer function in loaded modules."""
        modules = [m for name, m in sys.modules.items()
                   if name == "spinbath" or name.startswith("spinbath.")]
        modules.append(sys.modules["numpy.linalg"])
        for home, attr, name in LAYERS:
            original = getattr(sys.modules[home], attr)
            traced = self.wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, traced)

    def metrics(self) -> dict:
        """Self time and call count per layer, plus the derived counts."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, start, end, _), child_s in zip(self.spans, covered):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_s
            calls[name] = calls.get(name, 0) + 1
        out = {}
        for _, _, name in LAYERS:
            if name != "dynamics":
                out[name + ".s"] = self_s.get(name, 0.0)
                out[name + ".calls"] = calls.get(name, 0)
        evals = sum(self.groups.values()) * self.points_per_group
        dynamics_s = self_s.get("dynamics", 0.0)
        out.update({
            "bathgen.pairs": self.pairs,
            "hamiltonians.max_dim": self.max_dim,
            "pulses.rotations_per_schedule": self.rotations_per_schedule,
            "dynamics.self_s": dynamics_s,
            "dynamics.group_tau_evals": evals,
            "dynamics.rotations_applied": evals * self.rotations_per_schedule,
            "dynamics.evals_per_s": evals / dynamics_s if dynamics_s else 0.0,
            "cli.self_s": self_s.get("cli.main", 0.0),
            "import.s": self_s.get("import", 0.0),
        })
        for size, count in self.groups.items():
            out[f"bathgen.groups_size{size}"] = count
        return out

    def covered_s(self) -> float:
        """Wall time inside top-level spans (single-threaded, so disjoint)."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    launch = float(os.environ.get("PERFBENCH_LAUNCH", T0_WALL))
    tracer.spans.append(["interpreter.start", launch - T0_WALL, 0.0, -1])
    with tracer.span("import"):
        import numpy.linalg  # noqa: F401  (wrapped below)
        import spinbath.cli
    tracer.install()
    with tracer.span("cli.main"):
        code = spinbath.cli.main(cli_args)
    record = {"exit_code": code, "covered_s": tracer.covered_s(),
              "metrics": tracer.metrics(), "spans": tracer.spans,
              "end_wall": time()}
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
