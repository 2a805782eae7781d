"""Span tracer for the chcontrol package, installed from outside it.

``install`` wraps the public entry points of each package module so that
every call records one span: name, start, end and parent span. Spans stay
in flat in-memory arrays during the pass and are written once it ends.
Counts that the spans cannot give (Newton iterations, sweep lengths,
accepted optimizer steps) are read from the values the wrapped calls
return. Nothing under ``src/`` is modified.

A function imported with ``from .x import y`` is a separate binding in
every importing module, so each wrapper is rebound in every loaded
``chcontrol`` module that holds the original object; class methods are
wrapped on the class.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import weakref
from array import array

import numpy as np

# (module, attribute, span name) of each wrapped function or method
TRACED = (
    ("cli", "run", "cli.run"),
    ("cli", "parse_config", "cli.parse_config"),
    ("state", "solve_state", "state.solve_state"),
    ("system", "StepSolver.solve", "system.solve"),
    ("kernels", "solve_block_tridiag", "kernels.solve_block_tridiag"),
    ("fields", "laplacian_neumann", "fields.laplacian_neumann"),
    ("fields", "write_snapshot", "fields.write_snapshot"),
    ("fields", "write_trajectory", "fields.write_trajectory"),
    ("linearized", "solve_linearized", "linearized.solve_linearized"),
    ("adjoint", "solve_adjoint", "adjoint.solve_adjoint"),
    ("objective", "reduced_cost", "objective.reduced_cost"),
    ("objective", "TauProfile.__init__", "objective.TauProfile"),
    ("objective", "TauProfile.value", "objective.TauProfile"),
    ("objective", "TauProfile.derivative", "objective.TauProfile"),
    ("objective", "TauProfile.node_values", "objective.TauProfile"),
    ("objective", "TauProfile.minimize", "objective.TauProfile"),
    ("optimizer", "optimize", "optimizer.optimize"),
    ("verification", "fd_gradient_check", "verification.gradient"),
    ("verification", "duality_check", "verification.duality"),
    ("verification", "lipschitz_check", "verification.lipschitz"),
    ("verification", "mass_balance_check", "verification.mass"),
)
CHECKS = ("gradient", "duality", "lipschitz", "mass")
SOLVES = ("state.solve_state", "linearized.solve_linearized", "adjoint.solve_adjoint")
FIELD_WRITES = ("fields.write_snapshot", "fields.write_trajectory")


class Tracer:
    """In-memory span store plus the counters read from return values."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.failed = array("b")
        self._stack = [-1]
        self.counts = {
            "state.steps": 0, "state.newton_iters": 0, "system.transpose_solves": 0,
            "linearized.steps": 0, "adjoint.steps": 0,
            "optimizer.outer_iters": 0, "optimizer.accepted_steps": 0,
        }
        self._adjoint_state = None  # weak reference to the last optimizer state
        # sizes are read in metrics(), once the pass has ended, so that the
        # stat calls do not count as time of the still-open parent span
        self._snapshot_paths: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, on_return=None):
        """Return ``fn`` recording one span per call under ``name``."""
        name_id = self._name_id(name)
        parent, names, start, end, failed = (self.parent, self.name, self.start,
                                             self.end, self.failed)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(parent)
            parent.append(stack[-1])
            names.append(name_id)
            end.append(0)
            failed.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[sid] = 1
                raise
            finally:
                end[sid] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def _in(self, name: str) -> bool:
        """Whether the innermost open span is called ``name``."""
        top = self._stack[-1]
        return top >= 0 and self.names[self.name[top]] == name

    # -- counters read from return values -----------------------------------

    def _after_solve_state(self, args, kwargs, traj):
        iters = traj.diagnostics.newton_iters
        self.counts["state.steps"] += len(iters)
        self.counts["state.newton_iters"] += int(iters.sum())

    def _after_step_solve(self, args, kwargs, result):
        if kwargs.get("transpose", args[4] if len(args) > 4 else False):
            self.counts["system.transpose_solves"] += 1

    def _after_write_snapshot(self, args, kwargs, result):
        self._snapshot_paths.append(kwargs.get("path", args[0] if args else None))

    def _after_linearized(self, args, kwargs, traj):
        self.counts["linearized.steps"] += traj.nframes - 1

    def _after_adjoint(self, args, kwargs, traj):
        self.counts["adjoint.steps"] += traj.nframes - 1
        if self._in("optimizer.optimize"):
            # each accepted Armijo step replaces the optimizer's state, and
            # the next outer iteration solves the adjoint on the new one
            state = kwargs.get("state", args[1] if len(args) > 1 else None)
            if self._adjoint_state is not None and self._adjoint_state() is not state:
                self.counts["optimizer.accepted_steps"] += 1
            self._adjoint_state = weakref.ref(state)

    def _after_optimize(self, args, kwargs, result):
        self.counts["optimizer.outer_iters"] += result.history[-1].iteration + 1
        self._adjoint_state = None

    def hooks(self):
        return {
            "state.solve_state": self._after_solve_state,
            "system.solve": self._after_step_solve,
            "fields.write_snapshot": self._after_write_snapshot,
            "linearized.solve_linearized": self._after_linearized,
            "adjoint.solve_adjoint": self._after_adjoint,
            "optimizer.optimize": self._after_optimize,
        }

    # -- results --------------------------------------------------------------

    def arrays(self):
        """Span columns as numpy arrays (times in ns from perf_counter_ns)."""
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        name = np.frombuffer(self.name, dtype=np.int64).copy()
        start = np.frombuffer(self.start, dtype=np.int64).copy()
        end = np.frombuffer(self.end, dtype=np.int64).copy()
        failed = np.frombuffer(self.failed, dtype=np.int8).copy()
        return parent, name, start, end, failed

    def write(self, path, pass_id: int) -> None:
        parent, name, start, end, failed = self.arrays()
        np.savez_compressed(
            path, pass_id=np.full(len(parent), pass_id, dtype=np.int64),
            span_id=np.arange(len(parent)), parent=parent, name=name,
            start_ns=start, end_ns=end, failed=failed,
            names=np.array(self.names))

    def metrics(self) -> dict:
        """Per-layer counts, busy times and self times of the pass."""
        parent, name, start, end, failed = self.arrays()
        n = len(parent)
        dur = (end - start) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        ids = {nm: i for i, nm in enumerate(self.names)}

        def mask(*names):
            sel = [ids[nm] for nm in names if nm in ids]
            return np.isin(name, sel)

        parents = parent.tolist()

        def has_ancestor(i, anc):
            p = parents[i]
            while p >= 0:
                if anc[p]:
                    return True
                p = parents[p]
            return False

        def outermost(m):
            """Spans in ``m`` with no ancestor in ``m`` (no double counting)."""
            keep = m.copy()
            for i in np.flatnonzero(m):
                keep[i] = not has_ancestor(i, m)
            return keep

        def count(*names):
            return int(mask(*names).sum())

        def busy(*names):
            return float(dur[outermost(mask(*names))].sum())

        def self_s(*names):
            return float(self_time[mask(*names)].sum())

        def under(ancestor_names, names):
            """Spans in ``names`` with an ancestor in ``ancestor_names``."""
            anc = mask(*ancestor_names)
            return sum(has_ancestor(i, anc) for i in np.flatnonzero(mask(*names)))

        def per_call_us(total_s, calls):
            return total_s / calls * 1e6 if calls else 0.0

        c = self.counts
        m = {}
        m["state.solves"] = count("state.solve_state")
        m["state.steps"] = c["state.steps"]
        m["state.newton_iters"] = c["state.newton_iters"]
        m["state.newton_per_step"] = (c["state.newton_iters"] / c["state.steps"]
                                      if c["state.steps"] else 0.0)
        m["state.busy_s"] = busy("state.solve_state")
        m["state.self_s"] = self_s("state.solve_state")
        m["state.failures"] = int(failed[mask("state.solve_state")].sum())

        m["system.solves"] = count("system.solve")
        m["system.transpose_solves"] = c["system.transpose_solves"]
        m["system.busy_s"] = busy("system.solve")
        m["system.self_s"] = self_s("system.solve")
        m["system.solve_us"] = per_call_us(m["system.busy_s"], m["system.solves"])

        m["kernels.block_solves"] = count("kernels.solve_block_tridiag")
        m["kernels.busy_s"] = busy("kernels.solve_block_tridiag")
        m["kernels.solve_us"] = per_call_us(m["kernels.busy_s"],
                                            m["kernels.block_solves"])

        m["fields.laplacian_calls"] = count("fields.laplacian_neumann")
        m["fields.snapshots_written"] = count("fields.write_snapshot")
        m["fields.bytes_written"] = sum(os.path.getsize(path)
                                        for path in self._snapshot_paths)
        m["fields.write_s"] = busy(*FIELD_WRITES)

        for layer, fn in (("linearized", "solve_linearized"),
                          ("adjoint", "solve_adjoint")):
            span = f"{layer}.{fn}"
            m[f"{layer}.sweeps"] = count(span)
            m[f"{layer}.steps"] = c[f"{layer}.steps"]
            m[f"{layer}.busy_s"] = busy(span)
            m[f"{layer}.self_s"] = self_s(span)

        m["objective.cost_evals"] = count("objective.reduced_cost")
        m["objective.cost_s"] = busy("objective.reduced_cost")
        m["objective.tau_evals"] = count("objective.TauProfile")
        m["objective.tau_search_s"] = busy("objective.TauProfile")

        optimize_solves = under(("optimizer.optimize",), ("state.solve_state",))
        m["optimizer.outer_iters"] = c["optimizer.outer_iters"]
        # the first forward solve of each optimize call is its starting state
        m["optimizer.trial_solves"] = optimize_solves - count("optimizer.optimize")
        m["optimizer.accepted_steps"] = c["optimizer.accepted_steps"]
        m["optimizer.accept_ratio"] = (m["optimizer.accepted_steps"]
                                       / m["optimizer.trial_solves"]
                                       if m["optimizer.trial_solves"] else 0.0)
        m["optimizer.self_s"] = self_s("optimizer.optimize")

        for check in CHECKS:
            m[f"verification.{check}_s"] = busy(f"verification.{check}")
        m["verification.oracle_solves"] = under(
            tuple(f"verification.{check}" for check in CHECKS), SOLVES)

        m["cli.parse_s"] = busy("cli.parse_config")
        m["cli.self_s"] = self_s("cli.run")
        m["trace.spans"] = n
        return m


def _resolve(module, dotted):
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer) -> None:
    """Wrap every entry in TRACED; the package must already be imported."""
    hooks = tracer.hooks()
    package = [mod for key, mod in list(sys.modules.items())
               if key == "chcontrol" or key.startswith("chcontrol.")]
    for module_name, attr, span in TRACED:
        module = sys.modules[f"chcontrol.{module_name}"]
        owner, leaf = _resolve(module, attr)
        original = owner.__dict__[leaf]
        wrapped = tracer.wrap(original, span, hooks.get(span))
        if isinstance(owner, type):
            setattr(owner, leaf, wrapped)
            continue
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def reconcile(m: dict) -> str | None:
    """Every step solve is one Newton iteration (polish included), one
    linearized step or one adjoint step. Returns a message on mismatch."""
    rhs = m["state.newton_iters"] + m["linearized.steps"] + m["adjoint.steps"]
    if m["system.solves"] != rhs:
        return (f"system.solves {m['system.solves']} != state.newton_iters "
                f"{m['state.newton_iters']} + linearized.steps {m['linearized.steps']}"
                f" + adjoint.steps {m['adjoint.steps']}")
    return None
