"""Out-of-tree tracer for the wrp layers.

The tracer wraps public (and a few private) functions of the ``wrp``
modules from outside, so ``src/wrp`` itself carries no instrumentation.
Because modules import names with ``from .x import y``, one function can
be bound under many names; :meth:`Tracer.install` replaces every binding
of each original in every loaded ``wrp.*`` module, in the ``RUNNERS``
table and, for ``tensor``, on every ``JetMap`` subclass, and
:meth:`Tracer.self_check` asserts that none of them still holds an
original.

Two kinds of wrapped call are recorded:

* spans (unit, runner and operator boundaries) keep name, start, end,
  parent span and trace id (the scenario unit);
* kernel calls (``tensor``, ``op_norm``, ``Weight.__call__`` and other
  high-frequency helpers) are not kept one by one; they add their count
  and time to the span that encloses them.

Every wrapped call contributes its self time (its duration minus the
duration of wrapped calls made inside it) to a metric key, so the self
times of all keys add up to the time spent inside the outermost wrapped
call.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np
from wrp.jets import ENUM_BUDGET

# JetMap subclasses reported one by one; every other subclass is pooled
# under "other".
TENSOR_CLASSES = (
    "PolynomialMap", "ScaledMap", "SumMap", "PairMap", "ComposeMap",
    "DifferentialMap", "PartialD2Map", "PairedDerivativeMap", "AffineMap",
    "ComponentMap",
)
RUNNER_NAMES = (
    "weights", "seminorms", "jets", "integrals", "superpose", "compose",
    "invert", "family", "sim",
)
LAYERS = ("verify", "jets", "seminorms", "spaces", "operators", "restricted",
          "report", "cli")

# (module, function name, metric key, is a span).  The layer of a key is
# its first dotted component.
FUNCTION_TARGETS = (
    ("cli", "run", "cli.write", True),
    ("verify", "run_suite", "verify.suite", True),
    ("verify", "_run_unit", "verify.unit", True),
    ("verify", "generate_scenario", "verify.generate", True),
    ("verify", "validate_scenario", "verify.validate", True),
    ("verify", "scenario_from_dict", "verify.load", True),
    ("jets", "op_norm", "jets.op_norm", False),
    ("jets", "compose_tensor", "jets.compose_tensor", False),
    ("jets", "validate_jet_map", "jets.validate_jet_map", False),
    ("jets", "crude_sup_bound", "jets.crude_sup_bound", False),
    ("seminorms", "weighted_seminorm", "seminorms.weighted_seminorm", True),
    ("seminorms", "lattice", "seminorms.lattice", False),
    ("spaces", "check_dominance_certificate", "spaces.dominance", True),
    ("operators", "superpose", "operators.superpose", True),
    ("operators", "compose_perturbed", "operators.compose_perturbed", True),
    ("operators", "invert_perturbed", "operators.invert_perturbed", True),
    ("operators", "superpose_derivative_check", "operators.fd_checks", True),
    ("operators", "compose_derivative_check", "operators.fd_checks", True),
    ("operators", "inversion_pair_difference_check", "operators.fd_checks", True),
    ("operators", "inversion_direction_check", "operators.fd_checks", True),
    ("operators", "inversion_jacobian_check", "operators.fd_checks", True),
    ("restricted", "family_seminorm", "restricted.family_seminorm", True),
    ("restricted", "sim_multiply", "restricted.sim", True),
    ("restricted", "sim_multilinear", "restricted.sim", True),
    ("restricted", "sim_superpose", "restricted.sim", True),
    ("restricted", "sim_power_series", "restricted.sim", True),
    ("restricted", "sim_compose", "restricted.sim", True),
    ("restricted", "sim_invert", "restricted.sim", True),
    ("report", "bound_report", "report.bound_report", False),
    ("report", "identity_report", "report.other", False),
    ("report", "skipped_report", "report.other", False),
    ("report", "worst", "report.other", False),
    ("report", "merge_min_margin", "report.other", False),
)

# Keys whose self time is not reported as a layer metric; it is part of
# the unattributed remainder (suite bookkeeping, unit load dispatch).
UNREPORTED_KEYS = ("verify.suite", "verify.unit")


def sup_norm_dims(t, norm_kind) -> tuple[int, ...] | None:
    """Argument dimensions ``op_norm`` enumerates over for ``t``, or None
    when it enumerates nothing (not the sup norm, order 0, or over the
    budget).  Operator-valued outputs are uncurried first; each uncurry
    appends the last output axis to the arguments."""
    dims = tuple(t.in_dims) + tuple(reversed(t.out_shape[1:]))
    if norm_kind != "sup" or not dims or sum(dims) > ENUM_BUDGET:
        return None
    return dims


def op_norm_vertices(dims) -> int:
    """Sign vertices ``op_norm`` should enumerate for argument dimensions
    ``dims``: every argument but the last runs over the sign vectors with
    the first component pinned.  A map of one argument enumerates none."""
    if len(dims) < 2:
        return 0
    return 2 ** sum(d - 1 for d in dims[:-1])


class Tracer:
    def __init__(self, wrp_modules: dict):
        self.mods = wrp_modules
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()
        self.spans: list[dict] = []
        self._stack: list[list] = []  # one [time in wrapped children] per open call
        self._span_stack: list[int] = []
        self._originals: dict[int, object] = {}  # id(original) -> original
        self._wrappers: set[int] = set()
        self._restore: list[tuple] = []
        self.trace_id = None
        # self-check inputs
        self.points_from_axes = 0
        self.vertices_from_dims = 0
        self._sign_lists: list[int] = []  # lengths _sign_vectors returned in this op_norm
        self._expected_vertices = 0
        self._solve_keys: dict[int, tuple[object, set]] = {}

    # -- recording ----------------------------------------------------

    def _wrap(self, fn, key: str, span: bool, before=None, after=None):
        layer = key.split(".", 1)[0]
        stack, span_stack = self._stack, self._span_stack
        self_s, calls, errors, spans = self.self_s, self.calls, self.errors, self.spans
        clock = time.perf_counter
        is_unit = key == "verify.unit"

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if is_unit:
                self.trace_id = args[0][0].label()
            if span:
                parent = span_stack[-1] if span_stack else None
                idx = len(spans)
                spans.append({
                    "name": key, "start": 0.0, "end": 0.0, "parent": parent,
                    "trace_id": self.trace_id, "kernel_calls": 0, "kernel_s": 0.0,
                })
                span_stack.append(idx)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                self_s[key] += dt - frame[0]
                calls[key] += 1
                if stack:
                    stack[-1][0] += dt
                if span:
                    span_stack.pop()
                    rec = spans[idx]
                    rec["start"], rec["end"] = t0, t1
                    if is_unit:
                        self.trace_id = None
                elif span_stack:
                    rec = spans[span_stack[-1]]
                    rec["kernel_calls"] += 1
                    rec["kernel_s"] += dt
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        self._wrappers.add(id(wrapper))
        return wrapper

    def _count_points(self, args, kwargs):
        grid = args[0].grid
        self.counters["seminorms.points"] += len(grid.points)
        extra = sum(1 for p in grid.pinned if not self._on_lattice(grid, p))
        self.points_from_axes += math.prod(len(a) for a in grid.axes) + extra

    @staticmethod
    def _on_lattice(grid, p) -> bool:
        return all(float(c) in axis for c, axis in zip(p, grid.axes))

    def _start_op_norm(self, args, kwargs):
        self._sign_lists = []
        kind = args[1] if len(args) > 1 else kwargs.get("norm_kind", "sup")
        dims = sup_norm_dims(args[0], kind)
        self._expected_vertices = 0 if dims is None else op_norm_vertices(dims)

    def _count_vertices(self, args, result):
        """Vertices the program enumerated (the product of the lengths of
        the sign-vector lists ``op_norm`` asked for), and the count the
        closed form gives from ``in_dims``."""
        if self._sign_lists:
            self.counters["jets.op_norm.vertices"] += math.prod(self._sign_lists)
        self.vertices_from_dims += self._expected_vertices

    def _sign_vectors_wrapper(self, original):
        def _sign_vectors(d):
            result = original(d)
            self._sign_lists.append(len(result))
            return result

        self._wrappers.add(id(_sign_vectors))
        return _sign_vectors

    def _after_solve(self, args, result):
        inv, y = args[0], args[1]
        # the entry keeps ``inv`` alive, so its id is not reused meanwhile
        _, seen = self._solve_keys.setdefault(id(inv), (inv, set()))
        key = np.asarray(y, dtype=float).tobytes()
        if key not in seen:
            seen.add(key)
            self.counters["operators.fixed_point_iters"] += int(result[1])

    # -- installation -------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        self._originals[id(original)] = original
        for mod in self.mods.values():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def install(self):
        mods = self.mods
        hooks = {
            "seminorms.weighted_seminorm": (self._count_points, None),
            "jets.op_norm": (self._start_op_norm, self._count_vertices),
        }
        for mod_name, fn_name, key, span in FUNCTION_TARGETS:
            original = getattr(mods[mod_name], fn_name)
            before, after = hooks.get(key, (None, None))
            self._replace_everywhere(original, self._wrap(original, key, span, before, after))
        sign_vectors = mods["jets"]._sign_vectors
        self._replace_everywhere(sign_vectors, self._sign_vectors_wrapper(sign_vectors))
        runners = mods["verify"].RUNNERS
        for name in RUNNER_NAMES:
            original = runners[name]
            wrapper = self._wrap(original, f"verify.runner.{name}", True)
            self._replace_everywhere(original, wrapper)
            self._restore.append((runners, name, original))
            runners[name] = wrapper
        for cls in self.jetmap_classes():
            original = cls.__dict__["tensor"]
            label = cls.__name__ if cls.__name__ in TENSOR_CLASSES else "other"
            self._set_attr(cls, "tensor", self._wrap(original, f"jets.tensor.{label}", False))
        inverse = mods["operators"].InverseMap
        self._set_attr(inverse, "solve", self._wrap(
            inverse.__dict__["solve"], "operators.solve", False, None, self._after_solve))
        weight = mods["spaces"].Weight
        self._set_attr(weight, "__call__", self._wrap(
            weight.__dict__["__call__"], "spaces.weight", False))

    def _set_attr(self, owner, name, wrapper):
        original = owner.__dict__[name]
        self._originals[id(original)] = original
        self._restore.append((owner, name, original))
        setattr(owner, name, wrapper)

    def jetmap_classes(self) -> list[type]:
        base = self.mods["jets"].JetMap
        found, todo = [], list(base.__subclasses__())
        while todo:
            cls = todo.pop()
            if cls.__module__.startswith("wrp.") and "tensor" in cls.__dict__:
                found.append(cls)
            todo.extend(cls.__subclasses__())
        return found

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._restore.clear()

    def self_check(self) -> list[str]:
        """Bindings that still hold an unwrapped original (empty when the
        installation is complete)."""
        originals = self._originals

        def is_original(value) -> bool:
            return id(value) in originals and value is originals[id(value)]

        left = []
        for mod_name, mod in sorted(self.mods.items()):
            for name, value in vars(mod).items():
                if is_original(value):
                    left.append(f"wrp.{mod_name}.{name}")
                fns = [value, *vars(value).values()] if isinstance(value, type) else [value]
                for fn in fns:
                    defaults = (getattr(fn, "__defaults__", None) or ()) + tuple(
                        (getattr(fn, "__kwdefaults__", None) or {}).values())
                    if any(map(is_original, defaults)):
                        left.append(f"a default argument in wrp.{mod_name}.{name}")
        for name, fn in self.mods["verify"].RUNNERS.items():
            if id(fn) not in self._wrappers:
                left.append(f"wrp.verify.RUNNERS[{name!r}]")
        for cls in self.jetmap_classes():
            if id(cls.__dict__["tensor"]) not in self._wrappers:
                left.append(f"{cls.__module__}.{cls.__name__}.tensor")
        for owner, name in ((self.mods["operators"].InverseMap, "solve"),
                            (self.mods["spaces"].Weight, "__call__")):
            if id(owner.__dict__[name]) not in self._wrappers:
                left.append(f"{owner.__module__}.{owner.__name__}.{name}")
        return left

    # -- results ------------------------------------------------------

    def count_check(self) -> list[str]:
        """Counters compared with counts computed independently."""
        bad = []
        if self.counters["seminorms.points"] != self.points_from_axes:
            bad.append(
                f"seminorms.points {self.counters['seminorms.points']} != "
                f"{self.points_from_axes} from grid axes")
        counted = self.counters["jets.op_norm.vertices"]
        if counted != self.vertices_from_dims:
            bad.append(
                f"jets.op_norm.vertices {counted} enumerated != "
                f"{self.vertices_from_dims} from in_dims")
        return bad

    def solve_reuse_ratio(self) -> float:
        calls = self.calls["operators.solve"]
        distinct = sum(len(keys) for _, keys in self._solve_keys.values())
        return distinct / calls if calls else 0.0


def wrp_modules() -> dict:
    """The loaded ``wrp`` modules by short name (``wrp`` itself as "")."""
    import wrp.cli  # noqa: F401  (loads every module the CLI uses)

    return {
        name.split(".", 1)[1] if "." in name else "": mod
        for name, mod in sys.modules.items()
        if (name == "wrp" or name.startswith("wrp.")) and mod is not None
    }
