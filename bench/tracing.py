"""Per-layer tracing from outside the program.

Every module-level function of the traced ``partialflow`` modules is
replaced, in every module namespace that refers to it, by a wrapper that
records a span ``[name, start, end, parent, error]``. Names imported with
``from .x import y`` are module globals too, so ``cli.process_stream`` and
``simulator.fpcf`` are traced like their definitions. Generator functions
get one span per ``next()``. Integrands handed to the quadrature layer are
wrapped as well and named after the module that defined them, so their
own work is not charged to the integrator.

Modules are reached through ``sys.modules``: ``partialflow.fpcf`` on the
package is the function, not the module. Spans stay in memory; a layer's
self time is the duration of its spans minus the time their child spans
cover.
"""

import functools
import inspect
import sys
import time
import types

LAYERS = (
    "geometry", "profile", "quadrature", "fpcf", "measurement",
    "calibration", "clogging", "simulator", "config", "cli",
)
# Formats one field of one record; as a span it would cost more than the
# work it measures. Its time stays in the caller, cmd_process.
UNTRACED = {"cli._fmt"}

# Functions whose arguments or results feed a counter.
HOOKED = {
    "profile.evaluate_velocity",
    "fpcf.mean_area_velocity",
    "fpcf.fpcf",
    "clogging.step_alarm",
    "measurement.process_stream",
    "measurement.write_frame_rows",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {"quadrature.integrand_calls": 0, "quadrature.points": 0}
        self.results = []  # (span name, args, result) for the functions in HOOKED
        self._restore = []

    def _span(self, name: str, call, args=(), kwargs=None):
        spans, stack = self.spans, self.stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
        stack.append(len(spans))
        spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return call(*args, **(kwargs or {}))
        except BaseException as exc:
            rec[4] = type(exc).__name__
            raise
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        hooked = name in HOOKED
        span = self._span

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    try:
                        item = span(name, next, (inner,))
                    except StopIteration:
                        return
                    if hooked:
                        self.results.append((name, args, item))
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer == "quadrature" and args and callable(args[0]) \
                    and not hasattr(args[0], "__wrapped__"):
                args = (self.wrap_integrand(args[0]),) + args[1:]
            result = span(name, fn, args, kwargs)
            if hooked:
                self.results.append((name, args, result))
            return result
        return wrapper

    def wrap_integrand(self, f):
        module = getattr(f, "__module__", "") or ""
        name = f"{module.rsplit('.', 1)[-1]}.{getattr(f, '__qualname__', 'integrand')}"
        counts = self.counts
        span = self._span

        @functools.wraps(f)
        def integrand(x, *args):
            counts["quadrature.integrand_calls"] += 1
            counts["quadrature.points"] += getattr(x, "size", 1)
            return span(name, f, (x,) + args)
        return integrand

    def install(self) -> None:
        """Wrap every traced function wherever a partialflow module refers to it."""
        home = {}
        for layer in LAYERS:
            module = sys.modules[f"partialflow.{layer}"]
            for attr, obj in vars(module).items():
                if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    if name not in UNTRACED:
                        home[id(obj)] = self.wrap(name, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "partialflow" and not mod_name.startswith("partialflow."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = home.get(id(obj))
                if wrapper is not None:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,error\n")
            for i, (name, start, end, parent, error) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{error or ''}\n")


def layer_metrics(tracer: Tracer, reference_fpcf) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``reference_fpcf(level_mm)`` gives the tight-tolerance FPCF at the
    50 mm chord (or raises ValueError outside its table).
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    layer_of = [s[0].split(".", 1)[0] for s in spans]
    layer_self, self_s, entries = {}, {}, {}
    incl, count, errors = {}, {}, {}
    for i, (name, start, end, parent, error) in enumerate(spans):
        layer = layer_of[i]
        own = (end - start) - child[i]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        self_s[name] = self_s.get(name, 0.0) + own
        incl[name] = incl.get(name, 0.0) + (end - start)
        count[name] = count.get(name, 0) + 1
        if error:
            errors[name] = errors.get(name, 0) + 1
        if parent < 0 or layer_of[parent] != layer:
            entries[layer] = entries.get(layer, 0) + 1

    points = 0
    area_levels = []
    fpcf_err = 0.0
    raised = cleared = diagnostics = items = written = 0
    for name, args, result in tracer.results:
        if name == "profile.evaluate_velocity":
            points += result.size
        elif name == "fpcf.mean_area_velocity":
            area_levels.append(args[0].level.level_m)
        elif name == "fpcf.fpcf":
            level_mm = 1000.0 * args[0].level.level_m
            if abs(1000.0 * args[1] - 50.0) < 1e-9:
                try:
                    fpcf_err = max(fpcf_err, abs(result / reference_fpcf(level_mm) - 1.0))
                except ValueError:
                    pass
        elif name == "clogging.step_alarm":
            event = result[1]
            raised += event is not None and event.value == "raised"
            cleared += event is not None and event.value == "cleared"
        elif name == "measurement.process_stream":
            items += 1
            diagnostics += type(result).__name__ == "FrameDiagnostic"
        elif name == "measurement.write_frame_rows":
            written += len(args[0])

    def per(value, n, scale=1e6):
        return scale * value / n if n else 0.0

    s = self_s.get
    profile_self = layer_self.get("profile", 0.0)
    area_calls = count.get("fpcf.mean_area_velocity", 0)
    return {
        "measurement.parse_us_per_frame": per(s("measurement.read_frame_rows", 0.0), items),
        "measurement.estimate_us_per_frame": per(
            s("measurement.estimate_flow", 0.0) + s("measurement.line_velocity", 0.0), items),
        "measurement.stream_us_per_frame": per(s("measurement.process_stream", 0.0), items),
        "measurement.diagnostics": diagnostics,
        "measurement.write_us_per_frame": per(incl.get("measurement.write_frame_rows", 0.0),
                                              written),
        "geometry.calls": entries.get("geometry", 0),
        "geometry.self_s": layer_self.get("geometry", 0.0),
        "fpcf.eval_calls": count.get("fpcf.eval_fpcf", 0),
        "fpcf.eval_us": per(incl.get("fpcf.eval_fpcf", 0.0), count.get("fpcf.eval_fpcf", 0)),
        "clogging.us_per_frame": per(layer_self.get("clogging", 0.0), items),
        "clogging.alarms_raised": raised,
        "clogging.alarms_cleared": cleared,
        "cli.format_us_per_frame": per(s("cli.cmd_process", 0.0), items),
        "profile.calls": entries.get("profile", 0),
        "profile.points": points,
        "profile.points_per_call": per(points, entries.get("profile", 0), 1.0),
        "profile.points_per_s": per(points, profile_self, 1.0),
        "profile.self_s": profile_self,
        "quadrature.calls": entries.get("quadrature", 0),
        "quadrature.integrand_calls": tracer.counts["quadrature.integrand_calls"],
        "quadrature.points": tracer.counts["quadrature.points"],
        "quadrature.self_s": layer_self.get("quadrature", 0.0),
        "quadrature.failed": errors.get("quadrature.adaptive_integrate", 0),
        "fpcf.area_mean_calls": area_calls,
        "fpcf.chord_mean_calls": count.get("fpcf.mean_chord_velocity", 0),
        "fpcf.area_mean_s": incl.get("fpcf.mean_area_velocity", 0.0),
        "fpcf.table_s": incl.get("fpcf.tabulate_fpcf", 0.0),
        "fpcf.fit_s": incl.get("fpcf.fit_polynomial", 0.0),
        "fpcf.area_mean_reuse": per(len(set(area_levels)), area_calls, 1.0),
        "fpcf.max_err_vs_ref": fpcf_err,
        "simulator.points": count.get("simulator.generate", 0),
        "simulator.generate_s": incl.get("simulator.generate", 0.0),
        "config.self_s": layer_self.get("config", 0.0),
        "calibration.calls": entries.get("calibration", 0),
        "calibration.self_s": layer_self.get("calibration", 0.0),
    }
