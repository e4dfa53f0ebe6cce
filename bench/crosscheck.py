"""Coverage check of the span tracer against a stack sampler.

The span tracer charges the time of every function it does not wrap to
the innermost open span, so a layer whose functions are not wrapped
shows up as another layer's self time. To check the spans, the traced
run makes one more pass, with no span installed, under a sampler: every
SAMPLE_S seconds of this process's CPU time (SIGPROF), a handler walks
the main thread's stack from the innermost frame outward and records
two things:

- the innermost frame whose code is in src/fabboo: the fabboo function
  the time belongs to (a builtin or standard-library frame above it
  counts for it);
- the first frame of a function the tracer wraps (see spans.span_codes):
  the span the tracer would charge the time to. A frame of the
  benchmark's own code met before it means `trace`, the benchmark's own
  time; a host probe (timing.py) is left out, as the span tracer leaves
  it out; no such frame at all means `outside`.

A sample costs the same wherever it lands, so the sampler does not
favour the layers that make many small calls, as the span wrappers do.
`compare` holds its per-module shares against the span tracer's
self-time shares, and names, with their share, the fabboo functions
whose time lands in another module's span.
"""

from __future__ import annotations

import os
import signal
from collections import Counter
from pathlib import Path

import timing
from spans import code_key

SAMPLE_S = 0.002
OUTSIDE = "outside"
TRACE = "trace"
# largest allowed difference between a module's span share and its
# sampled share
SHARE_TOLERANCE = 0.10


class Sampler:
    """Counts (fabboo function key or None, span module) per sample while
    it is open (`with Sampler(codes, src):`). `src` is the directory of
    the fabboo modules, as their code objects name it."""

    def __init__(self, codes: dict, src: str):
        self.codes = codes
        self.src = os.path.join(src, "")
        self.bench = os.path.join(os.path.dirname(__file__), "")
        self.probe_file = timing.__file__
        self.counts = Counter()

    def _sample(self, signum, frame) -> None:
        fn = None
        span = OUTSIDE
        while frame is not None:
            key = code_key(frame.f_code)
            if key[0].startswith(self.src):
                fn = fn or key
                if key in self.codes:
                    span = self.codes[key]
                    break
            elif key[0] == self.probe_file:
                return
            elif key[0].startswith(self.bench):
                span = TRACE
                break
            frame = frame.f_back
        self.counts[(fn, span)] += 1

    def __enter__(self):
        self.saved = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self.saved)
        return False


def module_of(key) -> str:
    return Path(key[0]).stem if key is not None else OUTSIDE


def compare(counts: Counter, span_self: dict[str, float], outside_s: float):
    """Hold the sampled attribution against the tracer's self times
    (`span_self` by module, without the tracer's own time; `outside_s`
    the traced call's time outside every span). The benchmark's own
    samples are left out, as the tracer's own time is.

    Returns (largest share gap, share of samples charged to another
    module's span, report lines)."""
    counts = Counter({k: n for k, n in counts.items() if k[1] != TRACE})
    samples = sum(counts.values())
    sampled, by_file, cross = Counter(), Counter(), Counter()
    for (fn, span), n in counts.items():
        sampled[span] += n
        by_file[module_of(fn)] += n
        if fn is not None and module_of(fn) != span:
            cross[(fn, span)] += n
    spans = dict(span_self, **{OUTSIDE: outside_s})
    span_total = sum(spans.values())
    rows, gap = [], 0.0
    for mod in sorted(set(sampled) | set(spans),
                      key=lambda m: -spans.get(m, 0.0)):
        s_share = spans.get(mod, 0.0) / span_total
        p_share = sampled[mod] / samples
        gap = max(gap, abs(p_share - s_share))
        rows.append(f"{mod} {s_share:.1%}/{p_share:.1%}"
                    f" ({by_file[mod] / samples:.1%})")
    crossed = sum(cross.values()) / samples
    lines = [f"coverage: {samples} samples; per module, span share/sampled "
             "share (sampled share of the module's own code): "
             + ", ".join(rows),
             f"coverage: largest share gap {gap:.1%} (tolerance "
             f"{SHARE_TOLERANCE:.0%}); {crossed:.1%} of the samples fall in "
             "another module's span:"]
    for (fn, span), n in cross.most_common():
        if n / samples < 0.001:
            break
        lines.append(f"  {module_of(fn)}.{fn[2]} (line {fn[1]}) in the "
                     f"{span} span: {n / samples:.1%}")
    return gap, crossed, lines
