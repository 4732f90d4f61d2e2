#!/usr/bin/env python3
"""Compare BENCH_replay.json files across runs and keep a history.

Diffs two or more bench_replay_perf outputs (oldest first) and
prints per-grid speedup deltas, so the perf trajectory is visible
across commits instead of only a static floor:

    bench_trend.py old.json [mid.json ...] new.json
    bench_trend.py --fail-below 0.6 baseline.json current.json

Grids are matched by their technology-point count (plus the "dense"
grid when both files carry one). For every metric present in both
the first and the last file, the tool prints a quality ratio:
last/first for speedups (higher is better) and first/last for
latencies (lower is better) — so a ratio below 1 always reads
"regressed". With --fail-below R it exits 1 when any gated ratio
drops below R. Serve warm latency is additionally guarded by
--warm-ms-ceiling: the relative gate only fires when the absolute
latency also exceeds the ceiling, so CI-runner noise on a
sub-millisecond path cannot flake the job. O3 core throughput and
static program build time (the "core" block, Minst/s and ms per
benchmark), sweep render time (the
"render" block, ms per CSV and JSON render, and ns per number
formatted) and the Adaptive kernel
per vector width (the "adaptive_widths" block, ms and million
lane-steps/s per width) are diffed and charted but never gated.
Files written by older bench versions simply lack the newer metrics
and are compared on what they have; a width the runner's CPU lacks is
simply absent.

History mode accumulates per-commit records and renders a
standalone HTML/SVG trend page (no JS, no external assets):

    bench_trend.py --history DIR --add BENCH_replay.json --label SHA
    bench_trend.py --history DIR --html trend.html

CI restores DIR from the actions cache, appends the fresh record,
renders the page, and uploads it as an artifact — so the full perf
trajectory of the branch is one click away.

Exit codes: 0 ok, 1 regression (with --fail-below), 2 usage/input.
"""

import argparse
import html
import json
import os
import re
import sys


def load(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"bench_trend: cannot read '{path}': {err}")
    if doc.get("bench") != "replay_perf":
        sys.exit(f"bench_trend: '{path}' is not a "
                 "bench_replay_perf output")
    return doc


def grid_key(grid):
    return int(grid["points"])


def metrics(doc):
    """{(label, metric): value} for everything comparable."""
    out = {}
    for grid in doc.get("grids", []):
        label = f"{grid_key(grid)}pt"
        out[(label, "speedup")] = grid.get("speedup")
    dense = doc.get("dense")
    if dense:
        out[("dense", "speedup")] = dense.get("speedup")
    for entry in doc.get("threaded", []):
        out[(f"{entry['threads']}thr", "threaded_speedup")] = \
            entry.get("speedup")
    serve = doc.get("serve")
    if serve:
        # Daemon request latency, ms (lower is better). Warm latency
        # is gated (see LOWER_IS_BETTER + --warm-ms-ceiling); cold
        # latency includes one-off phase-1 simulation and is
        # report-only.
        out[("serve", "warm_request_ms")] = \
            serve.get("warm_request_ms")
        out[("serve", "cold_request_ms")] = \
            serve.get("cold_request_ms")
        # Socket front-door warm latency: a full AF_UNIX
        # submit-and-wait round trip. Report-only — it layers
        # protocol framing and completion-board polling on top of
        # the gated warm path.
        out[("serve", "socket_warm_request_ms")] = \
            serve.get("socket_warm_request_ms")
    core = doc.get("core")
    if core:
        # O3 simulator throughput per benchmark, Minst/s (higher is
        # better). Report-only: absolute speed is machine-dependent.
        for entry in core.get("benchmarks", []):
            out[(entry["name"], "core_minst_per_s")] = \
                entry.get("minst_per_s")
            # Static program build time per benchmark, ms (lower is
            # better). Report-only, like the throughput.
            out[(entry["name"], "core_build_ms")] = \
                entry.get("build_ms")
    render = doc.get("render")
    if render:
        # Serial sweep render time, ms (lower is better).
        # Report-only, like the core block.
        out[("render", "csv_ms")] = render.get("csv_ms")
        out[("render", "json_ms")] = render.get("json_ms")
        # appendNumber alone, ns per number (lower is better).
        out[("render", "ns_per_number")] = render.get("ns_per_number")
    widths = doc.get("adaptive_widths")
    if widths:
        # Single-thread Adaptive kernel per vector width: ms (lower
        # is better) and million lane-steps/s (higher is better).
        # Report-only, like the core block.
        for entry in widths.get("widths", []):
            label = f"{entry['width']}bit"
            out[(label, "adaptive_ms")] = entry.get("ms")
            steps = entry.get("lane_steps_per_s")
            out[(label, "adaptive_mlane_steps_per_s")] = \
                steps / 1e6 if steps is not None else None
    return {k: v for k, v in out.items() if v is not None}


# (label, metric) pairs the --fail-below gate judges: the big-grid
# and dense-grid engine-vs-scalar speedups, and the daemon's warm
# request latency. Micro grids (1/4 points)
# finish in microseconds and their ratios swing tens of percent run
# to run; threaded speedups depend on runner core counts, which the
# static --min-threaded-speedup floor already covers. All are still
# reported.
GATED = (("8pt", "speedup"), ("20pt", "speedup"),
         ("dense", "speedup"), ("serve", "warm_request_ms"))

# Metrics where smaller values are better: the quality ratio is
# inverted (first/last) so < 1 still means "regressed".
LOWER_IS_BETTER = frozenset({"warm_request_ms", "cold_request_ms",
                             "socket_warm_request_ms", "csv_ms",
                             "json_ms", "ns_per_number",
                             "adaptive_ms", "core_build_ms"})


def quality_ratio(key, first, last):
    """>1 improved, <1 regressed, for either metric direction."""
    _, metric = key
    if metric in LOWER_IS_BETTER:
        return first / last if last else float("inf")
    return last / first if first else float("inf")


# ------------------------------------------------------- history

RECORD_RE = re.compile(r"^(\d{4})-(.+)\.json$")


def history_records(directory):
    """[(label, metrics)] sorted by record index."""
    entries = []
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    for name in names:
        m = RECORD_RE.match(name)
        if not m:
            continue
        doc = load(os.path.join(directory, name))
        entries.append((int(m.group(1)), m.group(2), metrics(doc)))
    entries.sort()
    return [(label, snap) for _, label, snap in entries]


def history_add(directory, path, label):
    doc = load(path)  # validates before anything lands in DIR
    os.makedirs(directory, exist_ok=True)
    taken = [int(m.group(1)) for m in
             (RECORD_RE.match(n) for n in os.listdir(directory)) if m]
    index = max(taken) + 1 if taken else 0
    label = re.sub(r"[^A-Za-z0-9._-]", "_", label) or "run"
    dest = os.path.join(directory, f"{index:04d}-{label}.json")
    with open(dest, "w") as fh:
        json.dump(doc, fh)
    print(f"bench_trend: recorded {dest}")


# ----------------------------------------------------- trend page

PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
           "#9467bd", "#8c564b", "#e377c2", "#17becf")


def svg_chart(title, unit, series, x_labels):
    """One inline SVG line chart. series: [(name, [value|None])]."""
    width, height = 840, 280
    left, right, top, bottom = 56, 200, 28, 36
    plot_w = width - left - right
    plot_h = height - top - bottom

    values = [v for _, vs in series for v in vs if v is not None]
    if not values:
        return ""
    vmax = max(values) * 1.08 or 1.0
    vmin = 0.0
    n = max(len(vs) for _, vs in series)

    def x(i):
        if n <= 1:
            return left + plot_w / 2
        return left + plot_w * i / (n - 1)

    def y(v):
        return top + plot_h * (1 - (v - vmin) / (vmax - vmin))

    parts = [f'<svg viewBox="0 0 {width} {height}" width="{width}" '
             f'height="{height}" role="img">',
             f'<text x="{left}" y="16" class="title">'
             f'{html.escape(title)}</text>']
    # Axes + horizontal gridlines with value labels.
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = vmin + (vmax - vmin) * frac
        yy = y(v)
        parts.append(f'<line x1="{left}" y1="{yy:.1f}" '
                     f'x2="{left + plot_w}" y2="{yy:.1f}" '
                     'class="grid"/>')
        parts.append(f'<text x="{left - 6}" y="{yy + 4:.1f}" '
                     f'class="tick" text-anchor="end">'
                     f'{v:.2f}</text>')
    # X tick labels: first, last, and every ~5th in between.
    step = max(1, (n - 1) // 6) if n > 1 else 1
    for i in range(0, n, step):
        parts.append(f'<text x="{x(i):.1f}" '
                     f'y="{top + plot_h + 16}" class="tick" '
                     f'text-anchor="middle">'
                     f'{html.escape(x_labels[i][:10])}</text>')
    for idx, (name, vs) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(f"{x(i):.1f},{y(v):.1f}"
                          for i, v in enumerate(vs)
                          if v is not None)
        if points:
            parts.append(f'<polyline points="{points}" fill="none" '
                         f'stroke="{color}" stroke-width="2"/>')
        for i, v in enumerate(vs):
            if v is not None:
                parts.append(f'<circle cx="{x(i):.1f}" '
                             f'cy="{y(v):.1f}" r="2.5" '
                             f'fill="{color}"/>')
        last = next((v for v in reversed(vs) if v is not None), None)
        legend_y = top + 14 * idx
        parts.append(f'<rect x="{left + plot_w + 12}" '
                     f'y="{legend_y - 8}" width="10" height="10" '
                     f'fill="{color}"/>')
        tail = f" ({last:.2f}{unit})" if last is not None else ""
        parts.append(f'<text x="{left + plot_w + 26}" '
                     f'y="{legend_y + 1}" class="legend">'
                     f'{html.escape(name + tail)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def render_html(records, out_path):
    if not records:
        sys.exit("bench_trend: history is empty, nothing to render")
    x_labels = [label for label, _ in records]

    def series_for(metric):
        keys = sorted({k for _, snap in records for k in snap
                       if k[1] == metric})
        return [(key[0], [snap.get(key) for _, snap in records])
                for key in keys]

    charts = [
        svg_chart("Engine vs scalar speedup", "x",
                  series_for("speedup"), x_labels),
        svg_chart("Serve request latency", " ms",
                  [(name, [snap.get(("serve", name))
                           for _, snap in records])
                   for name in ("cold_request_ms",
                                "warm_request_ms")],
                  x_labels),
        svg_chart("Threaded speedup", "x",
                  series_for("threaded_speedup"), x_labels),
        svg_chart("O3 core throughput", " Minst/s",
                  series_for("core_minst_per_s"), x_labels),
        svg_chart("Static program build time", " ms",
                  series_for("core_build_ms"), x_labels),
        svg_chart("Sweep render time", " ms",
                  [(name, [snap.get(("render", name))
                           for _, snap in records])
                   for name in ("csv_ms", "json_ms")],
                  x_labels),
        svg_chart("Number format time", " ns",
                  [("ns_per_number",
                    [snap.get(("render", "ns_per_number"))
                     for _, snap in records])],
                  x_labels),
        svg_chart("Adaptive kernel by vector width", " ms",
                  series_for("adaptive_ms"), x_labels),
    ]
    body = "\n".join(c for c in charts if c)
    page = f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>lsim perf trend</title>
<style>
  body {{ font: 14px/1.5 system-ui, sans-serif; margin: 2em;
          color: #222; }}
  h1 {{ font-size: 1.3em; }}
  svg {{ display: block; margin-bottom: 1.5em; }}
  .title {{ font-size: 13px; font-weight: 600; }}
  .tick {{ font-size: 10px; fill: #666; }}
  .legend {{ font-size: 11px; }}
  .grid {{ stroke: #ddd; stroke-width: 1; }}
</style>
</head>
<body>
<h1>lsim replay perf trend</h1>
<p>{len(records)} record(s), oldest first:
{html.escape(x_labels[0])} &rarr; {html.escape(x_labels[-1])}.
Speedups and core throughput: higher is better. Latency, program
build time, render time, number format time and Adaptive kernel
time: lower is better.</p>
{body}
</body>
</html>
"""
    with open(out_path, "w") as fh:
        fh.write(page)
    print(f"bench_trend: wrote {out_path} "
          f"({len(records)} record(s))")


# ------------------------------------------------------------ main

def main():
    parser = argparse.ArgumentParser(
        description="diff BENCH_replay.json files (oldest first) "
                    "and maintain a rendered history")
    parser.add_argument("files", nargs="*",
                        help="bench outputs, oldest first")
    parser.add_argument("--fail-below", type=float, metavar="R",
                        help="exit 1 when any gated quality ratio "
                             "is below R")
    parser.add_argument("--warm-ms-ceiling", type=float,
                        metavar="MS", default=50.0,
                        help="serve warm latency only fails the "
                             "gate when it also exceeds MS "
                             "(default 50; absolute guard against "
                             "CI-runner noise)")
    parser.add_argument("--history", metavar="DIR",
                        help="per-commit record directory")
    parser.add_argument("--add", metavar="FILE",
                        help="append FILE to --history DIR")
    parser.add_argument("--label", default="run",
                        help="record label for --add (e.g. git SHA)")
    parser.add_argument("--html", metavar="OUT",
                        help="render --history DIR as a standalone "
                             "HTML/SVG trend page")
    args = parser.parse_args()

    if args.add or args.html:
        if not args.history:
            parser.error("--add/--html require --history DIR")
        if args.add:
            history_add(args.history, args.add, args.label)
        if args.html:
            render_html(history_records(args.history), args.html)
        if not args.files:
            return 0
    if len(args.files) < 2:
        parser.error("need at least two files to compare")

    docs = [load(path) for path in args.files]
    per_file = [metrics(doc) for doc in docs]
    first, last = per_file[0], per_file[-1]

    keys = [k for k in first if k in last]
    if not keys:
        sys.exit("bench_trend: the first and last file share no "
                 "comparable metrics")

    name_w = max(len(f"{label} {metric}") for label, metric in keys)
    headers = " ".join(f"{i:>9}" for i in range(len(args.files)))
    print(f"{'grid metric':<{name_w}} {headers} {'ratio':>7}")
    failures = []
    for key in keys:
        label, metric = key
        cells = []
        for snapshot in per_file:
            value = snapshot.get(key)
            cells.append(f"{value:9.2f}" if value is not None
                         else f"{'-':>9}")
        ratio = quality_ratio(key, first[key], last[key])
        print(f"{label + ' ' + metric:<{name_w}} "
              f"{' '.join(cells)} {ratio:6.2f}x")
        if (args.fail_below is None or key not in GATED
                or ratio >= args.fail_below):
            continue
        if metric == "warm_request_ms" and \
                last[key] <= args.warm_ms_ceiling:
            # Relative regression but still comfortably fast in
            # absolute terms: report, don't flake the job.
            print(f"bench_trend: note: {label} {metric} ratio "
                  f"{ratio:.2f}x is under --fail-below but "
                  f"{last[key]:.2f} ms is within the "
                  f"{args.warm_ms_ceiling:.0f} ms ceiling")
            continue
        failures.append((label, metric, ratio))

    if failures:
        for label, metric, ratio in failures:
            print(f"bench_trend: {label} {metric} fell to "
                  f"{ratio:.2f}x of the baseline "
                  f"(--fail-below {args.fail_below})",
                  file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
