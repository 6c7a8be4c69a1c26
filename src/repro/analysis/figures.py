"""ASCII line charts, so figures render in a terminal/CI log.

The experiment runners return raw series; these helpers draw them as
text plots close enough to the paper's figures to eyeball the shape:

    print(ascii_chart({"T420": {11: 0.2, 12: 0.97, 13: 0.98}},
                      title="Figure 3", y_label="miss rate"))
"""

from repro.errors import ConfigError

#: Glyphs assigned to series, in order.
_GLYPHS = "ox+*#@%&"


def ascii_chart(series, title="", x_label="x", y_label="y", height=12, width=None):
    """Render one or more (x -> y) series as a character plot.

    ``series`` maps a series name to its points; ``None`` y-values are
    skipped (Figure 5's "no flip observed" entries).
    """
    points = {
        name: {x: y for x, y in data.items() if y is not None}
        for name, data in series.items()
    }
    xs = sorted({x for data in points.values() for x in data})
    ys = [y for data in points.values() for y in data.values()]
    if not xs or not ys:
        raise ConfigError("nothing to plot")
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    if width is None:
        width = max(2 * len(xs), 20)

    grid = [[" "] * width for _ in range(height)]
    columns = {x: int(i * (width - 1) / max(1, len(xs) - 1)) for i, x in enumerate(xs)}
    for index, (name, data) in enumerate(sorted(points.items())):
        glyph = _GLYPHS[index % len(_GLYPHS)]
        for x, y in data.items():
            row = int((y - y_lo) / (y_hi - y_lo) * (height - 1))
            grid[height - 1 - row][columns[x]] = glyph

    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(grid):
        label = y_hi if i == 0 else (y_lo if i == height - 1 else None)
        prefix = ("%8.3g |" % label) if label is not None else " " * 8 + " |"
        lines.append(prefix + "".join(row))
    lines.append(" " * 9 + "-" * width)
    lines.append(
        " " * 9 + str(xs[0]) + str(xs[-1]).rjust(width - len(str(xs[0])))
    )
    lines.append("%s: %s -> %s" % (", ".join(sorted(points)), x_label, y_label))
    legend = ", ".join(
        "%s=%s" % (_GLYPHS[i % len(_GLYPHS)], name)
        for i, name in enumerate(sorted(points))
    )
    lines.append("legend: " + legend)
    return "\n".join(lines)


def sweep_chart(result, height=12):
    """Chart a Figures-3/4 :class:`EvictionSweepResult`."""
    return ascii_chart(
        result.series,
        title=result.name,
        x_label="eviction-set size",
        y_label="miss rate",
        height=height,
    )
