"""The common result API every experiment runner returns.

Each runner's result object derives from :class:`ExperimentResult` and
implements two things: ``render()`` (the human-readable rows/series the
paper reports) and ``to_rows()`` (a ``(header, rows)`` pair).  CSV
export is then one shared code path — ``result.write_csv(path_or_file)``
— instead of one hand-written writer per result shape.
"""

import csv


def write_rows(destination, rows, header):
    """Write ``header`` + ``rows`` as CSV; returns the data-row count.

    ``destination`` is a path or an open file-like object (the caller
    keeps ownership of objects it opened itself).
    """
    own = isinstance(destination, str)
    handle = open(destination, "w", newline="") if own else destination
    try:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    finally:
        if own:
            handle.close()
    return len(rows)


class ExperimentResult:
    """Base class for experiment results: render, tabulate, export.

    Subclasses implement :meth:`render` and :meth:`to_rows`;
    :meth:`write_csv` is inherited behaviour.
    """

    def render(self):
        """Human-readable text in the shape the paper reports."""
        raise NotImplementedError("%s must implement render()" % type(self).__name__)

    def to_rows(self):
        """``(header, rows)`` — the tabular form behind the CSV export."""
        raise NotImplementedError("%s must implement to_rows()" % type(self).__name__)

    def write_csv(self, destination):
        """Write :meth:`to_rows` as CSV; returns the data-row count."""
        header, rows = self.to_rows()
        return write_rows(destination, rows, header)
