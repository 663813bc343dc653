"""The result-file format: every JSON and CSV file the package writes.

JSON is ``json.dumps(payload, indent=2)`` in one write (``json.dump`` streams
a document in about a thousand pieces).  CSV is a header of column names,
then one row per record of numbers as their ``repr`` (floats round-trip
exactly), joined by commas, with CRLF line ends: the bytes ``csv.writer``
writes for fields that need no quoting.  ``WalkEnsemble.to_csv`` writes the
same format block by block.
"""

import json


def write_json(path, payload: dict) -> None:
    with open(path, "w") as f:
        f.write(json.dumps(payload, indent=2))


def write_csv(path, header, rows) -> None:
    """``header`` is the column names; each of ``rows`` a sequence of numbers."""
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        f.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)
